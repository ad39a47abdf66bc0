"""Every script under demos/ runs to the end in a fresh interpreter, silently on stderr."""

import pytest

from conftest import DEMOS, PREDICTION_DEMO, finish_demo, start_demo


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(demo, request):
    # demo_prediction trains the model C10 checks, so the two share one run
    if demo == PREDICTION_DEMO:
        run = request.getfixturevalue("prediction_demo")
    else:
        run = finish_demo(start_demo(demo))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
