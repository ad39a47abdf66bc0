import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SRC

from rasim.cli import main
from rasim.config import ConfigError, config_hash, config_to_dict, load_config
from rasim.engine import SimulationConfig, realization_metrics, run_monte_carlo


@pytest.fixture
def cfg_file(tmp_path):
    def write(content=""):
        path = tmp_path / "config.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    return write


class TestConfigLoading:
    def test_empty_file_gives_stock_defaults(self, cfg_file):
        cfg = load_config(cfg_file(""))
        assert cfg == SimulationConfig()
        assert cfg.grid.f == 50 and cfg.grid.s == 10 and cfg.grid.nu == 14
        assert cfg.grid.p_u == 32 and cfg.grid.p_m == 200
        assert cfg.grid.m_u == 4 and cfg.grid.m_m == 256 and cfg.grid.xi == 5
        assert cfg.traffic.k_m == 1000 and cfg.traffic.k_u == 25
        assert cfg.traffic.k_m_periodic == 10
        assert cfg.frames == 1200

    def test_nested_overrides(self, cfg_file):
        cfg = load_config(
            cfg_file({"traffic": {"k_m": 500}, "grid": {"f": 32}, "acb": "opt-inv", "seed": 5})
        )
        assert cfg.traffic.k_m == 500 and cfg.grid.f == 32
        assert cfg.acb.kind == "opt-inv" and cfg.seed == 5


    def test_bad_weights_named(self, cfg_file, capsys):
        # the packer optimises no weighted objective: its weights are unknown fields
        for field in ("omega_u", "omega_m", "omega_p", "z_fractional"):
            path = cfg_file({"grid": {field: 0.5}})
            with pytest.raises(ConfigError, match=f"grid: unknown field.*{field}"):
                load_config(path)
            assert main(["validate", "--config", path]) == 1
            assert field in capsys.readouterr().err

    def test_zero_frames_named(self, cfg_file):
        with pytest.raises(ConfigError, match="frames"):
            load_config(cfg_file({"frames": 0}))

    def test_unknown_field_named(self, cfg_file):
        with pytest.raises(ConfigError, match="bogus"):
            load_config(cfg_file({"traffic": {"bogus": 1}}))

    def test_not_json(self, cfg_file):
        with pytest.raises(ConfigError, match="JSON"):
            load_config(cfg_file("{{{"))

    def test_integer_too_long_to_read_is_a_config_error(self, cfg_file):
        # json refuses integers of over 4300 digits with a plain ValueError
        with pytest.raises(ConfigError, match="JSON"):
            load_config(cfg_file('{"frames": ' + "1" * 5000 + "}"))

    def test_hash_is_stable(self, cfg_file):
        a = config_hash(config_to_dict(load_config(cfg_file(""))))
        b = config_hash(config_to_dict(load_config(cfg_file("{}"))))
        assert a == b and len(a) == 64


class TestValidateCommand:
    def test_valid_config(self, cfg_file, capsys):
        assert main(["validate", "--config", cfg_file("")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_config(self, cfg_file, capsys):
        assert main(["validate", "--config", cfg_file({"frames": 0})]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("loader", ["config", "model"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_file_names_it(self, cfg_file, tmp_path, capsys, loader, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"frames": "\xff\xfe"}')
        if loader == "config":
            argv = ["validate", "--config", str(path)]
        else:
            cfg = cfg_file({"predictor": f"lstm:{path}", "frames": 5})
            argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{path}: cannot read" in err

    @pytest.mark.parametrize(
        "field,spec",
        [
            ("slicer", "counts:3"),
            ("slicer", "fixed:x"),
            ("predictor", "lstm:"),
            ("predictor", "oracle"),
            ("acb", "static:x"),
            ("acb", "static:2"),
            ("acb", "bogus"),
        ],
    )
    def test_malformed_spec_fails_at_load(self, cfg_file, capsys, field, spec):
        path = cfg_file({field: spec})
        with pytest.raises(ConfigError, match=f"simulation: {field}: "):
            load_config(path)
        assert main(["validate", "--config", path]) == 1
        assert f"simulation: {field}: " in capsys.readouterr().err


class TestSliceCommand:
    def test_prints_dump_and_grid(self, cfg_file, capsys):
        assert main(["slice", "--config", cfg_file(""), "--ku", "5", "--km", "49"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0,urllc,0,0,10,0,1"
        assert sum("." in line or line[0].isalnum() for line in out) >= 41
        assert "violations=0" in out[-1]


class TestTrainCommand:
    def test_train_writes_deterministic_model(self, cfg_file, tmp_path, capsys):
        cfg = cfg_file(
            {
                "traffic": {"k_m": 200, "k_u": 10},
                "slicer": "counts:3,12",
                "seed": 4,
            }
        )
        size = ["--samples", "60", "--epochs", "4"]
        here = tmp_path / "here.txt"
        assert main(["train", "--config", cfg, "--out", str(here), *size]) == 0
        assert "val mse" in capsys.readouterr().out
        # fresh interpreters whose string hashes order a set of the class tags
        # ("u", "m") one way under hash seed 0 and the other way under 1
        for hash_seed in ("0", "1"):
            fresh = tmp_path / f"fresh{hash_seed}.txt"
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
            argv = ["-m", "rasim.cli", "train", "--config", cfg, "--out", str(fresh), *size]
            run = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            assert fresh.read_bytes() == here.read_bytes(), hash_seed

    def test_zero_samples_is_config_error(self, cfg_file, tmp_path):
        code = main(
            ["train", "--config", cfg_file(""), "--out", str(tmp_path / "m"), "--samples", "0"]
        )
        assert code == 1

    @pytest.mark.parametrize("traffic,field", [
        pytest.param({"k_u": 0}, "k_u", id="no-urllc"),
        pytest.param({"k_m": 0, "k_m_periodic": 0}, "k_m", id="no-mmtc"),
    ])
    def test_empty_class_exits_1_before_any_trace(
        self, cfg_file, tmp_path, capsys, monkeypatch, traffic, field
    ):
        import rasim.training

        def trace(*args, **kwargs):
            raise AssertionError("a trace was generated for an empty class")

        monkeypatch.setattr(rasim.training, "generate_trace", trace)
        path = cfg_file({"traffic": traffic})
        out = tmp_path / "m.txt"
        assert main(["train", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}: traffic: {field} is 0")
        assert not out.exists()


class TestModelFiles:
    """A model file that cannot be read, or does not fit the config, is a config error."""

    def _simulate(self, cfg_file, tmp_path, model, **fields):
        cfg = cfg_file({"predictor": f"lstm:{model}", "slicer": "maxrect", "frames": 5, **fields})
        return main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "cut,line",
        [
            pytest.param(lambda lines: lines[:30], 31, id="truncated"),
            pytest.param(lambda lines: lines[:7] + ["0.1 oops 0.3"] + lines[8:], 8, id="garbled"),
            *(
                # line 5 holds the first row of the u model's w_x
                pytest.param(
                    lambda lines, v=value: lines[:4] + [f"{v} {lines[4].split(None, 1)[1]}"] + lines[5:],
                    5, id=value,
                )
                for value in ("nan", "inf", "-inf")
            ),
        ],
    )
    def test_malformed_model_names_file_and_line(
        self, cfg_file, tmp_path, capsys, model_file, cut, line
    ):
        lines = model_file.read_text().splitlines()
        model_file.write_text("\n".join(cut(lines)) + "\n")
        assert self._simulate(cfg_file, tmp_path, model_file) == 1
        err = capsys.readouterr().err
        assert "config error" in err and str(model_file) in err and f"line {line}" in err

    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"t_w": 3}, "t_w"),
            ({"traffic": {"k_m": 5000}}, "k_m"),
            ({"traffic": {"k_u": 4}}, "k_u"),
        ],
    )
    def test_model_for_another_config_refused(
        self, cfg_file, tmp_path, capsys, model_file, fields, name
    ):
        assert self._simulate(cfg_file, tmp_path, model_file, **fields) == 1
        err = capsys.readouterr().err
        assert "config error" in err and name in err and str(model_file) in err

    @pytest.mark.parametrize("model,fields", [
        pytest.param("{tmp}/missing.model", {}, id="missing-file"),
        pytest.param("{model}", {"t_w": 3}, id="t_w-mismatch"),
    ])
    def test_model_error_leaves_no_out(self, cfg_file, tmp_path, capsys, model_file, model, fields):
        model = model.replace("{tmp}", str(tmp_path)).replace("{model}", str(model_file))
        assert self._simulate(cfg_file, tmp_path, model, **fields) == 1
        assert model in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_classes_of_unequal_hidden_size_refused(self, cfg_file, tmp_path, capsys, model_file):
        from rasim.lstm import init_lstm
        from rasim.predictor import LstmPredictor, save_predictor

        # the fixture's u model (hidden 4) with an m model of hidden 3
        small = tmp_path / "small.model"
        rng = np.random.default_rng(6)
        pred = LstmPredictor(init_lstm(3, rng=rng), init_lstm(3, rng=rng), 25, 1000, t_w=10)
        save_predictor(pred, small)
        lines, small_lines = model_file.read_text().splitlines(), small.read_text().splitlines()
        header = lines.index("class m population 1000 hidden 4")
        m_part = small_lines[small_lines.index("class m population 1000 hidden 3"):]
        model_file.write_text("\n".join(lines[:header] + m_part) + "\n")
        assert self._simulate(cfg_file, tmp_path, model_file) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{model_file}, line {header + 1}:" in err
        assert "the same in both classes" in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_file_read_once_per_sweep(self, tmp_path, model_file, monkeypatch, workers):
        # each call appends a line to a file, so calls in pool workers count too
        from rasim import predictor
        from rasim.scenarios import Scenario, ScenarioPoint, run_scenario

        log = tmp_path / "loads.log"
        orig = predictor.load_predictor

        def counting(path):
            with open(log, "a") as fh:
                fh.write(f"{path}\n")
            return orig(path)

        for name, module in list(sys.modules.items()):
            if name == "rasim" or name.startswith("rasim."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, counting)
        # two points share the file
        points = tuple(
            ScenarioPoint(f"p{seed}", SimulationConfig(
                predictor=f"lstm:{model_file}", frames=5, realizations=4, seed=seed))
            for seed in (1, 2)
        )
        run_scenario(Scenario("s", points), str(tmp_path / "out"), workers=workers)
        assert log.read_text().splitlines() == [str(model_file)]
        assert multiprocessing.active_children() == []

    def _lstm_point(self, model_file):
        return {"predictor": f"lstm:{model_file}", "slicer": "maxrect",
                "frames": 40, "realizations": 5}

    def test_lstm_outputs_identical_across_workers(self, cfg_file, tmp_path, model_file):
        # 5 realizations run as one block of lanes, as blocks 2 + 3, and as 1 + 2 + 2
        cfg = cfg_file(self._lstm_point(model_file))
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"out{workers}"
            assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", workers]) == 0
            assert multiprocessing.active_children() == []
            names = ("run.csv", "summary.csv", "manifest.json")
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_each_lane_equals_its_realization_run_alone(self, cfg_file, model_file):
        cfg = load_config(cfg_file(self._lstm_point(model_file)))
        result = run_monte_carlo(cfg)
        for i in range(cfg.realizations):
            alone = realization_metrics(cfg, range(i, i + 1))
            assert np.array_equal(result.metrics[:, i], alone[:, 0], equal_nan=True), i
        # the estimates, and so the URLLC slices, differ from lane to lane
        assert len({tuple(row) for row in result.stacks["l_u"].tolist()}) == cfg.realizations


class TestExitCodes:
    """Exit 1 is for bad input only; any other failure is a runtime failure, exit 2."""

    def test_invariant_failure_mid_run_exits_2(self, cfg_file, tmp_path, capsys, monkeypatch):
        import rasim.engine

        orig = rasim.engine.update_backlog
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 4:
                raise ValueError("failed counts exceed active counts")
            return orig(*args)

        monkeypatch.setattr(rasim.engine, "update_backlog", failing)
        cfg = cfg_file({"slicer": "counts:3,15", "frames": 10})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "config error" not in err

    def test_internal_file_not_found_exits_2(self, cfg_file, tmp_path, capsys, monkeypatch):
        # every input file is read through errors.read_text, which raises ConfigError
        import rasim.cli

        def missing(*args, **kwargs):
            raise FileNotFoundError("an internal file")

        monkeypatch.setattr(rasim.cli, "run_scenario", missing)
        assert main(["simulate", "--config", cfg_file(""), "--out", str(tmp_path / "out")]) == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command,out", [
        pytest.param("simulate", "{file}/sub", id="simulate-under-a-file"),
        pytest.param("simulate", "{file}", id="simulate-onto-a-file"),
        pytest.param("train", "{tmp}/missing/m.txt", id="train-into-a-missing-directory"),
        pytest.param("train", "{file}/m.txt", id="train-under-a-file"),
        pytest.param("train", "{tmp}", id="train-onto-a-directory"),
    ])
    def test_unwritable_out_exits_1_before_any_work(
        self, cfg_file, tmp_path, capsys, monkeypatch, command, out
    ):
        # an unwritable directory is not among the cases: a process run as root writes
        # through permission bits, so the case cannot be built there
        import rasim.cli

        def work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(rasim.cli, "run_scenario", work)
        monkeypatch.setattr(rasim.cli, "train_backlog_predictor", work)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = out.replace("{file}", str(blocker)).replace("{tmp}", str(tmp_path))
        assert main([command, "--config", cfg_file(""), "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_empty_out_exits_1_before_any_work(self, cfg_file, capsys, monkeypatch, command):
        import rasim.cli

        def work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(rasim.cli, "run_scenario", work)
        monkeypatch.setattr(rasim.cli, "train_backlog_predictor", work)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_file(""), "--out", ""])
        assert exc.value.code == 1
        assert "argument --out: an empty path" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--frames", "0"],
        ["simulate", "--realizations", "0"],
        ["train", "--out", "{tmp}/m.txt", "--epochs", "0"],
        ["slice", "--ku", "-1"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--workers", "0"],
        ["simulate", "--workers", "-4"],
    ])
    def test_bad_arguments_exit_1(self, cfg_file, tmp_path, capsys, argv):
        cmd, *rest = (arg.replace("{tmp}", str(tmp_path)) for arg in argv)
        if cmd == "simulate":
            rest += ["--out", str(tmp_path / "out")]
        assert main([cmd, "--config", cfg_file(""), *rest]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--preset", "fig4"], id="no --config"),
        pytest.param(["simulate", "--config", "c.json", "--frames", "x"], id="--frames x"),
        pytest.param(["bogus"], id="unknown subcommand"),
    ])
    def test_usage_errors_exit_1(self, capsys, argv):
        # argparse's own exit code for these is 2, which is kept for runtime failures
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rasim") and "error:" in err


MALFORMED = [
    ({"frames": "10"}, "simulation: frames"),
    ({"frames": 10.5}, "simulation: frames"),
    ({"frames": True}, "simulation: frames"),
    ({"seed": "x"}, "simulation: seed"),
    ({"seed": -2}, "simulation: seed"),
    ({"seed": 2.5}, "simulation: seed"),
    ({"seed": True}, "simulation: seed"),
    ({"t_w": 2.5}, "simulation: t_w"),
    ({"steady_fraction": "0.2"}, "simulation: steady_fraction"),
    ({"predictor": 5}, "simulation: predictor"),
    ({"acb": 3}, "simulation: acb"),
    ({"traffic": None}, "traffic:"),
    ({"traffic": {"alpha": "3"}}, "traffic: alpha"),
    ({"traffic": {"k_m": 1000.5}}, "traffic: k_m"),
    ({"grid": {"f": "50"}}, "grid: f"),
]


class TestMalformedConfigs:
    """A malformed config exits 1 before any work, naming the file and the section or field."""

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize(
        "content,named", MALFORMED, ids=[json.dumps(c) for c, _ in MALFORMED]
    )
    def test_exits_1_naming_file_and_field(
        self, cfg_file, tmp_path, capsys, command, content, named
    ):
        path = cfg_file(content)
        out = tmp_path / "out"
        argv = [command, "--config", path] + (["--out", str(out)] if command == "simulate" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: {named}"), err
        assert not out.exists()


class TestSimulateCommand:
    def _run(self, cfg_file, tmp_path, name, extra=()):
        out = tmp_path / name
        cfg = cfg_file(
            {
                "traffic": {"k_m": 300, "k_u": 8},
                "slicer": "counts:3,15",
                "frames": 40,
                "realizations": 3,
                "seed": 12,
            }
        )
        code = main(["simulate", "--config", cfg, "--out", str(out), *extra])
        assert code == 0
        return out

    def test_outputs_exist(self, cfg_file, tmp_path):
        out = self._run(cfg_file, tmp_path, "a")
        assert (out / "run.csv").exists()
        assert (out / "summary.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["run.csv", "summary.csv"]
        header = (out / "run.csv").read_text().splitlines()[0]
        assert header == (
            "frame,eta,cl_u,cl_m,served_u,served_m,backlog_u,backlog_m,"
            "l_u,l_m,collisions_u,collisions_m"
        )

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        a = self._run(cfg_file, tmp_path, "a")
        b = self._run(cfg_file, tmp_path, "b")
        for name in ("run.csv", "summary.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_identical_to_serial(self, cfg_file, tmp_path):
        a = self._run(cfg_file, tmp_path, "serial")
        b = self._run(cfg_file, tmp_path, "par", extra=("--workers", "2"))
        for name in ("run.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_matches_recomputation_from_frame_csv(self, cfg_file, tmp_path):
        # the steady-window grand mean equals the mean over per-frame means
        # whenever no samples are absent, up to reduction-order rounding
        out = self._run(cfg_file, tmp_path, "a")
        rows = (out / "run.csv").read_text().splitlines()
        header = rows[0].split(",")
        eta_col = header.index("eta")
        etas = [float(r.split(",")[eta_col]) for r in rows[1:]]
        steady = etas[int(len(etas) * 0.8):]
        summary = (out / "summary.csv").read_text().splitlines()
        eta_mean = float(summary[1].split(",")[summary[0].split(",").index("eta_mean")])
        assert eta_mean == pytest.approx(np.mean(steady), abs=1e-12)

    def test_preset_materializes_points(self, cfg_file, tmp_path):
        out = tmp_path / "f4"
        cfg = cfg_file({"frames": 5, "realizations": 2, "seed": 3})
        code = main(
            ["simulate", "--config", cfg, "--preset", "fig4", "--out", str(out),
             "--frames", "5", "--realizations", "2"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        labels = [p["label"] for p in manifest["points"]]
        assert "gf_km1000" in labels and "opt-inv_km30000" in labels
        assert len(labels) == 28  # 7 population points x 4 policies

    def test_cli_overrides_reach_every_preset_point(self, cfg_file, tmp_path):
        out = tmp_path / "f4"
        cfg = cfg_file({"frames": 50, "realizations": 3, "seed": 3})
        argv = ["simulate", "--config", cfg, "--out", str(out), "--frames", "5",
                "--realizations", "2", "--seed", "9", "--preset", "fig4"]
        assert main(argv) == 0
        points = json.loads((out / "manifest.json").read_text())["points"]
        assert len(points) == 28
        for point in points:
            recorded = point["config"]
            assert (recorded["frames"], recorded["realizations"], recorded["seed"]) == (5, 2, 9)
            assert point["seed"] == 9

    @pytest.mark.parametrize(
        "argv,sizes",
        [
            (["--realizations", "2", "--workers", "8"], [2]),  # one point: two blocks of one lane
            (["--preset", "fig4", "--realizations", "2", "--workers", "2"], [2]),
        ],
    )
    def test_pool_has_no_more_workers_than_blocks(
        self, cfg_file, tmp_path, monkeypatch, argv, sizes
    ):
        # the executor starts every worker on the first submit, so its size is
        # the processes a sweep forks; this stand-in starts none
        import concurrent.futures

        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = cfg_file({"frames": 5, "seed": 3})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), *argv]) == 0
        assert started == sizes


class TestImports:
    def test_console_script_is_main(self):
        # the rasim command that an install puts on the PATH calls cli.main
        import importlib
        import tomllib

        with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["rasim"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_numpy_loads_before_argparse(self):
        # the cli imports rasim, and so numpy, before argparse: the other order
        # peaks higher in RSS; a fresh interpreter shows the order sys.modules records
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); import rasim.cli; "
            "names = list(sys.modules); print(names.index('numpy'), names.index('argparse'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        numpy_at, argparse_at = map(int, out.stdout.split())
        assert numpy_at < argparse_at
