"""Shared fixtures and independent brute-force oracles for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rasim
from rasim.engine import SimulationConfig
from rasim.predictor import FrameResult
from rasim.slicing import GridConfig
from rasim.traffic import TrafficConfig

# the directory holding the rasim under test, for PYTHONPATH in fresh interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(rasim.__file__)))
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
(PREDICTION_DEMO,) = (demo for demo in DEMOS if demo.stem == "demo_prediction")
_PREDICTION_RUN = pytest.StashKey[subprocess.Popen]()


def start_demo(demo: Path) -> subprocess.Popen:
    """Start one demo script in a fresh interpreter, its text output piped."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen(
        [sys.executable, str(demo)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish_demo(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    """Wait for a started demo to exit and keep its return code, stdout and stderr."""
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def pytest_collection_finish(session):
    # demo_prediction trains for seconds: once a collected test needs it, start
    # it now, so the training runs beside the tests collected before that one
    if any("prediction_demo" in getattr(item, "fixturenames", ()) for item in session.items):
        session.config.stash[_PREDICTION_RUN] = start_demo(PREDICTION_DEMO)


def pytest_unconfigure(config):
    proc = config.stash.get(_PREDICTION_RUN, None)
    if proc is not None and proc.poll() is None:  # the session ended before a test read it
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="session")
def prediction_demo(pytestconfig) -> subprocess.CompletedProcess:
    """demo_prediction's one run per session: its training report is what C10 checks."""
    return finish_demo(pytestconfig.stash.get(_PREDICTION_RUN, None) or start_demo(PREDICTION_DEMO))


@pytest.fixture
def stock_grid():
    return GridConfig()


@pytest.fixture
def stock_traffic():
    return TrafficConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def model_file(tmp_path):
    """A small LSTM model file for the stock populations (25 / 1000) and t_w 10."""
    from rasim.lstm import init_lstm
    from rasim.predictor import LstmPredictor, save_predictor

    rng = np.random.default_rng(5)
    path = tmp_path / "m.model"
    model_u, model_m = init_lstm(4, rng=rng, scale=1.0), init_lstm(4, rng=rng, scale=1.0)
    model_u.b_out = model_m.b_out = 0.2  # estimates inside (0, 1) that follow the window
    save_predictor(LstmPredictor(model_u, model_m, 25, 1000), path)
    return path


def rasterize(channels, f_size, s_size):
    """Occupancy grid of a channel list; raises on overlap or out-of-bounds."""
    grid = np.zeros((f_size, s_size), dtype=bool)
    for c in channels:
        block = grid[c.f_start : c.f_start + c.f_len, c.s_start : c.s_start + c.s_len]
        assert block.shape == (c.f_len, c.s_len), "channel leaves grid"
        assert not block.any(), "channels overlap"
        block[:] = True
    return grid


def brute_maximal_rects(occupied: np.ndarray):
    """All maximal free rectangles of an occupancy grid, by direct enumeration.

    Independent of the packer's incremental bookkeeping: test every rectangle
    for freeness and for inextensibility in the four directions.
    """
    f_size, s_size = occupied.shape
    free = ~occupied
    out = set()
    for f0 in range(f_size):
        for s0 in range(s_size):
            for w in range(1, f_size - f0 + 1):
                if not free[f0 : f0 + w, s0].all():
                    break
                for h in range(1, s_size - s0 + 1):
                    if not free[f0 : f0 + w, s0 : s0 + h].all():
                        break
                    if f0 > 0 and free[f0 - 1, s0 : s0 + h].all():
                        continue
                    if f0 + w < f_size and free[f0 + w, s0 : s0 + h].all():
                        continue
                    if s0 > 0 and free[f0 : f0 + w, s0 - 1].all():
                        continue
                    if s0 + h < s_size and free[f0 : f0 + w, s0 + h].all():
                        continue
                    out.add((f0, w, s0, h))
    return out


def exhaustive_pack_count(f_size: int, s_size: int, shapes) -> int:
    """Maximum number of disjoint boxes from `shapes` that fit in the grid.

    Exact branch-and-bound over cell bitmasks: the lowest free cell is either
    wasted or covered by some placement; prune with the free-area bound.
    `shapes` are (width, length) pairs; the smallest shape area divides the
    area bound.
    """
    shapes = sorted({(w, h) for (w, h) in shapes if w <= f_size and h <= s_size},
                    key=lambda wh: wh[0] * wh[1])
    if not shapes:
        return 0
    min_area = shapes[0][0] * shapes[0][1]
    n_cells = f_size * s_size

    def cell(f, s):
        return f * s_size + s

    # by_cell[c] = masks of all placements covering cell c
    masks = set()
    for w, h in shapes:
        for f0 in range(f_size - w + 1):
            for s0 in range(s_size - h + 1):
                mask = 0
                for f in range(f0, f0 + w):
                    for s in range(s0, s0 + h):
                        mask |= 1 << cell(f, s)
                masks.add(mask)
    by_cell = [[] for _ in range(n_cells)]
    for mask in masks:
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            by_cell[low].append(mask)
            m &= m - 1

    full = (1 << n_cells) - 1
    best = [0]
    visited = {}

    def free_count(mask):
        return mask.bit_count()

    def dfs(free_mask, placed):
        ub = placed + free_count(free_mask) // min_area
        if ub <= best[0]:
            return
        prev = visited.get(free_mask)
        if prev is not None and prev >= placed:
            return
        visited[free_mask] = placed
        if placed > best[0]:
            best[0] = placed
        if not free_mask:
            return
        low = (free_mask & -free_mask).bit_length() - 1
        for mask in by_cell[low]:
            if mask & ~free_mask:
                continue
            dfs(free_mask & ~mask, placed + 1)
        dfs(free_mask & (free_mask - 1), placed)  # waste the lowest cell

    dfs(full, 0)
    return best[0]


def enumerate_success_distribution(n_ues: int, n_channels: int):
    """Exact distribution of the success-channel count for uniform selection.

    Walks all n_channels**n_ues equally likely selection outcomes and counts
    channels picked exactly once (the grant-free success rule).
    """
    from itertools import product

    dist = {}
    total = n_channels**n_ues
    for outcome in product(range(n_channels), repeat=n_ues):
        counts = [0] * n_channels
        for c in outcome:
            counts[c] += 1
        s = sum(1 for c in counts if c == 1)
        dist[s] = dist.get(s, 0) + 1
    return {k: v / total for k, v in dist.items()}


def frame_rows(table) -> list[FrameResult]:
    """The rows of a (frames, fields) table, such as run_simulation's, as FrameResults."""
    return [FrameResult(*row) for row in table.tolist()]


def make_config(**kw) -> SimulationConfig:
    """SimulationConfig with keyword paths like traffic__k_m=500."""
    import dataclasses

    traffic = {k[len("traffic__"):]: v for k, v in kw.items() if k.startswith("traffic__")}
    grid = {k[len("grid__"):]: v for k, v in kw.items() if k.startswith("grid__")}
    sim = {k: v for k, v in kw.items() if "__" not in k}
    cfg = SimulationConfig(
        traffic=TrafficConfig(**traffic), grid=GridConfig(**grid), **sim
    )
    return dataclasses.replace(cfg)
