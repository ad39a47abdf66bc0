import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_maximal_rects, exhaustive_pack_count, rasterize

from rasim.slicing import (
    MMTC,
    URLLC,
    ChannelAssignment,
    FreeRectSet,
    GridConfig,
    SlicingPlan,
    fixed_grid_slice,
    maxrect_slice,
    mmtc_box_ladder,
    packet_size_rbs,
    plan_dump_lines,
    render_plan_grid,
    validate_constraints,
)


class TestPacketSizing:
    def test_urllc_packet(self):
        sym, rbs = packet_size_rbs(32, 4, 5, 14)
        assert sym == pytest.approx(133.0)  # 256/2 + 5
        assert rbs == 10

    def test_mmtc_packet(self):
        sym, rbs = packet_size_rbs(200, 256, 5, 14)
        assert sym == pytest.approx(205.0)  # 1600/8 + 5
        assert rbs == 15

    def test_exact_one_rb(self):
        sym, rbs = packet_size_rbs(14, 256, 0, 14)
        assert sym == pytest.approx(14.0)
        assert rbs == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            packet_size_rbs(0, 4, 5, 14)
        with pytest.raises(ValueError):
            packet_size_rbs(32, 1, 5, 14)


class TestFixedGrid:
    def test_stock_grid_thirty_channels(self, stock_grid):
        plan = fixed_grid_slice(stock_grid)
        assert plan.l_total == 30
        assert all(c.f_len == 16 and c.s_len == 1 for c in plan.channels)
        assert plan.l_u == 5 and plan.l_m == 25
        assert not validate_constraints(plan, stock_grid)

    def test_minimal_grid(self):
        plan = fixed_grid_slice(GridConfig(f=16, s=1), l_u=0)
        assert plan.l_total == 1

    def test_too_narrow_grid_is_empty(self):
        assert fixed_grid_slice(GridConfig(f=15, s=10)).l_total == 0


def fits_anywhere(free: np.ndarray, w: int, h: int) -> bool:
    """Whether some w x h block of the (f, s) grid is all free."""
    if w > free.shape[0] or h > free.shape[1]:
        return False
    return bool(np.lib.stride_tricks.sliding_window_view(free, (w, h)).all(axis=(2, 3)).any())


class TestMaxRect:
    def test_empty_demand(self, stock_grid):
        plan = maxrect_slice(stock_grid, 0, 0)
        assert plan.l_total == 0

    def test_stock_grid_regression(self, stock_grid):
        # frozen from the committed deterministic heuristic
        plan = maxrect_slice(stock_grid, 5, 49)
        assert plan.l_u == 5
        assert plan.l_total == 31
        assert not validate_constraints(plan, stock_grid)

    def test_channel_band_endpoints(self, stock_grid):
        # total channels across a fixed-total demand sweep span exactly 31..41
        totals = [maxrect_slice(stock_grid, ku, 41 - ku).l_total for ku in range(1, 41)]
        assert min(totals) == 31
        assert max(totals) == 41

    def test_urllc_channels_first_and_single_slot(self, stock_grid):
        plan = maxrect_slice(stock_grid, 3, 10)
        urllc = [c for c in plan.channels if c.use_mode == URLLC]
        assert [c.id for c in urllc] == [0, 1, 2]
        assert all(c.s_len == 1 and c.f_len == 10 for c in urllc)

    def test_tiny_grid_matches_exhaustive_optimum(self):
        # 6x4 grid with a 4-RB packet: the oracle packs 6 boxes, so must we
        cfg = GridConfig(f=6, s=4, p_m=7, m_m=256, xi=0, nu=2)  # 7 symbols -> 4 RBs
        sym, iota = packet_size_rbs(cfg.p_m, cfg.m_m, cfg.xi, cfg.nu)
        assert iota == 4
        plan = maxrect_slice(cfg, 0, 100)
        shapes = [(w, h) for (w, h, _) in mmtc_box_ladder(iota)]
        assert plan.l_total == exhaustive_pack_count(6, 4, shapes) == 6

    def test_demand_shortfall_is_not_an_error(self, stock_grid):
        plan = maxrect_slice(stock_grid, 1000, 1000)
        assert plan.l_u == 50  # 5 per slot x 10 slots
        assert plan.l_total < 2000

    def test_determinism(self, stock_grid):
        a = maxrect_slice(stock_grid, 7, 23)
        b = maxrect_slice(stock_grid, 7, 23)
        assert a == b

    def test_negative_demand_rejected(self, stock_grid):
        with pytest.raises(ValueError):
            maxrect_slice(stock_grid, -1, 0)

    @given(
        f=st.integers(1, 24),
        s=st.integers(1, 6),
        nu=st.integers(1, 14),
        p_u=st.integers(1, 40),
        p_m=st.integers(1, 120),
        xi=st.integers(0, 5),
        k_u=st.integers(0, 60),
        k_m=st.integers(0, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_placement_order_does_not_depend_on_demand(self, f, s, nu, p_u, p_m, xi, k_u, k_m):
        # the rule urllc_room and mmtc_room rest on: a demand only cuts each
        # mode's placement sequence short, it never reorders or moves a channel
        grid = GridConfig(f=f, s=s, nu=nu, p_u=p_u, p_m=p_m, xi=xi)
        big = f * s + 1  # more channels than the grid has cells
        plan = maxrect_slice(grid, k_u, k_m)
        strips = maxrect_slice(grid, big, 0)
        assert plan.l_u == min(k_u, strips.l_u)
        assert plan.channels[: plan.l_u] == strips.channels[: plan.l_u]
        boxes = maxrect_slice(grid, plan.l_u, big)
        assert plan.l_m == min(k_m, boxes.l_m)
        assert plan.channels[plan.l_u :] == boxes.channels[plan.l_u : plan.l_total]

    def test_fuzz_constraints_and_area(self, rng):
        for _ in range(400):
            f = int(rng.integers(4, 36))
            s = int(rng.integers(1, 14))
            nu = int(rng.integers(2, 16))
            cfg = GridConfig(
                f=f,
                s=s,
                nu=nu,
                p_u=int(rng.integers(1, 60)),
                p_m=int(rng.integers(1, 200)),
                m_u=int(2 ** rng.integers(1, 5)),
                m_m=int(2 ** rng.integers(1, 9)),
                xi=int(rng.integers(0, 8)),
            )
            ku = int(rng.integers(0, 50))
            km = int(rng.integers(0, 60))
            plan = maxrect_slice(cfg, ku, km)
            assert not validate_constraints(plan, cfg), (cfg, ku, km)
            grid = rasterize(plan.channels, f, s)
            assert grid.sum() <= f * s
            # a mode short of its demand stopped because none of its shapes fit anywhere
            _, iota_u = packet_size_rbs(cfg.p_u, cfg.m_u, cfg.xi, cfg.nu)
            _, iota_m = packet_size_rbs(cfg.p_m, cfg.m_m, cfg.xi, cfg.nu)
            if plan.l_u < ku:
                assert not fits_anywhere(~grid, iota_u, 1), (cfg, ku, km)
            if plan.l_m < km:
                for w, h, _ in mmtc_box_ladder(iota_m):
                    assert not fits_anywhere(~grid, w, h), (cfg, ku, km, w, h)


class TestFreeRectSet:
    def test_exact_cover_and_maximality_after_each_placement(self, rng):
        for _ in range(40):
            f, s = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            free = FreeRectSet(f, s)
            occupied = np.zeros((f, s), dtype=bool)
            for _ in range(10):
                fit = free.bottom_left_fit(
                    [(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0)]
                )
                if fit is None:
                    break
                bf, w, bs, h, _ = fit
                free.place(bf, w, bs, h)
                occupied[bf : bf + w, bs : bs + h] = True
                assert set(free.rects) == brute_maximal_rects(occupied)

    def test_bottom_left_order_prefers_low_frequency_then_time(self):
        free = FreeRectSet(4, 4)
        free.place(0, 1, 0, 2)  # occupy (f=0, s=0..1)
        spot = free.bottom_left_fit([(1, 1, 0)])
        assert (spot[0], spot[2]) == (0, 2)


class TestValidator:
    def _plan(self, channels):
        return SlicingPlan(tuple(channels), 50, 10)

    def test_overlap_detected(self, stock_grid):
        plan = self._plan(
            [
                ChannelAssignment(0, MMTC, 1, 0, 2, 0, 8),
                ChannelAssignment(1, MMTC, 1, 1, 2, 5, 8),
            ]
        )
        violations = validate_constraints(plan, stock_grid)
        assert [v.constraint for v in violations].count("overlap") == 1

    def test_urllc_multi_slot_rejected(self, stock_grid):
        plan = self._plan([ChannelAssignment(0, URLLC, 0, 0, 10, 0, 2)])
        assert any(v.constraint == "single-slot" for v in validate_constraints(plan, stock_grid))

    def test_numerology_width_rule(self, stock_grid):
        plan = self._plan([ChannelAssignment(0, MMTC, 2, 0, 6, 0, 4)])  # 6 not multiple of 4
        assert any(v.constraint == "numerology" for v in validate_constraints(plan, stock_grid))
        plan = self._plan([ChannelAssignment(0, MMTC, 3, 0, 16, 0, 1)])  # mu out of range
        assert any(v.constraint == "numerology" for v in validate_constraints(plan, stock_grid))

    def test_capacity_rule(self, stock_grid):
        plan = self._plan([ChannelAssignment(0, MMTC, 0, 0, 1, 0, 5)])  # 5 < 15 RBs
        assert any(v.constraint == "capacity" for v in validate_constraints(plan, stock_grid))

    def test_out_of_grid(self, stock_grid):
        plan = self._plan([ChannelAssignment(0, MMTC, 0, 45, 15, 0, 1)])
        assert any(v.constraint == "well-formed" for v in validate_constraints(plan, stock_grid))


class TestPlanOutput:
    def test_dump_lines(self, stock_grid):
        plan = maxrect_slice(stock_grid, 1, 1)
        lines = plan_dump_lines(plan)
        assert lines[0] == "0,urllc,0,0,10,0,1"
        parts = lines[1].split(",")
        assert parts[1] == "mmtc" and len(parts) == 7

    def test_render_shape_and_fill(self, stock_grid):
        plan = maxrect_slice(stock_grid, 5, 49)
        art = render_plan_grid(plan)
        rows = art.splitlines()
        assert len(rows) == 10 and all(len(r) == 50 for r in rows)
        painted = sum(ch != "." for row in rows for ch in row)
        assert painted == sum(c.area for c in plan.channels)
