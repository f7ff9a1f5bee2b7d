import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segenc.pareto import (
    ObjectivePoint,
    ParetoFront,
    dominates,
    front_flags,
    pareto_front,
    select_mode_optimal,
)
from segenc.solver import ConstraintSet


def brute_force_front(points):
    """Independent O(n^2) oracle: full pairwise dominance matrix."""
    q = np.array([p.quality for _, p in points])
    b = np.array([p.bitrate for _, p in points])
    c = np.array([p.enc_cost for _, p in points])
    keep = []
    for i in range(len(points)):
        geq = (q >= q[i]) & (b <= b[i]) & (c <= c[i])
        strict = (q > q[i]) | (b < b[i]) | (c < c[i])
        if not np.any(geq & strict):
            keep.append(i)
    return keep


def random_points(rng, n, duplicates=False):
    q = rng.uniform(30.0, 45.0, n)
    b = rng.uniform(100.0, 20000.0, n)
    c = rng.uniform(0.01, 10.0, n)
    if duplicates and n >= 4:
        q[1], b[1], c[1] = q[0], b[0], c[0]
        q[3], b[3], c[3] = q[2], b[2], c[2]
    return [(i, ObjectivePoint(q[i], b[i], c[i])) for i in range(n)]


class TestDominates:
    def test_strict_improvement_everywhere(self):
        a = ObjectivePoint(40.0, 1000.0, 5.0)
        b = ObjectivePoint(39.0, 1200.0, 6.0)
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        a = ObjectivePoint(40.0, 1000.0, 5.0)
        assert not dominates(a, a)

    def test_tradeoff_is_incomparable(self):
        a = ObjectivePoint(40.0, 1000.0, 5.0)
        b = ObjectivePoint(41.0, 900.0, 6.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ObjectivePoint(float("inf"), 1.0, 1.0)


class TestFrontExtraction:
    def test_matches_bruteforce_on_random_instances(self, rng):
        for trial in range(50):
            n = int(rng.integers(1, 400))
            pts = random_points(rng, n, duplicates=trial % 10 == 0)
            got = [cfg for cfg, _ in pareto_front(pts).entries]
            assert got == brute_force_front(pts)

    def test_single_point(self):
        pts = [("only", ObjectivePoint(40.0, 1000.0, 5.0))]
        assert pareto_front(pts).entries == tuple(pts)

    def test_dominance_chain_collapses(self):
        p1 = ("p1", ObjectivePoint(42.0, 900.0, 4.0))
        p2 = ("p2", ObjectivePoint(41.0, 950.0, 5.0))
        p3 = ("p3", ObjectivePoint(40.0, 1000.0, 6.0))
        front = pareto_front([p3, p1, p2])
        assert [cfg for cfg, _ in front.entries] == ["p1"]

    def test_duplicates_coexist(self):
        p = ObjectivePoint(42.0, 900.0, 4.0)
        front = pareto_front([("a", p), ("b", p)])
        assert len(front.entries) == 2

    def test_idempotent(self, rng):
        pts = random_points(rng, 200)
        once = pareto_front(pts)
        twice = pareto_front(list(once.entries))
        assert twice.entries == once.entries

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pareto_front([])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_adding_dominated_point_never_changes_front(self, seed):
        rng = np.random.default_rng(seed)
        pts = random_points(rng, 50)
        front = pareto_front(pts)
        _, member = front.entries[0]
        worse = ObjectivePoint(member.quality - 1.0, member.bitrate + 1.0,
                               member.enc_cost + 0.1)
        bigger = pareto_front(pts + [("worse", worse)])
        assert {cfg for cfg, _ in bigger.entries} == {cfg for cfg, _ in front.entries}

    def test_every_excluded_point_is_dominated(self, rng):
        pts = random_points(rng, 1000)
        front = pareto_front(pts)
        kept = {cfg for cfg, _ in front.entries}
        members = [p for _, p in front.entries]
        for cfg, point in pts:
            if cfg in kept:
                continue
            assert any(dominates(m, point) for m in members)

    def test_front_flags_mark_members(self, rng):
        pts = random_points(rng, 64)
        flags = front_flags(pts)
        assert [i for i, f in enumerate(flags) if f] == brute_force_front(pts)


FRAMES = 150  # encoded frames of every TestModeSelection entry


def time_point(quality, bitrate, time_s):
    return ObjectivePoint.from_enc_rate(quality, bitrate, FRAMES / time_s)


class TestModeSelection:
    # measured whole-video entries from a dense 1080p front: (time s, kbps, dB)
    FRONT = [
        ("B2/superfast", time_point(42.8, 4167.3, 4.8)),
        ("B2/medium", time_point(39.1, 1049.2, 6.9)),
        ("ZL/faster", time_point(31.9, 147.0, 2.3)),
    ]

    def _front(self):
        return ParetoFront(tuple(self.FRONT))

    def test_max_quality_under_time_and_rate_bounds(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=5000.0, max_time_s=5.0,
                           tol_bitrate=0.0, tol_fps=0.0, tol_quality=0.0)
        config, point = select_mode_optimal(self._front(), cs, frames=FRAMES)
        assert config == "B2/superfast"
        assert point.bitrate == pytest.approx(4167.3)

    def test_single_satisfying_entry_wins_regardless(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=500.0, max_time_s=5.0,
                           tol_bitrate=0.0, tol_fps=0.0, tol_quality=0.0)
        config, _ = select_mode_optimal(self._front(), cs, frames=FRAMES)
        assert config == "ZL/faster"

    def test_least_violation_fallback(self):
        cs = ConstraintSet(mode="min_bitrate", min_quality=50.0,
                           tol_bitrate=0.0, tol_fps=0.0, tol_quality=0.0)
        config, _ = select_mode_optimal(self._front(), cs, frames=FRAMES)
        # relative quality shortfalls: 1-42.8/50 = 0.144 is the smallest
        assert config == "B2/superfast"

    def test_selected_entry_not_dominated_in_feasible_subset(self, rng):
        pts = random_points(rng, 200)
        front = pareto_front(pts)
        cs = ConstraintSet(mode="min_bitrate", min_quality=35.0)
        cfg, point = select_mode_optimal(front, cs)
        feasible = [p for _, p in front.entries if p.quality >= 35.0 * 0.95]
        assert not any(dominates(other, point) for other in feasible)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pick_matches_oracle(self, data):
        """Against an oracle that reads each bound and mode objective afresh."""
        n = data.draw(st.integers(1, 30))
        scale = st.floats(0.5, 2.0)  # of each bound against its centre
        pts = [
            (i, ObjectivePoint.from_enc_rate(
                data.draw(st.floats(25.0, 50.0)), data.draw(st.floats(100.0, 20000.0)),
                data.draw(st.floats(1.0, 300.0))))
            for i in range(n)
        ]
        front = pareto_front(pts)
        frames = data.draw(st.integers(1, 300))
        # bound name -> (value at the centre of the drawn entries, value of a point,
        # upper bound?, tolerance field)
        oracle = {
            "max_bitrate_kbps": (3000.0, lambda p: p.bitrate, True, "tol_bitrate"),
            "min_quality": (37.0, lambda p: p.quality, False, "tol_quality"),
            "min_fps": (50.0, lambda p: p.enc_rate, False, "tol_fps"),
            "max_time_s": (3.0, lambda p: frames / p.enc_rate, True, "tol_fps"),
        }
        names = data.draw(st.sets(st.sampled_from(sorted(oracle)), min_size=1))
        bounds = {name: oracle[name][0] * data.draw(scale) for name in names}
        tol = {name: data.draw(st.floats(0.0, 0.5))
               for name in ("tol_bitrate", "tol_quality", "tol_fps")}
        mode = data.draw(st.sampled_from(["max_quality", "min_bitrate",
                                          "max_enc_rate", "min_enc_time"]))
        cs = ConstraintSet(mode=mode, **bounds, **tol)

        def overshoots(p):
            """Relative overshoot of every bound whose tolerance band p falls outside."""
            out = []
            for name, bound in bounds.items():
                _, value_of, upper, tol_field = oracle[name]
                value, band = value_of(p), tol[tol_field]
                if upper and value > bound * (1.0 + band):
                    out.append(value / bound - 1.0)
                elif not upper and value < bound * (1.0 - band):
                    out.append(1.0 - value / bound)
            return out

        gain = {  # the mode objective, larger is better
            "max_quality": lambda p: p.quality,
            "min_bitrate": lambda p: -p.bitrate,
            "max_enc_rate": lambda p: p.enc_rate,
            "min_enc_time": lambda p: p.enc_rate,
        }[mode]
        _, pick = select_mode_optimal(front, cs, frames=frames)
        entries = [p for _, p in front.entries]
        feasible = [p for p in entries if not overshoots(p)]
        if feasible:
            assert not overshoots(pick)
            assert all(gain(p) <= gain(pick) for p in feasible)
        else:
            least = min(sum(overshoots(p)) for p in entries)
            assert sum(overshoots(pick)) == pytest.approx(least, rel=1e-12)
