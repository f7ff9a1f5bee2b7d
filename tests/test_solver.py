import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segenc import solver
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.models import fit_log_poly, predict
from segenc.solver import (
    ConstraintSet,
    SolverError,
    TargetUnreachableError,
    check_constraints,
    local_search,
    make_mode,
    newton_solve,
    round_qp,
    solve_constrained,
)

import refsolver
from conftest import make_model, random_monotone_quadratic

B6 = REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]
X265_QPS = list(range(16, 44, 3))


def bisection_root(model, target, lo=None, hi=None, tol=1e-12):
    """Independent oracle: plain bisection on the bracketing interval."""
    lo = model.qp_min if lo is None else lo
    hi = model.qp_max if hi is None else hi
    lt = math.log(target)
    f_lo = model.log_value(lo) - lt
    f_hi = model.log_value(hi) - lt
    assert f_lo * f_hi <= 0, "oracle needs a bracketing interval"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = model.log_value(mid) - lt
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def fitted(objective):
    a, b1, b2 = B6[objective]
    samples = [(q, math.exp(a + b1 * q + b2 * q * q)) for q in X265_QPS]
    return fit_log_poly(samples, 2, objective=objective)


class TestNewton:
    def test_bits_inversion_matches_closed_form(self):
        model = make_model(B6["bits"])
        target = 11205.77
        # closed-form quadratic roots of a + b1 q + b2 q^2 = ln(target)
        a, b1, b2 = B6["bits"]
        c = a - math.log(target)
        disc = b1 * b1 - 4 * b2 * c
        roots = sorted(((-b1 - math.sqrt(disc)) / (2 * b2), (-b1 + math.sqrt(disc)) / (2 * b2)))
        in_range = [r for r in roots if 16 <= r <= 43]
        assert len(in_range) == 1
        assert 27.9 <= in_range[0] <= 28.1

        got = newton_solve(model, target)
        assert got == pytest.approx(in_range[0], abs=1e-6)

    def test_identity_target_returns_start(self):
        model = make_model(B6["bits"])
        target = predict(model, 30.0)
        assert newton_solve(model, target, start=30.0) == pytest.approx(30.0, abs=1e-9)
        # also from the default start
        assert newton_solve(model, target) == pytest.approx(30.0, abs=1e-7)

    def test_unreachable_target_reports_boundary(self):
        model = make_model(B6["bits"])  # decreasing over [16, 43]
        too_big = predict(model, 16.0) * 2.0
        with pytest.raises(TargetUnreachableError) as info:
            newton_solve(model, too_big)
        assert info.value.boundary_qp == 16.0
        too_small = predict(model, 43.0) / 2.0
        with pytest.raises(TargetUnreachableError) as info:
            newton_solve(model, too_small)
        assert info.value.boundary_qp == 43.0

    def test_agrees_with_bisection_on_random_monotone_models(self, rng):
        for _ in range(200):
            model = random_monotone_quadratic(rng)
            q_true = rng.uniform(16.5, 42.5)
            target = predict(model, q_true)
            got = newton_solve(model, target)
            assert got == pytest.approx(bisection_root(model, target), abs=1e-6)

    def test_monotone_targets_monotone_qps(self, rng):
        model = make_model(B6["bits"])
        t1, t2 = 5000.0, 9000.0  # t1 < t2
        assert newton_solve(model, t1) >= newton_solve(model, t2)

    def test_flat_start_perturbed_past_zero_derivative(self):
        # vertex of the log-parabola sits exactly at the start point
        model = make_model((1.0, -0.54, 0.01), 16.0, 43.0)
        vertex = 0.54 / 0.02
        target = predict(model, 20.0)
        got = newton_solve(model, target, start=vertex)
        assert predict(model, got) == pytest.approx(target, rel=1e-9)


class TestClosedForm:
    # ln value = 180 - 14 q + q^2/4 = (q - 20)(q - 36)/4: ln 1 at QP 20 and 36,
    # vertex at 28, all inside [16, 43]; every step of the root formula is exact
    TWO_ROOTS = (180.0, -14.0, 0.25)

    @pytest.mark.parametrize("start, root", [
        (27.0, 20.0), (30.0, 36.0), (28.0, 20.0),  # 28: the vertex, a tie
        (5.0, 20.0), (60.0, 36.0),  # starts outside the range are clamped
    ])
    def test_two_in_range_roots_give_the_one_nearest_the_start(self, start, root):
        model = make_model(self.TWO_ROOTS)
        assert newton_solve(model, 1.0, start=start) == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("vertex, boundary", [(28.0, 16.0), (32.0, 43.0)])
    def test_negative_discriminant_reports_the_nearer_boundary(self, vertex, boundary):
        # ln value = 0.01 (q - vertex)^2 + 1 never comes down to ln 1
        c2 = 0.01
        model = make_model((c2 * vertex * vertex + 1.0, -2.0 * c2 * vertex, c2))
        with pytest.raises(TargetUnreachableError) as info:
            newton_solve(model, 1.0)
        assert info.value.boundary_qp == boundary

    @pytest.mark.parametrize("coefficients", [(9.0, -0.2), (9.0, -0.2, 0.0)],
                             ids=["order-1", "zero-curvature"])
    def test_linear_model_inverts(self, coefficients):
        model = make_model(coefficients)
        target = math.exp(9.0 - 0.2 * 31.5)
        assert newton_solve(model, target) == pytest.approx(31.5, abs=1e-12)

    def test_flat_model_is_unreachable(self):
        model = make_model((2.0, 0.0, 0.0))
        with pytest.raises(TargetUnreachableError) as info:
            newton_solve(model, math.exp(3.0))
        assert info.value.boundary_qp == 16.0  # both boundaries tie: the lower

    @pytest.mark.parametrize("coefficients", [(2.0,), (9.0, -0.2, 1e-3, 1e-5)],
                             ids=["order-0", "order-3"])
    def test_order_outside_one_and_two_rejected(self, coefficients):
        with pytest.raises(SolverError, match="order must be 1 or 2") as info:
            newton_solve(make_model(coefficients), 100.0)
        assert not isinstance(info.value, TargetUnreachableError)

    @settings(max_examples=300, deadline=None)
    @given(
        c2=st.sampled_from([-1.0, 0.0, 1.0]).flatmap(
            lambda sign: st.floats(1e-3, 0.05).map(lambda x: sign * x)),
        r1=st.floats(16.0, 43.0),
        r2=st.floats(16.0, 43.0),
        slope=st.floats(-1.0, 1.0),
        shift=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
        start=st.floats(0.0, 60.0),
    )
    def test_random_quadratic_with_a_root_is_inverted(self, c2, r1, r2, slope, shift, start):
        # ln value = c2 (q - r1)(q - r2) + shift, or slope (q - r1) + shift
        # when c2 == 0; the target is 1, so ln target = 0
        c1 = -c2 * (r1 + r2) if c2 else slope
        model = make_model(((c2 * r1 * r2 if c2 else -slope * r1) + shift, c1, c2))
        grid = np.linspace(16.0, 43.0, 2701)
        f = [model.log_value(q) for q in grid]
        crosses = min(f) < -1e-9 and max(f) > 1e-9
        try:
            got = newton_solve(model, 1.0, start=start)
        except TargetUnreachableError:
            assert not crosses
            return
        assert model.in_range(got)
        assert abs(model.log_value(got)) < 1e-9
        # no sign change on the grid lies nearer the clamped start
        q = min(max(start, 16.0), 43.0)
        for i in range(len(grid) - 1):
            if f[i] * f[i + 1] < 0.0:
                assert abs(got - q) <= max(abs(grid[i] - q), abs(grid[i + 1] - q)) + 1e-9


class TestRounding:
    def test_half_rounds_by_mode(self):
        assert round_qp(27.5, "max_quality") == 27
        assert round_qp(27.5, "min_bitrate") == 28

    def test_exact_integer_passthrough(self):
        for mode in ("max_quality", "min_bitrate", "max_enc_rate", "min_enc_time"):
            assert round_qp(30.0, mode) == 30

    def test_rate_mode_follows_orientation(self):
        assert round_qp(27.2, "max_enc_rate") == 28


class TestCheckConstraints:
    def test_within_tolerance_band(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=11205.77)
        ok, violations = check_constraints({"bits": 11604.94}, cs)
        assert ok and not violations  # ratio 1.0356 within the 10% band

    def test_exactly_at_bound(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=1000.0)
        ok, violations = check_constraints({"bits": 1000.0}, cs)
        assert ok and not violations

    def test_overshoot_reported_relative_to_bound(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=1000.0)
        ok, violations = check_constraints({"bits": 1150.0}, cs)
        assert not ok
        assert violations["max_bitrate_kbps"] == pytest.approx(0.15)

    def test_lower_bound_side(self):
        cs = ConstraintSet(mode="min_bitrate", min_quality=40.0, tol_quality=0.05)
        ok, _ = check_constraints({"psnr": 38.5}, cs)
        assert ok  # 3.75% below, inside the 5% band
        ok, violations = check_constraints({"psnr": 37.0}, cs)
        assert not ok
        assert violations["min_quality"] == pytest.approx(1 - 37.0 / 40.0)

    def test_missing_prediction_rejected(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=1000.0)
        with pytest.raises(SolverError, match="missing prediction"):
            check_constraints({"psnr": 40.0}, cs)


class TestMakeMode:
    def test_max_quality_needs_bitrate_and_rate_bounds(self):
        cs = make_mode("max_quality", {"max_bitrate_kbps": 11205.77, "min_fps": 25.0})
        assert cs.max_bitrate_kbps == 11205.77
        assert cs.tol_bitrate == 0.10

    def test_min_bitrate_with_quality_bound(self):
        cs = make_mode("min_bitrate", {"min_quality": 38.45, "min_fps": 25.0})
        assert cs.min_quality == 38.45

    def test_missing_bounds_rejected(self):
        with pytest.raises(SolverError):
            make_mode("max_quality", {})
        with pytest.raises(SolverError):
            make_mode("max_quality", {"max_bitrate_kbps": 5000.0})

    def test_bounding_the_optimized_objective_rejected(self):
        with pytest.raises(SolverError):
            make_mode("min_bitrate",
                      {"min_quality": 38.0, "min_fps": 25.0, "max_bitrate_kbps": 900.0})

    def test_tolerance_range_enforced(self):
        with pytest.raises(SolverError):
            ConstraintSet(mode="max_quality", max_bitrate_kbps=1.0, tol_bitrate=0.9)
        # bool is an int, but no tolerance band; nor is anything not a finite real
        for tol in (False, True, float("nan"), float("inf"), -0.1, "0.1", None):
            with pytest.raises(SolverError, match="tol_quality="):
                ConstraintSet(mode="max_quality", max_bitrate_kbps=1.0, tol_quality=tol)


class TestPlanOnTheSet:
    """A set works out its plan on first use and keeps it beside, not among, its fields."""

    def models(self):
        return {o: fitted(o) for o in ("psnr", "vmaf", "bits", "enc_rate")}

    def test_solve_leaves_the_fields_alone(self):
        cs = make_mode("max_quality", {"max_bitrate_kbps": 9000.0, "min_fps": 25.0})
        fields = dataclasses.asdict(cs)
        solve_constrained(self.models(), cs, qp_bounds=(16, 45))
        assert dataclasses.asdict(cs) == fields
        assert list(fields) == [f.name for f in dataclasses.fields(ConstraintSet)]
        assert cs == dataclasses.replace(cs) and hash(cs) == hash(dataclasses.replace(cs))

    def test_copy_without_tolerances_has_its_own_plan(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=1000.0, tol_bitrate=0.10)
        over = {"bits": 1050.0}  # 5% past the bound
        assert check_constraints(over, cs) == (True, {})  # cs's plan is built first
        strict = cs.without_tolerances()
        satisfied, violations = check_constraints(over, strict)
        assert not satisfied and violations["max_bitrate_kbps"] == pytest.approx(0.05)
        assert check_constraints(over, cs) == (True, {})

    def test_equal_sets_solve_alike(self):
        bounds = {"min_quality": 38.0, "min_fps": 25.0}
        first, second = make_mode("min_bitrate", bounds), make_mode("min_bitrate", dict(bounds))
        assert first == second and first is not second
        models = self.models()
        assert solve_constrained(models, first, qp_bounds=(16, 45)) == \
            solve_constrained(models, second, qp_bounds=(16, 45))


class TestLocalSearch:
    def models(self):
        return {o: fitted(o) for o in ("psnr", "vmaf", "bits", "enc_rate")}

    def test_min_bitrate_prefers_feasible_neighbour(self):
        models = self.models()
        bound = predict(models["psnr"], 29.0)
        cs = ConstraintSet(mode="min_bitrate", min_quality=bound, min_fps=25.0,
                           tol_quality=0.0, tol_fps=0.0)
        # oracle: enumerate the window [24, 32] directly
        feasible = [q for q in range(24, 33)
                    if predict(models["psnr"], q) >= bound
                    and predict(models["enc_rate"], q) >= 25.0]
        best = min(feasible, key=lambda q: predict(models["bits"], q))
        assert best == 29

        sol = local_search(28, models, cs, qp_bounds=(16, 45))
        assert sol.qp_int == 29
        assert sol.satisfied

    def test_all_candidates_infeasible_returns_least_violation(self):
        models = self.models()
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=100.0,
                           tol_bitrate=0.0)
        sol = local_search(28, models, cs, qp_bounds=(16, 45))
        assert not sol.satisfied
        assert sol.qp_int == 32  # lowest bitrate in the window
        assert "max_bitrate_kbps" in sol.violations

    def test_window_clipped_at_grid_edge(self):
        models = self.models()
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=1e9)
        sol = local_search(17, models, cs, qp_bounds=(16, 45))
        assert sol.qp_int == 16  # max quality at the lowest QP of [16, 21]


class TestSolveConstrained:
    def models(self):
        return {o: fitted(o) for o in ("psnr", "vmaf", "bits", "enc_rate")}

    def test_max_quality_rounds_to_feasible_ceiling(self):
        # the real-valued solve gives ~27.99; QP 27 violates the bitrate
        # band so the pipeline must end at 28
        models = self.models()
        cs = make_mode("max_quality", {"max_bitrate_kbps": 11205.77, "min_fps": 25.0})
        assert predict(models["bits"], 27) > 11205.77 * 1.1
        assert predict(models["bits"], 28) <= 11205.77

        sol = solve_constrained(models, cs, qp_bounds=(16, 45))
        assert sol.qp_int == 28
        assert sol.satisfied
        assert 27.9 <= sol.qp_real <= 28.1

    def test_min_bitrate_exact_quality_target(self):
        models = self.models()
        bound = predict(models["psnr"], 29.0)
        cs = make_mode("min_bitrate", {"min_quality": bound, "min_fps": 25.0})
        sol = solve_constrained(models, cs, qp_bounds=(16, 45))
        assert sol.qp_int == 29
        assert sol.satisfied

    def test_pipeline_never_leaves_grid(self, rng):
        for _ in range(100):
            bits = random_monotone_quadratic(rng)
            while any(bits.coefficients[1] + 2 * bits.coefficients[2] * q >= 0 for q in (16, 43)):
                bits = random_monotone_quadratic(rng)
            quality = random_monotone_quadratic(rng)
            rate = random_monotone_quadratic(rng)
            models = {"bits": bits, "psnr": quality, "enc_rate": rate}
            cs = ConstraintSet(
                mode="max_quality",
                max_bitrate_kbps=float(rng.uniform(0.5, 2.0) * predict(bits, 30)),
                min_fps=float(rng.uniform(0.1, 10.0)),
            )
            sol = solve_constrained(models, cs, qp_bounds=(16, 45))
            assert 16 <= sol.qp_int <= 45

    def test_zero_tolerance_respects_safe_side(self):
        models = self.models()
        target = predict(models["bits"], 31.0)  # exactly representable at 31
        cs = make_mode(
            "max_quality",
            {"max_bitrate_kbps": target, "min_fps": 25.0},
            tol_bitrate=0.0, tol_fps=0.0, tol_quality=0.0,
        )
        sol = solve_constrained(models, cs, qp_bounds=(16, 45))
        assert sol.qp_int == 31
        assert sol.predicted["bits"] <= target * (1 + 1e-12)

    def test_max_enc_rate_mode(self):
        models = self.models()
        cs = make_mode(
            "max_enc_rate",
            {"min_quality": predict(models["psnr"], 30.0), "max_bitrate_kbps": 20000.0},
        )
        sol = solve_constrained(models, cs, qp_bounds=(16, 45))
        assert sol.satisfied
        # enc_rate grows with QP under this law: the quality bound binds
        assert sol.qp_int == 30

    def test_bound_slack_everywhere_adds_no_candidate(self, monkeypatch):
        # enc_rate is at least 373 fps over the fitted range, so no QP
        # meets 1e-3 fps and no QP violates it either
        evaluated = []
        real_evaluate = solver.evaluate

        def spy(qp, *args):
            evaluated.append(qp)
            return real_evaluate(qp, *args)

        monkeypatch.setattr(solver, "evaluate", spy)
        cs = make_mode("max_quality", {"max_bitrate_kbps": 11205.77, "min_fps": 1e-3})
        sol = solve_constrained(self.models(), cs, qp_bounds=(16, 45))
        assert sol.qp_int == 28
        assert sol.satisfied
        assert 16 not in evaluated  # the boundary nearest 1e-3 fps

    def test_bound_violated_everywhere_adds_its_boundary(self):
        cs = make_mode("max_quality", {"max_bitrate_kbps": 1.0, "min_fps": 25.0})
        sol = solve_constrained(self.models(), cs, qp_bounds=(16, 45))
        assert sol.qp_real == 43.0  # the fitted range's end with the fewest bits
        assert not sol.satisfied


class TestBoundValues:
    @pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), True])
    def test_bound_must_be_a_finite_number(self, value):
        with pytest.raises(SolverError, match="min_fps"):
            ConstraintSet(mode="max_quality", max_bitrate_kbps=9000.0, min_fps=value)

    @pytest.mark.parametrize("name", ["max_bitrate_kbps", "min_fps", "max_time_s"])
    @pytest.mark.parametrize("value", [0, 0.0, -1e-300, -100.0])
    def test_bound_must_be_positive(self, name, value):
        bounds = {"max_bitrate_kbps": 9000.0, "min_fps": 20.0, name: value}
        with pytest.raises(SolverError, match=f"{name}={value!r} is not positive"):
            ConstraintSet(mode="max_quality", **bounds)

    def test_numpy_numbers_are_bounds(self):
        cs = ConstraintSet(mode="max_quality", max_bitrate_kbps=np.float64(9000.0),
                           min_fps=np.int64(20))
        assert cs.bounds() == {"max_bitrate_kbps": 9000.0, "min_fps": 20}


class TestAgainstReference:
    """The solver reads each constraint set's worked-out plan; ``refsolver``
    works it out on every call.  Both must give the same results, bit for bit."""

    BOUND_NAMES = ("max_bitrate_kbps", "min_quality", "min_fps", "max_time_s")
    OBJECTIVES = ("psnr", "vmaf", "ssim", "bits", "enc_rate")

    @staticmethod
    def exact(result):
        """A result with every float as its hex, every mapping as its ordered items."""
        if isinstance(result, solver.QpSolution):
            result = (result.qp_real, result.qp_int, result.predicted, result.satisfied,
                      result.violations)
        if isinstance(result, dict):
            return [(key, TestAgainstReference.exact(value)) for key, value in result.items()]
        if isinstance(result, (tuple, list)):
            return [TestAgainstReference.exact(value) for value in result]
        if isinstance(result, float):
            return float.hex(result)
        return result

    @staticmethod
    def outcome(fn, *args, **kwargs):
        try:
            return TestAgainstReference.exact(fn(*args, **kwargs))
        except SolverError as exc:
            return ("error", type(exc).__name__, str(exc))

    @staticmethod
    @st.composite
    def problems(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        qp_min, qp_max = draw(st.sampled_from([(16.0, 43.0), (16.0, 52.0), (20.0, 36.0)]))
        models = {o: random_monotone_quadratic(rng, qp_min, qp_max)
                  for o in TestAgainstReference.OBJECTIVES}
        names = draw(st.sets(st.sampled_from(TestAgainstReference.BOUND_NAMES), min_size=1))
        frames = draw(st.one_of(st.none(), st.integers(1, 300)))
        metric = draw(st.sampled_from(["psnr", "vmaf", "ssim"]))
        bounds = {}
        for name in sorted(names):
            # a value the model reaches inside its range, or one beyond either end
            qp = draw(st.floats(qp_min - 12.0, qp_max + 12.0))
            key = {"max_bitrate_kbps": "bits", "min_quality": metric}.get(name, "enc_rate")
            value = predict(models[key], qp) * draw(st.sampled_from([1e-3, 1.0, 1.0, 1e3]))
            bounds[name] = (frames or 150) / value if name == "max_time_s" else value
        tolerances = {tol: draw(st.sampled_from([0.0, 0.05, 0.1, 0.5]))
                      for tol in solver.TOLERANCES}
        cs = ConstraintSet(mode=draw(st.sampled_from(list(solver.MODES))),
                           quality_metric=metric, **bounds, **tolerances)
        lo = draw(st.integers(int(qp_min), int(qp_max) - 1))
        hi = draw(st.integers(lo + 1, int(qp_max) + 2))
        return models, cs, frames, (lo, hi)

    @settings(max_examples=400, deadline=None)
    @given(problem=problems(), start=st.sampled_from([27.0, 30.0]), data=st.data())
    def test_solver_matches_reference(self, problem, start, data):
        models, cs, frames, qp_bounds = problem
        solve = dict(qp_bounds=qp_bounds, start=start, segment_frames=frames)
        assert self.outcome(solve_constrained, models, cs, **solve) == \
            self.outcome(refsolver.solve_constrained, models, cs, **solve)
        # windows that the grid edges clip on either side
        center = data.draw(st.integers(qp_bounds[0] - 4, qp_bounds[1] + 4))
        search = dict(qp_bounds=qp_bounds, segment_frames=frames)
        assert self.outcome(local_search, center, models, cs, **search) == \
            self.outcome(refsolver.local_search, center, models, cs, **search)
        qp = data.draw(st.integers(qp_bounds[0], qp_bounds[1]))
        evaluated = self.outcome(solver.evaluate, qp, models, cs, frames)
        assert evaluated == self.outcome(refsolver.evaluate, qp, models, cs, frames)
        if evaluated[0] != "error":
            pred, satisfied, violations = solver.evaluate(qp, models, cs, frames)
            assert self.exact(check_constraints(pred, cs)) == \
                self.exact(refsolver.check_constraints(pred, cs))
            assert self.exact(solver.candidate_rank(pred, satisfied, violations, cs)) == \
                self.exact(refsolver.candidate_rank(pred, satisfied, violations, cs))
        for mode in solver.MODES:
            assert round_qp(qp + 0.5, mode) == refsolver.round_qp(qp + 0.5, mode)
