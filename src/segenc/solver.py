"""Invert fitted forward models for the QP that meets a constraint.

Every fitted model is ln(objective) = c0 + c1*q + c2*q^2 (order 1 when
c2 == 0), so a bound's QP is a root of a quadratic, taken in closed form:
of the in-range roots, the one nearest the codec's default QP (27 for
x265/VP9, 30 for AV1-style codecs).  Then mode-aware integer rounding,
soft-violation checking, and a +/-4 local search when the rounded solution
fails its constraint check.

Every module reads what a mode means from ``MODES`` (objective, direction,
bound inverted first, QP rounding; ``min_enc_time`` aliases ``max_enc_rate``)
and what a bound means from ``_BOUND_SPECS`` (objective, side, tolerance).

A solve checks up to a dozen QPs against one constraint set, and the loop
solves every (GOP, filter) group under the same set each segment, so what a
set means is worked out once, by ``_plan``: each bound's prediction key,
side and band edge ``bound * (1 +/- tol)`` in bound order, the inversion
order (dominant bound first), and the mode's objective key, direction and
rounding.  The last few sets' plans are kept, looked up by the set's
identity.  No ``ConstraintSet`` field carries its plan, since a set's
fields are exactly its mode, bounds and tolerances: schedules and policies
write them, and a set's ``dataclasses.asdict`` is compared with the policy
it came from.  The checks make the same float operations in the same order
as working the set out on every call would, so every decision is the same
bit for bit.

Constraint bounds pass when the prediction stays within a relative
tolerance band of the bound: by default 10% for bitrate, 10% for encoding
rate, 5% for quality.  The bands absorb forward-model prediction error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real
from typing import Mapping

from .models import RdModel, predict

DEFAULT_NEWTON_START = 27.0  # the start whose nearest root newton_solve returns
LOCAL_SEARCH_RADIUS = 4  # QPs either side of the solved QP that local search tries


@dataclass(frozen=True, slots=True)
class Mode:
    """What a constrained mode optimises, and how it rounds a solved QP."""

    objective: str  # "quality" (resolved via quality_metric), "bits" or "enc_rate"
    maximize: bool
    dominant: str  # the bound inverted first
    round_up: bool  # how a solved QP between two integers rounds


MODES: dict[str, Mode] = {
    "max_quality": Mode("quality", maximize=True, dominant="max_bitrate_kbps", round_up=False),
    "min_bitrate": Mode("bits", maximize=False, dominant="min_quality", round_up=True),
    "max_enc_rate": Mode("enc_rate", maximize=True, dominant="min_quality", round_up=True),
}
MODES["min_enc_time"] = MODES["max_enc_rate"]  # the paper's earlier name for it

# bound name -> (objective key, kind, tolerance field); "quality" resolves
# via quality_metric, and max_time_s bounds encoding rate through enc_time
_BOUND_SPECS = {
    "max_bitrate_kbps": ("bits", "upper", "tol_bitrate"),
    "min_quality": ("quality", "lower", "tol_quality"),
    "min_fps": ("enc_rate", "lower", "tol_fps"),
    "max_time_s": ("enc_time", "upper", "tol_fps"),
}
TOLERANCES = tuple(dict.fromkeys(spec[2] for spec in _BOUND_SPECS.values()))  # ConstraintSet fields

class SolverError(ValueError):
    pass


class TargetUnreachableError(SolverError):
    """No in-range root; carries the grid boundary closest to the target."""

    def __init__(self, message: str, boundary_qp: float):
        super().__init__(message)
        self.boundary_qp = boundary_qp


@dataclass(frozen=True, slots=True)
class ConstraintSet:
    """A DRASTIC mode plus bounds and soft-violation tolerances."""

    mode: str
    max_bitrate_kbps: float | None = None
    min_quality: float | None = None
    min_fps: float | None = None
    max_time_s: float | None = None
    quality_metric: str = "psnr"  # psnr | vmaf | ssim
    tol_bitrate: float = 0.10
    tol_fps: float = 0.10
    tol_quality: float = 0.05

    def __post_init__(self) -> None:
        get_mode(self.mode)
        if self.quality_metric not in ("psnr", "vmaf", "ssim"):
            raise SolverError(f"unknown quality metric {self.quality_metric!r}")
        if not all(0.0 <= tol <= 0.5 for tol in self.tolerances().values()):
            raise SolverError("tolerances must be within [0, 0.5]")
        if not self.bounds():
            raise SolverError("at least one bound must be set")
        for name, value in self.bounds().items():  # bool is an int, but no bound
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise SolverError(f"{name}={value!r} is not a finite number")
            if value <= 0:  # every objective is positive and modelled by its log
                raise SolverError(f"{name}={value!r} is not positive")

    def bounds(self) -> dict[str, float]:
        out = {}
        for name in _BOUND_SPECS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def tolerances(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TOLERANCES}

    def without_tolerances(self) -> "ConstraintSet":
        return replace(self, **dict.fromkeys(self.tolerances(), 0.0))

    def objective_for(self, bound_name: str) -> str:
        obj = _BOUND_SPECS[bound_name][0]
        return self.quality_metric if obj == "quality" else obj

    def tolerance_for(self, bound_name: str) -> float:
        return getattr(self, _BOUND_SPECS[bound_name][2])


def get_mode(name: str) -> Mode:
    try:
        return MODES[name]
    except KeyError:
        raise SolverError(f"unknown mode {name!r}") from None


def make_mode(mode_name: str, bounds: Mapping[str, float], **tolerances: float) -> ConstraintSet:
    """Validated constraint set for a named mode.

    The optimized objective must not be bounded; each of the two opposing
    objectives must be (encoding rate through either min_fps or max_time_s).
    """
    cs = ConstraintSet(mode=mode_name, **bounds, **tolerances)
    bounded = cs.bounds().keys()
    by_objective: dict[str, list[str]] = {}
    for name, (obj, _, _) in _BOUND_SPECS.items():
        by_objective.setdefault("enc_rate" if obj == "enc_time" else obj, []).append(name)
    optimized = by_objective.pop(MODES[mode_name].objective)
    if bounded & set(optimized):
        raise SolverError(f"{mode_name} must not set {' or '.join(optimized)}")
    missing = [" or ".join(names) for names in by_objective.values() if not bounded & set(names)]
    if missing:
        raise SolverError(f"{mode_name} requires {' and '.join(missing)}")
    return cs


@dataclass(frozen=True, slots=True)
class _Plan:
    """A constraint set as a solve reads it: built by ``_make_plan``, kept by ``_plan``."""

    checks: tuple[tuple[str, str, bool, float, float], ...]  # (name, key, upper, bound, edge)
    inversions: tuple[tuple[str, str, bool, float, float], ...]  # the checks, dominant first
    objective: str  # the mode objective's prediction key
    maximize: bool
    round_up: bool


_PLANS: dict[int, tuple[ConstraintSet, _Plan]] = {}  # id -> (the set, kept alive, its plan)
_PLANS_KEPT = 64


def _plan(constraints: ConstraintSet) -> _Plan:
    """What ``constraints`` means to a solve, worked out once per set.

    Sets are looked up by identity, which costs less than hashing their
    fields: the loop hands every solve of a segment the same set.
    """
    kept = _PLANS.get(id(constraints))
    if kept is not None and kept[0] is constraints:
        return kept[1]
    if len(_PLANS) >= _PLANS_KEPT:
        _PLANS.clear()
    plan = _make_plan(constraints)
    _PLANS[id(constraints)] = (constraints, plan)
    return plan


def _make_plan(constraints: ConstraintSet) -> _Plan:
    mode = MODES[constraints.mode]
    checks = []
    for name, bound in constraints.bounds().items():
        upper = _BOUND_SPECS[name][1] == "upper"
        tol = constraints.tolerance_for(name)
        edge = bound * (1.0 + tol) if upper else bound * (1.0 - tol)
        checks.append((name, constraints.objective_for(name), upper, bound, edge))
    objective = constraints.quality_metric if mode.objective == "quality" else mode.objective
    return _Plan(
        checks=tuple(checks),
        inversions=tuple(sorted(checks, key=lambda check: check[0] != mode.dominant)),
        objective=objective,
        maximize=mode.maximize,
        round_up=mode.round_up,
    )


def _check(plan: _Plan, predicted: Mapping[str, float]) -> tuple[bool, dict[str, float]]:
    violations: dict[str, float] = {}
    for name, key, upper, bound, edge in plan.checks:
        try:
            value = predicted[key]
        except KeyError:
            raise SolverError(f"missing prediction for bounded objective {key!r}") from None
        if upper:
            if value > edge:
                violations[name] = value / bound - 1.0
        elif value < edge:
            violations[name] = 1.0 - value / bound
    return (not violations), violations


def check_constraints(
    predicted: Mapping[str, float], constraints: ConstraintSet
) -> tuple[bool, dict[str, float]]:
    """Tolerance-band check of every bound; violations report overshoot.

    Overshoot is relative to the bound itself (value/bound - 1 for upper
    bounds, 1 - value/bound for lower bounds) and is reported only for
    bounds that fall outside their tolerance band.
    """
    return _check(_plan(constraints), predicted)


def newton_solve(
    model: RdModel,
    target: float,
    *,
    start: float = DEFAULT_NEWTON_START,
) -> float:
    """QP at which the model predicts ``target``: a root of
    c2*q^2 + c1*q + (c0 - ln target) = 0, in closed form.

    The roots are t/c2 and (c0 - ln target)/t with
    t = -(c1 + sign(c1)*sqrt(disc))/2, which avoids cancellation; c2 == 0
    leaves the linear root.  Of the in-range roots the one nearest
    ``start`` clamped to the fitted range is returned, ties to the lower
    QP.  That is the root Newton's method reaches from that start on a
    quadratic (the root on the start's side of the vertex is the nearer
    one), and the function keeps the name it had when it iterated, which
    callers and the benchmark's span tracer look up.  No in-range root
    raises ``TargetUnreachableError`` carrying the boundary QP whose
    prediction is nearest the target.
    """
    if model.order not in (1, 2):
        raise SolverError(f"model order must be 1 or 2, got {model.order}")
    if target <= 0.0:
        raise SolverError("target must be positive")
    log_target = math.log(target)
    c0, c1, *higher = model.coefficients
    c2 = higher[0] if higher else 0.0
    c = c0 - log_target

    if c2 == 0.0:
        roots = [-c / c1] if c1 != 0.0 else []
    else:
        disc = c1 * c1 - 4.0 * c2 * c
        if disc < 0.0:
            roots = []
        else:
            t = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            roots = [t / c2, c / t] if t != 0.0 else [0.0]  # t == 0: c1 == c == 0

    in_range = [r for r in roots if model.in_range(r)]
    if in_range:
        q = min(max(start, model.qp_min), model.qp_max)
        return min(in_range, key=lambda r: (abs(r - q), r))

    lo, hi = model.qp_min, model.qp_max
    boundary = min((lo, hi), key=lambda b: abs(model.log_value(b) - log_target))
    raise TargetUnreachableError(
        f"target unreachable within QP range [{lo}, {hi}]", boundary_qp=float(boundary)
    )


def _round(qp_real: float, round_up: bool) -> int:
    nearest = round(qp_real)
    if abs(qp_real - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(qp_real) if round_up else math.floor(qp_real))


def round_qp(qp_real: float, mode: str) -> int:
    """Mode-aware integer rounding of a solved QP.

    Maximum-quality rounds toward higher quality (down, since quality falls
    with QP); minimum-bitrate rounds toward lower bitrate (up, since bits
    fall with QP); rate/time modes round toward faster encodes (up, since
    encoding rate rises with QP).  Exact integers pass through unchanged.
    """
    return _round(qp_real, get_mode(mode).round_up)


@dataclass(frozen=True, slots=True)
class QpSolution:
    qp_real: float
    qp_int: int
    predicted: dict[str, float]
    satisfied: bool
    violations: dict[str, float]


def _evaluate(
    plan: _Plan, qp: int, models: Mapping[str, RdModel], segment_frames: int | None
) -> tuple[dict[str, float], bool, dict[str, float]]:
    pred = {name: predict(model, qp) for name, model in models.items()}
    if segment_frames is not None and "enc_rate" in pred:
        pred["enc_time"] = segment_frames / pred["enc_rate"]
    satisfied, violations = _check(plan, pred)
    return pred, satisfied, violations


def evaluate(
    qp: int,
    models: Mapping[str, RdModel],
    constraints: ConstraintSet,
    segment_frames: int | None,
) -> tuple[dict[str, float], bool, dict[str, float]]:
    """The models' predictions at ``qp``, encoding time too when
    ``segment_frames`` is given, and their constraint check."""
    return _evaluate(_plan(constraints), qp, models, segment_frames)


def _rank(
    plan: _Plan, pred: Mapping[str, float], satisfied: bool, violations: Mapping[str, float]
) -> tuple[bool, float, float]:
    if satisfied:
        value = pred[plan.objective]
        primary = -value if plan.maximize else value
    else:
        primary = sum(violations.values())
    return (not satisfied, primary, pred.get("bits", 0.0))


def candidate_rank(
    pred: Mapping[str, float],
    satisfied: bool,
    violations: Mapping[str, float],
    constraints: ConstraintSet,
) -> tuple[bool, float, float]:
    """Sort key of a candidate: feasible first, then the mode objective
    (infeasible: total overshoot), then lower predicted bitrate."""
    return _rank(_plan(constraints), pred, satisfied, violations)


def local_search(
    center_qp: int,
    models: Mapping[str, RdModel],
    constraints: ConstraintSet,
    *,
    qp_bounds: tuple[int, int],
    segment_frames: int | None = None,
    qp_real: float | None = None,
) -> QpSolution:
    """Evaluate integer QPs within ``LOCAL_SEARCH_RADIUS`` of the center, within the grid.

    Constraint-satisfying candidates compete on the mode objective (ties:
    lower bitrate, then lower QP); when none satisfies, the least-violation
    candidate is returned flagged unsatisfied.  The constraint set is worked
    out once for the whole window, and only the winner becomes a
    ``QpSolution``, whose ``qp_real`` is ``qp_real`` (the solve the window
    is centred on) or else the center itself.
    """
    plan = _plan(constraints)
    lo = max(center_qp - LOCAL_SEARCH_RADIUS, qp_bounds[0])
    hi = min(center_qp + LOCAL_SEARCH_RADIUS, qp_bounds[1])
    best: tuple | None = None
    for qp in range(lo, hi + 1):
        pred, satisfied, violations = _evaluate(plan, qp, models, segment_frames)
        rank = (*_rank(plan, pred, satisfied, violations), qp)
        if best is None or rank < best[0]:
            best = (rank, pred, satisfied, violations)
    assert best is not None
    rank, pred, satisfied, violations = best
    return QpSolution(float(center_qp) if qp_real is None else qp_real,
                      rank[-1], pred, satisfied, violations)


def solve_constrained(
    models: Mapping[str, RdModel],
    constraints: ConstraintSet,
    *,
    qp_bounds: tuple[int, int],
    start: float = DEFAULT_NEWTON_START,
    segment_frames: int | None = None,
) -> QpSolution:
    """Full pipeline: invert each binding bound, round, check, local-search.

    Candidate QPs come from inverting every bounded objective's model with
    ``newton_solve`` (the mode's dominant bound first; ``start`` picks
    between two in-range roots).  A bound whose model has no root in the
    fitted range holds everywhere or nowhere there, so the boundary QP that
    ``TargetUnreachableError`` carries decides which: a bound that holds
    there contributes no candidate, one violated there contributes that
    least-violating boundary.  The best feasible candidate on the mode
    objective wins; if none is feasible a +/-4 local search around the
    dominant candidate decides.
    """
    plan = _plan(constraints)
    qp_reals: list[float] = []
    for name, objective, upper, bound, _ in plan.inversions:
        if name == "max_time_s":
            if segment_frames is None:
                raise SolverError("max_time_s bound needs the segment frame count")
            objective, bound, upper = "enc_rate", segment_frames / bound, False
        model = models.get(objective)
        if model is None:
            raise SolverError(f"no model for bounded objective {objective!r}")
        try:
            qp_reals.append(newton_solve(model, bound, start=start))
        except TargetUnreachableError as exc:
            value = predict(model, exc.boundary_qp)
            if (value > bound) if upper else (value < bound):
                qp_reals.append(exc.boundary_qp)

    if not qp_reals:
        # every bound slack everywhere: optimize the mode objective freely
        qp_reals.append(start)

    candidates: list[int] = []
    for qr in qp_reals:
        qi = min(max(_round(qr, plan.round_up), qp_bounds[0]), qp_bounds[1])
        if qi not in candidates:
            candidates.append(qi)

    best: tuple | None = None
    for qi in candidates:
        pred, satisfied, violations = evaluate(qi, models, constraints, segment_frames)
        if satisfied:
            key = (*_rank(plan, pred, True, violations), qi)
            if best is None or key < best[0]:
                best = (key, pred, violations)
    if best is not None:
        key, pred, violations = best
        return QpSolution(qp_reals[0], key[-1], pred, True, violations)

    return local_search(
        candidates[0],
        models,
        constraints,
        qp_bounds=qp_bounds,
        segment_frames=segment_frames,
        qp_real=qp_reals[0],
    )
