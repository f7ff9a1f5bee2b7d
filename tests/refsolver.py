"""The constrained inverse solve written plainly, as the oracle of ``segenc.solver``.

Every call works its constraint set out again from ``ConstraintSet.bounds()``
and the bound and mode tables; the program works each set out once.  Both
must make the same float operations in the same order, so the tests compare
their results bit for bit.
"""

import math

from segenc.models import predict
from segenc.solver import (
    _BOUND_SPECS,
    LOCAL_SEARCH_RADIUS,
    MODES,
    QpSolution,
    SolverError,
    TargetUnreachableError,
    newton_solve,
)


def check_constraints(predicted, constraints):
    violations = {}
    for name, bound in constraints.bounds().items():
        obj, kind, tol_field = _BOUND_SPECS[name]
        key = constraints.quality_metric if obj == "quality" else obj
        if key not in predicted:
            raise SolverError(f"missing prediction for bounded objective {key!r}")
        value = predicted[key]
        tol = getattr(constraints, tol_field)
        if kind == "upper":
            if value > bound * (1.0 + tol):
                violations[name] = value / bound - 1.0
        else:
            if value < bound * (1.0 - tol):
                violations[name] = 1.0 - value / bound
    return (not violations), violations


def round_qp(qp_real, mode):
    nearest = round(qp_real)
    if abs(qp_real - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(qp_real) if MODES[mode].round_up else math.floor(qp_real))


def evaluate(qp, models, constraints, segment_frames):
    pred = {name: predict(model, qp) for name, model in models.items()}
    if segment_frames is not None and "enc_rate" in pred:
        pred["enc_time"] = segment_frames / pred["enc_rate"]
    satisfied, violations = check_constraints(pred, constraints)
    return pred, satisfied, violations


def candidate_rank(pred, satisfied, violations, constraints):
    if satisfied:
        mode = MODES[constraints.mode]
        value = pred[constraints.quality_metric if mode.objective == "quality" else mode.objective]
        primary = -value if mode.maximize else value
    else:
        primary = sum(violations.values())
    return (not satisfied, primary, pred.get("bits", 0.0))


def local_search(center_qp, models, constraints, *, qp_bounds, segment_frames=None):
    lo = max(center_qp - LOCAL_SEARCH_RADIUS, qp_bounds[0])
    hi = min(center_qp + LOCAL_SEARCH_RADIUS, qp_bounds[1])
    best = None
    for qp in range(lo, hi + 1):
        pred, satisfied, violations = evaluate(qp, models, constraints, segment_frames)
        rank = (*candidate_rank(pred, satisfied, violations, constraints), qp)
        if best is None or rank < best[0]:
            best = (rank, QpSolution(float(center_qp), qp, pred, satisfied, violations))
    return best[1]


def solve_constrained(models, constraints, *, qp_bounds, start=27.0, segment_frames=None):
    dominant = MODES[constraints.mode].dominant
    bounds = constraints.bounds()
    qp_reals = []
    for name in sorted(bounds, key=lambda nm: nm != dominant):
        obj, kind, _ = _BOUND_SPECS[name]
        objective = constraints.quality_metric if obj == "quality" else obj
        bound = bounds[name]
        if name == "max_time_s":
            if segment_frames is None:
                raise SolverError("max_time_s bound needs the segment frame count")
            objective, bound, kind = "enc_rate", segment_frames / bound, "lower"
        model = models.get(objective)
        if model is None:
            raise SolverError(f"no model for bounded objective {objective!r}")
        try:
            qp_reals.append(newton_solve(model, bound, start=start))
        except TargetUnreachableError as exc:
            value = predict(model, exc.boundary_qp)
            if (value > bound) if kind == "upper" else (value < bound):
                qp_reals.append(exc.boundary_qp)
    if not qp_reals:
        qp_reals.append(start)

    candidates = []
    for qr in qp_reals:
        qi = min(max(round_qp(qr, constraints.mode), qp_bounds[0]), qp_bounds[1])
        if qi not in candidates:
            candidates.append(qi)

    feasible = []
    for qi in candidates:
        pred, satisfied, violations = evaluate(qi, models, constraints, segment_frames)
        if satisfied:
            key = (*candidate_rank(pred, True, violations, constraints), qi)
            feasible.append((key, QpSolution(qp_reals[0], qi, pred, True, violations)))
    if feasible:
        return min(feasible, key=lambda item: item[0])[1]
    searched = local_search(candidates[0], models, constraints,
                            qp_bounds=qp_bounds, segment_frames=segment_frames)
    return QpSolution(qp_reals[0], searched.qp_int, searched.predicted,
                      searched.satisfied, searched.violations)
