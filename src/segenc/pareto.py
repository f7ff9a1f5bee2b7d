"""Three-objective Pareto dominance, front extraction, mode selection.

Objectives are canonical-minimization internally: quality is maximized,
bitrate and encoding cost are minimized.  Encoding cost is either seconds
of encoding time or 1/fps, so the same dominance routine serves both the
time-oriented and the rate-oriented formulation.  Mode selection reads the
mode's objective from ``solver.MODES`` and checks each entry's values,
quality keyed by the constraint set's quality metric, against its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .solver import ConstraintSet, check_constraints, get_mode


@dataclass(frozen=True, slots=True)
class ObjectivePoint:
    quality: float  # maximize
    bitrate: float  # minimize
    enc_cost: float  # minimize: seconds, or 1/fps in rate orientation

    def __post_init__(self) -> None:
        for v in (self.quality, self.bitrate, self.enc_cost):
            if not np.isfinite(v):
                raise ValueError("objective values must be finite")

    @classmethod
    def from_enc_rate(cls, quality: float, bitrate: float, enc_rate: float) -> "ObjectivePoint":
        return cls(quality, bitrate, 1.0 / enc_rate)

    @property
    def enc_rate(self) -> float:
        return 1.0 / self.enc_cost

    def cost(self, objective: str) -> float:
        """A mode objective ("quality", "bits" or "enc_rate") as a value to minimise."""
        costs = {"quality": -self.quality, "bits": self.bitrate, "enc_rate": self.enc_cost}
        return costs[objective]


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """a at least as good everywhere and strictly better somewhere."""
    if a.quality < b.quality or a.bitrate > b.bitrate or a.enc_cost > b.enc_cost:
        return False
    return a.quality > b.quality or a.bitrate < b.bitrate or a.enc_cost < b.enc_cost


@dataclass(frozen=True, slots=True)
class ParetoFront:
    entries: tuple[tuple[Any, ObjectivePoint], ...]
    cost_kind: str = "rate"  # "rate" (1/fps) or "time" (seconds)


def pareto_indices(points: Sequence[tuple[Any, ObjectivePoint]]) -> list[int]:
    """Indices of the non-dominated points, ascending.

    Skyline sweep: points are processed by descending quality, so every
    potential dominator of a point has already been accepted when the point
    is examined.
    """
    if not points:
        raise ValueError("empty input: cannot build a Pareto front")
    n = len(points)
    q = np.array([p[1].quality for p in points])
    b = np.array([p[1].bitrate for p in points])
    c = np.array([p[1].enc_cost for p in points])
    order = np.lexsort((c, b, -q))

    fq = np.empty(n)
    fb = np.empty(n)
    fc = np.empty(n)
    m = 0
    keep: list[int] = []
    for idx in order:
        if m:
            dominated = np.any(
                (fb[:m] <= b[idx])
                & (fc[:m] <= c[idx])
                & ((fq[:m] > q[idx]) | (fb[:m] < b[idx]) | (fc[:m] < c[idx]))
            )
            if dominated:
                continue
        fq[m] = q[idx]
        fb[m] = b[idx]
        fc[m] = c[idx]
        m += 1
        keep.append(int(idx))
    keep.sort()
    return keep


def pareto_front(
    points: Sequence[tuple[Any, ObjectivePoint]], *, cost_kind: str = "rate"
) -> ParetoFront:
    """Exactly the non-dominated subset; equal objective vectors coexist."""
    keep = pareto_indices(points)
    return ParetoFront(tuple(points[i] for i in keep), cost_kind=cost_kind)


def _entry_predictions(
    point: ObjectivePoint, cost_kind: str, frames: int | None, quality_metric: str
) -> dict[str, float]:
    pred = {quality_metric: point.quality, "bits": point.bitrate}
    if cost_kind == "time":
        pred["enc_time"] = point.enc_cost
    else:
        pred["enc_rate"] = point.enc_rate
        if frames is not None:
            pred["enc_time"] = frames / point.enc_rate
    return pred


def select_mode_optimal(
    front: ParetoFront, mode: str, constraints: ConstraintSet, *, frames: int | None = None
) -> tuple[Any, ObjectivePoint]:
    """Best feasible entry for the mode; least-violation fallback otherwise.

    Feasibility uses the constraint set as given (including its tolerance
    bands; pass a zero-tolerance set for hard bounds).  On a rate-oriented
    front, ``frames`` (the encoded frame count) gives each entry its
    encoding time, which a ``max_time_s`` bound needs.  Ties break toward
    lower bitrate, then lower QP, then input order.
    """
    if not front.entries:
        raise ValueError("empty front")
    objective = get_mode(mode).objective

    feasible: list[tuple[tuple, Any, ObjectivePoint]] = []
    infeasible: list[tuple[tuple, Any, ObjectivePoint]] = []
    for i, (config, point) in enumerate(front.entries):
        satisfied, violations = check_constraints(
            _entry_predictions(point, front.cost_kind, frames, constraints.quality_metric),
            constraints,
        )
        if satisfied:
            key = (point.cost(objective), point.bitrate, getattr(config, "qp", 0), i)
            feasible.append((key, config, point))
        else:
            infeasible.append(((sum(violations.values()), i), config, point))
    _, config, point = min(feasible or infeasible, key=lambda item: item[0])
    return config, point


def front_flags(points: Sequence[tuple[Any, ObjectivePoint]]) -> list[bool]:
    """Per-input marker: True when the point is a member of the front."""
    flags = [False] * len(points)
    for i in pareto_indices(points):
        flags[i] = True
    return flags
