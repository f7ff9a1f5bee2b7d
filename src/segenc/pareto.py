"""Three-objective Pareto dominance, front extraction, mode selection.

Objectives are canonical-minimization internally: quality is maximized,
bitrate and encoding cost (1/fps) are minimized.  Mode selection ranks
each front entry's values, quality keyed by the constraint set's quality
metric, with ``solver.candidate_rank``, the key the inverse solve ranks
its candidates by, so both mean the same by a mode's best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .solver import ConstraintSet, candidate_rank, check_constraints


@dataclass(frozen=True, slots=True)
class ObjectivePoint:
    quality: float  # maximize
    bitrate: float  # minimize
    enc_cost: float  # minimize: 1/fps

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


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """a at least as good everywhere and strictly better somewhere."""
    if a.quality < b.quality or a.bitrate > b.bitrate or a.enc_cost > b.enc_cost:
        return False
    return a.quality > b.quality or a.bitrate < b.bitrate or a.enc_cost < b.enc_cost


def measured_points(measured: Iterable[Any], metric: str) -> list[tuple[Any, ObjectivePoint]]:
    """Each ``SegmentMeasurement`` with its objective point, quality read as ``metric``."""
    return [(m, ObjectivePoint.from_enc_rate(m.objective(metric), m.bitrate, m.enc_rate))
            for m in measured]


@dataclass(frozen=True, slots=True)
class ParetoFront:
    entries: tuple[tuple[Any, ObjectivePoint], ...]


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


def pareto_front(points: Sequence[tuple[Any, ObjectivePoint]]) -> ParetoFront:
    """Exactly the non-dominated subset; equal objective vectors coexist."""
    return ParetoFront(tuple(points[i] for i in pareto_indices(points)))


def select_mode_optimal(
    front: ParetoFront, constraints: ConstraintSet, *, frames: int | None = None
) -> tuple[Any, ObjectivePoint]:
    """The entry ``solver.candidate_rank`` ranks first under the constraints' mode.

    That is the best feasible entry on the mode objective, or the
    least-violation entry when none is feasible.  Feasibility uses the
    constraint set as given (including its tolerance bands; pass a
    zero-tolerance set for hard bounds).  ``frames`` (the encoded frame
    count) gives each entry its encoding time, which a ``max_time_s`` bound
    needs.  Ties break toward lower bitrate, then lower QP, then input order.
    """
    if not front.entries:
        raise ValueError("empty front")

    def rank(item: tuple[int, tuple[Any, ObjectivePoint]]) -> tuple:
        i, (config, point) = item
        pred = {constraints.quality_metric: point.quality, "bits": point.bitrate,
                "enc_rate": point.enc_rate}
        if frames is not None:
            pred["enc_time"] = frames / point.enc_rate
        satisfied, violations = check_constraints(pred, constraints)
        return (*candidate_rank(pred, satisfied, violations, constraints),
                getattr(config, "qp", 0), i)

    return min(enumerate(front.entries), key=rank)[1]


def front_flags(points: Sequence[tuple[Any, ObjectivePoint]]) -> list[bool]:
    """Per-input marker: True when the point is a member of the front."""
    flags = [False] * len(points)
    for i in pareto_indices(points):
        flags[i] = True
    return flags
