"""Forward rate-quality-speed models: ln(objective) as a polynomial in QP.

One model is fit per (GOP, filter setting, objective) group.  The natural
log of the measured objective is regressed on {1, QP, QP^2} by least
squares, the paper's fixed order 2; ``fit_log_poly`` also takes order 1,
and no higher, since ``solver.newton_solve`` inverts a model in closed form
as a quadratic at most.

QP is centered at the grid midpoint internally to keep the Vandermonde
design well conditioned over QP in [16, 52]; reported coefficients are
re-expanded to the plain uncentered convention, so

    predict(model, qp) == exp(c0 + c1*qp + c2*qp^2 + ...)

A fit records its adjusted R^2 and largest residual; nothing here needs
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class FitError(ValueError):
    """Samples that cannot produce a valid log-polynomial fit."""


@dataclass(frozen=True, slots=True)
class FitDiagnostics:
    adjusted_r2: float
    residual_max: float


@dataclass(frozen=True, slots=True)
class RdModel:
    """ln(objective) = coefficients[0] + sum_i coefficients[i] * qp**i."""

    coefficients: tuple[float, ...]
    qp_min: float
    qp_max: float
    diagnostics: FitDiagnostics
    objective: str | None = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def adjusted_r2(self) -> float:
        return self.diagnostics.adjusted_r2

    def log_value(self, qp: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * qp + c
        return acc

    def log_slope(self, qp: float) -> float:
        acc = 0.0
        for i in range(self.order, 0, -1):
            acc = acc * qp + i * self.coefficients[i]
        return acc

    def in_range(self, qp: float) -> bool:
        return self.qp_min - 1e-9 <= qp <= self.qp_max + 1e-9


def _shift_coefficients(centered: list[float], mid: float) -> list[float]:
    """Re-expand sum c_i * (qp - mid)**i to plain powers of qp, by Horner's rule.

    Bit-identical to numpy's ``Polynomial(centered)(Polynomial([-mid, 1]))``:
    same operation order, and ``0.0 +`` makes -0.0 sums +0.0 as numpy does.
    """
    out = [0.0] * len(centered)
    for c in reversed(centered):
        for k in range(len(out) - 1, 0, -1):
            out[k] = 0.0 + out[k - 1] - out[k] * mid
        out[0] = c + (0.0 - out[0] * mid)
    return out


def fit_log_poly(
    samples: Iterable[tuple[float, float]],
    order: int,
    *,
    objective: str | None = None,
) -> RdModel:
    """Least-squares fit of ln(value) on {1, QP, ..., QP^order}.

    Requires order in {1, 2}, at least order+1 distinct QP values (the
    minimal case is an exact interpolation), positive values, and a
    non-constant response.
    """
    if order not in (1, 2):
        raise FitError(f"order must be 1 or 2, got {order}")
    pairs = list(samples)
    if not pairs:
        raise FitError("degenerate data: no samples")
    qp = np.asarray([p[0] for p in pairs], dtype=np.float64)
    values = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise FitError("log undefined: objective values must be positive")
    y = np.log(values)
    distinct = np.unique(qp)
    if distinct.size < order + 1:
        raise FitError(
            f"rank-deficient design: need at least {order + 1} distinct QPs, got {distinct.size}"
        )
    if np.ptp(y) == 0.0:
        raise FitError("degenerate data: zero response variance")

    mid = (qp.min() + qp.max()) / 2.0
    design = np.vander(qp - mid, order + 1, increasing=True)
    centered, *_ = np.linalg.lstsq(design, y, rcond=None)

    residuals = y - design @ centered
    ss_res = float(residuals @ residuals)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    n = qp.size
    dof = n - order - 1
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / dof if dof >= 1 else r2
    return RdModel(
        coefficients=tuple(_shift_coefficients(centered.tolist(), float(mid))),
        qp_min=float(qp.min()),
        qp_max=float(qp.max()),
        diagnostics=FitDiagnostics(adjusted, float(np.max(np.abs(residuals)))),
        objective=objective,
    )


def predict(model: RdModel, qp: float) -> float:
    """exp of the fitted log-polynomial at qp."""
    return float(np.exp(model.log_value(qp)))
