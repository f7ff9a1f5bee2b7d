"""Bjontegaard-delta bitrate comparison and correlation utilities.

Two rate-quality curves (four or more (bitrate, quality) points each) are
compared by fitting a cubic polynomial to log-bitrate as a function of
quality per curve, integrating the difference of the fits in closed form
over the shared quality interval, and exponentiating the average:

    bd_rate = exp(mean log-bitrate difference) - 1

Negative means the second curve needs less bitrate at equal quality.  The
construction is antisymmetric: (1 + bd(A,B)) * (1 + bd(B,A)) = 1.  Natural
logs are used; the result is base-independent since any base cancels in
the exp-of-mean-of-differences.

SROCC (Spearman, average ranks on ties) and PCC (Pearson) cover the
quality-assessment correlation protocol.  ``average_ranks`` gives the ranks,
scipy's ``rankdata`` average ranks in numpy alone; ``activity``'s U test
ranks through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import records

MIN_CURVE_POINTS = 4


class BdError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class RdCurve:
    """Rate-quality points for one codec, sorted by bitrate."""

    codec: str
    points: tuple[tuple[float, float], ...]  # (bitrate kbps, quality)
    monotone: bool = True

    def __post_init__(self) -> None:
        if len(self.points) < MIN_CURVE_POINTS:
            raise BdError(f"curve needs >= {MIN_CURVE_POINTS} points, got {len(self.points)}")
        if any(r <= 0.0 for r, _ in self.points):
            raise BdError("bitrates must be strictly positive")
        ordered = tuple(sorted(self.points))
        qualities = [q for _, q in ordered]
        object.__setattr__(self, "points", ordered)
        object.__setattr__(
            self, "monotone", all(b >= a for a, b in zip(qualities, qualities[1:]))
        )

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([r for r, _ in self.points])

    @property
    def qualities(self) -> np.ndarray:
        return np.array([q for _, q in self.points])

    def shifted(self, dq: float) -> "RdCurve":
        return RdCurve(self.codec, tuple((r, q + dq) for r, q in self.points))


@dataclass(frozen=True, slots=True)
class BdResult:
    bd_rate: float  # fractional bitrate change of B relative to A; negative = savings
    monotone_inputs: bool = True

    @property
    def savings_percent(self) -> float:
        """Positive percentage when B saves bitrate versus A."""
        return -100.0 * self.bd_rate


def _log_rate_integral(curve: RdCurve, lo: float, hi: float, center: float) -> float:
    """Closed-form integral of the cubic log-bitrate fit over [lo, hi]."""
    coeffs = np.polyfit(curve.qualities - center, np.log(curve.bitrates), 3)
    anti = np.polyint(coeffs)
    return float(np.polyval(anti, hi - center) - np.polyval(anti, lo - center))


def bd_rate(curve_a: RdCurve, curve_b: RdCurve) -> BdResult:
    """Average bitrate change of curve B relative to curve A at equal quality."""
    lo = max(curve_a.qualities.min(), curve_b.qualities.min())
    hi = min(curve_a.qualities.max(), curve_b.qualities.max())
    if hi <= lo:
        raise BdError("no quality overlap between the two curves")
    center = 0.5 * (lo + hi)
    int_a = _log_rate_integral(curve_a, lo, hi, center)
    int_b = _log_rate_integral(curve_b, lo, hi, center)
    avg_diff = (int_b - int_a) / (hi - lo)
    return BdResult(
        bd_rate=math.exp(avg_diff) - 1.0,
        monotone_inputs=curve_a.monotone and curve_b.monotone,
    )


def bd_matrix(curves: Sequence[RdCurve]) -> list[list[float | None]]:
    """Upper-triangle savings matrix: row codec versus column codec, percent."""
    n = len(curves)
    out: list[list[float | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            try:
                out[i][j] = bd_rate(curves[j], curves[i]).savings_percent
            except BdError:
                out[i][j] = None
    return out


def format_bd_matrix(curves: Sequence[RdCurve], matrix: list[list[float | None]]) -> str:
    names = [c.codec for c in curves]
    lines = ["Bitrate savings Relative to"]
    lines.append("Encoding\t" + "\t".join(names))
    for i, name in enumerate(names):
        cells = []
        for j in range(len(names)):
            if j < i:
                cells.append("")
            elif j == i:
                cells.append("-")
            else:
                value = matrix[i][j]
                cells.append("n/a" if value is None else f"{value:.2f}%")
        lines.append(name + "\t" + "\t".join(cells))
    return "\n".join(lines)


def average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n along axis 0, and the sizes of the runs of equal values.

    A run of t equal values shares the mean of its t ranks, as in scipy's
    ``rankdata``, column by column for a 2-D input.  Run sizes come in
    sorted order: a run's size at its first value, 0 at the others.  Both
    arrays have the input's shape.  A NaN anywhere makes every rank NaN,
    as ``rankdata`` does by default.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan), np.zeros(values.shape)
    order = np.argsort(values, axis=0, kind="stable")
    ordered = np.take_along_axis(values, order, axis=0)
    changes = ordered[1:] != ordered[:-1]
    edge = np.ones((1, *values.shape[1:]), dtype=bool)
    starts = np.concatenate([edge, changes])
    position = np.arange(len(values)).reshape(-1, *[1] * (values.ndim - 1))
    # the sorted positions of each run's first and last value
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=0)
    last = np.minimum.accumulate(
        np.where(np.concatenate([changes, edge]), position, len(values))[::-1], axis=0)[::-1]
    ranks = np.empty_like(values)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=0)
    return ranks, np.where(starts, last - first + 1, 0).astype(np.float64)


def srocc(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank-order correlation; ties take average ranks.

    Ranks keep the size of their input, and only a constant input has
    constant ranks, so ``pcc`` rejects what Spearman cannot rank.
    """
    return pcc(average_ranks(x)[0], average_ranks(y)[0])


def pcc(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson linear correlation coefficient."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size != ya.size or xa.size < 3:
        raise BdError("need equally sized inputs of length >= 3")
    if np.ptp(xa) == 0.0 or np.ptp(ya) == 0.0:
        raise BdError("undefined correlation for constant input")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    return float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))


RD_HEADER = "#segenc-rd v1"
RD_COLUMNS = ("codec", "qp", "bitrate_kbps", "psnr611", "vmaf")


def write_rd_file(path: str | Path, rows: Sequence[dict]) -> None:
    """RD points as ``read_rd_file`` reads them; a None quality is a ``-`` cell."""
    records.write_table(path, RD_HEADER, RD_COLUMNS, (
        ["-" if row[c] is None else str(row[c]) for c in RD_COLUMNS] for row in rows
    ))


def _rd_record(codec: str, qp: str, bitrate_kbps: str, psnr611: str, vmaf: str) -> dict:
    return {
        "codec": codec,
        "qp": int(records.finite(qp)),
        "bitrate_kbps": records.finite(bitrate_kbps),
        "psnr611": records.optional(records.finite, psnr611),
        "vmaf": records.optional(records.finite, vmaf),
    }


def read_rd_file(path: str | Path) -> dict[str, list[dict]]:
    """RD points grouped by codec; a ``-`` quality cell reads as None, NaN or inf fails."""
    by_codec: dict[str, list[dict]] = {}
    for rec in records.read_rows(path, BdError, "an RD row", len(RD_COLUMNS), _rd_record,
                                 marker=("#segenc-rd", "an RD-point file")):
        by_codec.setdefault(rec["codec"], []).append(rec)
    if not by_codec:
        raise BdError(f"{path} holds no RD points")
    return by_codec


def curves_from_records(
    by_codec: dict[str, list[dict]], axis: str = "psnr611"
) -> list[RdCurve]:
    if axis not in ("psnr611", "vmaf"):
        raise BdError(f"unknown quality axis {axis!r}")
    for codec, rows in by_codec.items():
        if any(r[axis] is None for r in rows):
            raise BdError(f"codec {codec!r} has RD points without {axis}")
    return [
        RdCurve(codec, tuple((r["bitrate_kbps"], r[axis]) for r in rows))
        for codec, rows in by_codec.items()
    ]
