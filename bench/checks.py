"""Output checks, each computed here apart from ``segenc``.

Every function takes plain data (numbers, dicts, lists) and returns a list
of error strings, empty when the output passes.  ``test_checks.py`` feeds
each one a correct output and a deliberately corrupted one.

Bounds are plain dicts with the keys of ``segenc.solver.ConstraintSet``
(``mode``, ``max_bitrate_kbps``, ``min_quality``, ``min_fps``,
``max_time_s``, ``quality_metric``, ``tol_bitrate``, ``tol_fps``,
``tol_quality``); measured values are dicts keyed ``bits``, ``psnr``,
``vmaf``, ``enc_rate`` and ``enc_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2
QUALITY_ABS_TOL = 1e-9
REL_TOL = 1e-12

# mode -> (objective key, +1 when higher is better); "quality" means the
# bound set's quality metric
MODE_OBJECTIVE = {
    "max_quality": ("quality", 1.0),
    "min_bitrate": ("bits", -1.0),
    "max_enc_rate": ("enc_rate", 1.0),
    "min_enc_time": ("enc_rate", 1.0),
}

Values = Mapping[str, float]
Bounds = Mapping[str, object]


@dataclass(frozen=True)
class Decision:
    """One controller decision as the user sees it."""

    segment: int
    gop: str
    qp: int
    filters_on: bool
    measured: Values | None  # None when the encode failed


# --- reference quality metrics ----------------------------------------------


def _planes(frames: np.ndarray, width: int, height: int) -> list[np.ndarray]:
    luma = width * height
    chroma = luma // 4
    return [frames[:, :luma], frames[:, luma : luma + chroma], frames[:, luma + chroma :]]


def reference_psnr611(ref: np.ndarray, dist: np.ndarray, width: int, height: int) -> float:
    """(6*Y + U + V) / 8 of per-plane PSNR, squared error pooled over frames.

    ``ref`` and ``dist`` are (frames, width*height*3/2) uint8 arrays of
    planar 4:2:0 video.  A plane without error scores the 100 dB cap.
    """
    scores = []
    for a, b in zip(_planes(ref, width, height), _planes(dist, width, height)):
        diff = a.astype(np.int64) - b.astype(np.int64)
        sse = int(np.sum(diff * diff))
        if sse == 0:
            scores.append(PSNR_CAP_DB)
        else:
            scores.append(10.0 * math.log10(255.0 * 255.0 * diff.size / sse))
    y, u, v = scores
    return (6.0 * y + u + v) / 8.0


def reference_ssim(ref: np.ndarray, dist: np.ndarray, width: int, height: int) -> float:
    """Mean luma SSIM over non-overlapping 8x8 windows of every frame.

    Window moments come from exact integer sums; the frame is cropped to a
    multiple of the window size.
    """
    h8 = height - height % SSIM_WINDOW
    w8 = width - width % SSIM_WINDOW
    n = float(SSIM_WINDOW * SSIM_WINDOW)
    total = 0.0
    count = 0
    for a, b in zip(ref, dist):
        shape = (h8 // SSIM_WINDOW, SSIM_WINDOW, w8 // SSIM_WINDOW, SSIM_WINDOW)
        x = a[: width * height].reshape(height, width)[:h8, :w8].astype(np.int64).reshape(shape)
        y = b[: width * height].reshape(height, width)[:h8, :w8].astype(np.int64).reshape(shape)
        sx = x.sum(axis=(1, 3))
        sy = y.sum(axis=(1, 3))
        sxx = (x * x).sum(axis=(1, 3))
        syy = (y * y).sum(axis=(1, 3))
        sxy = (x * y).sum(axis=(1, 3))
        mx = sx / n
        my = sy / n
        vx = sxx / n - mx * mx
        vy = syy / n - my * my
        cov = sxy / n - mx * my
        num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
        total += float(np.sum(num / den))
        count += sx.size
    return total / count


# --- bounds and the exhaustive-search oracle --------------------------------


def misses(values: Values, bounds: Bounds, *, banded: bool = True) -> list[str]:
    """Names of the bounds ``values`` miss; banded checks allow the tolerances."""

    def tol(name: str) -> float:
        return float(bounds[name]) if banded else 0.0

    out = []
    if bounds.get("max_bitrate_kbps") is not None:
        if values["bits"] > bounds["max_bitrate_kbps"] * (1.0 + tol("tol_bitrate")):
            out.append("max_bitrate_kbps")
    if bounds.get("min_quality") is not None:
        if values[bounds["quality_metric"]] < bounds["min_quality"] * (1.0 - tol("tol_quality")):
            out.append("min_quality")
    if bounds.get("min_fps") is not None:
        if values["enc_rate"] < bounds["min_fps"] * (1.0 - tol("tol_fps")):
            out.append("min_fps")
    if bounds.get("max_time_s") is not None:
        if values["enc_time"] > bounds["max_time_s"] * (1.0 + tol("tol_fps")):
            out.append("max_time_s")
    return out


def objective_score(values: Values, bounds: Bounds) -> float:
    """The mode objective, signed so that higher is better."""
    key, sign = MODE_OBJECTIVE[str(bounds["mode"])]
    if key == "quality":
        key = str(bounds["quality_metric"])
    return sign * values[key]


Evaluate = Callable[[str, int, bool], Values]


def window_best(
    evaluate: Evaluate,
    gops: Iterable[str],
    prev_qp: int,
    qp_bounds: tuple[int, int],
    bounds: Bounds,
    *,
    step_limit: int = 4,
) -> float | None:
    """Best signed objective by exhaustive search of the true law.

    Searches every GOP, both filter settings and every integer QP within
    ``step_limit`` of ``prev_qp``, keeping the configurations that meet the
    bounds with zero tolerance.  None when no configuration does.
    """
    lo = max(qp_bounds[0], prev_qp - step_limit)
    hi = min(qp_bounds[1], prev_qp + step_limit)
    best = None
    for gop in gops:
        for filters_on in (False, True):
            for qp in range(lo, hi + 1):
                values = evaluate(gop, qp, filters_on)
                if misses(values, bounds, banded=False):
                    continue
                score = objective_score(values, bounds)
                if best is None or score > best:
                    best = score
    return best


def law_values(
    coefficients: Mapping[str, Mapping[str, tuple[float, float, float]]],
    offsets: Mapping[str, float],
    gop: str,
    qp: int,
    filters_on: bool,
    frames: int,
) -> dict[str, float]:
    """exp(a + b1*QP + b2*QP^2), plus the filter offset when filters are on."""
    out = {}
    for objective, (a, b1, b2) in coefficients[gop].items():
        value = math.exp(a + b1 * qp + b2 * qp * qp)
        if filters_on:
            value += offsets.get(objective, 0.0)
        out[objective] = value
    out["enc_time"] = frames / out["enc_rate"]
    return out


# --- checks -----------------------------------------------------------------


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_encode_count(calls: int, grid_size: int, segments: int) -> list[str]:
    """Bootstrap sweeps the grid once; every later segment costs one encode."""
    expected = grid_size + segments - 1
    if calls != expected:
        return [f"{calls} encoder calls, expected grid {grid_size} + segments {segments} - 1"]
    return []


def check_measured_law(decisions: Sequence[Decision], evaluate: Callable[[Decision], Values]) -> list[str]:
    """Every measured value equals the law evaluated at the recorded configuration."""
    errors = []
    for d in decisions:
        if d.measured is None:
            continue
        truth = evaluate(d)
        for key, value in d.measured.items():
            if key in truth and not _close(value, truth[key]):
                errors.append(f"segment {d.segment}: measured {key} {value!r} != law {truth[key]!r}")
    return errors


def check_bounds(decisions: Sequence[Decision], bounds_for: Callable[[int], Bounds]) -> list[str]:
    """Every decision's measured values meet its banded bounds."""
    errors = []
    for d in decisions:
        if d.measured is None:
            errors.append(f"segment {d.segment}: encode failed")
            continue
        missed = misses(d.measured, bounds_for(d.segment))
        if missed:
            errors.append(f"segment {d.segment}: misses {', '.join(missed)}")
    return errors


def check_window_optimal(
    decisions: Sequence[Decision],
    prev_qps: Sequence[int],
    evaluate: Evaluate,
    gops: Sequence[str],
    qp_bounds: tuple[int, int],
    bounds_for: Callable[[int], Bounds],
) -> list[str]:
    """Each decision is at least as good as the zero-tolerance window oracle.

    Decisions whose window holds no zero-tolerance-feasible configuration
    are skipped.  The decision is scored on the true law, not on its
    measurement, so this check stands apart from ``check_measured_law``.
    """
    errors = []
    for d, prev in zip(decisions, prev_qps):
        bounds = bounds_for(d.segment)
        best = window_best(evaluate, gops, prev, qp_bounds, bounds)
        if best is None:
            continue
        score = objective_score(evaluate(d.gop, d.qp, d.filters_on), bounds)
        if score < best - 1e-9 * abs(best):
            errors.append(
                f"segment {d.segment}: {d.gop} QP {d.qp} scores {score!r}, "
                f"window oracle {best!r}"
            )
    return errors


def check_quality(
    segment: int, measured_psnr: float, measured_ssim: float, ref_psnr: float, ref_ssim: float
) -> list[str]:
    errors = []
    if not abs(measured_psnr - ref_psnr) <= QUALITY_ABS_TOL:
        errors.append(f"segment {segment}: PSNR-611 {measured_psnr!r} != reference {ref_psnr!r}")
    if not abs(measured_ssim - ref_ssim) <= QUALITY_ABS_TOL:
        errors.append(f"segment {segment}: SSIM {measured_ssim!r} != reference {ref_ssim!r}")
    return errors


def check_bitrate(segment: int, bitrate_kbps: float, payload_bytes: int, duration_s: float) -> list[str]:
    expected = 8.0 * payload_bytes / duration_s / 1000.0
    if not _close(bitrate_kbps, expected):
        return [f"segment {segment}: bitrate {bitrate_kbps!r} != 8 x {payload_bytes} B / {duration_s} s"]
    return []


def check_decision_log(records: Sequence[Mapping], segments: int) -> list[str]:
    """One record per segment, in order; each record not marked failed has a measurement."""
    indices = [r.get("segment") for r in records]
    if indices != list(range(segments)):
        return [f"decision log covers segments {indices[:5]}... ({len(indices)}), expected 0..{segments - 1}"]
    return [f"segment {r['segment']}: no measurement logged"
            for r in records if r.get("measured") is None and not r.get("failed")]


def check_schedule(
    regions: Sequence[Mapping],
    truth: Sequence[tuple[int, int, str]],
    policy: Mapping[str, Bounds],
) -> list[str]:
    """Detected regions equal the generated ones; each carries its label's policy."""
    got = [(r["start_frame"], r["end_frame"], r["label"]) for r in regions]
    if got != list(truth):
        return [f"regions {got} != generated {list(truth)}"]
    errors = []
    for r in regions:
        want = {k: v for k, v in policy[r["label"]].items() if v is not None}
        if r["constraints"] != want:
            errors.append(f"region {r['start_frame']}: constraints {r['constraints']} != policy {want}")
    return errors


def check_segment_constraints(
    applied: Sequence[tuple[int, Bounds]], bounds_for: Callable[[int], Bounds], segments: int
) -> list[str]:
    """The controller applied each segment's region policy, once per segment."""
    if [s for s, _ in applied] != list(range(segments)):
        return [f"constraints applied to segments {[s for s, _ in applied][:5]}..., expected 0..{segments - 1}"]
    errors = []
    for segment, bounds in applied:
        want = bounds_for(segment)
        if dict(bounds) != dict(want):
            errors.append(f"segment {segment}: constraints {dict(bounds)} != region policy {dict(want)}")
    return errors
