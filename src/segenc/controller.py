"""Segment-adaptive encoding loop.

The first segment is swept exhaustively over the codec grid, its
configurations encoded concurrently (``encoders.encode_batch``); per-GOP,
per-filter forward models are fit from its Pareto front.  Every later
segment costs exactly one real encode: the constrained inverse solve picks
(GOP, filter flags, QP), the segment is encoded once, the outcome is
logged, and the chosen group's models keep their bootstrap shape but move
their log-intercepts toward the measurement, at a constant cost per segment.

GOP/filter selection (the grouping rule): every fitted group solves the
same constrained problem; the group whose solution achieves the best mode
objective among constraint-satisfying groups wins, ties breaking toward
lower predicted bitrate, then the structurally simpler GOP.  Chosen QPs are
additionally kept within +/-``QP_STEP_LIMIT`` of the previous segment's QP.

A group's solve is a pure function of its models, the constraint values,
the segment's frame count and the grid, and an encode moves one group's
models only.  So each group's last solve is kept on the state and reused
while its inputs are unchanged: a segment after the bootstrap solves the
group its encode refitted, and every group again where a constraint
schedule changes region or the frame count changes (a shorter last
segment).  The decisions are the same, bit for bit.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import records
from .encoders import (
    CodecGrid,
    Encoder,
    EncoderError,
    EncodingConfig,
    Filters,
    SegmentMeasurement,
    encode_batch,
)
from .media import Segment
from .models import RdModel, fit_log_poly
from .pareto import measured_points, pareto_front, select_mode_optimal
from .solver import (
    ConstraintSet,
    QpSolution,
    candidate_rank,
    check_constraints,
    evaluate,
    solve_constrained,
)

GroupKey = tuple[str, Filters]  # (gop, filter flags)

INTERCEPT_GAIN = 0.75  # share of each measured log-residual moved into c0
QP_STEP_LIMIT = 4  # most a chosen QP may move from the previous segment's


class ControllerError(RuntimeError):
    pass


@dataclass(slots=True)
class DecisionRecord:
    segment_index: int
    config: EncodingConfig
    predicted: dict[str, float]
    measured: SegmentMeasurement | None
    satisfied: bool
    violations: dict[str, float]
    gop_switched: bool = False
    qp_clamped: bool = False
    failed: bool = False

    def to_record(self) -> dict:
        c = self.config
        return {
            "segment": self.segment_index,
            "codec": c.codec,
            "gop": c.gop,
            "gop_type": c.gop_type,
            "qp": c.qp,
            "filters": dict(c.filters),
            "predicted": self.predicted,
            "measured": None if self.measured is None else self.measured.numbers(),
            "satisfied": self.satisfied,
            "violations": self.violations,
            "gop_switched": self.gop_switched,
            "qp_clamped": self.qp_clamped,
            "failed": self.failed,
        }


@dataclass(slots=True)
class ControllerState:
    """``models`` are the bootstrap fits, intercept-corrected after encodes;
    ``samples`` are the samples of the bootstrap fits only.

    ``solves`` holds each group's last solve as ``(models, (constraints,
    frames, grid), rank, solution)``, rank and solution None where the
    solve raised.  ``choose_gop_model`` reuses it only while the group's
    models dict is the same object, so an encode replaces that dict, never
    edits it in place.  A kept solution's dicts may sit in decision records
    too; both are read only.
    """

    models: dict[GroupKey, dict[str, RdModel]] = field(default_factory=dict)
    samples: dict[GroupKey, dict[str, list[tuple[int, float]]]] = field(default_factory=dict)
    history: list[DecisionRecord] = field(default_factory=list)
    sweep: list[SegmentMeasurement] = field(default_factory=list)
    solves: dict[GroupKey, tuple] = field(default_factory=dict)


def _objectives_for(measurements: Sequence[SegmentMeasurement]) -> tuple[str, ...]:
    objectives = ["psnr", "bits", "enc_rate"]
    if all(m.quality_vmaf is not None for m in measurements):
        objectives.insert(1, "vmaf")
    if all(m.quality_ssim is not None for m in measurements):
        objectives.append("ssim")
    return tuple(objectives)


def _by_group(measured: Iterable[SegmentMeasurement]) -> dict[GroupKey, list[SegmentMeasurement]]:
    groups: dict[GroupKey, list[SegmentMeasurement]] = {}
    for m in measured:
        groups.setdefault((m.config.gop, m.config.filters), []).append(m)
    return groups


def _encode_all(
    encoder: Encoder, jobs: Iterable[tuple[EncodingConfig, Segment]]
) -> list[SegmentMeasurement]:
    """Every job's measurement, in order.

    The first failure in that order is raised once the encodes under way
    have ended; no job after those is started.
    """
    measured = []
    with contextlib.closing(encode_batch(encoder, jobs)) as results:
        for result in results:
            if isinstance(result, EncoderError):
                raise result
            measured.append(result)
    return measured


def bootstrap(
    encoder: Encoder,
    first_segment: Segment,
    constraints: ConstraintSet,
) -> ControllerState:
    """Exhaustive sweep of segment 0, Pareto front, per-group order-2 fits.

    The grid's encodes run concurrently, ``encoder.workers`` at a time; the
    first to fail, in grid order, is raised and no later one is started.
    A group with fewer than 3 distinct QPs on the front is fitted from all
    of its sweep samples.  The segment itself is credited with its
    mode-optimal front entry, checked against hard (zero-tolerance) bounds
    since measured values carry no prediction error.
    """
    sweep = _encode_all(encoder, ((cfg, first_segment) for cfg in encoder.grid().configs()))
    if not sweep:
        raise ControllerError("insufficient data: empty sweep")
    objectives = _objectives_for(sweep)
    metric = constraints.quality_metric
    if metric not in objectives:
        raise ControllerError(
            f"constraint metric {metric!r} is not measured by this encoder"
        )

    front = pareto_front(measured_points(sweep, metric))

    by_group_front = _by_group(m for m, _ in front.entries)
    by_group_all = _by_group(sweep)

    state = ControllerState(sweep=sweep)
    for key, members in by_group_all.items():
        chosen = by_group_front.get(key, [])
        if len({m.config.qp for m in chosen}) < 3:
            chosen = members
        samples = {
            obj: [(m.config.qp, m.objective(obj)) for m in chosen] for obj in objectives
        }
        try:
            state.models[key] = {
                obj: fit_log_poly(pairs, 2, objective=obj) for obj, pairs in samples.items()
            }
        except ValueError:
            continue
        state.samples[key] = samples
    if not state.models:
        raise ControllerError("insufficient data: no group had enough samples to fit")

    chosen_m, _ = select_mode_optimal(
        front, constraints.without_tolerances(), frames=first_segment.frame_count
    )
    predicted = {
        obj: chosen_m.objective(obj) for obj in objectives
    }
    satisfied, violations = check_constraints(
        {**predicted, "enc_time": chosen_m.enc_time}, constraints
    )
    state.history.append(
        DecisionRecord(
            segment_index=first_segment.index,
            config=chosen_m.config,
            predicted=predicted,
            measured=chosen_m,
            satisfied=satisfied,
            violations=violations,
        )
    )
    return state


def choose_gop_model(
    state: ControllerState,
    constraints: ConstraintSet,
    *,
    grid: CodecGrid,
    segment_frames: int | None = None,
) -> tuple[GroupKey, dict[str, RdModel], QpSolution]:
    """Solve every fitted group over ``grid``'s QP range; best feasible mode objective wins.

    Ties break toward lower predicted bitrate, then the simpler GOP (rank
    in ``grid``'s structure list), then the filter flags.  When no group
    satisfies the constraints the least-violation group is returned.  A
    group whose models dict, constraint values, ``segment_frames`` and grid
    are those of its kept solve (``state.solves``) is not solved again;
    that includes a solve that found no solution.
    """
    if not state.models:
        raise ControllerError("no fitted model groups")
    inputs = (constraints, segment_frames, grid)
    best: tuple[tuple, GroupKey, dict[str, RdModel], QpSolution] | None = None
    for key, models in state.models.items():
        kept = state.solves.get(key)
        if kept is None or kept[0] is not models or kept[1] != inputs:
            try:
                sol = solve_constrained(
                    models,
                    constraints,
                    qp_bounds=grid.qp_bounds,
                    start=grid.newton_start,
                    segment_frames=segment_frames,
                )
            except ValueError:
                sol = None
            rank = None if sol is None else (
                *candidate_rank(sol.predicted, sol.satisfied, sol.violations, constraints),
                grid.gop_rank(key[0]),
                key[1],
            )
            kept = state.solves[key] = (models, inputs, rank, sol)
        _, _, rank, sol = kept
        if sol is not None and (best is None or rank < best[0]):
            best = (rank, key, models, sol)
    if best is None:
        raise ControllerError("no group produced a solution")
    _, key, models, sol = best
    return key, models, sol


def run_segment_loop(
    encoder: Encoder,
    segments: Sequence[Segment],
    constraints: ConstraintSet,
    *,
    schedule: Callable[[Segment], ConstraintSet] | None = None,
) -> ControllerState:
    """Bootstrap on segment 0, then predict/encode/correct per segment.

    Each post-bootstrap segment triggers exactly one encode, after which the
    chosen group's log-intercepts move toward the measurement.  Out-of-range
    estimates are clamped to the grid and to +/-``QP_STEP_LIMIT`` of the
    previous segment's QP.  Encoder failures mark the record failed and the
    loop continues on the prior models.
    """
    if not segments:
        raise ControllerError("no segments to encode")

    grid = encoder.grid()
    first_constraints = schedule(segments[0]) if schedule else constraints
    state = bootstrap(encoder, segments[0], first_constraints)
    prev_qp = state.history[-1].config.qp
    prev_gop = state.history[-1].config.gop

    for segment in segments[1:]:
        current = schedule(segment) if schedule else constraints
        key, models, sol = choose_gop_model(
            state, current, grid=grid, segment_frames=segment.frame_count
        )
        gop, filters = key

        lo = max(grid.qp_bounds[0], prev_qp - QP_STEP_LIMIT)
        hi = min(grid.qp_bounds[1], prev_qp + QP_STEP_LIMIT)
        qp = min(max(sol.qp_int, lo), hi)
        clamped = qp != sol.qp_int
        if clamped:
            predicted, satisfied, violations = evaluate(qp, models, current, segment.frame_count)
        else:
            predicted, satisfied, violations = sol.predicted, sol.satisfied, sol.violations

        config = grid.config(gop, qp, filters)
        record = DecisionRecord(
            segment_index=segment.index,
            config=config,
            predicted=predicted,
            measured=None,
            satisfied=satisfied,
            violations=violations,
            gop_switched=gop != prev_gop,
            qp_clamped=clamped,
        )
        try:
            measurement = encoder.encode(config, segment)
        except EncoderError:
            record.failed = True
            state.history.append(record)
            continue
        record.measured = measurement
        state.history.append(record)
        prev_qp, prev_gop = qp, gop
        _refresh_group(state, key, measurement)
    return state


def _refresh_group(state: ControllerState, key: GroupKey, measurement: SegmentMeasurement) -> None:
    """c0 += INTERCEPT_GAIN * (ln(measured) - ln(predicted)) at the encoded QP.

    This is lambda-domain rate control's per-encode update (Li et al., IEEE
    TIP 23(9), 2014).  One point at one QP cannot identify curvature, so
    c1 and c2 stay.  A value without a finite log (say, the infinite rate of a
    zero-time encode) leaves the group's models as they were.
    """
    models = state.models[key]
    values = {obj: measurement.objective(obj) for obj in models}
    if not all(0.0 < v < math.inf for v in values.values()):
        return
    qp = measurement.config.qp
    state.models[key] = {
        obj: RdModel(
            (model.coefficients[0] + INTERCEPT_GAIN * (math.log(values[obj]) - model.log_value(qp)),
             *model.coefficients[1:]),
            model.qp_min, model.qp_max, model.diagnostics, model.objective,
        )
        for obj, model in models.items()
    }


@dataclass(frozen=True, slots=True)
class GainSummary:
    """Overall averages and gains versus a constant-QP baseline."""

    segments: int
    avg_bitrate_kbps: float
    avg_psnr_db: float
    avg_vmaf: float | None
    baseline_qp: int | None = None
    baseline_bitrate_kbps: float | None = None
    bitrate_gain_pct: float | None = None
    delta_psnr_db: float | None = None
    delta_vmaf: float | None = None

    def format(self) -> str:
        lines = [
            f"segments: {self.segments}",
            f"average bitrate: {self.avg_bitrate_kbps:.2f} kbps",
            f"average PSNR:    {self.avg_psnr_db:.3f} dB",
        ]
        if self.avg_vmaf is not None:
            lines.append(f"average VMAF:    {self.avg_vmaf:.2f}")
        if self.bitrate_gain_pct is not None:
            lines += [
                f"baseline: constant QP {self.baseline_qp} "
                f"({self.baseline_bitrate_kbps:.2f} kbps)",
                "Overall Bitrate Gain | Overall PSNR | Overall VMAF",
                f"{self.bitrate_gain_pct:.2f} % | {self.delta_psnr_db:+.3f} dB | "
                + (f"{self.delta_vmaf:+.2f}" if self.delta_vmaf is not None else "-"),
            ]
        return "\n".join(lines)


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals)


def _mean_vmaf(measured: Sequence[SegmentMeasurement]) -> float | None:
    vmafs = [m.quality_vmaf for m in measured]
    return _mean(vmafs) if all(v is not None for v in vmafs) else None


def summarize(
    state: ControllerState,
    *,
    encoder: Encoder | None = None,
    segments: Sequence[Segment] | None = None,
    baseline_bitrate_kbps: float | None = None,
) -> GainSummary:
    """Per-run averages, plus gains versus a constant-QP baseline.

    The baseline QP is the sweep-grid QP (default GOP, filters on) whose
    segment-0 bitrate lands closest to the requested target; the baseline
    then encodes every segment at that constant configuration, ``workers``
    at a time.
    """
    measured = [r.measured for r in state.history if r.measured is not None]
    if not measured:
        raise ControllerError("no measured segments to summarize")
    avg_bitrate = _mean(m.bitrate for m in measured)
    avg_psnr = _mean(m.quality_psnr for m in measured)
    avg_vmaf = _mean_vmaf(measured)
    summary = GainSummary(len(measured), avg_bitrate, avg_psnr, avg_vmaf)
    if baseline_bitrate_kbps is None or encoder is None or segments is None:
        return summary

    default_gop = encoder.grid().default_gop
    candidates = [
        m for m in state.sweep if m.config.gop == default_gop and m.config.filters_on
    ] or state.sweep
    baseline_cfg = min(candidates, key=lambda m: abs(m.bitrate - baseline_bitrate_kbps)).config
    base = _encode_all(encoder, ((baseline_cfg, seg) for seg in segments))
    base_bitrate = _mean(m.bitrate for m in base)
    base_psnr = _mean(m.quality_psnr for m in base)
    base_vmaf = _mean_vmaf(base)
    return replace(
        summary,
        baseline_qp=baseline_cfg.qp,
        baseline_bitrate_kbps=base_bitrate,
        bitrate_gain_pct=100.0 * (base_bitrate - avg_bitrate) / base_bitrate,
        delta_psnr_db=avg_psnr - base_psnr,
        delta_vmaf=(avg_vmaf - base_vmaf)
        if avg_vmaf is not None and base_vmaf is not None
        else None,
    )


def write_decision_log(state: ControllerState, path: str | Path) -> None:
    """Replace ``path`` (``records.replace_text``) with one JSON line per record."""
    lines = ["#segenc-decisions v1", *(json.dumps(r.to_record()) for r in state.history)]
    records.replace_text(path, "".join(line + "\n" for line in lines))
