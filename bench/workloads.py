"""The three benchmark workloads.

Each workload makes its inputs in ``setup`` (repeated to time set-up),
runs the user's job in ``job`` (timed), and checks the job's outputs in
``finish`` (untimed).  Every job is closed-loop: one stream, and each
segment starts after the previous one ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks
import stub_codec
from checks import Decision
from segenc import cli, controller
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.encoders import EncoderError, ProcessEncoder, SyntheticEncoder, SyntheticLaw
from segenc.media import make_segments
from segenc.solver import ConstraintSet

BAND_TOLERANCES = {"tol_bitrate": 0.10, "tol_fps": 0.10, "tol_quality": 0.05}


def bounds(mode: str, **values: float) -> dict:
    """A full bound set: every ConstraintSet field, unset bounds as None."""
    out = {"mode": mode, "max_bitrate_kbps": None, "min_quality": None, "min_fps": None,
           "max_time_s": None, "quality_metric": "psnr", **BAND_TOLERANCES}
    out.update(values)
    return out


@dataclass
class Outcome:
    """What one job did, as the benchmark counts and checks it."""

    attempted: int
    failed: int
    errors: list[str]
    intervals: list[float]  # seconds from one post-bootstrap encode's end to the next
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class EncodeLog:
    """Filled by the encoder the job uses: end times, measurements, errors."""

    stamps: list[float] = field(default_factory=list)
    measurements: list[Any] = field(default_factory=list)
    errors: int = 0

    def intervals(self, bootstrap_encodes: int) -> list[float]:
        post = self.stamps[bootstrap_encodes:]
        return [b - a for a, b in zip(post, post[1:])]


def logged(base: type, log: EncodeLog) -> type:
    """Subclass of an encoder that stamps the time each encode returns."""

    class Logged(base):
        def encode(self, config, segment):
            try:
                m = super().encode(config, segment)
            except EncoderError:
                log.errors += 1
                raise
            finally:
                log.stamps.append(time.perf_counter())
            log.measurements.append(m)
            return m

    return Logged


def measured_values(m) -> dict[str, float]:
    out = {"bits": m.bitrate, "psnr": m.quality_psnr, "enc_rate": m.enc_rate, "enc_time": m.enc_time}
    if m.quality_vmaf is not None:
        out["vmaf"] = m.quality_vmaf
    return out


def logged_decisions(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "#segenc-decisions v1":
        raise ValueError(f"{path} is not a decision log")
    return [json.loads(line) for line in lines[1:]]


def decision_from_log(rec: dict) -> Decision:
    m = rec["measured"]
    values = None
    if m is not None and not rec["failed"]:
        values = {"bits": m["bitrate_kbps"], "psnr": m["psnr_db"], "enc_rate": m["fps"],
                  "enc_time": m["enc_time_s"]}
        if m["vmaf"] is not None:
            values["vmaf"] = m["vmaf"]
    on = bool(rec["filters"]) and all(rec["filters"].values())
    return Decision(rec["segment"], rec["gop"], rec["qp"], on, values)


def samples_held(state) -> int:
    if state is None:
        return 0
    return sum(len(pairs) for group in state.samples.values() for pairs in group.values())


def quiet_main(argv: list[str]) -> int:
    """``segenc`` CLI in-process, its report kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------


class SyntheticDrift:
    """``run_segment_loop`` over a long stream whose content gets harder.

    The law and the step do not depend on the seed: every post-step segment
    misses ``max_bitrate_kbps`` because ``controller._refresh_group`` keeps
    every sample and refits unweighted, so the fit follows the step by about
    1/n per segment.  Those failures are counted, identically in every run.
    """

    GOPS = (("B2", "max_quality"), ("B3", "max_quality"), ("B4", "min_bitrate"), ("B6", "max_quality"))
    FILTER_OFFSETS = {"psnr": 0.25, "vmaf": 0.5, "bits": 150.0, "enc_rate": -0.5}
    SEGMENTS = 600
    STEP_AT = 300  # first segment encoded under the harder law
    BITS_STEP = 1.5  # bitrate factor of the harder content at every QP
    FRAMES = 150
    FPS = 50
    QP_BOUNDS = (16, 45)
    BOUNDS = bounds("max_quality", max_bitrate_kbps=8000.0, min_fps=30.0)

    def __init__(self, workdir: Path, seed: int):
        self.easy = {g: dict(REFERENCE_MODEL_SETS[("x265", g, s)]) for g, s in self.GOPS}
        self.hard = {}
        for gop, objectives in self.easy.items():
            a, b1, b2 = objectives["bits"]
            self.hard[gop] = {**objectives, "bits": (a + math.log(self.BITS_STEP), b1, b2)}

    def setup(self) -> None:
        self.segments = make_segments(self.SEGMENTS * self.FRAMES, self.FPS, self.FRAMES / self.FPS)
        self.constraints = ConstraintSet(**self.BOUNDS)
        self.easy_law = SyntheticLaw(self.easy, self.FILTER_OFFSETS)
        self.hard_law = SyntheticLaw(self.hard, self.FILTER_OFFSETS)

    def job(self) -> Any:
        log = EncodeLog()
        encoder = drift_encoder(self.easy_law, self.hard_law, self.STEP_AT, log)
        state = controller.run_segment_loop(encoder, self.segments, self.constraints)
        return encoder, log, state

    def evaluate(self, segment: int, gop: str, qp: int, filters_on: bool) -> dict[str, float]:
        coefficients = self.hard if segment >= self.STEP_AT else self.easy
        return checks.law_values(coefficients, self.FILTER_OFFSETS, gop, qp, filters_on, self.FRAMES)

    def finish(self, raw: Any, traced: dict) -> Outcome:
        encoder, log, state = raw
        grid_size = len(self.easy) * len(self.easy_law.qps) * 2
        history = state.history
        decisions = [
            Decision(r.segment_index, r.config.gop, r.config.qp, r.config.filters_on,
                     None if r.measured is None else measured_values(r.measured))
            for r in history
        ]
        post = decisions[1:]
        pre = [d for d in post if d.segment < self.STEP_AT]
        errors = checks.check_encode_count(encoder.encode_calls, grid_size, len(self.segments))
        errors += checks.check_measured_law(
            decisions, lambda d: self.evaluate(d.segment, d.gop, d.qp, d.filters_on))
        errors += checks.check_bounds(pre, lambda s: self.BOUNDS)
        errors += checks.check_window_optimal(
            pre,
            [r.config.qp for r in history[: len(pre)]],
            lambda gop, qp, on: self.evaluate(0, gop, qp, on),
            list(self.easy),
            self.QP_BOUNDS,
            lambda s: self.BOUNDS,
        )
        failed = [d for d in post if d.measured is None or checks.misses(d.measured, self.BOUNDS)]
        return Outcome(
            attempted=len(post),
            failed=len(failed),
            errors=errors,
            intervals=log.intervals(grid_size),
            extras={"samples_held": samples_held(state), "bound_hits": len(post) - len(failed)},
        )


def drift_encoder(easy: SyntheticLaw, hard: SyntheticLaw, step_at: int, log: EncodeLog):
    """Synthetic encoder that switches to the harder law at ``step_at``."""

    class DriftEncoder(logged(SyntheticEncoder, log)):
        def encode(self, config, segment):
            self.law = hard if segment.index >= step_at else easy
            return super().encode(config, segment)

    return DriftEncoder(easy)


# ---------------------------------------------------------------------------


class Process1080p:
    """``segenc optimize`` on a generated 1080p clip through the stub codec.

    One-frame segments keep the 100-encode bootstrap plus 101 segments
    within one run.  ``min_bitrate`` with an fps floor far below any
    measured rate skips the constant-QP baseline pass and keeps the fps
    model, which is fitted to wall-clock noise, from binding.
    """

    WIDTH, HEIGHT, FPS = 1920, 1080, 1
    SEGMENTS = 102  # one frame each
    GRID_SIZE = 100  # vp9: 5 GOPs x 10 QPs x deblock on/off
    MIN_PSNR_DB = 34.0
    MIN_FPS = 0.01
    CHECKED_SEGMENTS = 4  # seeded sample of post-bootstrap segments re-scored per job

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.clip = self.inputs / "clip.yuv"
        self.config = self.inputs / "project.json"
        self.decisions = self.out / "decisions.jsonl"
        self.jobs = 0

    @property
    def frame_size(self) -> int:
        return self.WIDTH * self.HEIGHT * 3 // 2

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        write_clip(self.clip, self.WIDTH, self.HEIGHT, self.SEGMENTS, self.seed)
        stub = Path(stub_codec.__file__).resolve()
        run = f"{shlex.quote(sys.executable)} -S {shlex.quote(str(stub))}"
        templates = {
            "encode": f"{run} enc {{input}} {{output}} {{qp}}",
            "decode": f"{run} dec {{input}} {{output}} {{qp}}",
        }
        self.config.write_text(json.dumps({"codecs": {"vp9": templates}}))

    def job(self) -> Any:
        log = EncodeLog()
        original = cli.ProcessEncoder
        cli.ProcessEncoder = logged(ProcessEncoder, log)
        try:
            rc = quiet_main([
                "optimize", "--codec", "vp9", "--video", str(self.clip),
                "--width", str(self.WIDTH), "--height", str(self.HEIGHT), "--fps", str(self.FPS),
                "--segment-seconds", "1", "--config", str(self.config),
                "--mode", "min_bitrate", "--min-quality-db", str(self.MIN_PSNR_DB),
                "--min-fps", str(self.MIN_FPS), "--decisions", str(self.decisions),
            ])
        finally:
            cli.ProcessEncoder = original
        return rc, log

    def finish(self, raw: Any, traced: dict) -> Outcome:
        rc, log = raw
        self.jobs += 1
        attempted = len(log.stamps)
        if rc != 0:
            return Outcome(attempted, log.errors, [f"segenc optimize exited {rc}"], [])
        errors = checks.check_encode_count(attempted, self.GRID_SIZE, self.SEGMENTS)
        records = logged_decisions(self.decisions)
        errors += checks.check_decision_log(records, self.SEGMENTS)
        if errors:
            return Outcome(attempted, log.errors, errors, log.intervals(self.GRID_SIZE))

        sweep, post = log.measurements[: self.GRID_SIZE], log.measurements[self.GRID_SIZE :]
        first = records[0]
        chosen = [m for m in sweep if (m.config.gop, m.config.qp) == (first["gop"], first["qp"])
                  and dict(m.config.filters) == first["filters"]]
        by_segment = {0: chosen[0]} if chosen else {}
        by_segment.update({m.segment_index: m for m in post})
        measured = [r for r in records if not r["failed"]]
        for rec in measured:
            m = by_segment.get(rec["segment"])
            if m is None or (rec["measured"]["bitrate_kbps"], rec["measured"]["psnr_db"]) != (
                    m.bitrate, m.quality_psnr):
                errors.append(f"segment {rec['segment']}: decision log disagrees with the encode")

        rng = np.random.default_rng([self.seed, self.jobs])
        sample = [0] + sorted(rng.choice(np.arange(1, self.SEGMENTS), self.CHECKED_SEGMENTS, replace=False))
        frames = np.memmap(self.clip, dtype=np.uint8, mode="r").reshape(-1, self.frame_size)
        for segment in sample:
            if int(segment) in by_segment:
                errors += self.check_encode(int(segment), by_segment[int(segment)],
                                            np.array(frames[segment : segment + 1]))
        del frames

        decisions = [decision_from_log(r) for r in records[1:]]
        bound = bounds("min_bitrate", min_quality=self.MIN_PSNR_DB, min_fps=self.MIN_FPS)
        hits = sum(1 for d in decisions if d.measured is not None and not checks.misses(d.measured, bound))
        return Outcome(
            # a failed decision record always comes from an encode that raised
            attempted, log.errors, errors, log.intervals(self.GRID_SIZE),
            {"samples_held": samples_held(traced.get("controller.run_segment_loop")), "bound_hits": hits},
        )

    def check_encode(self, segment: int, m, source: np.ndarray) -> list[str]:
        """Re-score one encode from the source frames and the stub's quantizer."""
        qp = m.config.qp
        lut = np.frombuffer(stub_codec.decode_table(qp), dtype=np.uint8)[
            np.frombuffer(stub_codec.encode_table(qp), dtype=np.uint8)]
        decoded = lut[source]
        w, h = self.WIDTH, self.HEIGHT
        errors = checks.check_quality(
            segment, m.quality_psnr, m.quality_ssim,
            checks.reference_psnr611(source, decoded, w, h), checks.reference_ssim(source, decoded, w, h),
        )
        payload = len(stub_codec.payload(source.tobytes(), qp))
        return errors + checks.check_bitrate(segment, m.bitrate, payload, source.shape[0] / self.FPS)


def write_clip(path: Path, width: int, height: int, frames: int, seed: int) -> None:
    """Planar 4:2:0 clip: smooth gradients and a noisy checkerboard that pans.

    The seed sets the ripple's phase and the noise; the sizes stay fixed so
    that every seed costs the same.  Flat areas keep the stub's deflate
    cheap next to segenc's own work.
    """
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float32)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    luma = (40.0 + 0.08 * xs + 0.05 * ys + 25.0 * np.sin(xs / 140.0 + phase)).astype(np.int16)
    bh, bw = height // 3, width // 3
    cell = 6
    checker = ((np.arange(bh)[:, None] // cell + np.arange(bw)[None, :] // cell) % 2) * 60 + 90
    u = (128 + xs[::2, ::2] // 240).astype(np.uint8)
    v = (128 - ys[::2, ::2] // 135).astype(np.uint8)
    with path.open("wb") as fh:
        for i in range(frames):
            y = luma.copy()
            x0 = (40 * i) % (width - bw)
            y[bh : 2 * bh, x0 : x0 + bw] = checker + rng.integers(-8, 9, size=(bh, bw))
            fh.write(y.clip(0, 255).astype(np.uint8).tobytes())
            fh.write(u.tobytes())
            fh.write(v.tobytes())
        fh.flush()
        os.fsync(fh.fileno())  # write back now, not during the timed job


# ---------------------------------------------------------------------------


class ActivitySchedule:
    """``segenc classify`` then ``segenc optimize --constraint-schedule``.

    Camera activity changes between stationary, tracking and zoom regions;
    the policy gives each label a different mode.  Region edges fall on
    25-frame PU windows and every segment is one window, so each segment
    lies in one region.
    """

    WINDOW = 25  # frames per PU window and per segment
    WINDOWS = 120
    FPS = 25
    GRID = 8  # motion vectors per frame: GRID x GRID blocks
    NOISE = 0.5  # motion-vector noise, pixels
    EXEMPLARS = 5  # training files per label, WINDOW frames each
    PU_LEVELS = {"stationary": 300.0, "tracking": 900.0, "zoom": 2000.0}
    LAW = {"B6": REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]}
    QP_BOUNDS = (16, 45)
    GRID_SIZE = 20  # synthetic codec: 1 GOP x 10 QPs x deblock on/off

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.mv = self.inputs / "clip.mv"
        self.pu = self.inputs / "clip.pu"
        self.training = self.inputs / "training"
        self.policy_file = self.inputs / "policy.json"
        self.schedule = self.out / "schedule.json"
        self.decisions = self.out / "decisions.jsonl"
        psnr = lambda qp: self.evaluate("B6", qp, False)["psnr"]  # noqa: E731
        bits = lambda qp: self.evaluate("B6", qp, False)["bits"]  # noqa: E731
        self.policy = {
            "stationary": bounds("max_quality", max_bitrate_kbps=bits(28), min_fps=25.0),
            "tracking": bounds("min_bitrate", min_quality=psnr(29), min_fps=25.0),
            "zoom": bounds("max_enc_rate", min_quality=psnr(31), max_bitrate_kbps=bits(28)),
        }

    def evaluate(self, gop: str, qp: int, filters_on: bool) -> dict[str, float]:
        return checks.law_values(self.LAW, {}, gop, qp, filters_on, self.WINDOW)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)
        self.training.mkdir(exist_ok=True)
        self.regions = region_layout(rng, self.WINDOWS, self.WINDOW)
        mv_lines, pu_lines = [], []
        for start, end, label in self.regions:
            params = motion_params(label, rng)
            for frame in range(start, end):
                mv_lines += mv_records(frame, motion_field(label, params, self.GRID, self.NOISE, rng))
                pu = self.PU_LEVELS[label] * (1.0 + rng.uniform(-0.03, 0.03))
                pu_lines.append(f"{frame} {pu:.1f}")
        self.mv.write_text("\n".join(mv_lines) + "\n")
        self.pu.write_text("\n".join(pu_lines) + "\n")
        for label in self.PU_LEVELS:
            for k in range(self.EXEMPLARS):
                params = motion_params(label, rng)
                lines = []
                for frame in range(self.WINDOW):
                    lines += mv_records(frame, motion_field(label, params, self.GRID, self.NOISE, rng))
                (self.training / f"{label}_{k}.mv").write_text("\n".join(lines) + "\n")
        self.policy_file.write_text(json.dumps(
            {label: {k: v for k, v in b.items() if v is not None} for label, b in self.policy.items()}))

    def bounds_for(self, segment: int) -> dict:
        start = segment * self.WINDOW
        for lo, hi, label in self.regions:
            if lo <= start < hi:
                return self.policy[label]
        raise ValueError(f"segment {segment} outside the clip")

    def job(self) -> Any:
        rc_classify = quiet_main([
            "classify", "--mv-file", str(self.mv), "--pu-file", str(self.pu),
            "--policy", str(self.policy_file), "--training", str(self.training),
            "--out", str(self.schedule),
        ])
        log = EncodeLog()
        applied: list[tuple[int, ConstraintSet]] = []
        schedule_fn = cli._schedule_fn

        def recording_schedule(path):
            lookup = schedule_fn(path)

            def record(segment):
                cs = lookup(segment)
                applied.append((segment.index, cs))
                return cs

            return record

        saved = cli.SyntheticEncoder, cli._schedule_fn
        cli.SyntheticEncoder, cli._schedule_fn = logged(SyntheticEncoder, log), recording_schedule
        try:
            tracking = self.policy["tracking"]
            rc_optimize = quiet_main([
                "optimize", "--codec", "synthetic", "--frames", str(self.WINDOWS * self.WINDOW),
                "--fps", str(self.FPS), "--segment-seconds", str(self.WINDOW / self.FPS),
                "--mode", "min_bitrate", "--min-quality-db", repr(tracking["min_quality"]),
                "--min-fps", repr(tracking["min_fps"]),
                "--constraint-schedule", str(self.schedule), "--decisions", str(self.decisions),
            ])
        finally:
            cli.SyntheticEncoder, cli._schedule_fn = saved
        return rc_classify, rc_optimize, log, applied

    def finish(self, raw: Any, traced: dict) -> Outcome:
        rc_classify, rc_optimize, log, applied = raw
        attempted = max(len(log.stamps) - self.GRID_SIZE, 0)
        if (rc_classify, rc_optimize) != (0, 0):
            return Outcome(attempted, log.errors,
                           [f"segenc classify exited {rc_classify}, optimize exited {rc_optimize}"], [])
        regions = json.loads(self.schedule.read_text())["regions"]
        errors = checks.check_schedule(regions, self.regions, self.policy)
        errors += checks.check_segment_constraints(
            [(s, dataclasses.asdict(cs)) for s, cs in applied], self.bounds_for, self.WINDOWS)
        errors += checks.check_encode_count(len(log.stamps), self.GRID_SIZE, self.WINDOWS)
        records = logged_decisions(self.decisions)
        errors += checks.check_decision_log(records, self.WINDOWS)
        if errors:
            return Outcome(attempted, log.errors, errors, log.intervals(self.GRID_SIZE))

        decisions = [decision_from_log(r) for r in records]
        post = decisions[1:]
        errors += checks.check_measured_law(decisions, lambda d: self.evaluate(d.gop, d.qp, d.filters_on))
        errors += checks.check_window_optimal(
            post, [d.qp for d in decisions[:-1]], self.evaluate, list(self.LAW),
            self.QP_BOUNDS, self.bounds_for)
        failed = [d for d in post if d.measured is None or checks.misses(d.measured, self.bounds_for(d.segment))]
        return Outcome(
            len(post), len(failed), errors, log.intervals(self.GRID_SIZE),
            {"samples_held": samples_held(traced.get("controller.run_segment_loop")),
             "bound_hits": len(post) - len(failed)},
        )


def region_layout(rng: np.random.Generator, windows: int, window: int,
                  per_label: int = 4, shortest: int = 4) -> list[tuple[int, int, str]]:
    """``per_label`` regions of each label, each label covering a third of the clip.

    The seed orders the regions, so that neighbours never share a label,
    and splits each label's windows among its regions, none shorter than
    ``shortest`` windows.  Fixing the count and the share per label keeps
    the work of a job the same from seed to seed.
    """
    labels = ("stationary", "tracking", "zoom")
    lengths = {}
    for label in labels:
        cuts = np.sort(rng.choice(np.arange(1, windows // 3 - per_label * shortest + per_label),
                                  per_label - 1, replace=False))
        parts = np.diff(np.concatenate([[0], cuts, [windows // 3 - per_label * shortest + per_label]]))
        lengths[label] = [int(p) - 1 + shortest for p in parts]
    while True:
        order = list(rng.permutation(np.repeat(labels, per_label)))
        if all(a != b for a, b in zip(order, order[1:])):
            break
    regions, start = [], 0
    for label in order:
        length = lengths[label].pop()
        regions.append((start * window, (start + length) * window, str(label)))
        start += length
    return regions


def motion_params(label: str, rng: np.random.Generator) -> tuple[float, ...]:
    """Steady near-horizontal pan for tracking, a zoom rate for zoom."""
    if label == "tracking":
        speed, angle = rng.uniform(4.2, 4.9), rng.uniform(0.06, 0.20)
        return (speed * math.cos(angle), speed * math.sin(angle))
    if label == "zoom":
        return (rng.uniform(0.6, 1.4),)
    return ()


def motion_field(label: str, params: tuple[float, ...], grid: int, noise: float,
                 rng: np.random.Generator) -> np.ndarray:
    coords = np.linspace(-8.0, 8.0, grid)
    xs, ys = (c.ravel() for c in np.meshgrid(coords, coords))
    if label == "tracking":
        field = np.tile(np.array(params), (xs.size, 1))
    elif label == "zoom":
        field = np.stack([params[0] * xs, params[0] * ys], axis=1)
    else:
        field = np.zeros((xs.size, 2))
    return field + rng.normal(0.0, noise, field.shape)


def mv_records(frame: int, field: np.ndarray) -> list[str]:
    """``frame block_x block_y dx dy`` lines, blocks in raster order."""
    side = int(math.isqrt(field.shape[0]))
    return [f"{frame} {i % side} {i // side} {dx:.4f} {dy:.4f}" for i, (dx, dy) in enumerate(field)]


WORKLOADS = {
    "synthetic-drift": SyntheticDrift,
    "process-1080p": Process1080p,
    "activity-schedule": ActivitySchedule,
}
