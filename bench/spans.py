"""Spans around calls into each segenc layer, kept in memory.

The tracer replaces a function where its caller looks it up: for example
``segenc.controller.fit_log_poly``, because ``controller`` imports that
function by name.  Each call records a span (name, start, end, parent,
info).  Nothing here changes what the program computes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute, span name, info from the call's arguments)
_FUNCTIONS: tuple[tuple[str, str, str, Callable[..., Any] | None], ...] = (
    ("segenc.controller", "run_segment_loop", "controller.run_segment_loop", None),
    ("segenc.controller", "bootstrap", "controller.bootstrap", None),
    ("segenc.controller", "choose_gop_model", "controller.choose_gop_model", None),
    ("segenc.controller", "_refresh_group", "controller.refresh_group", None),
    ("segenc.controller", "fit_log_poly", "models.fit_log_poly", lambda samples, *a, **k: len(samples)),
    ("segenc.controller", "solve_constrained", "solver.solve_constrained", None),
    ("segenc.solver", "newton_solve", "solver.newton_solve", None),
    ("segenc.solver", "local_search", "solver.local_search", None),
    ("segenc.controller", "pareto_front", "pareto.pareto_front", None),
    ("segenc.controller", "select_mode_optimal", "pareto.select_mode_optimal", None),
    ("segenc.media", "psnr_global", "media.psnr_global", lambda ref, dist: ref.frame_count),
    ("segenc.media", "ssim_mean", "media.ssim_mean", lambda ref, dist: ref.frame_count),
    ("segenc.activity", "read_mv_field", "activity.read_mv_field", None),
    ("segenc.activity", "read_pu_series", "activity.read_pu_series", None),
    ("segenc.activity", "read_policy", "activity.read_policy", None),
    ("segenc.activity", "detect_activity_change", "activity.detect_activity_change", None),
    ("segenc.activity", "classify", "activity.classify", None),
    ("segenc.activity", "select_bins", "activity.select_bins", None),
)

# (module, class, method, kind, span name); kind is how the class stores it
_METHODS = (
    ("segenc.encoders", "ProcessEncoder", "encode", "function", "encoders.encode"),
    ("segenc.encoders", "ProcessEncoder", "_run", "staticmethod", "encoders.child"),
    ("segenc.encoders", "SyntheticEncoder", "encode", "function", "encoders.encode"),
    ("segenc.media", "RawVideo", "from_file", "classmethod", "media.from_file"),
    ("segenc.media", "RawVideo", "to_file", "function", "media.to_file"),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every function."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.results: dict[str, Any] = {}  # last return value per span name

    def span(self, name: str, fn: Callable, info: Callable | None = None, keep: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, 0.0, 0.0, parent, info(*args, **kwargs) if info else None])
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if keep:
                    tracer.results[name] = out
                return out
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, info in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            keep = name == "controller.run_segment_loop"
            setattr(module, attr, self.span(name, original, info, keep))
        for module_name, cls_name, attr, kind, name in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if kind == "staticmethod":
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__)))
            elif kind == "classmethod":
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 when the layer made no call."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values: list[float]) -> float:
    return percentile(values, 50.0)


ENTRY_SPANS = ("controller.run_segment_loop",)
PARSE_SPANS = ("activity.read_mv_field", "activity.read_pu_series", "activity.read_policy")


class JobSpans:
    """Durations, self times and ancestry of one traced job's spans."""

    def __init__(self, spans: list[list], job_s: float):
        self.spans = spans
        self.job_s = job_s
        self.dur = [s[2] - s[1] for s in spans]
        self.by_name: dict[str, list[int]] = {}
        self.child_named: dict[tuple[int, str], float] = {}
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
                key = (s[3], s[0])
                self.child_named[key] = self.child_named.get(key, 0.0) + self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _ancestors(self, i: int) -> set[str]:
        out = set()
        p = self.spans[i][3]
        while p >= 0:
            out.add(self.spans[p][0])
            p = self.spans[p][3]
        return out

    def where(self, name: str, inside: str | None = None, outside: str | None = None) -> list[int]:
        out = self.by_name.get(name, [])
        if inside:
            out = [i for i in out if inside in self._ancestors(i)]
        if outside:
            out = [i for i in out if outside not in self._ancestors(i)]
        return out

    def total(self, *names: str, **where) -> float:
        return sum(self.dur[i] for name in names for i in self.where(name, **where))

    def count(self, name: str, **where) -> int:
        return len(self.where(name, **where))

    def coverage(self) -> float:
        """Share of the job covered by layer spans, entry loops excluded."""
        covered = 0.0
        for i, s in enumerate(self.spans):
            if s[0] in ENTRY_SPANS:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] in ENTRY_SPANS:
                p = self.spans[p][3]
            if p < 0:
                covered += self.dur[i]
        return covered / self.job_s


def layer_metrics(jobs: list[JobSpans], extras: list[dict[str, float]], overhead_s: float) -> dict:
    """Every per-layer metric, from the traced jobs of one run.

    Per-job sums and counts report the median over jobs; per-call figures
    pool the calls of every traced job.
    """

    def per_job(fn) -> float:
        return _median([fn(r) for r in jobs])

    def pooled(name: str, values, **where) -> list[float]:
        return [values(r, i) for r in jobs for i in r.where(name, **where)]

    def per_frame(name: str) -> float:
        frames = sum(r.spans[i][4] for r in jobs for i in r.where(name))
        return 1e3 * sum(r.total(name) for r in jobs) / frames if frames else 0.0

    dur = lambda r, i: r.dur[i]  # noqa: E731
    self_t = lambda r, i: r.self_time[i]  # noqa: E731
    info = lambda r, i: r.spans[i][4]  # noqa: E731
    fit_samples = pooled("models.fit_log_poly", info)

    def child_per_encode(r: JobSpans, i: int) -> float:
        return r.child_named.get((i, "encoders.child"), 0.0)

    m = {
        "controller.bootstrap_ms": (1e3 * per_job(lambda r: r.total("controller.bootstrap")), "ms"),
        "controller.choose_ms_p50": (1e3 * _median(pooled("controller.choose_gop_model", self_t)), "ms"),
        "controller.samples_held": (_median([e["samples_held"] for e in extras]), "count"),
        "controller.bound_hits": (_median([e["bound_hits"] for e in extras]), "count"),
        "models.fit_calls": (per_job(lambda r: r.count("models.fit_log_poly")), "count"),
        "models.fit_us_p50": (1e6 * _median(pooled("models.fit_log_poly", dur)), "us"),
        "models.fit_samples_mean": (sum(fit_samples) / len(fit_samples) if fit_samples else 0.0, "count"),
        "solver.solve_calls": (per_job(lambda r: r.count("solver.solve_constrained")), "count"),
        "solver.solve_us_p50": (1e6 * _median(pooled("solver.solve_constrained", dur)), "us"),
        "solver.newton_calls": (per_job(lambda r: r.count("solver.newton_solve")), "count"),
        "solver.local_search_calls": (per_job(lambda r: r.count("solver.local_search")), "count"),
        "pareto.front_ms": (1e3 * per_job(lambda r: r.total("pareto.pareto_front")), "ms"),
        "encoders.encode_calls": (per_job(lambda r: r.count("encoders.encode")), "count"),
        "encoders.encode_ms_p50": (1e3 * _median(pooled("encoders.encode", dur)), "ms"),
        "encoders.self_ms_p50": (1e3 * _median(pooled("encoders.encode", self_t)), "ms"),
        "encoders.child_ms_p50": (1e3 * _median(pooled("encoders.encode", child_per_encode)), "ms"),
        "encoders.leftover_mb": (_median([e["leftover_mb"] for e in extras]), "MB"),
        "media.psnr_ms_per_frame": (per_frame("media.psnr_global"), "ms"),
        "media.ssim_ms_per_frame": (per_frame("media.ssim_mean"), "ms"),
        "media.decode_read_ms_p50": (
            1e3 * _median(pooled("media.from_file", dur, inside="encoders.encode")), "ms"),
        "media.source_write_ms_p50": (
            1e3 * _median(pooled("media.to_file", dur, inside="encoders.encode")), "ms"),
        "media.video_loads": (
            per_job(lambda r: r.count("media.from_file", outside="encoders.encode")), "count"),
        "media.video_load_ms": (
            1e3 * per_job(lambda r: r.total("media.from_file", outside="encoders.encode")), "ms"),
        "activity.parse_ms": (1e3 * per_job(lambda r: r.total(*PARSE_SPANS)), "ms"),
        "activity.classify_ms_p50": (1e3 * _median(pooled("activity.classify", dur)), "ms"),
        "activity.select_bins_calls": (per_job(lambda r: r.count("activity.select_bins")), "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (per_job(JobSpans.coverage), "share"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
