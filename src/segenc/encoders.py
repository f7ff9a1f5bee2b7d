"""Codec configuration grids, external encoder drivers, synthetic encoder.

A codec's configuration space is one :class:`CodecGrid` (GOP structure x
QP x filter flags, plus open/closed GOP for x265) and nothing else: its
``configs()`` are what a sweep encodes, its ``config()`` what the segment
loop encodes, and its ``preset`` holds for all of them.  An
:class:`Encoder` is its ``workers``, ``grid()`` and ``encode()``.  Real
encoders are driven as black boxes through shell command templates with
``{input}``, ``{output}``, ``{qp}``, ``{gop}``, ``{gop_type}``, ``{preset}``,
``{keyint}``, ``{frames}``, ``{width}``, ``{height}``, ``{fps}``,
``{threads}`` and a 0/1 ``{deblock}``, ``{sao}`` or ``{restoration}`` per
filter flag; the VMAF template has ``{reference}``, ``{distorted}`` and
``{log}`` instead of input and output.  A :class:`ProcessEncoder` looks up
its codec's grid in :data:`CODEC_GRIDS` and splits each template into
arguments once, when it is built; an unknown codec, or a placeholder its
command is not given, is an ``EncoderError`` then, before any encode.
Bitrate comes from the output payload size and encoding rate from the
encoder's wall-clock time.  An encode maps only its own segment of the source
file and drops it when measured, so memory follows one segment, not the clip.
Every batch of independent encodes (a sweep, the bootstrap grid, the
constant-QP baseline) runs through :func:`encode_batch`, on as many threads
as the encoder's ``workers``, or in the caller's thread when that is one.
A sweep table row is a measurement and its Pareto flag:
:func:`read_sweep_table` gives ``(SegmentMeasurement, flag)`` pairs,
:func:`check_sweep_rows` checks them against the run that resumes the
table, and :func:`write_sweep_table` writes them back byte for byte.

The synthetic encoder evaluates a known ground-truth law

    objective(QP) = exp(a + b1*QP + b2*QP^2) + filter_offset

per GOP, giving every downstream stage (Pareto front, model fitting,
inverse solving, the controller loop) a deterministic oracle.
"""

from __future__ import annotations

import itertools
import math
import os
import shlex
import shutil
import string
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from . import media, records
from .coefficients import REFERENCE_MODEL_SETS, ModelSet
from .media import RawVideo, Segment

Filters = tuple[tuple[str, bool], ...]


class EncoderError(RuntimeError):
    """Encoder process failure; carries captured diagnostics."""

    def __init__(self, message: str, *, stdout: str = "", stderr: str = ""):
        super().__init__(message)
        self.stdout = stdout
        self.stderr = stderr


@dataclass(frozen=True, slots=True)
class EncodingConfig:
    """One point in a codec's configuration grid, as a sweep table row holds it."""

    codec: str
    gop: str
    qp: int
    filters: Filters
    gop_type: str | None = None

    @property
    def filters_on(self) -> bool:
        return all(v for _, v in self.filters) if self.filters else False

    def filters_label(self) -> str:
        if not self.filters:
            return "-"
        return ",".join(f"{k}={'on' if v else 'off'}" for k, v in self.filters)


@dataclass(slots=True)
class SegmentMeasurement:
    """Measured objectives for one configuration on one segment."""

    config: EncodingConfig
    segment_index: int
    bitrate: float  # kbps
    quality_psnr: float  # dB
    quality_vmaf: float | None
    enc_rate: float  # fps
    enc_time: float  # seconds
    quality_ssim: float | None = None

    def __post_init__(self) -> None:
        if not self.bitrate > 0:  # NaN fails this too
            raise EncoderError("bitrate must be positive")
        if not self.enc_rate > 0:
            raise EncoderError("encoding rate must be positive")

    def numbers(self) -> dict[str, float | None]:
        """The measured numbers under their sweep-table and decision-log names."""
        values = (self.bitrate, self.quality_psnr, self.quality_vmaf, self.enc_rate, self.enc_time)
        return dict(zip(_NUMBER_COLUMNS, values))

    def objective(self, name: str) -> float:
        value = {
            "bits": self.bitrate,
            "psnr": self.quality_psnr,
            "vmaf": self.quality_vmaf,
            "ssim": self.quality_ssim,
            "enc_rate": self.enc_rate,
            "enc_time": self.enc_time,
        }[name]
        if value is None:
            raise EncoderError(f"measurement has no {name!r} value")
        return float(value)


@dataclass(frozen=True, slots=True)
class CodecGrid:
    codec: str
    gops: tuple[str, ...]
    qps: tuple[int, ...]
    qp_bounds: tuple[int, int]
    filter_axes: tuple[str, ...]
    joint_filters: bool  # all filter axes toggle together
    gop_types: tuple[str, ...] | None
    default_gop: str
    preset: str | None
    newton_start: float

    def configs(self) -> list[EncodingConfig]:
        """The Cartesian grid in (GOP, QP, GOP type, filter flags) order."""
        if self.joint_filters and self.filter_axes:
            combos = [tuple((ax, on) for ax in self.filter_axes) for on in (False, True)]
        else:
            flags = itertools.product((False, True), repeat=len(self.filter_axes))
            combos = [tuple(zip(self.filter_axes, values)) for values in flags]
        axes = itertools.product(self.gops, self.qps, self.gop_types or (None,), combos)
        return [EncodingConfig(self.codec, gop, qp, filters, gop_type)
                for gop, qp, gop_type, filters in axes]

    def config(self, gop: str, qp: int, filters: Filters) -> EncodingConfig:
        """What the segment loop encodes: a closed GOP where the codec has GOP types."""
        return EncodingConfig(self.codec, gop, qp, filters, "closed" if self.gop_types else None)

    def gop_rank(self, gop: str) -> int:
        return self.gops.index(gop) if gop in self.gops else len(self.gops)


CODEC_GRIDS: dict[str, CodecGrid] = {
    "x265": CodecGrid(
        codec="x265",
        gops=("ZL", "B2", "B3", "B4", "B6"),
        qps=tuple(range(16, 44, 3)),
        qp_bounds=(16, 45),
        filter_axes=("deblock", "sao"),
        joint_filters=True,
        gop_types=("closed", "open"),
        default_gop="B3",
        preset="ultrafast",
        newton_start=27.0,
    ),
    "vp9": CodecGrid(
        codec="vp9",
        gops=("ALT0", "ALT1", "ALT2", "ALT4", "ALT6"),
        qps=tuple(range(16, 53, 4)),
        qp_bounds=(16, 52),
        filter_axes=("deblock",),
        joint_filters=True,
        gop_types=None,
        default_gop="ALT0",
        preset="rt",
        newton_start=27.0,
    ),
    "svt-av1": CodecGrid(
        codec="svt-av1",
        gops=("HL3ALT0", "HL3ALT2", "HL3ALT8", "HL4ALT0", "HL4ALT2", "HL4ALT8"),
        qps=tuple(range(16, 53, 4)),
        qp_bounds=(16, 52),
        filter_axes=("deblock", "restoration"),
        joint_filters=False,
        gop_types=None,
        default_gop="HL4ALT8",
        preset="m7",
        newton_start=30.0,
    ),
}


class Encoder(Protocol):
    """What the sweep and the controller need from an encoder backend."""

    @property
    def workers(self) -> int:
        """How many encodes :func:`encode_batch` runs at once."""
        ...

    def grid(self) -> CodecGrid: ...

    def encode(self, config: EncodingConfig, segment: Segment) -> SegmentMeasurement: ...


@dataclass(frozen=True)
class SyntheticLaw:
    """Ground-truth rate-quality-speed law for the synthetic codec.

    Per GOP, each objective follows exp(a + b1*QP + b2*QP^2); switching the
    filter flags on adds a fixed per-objective offset.  Bitrate must be
    strictly decreasing and PSNR non-increasing in QP over the grid range,
    which is what the inverse solver relies on.
    """

    coefficients: Mapping[str, ModelSet]  # gop -> objective -> (a, b1, b2)
    filter_offsets: Mapping[str, float] = field(default_factory=dict)
    qps: tuple[int, ...] = tuple(range(16, 44, 3))
    qp_bounds: tuple[int, int] = (16, 45)

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise EncoderError("law needs at least one GOP")
        lo, hi = self.qp_bounds
        for gop, objectives in self.coefficients.items():
            for required in ("psnr", "bits", "enc_rate"):
                if required not in objectives:
                    raise EncoderError(f"law for {gop!r} lacks {required!r}")
            _, b1, b2 = objectives["bits"]
            if b1 + 2 * b2 * lo >= 0 or b1 + 2 * b2 * hi >= 0:
                raise EncoderError(f"bits law for {gop!r} is not strictly decreasing in QP")
            _, p1, p2 = objectives["psnr"]
            if p1 + 2 * p2 * lo > 0 or p1 + 2 * p2 * hi > 0:
                raise EncoderError(f"psnr law for {gop!r} is increasing in QP")

    def gops(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

    def value(self, gop: str, objective: str, qp: float, filters_on: bool = False) -> float:
        try:
            a, b1, b2 = self.coefficients[gop][objective]
        except KeyError:
            raise EncoderError(f"law has no {objective!r} model for GOP {gop!r}") from None
        out = math.exp(a + b1 * qp + b2 * qp * qp)
        if filters_on:
            out += self.filter_offsets.get(objective, 0.0)
        return out

    def grid(self) -> CodecGrid:
        return CodecGrid(
            codec="synthetic",
            gops=self.gops(),
            qps=self.qps,
            qp_bounds=self.qp_bounds,
            filter_axes=("deblock",),
            joint_filters=True,
            gop_types=None,
            default_gop=self.gops()[0],
            preset=None,
            newton_start=27.0,
        )


def default_law() -> SyntheticLaw:
    """Single-GOP law from the x265 B6 reference coefficient set."""
    return SyntheticLaw({"B6": REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]})


def synth_encode(config: EncodingConfig, law: SyntheticLaw, segment: Segment) -> SegmentMeasurement:
    """Deterministic measurement straight from the law; no processes.

    Note the law is an unbounded fitted form, so synthetic VMAF may slightly
    exceed 100 at low QPs; it is reported unclamped to keep the oracle
    exactly invertible.
    """
    if config.gop not in law.coefficients:
        raise EncoderError(f"unknown GOP {config.gop!r} for synthetic law")
    on = config.filters_on
    enc_rate = law.value(config.gop, "enc_rate", config.qp, on)
    vmaf = None
    if "vmaf" in law.coefficients[config.gop]:
        vmaf = law.value(config.gop, "vmaf", config.qp, on)
    return SegmentMeasurement(
        config=config,
        segment_index=segment.index,
        bitrate=law.value(config.gop, "bits", config.qp, on),
        quality_psnr=law.value(config.gop, "psnr", config.qp, on),
        quality_vmaf=vmaf,
        enc_rate=enc_rate,
        enc_time=segment.frame_count / enc_rate,
    )


class SyntheticEncoder:
    """Encoder backend evaluating a SyntheticLaw; counts encode calls."""

    workers = 1  # an encode is pure Python: threads would only take turns

    def __init__(self, law: SyntheticLaw | None = None):
        self.law = law if law is not None else default_law()
        self.encode_calls = 0

    def grid(self) -> CodecGrid:
        return self.law.grid()

    def encode(self, config: EncodingConfig, segment: Segment) -> SegmentMeasurement:
        self.encode_calls += 1
        return synth_encode(config, self.law, segment)


@dataclass(frozen=True, slots=True)
class CodecCommands:
    """Shell templates driving one external codec."""

    encode: str
    decode: str | None = None
    vmaf: str | None = None


# the file placeholders of each template, beside those of the configuration
_TEMPLATE_PATHS = {
    "encode": ("input", "output"),
    "decode": ("input", "output"),
    "vmaf": ("reference", "distorted", "log"),
}


def _placeholders(text: str) -> Iterator[str]:
    """The name each ``{...}`` field of ``text`` looks up, nested fields included."""
    for _, field_name, spec, _ in string.Formatter().parse(text):
        if field_name is not None:
            yield field_name.partition(".")[0].partition("[")[0]
        if spec:
            yield from _placeholders(spec)


class ProcessEncoder:
    """Drives an external encoder binary through command templates.

    Encoding rate is frames over the encoder process's wall-clock seconds
    only; bitrate is 8 * payload bytes / segment duration.  Quality needs a
    decode template (external decoders produce raw YUV which is compared
    with the source).  Each encode reads its segment through
    :meth:`RawVideo.frames_slice`, which maps only that segment of a source
    file, and releases it on return: however long the clip, only the
    segments being encoded are resident.  Each encode works in its own
    temporary directory under the workdir, removed once the encode is
    measured; ``close`` (or leaving a ``with`` block) removes a workdir the
    encoder created itself.

    A batch runs ``workers = max(1, usable_cores() // threads)`` encodes at
    once, ``threads`` being the ``{threads}`` each encoder is given.  A
    worker either waits on its child or runs its own metrics, never both,
    so no encoder process is oversubscribed and the encoding rate each
    measures stays close to a serial one.  Resident memory
    grows by one encode's working set (its segment, the decoded copy and
    the metric buffers) per worker.
    """

    def __init__(
        self,
        codec: str,
        commands: CodecCommands,
        video: RawVideo,
        *,
        workdir: str | Path | None = None,
        threads: int = 1,
    ):
        if codec not in CODEC_GRIDS:
            raise EncoderError(f"unknown codec {codec!r}")
        self._grid = CODEC_GRIDS[codec]
        self.commands = commands
        self.video = video
        self.threads = threads
        self._argv = self._split_templates()
        self._own_workdir = not workdir
        self._workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="segenc-"))
        self._workdir.mkdir(parents=True, exist_ok=True)

    @property
    def workers(self) -> int:
        return max(1, usable_cores() // self.threads)

    def close(self) -> None:
        """Remove the workdir if this encoder created it; a given one stays."""
        if self._own_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> "ProcessEncoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def grid(self) -> CodecGrid:
        return self._grid

    def _split_templates(self) -> dict[str, list[str]]:
        """Each given template split into arguments once, its placeholders checked.

        A template that does not split, or that names a placeholder its
        command is not given, raises ``EncoderError`` before any encode.
        """
        # every configuration of a grid fills the same names
        sample = self._grid.configs()[0]
        config_names = self._substitutions(sample, Segment(0, 0, 1, 1.0)).keys()
        argv = {}
        for kind, paths in _TEMPLATE_PATHS.items():
            template = getattr(self.commands, kind)
            if not template:
                continue
            try:
                argv[kind] = shlex.split(template)
                names = {name for part in argv[kind] for name in _placeholders(part)}
            except ValueError as exc:  # an open quote or an unmatched brace
                raise EncoderError(f"{kind} template {template!r}: {exc}") from None
            unknown = sorted(names - config_names - set(paths))
            if unknown:
                raise EncoderError(f"{kind} template {template!r}: unknown placeholder "
                                   + ", ".join(map(repr, unknown)))
        return argv

    def _substitutions(self, config: EncodingConfig, segment: Segment, **paths: str) -> dict:
        subs = {
            "qp": config.qp,
            "gop": config.gop,
            "gop_type": config.gop_type or "",
            "preset": self._grid.preset or "",
            "keyint": segment.frame_count,
            "width": self.video.width,
            "height": self.video.height,
            "fps": self.video.fps,
            "threads": self.threads,
            "frames": segment.frame_count,
        }
        subs.update({name: int(on) for name, on in config.filters})
        subs.update(paths)
        return subs

    @staticmethod
    def _run(template: Sequence[str], subs: Mapping[str, object]) -> tuple[float, str, str]:
        """Run one split template, its placeholders filled from ``subs``."""
        import subprocess  # here, so that runs which spawn no process never load it

        argv = [part.format_map(subs) for part in template]
        started = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise EncoderError(
                f"command failed with exit {proc.returncode}: {' '.join(argv)}",
                stdout=proc.stdout,
                stderr=proc.stderr,
            )
        return elapsed, proc.stdout, proc.stderr

    def encode(self, config: EncodingConfig, segment: Segment) -> SegmentMeasurement:
        if segment.end > self.video.frame_count:
            raise EncoderError("segment out of range for the source video")
        if not self.commands.encode:
            raise EncoderError(f"no encode template registered for codec {self._grid.codec!r}")
        if not self.commands.decode:
            raise EncoderError(f"no decode template registered for codec {self._grid.codec!r}")

        clip = self.video.frames_slice(segment.start, segment.end)
        # a directory per encode: concurrent encodes never share a path, and
        # every file an encode leaves goes with it once it is measured
        with tempfile.TemporaryDirectory(dir=self._workdir) as tmp:
            src = Path(tmp) / "src.yuv"
            out = Path(tmp) / "out.bin"
            dec = Path(tmp) / "dec.yuv"
            clip.to_file(src)
            elapsed, _, _ = self._run(
                self._argv["encode"],
                self._substitutions(config, segment, input=str(src), output=str(out)),
            )
            if not out.exists() or out.stat().st_size == 0:
                raise EncoderError("encoder produced no output")
            bitrate = 8.0 * out.stat().st_size / segment.duration_s / 1000.0

            self._run(
                self._argv["decode"],
                self._substitutions(config, segment, input=str(out), output=str(dec)),
            )
            try:
                decoded = RawVideo.from_file(dec, clip.width, clip.height, clip.fps)
            except (OSError, media.MediaError) as exc:  # missing, empty or truncated
                raise EncoderError(f"cannot read the decoded video: {exc}") from exc
            scores = media.psnr_global(clip, decoded)
            ssim = media.ssim_mean(clip, decoded)

            vmaf = None
            if self.commands.vmaf:
                log_path = Path(tmp) / "vmaf.log"
                self._run(
                    self._argv["vmaf"],
                    self._substitutions(
                        config, segment,
                        reference=str(src), distorted=str(dec), log=str(log_path),
                    ),
                )
                try:  # a bad log fails this configuration, not the sweep
                    vmaf = media.parse_vmaf_log(records.read_text(log_path, media.MediaError)).mean
                except media.MediaError as exc:
                    raise EncoderError(f"bad VMAF log: {exc}") from exc

        return SegmentMeasurement(
            config=config,
            segment_index=segment.index,
            bitrate=bitrate,
            quality_psnr=scores.psnr611,
            quality_vmaf=vmaf,
            enc_rate=segment.frame_count / elapsed if elapsed > 0 else float("inf"),
            enc_time=elapsed,
            quality_ssim=ssim,
        )


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def encode_batch(
    encoder: Encoder, jobs: Iterable[tuple[EncodingConfig, Segment]]
) -> Iterator[SegmentMeasurement | EncoderError]:
    """Encode independent (config, segment) jobs, ``encoder.workers`` at a time.

    Yields each job's measurement, or the EncoderError its encode raised, in
    the order of ``jobs``, whatever order the encodes finish in.  A job starts
    only once the result ``encoder.workers`` places before it has been
    yielded, so no more than ``workers`` encodes are ever under way.  A
    caller that stops early closes the generator (``contextlib.closing``):
    no further job starts, and the close returns once those under way end.

    With one worker there is nothing to overlap: each job is encoded in the
    caller's thread when its result is asked for, and no pool is built.
    """
    jobs, workers = iter(jobs), encoder.workers
    if workers == 1:
        for job in jobs:
            try:
                result = encoder.encode(*job)
            except EncoderError as exc:
                result = exc
            yield result
        return
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(encoder.encode, *job) for job in itertools.islice(jobs, workers))
        while pending:
            try:
                result = pending.popleft().result()
            except EncoderError as exc:
                result = exc
            yield result
            pending.extend(pool.submit(encoder.encode, *job) for job in itertools.islice(jobs, 1))


SWEEP_HEADER = "#segenc-sweep v1"
SWEEP_COLUMNS = (
    "segment_id", "codec", "gop", "gop_type", "qp", "filters",
    "bitrate_kbps", "psnr_db", "vmaf", "fps", "enc_time_s", "pareto",
)
_NUMBER_COLUMNS = ("bitrate_kbps", "psnr_db", "vmaf", "fps", "enc_time_s")


SweepRow = tuple[SegmentMeasurement, bool | None]  # a measurement and its Pareto flag
_FLAG_CELLS = {True: "1", False: "0", None: "-"}  # a row's Pareto flag and its cell
_CELL_FLAGS = {cell: flag for flag, cell in _FLAG_CELLS.items()}


def _cells(m: SegmentMeasurement, flag: bool | None) -> list[str]:
    """The row's cells: numbers to 6 significant digits, ``-`` for none."""
    c = m.config
    numbers = ("-" if v is None else f"{v:.6g}" for v in m.numbers().values())
    return [str(m.segment_index), c.codec, c.gop, c.gop_type or "-", str(c.qp),
            c.filters_label(), *numbers, _FLAG_CELLS[flag]]


def _table_row(segment: str, codec: str, gop: str, gop_type: str, qp: str, filters: str,
               bitrate: str, psnr: str, vmaf: str, fps: str, enc_time: str, flag: str) -> SweepRow:
    pairs = [] if filters == "-" else [item.partition("=") for item in filters.split(",")]
    config = EncodingConfig(codec, gop, int(qp), tuple((name, on == "on") for name, _, on in pairs),
                            records.optional(str, gop_type))
    if config.filters_label() != filters:
        raise ValueError(f"filters {filters!r} are not name=on or name=off")
    if flag not in _CELL_FLAGS:
        raise ValueError(f"pareto {flag!r} is not 1, 0 or -")
    try:  # fps may be inf: a zero-time encode's rate
        m = SegmentMeasurement(config, int(segment), records.finite(bitrate), records.finite(psnr),
                               records.optional(records.finite, vmaf), float(fps),
                               records.finite(enc_time))
    except EncoderError as exc:
        raise ValueError(str(exc)) from None
    return m, _CELL_FLAGS[flag]


def read_sweep_table(path: str | Path) -> list[SweepRow]:
    """Each row's measurement (no SSIM: the table holds none) and flag.

    The flag is True, False or None for a Pareto cell ``1``, ``0`` or ``-``.
    The first line must be ``#segenc-sweep``.  A row that is no valid
    measurement raises EncoderError at file:line.
    """
    return list(records.read_rows(path, EncoderError, "a sweep row", len(SWEEP_COLUMNS),
                                  _table_row, marker=("#segenc-sweep", "a sweep table")))


def check_sweep_rows(path: str | Path, rows: Iterable[SweepRow], segment_frames: Sequence[int],
                     grid: CodecGrid) -> set[tuple]:
    """The rows' :func:`config_row_key` keys, each checked against the run that reads the table.

    ``segment_frames`` holds the frame count of each of the run's segments,
    in segment order, and ``grid`` is what the run encodes in each segment.
    A row outside those segments, off ``grid.configs()``, repeated, or
    whose fps x encode time (unless fps is ``inf``) is not its segment's
    frame count raises EncoderError naming the row.
    """
    configs = set(grid.configs())
    done: set[tuple] = set()
    for m, _ in rows:
        c = m.config
        key = config_row_key(m.segment_index, c)
        if not 0 <= m.segment_index < len(segment_frames):
            problem = f"is not among the run's segments 0..{len(segment_frames) - 1}"
        elif c not in configs:
            problem = f"is not in the {grid.codec} grid"
        elif key in done:
            problem = "is in the table more than once"
        elif (m.enc_rate != math.inf
              and round(m.enc_rate * m.enc_time) != segment_frames[m.segment_index]):
            problem = (f"encodes {m.enc_rate * m.enc_time:.0f} frames, "
                       f"its segment {segment_frames[m.segment_index]}")
        else:
            done.add(key)
            continue
        row = " ".join((c.codec, c.gop, c.gop_type or "-", f"QP {c.qp}", c.filters_label()))
        raise EncoderError(f"{path}: the segment {m.segment_index} row {row} {problem}")
    return done


def write_sweep_table(path: str | Path, rows: Iterable[SweepRow]) -> None:
    """Replace the table with these rows (``records.write_table``)."""
    records.write_table(path, SWEEP_HEADER, SWEEP_COLUMNS, (_cells(*row) for row in rows))


def table_measurement(m: SegmentMeasurement) -> SegmentMeasurement:
    """``m`` as :func:`read_sweep_table` gives back its row."""
    return _table_row(*_cells(m, None))[0]


def config_row_key(segment_index: int, config: EncodingConfig) -> tuple:
    """A sweep row's key: its segment and its configuration."""
    return (segment_index, config)
