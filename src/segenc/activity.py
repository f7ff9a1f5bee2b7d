"""Camera-activity classification from motion-vector statistics.

Features are 25-bin magnitude and orientation histograms of a region's
motion vectors together with their cumulative distribution functions; kNN
distances run on the CDF values.  Three binary classifiers
(tracking/stationary, stationary/zoom, tracking/zoom) each vote on bins
selected by a Mann-Whitney U test, and the label with the most pairwise
wins is the region's activity.  Activity boundaries are detected from
relative changes in the per-frame prediction-unit count, and each label
maps to a constraint set through a policy.

MV and PU files are read into columns, MV files into a frame-number array
and an ``(n, 2)`` vector array, by one ``np.loadtxt`` call that parses only
the cells kept.  A plain regular file is named to numpy, which reads it in
blocks; numpy would take a file object one line at a time.  A cell count
keeps a line with extra cells an error, and any file numpy cannot give the
line reader's values for is read line by line.  ``classify`` cuts a region's
vectors out of the frame-sorted records.

The U test is two-sided and follows scipy's ``mannwhitneyu`` defaults, in
numpy and the standard library alone: the exact null distribution for a bin
without ties when one class has at most 8 samples, else the tie-corrected
normal approximation with continuity correction.
"""

from __future__ import annotations

import functools
import io
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import records
from .bd import average_ranks
from .solver import ConstraintSet

HIST_BINS = 25
MAG_MAX = 32.0  # pixels/frame covered by the magnitude histogram
PU_WINDOW = 25  # frames per prediction-unit averaging window
PU_THRESHOLD = 0.30
BIN_ALPHA = 0.05
EXACT_MAX_SAMPLES = 8  # the U test is exact, without ties, when a class has at most this many

LABELS = ("tracking", "stationary", "zoom")
PAIRS = (("tracking", "stationary"), ("stationary", "zoom"), ("tracking", "zoom"))


class ActivityError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MotionFeatures:
    mag_hist: np.ndarray
    ori_hist: np.ndarray
    mag_cdf: np.ndarray
    ori_cdf: np.ndarray
    pu_count: float

    def vector(self) -> np.ndarray:
        """Feature vector the classifiers operate on: both CDFs stacked."""
        return np.concatenate([self.mag_cdf, self.ori_cdf])


def extract_mv_features(
    mv_field: Sequence[tuple[float, float]] | np.ndarray,
    pu_count: float = 0.0,
) -> MotionFeatures:
    """Histograms and CDFs of MV magnitudes and orientations.

    Magnitude bins uniformly span [0, MAG_MAX] (larger magnitudes land in
    the top bin); orientation bins span [-pi, pi).  Histograms are
    normalized to sum to 1, or stay all-zero when the field is empty.
    """
    field = np.asarray(mv_field, dtype=np.float64).reshape(-1, 2)
    if field.shape[0] == 0:
        zero = np.zeros(HIST_BINS)
        return MotionFeatures(zero, zero.copy(), zero.copy(), zero.copy(), float(pu_count))
    mags = np.hypot(field[:, 0], field[:, 1])
    oris = np.arctan2(field[:, 1], field[:, 0])
    oris[oris >= math.pi] = -math.pi  # fold +pi onto -pi: same direction

    mag_hist, _ = np.histogram(np.clip(mags, 0.0, np.nextafter(MAG_MAX, 0.0)),
                               bins=HIST_BINS, range=(0.0, MAG_MAX))
    ori_hist, _ = np.histogram(oris, bins=HIST_BINS, range=(-math.pi, math.pi))
    mag_hist = mag_hist / field.shape[0]
    ori_hist = ori_hist / field.shape[0]
    return MotionFeatures(
        mag_hist=mag_hist,
        ori_hist=ori_hist,
        mag_cdf=np.cumsum(mag_hist),
        ori_cdf=np.cumsum(ori_hist),
        pu_count=float(pu_count),
    )


@dataclass(frozen=True, slots=True)
class BinSelection:
    indices: tuple[int, ...]
    fallback: bool = False  # no bin discriminated; all bins used instead


@functools.cache
def _u_null_cdf(n1: int, n2: int) -> np.ndarray:
    """P(U <= u), u = 0..n1*n2, for two samples of distinct values from one distribution.

    The number of orderings giving each U is a coefficient of the Gaussian
    binomial [n1 + n2 choose n1] in q, the product over i = 1..n1 of
    (1 - q^(n2 + i)) / (1 - q^i).  The counts are exact while C(n1 + n2, n1)
    is below 2**53; as in scipy, each is divided by that total and the
    quotients are summed in order.
    """
    size = n1 * n2 + 1
    counts = np.zeros(size)
    counts[0] = 1.0
    for i in range(1, n1 + 1):
        step = n2 + i
        counts[step:] -= counts[: size - step].copy()  # times 1 - q^(n2 + i)
        # divided by 1 - q^i: a running sum along every i-th coefficient
        padded = np.zeros(-(-size // i) * i)
        padded[:size] = counts
        counts = padded.reshape(-1, i).cumsum(axis=0).ravel()[:size]
    cdf = np.cumsum(counts / math.comb(n1 + n2, n1))
    cdf.flags.writeable = False  # one cached array serves every caller
    return cdf


def _bin_p_values(a_vecs: np.ndarray, b_vecs: np.ndarray) -> np.ndarray:
    """Two-sided Mann-Whitney U p-value of each bin (column); NaN where all values are equal.

    Each varying bin is tested alone, with scipy's ``mannwhitneyu``
    defaults: average ranks, U = max(U1, n1*n2 - U1) and the p-value twice
    the upper tail at U, clipped to [0, 1].  A bin without ties takes the
    exact null distribution when a class has at most ``EXACT_MAX_SAMPLES``
    samples; any other bin takes the normal approximation with tie and
    continuity corrections.
    """
    n1, n2 = len(a_vecs), len(b_vecs)
    n = n1 + n2
    both = np.concatenate([a_vecs, b_vecs])
    varying = np.flatnonzero(np.ptp(both, axis=0) != 0.0)
    ranks, runs = average_ranks(both[:, varying])
    u1 = ranks[:n1].sum(axis=0) - n1 * (n1 + 1) / 2
    u = np.maximum(u1, n1 * n2 - u1)
    exact = ~(runs > 1).any(axis=0) & (min(n1, n2) <= EXACT_MAX_SAMPLES)
    tail = np.empty(varying.size)
    if exact.any():
        # the tail at U is the lower tail at n1*n2 - U, as the law is symmetric
        tail[exact] = _u_null_cdf(min(n1, n2), max(n1, n2))[(n1 * n2 - u[exact]).astype(int)]
    tie_term = (runs[:, ~exact] ** 3 - runs[:, ~exact]).sum(axis=0)
    sd = np.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
    z = (u[~exact] - n1 * n2 / 2 - 0.5) / sd
    tail[~exact] = [0.5 * math.erfc(v * math.sqrt(0.5)) for v in z.tolist()]  # P(Z > z)
    p = np.full(both.shape[1], np.nan)
    p[varying] = np.clip(2 * tail, 0.0, 1.0)
    return p


def select_bins(
    training: Sequence[tuple[str, MotionFeatures]],
    pair: tuple[str, str],
) -> BinSelection:
    """Feature-vector bins whose two-class distributions differ (U test at ``BIN_ALPHA``).

    Bins with identical values across both classes cannot discriminate and
    are skipped.  When no bin reaches significance the selection falls back
    to all bins, flagged.
    """
    a_vecs = np.array([f.vector() for lbl, f in training if lbl == pair[0]])
    b_vecs = np.array([f.vector() for lbl, f in training if lbl == pair[1]])
    if len(a_vecs) < 2 or len(b_vecs) < 2:
        raise ActivityError(f"need at least 2 samples per label for pair {pair}")
    selected = np.flatnonzero(_bin_p_values(a_vecs, b_vecs) <= BIN_ALPHA).tolist()
    if not selected:
        return BinSelection(tuple(range(a_vecs.shape[1])), fallback=True)
    return BinSelection(tuple(selected))


def _knn_vote(
    features: MotionFeatures,
    training: Sequence[tuple[str, MotionFeatures]],
    pair: tuple[str, str],
    bins: BinSelection,
    k: int,
) -> str:
    idx = np.array(bins.indices)
    target = features.vector()[idx]
    members = [(lbl, f.vector()[idx]) for lbl, f in training if lbl in pair]
    dists = np.array([float(np.linalg.norm(vec - target)) for _, vec in members])
    order = np.argsort(dists, kind="stable")[: min(k, len(members))]
    votes = [members[i][0] for i in order]
    counts = {lbl: votes.count(lbl) for lbl in pair}
    if counts[pair[0]] == counts[pair[1]]:
        return members[order[0]][0]  # tie: nearest single neighbour decides
    return max(pair, key=lambda lbl: counts[lbl])


def classify(
    features: MotionFeatures,
    training: Sequence[tuple[str, MotionFeatures]],
    k: int = 3,
    *,
    bin_cache: Mapping[tuple[str, str], BinSelection] | None = None,
) -> str:
    """Three pairwise kNN classifiers; most pairwise wins takes the label.

    Ties break to "stationary", the safest quality default.  Pass
    ``bin_cache`` to reuse precomputed bin selections.
    """
    seen = {lbl for lbl, _ in training}
    if not set(LABELS) <= seen:
        raise ActivityError(f"training must cover all labels, missing {set(LABELS) - seen}")
    wins = {lbl: 0 for lbl in LABELS}
    for pair in PAIRS:
        bins = bin_cache[pair] if bin_cache else select_bins(training, pair)
        winner = _knn_vote(features, training, pair, bins, k)
        wins[winner] += 1
    best = max(wins.values())
    leaders = [lbl for lbl in LABELS if wins[lbl] == best]
    if len(leaders) > 1:
        return "stationary" if "stationary" in leaders else leaders[0]
    return leaders[0]


def detect_activity_change(
    pu_counts: Sequence[float],
    threshold_rel: float = PU_THRESHOLD,
    *,
    window: int = PU_WINDOW,
) -> list[int]:
    """Frame indices where the windowed mean PU count jumps.

    The series is cut into consecutive windows; a boundary is reported at
    the start of each window whose mean differs from the previous window's
    by more than ``threshold_rel`` (relative).
    """
    series = np.asarray(pu_counts, dtype=np.float64)
    if series.size < 2:
        raise ActivityError("PU series must have at least 2 frames")
    starts = list(range(0, series.size, window))
    means = [float(series[s : s + window].mean()) for s in starts]
    boundaries = []
    for i in range(1, len(means)):
        prev, cur = means[i - 1], means[i]
        if prev == 0.0:
            changed = cur > 0.0
        else:
            changed = abs(cur - prev) / prev > threshold_rel
        if changed:
            boundaries.append(starts[i])
    return boundaries


ActivityPolicy = Mapping[str, ConstraintSet]


def apply_policy(label: str, policy: ActivityPolicy) -> ConstraintSet:
    try:
        return policy[label]
    except KeyError:
        raise ActivityError(f"no constraints mapped for activity {label!r}") from None


# ---------------------------------------------------------------------------
# file interfaces: MV field files, PU series files, policy files


_MV_COLUMNS = np.dtype([("frame", np.int64), ("dx", np.float64), ("dy", np.float64)])
_PU_COLUMNS = np.dtype([("frame", np.int64), ("count", np.float64)])
# numpy splits lines and cells as the line reader does only in printable
# ASCII, tabs and line ends; it reads a named file in text mode, which ends
# a line at a carriage return as splitlines does
_PLAIN_TEXT = bytes(range(0x20, 0x7F)) + b"\t\n\r"
# commas split cells, and in bytes a carriage return is made a line end
# (CRLF adds a blank line, which both readers skip)
_BLANKS = bytes.maketrans(b",\r", b" \n")
# numpy opens a named file with one of these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_INT64 = range(-(2**63), 2**63)


def _frame(cell: str) -> int:
    number = int(cell)
    if number not in _INT64:
        raise ValueError(f"frame {cell} is out of range")
    return number


def _mv_record(frame: str, _block_x: str, _block_y: str, dx: str, dy: str):
    return _frame(frame), float(dx), float(dy)


def _pu_record(frame: str, count: str):
    return _frame(frame), float(count)


def _version(path: str | Path) -> tuple[int, int, int, int] | None:
    """What tells one content of a regular file from another; None for any other file."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):  # a pipe, say, cannot be read a second time
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _cell_count(text: bytes) -> int:
    """Whitespace-delimited cells of plain text: the runs of bytes above 0x20."""
    filled = np.frombuffer(text, dtype=np.uint8) > 0x20
    return int(np.count_nonzero(filled[1:] & ~filled[:-1]) + np.count_nonzero(filled[:1]))


def _one_parse(path: str | Path, width: int, usecols: tuple[int, ...],
               columns: np.dtype) -> np.ndarray | None:
    """The file's records parsed by one ``np.loadtxt`` call; None leaves them to the line reader.

    numpy reads a file object line by line, one Python string a line, but
    a file named by a ``str`` in large blocks.  So a regular file of plain
    text without commas is parsed by name, and any other plain file from
    its bytes, commas made blanks.  ``usecols`` leaves the cells it skips
    unparsed and accepts a line with extra cells, so the text's cell count
    must be ``width`` cells a record.  numpy opens a named file a second
    time: when its device, inode, size or modification time differ after
    the parse, what was checked may not be what was parsed.
    """
    version = _version(path)
    data = records.read_bytes(path, ActivityError)
    if data.translate(None, _PLAIN_TEXT):
        return None
    named = version is not None and b"," not in data and not str(path).endswith(_COMPRESSED)
    if not named:
        data = data.translate(_BLANKS)
    cells = _cell_count(data)
    if not cells:  # a blank file gets the line reader's error
        return None
    source = os.path.abspath(path) if named else io.BytesIO(data)  # absolute: never a URL
    try:
        parsed = np.loadtxt(source, dtype=columns, usecols=usecols, comments=None,
                            ndmin=1, encoding="ascii")
    except (ValueError, OSError):  # the line reader names the bad line or the lost file
        return None
    if cells != width * len(parsed) or (named and _version(path) != version):
        return None
    return parsed


def _read_records(path: str | Path, record: str, width: int, usecols: tuple[int, ...],
                  columns: np.dtype, convert: Callable[..., tuple]) -> np.ndarray:
    """The file's ``width``-cell records as ``columns`` (cells ``usecols``), in file order.

    Parsed by :func:`_one_parse` where it can; otherwise (``#`` comment
    lines, non-ASCII text, a bad record) by ``records.read_rows``, which
    names file:line for a bad record and gives the same values for what
    both accept.
    """
    parsed = _one_parse(path, width, usecols, columns)
    if parsed is None:
        rows = list(records.read_rows(path, ActivityError, record, width, convert))
        parsed = np.array(rows, dtype=columns)
    return parsed


def read_mv_field(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Line-delimited ``frame block_x block_y dx dy`` records as columns.

    Returns the frame numbers (int64) and the ``(n, 2)`` float64 motion
    vectors, both in file order.  Cells split on commas or whitespace.  A
    plain file is parsed in one ``np.loadtxt`` call that converts the frame
    and vector cells alone, and is named to numpy where it can be: numpy
    turns a file object into one Python string a line, which makes the
    parse about twice as long.  A guard on the cell count keeps a line
    with extra cells an error, and any file numpy cannot give the line
    reader's values for goes through the line reader (:func:`_read_records`).
    """
    parsed = _read_records(path, "an MV record", 5, (0, 3, 4), _MV_COLUMNS, _mv_record)
    if not parsed.size:
        raise ActivityError(f"{path}: empty MV field file")
    return parsed["frame"].copy(), np.column_stack([parsed["dx"], parsed["dy"]])


def read_pu_series(path: str | Path) -> list[float]:
    """Line-delimited ``frame pu_count`` records, ordered by frame.

    Frames count from the clip's first frame, 0, as MV frames and
    ``optimize``'s segments do, so the series' positions are frame numbers;
    a missing or repeated frame is an error naming it.  The file is read as
    MV files are (:func:`_read_records`), and the frames are checked on the
    parsed column.
    """
    parsed = _read_records(path, "a PU record", 2, (0, 1), _PU_COLUMNS, _pu_record)
    if not parsed.size:
        raise ActivityError(f"{path}: empty PU series file")
    frames = parsed["frame"]
    order = np.argsort(frames, kind="stable")
    ranked = frames[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]  # every row but a frame's first
    if repeats.size:
        raise ActivityError(f"{path}: PU frame {frames[repeats.min()]} is given twice")
    if ranked[0] != 0 or ranked[-1] != ranked.size - 1:  # n distinct frames: 0..n-1 only so
        missing = np.setdiff1d(np.arange(ranked.size), ranked)[0]
        raise ActivityError(f"{path}: PU frames must run from 0 without a gap; "
                            f"frame {missing} is missing")
    return parsed["count"][order].tolist()


def read_policy(path: str | Path) -> dict[str, ConstraintSet]:
    """JSON mapping of activity label to mode, bounds, and tolerances."""
    raw = records.load_json(path, ActivityError)
    try:
        return {label: ConstraintSet(**spec) for label, spec in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:  # SolverError is a ValueError
        raise ActivityError(f"bad policy file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic exemplars and the leave-one-out evaluation harness


def synthetic_field(
    kind: str,
    rng: np.random.Generator,
    *,
    grid: int = 16,
    noise_sigma: float = 0.0,
) -> np.ndarray:
    """Canonical MV field: static, uniform translation, or radial zoom.

    Tracking pans are steady near-horizontal moves (as tracking shots
    typically are): speed and direction each stay within one histogram bin,
    so every bin the nonparametric selection can pick is coherent across
    the class and leave-one-out never isolates an exemplar.
    """
    coords = np.linspace(-8.0, 8.0, grid)
    xs, ys = np.meshgrid(coords, coords)
    if kind == "stationary":
        dx = np.zeros_like(xs)
        dy = np.zeros_like(ys)
    elif kind == "tracking":
        speed = rng.uniform(4.2, 4.9)
        angle = rng.uniform(0.06, 0.20)
        dx = np.full_like(xs, speed * math.cos(angle))
        dy = np.full_like(ys, speed * math.sin(angle))
    elif kind == "zoom":
        scale = rng.uniform(0.6, 1.4)
        dx = scale * xs
        dy = scale * ys
    else:
        raise ActivityError(f"unknown field kind {kind!r}")
    field = np.stack([dx.ravel(), dy.ravel()], axis=1)
    if noise_sigma > 0.0:
        field = field + rng.normal(0.0, noise_sigma, field.shape)
    return field


def synthetic_training(
    rng: np.random.Generator,
    *,
    per_class: int = 5,
    noise_sigma: float = 0.0,
) -> list[tuple[str, MotionFeatures]]:
    pu_levels = {"stationary": 300.0, "tracking": 900.0, "zoom": 1200.0}
    training = []
    for label in LABELS:
        for _ in range(per_class):
            field = synthetic_field(label, rng, noise_sigma=noise_sigma)
            training.append((label, extract_mv_features(field, pu_levels[label])))
    return training


@dataclass(slots=True)
class LooResult:
    confusion: dict[tuple[str, str], int]  # (actual, predicted) -> count
    # (pair_a, pair_b, actual, winner) -> count of binary-classifier votes
    binary_votes: dict[tuple[str, str, str, str], int]
    accuracy: float


def leave_one_out(
    training: Sequence[tuple[str, MotionFeatures]],
    k: int = 3,
    *,
    reselect_bins: bool = True,
) -> LooResult:
    """Leave-one-out protocol over a labeled training set.

    ``reselect_bins=False`` selects bins once on the full set (faster for
    repeated noisy trials); otherwise selection is refit per held-out
    sample.
    """
    confusion = {(a, p): 0 for a in LABELS for p in LABELS}
    binary: dict[tuple[str, str, str, str], int] = {}
    cache = None
    if not reselect_bins:
        cache = {pair: select_bins(training, pair) for pair in PAIRS}
    correct = 0
    for i, (actual, features) in enumerate(training):
        rest = [s for j, s in enumerate(training) if j != i]
        fold_cache = cache or {pair: select_bins(rest, pair) for pair in PAIRS}
        predicted = classify(features, rest, k, bin_cache=fold_cache)
        confusion[(actual, predicted)] += 1
        if predicted == actual:
            correct += 1
        for pair in PAIRS:
            if actual not in pair:
                continue
            winner = _knn_vote(features, rest, pair, fold_cache[pair], k)
            key = (pair[0], pair[1], actual, winner)
            binary[key] = binary.get(key, 0) + 1
    return LooResult(
        confusion=confusion,
        binary_votes=binary,
        accuracy=correct / len(training),
    )


def format_confusion(result: LooResult) -> str:
    """3x3 confusion table: rows actual, columns predicted."""
    header = "Classification\t" + "\t".join(lbl.capitalize() for lbl in LABELS)
    lines = [header]
    for actual in LABELS:
        row = [actual.capitalize()]
        row += [str(result.confusion[(actual, predicted)]) for predicted in LABELS]
        lines.append("\t".join(row))
    return "\n".join(lines)


def format_binary_table(result: LooResult) -> str:
    """Per-binary-classifier vote counts.

    The row "X vs Y" covers actual-X samples seen by the X/Y binary
    classifier: its X column counts correct votes, its Y column the votes
    lost to Y, and the out-of-pair column shows "-".
    """
    header = "Classifier\t" + "\t".join(lbl.capitalize() for lbl in LABELS)
    lines = [header]
    for a, b in PAIRS:
        for actual, other in ((a, b), (b, a)):
            counts = {lbl: "-" for lbl in LABELS}
            counts[actual] = str(result.binary_votes.get((a, b, actual, actual), 0))
            counts[other] = str(result.binary_votes.get((a, b, actual, other), 0))
            row = [f"{actual.capitalize()} vs {other.capitalize()}"]
            row += [counts[lbl] for lbl in LABELS]
            lines.append("\t".join(row))
    return "\n".join(lines)
