"""Raw video handling and quality metrics.

Video is planar YUV 4:2:0, 8-bit, headerless; dimensions and frame rate are
supplied externally.  A video is split into fixed-duration segments (default
3 seconds) which are the unit everything downstream operates on.  A file is
mapped read-only, and each slice of its frames maps those frames on its own:
only the slice in use is resident, so memory follows one segment, not the
clip.

Quality metrics:

* per-plane PSNR with MSE pooled over all frames of a plane, plus the
  weighted global value ``(6*Y + U + V) / 8``;
* mean luma SSIM over non-overlapping 8x8 windows with the usual
  stabilising constants C1 = (0.01*255)^2, C2 = (0.03*255)^2;
* VMAF is never computed here -- it is ingested from an external scorer's
  log (JSON or key=value text) via :func:`parse_vmaf_log`.

PSNR and SSIM take the video one frame slice at a time, in bands of a few
rows, so their memory grows with one frame at most, not with the segment.
Both sum integers exactly: PSNR the squared error of each plane, SSIM the
five sums of each 8x8 window.  Only the per-window statistics are floating
point.  They take each frame's planes as plain ndarray views: numpy calls a
memmap's Python hooks on every slice of one and every ufunc result.
"""

from __future__ import annotations

import json
import math
import mmap
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 8
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2
# rows of a plane the metrics take at once: small enough to stay in cache,
# and a multiple of SSIM_WINDOW so that bands hold whole SSIM windows
_BLOCK_ROWS = 128


class MediaError(ValueError):
    """Malformed raw video, mismatched inputs, or unparseable score log."""


@dataclass(frozen=True, slots=True)
class RawVideo:
    """Planar 4:2:0 8-bit video held as one (frames, samples) uint8 array."""

    width: int
    height: int
    fps: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise MediaError("dimensions must be positive")
        if self.width % 2 or self.height % 2:
            raise MediaError("width and height must be even for 4:2:0")
        if not isinstance(self.fps, int) or self.fps <= 0:
            raise MediaError("fps must be a positive integer")
        if self.data.ndim != 2 or self.data.shape[1] != self.frame_size:
            raise MediaError(
                f"frame data must be (n, {self.frame_size}) for "
                f"{self.width}x{self.height} 4:2:0"
            )
        if self.data.dtype != np.uint8:
            raise MediaError("samples must be uint8")

    @property
    def frame_size(self) -> int:
        return self.width * self.height * 3 // 2

    @property
    def frame_count(self) -> int:
        return int(self.data.shape[0])

    def _plane(self, start: int, h: int, w: int) -> np.ndarray:
        return self.data[:, start : start + h * w].reshape(self.frame_count, h, w)

    def luma(self) -> np.ndarray:
        """All luma planes as a (frames, H, W) view."""
        return self._plane(0, self.height, self.width)

    def chroma_u(self) -> np.ndarray:
        return self._plane(self.width * self.height, self.height // 2, self.width // 2)

    def chroma_v(self) -> np.ndarray:
        quarter = (self.width // 2) * (self.height // 2)
        return self._plane(self.width * self.height + quarter, self.height // 2, self.width // 2)

    @classmethod
    def from_file(cls, path: str | Path, width: int, height: int, fps: int) -> "RawVideo":
        """Map a raw file read-only; no frame is read until it is used.

        A slice of the video maps its own frames (:meth:`frames_slice`), so
        a caller that reads through slices never has the whole file resident.
        Slices map the file by its path, so it must stay in place, unchanged,
        while the video is in use.
        """
        size = Path(path).stat().st_size
        frame_size = width * height * 3 // 2
        if size == 0:
            raise MediaError("no frames")
        if size % frame_size:
            raise MediaError(
                f"file size {size} is not a multiple of the "
                f"{width}x{height} 4:2:0 frame size {frame_size}"
            )
        data = np.memmap(path, dtype=np.uint8, mode="r", shape=(size // frame_size, frame_size))
        return cls(width, height, fps, data)

    def to_file(self, path: str | Path) -> None:
        self.data.tofile(str(path))

    def frames_slice(self, start: int, stop: int) -> "RawVideo":
        """Sub-video covering frames [start, stop).

        A video mapped from a file gives a slice with its own read-only map of
        just those frames, unmapped when the slice is dropped: whoever holds
        one slice at a time holds one slice's frames in memory, however long
        the file.  Any other video gives a view of its array.
        """
        if not (0 <= start < stop <= self.frame_count):
            raise MediaError("frame range out of bounds")
        if (start, stop) == (0, self.frame_count):
            return self  # already mapped: a second map would fault the frames in again
        data = self.data
        # only the array a map made knows where it starts in the file: a
        # numpy slice of it keeps the offset of the map it was cut from; and
        # only a read-only map is sure to hold what the file holds
        if (isinstance(data, np.memmap) and isinstance(data.base, mmap.mmap)
                and data.filename and data.mode == "r" and data.flags.c_contiguous):
            try:
                data = np.memmap(
                    data.filename, dtype=np.uint8, mode="r",
                    offset=data.offset + start * self.frame_size,
                    shape=(stop - start, self.frame_size),
                )
            except (OSError, ValueError) as exc:  # the file was removed or cut since
                raise MediaError(
                    f"cannot map frames {start}-{stop} of {data.filename}: {exc}"
                ) from exc
        else:
            data = data[start:stop]
        return RawVideo(self.width, self.height, self.fps, data)

    def frames(self) -> Iterator["RawVideo"]:
        """The video one frame at a time, each a one-frame :meth:`frames_slice`."""
        for i in range(self.frame_count):
            yield self.frames_slice(i, i + 1)


@dataclass(frozen=True, slots=True)
class Segment:
    """Half-open frame range [start, end) plus its wall-clock duration."""

    index: int
    start: int
    end: int
    duration_s: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise MediaError("segment range must be non-empty and non-negative")

    @property
    def frame_count(self) -> int:
        return self.end - self.start


def make_segments(frame_count: int, fps: int, segment_seconds: float = 3.0) -> list[Segment]:
    """Partition [0, frame_count) into consecutive fixed-length segments.

    Every full segment spans floor(fps * segment_seconds) frames; remainder
    frames form one final shorter segment.
    """
    if frame_count <= 0:
        raise MediaError("no frames")
    if fps <= 0 or segment_seconds <= 0:
        raise MediaError("fps and segment_seconds must be positive")
    per = int(fps * segment_seconds)
    if per <= 0:
        raise MediaError("segment shorter than one frame")
    segments = []
    start = 0
    while start < frame_count:
        end = min(start + per, frame_count)
        segments.append(Segment(len(segments), start, end, (end - start) / fps))
        start = end
    return segments


def split_segments(video: RawVideo, segment_seconds: float = 3.0) -> list[Segment]:
    """Split a video into fixed-duration segments (remainder tail allowed)."""
    return make_segments(video.frame_count, video.fps, segment_seconds)


def psnr611(psnr_y: float, psnr_u: float, psnr_v: float) -> float:
    """Weighted global PSNR: luma counts six times the two chroma planes."""
    return (6.0 * psnr_y + psnr_u + psnr_v) / 8.0


@dataclass(frozen=True, slots=True)
class QualityScores:
    psnr_y: float
    psnr_u: float
    psnr_v: float
    psnr611: float


def _check_match(ref: RawVideo, dist: RawVideo) -> None:
    if (ref.width, ref.height) != (dist.width, dist.height):
        raise MediaError("dimension mismatch between reference and distorted video")
    if ref.frame_count != dist.frame_count:
        raise MediaError("frame count mismatch between reference and distorted video")


def _plane_sse(ref_plane: np.ndarray, dist_plane: np.ndarray) -> int:
    """Squared error summed over one plane, exactly."""
    sse = 0
    rows = _BLOCK_ROWS
    for r in range(0, ref_plane.shape[0], rows):
        x, y = ref_plane[r : r + rows], dist_plane[r : r + rows]
        # |x - y| fits uint8 and its square, at most 255^2, fits uint16;
        # the sum is exact in uint64
        diff = (np.maximum(x, y) - np.minimum(x, y)).astype(np.uint16)
        sse += int((diff * diff).sum(dtype=np.uint64))
    return sse


def _psnr(sse: int, samples: int) -> float:
    if sse == 0:
        return PSNR_CAP_DB
    mse = sse / samples
    return float(10.0 * math.log10(255.0 * 255.0 / mse))


def psnr_global(ref: RawVideo, dist: RawVideo) -> QualityScores:
    """Per-plane PSNR pooled as MSE over all frames, plus the 6-1-1 average.

    Identical planes report the cap value (100 dB) instead of infinity so
    downstream regression stays finite.
    """
    _check_match(ref, dist)
    sse = [0, 0, 0]
    for a, b in zip(ref.frames(), dist.frames()):
        for k, plane in enumerate((RawVideo.luma, RawVideo.chroma_u, RawVideo.chroma_v)):
            sse[k] += _plane_sse(np.asarray(plane(a)[0]), np.asarray(plane(b)[0]))
    luma = ref.width * ref.height * ref.frame_count
    y, u, v = _psnr(sse[0], luma), _psnr(sse[1], luma // 4), _psnr(sse[2], luma // 4)
    return QualityScores(psnr_y=y, psnr_u=u, psnr_v=v, psnr611=psnr611(y, u, v))


def _window_sums(plane: np.ndarray, dtype: type) -> np.ndarray:
    """Sum of every non-overlapping 8x8 window of a cropped plane, in ``dtype``."""
    h, w = plane.shape
    rows = np.add.reduce(plane.reshape(h // SSIM_WINDOW, SSIM_WINDOW, w), axis=1, dtype=dtype)
    cols = rows.reshape(h // SSIM_WINDOW, w // SSIM_WINDOW, SSIM_WINDOW)
    # eight strided adds are several times faster than a length-8 reduction
    out = cols[:, :, 0].copy()
    for k in range(1, SSIM_WINDOW):
        out += cols[:, :, k]
    return out


def _frame_ssim_windows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSIM of every non-overlapping 8x8 window of one luma frame pair."""
    h8 = x.shape[0] - x.shape[0] % SSIM_WINDOW
    w8 = x.shape[1] - x.shape[1] % SSIM_WINDOW
    if h8 == 0 or w8 == 0:
        raise MediaError(f"frame smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    x = x[:h8, :w8]
    y = y[:h8, :w8]
    rows = _BLOCK_ROWS
    return np.concatenate(
        [_band_ssim_windows(x[r : r + rows], y[r : r + rows]) for r in range(0, h8, rows)]
    )


def _band_ssim_windows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SSIM windows of a band whose sides are multiples of 8 samples."""
    n = float(SSIM_WINDOW * SSIM_WINDOW)
    # a window sums to at most 64 * 255 = 16,320, which uint16 holds
    mx = _window_sums(x, np.uint16) / n
    my = _window_sums(y, np.uint16) / n
    # a product of two samples is at most 255^2, which uint16 holds; a
    # window of them sums to at most 64 * 255^2 = 4,161,600, which uint32 holds
    xi = x.astype(np.uint16)
    yi = y.astype(np.uint16)
    # population moments over the 64 window samples
    vx = _window_sums(xi * xi, np.uint32) / n - mx * mx
    vy = _window_sums(yi * yi, np.uint32) / n - my * my
    cov = _window_sums(xi * yi, np.uint32) / n - mx * my
    num = (2.0 * mx * my + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mx * mx + my * my + _SSIM_C1) * (vx + vy + _SSIM_C2)
    return num / den


def ssim_mean(ref: RawVideo, dist: RawVideo) -> float:
    """Mean luma SSIM over all frames, non-overlapping 8x8 windows."""
    _check_match(ref, dist)
    total = 0.0
    count = 0
    for a, b in zip(ref.frames(), dist.frames()):
        win = _frame_ssim_windows(np.asarray(a.luma()[0]), np.asarray(b.luma()[0]))
        total += float(win.sum())
        count += win.size
    return total / count


@dataclass(frozen=True, slots=True)
class VmafLog:
    """Parsed external VMAF scorer output."""

    frame_scores: tuple[float, ...]
    mean: float


_KV_RE = re.compile(r"\b(pooled_vmaf|vmaf_mean|vmaf)\s*[=:]\s*([-+0-9.eE]+)")


def _clamp_vmaf(value: float) -> float:
    return min(100.0, max(0.0, float(value)))


def _json_scores(obj: dict) -> tuple[list[float], float | None]:
    frames = []
    for rec in obj.get("frames", []) or []:
        metrics = rec.get("metrics", rec)
        if "vmaf" in metrics:
            frames.append(_clamp_vmaf(metrics["vmaf"]))
    pooled_block = obj.get("pooled_metrics", {}).get("vmaf")
    if isinstance(pooled_block, dict) and "mean" in pooled_block:
        return frames, _clamp_vmaf(pooled_block["mean"])
    if "aggregate" in obj and "VMAF_score" in obj["aggregate"]:
        return frames, _clamp_vmaf(obj["aggregate"]["VMAF_score"])
    return frames, None


def _text_scores(text: str) -> tuple[list[float], float | None]:
    frames: list[float] = []
    pooled = None
    for line in text.splitlines():
        for key, value in _KV_RE.findall(line):
            if key == "vmaf":
                frames.append(_clamp_vmaf(float(value)))
            else:
                pooled = _clamp_vmaf(float(value))
    return frames, pooled


def parse_vmaf_log(log_text: str) -> VmafLog:
    """Extract per-frame VMAF scores and the pooled mean from a scorer log.

    Accepts the scorer's JSON output or a key=value text form with one
    per-frame record per line and an optional ``pooled_vmaf`` /
    ``vmaf_mean`` line.  When no pooled field is present, the mean is the
    arithmetic mean of the per-frame values.  Scores are clamped to
    [0, 100].  Anything else, such as a score that is no number, is a
    ``MediaError``.
    """
    stripped = log_text.strip()
    try:
        if stripped.startswith("{"):
            frames, pooled = _json_scores(json.loads(stripped))
        else:
            frames, pooled = _text_scores(stripped)
    except (AttributeError, TypeError, ValueError):  # ValueError covers bad JSON
        raise MediaError("not a VMAF log") from None
    if pooled is not None:
        return VmafLog(tuple(frames), pooled)
    if frames:
        return VmafLog(tuple(frames), float(np.mean(frames)))
    raise MediaError("not a VMAF log")
