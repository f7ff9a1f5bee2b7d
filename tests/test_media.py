import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segenc import media
from segenc.media import (
    MediaError,
    RawVideo,
    make_segments,
    parse_vmaf_log,
    psnr611,
    psnr_global,
    split_segments,
    ssim_mean,
)

import refmetrics
from refdata import PSNR_ROWS


def video_from_array(frames: np.ndarray, width=8, height=8, fps=50) -> RawVideo:
    return RawVideo(width, height, fps, frames.astype(np.uint8))


def random_video(rng, n_frames=3, width=8, height=8, fps=50) -> RawVideo:
    size = width * height * 3 // 2
    data = rng.integers(0, 256, size=(n_frames, size), dtype=np.uint8)
    return RawVideo(width, height, fps, data)


class TestSegmentation:
    def test_500_frames_at_50fps(self):
        segs = make_segments(500, 50, 3.0)
        assert [(s.start, s.end) for s in segs] == [(0, 150), (150, 300), (300, 450), (450, 500)]
        assert [s.frame_count for s in segs] == [150, 150, 150, 50]
        assert segs[-1].duration_s == pytest.approx(1.0)

    def test_exact_single_segment(self):
        segs = make_segments(90, 30, 3.0)
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end) == (0, 90)

    def test_remainder_only_tail(self):
        segs = make_segments(10, 50, 3.0)
        assert len(segs) == 1
        assert segs[0].frame_count == 10

    def test_empty_video_rejected(self):
        with pytest.raises(MediaError, match="no frames"):
            make_segments(0, 50, 3.0)

    @pytest.mark.parametrize("fps, seconds, frames", [
        (25, 1.16, 29),  # 25 * 1.16 is 28.999999999999996 in floats
        (50, 0.58, 29),
        (10, 2.89, 28),  # a real fraction still floors
        (25, 1.1, 27),
    ])
    def test_segment_length_allows_for_float_error(self, fps, seconds, frames):
        segs = make_segments(3 * frames + 1, fps, seconds)
        assert [s.frame_count for s in segs] == [frames] * 3 + [1]

    def test_split_matches_make(self, rng):
        video = random_video(rng, n_frames=7, fps=2)
        segs = split_segments(video, 1.0)
        assert [s.frame_count for s in segs] == [2, 2, 2, 1]

    @given(st.integers(1, 2000), st.integers(1, 120))
    def test_ranges_partition_all_frames(self, n_frames, fps):
        segs = make_segments(n_frames, fps, 3.0)
        assert segs[0].start == 0
        assert segs[-1].end == n_frames
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        full = int(fps * 3.0)
        for s in segs[:-1]:
            assert s.frame_count == full


class TestPsnr:
    @pytest.mark.parametrize("qp,y,u,v,expected", PSNR_ROWS)
    def test_weighted_global_psnr_rows(self, qp, y, u, v, expected):
        assert psnr611(y, u, v) == pytest.approx(expected, abs=1e-4)

    def test_identical_planes_capped(self, rng):
        video = random_video(rng)
        scores = psnr_global(video, video)
        assert scores.psnr_y == scores.psnr_u == scores.psnr_v == 100.0
        assert scores.psnr611 == 100.0

    def test_single_pixel_psnr_zero(self):
        # 255 vs 0 gives MSE 255^2, i.e. 10*log10(1) = 0 dB on the luma plane
        w = h = 2
        ref = np.zeros((1, w * h * 3 // 2), dtype=np.uint8)
        ref[0, : w * h] = 255
        dist = np.zeros_like(ref)
        scores = psnr_global(video_from_array(ref, w, h), video_from_array(dist, w, h))
        assert scores.psnr_y == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_ref_and_dist(self, rng):
        a = random_video(rng)
        b = random_video(rng)
        sa = psnr_global(a, b)
        sb = psnr_global(b, a)
        assert sa == sb

    def test_mse_pooled_over_frames_before_db(self):
        # one clean frame + one noisy frame: PSNR must come from the pooled
        # MSE, not the average of per-frame PSNRs (which differs since the
        # clean frame would be capped)
        w = h = 8
        size = w * h * 3 // 2
        ref = np.zeros((2, size), dtype=np.uint8)
        dist = ref.copy()
        dist[1, : w * h] += 10
        scores = psnr_global(video_from_array(ref, w, h), video_from_array(dist, w, h))
        pooled_mse = (10.0**2) / 2.0
        assert scores.psnr_y == pytest.approx(10 * math.log10(255**2 / pooled_mse))

    def test_mismatch_rejected(self, rng):
        with pytest.raises(MediaError):
            psnr_global(random_video(rng, n_frames=2), random_video(rng, n_frames=3))

    @given(
        st.tuples(
            st.floats(10.0, 60.0), st.floats(10.0, 60.0), st.floats(10.0, 60.0)
        )
    )
    def test_psnr611_is_the_stated_weighting(self, planes):
        y, u, v = planes
        assert psnr611(y, u, v) == pytest.approx((6 * y + u + v) / 8, rel=1e-12)


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        video = random_video(rng)
        assert ssim_mean(video, video) == pytest.approx(1.0)

    def test_constant_equal_planes_are_one(self):
        w = h = 8
        data = np.full((1, w * h * 3 // 2), 57, dtype=np.uint8)
        v = video_from_array(data, w, h)
        assert ssim_mean(v, v) == pytest.approx(1.0)

    def test_inverted_block_scores_low(self):
        # oracle: evaluate the SSIM formula directly on the fixed 8x8 block
        w = h = 8
        block = np.arange(64, dtype=np.float64).reshape(8, 8) * 3.0
        inv = 255.0 - block
        c1 = (0.01 * 255) ** 2
        c2 = (0.03 * 255) ** 2
        mx, my = block.mean(), inv.mean()
        vx = block.var()
        vy = inv.var()
        cov = ((block - mx) * (inv - my)).mean()
        expected = ((2 * mx * my + c1) * (2 * cov + c2)) / (
            (mx**2 + my**2 + c1) * (vx + vy + c2)
        )

        size = w * h * 3 // 2
        ref = np.zeros((1, size), dtype=np.uint8)
        dist = np.zeros((1, size), dtype=np.uint8)
        ref[0, : w * h] = block.ravel().astype(np.uint8)
        dist[0, : w * h] = inv.ravel().astype(np.uint8)
        got = ssim_mean(video_from_array(ref, w, h), video_from_array(dist, w, h))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got < 0.5

    def test_output_range(self, rng):
        for _ in range(5):
            a = random_video(rng)
            b = random_video(rng)
            assert -1.0 <= ssim_mean(a, b) <= 1.0

    def test_mismatch_rejected(self, rng):
        with pytest.raises(MediaError):
            ssim_mean(random_video(rng, width=8), random_video(rng, width=16))


class TestVmafLog:
    def test_frame_mean_without_pooled_field(self):
        log = "frame=0 vmaf=90\nframe=1 vmaf=94\nframe=2 vmaf=92\n"
        parsed = parse_vmaf_log(log)
        assert parsed.mean == pytest.approx(92.0)
        assert parsed.frame_scores == (90.0, 94.0, 92.0)

    def test_pooled_field_wins(self):
        log = "frame=0 vmaf=10\nframe=1 vmaf=20\npooled_vmaf=96.26\n"
        assert parse_vmaf_log(log).mean == pytest.approx(96.26)

    def test_empty_log_rejected(self):
        with pytest.raises(MediaError, match="not a VMAF log"):
            parse_vmaf_log("")
        with pytest.raises(MediaError, match="not a VMAF log"):
            parse_vmaf_log("encoder: something\nframes: 150\n")

    def test_json_form(self):
        log = """
        {"frames": [{"frameNum": 0, "metrics": {"vmaf": 91.0}},
                    {"frameNum": 1, "metrics": {"vmaf": 93.0}}],
         "pooled_metrics": {"vmaf": {"mean": 92.5}}}
        """
        parsed = parse_vmaf_log(log)
        assert parsed.mean == pytest.approx(92.5)
        assert parsed.frame_scores == (91.0, 93.0)

    def test_scores_clamped(self):
        parsed = parse_vmaf_log("vmaf=104.2\nvmaf=-3.0\n")
        assert parsed.frame_scores == (100.0, 0.0)

    @pytest.mark.parametrize("log", [
        '{"frames": 3}',
        '{"frames": [{"metrics": {"vmaf": "high"}}]}',
        '{"pooled_metrics": {"vmaf": {"mean": "x"}}}',
        '{"pooled_metrics": 3}',
        "frame=0 vmaf=1e\n",
    ], ids=["frames-not-list", "frame-not-number", "pooled-not-number", "pooled-not-object",
            "text-not-number"])
    def test_malformed_log_rejected(self, log):
        with pytest.raises(MediaError, match="not a VMAF log"):
            parse_vmaf_log(log)


class TestRawVideoValidation:
    def test_odd_dimensions_rejected(self):
        with pytest.raises(MediaError):
            RawVideo(7, 8, 50, np.zeros((1, 7 * 8 * 3 // 2), dtype=np.uint8))

    def test_fractional_fps_rejected(self):
        with pytest.raises(MediaError):
            RawVideo(8, 8, 29.97, np.zeros((1, 96), dtype=np.uint8))

    def test_roundtrip_file(self, rng, tmp_path):
        video = random_video(rng)
        path = tmp_path / "clip.yuv"
        video.to_file(path)
        back = RawVideo.from_file(path, 8, 8, 50)
        assert np.array_equal(back.data, video.data)


def clip_pair(width: int, height: int, frames: int, kind: str, seed: int):
    """Reference and distorted clips of one of the kernels' edge cases."""
    rng = np.random.default_rng(seed)
    size = width * height * 3 // 2
    ref = rng.integers(0, 256, size=(frames, size), dtype=np.uint8)
    if kind == "noisy":
        # a different noise level per frame, so pooling over frames matters
        noise = rng.integers(-12, 13, size=ref.shape) * np.arange(frames)[:, None]
        dist = np.clip(ref.astype(np.int64) + noise, 0, 255).astype(np.uint8)
    elif kind == "black-white":
        ref = np.zeros_like(ref)
        dist = np.full_like(ref, 255)
    elif kind == "white":
        ref = np.full_like(ref, 255)
        dist = ref.copy()
        dist[:, ::3] = rng.integers(0, 256, size=dist[:, ::3].shape, dtype=np.uint8)
    elif kind == "identical":
        dist = ref.copy()
    else:
        dist = rng.integers(0, 256, size=ref.shape, dtype=np.uint8)
    return ref, dist


class TestKernelsAgainstFloatReference:
    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(4, 20).map(lambda k: 2 * k),
        height=st.integers(4, 20).map(lambda k: 2 * k),
        frames=st.integers(1, 4),
        kind=st.sampled_from(["random", "noisy", "black-white", "white", "identical"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=10, height=14, frames=3, kind="noisy", seed=1)  # crops 2 and 6
    @example(width=16, height=8, frames=2, kind="black-white", seed=0)
    @example(width=24, height=16, frames=1, kind="white", seed=0)
    @example(width=8, height=8, frames=2, kind="identical", seed=0)
    def test_psnr611_and_ssim(self, width, height, frames, kind, seed):
        ref, dist = clip_pair(width, height, frames, kind, seed)
        a = RawVideo(width, height, 25, ref)
        b = RawVideo(width, height, 25, dist)
        psnr = psnr_global(a, b).psnr611
        assert psnr == pytest.approx(refmetrics.psnr611(ref, dist, width, height), abs=1e-9)
        assert ssim_mean(a, b) == pytest.approx(refmetrics.ssim(ref, dist, width, height), abs=1e-9)
        if kind == "identical":
            assert psnr == 100.0

    def test_metrics_memory_is_a_few_frames(self):
        width, height, frames = 1920, 1080, 30
        ref, dist = clip_pair(width, height, frames, "random", 7)
        a = RawVideo(width, height, 25, ref)
        b = RawVideo(width, height, 25, dist)
        frame_bytes = a.frame_size
        for metric in (psnr_global, ssim_mean):
            tracemalloc.start()
            try:
                metric(a, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * frame_bytes, (metric.__name__, peak / frame_bytes)


class TestFromFile:
    def test_maps_the_file_read_only(self, rng, tmp_path):
        video = random_video(rng, n_frames=4)
        path = tmp_path / "clip.yuv"
        video.to_file(path)
        back = RawVideo.from_file(path, 8, 8, 50)
        assert isinstance(back.data, np.memmap)
        assert not back.data.flags.writeable
        assert back.frame_count == 4

    def test_slices_read_the_frames_a_copy_holds(self, rng, tmp_path):
        video = random_video(rng, n_frames=7)
        path = tmp_path / "clip.yuv"
        video.to_file(path)
        mapped = RawVideo.from_file(path, 8, 8, 50)
        copy = video.data
        cases = [
            (mapped.frames_slice(1, 4), copy[1:4]),
            (mapped.frames_slice(2, 6).frames_slice(1, 3), copy[3:5]),
            # a numpy slice of a map keeps the offset of the map it was cut from
            (RawVideo(8, 8, 50, mapped.data[2:6]).frames_slice(1, 3), copy[3:5]),
            (mapped.frames_slice(0, 7), copy),
            (mapped.frames_slice(6, 7), copy[6:]),
        ]
        for got, want in cases:
            np.testing.assert_array_equal(got.data, want)
            assert not got.data.flags.writeable

    def test_slice_of_a_cut_or_removed_file_is_a_media_error(self, rng, tmp_path):
        path = tmp_path / "clip.yuv"
        random_video(rng, n_frames=4).to_file(path)
        mapped = RawVideo.from_file(path, 8, 8, 50)
        path.write_bytes(bytes(96))  # one frame left
        with pytest.raises(MediaError, match="clip.yuv"):
            mapped.frames_slice(2, 4)
        path.unlink()
        with pytest.raises(MediaError, match="clip.yuv"):
            mapped.frames_slice(2, 4)

    def test_metrics_of_mapped_files_equal_those_of_copies(self, tmp_path):
        ref, dist = clip_pair(26, 18, 5, "noisy", 3)
        paths = tmp_path / "ref.yuv", tmp_path / "dist.yuv"
        ref.tofile(paths[0])
        dist.tofile(paths[1])
        mapped = [RawVideo.from_file(p, 26, 18, 25) for p in paths]
        copies = RawVideo(26, 18, 25, ref), RawVideo(26, 18, 25, dist)
        assert psnr_global(*mapped) == psnr_global(*copies)
        assert ssim_mean(*mapped) == ssim_mean(*copies)

    def test_partial_frame_rejected(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(96 + 5))
        with pytest.raises(MediaError, match="not a multiple"):
            RawVideo.from_file(path, 8, 8, 50)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "clip.yuv"
        path.write_bytes(b"")
        with pytest.raises(MediaError, match="no frames"):
            RawVideo.from_file(path, 8, 8, 50)
