"""Self-test of the benchmark's own checks; runs in a few seconds.

    python3 -m pytest -q bench/test_checks.py

Each check must pass a correct output and reject a corrupted one.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import stub_codec  # noqa: E402
from checks import Decision  # noqa: E402
from segenc import media  # noqa: E402
from segenc.coefficients import REFERENCE_MODEL_SETS  # noqa: E402
from segenc.controller import run_segment_loop  # noqa: E402
from segenc.encoders import SyntheticEncoder, default_law  # noqa: E402
from segenc.solver import make_mode  # noqa: E402
from workloads import bounds  # noqa: E402

B6 = {"B6": REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]}
C07_MAXQ = bounds("max_quality", max_bitrate_kbps=11205.77, min_fps=25.0)


def b6(gop, qp, filters_on):
    return checks.law_values(B6, {}, gop, qp, filters_on, 150)


def frames(rng, w, h, n=2):
    return rng.integers(0, 256, size=(n, w * h * 3 // 2), dtype=np.uint8)


# --- reference metrics ------------------------------------------------------


def test_psnr_hand_computed():
    w = h = 8
    ref = np.full((1, 96), 100, dtype=np.uint8)
    dist = ref.copy()
    dist[0, :64] += 2  # luma off by 2 everywhere: MSE 4; chroma exact
    y = 10.0 * math.log10(255.0**2 / 4.0)
    assert checks.reference_psnr611(ref, dist, w, h) == pytest.approx((6 * y + 200.0) / 8.0, abs=1e-12)
    assert checks.reference_psnr611(ref, ref, w, h) == 100.0


def test_ssim_hand_computed():
    w = h = 8
    x = np.full((1, 96), 100, dtype=np.uint8)
    y = np.full((1, 96), 110, dtype=np.uint8)
    c1, c2 = checks.SSIM_C1, checks.SSIM_C2
    want = (2 * 100 * 110 + c1) * c2 / ((100**2 + 110**2 + c1) * c2)
    assert checks.reference_ssim(x, y, w, h) == pytest.approx(want, abs=1e-15)
    assert checks.reference_ssim(x, x, w, h) == pytest.approx(1.0, abs=1e-15)


def test_reference_metrics_agree_with_segenc_on_random_frames():
    rng = np.random.default_rng(3)
    w, h = 48, 36  # height not a multiple of the SSIM window: both crop
    ref, dist = frames(rng, w, h), frames(rng, w, h)
    a, b = media.RawVideo(w, h, 25, ref), media.RawVideo(w, h, 25, dist)
    assert abs(checks.reference_psnr611(ref, dist, w, h) - media.psnr_global(a, b).psnr611) < 1e-9
    assert abs(checks.reference_ssim(ref, dist, w, h) - media.ssim_mean(a, b)) < 1e-9


def test_stub_codec_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8)
    src, out, dec = tmp_path / "s.yuv", tmp_path / "o.bin", tmp_path / "d.yuv"
    src.write_bytes(data.tobytes())
    for qp in (16, 28, 52):
        assert stub_codec.main(["stub", "enc", str(src), str(out), str(qp)]) == 0
        assert stub_codec.main(["stub", "dec", str(out), str(dec), str(qp)]) == 0
        step = stub_codec.step_for(qp)
        want = np.minimum(255, (data.astype(int) + step // 2) // step * step)
        assert np.array_equal(np.frombuffer(dec.read_bytes(), dtype=np.uint8), want)
        assert out.stat().st_size == len(stub_codec.payload(data.tobytes(), qp))


# --- the exhaustive-search oracle -------------------------------------------


def test_oracle_on_c07():
    law = default_law()
    assert checks.window_best(b6, ["B6"], 28, (16, 45), C07_MAXQ) == law.value("B6", "psnr", 28)
    minbr = bounds("min_bitrate", min_quality=law.value("B6", "psnr", 29), min_fps=25.0)
    assert checks.window_best(b6, ["B6"], 28, (16, 45), minbr) == -law.value("B6", "bits", 29)

    def decision(qp):
        return [Decision(1, "B6", qp, False, b6("B6", qp, False))]

    assert checks.check_window_optimal(decision(28), [28], b6, ["B6"], (16, 45), lambda s: C07_MAXQ) == []
    assert checks.check_window_optimal(decision(29), [28], b6, ["B6"], (16, 45), lambda s: C07_MAXQ)
    assert checks.check_window_optimal(decision(29), [28], b6, ["B6"], (16, 45), lambda s: minbr) == []
    assert checks.check_window_optimal(decision(28), [28], b6, ["B6"], (16, 45), lambda s: minbr)


def test_controller_c07_run_passes_every_synthetic_check():
    enc = SyntheticEncoder(default_law())
    segments = media.make_segments(500, 50, 3.0)
    state = run_segment_loop(enc, segments, make_mode("max_quality", {"max_bitrate_kbps": 11205.77,
                                                                     "min_fps": 25.0}))
    ds = [Decision(r.segment_index, r.config.gop, r.config.qp, r.config.filters_on,
                   {"bits": r.measured.bitrate, "psnr": r.measured.quality_psnr,
                    "enc_rate": r.measured.enc_rate}) for r in state.history]
    assert [d.qp for d in ds] == [28, 28, 28, 28]
    assert checks.check_encode_count(enc.encode_calls, 20, len(segments)) == []
    assert checks.check_measured_law(ds, lambda d: b6(d.gop, d.qp, d.filters_on)) == []
    assert checks.check_bounds(ds[1:], lambda s: C07_MAXQ) == []
    assert checks.check_window_optimal(ds[1:], [28, 28, 28], b6, ["B6"], (16, 45), lambda s: C07_MAXQ) == []


# --- every check rejects a corrupted output ---------------------------------


def test_encode_count_rejects_an_extra_encode():
    assert checks.check_encode_count(119, 20, 100) == []
    assert checks.check_encode_count(120, 20, 100)


def test_measured_law_rejects_a_perturbed_value():
    good = Decision(1, "B6", 30, True, b6("B6", 30, True))
    bad = Decision(1, "B6", 30, True, {**good.measured, "bits": good.measured["bits"] * (1 + 1e-9)})
    evaluate = lambda d: b6(d.gop, d.qp, d.filters_on)  # noqa: E731
    assert checks.check_measured_law([good], evaluate) == []
    assert checks.check_measured_law([bad], evaluate)


def test_bounds_reject_a_miss_beyond_the_band():
    inside = {"bits": 11205.77 * 1.099, "enc_rate": 25.0 * 0.91, "psnr": 40.0}
    assert checks.check_bounds([Decision(3, "B6", 28, False, inside)], lambda s: C07_MAXQ) == []
    outside = {**inside, "bits": 11205.77 * 1.101}
    assert checks.check_bounds([Decision(3, "B6", 28, False, outside)], lambda s: C07_MAXQ)
    assert checks.check_bounds([Decision(3, "B6", 28, False, None)], lambda s: C07_MAXQ)


def test_quality_rejects_an_error_above_1e_9():
    assert checks.check_quality(1, 35.0, 0.9, 35.0 + 5e-10, 0.9) == []
    assert checks.check_quality(1, 35.0, 0.9, 35.0 + 2e-9, 0.9)
    assert checks.check_quality(1, 35.0, 0.9, 35.0, 0.9 + 2e-9)


def test_bitrate_rejects_a_wrong_payload_size():
    assert checks.check_bitrate(1, 8.0 * 1000 / 1.0 / 1000.0, 1000, 1.0) == []
    assert checks.check_bitrate(1, 8.0 * 1000 / 1.0 / 1000.0, 1001, 1.0)


def test_decision_log_rejects_a_missing_or_empty_record():
    good = [{"segment": i, "measured": {"psnr_db": 1.0}} for i in range(3)]
    assert checks.check_decision_log(good, 3) == []
    assert checks.check_decision_log(good[:2], 3)
    assert checks.check_decision_log([good[0], {"segment": 1, "measured": None}, good[2]], 3)


def test_schedule_rejects_wrong_boundaries_labels_and_constraints():
    policy = {"zoom": bounds("max_enc_rate", min_quality=38.0, max_bitrate_kbps=9000.0),
              "tracking": bounds("min_bitrate", min_quality=39.0, min_fps=25.0)}

    def region(start, end, label, **override):
        constraints = {k: v for k, v in policy[label].items() if v is not None}
        return {"start_frame": start, "end_frame": end, "label": label,
                "constraints": {**constraints, **override}}

    truth = [(0, 100, "zoom"), (100, 300, "tracking")]
    good = [region(0, 100, "zoom"), region(100, 300, "tracking")]
    assert checks.check_schedule(good, truth, policy) == []
    assert checks.check_schedule([region(0, 125, "zoom"), region(125, 300, "tracking")], truth, policy)
    assert checks.check_schedule([region(0, 100, "tracking"), region(100, 300, "tracking")], truth, policy)
    assert checks.check_schedule([good[0], region(100, 300, "tracking", min_fps=20.0)], truth, policy)


def test_segment_constraints_reject_a_wrong_or_missing_segment():
    a = bounds("min_bitrate", min_quality=39.0, min_fps=25.0)
    b = bounds("max_quality", max_bitrate_kbps=9000.0, min_fps=25.0)
    bounds_for = lambda s: a if s < 2 else b  # noqa: E731
    assert checks.check_segment_constraints([(0, a), (1, a), (2, b)], bounds_for, 3) == []
    assert checks.check_segment_constraints([(0, a), (1, b), (2, b)], bounds_for, 3)
    assert checks.check_segment_constraints([(0, a), (2, b)], bounds_for, 3)
