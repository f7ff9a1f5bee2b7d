import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segenc.bd import (
    BdError,
    RdCurve,
    average_ranks,
    bd_matrix,
    bd_rate,
    curves_from_records,
    format_bd_matrix,
    pcc,
    read_rd_file,
    srocc,
    write_rd_file,
)

from refdata import RD_POINTS_LOW_DELAY, RD_POINTS_RANDOM_ACCESS


def curve(codec, pairs):
    return RdCurve(codec, tuple(pairs))


def random_curve(rng, codec="a", n=5):
    # quality spans always straddle [33, 42] so any two curves overlap;
    # inner points stay well spaced so the cubic fits remain meaningful
    lo = rng.uniform(30.0, 33.0)
    hi = rng.uniform(42.0, 45.0)
    inner = np.array([(i + rng.uniform(0.2, 0.8)) / (n - 1) for i in range(1, n - 1)])
    quality = np.concatenate([[lo], lo + (hi - lo) * inner, [hi]])
    log_rate = np.sort(rng.uniform(6.0, 10.0, n)) + rng.normal(0, 0.05, n)
    return curve(codec, [(float(math.exp(lr)), float(q)) for lr, q in zip(log_rate, quality)])


class TestBdRate:
    def test_identical_curves_give_zero(self, rng):
        a = random_curve(rng)
        result = bd_rate(a, a)
        assert result.bd_rate == 0.0

    def test_halved_bitrates_give_minus_half(self, rng):
        a = random_curve(rng)
        b = curve("b", [(r / 2.0, q) for r, q in a.points])
        result = bd_rate(a, b)
        # analytic: the log difference is the constant ln(1/2)
        assert result.bd_rate == pytest.approx(-0.5, abs=1e-9)
        assert result.savings_percent == pytest.approx(50.0, abs=1e-6)

    def test_realistic_long_gop_curves_direction(self):
        # random-access referencing needs less bitrate at equal quality;
        # oracle: trapezoidal integration of the piecewise-linear
        # log-bitrate curves over the shared quality interval
        ldp = curve("low-delay", [(r, q) for r, q, _ in RD_POINTS_LOW_DELAY])
        ra = curve("random-access", [(r, q) for r, q, _ in RD_POINTS_RANDOM_ACCESS])

        lo = max(ldp.qualities.min(), ra.qualities.min())
        hi = min(ldp.qualities.max(), ra.qualities.max())
        grid = np.linspace(lo, hi, 2001)
        interp_ldp = np.interp(grid, ldp.qualities, np.log(ldp.bitrates))
        interp_ra = np.interp(grid, ra.qualities, np.log(ra.bitrates))
        oracle_avg_diff = np.trapezoid(interp_ra - interp_ldp, grid) / (hi - lo)
        assert oracle_avg_diff < 0

        result = bd_rate(ldp, ra)
        assert result.bd_rate < 0
        assert result.bd_rate == pytest.approx(math.exp(oracle_avg_diff) - 1.0, abs=0.05)

    def test_antisymmetry_identity(self, rng):
        for _ in range(100):
            a = random_curve(rng, "a")
            b = random_curve(rng, "b")
            ab = bd_rate(a, b).bd_rate
            ba = bd_rate(b, a).bd_rate
            assert (1.0 + ab) * (1.0 + ba) == pytest.approx(1.0, abs=1e-9)

    def test_quality_shift_invariance(self, rng):
        a = random_curve(rng, "a")
        b = random_curve(rng, "b")
        base = bd_rate(a, b).bd_rate
        shifted = bd_rate(a.shifted(7.5), b.shifted(7.5)).bd_rate
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-9)

    def test_no_overlap_rejected(self):
        a = curve("a", [(1000, 30), (2000, 31), (3000, 32), (4000, 33)])
        b = curve("b", [(1000, 40), (2000, 41), (3000, 42), (4000, 43)])
        with pytest.raises(BdError, match="overlap"):
            bd_rate(a, b)

    def test_too_few_points_rejected(self):
        with pytest.raises(BdError, match=">= 4"):
            curve("a", [(1000, 30), (2000, 31), (3000, 32)])

    def test_nonpositive_bitrates_rejected(self):
        with pytest.raises(BdError, match="positive"):
            curve("a", [(0.0, 30), (2000, 31), (3000, 32), (4000, 33)])

    def test_non_monotone_curve_flagged(self):
        a = curve("a", [(1000, 30), (2000, 35), (3000, 33), (4000, 36)])
        assert not a.monotone
        b = curve("b", [(900, 30), (1800, 33), (2700, 34), (3600, 36)])
        assert not bd_rate(a, b).monotone_inputs


class TestMatrix:
    def test_identical_codecs_zero_offdiagonal(self, rng):
        a = random_curve(rng, "a")
        b = RdCurve("b", a.points)
        matrix = bd_matrix([a, b])
        assert matrix[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_four_codec_upper_triangle_shape(self, rng):
        curves = [random_curve(rng, name) for name in ("vvc", "av1", "hevc", "vp9")]
        matrix = bd_matrix(curves)
        for i in range(4):
            for j in range(4):
                if j > i:
                    assert matrix[i][j] is not None
                else:
                    assert matrix[i][j] is None
        text = format_bd_matrix(curves, matrix)
        assert text.splitlines()[0] == "Bitrate savings Relative to"
        assert len(text.splitlines()) == 6

    def test_halved_pair_reads_50_percent(self, rng):
        a = random_curve(rng, "orig")
        b = RdCurve("half", tuple((r / 2, q) for r, q in a.points))
        matrix = bd_matrix([b, a])  # row "half" vs column "orig"
        assert matrix[0][1] == pytest.approx(50.0, abs=1e-6)


# few distinct values, so most draws hold ties; -0.0 ties with 0.0
_TIED_FLOATS = st.sampled_from([-np.inf, -2.5, -0.0, 0.0, 1e-300, 0.1, 0.3, 7.0, 1e300])


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(_TIED_FLOATS | st.floats(allow_nan=False),
                                  min_size=6, max_size=6), min_size=1, max_size=30))
    def test_equals_scipy_rankdata(self, rows):
        from scipy import stats

        values = np.array(rows, dtype=np.float64)  # each column is ranked on its own
        ranks, runs = average_ranks(values)
        assert ranks.tobytes() == stats.rankdata(values, axis=0).tobytes()
        for col, col_runs in zip(values.T, runs.T):
            assert average_ranks(col)[0].tobytes() == stats.rankdata(col).tobytes()
            sizes = np.unique(col, return_counts=True)[1]
            assert col_runs[col_runs > 0].tolist() == sizes.tolist()

    def test_nan_makes_every_rank_nan(self):
        assert np.isnan(average_ranks([1.0, np.nan, 2.0])[0]).all()


class TestCorrelations:
    def test_srocc_handles_rank_swap(self):
        # hand evaluation: 1 - 6*sum(d^2)/(n(n^2-1)) = 1 - 12/60 = 0.8
        assert srocc([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_srocc_monotone_invariance(self):
        x = [0.5, 1.7, 2.1, 9.3, 11.0]
        y = [math.exp(v) for v in x]
        assert srocc(x, y) == pytest.approx(1.0)
        assert srocc(x, [-v for v in y]) == pytest.approx(-1.0)

    def test_srocc_ties_get_average_ranks(self):
        got = srocc([1.0, 2.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
        # oracle: explicit average-rank vectors (1, 2.5, 2.5, 4) vs (1,2,3,4)
        rx = np.array([1.0, 2.5, 2.5, 4.0])
        ry = np.array([1.0, 2.0, 3.0, 4.0])
        expected = float(np.corrcoef(rx, ry)[0, 1])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_pcc_exact_linearity(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pcc(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
        assert pcc(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_pcc_hand_value(self):
        # cov/(sx*sy) for (1,2,3) vs (1,2,4): 3/sqrt(2/3)/sqrt(14/3)/3 ...
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 4.0])
        expected = float(((x - 2) @ (y - 7 / 3)) /
                         math.sqrt(((x - 2) @ (x - 2)) * ((y - 7 / 3) @ (y - 7 / 3))))
        assert pcc(x, y) == pytest.approx(expected, rel=1e-12)
        assert pcc(x, y) == pytest.approx(0.9820, abs=1e-4)

    def test_constant_input_rejected(self):
        with pytest.raises(BdError, match="undefined"):
            srocc([1, 1, 1], [1, 2, 3])
        with pytest.raises(BdError, match="undefined"):
            pcc([1, 2, 3], [5, 5, 5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(BdError):
            pcc([1, 2, 3], [1, 2])


class TestRdFiles:
    def test_roundtrip_and_curves(self, tmp_path):
        rows = [
            {"codec": "low-delay", "qp": qp, "bitrate_kbps": r, "psnr611": q, "vmaf": v}
            for qp, (r, q, v) in zip((22, 27, 32, 37, 42), RD_POINTS_LOW_DELAY)
        ]
        path = tmp_path / "points.rd"
        write_rd_file(path, rows)
        back = read_rd_file(path)
        assert set(back) == {"low-delay"}
        curves = curves_from_records(back, axis="vmaf")
        assert curves[0].codec == "low-delay"
        assert len(curves[0].points) == 5

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "points.rd"
        path.write_text("not a header\n")
        with pytest.raises(BdError, match="not an RD-point file"):
            read_rd_file(path)
