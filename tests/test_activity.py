import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from segenc import activity, records
from segenc.activity import (
    BIN_ALPHA,
    ActivityError,
    LABELS,
    PAIRS,
    BinSelection,
    MotionFeatures,
    apply_policy,
    classify,
    detect_activity_change,
    extract_mv_features,
    format_binary_table,
    format_confusion,
    leave_one_out,
    read_mv_field,
    read_policy,
    read_pu_series,
    select_bins,
    synthetic_field,
    synthetic_training,
)
from segenc.solver import ConstraintSet


class TestFeatures:
    def test_zero_motion_masses_bin_zero(self):
        f = extract_mv_features([(0.0, 0.0)] * 40, pu_count=100)
        assert f.mag_hist[0] == pytest.approx(1.0)
        assert f.mag_hist[1:].sum() == pytest.approx(0.0)
        assert f.mag_cdf[-1] == pytest.approx(1.0)

    def test_uniform_translation_is_a_delta(self):
        f = extract_mv_features([(5.0, 0.0)] * 64)
        assert np.count_nonzero(f.mag_hist) == 1
        assert np.count_nonzero(f.ori_hist) == 1
        # angle 0 falls in the bin covering 0 within [-pi, pi)
        zero_bin = int((0.0 + math.pi) / (2 * math.pi) * 25)
        assert f.ori_hist[zero_bin] == pytest.approx(1.0)

    def test_radial_zoom_spreads_orientation_and_magnitude(self, rng):
        field = synthetic_field("zoom", rng)
        f = extract_mv_features(field)
        # orientations near-uniform: many occupied bins, none dominant
        assert np.count_nonzero(f.ori_hist) >= 20
        assert f.ori_hist.max() < 0.2
        # magnitudes grow with radius: mass spread over several bins
        assert np.count_nonzero(f.mag_hist) >= 3

    def test_empty_field_all_zero(self):
        f = extract_mv_features([], pu_count=7)
        assert f.mag_hist.sum() == 0.0
        assert f.ori_cdf[-1] == 0.0
        assert f.pu_count == 7.0

    def test_magnitude_scaling_leaves_orientation_unchanged(self, rng):
        field = synthetic_field("tracking", rng)
        f1 = extract_mv_features(field)
        f2 = extract_mv_features(field * 2.5)
        assert np.allclose(f1.ori_hist, f2.ori_hist)

    def test_histograms_sum_to_one(self, rng):
        for kind in LABELS:
            f = extract_mv_features(synthetic_field(kind, rng, noise_sigma=0.5))
            assert f.mag_hist.sum() == pytest.approx(1.0)
            assert f.ori_hist.sum() == pytest.approx(1.0)
            assert np.all(np.diff(f.mag_cdf) >= -1e-12)


def features_with_vector(vec):
    """Build MotionFeatures whose .vector() equals the given 50-dim array."""
    vec = np.asarray(vec, dtype=np.float64)
    mag_cdf, ori_cdf = vec[:25], vec[25:]
    return MotionFeatures(
        mag_hist=np.diff(np.concatenate([[0.0], mag_cdf])),
        ori_hist=np.diff(np.concatenate([[0.0], ori_cdf])),
        mag_cdf=mag_cdf,
        ori_cdf=ori_cdf,
        pu_count=0.0,
    )


class TestBinSelection:
    def make_training(self, rng, a_shift_bins=(), b_shift_bins=(), n=5, gap=0.5):
        base = np.linspace(0.1, 1.0, 50)
        training = []
        for _ in range(n):
            va = base + rng.normal(0, 0.005, 50)
            vb = base + rng.normal(0, 0.005, 50)
            for bin_idx in a_shift_bins:
                va[bin_idx] += gap
            for bin_idx in b_shift_bins:
                vb[bin_idx] += gap
            training.append(("tracking", features_with_vector(va)))
            training.append(("stationary", features_with_vector(vb)))
        return training

    def test_identical_classes_fall_back_to_all_bins(self):
        f = features_with_vector(np.linspace(0.1, 1.0, 50))
        training = [("tracking", f), ("tracking", f), ("stationary", f), ("stationary", f)]
        sel = select_bins(training, ("tracking", "stationary"))
        assert sel.fallback
        assert sel.indices == tuple(range(50))

    def test_single_separated_bin_is_selected(self, rng):
        training = self.make_training(rng, a_shift_bins=(7,))
        sel = select_bins(training, ("tracking", "stationary"))
        assert 7 in sel.indices
        assert not sel.fallback
        assert len(sel.indices) <= 3  # the noise bins stay out

    def test_disjoint_supports_on_two_bins(self, rng):
        training = self.make_training(rng, a_shift_bins=(3,), b_shift_bins=(7,))
        sel = select_bins(training, ("tracking", "stationary"))
        assert {3, 7} <= set(sel.indices)

    def test_too_few_samples_rejected(self, rng):
        training = self.make_training(rng, n=1)
        with pytest.raises(ActivityError, match="at least 2"):
            select_bins(training, ("tracking", "stationary"))


class TestBinPValues:
    """The numpy U test gives the p-values of one scipy ``mannwhitneyu`` call per bin."""

    @staticmethod
    def per_bin(a_vecs, b_vecs):
        from scipy import stats

        p = []
        for i in range(a_vecs.shape[1]):
            a, b = a_vecs[:, i], b_vecs[:, i]
            if np.ptp(np.concatenate([a, b])) == 0.0:
                p.append(None)
            else:
                p.append(float(stats.mannwhitneyu(a, b, alternative="two-sided").pvalue))
        return p

    def test_bit_identical_to_one_call_per_bin(self, rng):
        sets = [synthetic_training(np.random.default_rng(seed), noise_sigma=sigma)
                for seed, sigma in [(0, 0.0), (1, 0.0), (2, 0.5), (3, 1.5)]]
        sets.append(TestBinSelection().make_training(rng, a_shift_bins=(7,)))
        tie_kinds = set()
        for training in sets:
            labels = [lbl for lbl, _ in training]
            for pair in [pr for pr in PAIRS if min(map(labels.count, pr)) >= 2]:
                a_vecs = np.array([f.vector() for lbl, f in training if lbl == pair[0]])
                b_vecs = np.array([f.vector() for lbl, f in training if lbl == pair[1]])
                expected = self.per_bin(a_vecs, b_vecs)
                got = activity._bin_p_values(a_vecs, b_vecs).tolist()
                both = np.concatenate([a_vecs, b_vecs])
                for col, p, want in zip(both.T, got, expected):
                    if want is None:
                        assert math.isnan(p)
                        continue
                    tied = len(np.unique(col)) < len(col)
                    tie_kinds.add(tied)
                    if tied:  # the normal tail: math.erfc against scipy's own erfc
                        assert p == pytest.approx(want, rel=1e-13, abs=0.0)
                    else:  # the exact tail, summed as scipy sums it
                        assert p.hex() == want.hex()
                chosen = [i for i, p in enumerate(expected) if p is not None and p <= BIN_ALPHA]
                selection = select_bins(training, pair)
                assert selection.indices == (tuple(chosen) or tuple(range(50)))
                assert selection.fallback == (not chosen)
        assert tie_kinds == {True, False}  # both the exact and the normal tail were taken

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n1=st.integers(2, 12), n2=st.integers(2, 12),
           columns=st.integers(1, 4))
    def test_untied_bins_match_scipy(self, data, n1, n2, columns):
        # distinct values, so only their order counts: one permutation per bin
        orders = [data.draw(st.permutations(range(n1 + n2))) for _ in range(columns)]
        values = np.array(orders, dtype=np.float64).T / (n1 + n2)
        a_vecs, b_vecs = values[:n1], values[n1:]
        got = activity._bin_p_values(a_vecs, b_vecs).tolist()
        for p, want in zip(got, self.per_bin(a_vecs, b_vecs)):
            if min(n1, n2) <= activity.EXACT_MAX_SAMPLES:
                assert p.hex() == want.hex()
            else:  # scipy takes the normal tail here, ties or not
                assert p == pytest.approx(want, rel=1e-13, abs=0.0)


class TestClassify:
    def test_zero_motion_is_stationary(self, rng):
        training = synthetic_training(rng)
        f = extract_mv_features([(0.0, 0.0)] * 100, pu_count=300)
        assert classify(f, training, k=3) == "stationary"

    def test_uniform_translation_is_tracking(self, rng):
        training = synthetic_training(rng)
        f = extract_mv_features([(6.0, 2.0)] * 100, pu_count=900)
        assert classify(f, training, k=3) == "tracking"

    def test_radial_field_is_zoom(self, rng):
        training = synthetic_training(rng)
        f = extract_mv_features(synthetic_field("zoom", rng), pu_count=1200)
        assert classify(f, training, k=3) == "zoom"

    def test_training_must_cover_all_labels(self, rng):
        training = [t for t in synthetic_training(rng) if t[0] != "zoom"]
        f = extract_mv_features([(0.0, 0.0)] * 10)
        with pytest.raises(ActivityError, match="missing"):
            classify(f, training)

    def test_invariant_to_training_order(self, rng):
        training = synthetic_training(rng)
        f = extract_mv_features(synthetic_field("tracking", rng, noise_sigma=1.0))
        a = classify(f, training, k=3)
        b = classify(f, list(reversed(training)), k=3)
        assert a == b

    def test_noise_free_loo_is_perfect(self, rng):
        training = synthetic_training(rng, per_class=5)
        result = leave_one_out(training, k=3)
        assert result.accuracy == 1.0
        for actual in LABELS:
            assert result.confusion[(actual, actual)] == 5

    def test_confusion_and_binary_tables_render(self, rng):
        result = leave_one_out(synthetic_training(rng), k=3)
        confusion = format_confusion(result)
        assert "Tracking" in confusion and "Zoom" in confusion
        assert len(confusion.splitlines()) == 4
        binary = format_binary_table(result)
        assert "Tracking vs Stationary" in binary
        assert "Zoom vs Tracking" in binary
        assert len(binary.splitlines()) == 7


class TestActivityChange:
    def test_constant_series_has_no_boundaries(self):
        assert detect_activity_change([500.0] * 200) == []

    def test_step_drop_detected_at_window_edge(self):
        series = [1000.0] * 50 + [400.0] * 50
        assert detect_activity_change(series) == [50]

    def test_two_steps_detected(self):
        series = [400.0] * 50 + [1000.0] * 50 + [300.0] * 50
        assert detect_activity_change(series) == [50, 100]

    def test_slow_drift_below_threshold_ignored(self):
        # monotone series whose total relative change stays under the bar
        series = [1000.0 + i * 0.5 for i in range(150)]
        assert detect_activity_change(series) == []

    def test_short_series_rejected(self):
        with pytest.raises(ActivityError):
            detect_activity_change([5.0])


class TestPolicy:
    def shields_policy(self):
        return {
            "tracking": ConstraintSet(mode="min_bitrate", min_quality=0.88,
                                      quality_metric="ssim", max_time_s=10.0),
            "stationary": ConstraintSet(mode="min_bitrate", min_quality=0.94,
                                        quality_metric="ssim", max_time_s=10.0),
            "zoom": ConstraintSet(mode="min_bitrate", min_quality=0.94,
                                  quality_metric="ssim", max_time_s=10.0),
        }

    def test_tracking_maps_to_relaxed_quality(self):
        cs = apply_policy("tracking", self.shields_policy())
        assert cs.min_quality == 0.88
        assert cs.max_time_s == 10.0

    def test_zoom_maps_to_high_quality(self):
        cs = apply_policy("zoom", self.shields_policy())
        assert cs.min_quality == 0.94

    def test_uniform_policy(self):
        one = ConstraintSet(mode="min_bitrate", min_quality=40.0, min_fps=25.0)
        policy = {label: one for label in LABELS}
        assert all(apply_policy(lbl, policy) is one for lbl in LABELS)

    def test_unmapped_label_rejected(self):
        with pytest.raises(ActivityError, match="no constraints"):
            apply_policy("zoom", {"tracking": None})


class TestFileInterfaces:
    def test_mv_field_roundtrip(self, tmp_path):
        path = tmp_path / "field.mv"
        path.write_text("# frame bx by dx dy\n0 0 0 5.0 0.0\n0 8 0 5.0 0.0\n1 0 0 0.0 0.0\n")
        frames, vectors = read_mv_field(path)
        assert frames.tolist() == [0, 0, 1]
        assert vectors.tolist() == [[5.0, 0.0], [5.0, 0.0], [0.0, 0.0]]

    def test_empty_mv_file_rejected(self, tmp_path):
        path = tmp_path / "field.mv"
        path.write_text("# nothing\n")
        with pytest.raises(ActivityError, match="empty"):
            read_mv_field(path)

    def test_pu_series_sorted_by_frame(self, tmp_path):
        path = tmp_path / "pu.txt"
        path.write_text("1 400\n0 1000\n2 390\n")
        assert read_pu_series(path) == [1000.0, 400.0, 390.0]

    def test_policy_file(self, tmp_path):
        import json

        path = tmp_path / "policy.json"
        path.write_text(json.dumps({
            "tracking": {"mode": "min_bitrate", "min_quality": 0.88,
                         "quality_metric": "ssim", "max_time_s": 10.0},
            "stationary": {"mode": "min_bitrate", "min_quality": 0.94,
                           "quality_metric": "ssim", "max_time_s": 10.0},
            "zoom": {"mode": "min_bitrate", "min_quality": 0.94,
                     "quality_metric": "ssim", "max_time_s": 10.0},
        }))
        policy = read_policy(path)
        assert policy["zoom"].min_quality == 0.94
        assert policy["tracking"].quality_metric == "ssim"


def line_reader(path):
    """Reference MV reader: every line through ``records.read_rows``, values as hex."""
    rows = list(records.read_rows(path, ActivityError, "an MV record", 5, activity._mv_record))
    if not rows:
        raise ActivityError(f"{path}: empty MV field file")
    return [row[0] for row in rows], [[row[1].hex(), row[2].hex()] for row in rows]


def hexed(frames, vectors):
    return frames.tolist(), [[dx.hex(), dy.hex()] for dx, dy in vectors.tolist()]


_SIGN = st.sampled_from(["", "", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_INTEGER = st.tuples(_SIGN, _DIGITS).map("".join)
_SUFFIX = st.sampled_from(["", ".", ".5", "e3", "e-9", ".25e+400"])
_NUMBER = st.tuples(_SIGN, _DIGITS, _SUFFIX).map("".join)
_CELL = st.one_of(
    _INTEGER,
    _NUMBER,
    st.sampled_from(["nan", "-nan", "+nan", "1e999", "#"]),
    st.text(alphabet="0123456789+-.e#", max_size=4),
)


def _mv_texts(separators, ends):
    separator = st.sampled_from(separators)

    def joined(cells):
        return st.tuples(*[st.tuples(cell, separator) for cell in cells]).map(
            lambda pairs: "".join(cell + sep for cell, sep in pairs))

    record = joined([_INTEGER] + [_NUMBER] * 4)
    junk = st.integers(0, 6).flatmap(lambda n: joined([_CELL] * n))
    line = st.integers(0, 4).flatmap(lambda i: junk if i == 0 else record)
    return st.lists(st.tuples(line, st.sampled_from(ends)), max_size=6).map(
        lambda lines: "".join(text + end for text, end in lines))


# half plain texts, which numpy parses, half with line breaks of other kinds
_PLAIN = [" ", " ", " ", "  ", "\t", ",", ", "]
_MV_TEXT = st.one_of(
    _mv_texts(_PLAIN, ["\n", "\n", "\n\n", "\r\n"]),
    _mv_texts(_PLAIN + ["\x0c", "\r", " \x0c "], ["\n", "\r", "\x0c"]),
)


class TestMvReader:
    """The one-parse MV reader agrees with the line reader on every text."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_MV_TEXT)
    @example(text="0 0\x0c0 1 2\n")  # one record to numpy, two lines to splitlines
    @example(text="5.0 0 0 1 2\n")  # int() rejects a float frame
    @example(text="99999999999999999999 0 0 1 2\n")  # beyond int64
    @example(text="0 a b 1 2\n# comment\n")  # block cells are never converted
    @example(text="1_0 0 0 1_5 -nan\n")
    @example(text="\u0663 0 0 1 \u0662\n")  # non-ASCII digits, which only int() and float() read
    @example(text=" \t\n")
    @example(text=",\n")  # blank once commas split cells: numpy read no records
    def test_same_values_or_both_reject(self, tmp_path, text):
        path = tmp_path / "field.mv"
        path.write_bytes(text.encode())
        try:
            expected = line_reader(path)
        except ActivityError:
            with pytest.raises(ActivityError):
                read_mv_field(path)
        else:
            assert hexed(*read_mv_field(path)) == expected

    def test_plain_file_is_one_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "field.mv"
        path.write_text("0 0 0 1.5 -2\n0,1,0,nan,1e3\n\n 7\t0 0 .5 5.\n+3 0 0 -inf 1e-320\n")
        expected = line_reader(path)

        def refuse(*args, **kwargs):
            raise AssertionError("the line reader was used")

        monkeypatch.setattr(records, "read_rows", refuse)
        frames, vectors = read_mv_field(path)
        assert frames.dtype == np.int64 and vectors.shape == (4, 2)
        assert hexed(frames, vectors) == expected

    def test_carriage_returns_stay_one_parse(self, tmp_path, monkeypatch):
        path = tmp_path / "field.mv"
        path.write_bytes(b"0 0 0 1.5 -2\r\n1,0,0,3,4\r2 0 0 5 6\r\n")
        expected = line_reader(path)

        def refuse(*args, **kwargs):
            raise AssertionError("the line reader was used")

        monkeypatch.setattr(records, "read_rows", refuse)
        assert hexed(*read_mv_field(path)) == expected

    @pytest.mark.parametrize("content", [None, b"0 0 0 1 2\n0 0 0 \xff 2\n"],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_file_is_named(self, tmp_path, content):
        path = tmp_path / "field.mv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ActivityError, match="cannot read") as info:
            read_mv_field(path)
        assert str(path) in str(info.value)

    def test_bad_line_deep_in_a_large_file_is_named(self, tmp_path):
        path = tmp_path / "field.mv"
        lines = [f"{i // 64} {i % 8} {i // 8 % 8} 1.25 -0.5" for i in range(60_000)]
        lines[45_677] += " 9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ActivityError, match="6 cells, an MV record has 5") as info:
            read_mv_field(path)
        assert str(info.value).startswith(f"{path}:45678:")

    def test_pu_gap_names_the_missing_frame(self, tmp_path):
        path = tmp_path / "pu.txt"
        path.write_text("".join(f"{f} 900\n" for f in range(50))
                        + "".join(f"{f} 300\n" for f in range(100, 150)))
        with pytest.raises(ActivityError, match="frame 50 is missing") as info:
            read_pu_series(path)
        assert str(path) in str(info.value)

    def test_pu_repeated_frame_is_named(self, tmp_path):
        path = tmp_path / "pu.txt"
        path.write_text("0 100\n0 200\n1 300\n")
        with pytest.raises(ActivityError, match="frame 0 is given twice") as info:
            read_pu_series(path)
        assert str(path) in str(info.value)


def pu_reference(path):
    """Reference PU reader: each row into a dict, checked as it comes; values as hex."""
    counts = {}
    for frame, count in records.read_rows(path, ActivityError, "a PU record", 2,
                                          activity._pu_record):
        if frame in counts:
            raise ActivityError(f"{path}: PU frame {frame} is given twice")
        counts[frame] = count
    if not counts:
        raise ActivityError(f"{path}: empty PU series file")
    missing = next((f for f in range(len(counts)) if f not in counts), None)
    if missing is not None:
        raise ActivityError(f"{path}: PU frames must run from 0 without a gap; "
                            f"frame {missing} is missing")
    return [counts[f].hex() for f in range(len(counts))]


@st.composite
def _pu_texts(draw):
    """Mostly whole series in any order; some with a repeat, a gap, a stray cell or junk."""
    frames = list(draw(st.permutations(range(draw(st.integers(0, 6))))))
    frames += draw(st.lists(st.integers(-2, 8), max_size=2))
    separator = st.sampled_from(_PLAIN + ["\r"])
    lines = [f"{frame}{draw(separator)}{draw(_NUMBER)}" for frame in frames]
    for _ in range(draw(st.integers(0, 2))):
        junk = draw(st.lists(_CELL, max_size=3).map(" ".join))
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def recording_loadtxt(monkeypatch):
    """Route ``np.loadtxt`` through a wrapper; returns the list of (source, rows parsed) it fills."""
    calls = []
    loadtxt = np.loadtxt

    def recording(source, *args, **kwargs):
        parsed = loadtxt(source, *args, **kwargs)
        calls.append((source, len(parsed)))
        return parsed

    monkeypatch.setattr(np, "loadtxt", recording)
    return calls


class TestOneParse:
    """A plain regular file reaches numpy by name, and what numpy parsed is checked."""

    def test_plain_files_reach_numpy_by_name_once(self, tmp_path, monkeypatch):
        # numpy reads a file object one Python string a line, a named file in blocks
        mv = tmp_path / "field.mv"
        mv.write_text("0 0 0 1.5 -2\n1 0 0 3 4\n")
        pu = tmp_path / "pu.txt"
        pu.write_text("1 200\n0 100\n")
        calls = recording_loadtxt(monkeypatch)
        read_mv_field(mv)
        assert [(type(source), rows) for source, rows in calls] == [(str, 2)]
        calls.clear()
        assert read_pu_series(pu) == [100.0, 200.0]
        assert [(type(source), rows) for source, rows in calls] == [(str, 2)]

    def test_extra_cell_that_numpy_skips_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "field.mv"
        path.write_text("0 0 0 1 2\n1 0 0 3 4 9\n2 0 0 5 6\n")
        calls = recording_loadtxt(monkeypatch)
        with pytest.raises(ActivityError, match="6 cells, an MV record has 5") as info:
            read_mv_field(path)
        assert str(info.value).startswith(f"{path}:2:")
        assert [rows for _, rows in calls] == [3]  # numpy took the line, the cell count did not

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_file_with_a_compressed_suffix(self, tmp_path, suffix):
        path = tmp_path / f"field.mv{suffix}"
        path.write_text("0 0 0 1.5 -2\n1 0 0 3 4\n")
        assert hexed(*read_mv_field(path)) == line_reader(path)

    def test_compressed_suffixes_cover_numpy_openers(self):
        # numpy opens a named file through the decompressor its suffix names
        # (a private table); a plain file so named must not reach numpy by name
        openers = np.lib._datasource._file_openers
        assert {suffix for suffix in openers.keys() if suffix} <= set(activity._COMPRESSED)

    def test_file_changed_during_the_parse_goes_to_the_line_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "field.mv"
        path.write_text("0 0 0 1 2\n1 0 0 3 4\n")
        loadtxt = np.loadtxt

        def rewriting(*args, **kwargs):
            path.write_text("0 0 0 1 2\n1 0 0 3 4 9\n")  # a cell numpy skips, one the count missed
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewriting)
        with pytest.raises(ActivityError, match="6 cells") as info:
            read_mv_field(path)
        assert str(info.value).startswith(f"{path}:2:")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_once(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"0 0 0 1.5 -2\n1 0 0 3 4\n")
        os.close(write_end)
        try:
            frames, vectors = read_mv_field(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert frames.tolist() == [0, 1]
        assert vectors.tolist() == [[1.5, -2.0], [3.0, 4.0]]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_pu_texts())
    @example(text="0 100\n0 200\n1 300\n")
    @example(text="0 1 2\n1 5\n")  # numpy takes two cells of the first line
    @example(text="99999999999999999999 5\n")
    def test_pu_series_same_values_or_both_reject(self, tmp_path, text):
        path = tmp_path / "pu.txt"
        path.write_bytes(text.encode())
        try:
            expected = pu_reference(path)
        except ActivityError:
            with pytest.raises(ActivityError):
                read_pu_series(path)
        else:
            assert [count.hex() for count in read_pu_series(path)] == expected
