import functools
import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from segenc import controller
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.controller import (
    ControllerError,
    ControllerState,
    _refresh_group,
    bootstrap,
    choose_gop_model,
    run_segment_loop,
    summarize,
    write_decision_log,
)
from segenc.encoders import (
    EncoderError,
    SyntheticEncoder,
    SyntheticLaw,
    default_law,
    synth_encode,
)
from segenc.media import make_segments
from segenc.models import fit_log_poly, predict
from segenc.solver import ConstraintSet, make_mode, solve_constrained

B6 = REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]
B3 = REFERENCE_MODEL_SETS[("x265", "B3", "max_quality")]
B2 = REFERENCE_MODEL_SETS[("x265", "B2", "max_quality")]

MAXQ = make_mode("max_quality", {"max_bitrate_kbps": 11205.77, "min_fps": 25.0})


def segments_500():
    return make_segments(500, 50, 3.0)


class CountingEncoder(SyntheticEncoder):
    pass  # SyntheticEncoder already counts encode calls


class FlakyEncoder(SyntheticEncoder):
    def __init__(self, law=None, fail_segments=()):
        super().__init__(law)
        self.fail_segments = set(fail_segments)

    def encode(self, config, segment):
        m = super().encode(config, segment)
        if segment.index in self.fail_segments:
            raise EncoderError("disk full")
        return m


class UnevenEncoder(SyntheticEncoder):
    """Three GOPs on ``workers`` threads; encodes take 0-4 ms and finish out of order."""

    def __init__(self, workers):
        super().__init__(SyntheticLaw({"B2": B2, "B3": B3, "B6": B6}))
        self.workers = workers

    def encode(self, config, segment):
        time.sleep(0.002 * ((config.qp + segment.index) % 3))
        return super().encode(config, segment)


class TestBootstrap:
    def test_recovers_law_coefficients(self):
        enc = SyntheticEncoder()
        state = bootstrap(enc, segments_500()[0], MAXQ)
        for (gop, filters), models in state.models.items():
            assert gop == "B6"
            for objective, model in models.items():
                for got, want in zip(model.coefficients, B6[objective]):
                    assert got == pytest.approx(want, abs=1e-6)

    def test_single_gop_grid_yields_one_model_set_per_filter_group(self):
        enc = SyntheticEncoder()
        state = bootstrap(enc, segments_500()[0], MAXQ)
        assert {gop for gop, _ in state.models} == {"B6"}
        assert len(state.models) == 2  # filters off / on

    def test_segment0_decision_comes_from_the_front(self):
        enc = SyntheticEncoder()
        state = bootstrap(enc, segments_500()[0], MAXQ)
        record = state.history[0]
        assert record.segment_index == 0
        assert record.config.qp == 28  # best hard-feasible grid QP
        assert record.measured is not None

    def test_time_bound_on_segment0(self):
        # the bootstrap front is rate-oriented; a max_time_s bound still needs
        # each entry's encoding time, which the segment's frame count gives
        state = run_segment_loop(
            SyntheticEncoder(), make_segments(450, 50),
            make_mode("max_quality", {"max_bitrate_kbps": 20000.0, "max_time_s": 1.0}),
        )
        assert state.history[0].config.qp == 25
        assert len(state.history) == 3

    def test_group_off_the_front_is_fitted_from_all_its_samples(self):
        # B6x is B6 with e^0.5 times the bits: each of its points is dominated
        a, b1, b2 = B6["bits"]
        law = SyntheticLaw({"B6": B6, "B6x": {**B6, "bits": (a + 0.5, b1, b2)}})
        state = bootstrap(SyntheticEncoder(law), segments_500()[0], MAXQ)
        copies = [key for key in state.models if key[0] == "B6x"]
        assert len(copies) == 2  # filters off / on
        for key in copies:
            assert all(len(pairs) == 10 for pairs in state.samples[key].values())
        assert all(model.order == 2 for models in state.models.values()
                   for model in models.values())

    def test_binding_time_bound_picks_faster_segment0_config(self):
        # QPs 16 and 19 take 0.40 s and 0.11 s for 150 frames; QP 22 takes 0.024 s
        cs = make_mode("max_quality", {"max_bitrate_kbps": 200000.0, "max_time_s": 0.05})
        state = bootstrap(SyntheticEncoder(), segments_500()[0], cs)
        record = state.history[0]
        assert record.config.qp == 22
        assert record.satisfied

    def test_unmeasured_quality_metric_rejected(self):
        enc = SyntheticEncoder()
        cs = ConstraintSet(mode="min_bitrate", min_quality=0.9, quality_metric="ssim",
                           min_fps=25.0)
        with pytest.raises(ControllerError, match="ssim"):
            bootstrap(enc, segments_500()[0], cs)


    def test_decision_log_is_the_same_at_any_worker_count(self, tmp_path):
        logs = []
        for workers in (1, 4):
            state = run_segment_loop(UnevenEncoder(workers), segments(8), MAXQ)
            write_decision_log(state, tmp_path / f"w{workers}.jsonl")
            logs.append((tmp_path / f"w{workers}.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_first_failure_in_grid_order_is_raised(self):
        class FailsTwice(SyntheticEncoder):
            workers = 3

            def encode(self, config, segment):  # QP 22 fails after QP 25, beside it
                if config.qp == 22 and config.filters_on:
                    time.sleep(0.05)
                    raise EncoderError("QP 22 failed")
                if config.qp == 25 and not config.filters_on:
                    raise EncoderError("QP 25 failed")
                return super().encode(config, segment)

        with pytest.raises(EncoderError, match="QP 22"):
            bootstrap(FailsTwice(), segments_500()[0], MAXQ)


class TestChooseGop:
    def test_single_group_is_returned(self):
        enc = SyntheticEncoder()
        state = bootstrap(enc, segments_500()[0], MAXQ)
        key, _, sol = choose_gop_model(state, MAXQ, grid=enc.grid())
        assert key[0] == "B6"
        assert sol.qp_int == 28

    def test_higher_quality_group_wins(self):
        # two GOP laws under the same bitrate bound: the one predicting more
        # quality at its solved QP must be chosen (verified by direct
        # evaluation of both laws)
        law = SyntheticLaw({"B6": B6, "B3": B3})
        enc = SyntheticEncoder(law)
        state = bootstrap(enc, segments_500()[0], MAXQ)
        key, models, sol = choose_gop_model(state, MAXQ, grid=enc.grid())
        q_b6 = law.value("B6", "psnr", 28)
        q_b3 = law.value("B3", "psnr", 29)  # B3 needs QP 29 to fit the band
        assert q_b6 > q_b3
        assert key[0] == "B6"

    def test_steady_state_gop_for_complex_clip_models(self):
        # two fitted groups from a harder 1080p clip: the group reaching the
        # better in-band quality becomes the steady-state choice
        law = SyntheticLaw({"B3": B3, "B2": B2})
        enc = SyntheticEncoder(law)
        cs = make_mode("max_quality", {"max_bitrate_kbps": 10812.173, "min_fps": 25.0})
        state = run_segment_loop(enc, segments_500(), cs)
        later = [r.config.gop for r in state.history[1:]]
        assert set(later) == {"B2"}


class TestSegmentLoop:
    def test_max_quality_selects_qp28_every_segment(self):
        enc = CountingEncoder()
        state = run_segment_loop(enc, segments_500(), MAXQ)
        assert [r.config.qp for r in state.history] == [28, 28, 28, 28]
        assert all(r.satisfied for r in state.history)

    def test_min_bitrate_selects_qp29_after_bootstrap(self):
        law = default_law()
        bound = law.value("B6", "psnr", 29)
        cs = make_mode("min_bitrate", {"min_quality": bound, "min_fps": 25.0})
        enc = CountingEncoder()
        state = run_segment_loop(enc, segments_500(), cs)
        assert [r.config.qp for r in state.history[1:]] == [29, 29, 29]

    def test_exactly_one_encode_per_post_bootstrap_segment(self):
        enc = CountingEncoder()
        segs = segments_500()
        run_segment_loop(enc, segs, MAXQ)
        sweep_size = len(enc.configs())
        assert enc.encode_calls == sweep_size + (len(segs) - 1)

    def test_decisions_converge_under_stationary_law(self):
        enc = SyntheticEncoder()
        segs = make_segments(1500, 50, 3.0)  # 10 segments
        state = run_segment_loop(enc, segs, MAXQ)
        later = {(r.config.gop, r.config.qp) for r in state.history[2:]}
        assert len(later) == 1

    def test_tightening_quality_bound_never_raises_qp(self):
        law = default_law()
        qps = []
        for bound_qp in (33, 31, 29):  # increasing quality bound = tighter
            cs = make_mode(
                "min_bitrate",
                {"min_quality": law.value("B6", "psnr", bound_qp), "min_fps": 25.0},
            )
            state = run_segment_loop(SyntheticEncoder(), segments_500(), cs)
            qps.append(state.history[-1].config.qp)
        assert qps == sorted(qps, reverse=True)

    def test_satisfied_decisions_measured_within_bands(self):
        enc = SyntheticEncoder()
        state = run_segment_loop(enc, segments_500(), MAXQ)
        for record in state.history:
            if not record.satisfied or record.measured is None:
                continue
            assert record.measured.bitrate <= MAXQ.max_bitrate_kbps * (1 + MAXQ.tol_bitrate)
            assert record.measured.enc_rate >= MAXQ.min_fps * (1 - MAXQ.tol_fps)

    def test_single_segment_video_produces_one_record(self):
        enc = SyntheticEncoder()
        segs = make_segments(90, 30, 3.0)
        state = run_segment_loop(enc, segs, MAXQ)
        assert len(state.history) == 1

    def test_encoder_failure_marks_record_and_continues(self):
        enc = FlakyEncoder(fail_segments={2})
        state = run_segment_loop(enc, segments_500(), MAXQ)
        assert state.history[2].failed
        assert state.history[2].measured is None
        assert not state.history[3].failed
        assert state.history[3].config.qp == 28

    def test_qp_clamped_to_previous_segment_window(self):
        # drop the quality bound sharply mid-run: the solver would jump far,
        # the loop must stay within +/-4 of the previous QP
        law = default_law()
        tight = make_mode(
            "min_bitrate", {"min_quality": law.value("B6", "psnr", 20), "min_fps": 25.0}
        )
        loose = make_mode(
            "min_bitrate", {"min_quality": law.value("B6", "psnr", 40), "min_fps": 25.0}
        )

        def schedule(segment):
            return tight if segment.index < 2 else loose

        state = run_segment_loop(SyntheticEncoder(law), segments_500(), tight,
                                 schedule=schedule)
        qps = [r.config.qp for r in state.history]
        assert all(abs(a - b) <= 4 for a, b in zip(qps, qps[1:]))
        assert state.history[2].qp_clamped

    def test_empty_segment_list_rejected(self):
        with pytest.raises(ControllerError, match="no segments"):
            run_segment_loop(SyntheticEncoder(), [], MAXQ)


class TestSummary:
    def test_gain_non_negative_versus_matched_baseline(self):
        enc = SyntheticEncoder()
        segs = segments_500()
        state = run_segment_loop(enc, segs, MAXQ)
        summary = summarize(
            state, encoder=enc, segments=segs, baseline_bitrate_kbps=11205.77
        )
        assert summary.baseline_qp == 28
        assert summary.bitrate_gain_pct is not None
        assert summary.bitrate_gain_pct >= 0.0
        text = summary.format()
        assert "Overall Bitrate Gain" in text

    def test_summary_is_the_same_at_any_worker_count(self):
        summaries = []
        for workers in (1, 3):
            enc = UnevenEncoder(workers)
            state = run_segment_loop(enc, segments(8), MAXQ)
            summaries.append(summarize(state, encoder=enc, segments=segments(8),
                                       baseline_bitrate_kbps=11205.77))
        assert summaries[0].baseline_qp is not None
        assert summaries[0] == summaries[1]

    def test_decision_log_roundtrip(self, tmp_path):
        import json

        enc = SyntheticEncoder()
        state = run_segment_loop(enc, segments_500(), MAXQ)
        path = tmp_path / "decisions.jsonl"
        write_decision_log(state, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#segenc-decisions")
        records = [json.loads(line) for line in lines[1:]]
        assert [r["segment"] for r in records] == [0, 1, 2, 3]
        assert all(r["qp"] == 28 for r in records)


def stepped_law(law, factor):
    """``law`` with every GOP's bitrate multiplied by ``factor`` at every QP."""
    coefficients = {}
    for gop, objectives in law.coefficients.items():
        a, b1, b2 = objectives["bits"]
        coefficients[gop] = {**objectives, "bits": (a + math.log(factor), b1, b2)}
    return SyntheticLaw(coefficients, law.filter_offsets, law.qps, law.qp_bounds)


class SteppedEncoder(SyntheticEncoder):
    """``law`` (default: the default law) up to segment ``step_at``; bitrate
    times ``factor`` from there on."""

    def __init__(self, step_at, factor, law=None):
        super().__init__(law)
        self.before, self.after = self.law, stepped_law(self.law, factor)
        self.step_at = step_at

    def encode(self, config, segment):
        self.law = self.after if segment.index >= self.step_at else self.before
        return super().encode(config, segment)


def misses_band(measured, cs):
    return (measured.bitrate > cs.max_bitrate_kbps * (1 + cs.tol_bitrate)
            or measured.enc_rate < cs.min_fps * (1 - cs.tol_fps))


def segments(count):
    return make_segments(count * 150, 50, 3.0)


class TestOnlineCorrection:
    def test_follows_a_bitrate_step(self):
        # content half again as expensive from segment 100 on
        state = run_segment_loop(SteppedEncoder(100, 1.5), segments(200), MAXQ)
        post = [r for r in state.history if r.segment_index >= 100]
        missed = [r for r in post if r.measured is None or misses_band(r.measured, MAXQ)]
        assert len(post) == 100
        assert len(missed) <= 0.05 * len(post)

    def test_samples_do_not_grow_with_the_stream(self):
        short = run_segment_loop(SyntheticEncoder(), segments(200), MAXQ)
        long = run_segment_loop(SyntheticEncoder(), segments(600), MAXQ)
        assert long.samples == short.samples

    def test_no_fit_after_bootstrap(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_log_poly(*args, **kwargs)

        monkeypatch.setattr(controller, "fit_log_poly", counting)
        bootstrap(SyntheticEncoder(), segments_500()[0], MAXQ)
        at_bootstrap = len(calls)
        run_segment_loop(SyntheticEncoder(), segments(50), MAXQ)
        assert at_bootstrap > 0
        assert len(calls) == 2 * at_bootstrap

    def test_update_moves_only_the_intercept(self):
        state = bootstrap(SyntheticEncoder(), segments_500()[0], MAXQ)
        measured = state.history[0].measured
        key = (measured.config.gop, measured.config.filters)
        before = state.models[key]
        _refresh_group(state, key, replace(measured, bitrate=measured.bitrate * 1.5))
        for objective, model in state.models[key].items():
            old = before[objective]
            shift = controller.INTERCEPT_GAIN * math.log(1.5) if objective == "bits" else 0.0
            assert model.coefficients[0] == pytest.approx(old.coefficients[0] + shift, abs=1e-6)
            assert replace(model, coefficients=old.coefficients) == old

    @pytest.mark.parametrize("changes", [
        {"enc_rate": math.inf},
        {"quality_psnr": math.inf},
        {"quality_psnr": 0.0},
        {"quality_psnr": -1.0},
        {"quality_psnr": math.nan},
    ], ids=["infinite-rate", "lossless-psnr", "zero-psnr", "negative-psnr", "nan-psnr"])
    def test_value_without_finite_log_keeps_the_group(self, changes):
        state = bootstrap(SyntheticEncoder(), segments_500()[0], MAXQ)
        measured = state.history[0].measured
        key = (measured.config.gop, measured.config.filters)
        before = dict(state.models[key])
        # the bitrate alone would move the bits model
        _refresh_group(state, key, replace(measured, bitrate=measured.bitrate * 1.5, **changes))
        assert state.models[key] == before


class TestPinnedDecisions:
    """Every decision of a multi-group run, as the solver made it when recorded.

    Four x265 GOPs with filter offsets (eight model groups) under
    ``max_quality``, with the bitrate stepping up by half at segment 30; any
    change to model inversion, rounding or ranking that moves one choice
    shows here.
    """

    GOPS = (("B2", "max_quality"), ("B3", "max_quality"), ("B4", "min_bitrate"),
            ("B6", "max_quality"))
    FILTER_OFFSETS = {"psnr": 0.25, "vmaf": 0.5, "bits": 150.0, "enc_rate": -0.5}
    EXPECTED = (
        [("B6", 31, True)]
        + [("B6", 30, True)] * 30
        + [("B6", 30, False), ("B6", 32, True), ("B6", 32, False), ("B6", 32, False)]
        + [("B6", 33, True)] * 25
    )

    def test_decision_sequence_through_a_bitrate_step(self):
        law = SyntheticLaw(
            {gop: REFERENCE_MODEL_SETS[("x265", gop, set_)] for gop, set_ in self.GOPS},
            self.FILTER_OFFSETS,
        )
        cs = make_mode("max_quality", {"max_bitrate_kbps": 8000.0, "min_fps": 30.0})
        state = run_segment_loop(SteppedEncoder(30, 1.5, law), segments(60), cs)
        got = [(r.config.gop, r.config.qp, r.config.filters_on) for r in state.history]
        assert got == self.EXPECTED


class TestPinnedScheduledDecisions:
    """Every decision of a scheduled multi-group run, as the solver made it when recorded.

    The law and the bitrate step of ``TestPinnedDecisions``, under two
    constraint regions of different modes: ``max_quality`` up to segment
    20, then ``min_bitrate`` with an encode-time bound, built afresh for
    each segment.  The last segment is 60 frames, not 150, so its time bound
    asks less of the encoding rate.  A change to what a solve depends on
    (the constraint set, the frame count, the group's models) shows here.
    """

    EXPECTED = (
        [("B6", 31, True)]
        + [("B6", 30, True)] * 19
        + [("B6", 34, False)]
        + [("B6", 36, False)] * 10
        + [("B6", 36, True), ("B6", 36, False), ("B6", 36, True)]
        + [("B3", 33, False), ("B4", 33, False), ("B2", 33, False), ("B6", 36, False)]
        + [("B3", 33, True), ("B6", 36, False)]
    )

    def test_decision_sequence_across_regions_and_a_short_last_segment(self):
        pinned = TestPinnedDecisions
        law = SyntheticLaw(
            {gop: REFERENCE_MODEL_SETS[("x265", gop, set_)] for gop, set_ in pinned.GOPS},
            pinned.FILTER_OFFSETS,
        )
        first = make_mode("max_quality", {"max_bitrate_kbps": 8000.0, "min_fps": 30.0})

        def schedule(segment):
            if segment.index < 20:
                return first
            return make_mode("min_bitrate", {"min_quality": 37.0, "max_time_s": 2.5})

        run = make_segments(39 * 150 + 60, 50, 3.0)
        assert run[-1].frame_count == 60
        state = run_segment_loop(SteppedEncoder(30, 1.5, law), run, first, schedule=schedule)
        got = [(r.config.gop, r.config.qp, r.config.filters_on) for r in state.history]
        assert got == self.EXPECTED


def pinned_law():
    """The eight-group law of ``TestPinnedDecisions``."""
    pinned = TestPinnedDecisions
    return SyntheticLaw(
        {gop: REFERENCE_MODEL_SETS[("x265", gop, set_)] for gop, set_ in pinned.GOPS},
        pinned.FILTER_OFFSETS,
    )


PINNED_MAXQ = make_mode("max_quality", {"max_bitrate_kbps": 8000.0, "min_fps": 30.0})


def solves_per_segment(monkeypatch, encoder, run, constraints, **kwargs):
    """The loop's state, and how many solves each segment after the first took."""
    calls = []

    def counting(*args, **kw):
        calls.append(kw.get("segment_frames"))
        return solve_constrained(*args, **kw)

    monkeypatch.setattr(controller, "solve_constrained", counting)
    counts = {}
    encode = encoder.encode

    def counted_encode(config, segment):
        if segment.index > 0:
            counts[segment.index] = len(calls) - sum(counts.values())
        return encode(config, segment)

    encoder.encode = counted_encode
    state = run_segment_loop(encoder, run, constraints, **kwargs)
    return state, [counts[i] for i in range(1, len(run))]


class TestSolveCache:
    """``choose_gop_model`` solves a group again only when its inputs changed."""

    GROUPS = 8  # four GOPs, filters on and off

    def test_one_solve_per_segment_after_the_first(self, monkeypatch):
        encoder = SyntheticEncoder(pinned_law())
        state, counts = solves_per_segment(monkeypatch, encoder, segments(40), PINNED_MAXQ)
        assert len(state.models) == self.GROUPS
        assert counts == [self.GROUPS] + [1] * 38

    def test_every_group_is_solved_again_at_a_region_edge_and_a_short_last_segment(
        self, monkeypatch
    ):
        def schedule(segment):  # the later region's set is equal each time, never the same
            if segment.index < 20:
                return PINNED_MAXQ
            return make_mode("min_bitrate", {"min_quality": 37.0, "max_time_s": 2.5})

        run = make_segments(39 * 150 + 60, 50, 3.0)
        state, counts = solves_per_segment(
            monkeypatch, SteppedEncoder(30, 1.5, pinned_law()), run, PINNED_MAXQ,
            schedule=schedule,
        )
        resolved = {i + 1 for i, n in enumerate(counts) if n == self.GROUPS}
        assert resolved == {1, 20, 39}
        assert all(n == 1 for i, n in enumerate(counts) if i + 1 not in resolved)

    def test_a_failed_encode_solves_nothing_again(self, monkeypatch):
        encoder = FlakyEncoder(pinned_law(), fail_segments={10})
        state, counts = solves_per_segment(monkeypatch, encoder, segments(20), PINNED_MAXQ)
        assert counts[10] == 0  # segment 11: no group's models moved
        failed, after = state.history[10], state.history[11]
        assert failed.failed and not after.failed
        assert after.config == failed.config and after.predicted == failed.predicted

    CONSTRAINT_SETS = (
        ("max_quality", {"max_bitrate_kbps": 8000.0, "min_fps": 30.0}),
        ("min_bitrate", {"min_quality": 37.0, "max_time_s": 2.5}),
        ("max_enc_rate", {"min_quality": 36.0, "max_bitrate_kbps": 6000.0}),
        ("max_quality", {"max_bitrate_kbps": 2000.0, "max_time_s": 0.5}),
    )

    @staticmethod
    @functools.cache
    def bootstrapped():
        return bootstrap(SyntheticEncoder(pinned_law()), segments(1)[0], PINNED_MAXQ)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.none() | st.tuples(st.just(-1) | st.integers(0, GROUPS - 1),
                                  st.integers(16, 45), st.floats(0.5, 2.0)),
            st.none() | st.tuples(st.integers(0, len(CONSTRAINT_SETS) - 1), st.booleans(),
                                  st.sampled_from([None, 30, 60, 150])),
        ),
        min_size=1, max_size=12,
    ))
    def test_a_warm_state_chooses_as_a_cold_one(self, steps):
        """Refresh, constraint and frame sequences; ``None`` frames fail time-bound solves.

        A refresh moves group ``index`` of the sorted keys, or with index -1
        the group chosen last, as an encode of the loop does.  A step
        without new inputs keeps the last constraint set and frame count.
        """
        base = self.bootstrapped()
        law, grid = pinned_law(), pinned_law().grid()
        warm = ControllerState(models=dict(base.models))
        kept, chosen = {}, sorted(warm.models)[0]
        which, afresh, frames = 0, False, 150

        def choose(state, cs, frames):
            try:
                return choose_gop_model(state, cs, grid=grid, segment_frames=frames)
            except ControllerError as exc:
                return str(exc)

        for refresh, inputs in steps:
            if refresh is not None:
                index, qp, factor = refresh
                key = chosen if index < 0 else sorted(warm.models)[index]
                m = synth_encode(grid.config(key[0], qp, key[1]), law, segments(1)[0])
                _refresh_group(warm, key, replace(m, bitrate=m.bitrate * factor))
            if inputs is not None:
                which, afresh, frames = inputs
            mode, bounds = self.CONSTRAINT_SETS[which]
            cs = make_mode(mode, bounds)
            if not afresh:  # the set this index gave before, the same object
                cs = kept.setdefault(which, cs)
            got = choose(warm, cs, frames)
            assert got == choose(ControllerState(models=dict(warm.models)), cs, frames)
            if not isinstance(got, str):
                chosen = got[0]
