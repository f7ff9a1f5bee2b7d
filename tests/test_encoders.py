import contextlib
import dataclasses
import math
import subprocess
import sys
import tempfile
import textwrap
import threading

import numpy as np
import pytest

from segenc import encoders
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.encoders import (
    CODEC_GRIDS,
    CodecCommands,
    EncoderError,
    EncodingConfig,
    ProcessEncoder,
    SegmentMeasurement,
    SyntheticEncoder,
    SyntheticLaw,
    config_row_key,
    default_law,
    encode_batch,
    read_sweep_table,
    synth_encode,
    write_sweep_table,
)
from segenc.media import RawVideo, make_segments

import lossy_codec
from smaps import PAGE, mapped_rss, needs_smaps

B6 = REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]


class TestGrids:
    def test_x265_has_200_configs(self):
        configs = CODEC_GRIDS["x265"].configs()
        assert len(configs) == 200
        assert len(set(configs)) == 200

    def test_svt_av1_has_240_configs(self):
        configs = CODEC_GRIDS["svt-av1"].configs()
        assert len(configs) == 240
        assert len(set(configs)) == 240

    def test_vp9_defaults_to_100_enumerable_configs(self):
        configs = CODEC_GRIDS["vp9"].configs()
        assert len(configs) == 100
        assert len(set(configs)) == 100

    def test_order_is_gop_then_qp_then_flags(self):
        configs = CODEC_GRIDS["vp9"].configs()
        gops = [c.gop for c in configs]
        assert gops == sorted(gops, key=gops.index)  # grouped by GOP
        first_gop = [c for c in configs if c.gop == configs[0].gop]
        qps = [c.qp for c in first_gop]
        assert qps == sorted(qps)

    def test_stable_across_calls(self):
        assert CODEC_GRIDS["x265"].configs() == CODEC_GRIDS["x265"].configs()

    def test_qp_grids(self):
        assert {c.qp for c in CODEC_GRIDS["x265"].configs()} == set(range(16, 44, 3))
        assert {c.qp for c in CODEC_GRIDS["svt-av1"].configs()} == set(range(16, 53, 4))

    def test_unknown_codec_rejected(self, small_video, tmp_path, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "run", no_process)
        commands = CodecCommands(encode="cp {input} {output}", decode="cp {input} {output}")
        for codec in ("h263", "synthetic"):  # the synthetic law is no process codec
            with pytest.raises(EncoderError, match=f"unknown codec '{codec}'"):
                ProcessEncoder(codec, commands, small_video, workdir=tmp_path / "w")
        assert not (tmp_path / "w").exists()  # raised before the workdir is made


class TestSyntheticLaw:
    def test_default_law_bits_at_qp28(self):
        law = default_law()
        expected = math.exp(15.946 - 0.304 * 28 + 0.0024092 * 28 * 28)
        assert law.value("B6", "bits", 28) == pytest.approx(expected, rel=1e-12)
        assert abs(expected - 11188.0) / 11188.0 < 0.005

    def test_encode_is_deterministic(self):
        enc = SyntheticEncoder()
        seg = make_segments(150, 50)[0]
        cfg = enc.grid().configs()[7]
        assert synth_encode(cfg, enc.law, seg) == synth_encode(cfg, enc.law, seg)

    def test_bitrate_strictly_decreasing_in_qp(self):
        enc = SyntheticEncoder()
        seg = make_segments(150, 50)[0]
        rates = [
            synth_encode(cfg, enc.law, seg).bitrate
            for cfg in enc.grid().configs()
            if not cfg.filters_on
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_unknown_gop_rejected(self):
        enc = SyntheticEncoder()
        seg = make_segments(150, 50)[0]
        bad = EncodingConfig("synthetic", "B99", 28, (("deblock", False),))
        with pytest.raises(EncoderError, match="unknown GOP"):
            synth_encode(bad, enc.law, seg)

    def test_increasing_bits_law_rejected(self):
        with pytest.raises(EncoderError, match="strictly decreasing"):
            SyntheticLaw({"G": {"psnr": (3.8, -0.01, 0.0),
                                "bits": (10.0, 0.05, 0.0),
                                "enc_rate": (2.0, 0.01, 0.0)}})

    def test_filter_offsets_shift_objectives(self):
        law = SyntheticLaw(
            {"B6": B6}, filter_offsets={"bits": 250.0, "psnr": 0.4}
        )
        seg = make_segments(150, 50)[0]
        off = synth_encode(EncodingConfig("synthetic", "B6", 28, (("deblock", False),)), law, seg)
        on = synth_encode(EncodingConfig("synthetic", "B6", 28, (("deblock", True),)), law, seg)
        assert on.bitrate - off.bitrate == pytest.approx(250.0)
        assert on.quality_psnr - off.quality_psnr == pytest.approx(0.4)

    def test_pure_function_of_inputs(self):
        law_a = default_law()
        law_b = default_law()
        seg = make_segments(150, 50)[0]
        cfg = EncodingConfig("synthetic", "B6", 31, (("deblock", True),))
        assert synth_encode(cfg, law_a, seg) == synth_encode(cfg, law_b, seg)


STUB_CODEC = textwrap.dedent(
    """
    import shutil, sys
    args = sys.argv[1:]
    mode = args[0]
    if mode == "fail":
        sys.stderr.write("boom: simulated encoder crash\\n")
        sys.exit(9)
    src, dst = args[1], args[2]
    shutil.copyfile(src, dst)
    """
)


@pytest.fixture
def stub_commands(tmp_path):
    script = tmp_path / "stub_codec.py"
    script.write_text(STUB_CODEC)
    py = sys.executable
    return CodecCommands(
        encode=f"{py} {script} encode {{input}} {{output}}",
        decode=f"{py} {script} decode {{input}} {{output}}",
    )


@pytest.fixture
def small_video(rng):
    data = rng.integers(0, 256, size=(20, 8 * 8 * 3 // 2), dtype=np.uint8)
    return RawVideo(8, 8, 10, data)


class TestProcessEncoder:
    def test_identity_codec_round_trip(self, stub_commands, small_video, tmp_path):
        enc = ProcessEncoder("x265", stub_commands, small_video, workdir=tmp_path / "w")
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        cfg = CODEC_GRIDS["x265"].configs()[0]
        m = enc.encode(cfg, seg)
        # identity codec: payload is the raw segment, quality hits the cap
        assert m.quality_psnr == 100.0
        assert m.quality_ssim == pytest.approx(1.0)
        raw_bits = 8 * seg.frame_count * small_video.frame_size
        assert m.bitrate == pytest.approx(raw_bits / seg.duration_s / 1000.0)
        assert m.enc_rate > 0
        assert m.enc_time > 0

    def test_encoder_failure_carries_diagnostics(self, small_video, tmp_path):
        script = tmp_path / "stub_codec.py"
        script.write_text(STUB_CODEC)
        cmds = CodecCommands(
            encode=f"{sys.executable} {script} fail {{input}} {{output}}",
            decode=f"{sys.executable} {script} decode {{input}} {{output}}",
        )
        enc = ProcessEncoder("x265", cmds, small_video, workdir=tmp_path / "w")
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        with pytest.raises(EncoderError, match="exit 9") as info:
            enc.encode(CODEC_GRIDS["x265"].configs()[0], seg)
        assert "simulated encoder crash" in info.value.stderr

    def test_missing_template_rejected(self, small_video, tmp_path):
        enc = ProcessEncoder(
            "x265", CodecCommands(encode="", decode=None), small_video, workdir=tmp_path
        )
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        with pytest.raises(EncoderError, match="template"):
            enc.encode(CODEC_GRIDS["x265"].configs()[0], seg)

    def test_segment_out_of_range_rejected(self, stub_commands, small_video, tmp_path):
        enc = ProcessEncoder("x265", stub_commands, small_video, workdir=tmp_path / "w")
        bad = make_segments(500, 10, 3.0)[1]
        with pytest.raises(EncoderError, match="out of range"):
            enc.encode(CODEC_GRIDS["x265"].configs()[0], bad)


ARGV_LOGGING_CODEC = textwrap.dedent(
    """
    import shutil, sys
    mode, src, dst, log = sys.argv[1:5]
    with open(log, "a") as fh:
        fh.write(" ".join(sys.argv[1:4]) + "\\n")
    if mode == "truncate":  # exits cleanly with a partial frame
        open(dst, "wb").write(open(src, "rb").read()[:-7])
    elif mode != "lose":  # "lose" exits cleanly without writing its output
        shutil.copyfile(src, dst)
    """
)


@pytest.fixture
def logging_codec(tmp_path):
    script = tmp_path / "logging_codec.py"
    script.write_text(ARGV_LOGGING_CODEC)
    log = tmp_path / "argv.log"

    def commands(decode_mode="decode"):
        run = f"{sys.executable} {script}"
        return CodecCommands(
            encode=f"{run} encode {{input}} {{output}} {log}",
            decode=f"{run} {decode_mode} {{input}} {{output}} {log}",
        )

    return commands, log


class TestProcessEncoderFiles:
    def test_gop_types_never_share_a_path(self, logging_codec, small_video, tmp_path):
        commands, log = logging_codec
        enc = ProcessEncoder("x265", commands(), small_video, workdir=tmp_path / "w")
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        closed = CODEC_GRIDS["x265"].configs()[0]
        opened = dataclasses.replace(closed, gop_type="open")
        assert closed.gop_type == "closed"
        paths = {}
        for cfg in (closed, opened):
            start = len(log.read_text().splitlines()) if log.exists() else 0
            enc.encode(cfg, seg)
            argvs = log.read_text().splitlines()[start:]
            paths[cfg.gop_type] = {p for line in argvs for p in line.split()[1:]}
        assert paths["closed"] and paths["open"]
        assert not paths["closed"] & paths["open"]

    @pytest.mark.parametrize("decode_mode", ["lose", "truncate"])
    def test_unreadable_decode_is_an_encoder_error(
        self, logging_codec, small_video, tmp_path, decode_mode
    ):
        commands, _ = logging_codec
        enc = ProcessEncoder("x265", commands(decode_mode), small_video, workdir=tmp_path / "w")
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        with pytest.raises(EncoderError, match="decoded video"):
            enc.encode(CODEC_GRIDS["x265"].configs()[0], seg)

    def test_no_file_outlives_an_encode(self, stub_commands, small_video, tmp_path):
        workdir = tmp_path / "w"
        with ProcessEncoder("x265", stub_commands, small_video, workdir=workdir) as enc:
            seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
            enc.encode(CODEC_GRIDS["x265"].configs()[0], seg)
            assert list(workdir.iterdir()) == []
        assert workdir.is_dir()  # a workdir the caller gave stays

    def test_own_workdir_removed_on_close(self, stub_commands, small_video, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ProcessEncoder("x265", stub_commands, small_video) as enc:
            seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
            enc.encode(CODEC_GRIDS["x265"].configs()[0], seg)
            assert len(list(tmp_path.glob("segenc-*"))) == 1
        assert list(tmp_path.glob("segenc-*")) == []


class ThreadedFake(SyntheticEncoder):
    """Synthetic encodes on ``workers`` threads; records starts and concurrency."""

    def __init__(self, workers, fail_at=()):
        super().__init__()
        self.workers = workers
        self.fail_at = set(fail_at)
        self.lock = threading.Lock()
        self.started = []  # job indices, as the encodes begin
        self.running = self.most_running = 0

    def work(self, index):
        pass

    def encode(self, config, segment):
        index = self.grid().configs().index(config)
        with self.lock:
            self.started.append(index)
            self.running += 1
            self.most_running = max(self.most_running, self.running)
        try:
            self.work(index)
            if index in self.fail_at:
                raise EncoderError(f"job {index} failed")
            return super().encode(config, segment)
        finally:
            with self.lock:
                self.running -= 1


def batch_jobs(encoder):
    segment = make_segments(150, 50)[0]
    return [(c, segment) for c in encoder.grid().configs()]


class TestEncodeBatch:
    def test_results_in_submission_order_when_finishing_in_reverse(self):
        events = [threading.Event() for _ in range(4)]

        class Reverse(ThreadedFake):
            def work(self, index):  # each job waits for the one after it to end
                if index + 1 < len(events):
                    assert events[index + 1].wait(timeout=10)

            def encode(self, config, segment):
                try:
                    return super().encode(config, segment)
                finally:
                    events[self.grid().configs().index(config)].set()

        encoder = Reverse(workers=4)
        jobs = batch_jobs(encoder)[:4]
        results = list(encode_batch(encoder, jobs))
        assert [m.config for m in results] == [c for c, _ in jobs]

    def test_never_more_than_workers_under_way(self):
        workers = 6  # more than the cores of a small machine
        barrier = threading.Barrier(workers, timeout=10)

        class Crowded(ThreadedFake):
            def work(self, index):
                if index < workers:  # the first six must all be under way together
                    barrier.wait()

        encoder = Crowded(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(encode_batch(encoder, batch_jobs(encoder)))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(encoder.grid().configs())
        assert encoder.most_running == workers
        assert sorted(encoder.started) == list(range(len(encoder.grid().configs())))

    def test_a_failure_is_yielded_in_its_place(self):
        encoder = ThreadedFake(workers=3, fail_at={2, 7})
        results = list(encode_batch(encoder, batch_jobs(encoder)))
        assert [i for i, r in enumerate(results) if isinstance(r, EncoderError)] == [2, 7]
        assert "job 7 failed" in str(results[7])

    def test_stopping_at_a_failure_starts_no_later_job(self):
        encoder = ThreadedFake(workers=3, fail_at={5})
        with contextlib.closing(encode_batch(encoder, batch_jobs(encoder))) as results:
            for result in results:
                if isinstance(result, EncoderError):
                    break
        # jobs 6 and 7 were under way beside job 5; the close waited for them
        assert sorted(encoder.started) == list(range(8))
        assert encoder.running == 0

    def test_one_worker_encodes_each_job_in_the_callers_thread(self):
        threads = []

        class Recording(ThreadedFake):
            def work(self, index):
                threads.append(threading.get_ident())

        encoder = Recording(workers=1)
        jobs = batch_jobs(encoder)
        results = encode_batch(encoder, jobs)
        assert encoder.started == []  # nothing runs before a result is asked for
        first = next(results)
        assert encoder.started == [0]
        results = [first, *results]
        assert [m.config for m in results] == [c for c, _ in jobs]
        assert threads == [threading.get_ident()] * len(jobs)

    def test_one_worker_yields_a_failure_in_its_place(self):
        encoder = ThreadedFake(workers=1, fail_at={2, 7})
        results = list(encode_batch(encoder, batch_jobs(encoder)))
        assert [i for i, r in enumerate(results) if isinstance(r, EncoderError)] == [2, 7]
        assert "job 7 failed" in str(results[7])
        assert len(results) == len(encoder.grid().configs())

    def test_one_worker_stopping_at_a_failure_starts_no_later_job(self):
        encoder = ThreadedFake(workers=1, fail_at={5})
        with contextlib.closing(encode_batch(encoder, batch_jobs(encoder))) as results:
            for result in results:
                if isinstance(result, EncoderError):
                    break
        assert encoder.started == list(range(6))
        assert encoder.most_running == 1 and encoder.running == 0

    def test_process_encoder_workers_fill_the_usable_cores(self, small_video, tmp_path, monkeypatch):
        monkeypatch.setattr(encoders, "usable_cores", lambda: 8)
        commands = CodecCommands(encode="true")
        assert ProcessEncoder("vp9", commands, small_video, workdir=tmp_path).workers == 8
        assert ProcessEncoder("vp9", commands, small_video, workdir=tmp_path, threads=3).workers == 2
        assert ProcessEncoder("vp9", commands, small_video, workdir=tmp_path, threads=9).workers == 1


PRESET_LOGGING_CODEC = textwrap.dedent(
    """
    import shutil, sys
    src, dst, log, preset = sys.argv[1:5]
    with open(log, "a") as fh:
        fh.write(preset + "\\n")
    shutil.copyfile(src, dst)
    """
)


@needs_smaps
def test_only_the_segment_being_encoded_is_resident(rng, tmp_path, monkeypatch):
    width = height = 64
    fps, frames = 4, 24
    path = tmp_path / "clip.yuv"
    rng.integers(0, 256, (frames, width * height * 3 // 2), dtype=np.uint8).tofile(path)
    video = RawVideo.from_file(path, width, height, fps)
    segments = make_segments(frames, fps, 1.0)
    segment_bytes = fps * video.frame_size
    resident = []
    real = encoders.media.psnr_global

    def spy(ref, dist):  # the encode holds its segment here, written out and decoded
        resident.append(mapped_rss(path))
        return real(ref, dist)

    monkeypatch.setattr(encoders.media, "psnr_global", spy)
    run = f"{sys.executable} -S {lossy_codec.__file__}"
    commands = CodecCommands(
        encode=f"{run} enc {{input}} {{output}} {{qp}}",
        decode=f"{run} dec {{input}} {{output}} {{qp}}",
    )
    with ProcessEncoder("vp9", commands, video, workdir=tmp_path / "w") as enc:
        config = enc.grid().configs()[0]
        for segment in segments:
            enc.encode(config, segment)
    assert len(resident) == len(segments)
    assert max(resident) <= segment_bytes + 2 * PAGE
    assert mapped_rss(path) <= segment_bytes


class TestPlaceholders:
    def test_preset_reaches_the_templates(self, small_video, tmp_path):
        script = tmp_path / "preset_codec.py"
        script.write_text(PRESET_LOGGING_CODEC)
        log = tmp_path / "preset.log"
        run = f"{sys.executable} {script}"
        commands = CodecCommands(
            encode=f"{run} {{input}} {{output}} {log} {{preset}}",
            decode=f"{run} {{input}} {{output}} {log} {{preset}}",
        )
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        cfg = CODEC_GRIDS["vp9"].configs()[0]
        with ProcessEncoder("vp9", commands, small_video, workdir=tmp_path / "w") as enc:
            enc.encode(cfg, seg)
        assert log.read_text().splitlines() == ["rt", "rt"]

    @pytest.mark.parametrize("kind, template, message", [
        ("encode", "cp {input} {outptu}", "unknown placeholder 'outptu'"),
        ("decode", "cp {input} {output} {qpp}", "unknown placeholder 'qpp'"),
        ("vmaf", "vmaf {reference} {distorted} {input}", "unknown placeholder 'input'"),
        ("encode", "enc {input} {output} {sao}", "unknown placeholder 'sao'"),  # not a vp9 filter
        ("encode", "enc {input} {output:{widht}}", "unknown placeholder 'widht'"),
        ("encode", "enc {} {input} {output}", "unknown placeholder ''"),
        ("encode", "cp {input} '{output}", "No closing quotation"),
        ("decode", "cp {input {output}", "expected '}'"),
    ], ids=["typo", "typo-in-decode", "input-in-vmaf", "other-codec-filter", "nested",
            "positional", "open-quote", "open-brace"])
    def test_template_is_checked_when_the_encoder_is_built(self, small_video, tmp_path,
                                                           kind, template, message):
        templates = {"encode": "cp {input} {output}", "decode": "cp {input} {output}",
                     kind: template}
        with pytest.raises(EncoderError) as info:
            ProcessEncoder("vp9", CodecCommands(**templates), small_video, workdir=tmp_path / "w")
        assert f"{kind} template {template!r}" in str(info.value)
        assert message in str(info.value)
        assert not (tmp_path / "w").exists()  # raised before the workdir is made

    def test_every_filter_of_the_codec_is_a_placeholder(self, small_video, tmp_path):
        commands = CodecCommands(encode="enc {input} {output} {deblock} {sao} {qp:02d}")
        ProcessEncoder("x265", commands, small_video, workdir=tmp_path)

    def test_templates_are_split_once(self, stub_commands, small_video, tmp_path, monkeypatch):
        enc = ProcessEncoder("x265", stub_commands, small_video, workdir=tmp_path / "w")
        split_again = []
        monkeypatch.setattr(encoders.shlex, "split", split_again.append)
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        for cfg in CODEC_GRIDS["x265"].configs()[:2]:
            enc.encode(cfg, seg)
        assert split_again == []

    @pytest.mark.parametrize("codec", ["x265", "vp9", "svt-av1"])
    def test_module_docstring_lists_every_placeholder(self, codec, small_video, tmp_path):
        enc = ProcessEncoder(codec, CodecCommands(encode=""), small_video, workdir=tmp_path)
        seg = make_segments(small_video.frame_count, small_video.fps, 1.0)[0]
        for cfg in CODEC_GRIDS[codec].configs():
            paths = dict.fromkeys(("input", "output", "reference", "distorted", "log"), "")
            for name in enc._substitutions(cfg, seg, **paths):
                assert f"``{{{name}}}``" in encoders.__doc__


class TestMeasurementAndSweepIO:
    def test_invalid_measurement_rejected(self):
        cfg = EncodingConfig("synthetic", "B6", 28, (("deblock", True),))
        with pytest.raises(EncoderError):
            SegmentMeasurement(cfg, 0, bitrate=-1.0, quality_psnr=40.0,
                               quality_vmaf=95.0, enc_rate=30.0, enc_time=5.0)

    @pytest.mark.parametrize("field", ["bitrate", "enc_rate"])
    def test_nan_measurement_rejected(self, field):
        cfg = EncodingConfig("synthetic", "B6", 28, (("deblock", True),))
        values = dict(bitrate=1000.0, quality_psnr=40.0, quality_vmaf=None,
                      enc_rate=30.0, enc_time=5.0)
        values[field] = math.nan
        with pytest.raises(EncoderError, match="must be positive"):
            SegmentMeasurement(cfg, 0, **values)

    @pytest.mark.parametrize("rows", [
        [  # x265: open and closed GOPs, joint filter axes, no VMAF
            "0\tx265\tZL\tclosed\t16\tdeblock=off,sao=off\t2.304\t100\t-\t647.828\t0.00463086\t0",
            "0\tx265\tB3\topen\t43\tdeblock=on,sao=on\t1.5e+06\t31.0625\t-\t1372.49\t0.00218581\t1",
        ],
        [  # svt-av1: two independent filter axes
            "0\tsvt-av1\tHL3ALT0\t-\t16\tdeblock=off,restoration=on\t2.304\t100\t-\t1222.41\t0.00245416\t0",
            "3\tsvt-av1\tHL4ALT8\t-\t52\tdeblock=on,restoration=off\t0.125\t28.5\t-\t1755.61\t0.00170881\t1",
        ],
        [  # vp9 with VMAF; a zero-time encode's infinite rate
            "0\tvp9\tALT0\t-\t16\tdeblock=off\t2.304\t100\t91.25\tinf\t0\t1",
            "0\tvp9\tALT6\t-\t52\tdeblock=on\t1.152\t36.25\t0\t973.069\t0.00308303\t0",
        ],
        [  # rows written without Pareto flags
            "1\tsynthetic\tB6\t-\t16\tdeblock=off\t17553.3\t44.3171\t-\t34.7214\t4.32011\t-",
            "1\tsynthetic\tB6\t-\t16\tdeblock=on\t17603.3\t44.3671\t-\t34.2214\t4.38323\t-",
        ],
    ], ids=["x265-open-closed", "svt-av1-two-axes", "vp9-vmaf-inf-fps", "no-flags"])
    def test_rewriting_a_read_table_gives_the_same_bytes(self, tmp_path, rows):
        text = "".join(line + "\n" for line in (
            encoders.SWEEP_HEADER, "\t".join(encoders.SWEEP_COLUMNS), *rows))
        path = tmp_path / "sweep.tsv"
        path.write_text(text)
        write_sweep_table(path, read_sweep_table(path))
        assert path.read_text() == text

    def test_sweep_table_roundtrip(self, tmp_path):
        enc = SyntheticEncoder()
        seg = make_segments(150, 50)[0]
        rows = [enc.encode(cfg, seg) for cfg in enc.grid().configs()]
        path = tmp_path / "sweep.tsv"
        write_sweep_table(path, [(m, True) for m in rows])
        back = read_sweep_table(path)
        assert len(back) == len(rows)
        assert {config_row_key(m.segment_index, m.config) for m, _ in back} == {
            config_row_key(m.segment_index, m.config) for m in rows
        }
        assert {flag for _, flag in back} == {True}
        assert back[0][0].bitrate == pytest.approx(rows[0].bitrate, rel=1e-5)

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:10], "sweep.tsv:4: 10 cells"),
        (lambda cells: cells[:6] + ["fast"] + cells[7:], "sweep.tsv:4: could not convert"),
    ], ids=["short-row", "not-a-number"])
    def test_bad_row_is_rejected_naming_the_line(self, tmp_path, edit, message):
        enc = SyntheticEncoder()
        seg = make_segments(150, 50)[0]
        path = tmp_path / "sweep.tsv"
        write_sweep_table(path, [(enc.encode(cfg, seg), None) for cfg in enc.grid().configs()[:3]])
        lines = path.read_text().splitlines()
        lines[3] = "\t".join(edit(lines[3].split("\t")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EncoderError, match=message):
            read_sweep_table(path)

    def test_grid_for_synthetic_matches_law(self):
        grid = default_law().grid()
        assert grid.gops == ("B6",)
        assert grid.qp_bounds == (16, 45)
