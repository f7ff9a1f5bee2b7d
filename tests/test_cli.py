import json
import math
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from segenc import cli, encoders, media
from segenc.cli import main
from segenc.bd import write_rd_file
from segenc.encoders import (
    SyntheticEncoder,
    config_row_key,
    read_sweep_table,
    table_measurement,
    write_sweep_table,
)
from segenc.media import RawVideo, make_segments
from segenc.pareto import front_flags, measured_points

import lossy_codec
import refmetrics
from smaps import PAGE, mapped_rss, needs_smaps
from refdata import RD_POINTS_LOW_DELAY


def run_cli(*args):
    return main([str(a) for a in args])


class TestSweep:
    def test_synthetic_sweep_writes_grid_records(self, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        code = run_cli("sweep", "--codec", "synthetic", "--frames", 150,
                       "--fps", 50, "--out", out)
        assert code == 0
        rows = read_sweep_table(out)
        assert len(rows) == 20  # 1 GOP x 10 QPs x 2 filter settings
        assert {flag for _, flag in rows} <= {False, True}
        assert any(flag for _, flag in rows)

    def test_rerun_is_idempotent(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50, "--out", out)
        first = out.read_text()
        code = run_cli("sweep", "--codec", "synthetic", "--frames", 150,
                       "--fps", 50, "--out", out)
        assert code == 0
        assert out.read_text() == first

    def test_multi_segment_sweep(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        run_cli("sweep", "--codec", "synthetic", "--frames", 500, "--fps", 50, "--out", out)
        rows = read_sweep_table(out)
        assert {m.segment_index for m, _ in rows} == {0, 1, 2, 3}
        assert len(rows) == 80

    def test_resume_flags_the_whole_segment(self, tmp_path):
        sweep = ("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50, "--segment", 0)
        fresh = tmp_path / "fresh.tsv"
        assert run_cli(*sweep, "--out", fresh) == 0
        want = {config_row_key(0, m.config): flag for m, flag in read_sweep_table(fresh)}

        # a sweep that died midway: the rows off the front and three on it,
        # flagged over those rows alone
        encoder = SyntheticEncoder()
        segment = make_segments(150, 50)[0]
        measured = {config_row_key(0, c): encoder.encode(c, segment)
                    for c in encoder.grid().configs()}
        off = [m for key, m in measured.items() if not want[key]]
        on = [m for key, m in measured.items() if want[key]][:3]
        resumed = tmp_path / "resumed.tsv"
        flags = front_flags(measured_points(off + on, "psnr"))
        write_sweep_table(resumed, zip(map(table_measurement, off + on), flags))
        partial = {config_row_key(0, m.config): flag for m, flag in read_sweep_table(resumed)}
        assert any(partial[key] != want[key] for key in partial)

        assert run_cli(*sweep, "--out", resumed) == 0
        assert {config_row_key(0, m.config): flag
                for m, flag in read_sweep_table(resumed)} == want


    def test_parallel_process_sweep_loses_no_config(self, tmp_path, capsys, monkeypatch):
        # x265 closed- and open-GOP encodes of one segment run side by side
        # here, four at once on any machine; they once shared temp paths and
        # lost or aborted encodes
        monkeypatch.setattr(encoders, "usable_cores", lambda: 4)
        np.random.default_rng(3).integers(0, 256, (3, 96), dtype=np.uint8).tofile(tmp_path / "clip.yuv")
        run = "cp {input} {output}"  # a copy codec that starts fast: 400 runs here
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"x265": {"encode": run, "decode": run}}}))
        out = tmp_path / "sweep.tsv"
        code = run_cli("sweep", "--codec", "x265", "--video", tmp_path / "clip.yuv",
                       "--width", 8, "--height", 8, "--fps", 3, "--config", config,
                       "--out", out)
        assert code == 0
        assert len({config_row_key(m.segment_index, m.config)
                    for m, _ in read_sweep_table(out)}) == 200

    def test_unknown_placeholder_fails_once_before_any_encode(self, tmp_path, capsys):
        # a typo once failed every encode of the sweep, one line each, and
        # left a table with its header only
        np.random.default_rng(3).integers(0, 256, (6, 96), dtype=np.uint8).tofile(tmp_path / "clip.yuv")
        template = "cp {input} {output} {qpp}"
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"vp9": {
            "encode": template, "decode": "cp {input} {output}"}}}))
        out = tmp_path / "sweep.tsv"
        code = run_cli("sweep", "--codec", "vp9", "--video", tmp_path / "clip.yuv",
                       "--width", 8, "--height", 8, "--fps", 3, "--segment-seconds", 1,
                       "--config", config, "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"encoder error: encode template {template!r}: unknown placeholder 'qpp'"]
        assert not out.exists()


class TestOptimize:
    def test_max_quality_summary_gain_non_negative(self, tmp_path, capsys):
        decisions = tmp_path / "decisions.jsonl"
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 500, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 11205.77,
            "--min-fps", 25, "--decisions", decisions, "--baseline-bitrate-kbps", 11205.77,
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Overall Bitrate Gain" in text
        gain_line = [l for l in text.splitlines() if l.strip().endswith(("dB | -",)) or "%" in l]
        records = [json.loads(l) for l in decisions.read_text().splitlines()[1:]]
        assert all(r["qp"] == 28 for r in records)
        gain = float(text.split("Overall Bitrate Gain | Overall PSNR | Overall VMAF")[1]
                     .strip().split("%")[0])
        assert gain >= 0.0

    @pytest.mark.parametrize("baseline, encodes", [
        ((), 20 + 19),
        (("--baseline-bitrate-kbps", 3000), 20 + 19 + 20),
    ], ids=["bound-only", "baseline-asked"])
    def test_baseline_encodes_only_when_asked(self, monkeypatch, capsys, baseline, encodes):
        # a bitrate bound alone once ran the constant-QP baseline too: a
        # second encode of every segment
        calls = []

        class Counting(SyntheticEncoder):
            def encode(self, config, segment):
                calls.append(segment.index)
                return super().encode(config, segment)

        monkeypatch.setattr(cli, "SyntheticEncoder", Counting)
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 3000, "--fps", 50,
                       "--mode", "max_quality", "--max-bitrate-kbps", 3000, "--min-fps", 25,
                       *baseline)
        assert code == 0
        assert len(calls) == encodes  # grid + (segments - 1) [+ segments]
        assert ("Overall Bitrate Gain" in capsys.readouterr().out) == bool(baseline)

    def test_jnd_offset_reduces_vmaf_bound(self, capsys):
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 300, "--fps", 50,
            "--mode", "min_bitrate", "--reference-vmaf", 96.0, "--jnd-offset", 6,
            "--min-fps", 25,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average bitrate" in out

    def test_missing_required_bound_is_usage_error(self, capsys):
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 300,
                       "--fps", 50, "--mode", "max_quality")
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--min-vmaf", 90, "--reference-vmaf", 95, "--jnd-offset", 20),
        ("--min-quality-db", 30, "--reference-vmaf", 95),
        ("--min-vmaf", 90, "--jnd-offset", 5),
    ], ids=["min-vmaf-and-jnd-floor", "reference-without-offset", "offset-without-reference"])
    def test_vmaf_floor_flags_that_do_not_fit_are_usage_errors(self, capsys, flags):
        # the first two ran with exit 0 on one floor and dropped the other flags
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 300, "--fps", 50,
                       "--mode", "min_bitrate", "--min-fps", 1, *flags)
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_ssim_schedule_on_synthetic_is_data_error(self, tmp_path, capsys):
        schedule = {
            "version": 1,
            "regions": [{"start_frame": 0, "end_frame": 300, "constraints": {
                "mode": "min_bitrate", "min_quality": 0.9,
                "quality_metric": "ssim", "max_time_s": 10.0}}],
        }
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 300, "--fps", 50,
            "--mode", "min_bitrate", "--min-quality-db", 38.0, "--min-fps", 25,
            "--constraint-schedule", path,
        )
        assert code == 2
        assert "ssim" in capsys.readouterr().err

    def test_psnr_schedule_switches_bounds(self, tmp_path, capsys):
        from segenc import default_law

        law = default_law()
        schedule = {
            "version": 1,
            "regions": [
                {"start_frame": 0, "end_frame": 300, "constraints": {
                    "mode": "min_bitrate", "min_fps": 25.0,
                    "min_quality": law.value("B6", "psnr", 29), "quality_metric": "psnr"}},
                {"start_frame": 300, "end_frame": 500, "constraints": {
                    "mode": "min_bitrate", "min_fps": 25.0,
                    "min_quality": law.value("B6", "psnr", 32), "quality_metric": "psnr"}},
            ],
        }
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(schedule))
        decisions = tmp_path / "decisions.jsonl"
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 500, "--fps", 50,
            "--mode", "min_bitrate", "--min-quality-db", 38.0, "--min-fps", 25,
            "--constraint-schedule", path, "--decisions", decisions,
        )
        assert code == 0
        records = [json.loads(l) for l in decisions.read_text().splitlines()[1:]]
        # segments start at frames 0/150/300/450: the last two fall in the
        # relaxed region and may drop to the higher QP
        assert records[1]["qp"] == 29
        assert records[2]["qp"] == 32
        assert records[3]["qp"] == 32


class TestMalformedProjectConfig:
    @pytest.mark.parametrize("cfg", [
        {"tolerances": {"tol_bitrate": "x"}},
        {"tolerances": {"tol_bitrate": None}},
        {"tolerances": 3},
        [1, 2],
    ], ids=["string-tolerance", "null-tolerance", "tolerances-not-object", "not-object"])
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, cfg):
        path = tmp_path / "project.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 100, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
            "--config", path,
        )
        assert code == 2
        assert str(path) in capsys.readouterr().err


class TestProjectConfigCodecs:
    @pytest.mark.parametrize("codecs", [
        3,
        {"vp9": 3},
        {"vp9": {"decode": "cp {input} {output}"}},
        {"vp9": {"encode": "cp {input} {output}", "transcode": "x"}},
    ], ids=["not-object", "entry-not-object", "no-encode", "unknown-template"])
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, codecs):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"codecs": codecs}))
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(bytes(6 * 10))  # ten 2x2 frames
        code = run_cli(
            "optimize", "--codec", "vp9", "--video", clip, "--width", 2, "--height", 2,
            "--fps", 5, "--segment-seconds", 1, "--mode", "max_quality",
            "--max-bitrate-kbps", 9000, "--min-fps", 20, "--config", path,
        )
        assert code == 2
        assert str(path) in capsys.readouterr().err


    @pytest.mark.parametrize("commands, template", [
        ({"encode": 3}, "encode"),
        ({"encode": None}, "encode"),
        ({"encode": "cp {input} {output}", "decode": 3}, "decode"),
        ({"encode": "cp {input} {output}", "vmaf": ["x"]}, "vmaf"),
    ], ids=["encode-number", "encode-null", "decode-number", "vmaf-list"])
    def test_template_not_a_string_names_codec_and_template(
        self, tmp_path, capsys, commands, template
    ):
        # an encode template of 3 used to reach shlex.split: AttributeError, a traceback
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"codecs": {"vp9": commands}}))
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(bytes(6 * 10))  # ten 2x2 frames
        code = run_cli(
            "optimize", "--codec", "vp9", "--video", clip, "--width", 2, "--height", 2,
            "--fps", 5, "--segment-seconds", 1, "--mode", "max_quality",
            "--max-bitrate-kbps", 9000, "--min-fps", 20, "--config", path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'vp9'" in err and f"{template} template" in err


class TestProjectConfigTolerances:
    def run_optimize(self, tmp_path, monkeypatch, tolerances, *flags):
        seen = []
        real = cli.controller.run_segment_loop

        def spy(encoder, segments, constraints, **kwargs):
            seen.append(constraints)
            return real(encoder, segments, constraints, **kwargs)

        monkeypatch.setattr(cli.controller, "run_segment_loop", spy)
        path = tmp_path / "project.json"
        path.write_text(json.dumps({"tolerances": tolerances}))
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 300, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
            "--config", path, *flags,
        )
        return code, seen

    def test_config_tolerance_reaches_optimize(self, tmp_path, monkeypatch):
        code, seen = self.run_optimize(tmp_path, monkeypatch, {"tol_bitrate": 0.2, "tol_fps": 0.3})
        assert code == 0
        assert seen[0].tolerances() == {"tol_bitrate": 0.2, "tol_quality": 0.05, "tol_fps": 0.3}

    def test_flag_overrides_config(self, tmp_path, monkeypatch):
        code, seen = self.run_optimize(
            tmp_path, monkeypatch, {"tol_bitrate": 0.2, "tol_quality": 0.3},
            "--tolerance-bitrate", 0.01,
        )
        assert code == 0
        assert seen[0].tolerances() == {"tol_bitrate": 0.01, "tol_quality": 0.3, "tol_fps": 0.1}

    def test_unknown_tolerance_is_data_error_naming_the_file(self, tmp_path, monkeypatch, capsys):
        code, seen = self.run_optimize(tmp_path, monkeypatch, {"tol_speed": 0.1})
        assert code == 2
        assert not seen
        err = capsys.readouterr().err
        assert str(tmp_path / "project.json") in err and "tol_speed" in err

    @pytest.mark.parametrize("tol", [False, True, "0.1", None, float("nan")],
                             ids=["false", "true", "string", "null", "nan"])
    def test_tolerance_not_a_real_is_data_error_naming_the_file(
        self, tmp_path, monkeypatch, capsys, tol
    ):
        # false was read as a zero band
        code, seen = self.run_optimize(tmp_path, monkeypatch, {"tol_bitrate": tol})
        assert code == 2
        assert not seen
        err = capsys.readouterr().err
        assert str(tmp_path / "project.json") in err and "tol_bitrate" in err


class TestProjectConfigWorkers:
    """The config's ``threads`` (once ``workers``): threads inside one encoder."""

    def write_config(self, tmp_path, threads, key="threads"):
        path = tmp_path / "project.json"
        path.write_text(json.dumps({key: threads, "codecs": {"vp9": {"encode": "true"}}}))
        return path

    def optimize(self, path):
        return run_cli(
            "optimize", "--codec", "synthetic", "--frames", 100, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
            "--config", path,
        )

    @pytest.mark.parametrize("threads", ["x", -2, 0, 1.5, True, None],
                             ids=["string", "negative", "zero", "float", "bool", "null"])
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, threads):
        path = self.write_config(tmp_path, threads)
        assert self.optimize(path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "threads" in err

    def test_old_key_is_data_error_naming_the_new(self, tmp_path, capsys):
        path = self.write_config(tmp_path, 3, key="workers")
        assert self.optimize(path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "threads" in err

    def test_positive_int_reaches_the_encoder(self, tmp_path):
        cfg = cli._load_project_config(str(self.write_config(tmp_path, 3)))
        args = cli.build_parser().parse_args(["sweep", "--codec", "vp9", "--out", "x"])
        video = RawVideo(2, 2, 5, np.zeros((1, 6), dtype=np.uint8))
        with cli._make_encoder(args, cfg, video) as encoder:
            assert encoder.threads == 3


class TestWorkersFlag:
    """No command takes ``--workers``: the encoder works out how many encodes run at once."""

    def test_optimize_rejects_it(self, capsys):
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                       "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
                       "--workers", 2)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--workers" in err

    def test_sweep_rejects_it(self, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        assert run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                       "--workers", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--workers" in err
        assert not out.exists()


class TestMalformedSchedule:
    @pytest.mark.parametrize("text, message", [
        ('{"regions": [', "Expecting"),
        ('{"regions": [{"start_frame": 0, "constraints": {"mode": "max_quality", '
         '"max_bitrate_kbps": 9000, "min_fps": 20}}]}', "end_frame"),
    ], ids=["bad-json", "missing-key"])
    def test_is_data_error_naming_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        code = run_cli(
            "optimize", "--codec", "synthetic", "--frames", 100, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
            "--constraint-schedule", path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err


class TestScheduleGaps:
    """A segment takes its first frame's region; past every region, the one ending last."""

    @staticmethod
    def write_schedule(tmp_path, *regions):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"version": 1, "regions": [
            {"start_frame": start, "end_frame": end, "constraints": {
                "mode": "max_quality", "max_bitrate_kbps": kbps, "min_fps": 20}}
            for start, end, kbps in regions]}))
        return path

    @staticmethod
    def optimize(schedule, frames, *extra):
        return run_cli("optimize", "--codec", "synthetic", "--frames", frames, "--fps", 50,
                       "--segment-seconds", 1, "--mode", "max_quality",
                       "--max-bitrate-kbps", 9000, "--min-fps", 20,
                       "--constraint-schedule", schedule, *extra)

    @pytest.mark.parametrize("regions, frame", [
        (((0, 100, 9000), (200, 300, 3000)), 100),  # took the last region's 3000 kbps
        (((50, 300, 9000),), 0),
    ], ids=["between-regions", "before-the-first"])
    def test_segment_outside_every_region_is_data_error(self, tmp_path, capsys, regions, frame):
        schedule = self.write_schedule(tmp_path, *regions)
        assert self.optimize(schedule, 300) == 2
        err = capsys.readouterr().err
        assert str(schedule) in err and f"frame {frame}" in err

    def test_segment_past_every_region_takes_the_last(self, tmp_path, capsys, monkeypatch):
        applied = {}
        schedule_fn = cli._schedule_fn

        def recording(path):
            lookup = schedule_fn(path)

            def record(segment):
                constraints = lookup(segment)
                applied[segment.start] = constraints.max_bitrate_kbps
                return constraints

            return record

        monkeypatch.setattr(cli, "_schedule_fn", recording)
        schedule = self.write_schedule(tmp_path, (0, 100, 9000), (100, 200, 3000))
        assert self.optimize(schedule, 300) == 0
        assert applied == {0: 9000, 50: 9000, 100: 3000, 150: 3000, 200: 3000, 250: 3000}

    @pytest.mark.parametrize("regions, message", [
        (((0, 99.9, 9000),), "not an integer"),  # was truncated to 99
        (((True, 100, 9000),), "not an integer"),  # was read as frame 1
        (((0, 100, 9000), (150, 120, 3000)), "empty"),  # was kept
        (((-50, 100, 9000),), "empty"),
        (((0, 200, 9000), (100, 300, 3000)), "overlap"),  # the first listed won
        (((100, 300, 3000), (0, 200, 9000)), "overlap"),
    ], ids=["float-frame", "bool-frame", "empty-region", "negative-start",
            "overlap", "overlap-listed-later"])
    def test_malformed_region_is_data_error_naming_the_file(
        self, tmp_path, capsys, regions, message
    ):
        schedule = self.write_schedule(tmp_path, *regions)
        assert self.optimize(schedule, 300) == 2
        err = capsys.readouterr().err
        assert str(schedule) in err and message in err

    def test_segment_past_every_region_takes_the_one_ending_last(self, tmp_path):
        schedule = self.write_schedule(tmp_path, (100, 200, 5000), (0, 100, 1000))
        lookup = cli._schedule_fn(str(schedule))
        at = {start: lookup(media.Segment(0, start, start + 50, 1.0)).max_bitrate_kbps
              for start in (0, 50, 100, 150, 200, 250)}
        assert at == {0: 1000, 50: 1000, 100: 5000, 150: 5000, 200: 5000, 250: 5000}


class TestProcessPath:
    """``optimize`` through ProcessEncoder with the lossy stand-in codec."""

    WIDTH, HEIGHT, FRAMES, FPS = 64, 64, 12, 4

    def write_clip(self, path, rng):
        ys, xs = np.mgrid[0 : self.HEIGHT, 0 : self.WIDTH]
        luma = 60 + 2 * xs + ys
        size = self.WIDTH * self.HEIGHT
        frames = []
        for _ in range(self.FRAMES):
            y = np.clip(luma + rng.integers(-10, 11, luma.shape), 0, 255).astype(np.uint8)
            chroma = rng.integers(100, 156, size // 2, dtype=np.uint8)
            frames.append(np.concatenate([y.ravel(), chroma]))
        clip = np.stack(frames)
        clip.tofile(path)
        return clip

    def test_optimize_measures_every_decision_and_leaves_no_file(
        self, tmp_path, rng, monkeypatch, capsys
    ):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        measured = {}

        class Recording(cli.ProcessEncoder):
            def encode(self, config, segment):
                m = super().encode(config, segment)
                measured[segment.index, config] = m
                return m

        monkeypatch.setattr(cli, "ProcessEncoder", Recording)
        clip = self.write_clip(tmp_path / "clip.yuv", rng)
        run = f"{sys.executable} -S {lossy_codec.__file__}"
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"vp9": {
            "encode": f"{run} enc {{input}} {{output}} {{qp}}",
            "decode": f"{run} dec {{input}} {{output}} {{qp}}",
        }}}))
        decisions = tmp_path / "decisions.jsonl"
        code = run_cli(
            "optimize", "--codec", "vp9", "--video", tmp_path / "clip.yuv",
            "--width", self.WIDTH, "--height", self.HEIGHT, "--fps", self.FPS,
            "--segment-seconds", 1, "--config", config,
            "--mode", "min_bitrate", "--min-quality-db", 30.0, "--min-fps", 0.01,
            "--decisions", decisions,
        )
        assert code == 0
        records = [json.loads(line) for line in decisions.read_text().splitlines()[1:]]
        assert [r["segment"] for r in records] == [0, 1, 2]
        for rec in records:
            assert not rec["failed"]
            [m] = [m for (i, c), m in measured.items() if i == rec["segment"]
                   and (c.gop, c.qp, dict(c.filters)) == (rec["gop"], rec["qp"], rec["filters"])]
            assert rec["measured"]["psnr_db"] == m.quality_psnr
            quantize = lossy_codec.quantize_table(rec["qp"])
            reconstruct = lossy_codec.reconstruct_table(rec["qp"])
            codec_round_trip = np.frombuffer(bytes(reconstruct[q] for q in quantize), dtype=np.uint8)
            source = clip[rec["segment"] * self.FPS : (rec["segment"] + 1) * self.FPS]
            decoded = codec_round_trip[source]
            w, h = self.WIDTH, self.HEIGHT
            assert m.quality_psnr == pytest.approx(refmetrics.psnr611(source, decoded, w, h), abs=1e-9)
            assert m.quality_ssim == pytest.approx(refmetrics.ssim(source, decoded, w, h), abs=1e-9)
        assert list(tmpdir.iterdir()) == []

    def test_failed_bootstrap_encode_stops_the_grid(self, tmp_path, rng, monkeypatch, capsys):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        monkeypatch.setattr(encoders, "usable_cores", lambda: 2)
        started, left_at_close = [], []

        class Recording(cli.ProcessEncoder):
            def encode(self, config, segment):
                started.append(config)
                return super().encode(config, segment)

            def close(self):
                left_at_close.extend(self._workdir.iterdir())
                super().close()

        monkeypatch.setattr(cli, "ProcessEncoder", Recording)
        self.write_clip(tmp_path / "clip.yuv", rng)
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"vp9": {  # every QP 20 encode fails
            "encode": "sh -c 'test {qp} -ne 20 && cp {input} {output}'",
            "decode": "cp {input} {output}",
        }}}))
        code = run_cli(
            "optimize", "--codec", "vp9", "--video", tmp_path / "clip.yuv",
            "--width", self.WIDTH, "--height", self.HEIGHT, "--fps", self.FPS,
            "--segment-seconds", 1, "--config", config,
            "--mode", "min_bitrate", "--min-quality-db", 30.0, "--min-fps", 0.01,
        )
        assert code == 3
        assert "encoder error" in capsys.readouterr().err
        grid = encoders.CODEC_GRIDS["vp9"].configs()
        first_failure = next(i for i, c in enumerate(grid) if c.qp == 20)
        # two workers: the failing encode and the one beside it, nothing queued after
        assert sorted(started, key=grid.index) == grid[: first_failure + 2]
        assert left_at_close == []
        assert list(tmpdir.iterdir()) == []


def write_mv_pu_files(tmp_path, rng):
    from segenc.activity import synthetic_field

    mv_lines = []
    pu_lines = []
    track = synthetic_field("tracking", rng)
    zoom = synthetic_field("zoom", rng)
    for frame in range(150):
        if frame < 50:
            field, pu = track[:32], 900.0
        elif frame < 100:
            field, pu = np.zeros((32, 2)), 300.0
        else:
            field, pu = zoom[:64], 1200.0
        for i, (dx, dy) in enumerate(field):
            mv_lines.append(f"{frame} {i % 8} {i // 8} {dx:.4f} {dy:.4f}")
        pu_lines.append(f"{frame} {pu}")
    mv_path = tmp_path / "field.mv"
    pu_path = tmp_path / "pu.txt"
    mv_path.write_text("\n".join(mv_lines) + "\n")
    pu_path.write_text("\n".join(pu_lines) + "\n")
    return mv_path, pu_path


class TestClassify:
    def test_shields_style_schedule(self, tmp_path, rng, capsys):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            "tracking": {"mode": "min_bitrate", "min_quality": 0.88,
                         "quality_metric": "ssim", "max_time_s": 10.0},
            "stationary": {"mode": "min_bitrate", "min_quality": 0.94,
                           "quality_metric": "ssim", "max_time_s": 10.0},
            "zoom": {"mode": "min_bitrate", "min_quality": 0.94,
                     "quality_metric": "ssim", "max_time_s": 10.0},
        }))
        out = tmp_path / "schedule.json"
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path, "--out", out)
        assert code == 0
        schedule = json.loads(out.read_text())
        regions = schedule["regions"]
        assert [r["label"] for r in regions] == ["tracking", "stationary", "zoom"]
        assert [r["constraints"]["min_quality"] for r in regions] == [0.88, 0.94, 0.94]
        assert [(r["start_frame"], r["end_frame"]) for r in regions] == [
            (0, 50), (50, 100), (100, 150)
        ]

    def test_bins_selected_once_per_pair(self, tmp_path, rng, monkeypatch, capsys):
        from segenc import activity

        calls = []
        select_bins = activity.select_bins

        def counted(training, pair, **kwargs):
            calls.append(pair)
            return select_bins(training, pair, **kwargs)

        monkeypatch.setattr(activity, "select_bins", counted)
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in activity.LABELS
        }))
        out = tmp_path / "schedule.json"
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path, "--out", out)
        assert code == 0
        regions = json.loads(out.read_text())["regions"]
        assert [r["label"] for r in regions] == ["tracking", "stationary", "zoom"]
        assert sorted(calls) == sorted(activity.PAIRS)  # not once per region as well

    @pytest.mark.parametrize("rewrite", [
        lambda lines, rng: [lines[i] for i in rng.permutation(len(lines))],
        lambda lines, rng: [line.replace("\n", "\r\n") for line in lines],
        lambda lines, rng: [line.replace(" ", ",") for line in lines],
    ], ids=["shuffled", "crlf", "commas"])
    def test_mv_file_layout_leaves_the_schedule_unchanged(self, tmp_path, rng, capsys, rewrite):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        copy = tmp_path / "copy.mv"
        lines = mv_path.read_text().splitlines(keepends=True)
        copy.write_bytes("".join(rewrite(lines, rng)).encode())
        schedules = []
        for mv in (mv_path, copy):
            out = tmp_path / f"{mv.stem}.json"
            assert run_cli("classify", "--mv-file", mv, "--pu-file", pu_path,
                           "--policy", policy_path, "--out", out) == 0
            schedules.append(out.read_bytes())
        assert schedules[0] == schedules[1]

    @pytest.mark.parametrize("pu_frames, extra_mv, outside", [
        (100, "", 100),
        (150, "-3 0 0 1.0 1.0\n", -3),
        (150, "200 0 0 1.0 1.0\n-3 0 0 1.0 1.0\n", 200),  # the first in file order
    ], ids=["longer-clip", "negative-frame", "two-outside"])
    def test_mv_frame_outside_the_pu_series_is_data_error(self, tmp_path, rng, capsys,
                                                          pu_frames, extra_mv, outside):
        # before the check, the MV records of frames 100-149 were dropped
        # and the clip was classified over its first 100 frames alone
        mv_path, _ = write_mv_pu_files(tmp_path, rng)
        with mv_path.open("a") as f:
            f.write(extra_mv)
        pu_path = tmp_path / "short.txt"
        pu_path.write_text("".join(f"{f} 900\n" for f in range(pu_frames)))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path)
        assert code == 2
        err = capsys.readouterr().err
        assert str(mv_path) in err and f"MV frame {outside} " in err

    def test_empty_mv_file_is_data_error(self, tmp_path, capsys):
        mv_path = tmp_path / "field.mv"
        mv_path.write_text("# empty\n")
        pu_path = tmp_path / "pu.txt"
        pu_path.write_text("0 100\n1 100\n")
        policy_path = tmp_path / "policy.json"
        policy_path.write_text("{}")
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path)
        assert code == 2


class TestClassifyFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--k", 0), ("--k", -2),
        ("--pu-window", 0), ("--pu-window", -25),
        ("--pu-threshold", -0.3), ("--pu-threshold", "nan"),
    ], ids=["k-zero", "k-negative", "pu-window-zero", "pu-window-negative",
            "pu-threshold-negative", "pu-threshold-nan"])
    def test_out_of_range_is_usage_error_before_any_read(self, tmp_path, capsys, flag, value):
        # no input exists, so reading one first would be a data error (exit 2);
        # before the check, --k 0 and --pu-window 0 ended in tracebacks and
        # the negative values ran on, silently misread
        missing = tmp_path / "missing"
        code = run_cli("classify", "--mv-file", missing, "--pu-file", missing,
                       "--policy", missing, flag, value)
        assert code == 1
        assert flag in capsys.readouterr().err


class TestMalformedActivityFiles:
    @pytest.mark.parametrize("mv_text, pu_text, bad", [
        ("0 0 0 1.0 x\n", "0 100\n1 100\n", "mv"),
        ("0 0 0 1.0 2.0\n", "0 100\n0 abc\n", "pu"),
    ], ids=["mv-cell", "pu-cell"])
    def test_is_data_error_naming_file_and_line(self, tmp_path, capsys, mv_text, pu_text, bad):
        paths = {"mv": tmp_path / "field.mv", "pu": tmp_path / "pu.txt"}
        paths["mv"].write_text(mv_text)
        paths["pu"].write_text(pu_text)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text("{}")
        code = run_cli("classify", "--mv-file", paths["mv"], "--pu-file", paths["pu"],
                       "--policy", policy_path)
        assert code == 2
        line = 1 if bad == "mv" else 2
        assert f"{paths[bad]}:{line}:" in capsys.readouterr().err

    def test_pu_gap_is_data_error_naming_the_frame(self, tmp_path, rng, capsys):
        # before the check, the second run's frames 100-149 were read as 50-99
        mv_path, _ = write_mv_pu_files(tmp_path, rng)
        pu_path = tmp_path / "gap.txt"
        pu_path.write_text("".join(f"{f} 900\n" for f in range(50))
                           + "".join(f"{f} 300\n" for f in range(100, 150)))
        policy_path = tmp_path / "policy.json"
        policy_path.write_text("{}")
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path)
        assert code == 2
        err = capsys.readouterr().err
        assert str(pu_path) in err and "frame 50 is missing" in err


class TestMalformedPolicy:
    @pytest.mark.parametrize("text, message", [
        ('{"zoom": {"mode": ', "Expecting"),
        ('{"zoom": {"mode": "min_bitrate", "min_quality_db": 38.0, "min_fps": 25.0}}',
         "min_quality_db"),
    ], ids=["bad-json", "unknown-key"])
    def test_is_data_error_naming_the_file(self, tmp_path, rng, capsys, text, message):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(text)
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy_path)
        assert code == 2
        err = capsys.readouterr().err
        assert str(policy_path) in err and message in err


class TestBdrate:
    def rd_rows(self, codec, scale=1.0):
        return [
            {"codec": codec, "qp": qp, "bitrate_kbps": r * scale, "psnr611": q, "vmaf": v}
            for qp, (r, q, v) in zip((22, 27, 32, 37, 42), RD_POINTS_LOW_DELAY)
        ]

    def test_identical_codecs_read_zero(self, tmp_path, capsys):
        a = tmp_path / "a.rd"
        b = tmp_path / "b.rd"
        write_rd_file(a, self.rd_rows("one"))
        write_rd_file(b, self.rd_rows("two"))
        assert run_cli("bdrate", a, b) == 0
        out = capsys.readouterr().out
        assert "0.00%" in out

    def test_halved_bitrates_read_50_percent(self, tmp_path, capsys):
        a = tmp_path / "a.rd"
        b = tmp_path / "b.rd"
        write_rd_file(a, self.rd_rows("orig"))
        write_rd_file(b, self.rd_rows("half", scale=0.5))
        assert run_cli("bdrate", b, a) == 0
        out = capsys.readouterr().out
        assert "50.00%" in out

    def test_four_codec_matrix_layout(self, tmp_path, capsys):
        files = []
        for i, codec in enumerate(("vvc", "av1", "hevc", "vp9")):
            path = tmp_path / f"{codec}.rd"
            write_rd_file(path, self.rd_rows(codec, scale=1.0 + 0.3 * i))
            files.append(path)
        assert run_cli("bdrate", *files, "--axis", "vmaf") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Bitrate savings Relative to"
        assert len(lines) == 6

    def test_single_codec_is_data_error(self, tmp_path, capsys):
        a = tmp_path / "a.rd"
        write_rd_file(a, self.rd_rows("only"))
        assert run_cli("bdrate", a) == 2

    def test_files_without_vmaf(self, tmp_path, capsys):
        a = tmp_path / "a.rd"
        b = tmp_path / "b.rd"
        write_rd_file(a, [{**row, "vmaf": None} for row in self.rd_rows("one")])
        write_rd_file(b, [{**row, "vmaf": None} for row in self.rd_rows("two")])
        assert "\t-\n" in a.read_text()
        assert run_cli("bdrate", a, b, "--axis", "psnr611") == 0
        assert "0.00%" in capsys.readouterr().out
        assert run_cli("bdrate", a, b, "--axis", "vmaf") == 2
        assert "'one'" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [
        (lambda line: line.rsplit("\t", 1)[0], "b.rd:4: 4 cells"),
        (lambda line: line.replace("\t27\t", "\tqp27\t"), "b.rd:4: could not convert"),
    ], ids=["short-row", "not-a-number"])
    def test_bad_row_is_data_error_naming_the_line(self, tmp_path, capsys, cut, message):
        a = tmp_path / "a.rd"
        b = tmp_path / "b.rd"
        write_rd_file(a, self.rd_rows("one"))
        write_rd_file(b, self.rd_rows("two"))
        lines = b.read_text().splitlines()
        lines[3] = cut(lines[3])
        b.write_text("\n".join(lines) + "\n")
        assert run_cli("bdrate", a, b) == 2
        assert message in capsys.readouterr().err


class TestMetrics:
    def test_psnr_ssim_report(self, tmp_path, rng, capsys):
        data = rng.integers(0, 256, size=(4, 96), dtype=np.uint8)
        ref = tmp_path / "ref.yuv"
        data.tofile(ref)
        noisy = data.copy()
        noisy[:, :64] = np.clip(noisy[:, :64].astype(int) + 4, 0, 255).astype(np.uint8)
        dist = tmp_path / "dist.yuv"
        noisy.tofile(dist)
        code = run_cli("metrics", "--ref", ref, "--dist", dist,
                       "--width", 8, "--height", 8, "--fps", 25, "--json")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["psnr_u"] == 100.0
        assert 30.0 < report["psnr_y"] < 100.0
        expected = (6 * report["psnr_y"] + report["psnr_u"] + report["psnr_v"]) / 8
        assert report["psnr611"] == pytest.approx(expected)

    @needs_smaps
    def test_holds_one_frame_of_each_file(self, tmp_path, rng, monkeypatch, capsys):
        width = height = 64
        frames = 24
        frame_bytes = width * height * 3 // 2
        paths = [tmp_path / "ref.yuv", tmp_path / "dist.yuv"]
        for path in paths:
            rng.integers(0, 256, (frames, frame_bytes), dtype=np.uint8).tofile(path)
        resident = []
        real = media._frame_ssim_windows

        def spy(x, y):  # one call per frame, after the PSNR pass over both files
            resident.append(max(mapped_rss(path) for path in paths))
            return real(x, y)

        monkeypatch.setattr(media, "_frame_ssim_windows", spy)
        code = run_cli("metrics", "--ref", paths[0], "--dist", paths[1],
                       "--width", width, "--height", height, "--json")
        assert code == 0
        assert len(resident) == frames
        assert max(resident) <= frame_bytes + 2 * PAGE

    def test_bad_vmaf_log_is_reported_before_the_metric_pass(self, tmp_path, capsys):
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(bytes(6 * 2))  # two 2x2 frames, too small for SSIM
        log = tmp_path / "vmaf.log"
        log.write_text("junk\n")
        code = run_cli("metrics", "--ref", clip, "--dist", clip, "--width", 2, "--height", 2,
                       "--vmaf-log", log)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{log}: not a VMAF log" in err and "SSIM" not in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run_cli("metrics", "--ref", tmp_path / "none.yuv",
                       "--dist", tmp_path / "none.yuv", "--width", 8, "--height", 8)
        assert code == 2


class TestImportBudget:
    """No command loads scipy, which costs about 50 MB of resident memory,
    and a synthetic run loads neither the process, thread-pool nor
    masked-array modules."""

    PROBE = (
        "import sys\n"
        "import segenc, segenc.cli as cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, *(name for name in WATCH if name in sys.modules))\n"
    )

    def probe(self, tmp_path, *args, preamble="", watch=("scipy",)):
        """The names in ``watch`` that the command left loaded."""
        # the child inherits the PYTHONPATH that conftest points at src/
        proc = subprocess.run(
            [sys.executable, "-c", f"{preamble}WATCH = {watch!r}\n{self.PROBE}", *map(str, args)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        return set(loaded)

    def test_synthetic_optimize_leaves_scipy_unloaded(self, tmp_path):
        assert not self.probe(
            tmp_path, "optimize", "--codec", "synthetic", "--frames", 150, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
        )

    def test_synthetic_optimize_loads_no_process_pool_or_masked_array_module(self, tmp_path):
        assert self.probe(
            tmp_path, "optimize", "--codec", "synthetic", "--frames", 600, "--fps", 50,
            "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
            watch=("subprocess", "concurrent.futures", "logging", "numpy.ma"),
        ) == set()

    def test_process_optimize_leaves_scipy_unloaded(self, tmp_path, rng):
        clip = TestProcessPath()
        clip.write_clip(tmp_path / "clip.yuv", rng)
        run = f"{sys.executable} -S {lossy_codec.__file__}"
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"vp9": {
            "encode": f"{run} enc {{input}} {{output}} {{qp}}",
            "decode": f"{run} dec {{input}} {{output}} {{qp}}",
        }}}))
        assert not self.probe(
            tmp_path, "optimize", "--codec", "vp9", "--video", tmp_path / "clip.yuv",
            "--width", clip.WIDTH, "--height", clip.HEIGHT, "--fps", clip.FPS,
            "--segment-seconds", clip.FRAMES / clip.FPS, "--config", config,
            "--mode", "min_bitrate", "--min-quality-db", 30.0, "--min-fps", 0.01,
        )

    def bdrate_files(self, tmp_path):
        paths = [tmp_path / "a.rd", tmp_path / "b.rd"]
        for i, path in enumerate(paths):
            write_rd_file(path, TestBdrate().rd_rows(f"codec{i}", scale=1.0 + 0.3 * i))
        return paths

    def test_bdrate_leaves_scipy_unloaded(self, tmp_path):
        assert not self.probe(tmp_path, "bdrate", *self.bdrate_files(tmp_path))

    def test_classify_leaves_scipy_unloaded(self, tmp_path, rng):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        assert not self.probe(tmp_path, "classify", "--mv-file", mv_path, "--pu-file", pu_path,
                              "--policy", policy_path)

    def test_probe_sees_a_loaded_scipy(self, tmp_path):
        # the guards above must not pass merely because the probe cannot see scipy
        assert self.probe(tmp_path, "bdrate", *self.bdrate_files(tmp_path),
                          preamble="import scipy.stats\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "segenc.cli", "sweep", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "--segment-seconds" in proc.stdout

    def test_unknown_mode_is_usage_error(self, capsys):
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 150,
                       "--fps", 50, "--mode", "fastest")
        assert code == 1


OPTIMIZE_SYNTHETIC = (
    "optimize", "--codec", "synthetic", "--frames", 100, "--fps", 50,
    "--mode", "max_quality", "--max-bitrate-kbps", 9000, "--min-fps", 20,
)


class TestOutputPaths:
    """An output path that cannot be written fails before any work starts."""

    @pytest.mark.parametrize("kind", ["directory", "missing-directory"])
    @pytest.mark.parametrize("command", ["classify", "optimize", "sweep"])
    def test_is_data_error_naming_the_path(self, tmp_path, rng, capsys, command, kind):
        out = tmp_path / "out"
        if kind == "directory":
            out.mkdir()
        else:
            out = tmp_path / "missing" / "out"
        mv, pu = write_mv_pu_files(tmp_path, rng)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        code = run_cli(*{
            "classify": ("classify", "--mv-file", mv, "--pu-file", pu, "--policy", policy,
                         "--out", out),
            "optimize": (*OPTIMIZE_SYNTHETIC, "--decisions", out),
            "sweep": ("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                      "--out", out),
        }[command])
        assert code == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err
        assert captured.out == ""  # no region classified, no summary, no table


class TestUnreadableInputs:
    """Every input file that cannot be read as text is a data error naming it."""

    def command(self, tmp_path, rng, which, bad):
        mv, pu = write_mv_pu_files(tmp_path, rng)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            label: {"mode": "min_bitrate", "min_quality": 38.0, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        inputs = {"mv": mv, "pu": pu, "policy": policy, which: bad}
        classify = ("classify", "--mv-file", inputs["mv"], "--pu-file", inputs["pu"],
                    "--policy", inputs["policy"])
        rd = tmp_path / "one.rd"
        write_rd_file(rd, TestBdrate().rd_rows("one"))
        yuv = tmp_path / "clip.yuv"
        yuv.write_bytes(bytes(96 * 2))  # two 8x8 frames
        return {
            "mv": classify, "pu": classify, "policy": classify,
            "bdrate": ("bdrate", rd, bad),
            "config": (*OPTIMIZE_SYNTHETIC, "--config", bad),
            "schedule": (*OPTIMIZE_SYNTHETIC, "--constraint-schedule", bad),
            "vmaf-log": ("metrics", "--ref", yuv, "--dist", yuv, "--width", 8, "--height", 8,
                         "--vmaf-log", bad),
            "sweep-table": ("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                            "--out", bad),
        }[which]

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    @pytest.mark.parametrize("which", ["mv", "pu", "policy", "bdrate", "config", "schedule",
                                       "vmaf-log", "sweep-table"])
    def test_is_data_error_naming_the_file(self, tmp_path, rng, capsys, which, kind):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe0 0 0 1.0 2.0\n")
        code = run_cli(*self.command(tmp_path, rng, which, bad))
        assert code == 2
        assert str(bad) in capsys.readouterr().err


class TestMalformedSweepTable:
    def test_short_row_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "bad.tsv"
        run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50, "--out", out)
        lines = out.read_text().splitlines()
        lines[2] = "0\tsynthetic"
        out.write_text("\n".join(lines) + "\n")
        code = run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                       "--out", out)
        assert code == 2
        assert f"data error: {out}:3: 2 cells, a sweep row has 12" in capsys.readouterr().err

    def test_non_table_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "nt.tsv"
        out.write_text("segment_id\tcodec\n")
        code = run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                       "--out", out)
        assert code == 2
        assert f"data error: {out} is not a sweep table" in capsys.readouterr().err
        assert out.read_text() == "segment_id\tcodec\n"


class TestBadVmafLog:
    """A VMAF log that cannot be read fails its configuration, not the sweep."""

    @pytest.mark.parametrize("log", ["printf '\\377\\376'", "echo junk"],
                             ids=["not-utf8", "not-a-log"])
    def test_fails_one_configuration(self, tmp_path, capsys, log):
        clip = tmp_path / "clip.yuv"
        clip.write_bytes(bytes(16 * 16 * 3 // 2))  # one black 16x16 frame
        vmaf = f"if [ {{qp}} = 16 ]; then {log}; else echo vmaf=90; fi > {{log}}"
        config = tmp_path / "project.json"
        config.write_text(json.dumps({"codecs": {"vp9": {
            "encode": "cp {input} {output}",
            "decode": "cp {input} {output}",
            "vmaf": f"sh -c {json.dumps(vmaf)}",
        }}}))
        out = tmp_path / "sweep.tsv"
        code = run_cli("sweep", "--codec", "vp9", "--video", clip, "--width", 16,
                       "--height", 16, "--fps", 1, "--segment-seconds", 1,
                       "--config", config, "--out", out)
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("encode failed") == 10  # vp9: 5 GOPs x 2 deblock settings at QP 16
        assert err.count("bad VMAF log") == 10
        rows = read_sweep_table(out)
        assert len(rows) == 90
        assert {m.config.qp for m, _ in rows} == set(range(20, 53, 4))
        assert {m.quality_vmaf for m, _ in rows} == {90.0}


class TestResumedTableChecks:
    SWEEP = ("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50)

    def _resumable_table(self, out, column, cell):
        """A finished one-segment table cut to 10 of its 20 rows, its second row edited."""
        assert run_cli(*self.SWEEP, "--out", out) == 0
        lines = out.read_text().splitlines()[:12]
        cells = lines[3].split("\t")
        cells[column] = cell
        lines[3] = "\t".join(cells)
        out.write_text("".join(line + "\n" for line in lines))

    @pytest.mark.parametrize("column, cell", [
        (9, "0"), (6, "nan"), (6, "-5"), (5, "deblock=maybe"), (11, "yes"),
    ], ids=["zero-fps", "nan-bitrate", "negative-bitrate", "bad-filter", "bad-pareto"])
    def test_bad_row_is_a_data_error_and_the_table_stays(self, tmp_path, capsys, column, cell):
        out = tmp_path / "sweep.tsv"
        self._resumable_table(out, column, cell)
        before = out.read_bytes()
        assert run_cli(*self.SWEEP, "--out", out) == 2
        assert f"data error: {out}:4: " in capsys.readouterr().err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("edited, column, cell", [
        (slice(3, 4), 5, "deblock=on,sao=on"), (slice(2, None), 1, "x265"),
    ], ids=["filters-off-the-grid", "other-codec"])
    def test_row_off_the_grid_is_a_data_error(self, tmp_path, capsys, edited, column, cell):
        # such a row was kept beside the grid's own configuration, which
        # was then encoded too: 21 rows for 20 configurations, or 40 of two codecs
        out = tmp_path / "sweep.tsv"
        assert run_cli(*self.SWEEP, "--out", out) == 0
        lines = out.read_text().splitlines()
        for i in range(len(lines))[edited]:
            cells = lines[i].split("\t")
            cells[column] = cell
            lines[i] = "\t".join(cells)
        out.write_text("".join(line + "\n" for line in lines))
        before = out.read_bytes()
        assert run_cli(*self.SWEEP, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"data error: {out}: " in err
        assert cell in err and "not in the synthetic grid" in err
        assert out.read_bytes() == before

    def test_repeated_row_is_a_data_error(self, tmp_path, capsys):
        # both copies were kept and flagged: 21 rows for 20 configurations
        out = tmp_path / "sweep.tsv"
        assert run_cli(*self.SWEEP, "--out", out) == 0
        lines = out.read_text().splitlines()[:12]
        lines.append(lines[3])
        out.write_text("".join(line + "\n" for line in lines))
        before = out.read_bytes()
        assert run_cli(*self.SWEEP, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"data error: {out}: the segment 0 row synthetic B6 - QP 16 deblock=on " in err
        assert "more than once" in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("first, resumed, problem", [
        (("--frames", 300, "--segment-seconds", 3), ("--frames", 300, "--segment-seconds", 1),
         "encodes 150 frames, its segment 50"),
        (("--frames", 300), ("--frames", 150), "is not among the run's segments 0..0"),
    ], ids=["shorter-segments", "fewer-frames"])
    def test_table_of_another_run_is_a_data_error(self, tmp_path, capsys, first, resumed,
                                                  problem):
        # both resumed with exit 0: rows of two segment lengths side by side,
        # or rows of a segment the run does not have
        sweep = ("sweep", "--codec", "synthetic", "--fps", 50)
        out = tmp_path / "sweep.tsv"
        assert run_cli(*sweep, *first, "--out", out) == 0
        before = out.read_bytes()
        assert run_cli(*sweep, *resumed, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"data error: {out}: the segment " in err and problem in err
        assert out.read_bytes() == before

    def test_next_segment_resumes_beside_the_first(self, tmp_path):
        sweep = ("sweep", "--codec", "synthetic", "--frames", 300, "--fps", 50)
        whole, out = tmp_path / "whole.tsv", tmp_path / "sweep.tsv"
        assert run_cli(*sweep, "--out", whole) == 0
        assert run_cli(*sweep, "--segment", 0, "--out", out) == 0
        assert run_cli(*sweep, "--segment", 1, "--out", out) == 0
        assert out.read_bytes() == whole.read_bytes()

    def test_infinite_fps_is_read(self, tmp_path):
        out = tmp_path / "sweep.tsv"
        self._resumable_table(out, 9, "inf")
        assert run_cli(*self.SWEEP, "--out", out) == 0
        rows = read_sweep_table(out)
        assert len(rows) == 20
        assert rows[1][0].enc_rate == math.inf


class TestSweepSegmentRange:
    @pytest.mark.parametrize("segment", [9, -1])
    def test_out_of_range_is_usage_error(self, tmp_path, capsys, segment):
        out = tmp_path / "sweep.tsv"
        code = run_cli("sweep", "--codec", "synthetic", "--frames", 150, "--fps", 50,
                       "--segment", segment, "--out", out)
        assert code == 1
        assert "0..0" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteBounds:
    """A bound that is no finite number is rejected where it is read."""

    @pytest.mark.parametrize("bound", ["x", float("nan"), float("inf"), True],
                             ids=["string", "nan", "inf", "bool"])
    def test_policy_bound_is_data_error_naming_the_file(self, tmp_path, rng, capsys, bound):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            label: {"mode": "max_quality", "max_bitrate_kbps": bound, "min_fps": 25.0}
            for label in ("tracking", "stationary", "zoom")
        }))
        out = tmp_path / "schedule.json"
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert str(policy) in err and "max_bitrate_kbps" in err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["x", float("nan")], ids=["string", "nan"])
    def test_schedule_bound_is_data_error_naming_the_file(self, tmp_path, capsys, bound):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"version": 1, "regions": [{
            "start_frame": 0, "end_frame": 100, "label": "stationary",
            "constraints": {"mode": "max_quality", "max_bitrate_kbps": bound, "min_fps": 20.0},
        }]}))
        code = run_cli(*OPTIMIZE_SYNTHETIC, "--constraint-schedule", schedule)
        assert code == 2
        err = capsys.readouterr().err
        assert str(schedule) in err and "max_bitrate_kbps" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rd_cell_is_data_error_naming_the_line(self, tmp_path, capsys, cell):
        a = tmp_path / "a.rd"
        b = tmp_path / "b.rd"
        write_rd_file(a, TestBdrate().rd_rows("one"))
        write_rd_file(b, TestBdrate().rd_rows("two"))
        lines = b.read_text().splitlines()
        cells = lines[3].split("\t")
        cells[3] = cell  # psnr611
        lines[3] = "\t".join(cells)
        b.write_text("\n".join(lines) + "\n")
        assert run_cli("bdrate", a, b) == 2
        assert f"{b}:4: '{cell}' is not a finite number" in capsys.readouterr().err


class TestNonPositiveBounds:
    """Every objective is positive and modelled by its log: a bound of 0 or
    less is refused where it is read, before any encode."""

    @pytest.mark.parametrize("name, flags", [
        ("max_bitrate_kbps", ("max_quality", "--max-bitrate-kbps", 0, "--min-fps", 25)),
        ("max_bitrate_kbps", ("max_quality", "--max-bitrate-kbps", -100, "--min-fps", 25)),
        ("min_quality", ("min_bitrate", "--min-quality-db", 0, "--min-fps", 25)),
        ("min_fps", ("min_bitrate", "--min-quality-db", 38, "--min-fps", -1)),
    ], ids=["zero-bitrate", "negative-bitrate", "zero-quality", "negative-fps"])
    def test_flag_is_usage_error_naming_the_bound(self, capsys, name, flags):
        # the zero bitrate raised a ZeroDivisionError out of the bootstrap;
        # the others ended in "no group produced a solution"
        code = run_cli("optimize", "--codec", "synthetic", "--frames", 500, "--fps", 50,
                       "--mode", *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"{name}=" in err and "positive" in err

    @pytest.mark.parametrize("bound", [0, -100.0])
    def test_schedule_bound_is_data_error_naming_the_file(self, tmp_path, capsys, bound):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(json.dumps({"version": 1, "regions": [{
            "start_frame": 0, "end_frame": 100, "label": "stationary",
            "constraints": {"mode": "max_quality", "max_bitrate_kbps": bound, "min_fps": 20.0},
        }]}))
        code = run_cli(*OPTIMIZE_SYNTHETIC, "--constraint-schedule", schedule)
        assert code == 2
        err = capsys.readouterr().err
        assert str(schedule) in err and "max_bitrate_kbps" in err and "positive" in err

    @pytest.mark.parametrize("bound", [0, -25.0])
    def test_policy_bound_is_data_error_naming_the_file(self, tmp_path, rng, capsys, bound):
        mv_path, pu_path = write_mv_pu_files(tmp_path, rng)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            label: {"mode": "max_quality", "max_bitrate_kbps": 9000.0, "min_fps": bound}
            for label in ("tracking", "stationary", "zoom")
        }))
        out = tmp_path / "schedule.json"
        code = run_cli("classify", "--mv-file", mv_path, "--pu-file", pu_path,
                       "--policy", policy, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert str(policy) in err and "min_fps" in err and "positive" in err
        assert not out.exists()
