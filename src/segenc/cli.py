"""Command-line surface: sweep, optimize, classify, bdrate, metrics.

Exit codes: 0 success, 1 usage error, 2 data error, 3 encoder failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import activity, bd, controller, encoders, media, pareto, records
from .encoders import CodecCommands, EncoderError, ProcessEncoder, SyntheticEncoder
from .solver import MODES, TOLERANCES, ConstraintSet, SolverError, make_mode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENCODER = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _load_project_config(path: str | None) -> dict:
    """The project config, a JSON object; every key is optional, others are ignored.

    - ``codecs``: codec name -> ``encode``, ``decode`` and ``vmaf`` command
      templates (:class:`CodecCommands`);
    - ``tolerances``: ``tol_bitrate``, ``tol_quality``, ``tol_fps`` in [0, 0.5],
      each overridden by its ``optimize --tolerance-*`` flag;
    - ``threads``: threads inside one encoder, the ``{threads}`` placeholder
      (default 1); batches of encodes run ``usable cores // threads`` at once.
      The key's old name, ``workers``, is an error, so that an old config does
      not silently fall back to one thread.
    """
    if path is None:
        return {}
    cfg = records.load_json(path, DataError)
    if not isinstance(cfg, dict):
        raise DataError(f"project config {path} is not a JSON object")
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise DataError(f"project config {path}: tolerances is not an object")
    for name, tol in tolerances.items():
        if name not in TOLERANCES:
            raise DataError(f"project config {path}: unknown tolerance {name!r}")
        if not isinstance(tol, (int, float)) or not 0.0 <= tol <= 0.5:
            raise DataError(f"project config {path}: {name}={tol!r} is not within [0, 0.5]")
    codecs = cfg.get("codecs", {})
    if not isinstance(codecs, dict):
        raise DataError(f"project config {path}: codecs is not an object")
    for name, commands in codecs.items():
        try:
            codecs[name] = CodecCommands(**commands)
        except TypeError as exc:  # not an object, or a missing or unknown template
            raise DataError(f"project config {path}: codec {name!r}: {exc}") from None
        for template, value in commands.items():  # only encode is required
            if not isinstance(value, str) and (template == "encode" or value is not None):
                raise DataError(f"project config {path}: codec {name!r}: "
                                f"{template} template {value!r} is not a string")
    if "workers" in cfg:
        raise DataError(f"project config {path}: workers is now named threads")
    threads = cfg.get("threads", 1)
    # bool is an int subclass; neither true nor false is a thread count
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise DataError(f"project config {path}: threads={threads!r} is not a positive integer")
    return cfg


def _check_out_path(path: str | None) -> None:
    """Fail before any work when ``path`` cannot be written as a file."""
    if not path:
        return
    out = Path(path)
    if out.is_dir():
        raise DataError(f"output path {path} is a directory")
    if not out.parent.is_dir():
        raise DataError(f"output path {path}: no directory {out.parent}")


def _load_video(args) -> media.RawVideo | None:
    if args.video is None:
        return None
    return media.RawVideo.from_file(args.video, args.width, args.height, args.fps)


@contextlib.contextmanager
def _make_encoder(args, cfg: dict, video: media.RawVideo | None):
    """The command's encoder; a process encoder's own workdir goes at exit."""
    if args.codec == "synthetic":
        yield SyntheticEncoder()
        return
    commands = cfg.get("codecs", {}).get(args.codec)
    if commands is None:
        raise DataError(
            f"no command templates for codec {args.codec!r}; add them to the project config"
        )
    if video is None:
        raise UsageError("--video is required for real codecs")
    with ProcessEncoder(
        args.codec,
        commands,
        video,
        threads=cfg.get("threads", 1),
    ) as encoder:
        yield encoder


def _segments(args, video: media.RawVideo | None) -> list[media.Segment]:
    if args.codec == "synthetic" and video is None:
        if args.frames is None:
            raise UsageError("synthetic codec needs --frames when no --video is given")
        return media.make_segments(args.frames, args.fps, args.segment_seconds)
    if video is None:
        raise UsageError("--video is required")
    return media.split_segments(video, args.segment_seconds)


def _add_video_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--video", help="raw planar YUV 4:2:0 input file")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--fps", type=int, default=50)
    p.add_argument("--frames", type=int, help="frame count for the synthetic codec")
    p.add_argument("--segment-seconds", type=float, default=3.0)
    p.add_argument("--codec", default="synthetic")
    p.add_argument("--config", help="project config JSON with command templates")


def cmd_sweep(args) -> int:
    _check_out_path(args.out)
    cfg = _load_project_config(args.config)
    video = _load_video(args)
    with _make_encoder(args, cfg, video) as encoder:
        failures = _sweep(args, encoder, _segments(args, video))
    print(f"sweep table: {args.out}")
    return EXIT_ENCODER if failures else EXIT_OK


def _sweep(args, encoder, segments: list[media.Segment]) -> int:
    """Encode every configuration not yet in the table; returns the failure count.

    A resumed table is checked against every segment of the run, also under
    ``--segment`` (``encoders.check_sweep_rows``); a row that fails is a
    data error, and the table is left as it was.

    Encodes run ``encoder.workers`` at a time.  After each segment the table
    is rewritten with that segment's Pareto flags recomputed over all of its
    rows, those already there and the new, on the bootstrap's front points
    (``pareto.measured_points``): VMAF when every row has it, else PSNR.
    """
    grid = encoder.grid()
    configs = grid.configs()
    segment_frames = [s.frame_count for s in segments]
    if args.segment is not None:
        if not 0 <= args.segment < len(segments):
            raise UsageError(f"--segment {args.segment} is not in 0..{len(segments) - 1}")
        segments = [segments[args.segment]]

    out = Path(args.out)
    try:  # a table we cannot resume from is bad input, not an encoder failure
        rows = encoders.read_sweep_table(out) if out.exists() else []
        done = encoders.check_sweep_rows(out, rows, segment_frames, grid)
    except EncoderError as exc:
        raise DataError(str(exc)) from None

    failures = 0
    for segment in segments:
        jobs = [(c, segment) for c in configs
                if encoders.config_row_key(segment.index, c) not in done]
        if not jobs:
            continue
        # an error or an interrupt closes the batch: no further encode starts
        with contextlib.closing(encoders.encode_batch(encoder, jobs)) as results:
            for result in results:  # in grid order, so rows keep it
                if isinstance(result, EncoderError):
                    print(f"encode failed: {result}", file=sys.stderr)
                    failures += 1
                else:  # as the table holds it, so a resumed run flags the same
                    rows.append((encoders.table_measurement(result), None))
        measured = [m for m, _ in rows if m.segment_index == segment.index]
        if measured:
            metric = "vmaf" if all(m.quality_vmaf is not None for m in measured) else "psnr"
            flags = iter(pareto.front_flags(pareto.measured_points(measured, metric)))
            rows = [(m, next(flags) if m.segment_index == segment.index else flag)
                    for m, flag in rows]
        encoders.write_sweep_table(out, rows)
    return failures


def _constraints_from_args(args, tolerances: dict[str, float]) -> ConstraintSet:
    """The command line's mode and bounds; a --tolerance-* flag overrides ``tolerances``."""
    bounds: dict = {}
    if args.max_bitrate_kbps is not None:
        bounds["max_bitrate_kbps"] = args.max_bitrate_kbps
    if (args.jnd_offset is None) != (args.reference_vmaf is None):
        raise UsageError("--jnd-offset and --reference-vmaf need each other")
    if sum(f is not None for f in (args.min_quality_db, args.min_vmaf, args.jnd_offset)) > 1:
        raise UsageError("give at most one of --min-quality-db, --min-vmaf and --jnd-offset")
    min_vmaf = args.min_vmaf if args.jnd_offset is None else args.reference_vmaf - args.jnd_offset
    if min_vmaf is not None:
        bounds["min_quality"] = min_vmaf
        bounds["quality_metric"] = "vmaf"
    elif args.min_quality_db is not None:
        bounds["min_quality"] = args.min_quality_db
        bounds["quality_metric"] = "psnr"
    if args.min_fps is not None:
        bounds["min_fps"] = args.min_fps
    tolerances = dict(tolerances)
    if args.tolerance_bitrate is not None:
        tolerances["tol_bitrate"] = args.tolerance_bitrate
    if args.tolerance_quality is not None:
        tolerances["tol_quality"] = args.tolerance_quality
    try:
        return make_mode(args.mode, bounds, **tolerances)
    except SolverError as exc:
        raise UsageError(str(exc)) from exc


def _schedule_fn(path: str | None):
    if path is None:
        return None
    raw = records.load_json(path, DataError)
    try:
        regions = [
            (int(r["start_frame"]), int(r["end_frame"]), ConstraintSet(**r["constraints"]))
            for r in raw["regions"]
        ]
        _, end_of_schedule, last = max(regions, key=lambda region: region[1])
    except (LookupError, TypeError, ValueError) as exc:  # a missing key or a bad value
        raise DataError(f"bad constraint schedule {path}: {exc!r}") from None

    def lookup(segment: media.Segment) -> ConstraintSet:
        for start, end, cs in regions:
            if start <= segment.start < end:
                return cs
        if segment.start >= end_of_schedule:  # past every region: the one ending last holds
            return last
        raise DataError(f"constraint schedule {path} has no region for the segment "
                        f"starting at frame {segment.start}")

    return lookup


def cmd_optimize(args) -> int:
    _check_out_path(args.decisions)
    cfg = _load_project_config(args.config)
    constraints = _constraints_from_args(args, cfg.get("tolerances", {}))
    video = _load_video(args)
    with _make_encoder(args, cfg, video) as encoder:
        segments = _segments(args, video)
        schedule = _schedule_fn(args.constraint_schedule)

        state = controller.run_segment_loop(
            encoder, segments, constraints, schedule=schedule
        )
        if args.decisions:
            controller.write_decision_log(state, args.decisions)
            print(f"decision log: {args.decisions}")
        summary = controller.summarize(
            state, encoder=encoder, segments=segments,
            baseline_bitrate_kbps=args.baseline_bitrate_kbps,
        )
    print(summary.format())
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k {args.k} is not a positive neighbour count")
    if args.pu_window < 1:
        raise UsageError(f"--pu-window {args.pu_window} is not a positive frame count")
    if not args.pu_threshold >= 0.0:  # NaN fails this too
        raise UsageError(f"--pu-threshold {args.pu_threshold} is not a non-negative number")
    _check_out_path(args.out)
    mv_frames, mv_vectors = activity.read_mv_field(args.mv_file)
    pu_series = activity.read_pu_series(args.pu_file)
    policy = activity.read_policy(args.policy)

    if mv_frames.min() < 0 or mv_frames.max() >= len(pu_series):
        outside = mv_frames[(mv_frames < 0) | (mv_frames >= len(pu_series))][0]
        raise DataError(f"{args.mv_file}: MV frame {outside} is not among the "
                        f"{len(pu_series)} frames of {args.pu_file}")

    # a region's vectors are a run of the records in stable frame order,
    # gathered from the file's columns; the run's ends are the counts of
    # records before its edge frames, and a region's histograms do not
    # depend on the order of its vectors
    order = np.argsort(mv_frames, kind="stable")
    before = np.concatenate([[0], np.cumsum(np.bincount(mv_frames, minlength=len(pu_series)))])
    cuts = activity.detect_activity_change(pu_series, args.pu_threshold, window=args.pu_window)
    edges = [0, *cuts, len(pu_series)]
    bounds = before[edges].tolist()
    if args.training:
        training = _read_training_dir(args.training)
    else:
        training = activity.synthetic_training(np.random.default_rng(0))
    # the training set is fixed, so each pair's bins are selected once
    bin_cache = {pair: activity.select_bins(training, pair) for pair in activity.PAIRS}

    regions = []
    for start, end, lo, hi in zip(edges, edges[1:], bounds, bounds[1:]):
        vectors = mv_vectors[order[lo:hi]]
        pu_mean = float(np.mean(pu_series[start:end]))
        features = activity.extract_mv_features(vectors, pu_mean)
        label = activity.classify(features, training, k=args.k, bin_cache=bin_cache)
        constraints = activity.apply_policy(label, policy)
        regions.append({"start_frame": start, "end_frame": end, "label": label,
                        "constraints": _constraint_dict(constraints)})
        print(f"frames [{start}, {end}): {label}")
    out = {"version": 1, "regions": regions}
    if args.out:
        records.replace_text(args.out, json.dumps(out, indent=2))
        print(f"constraint schedule: {args.out}")
    return EXIT_OK


def _constraint_dict(cs: ConstraintSet) -> dict:
    return {"mode": cs.mode, "quality_metric": cs.quality_metric, **cs.bounds(), **cs.tolerances()}


def _read_training_dir(path: str) -> list[tuple[str, activity.MotionFeatures]]:
    training = []
    for file in sorted(Path(path).glob("*.mv")):
        label = file.stem.split("_")[0]
        if label not in activity.LABELS:
            raise DataError(f"training file {file.name} does not start with a label")
        _, vectors = activity.read_mv_field(file)
        training.append((label, activity.extract_mv_features(vectors)))
    if not training:
        raise DataError(f"no .mv training files under {path}")
    return training


def cmd_bdrate(args) -> int:
    by_codec: dict[str, list[dict]] = {}
    for file in args.files:
        for codec, rows in bd.read_rd_file(file).items():
            by_codec.setdefault(codec, []).extend(rows)
    if len(by_codec) < 2:
        raise DataError("need RD points for at least two codecs")
    curves = bd.curves_from_records(by_codec, axis=args.axis)
    matrix = bd.bd_matrix(curves)
    print(bd.format_bd_matrix(curves, matrix))
    return EXIT_OK


def cmd_metrics(args) -> int:
    ref = media.RawVideo.from_file(args.ref, args.width, args.height, args.fps)
    dist = media.RawVideo.from_file(args.dist, args.width, args.height, args.fps)
    vmaf = None
    if args.vmaf_log:  # before the metric pass, so a bad log fails at once
        try:
            vmaf = media.parse_vmaf_log(records.read_text(args.vmaf_log, DataError)).mean
        except media.MediaError as exc:
            raise DataError(f"{args.vmaf_log}: {exc}") from None
    scores = media.psnr_global(ref, dist)
    ssim = media.ssim_mean(ref, dist)
    report = {
        "psnr_y": scores.psnr_y,
        "psnr_u": scores.psnr_u,
        "psnr_v": scores.psnr_v,
        "psnr611": scores.psnr611,
        "ssim": ssim,
        "vmaf": vmaf,
    }
    if args.json:
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {'-' if value is None else f'{value:.6f}'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segenc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="exhaustively encode segments over the codec grid")
    _add_video_args(p)
    p.add_argument("--segment", type=int, help="only this segment index (default: all)")
    p.add_argument("--out", required=True, help="sweep table output (resumable)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="run the segment-adaptive encoding loop")
    _add_video_args(p)
    p.add_argument("--mode", required=True, choices=list(MODES))
    p.add_argument("--max-bitrate-kbps", type=float)
    p.add_argument("--min-quality-db", type=float)
    p.add_argument("--min-vmaf", type=float)
    p.add_argument("--min-fps", type=float)
    p.add_argument("--reference-vmaf", type=float)
    p.add_argument("--jnd-offset", type=float,
                   help="derive the VMAF bound as reference minus this offset")
    p.add_argument("--tolerance-bitrate", type=float)
    p.add_argument("--tolerance-quality", type=float)
    p.add_argument("--baseline-bitrate-kbps", type=float,
                   help="also encode every segment at the constant sweep QP whose segment-0 "
                        "bitrate is nearest this, and report the gains against it "
                        "(one more encode per segment); no baseline runs without it")
    p.add_argument("--constraint-schedule",
                   help="region schedule JSON from classify; a segment takes the region its "
                        "first frame falls in, or the one ending last once past every region, "
                        "and one before or between the regions is a data error")
    p.add_argument("--decisions", help="decision log output path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("classify", help="label camera activity and emit constraints")
    p.add_argument("--mv-file", required=True)
    p.add_argument("--pu-file", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--training", help="directory of labeled .mv files")
    p.add_argument("--pu-threshold", type=float, default=activity.PU_THRESHOLD)
    p.add_argument("--pu-window", type=int, default=activity.PU_WINDOW)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", help="constraint schedule JSON output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bdrate", help="pairwise BD bitrate-savings matrix")
    p.add_argument("files", nargs="+")
    p.add_argument("--axis", choices=["psnr611", "vmaf"], default="psnr611")
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two raw videos")
    p.add_argument("--ref", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--fps", type=int, default=25)
    p.add_argument("--vmaf-log")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, media.MediaError, bd.BdError, activity.ActivityError,
            SolverError, controller.ControllerError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EncoderError as exc:
        print(f"encoder error: {exc}", file=sys.stderr)
        return EXIT_ENCODER


if __name__ == "__main__":
    sys.exit(main())
