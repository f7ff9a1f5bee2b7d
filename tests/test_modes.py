"""``min_enc_time`` is a second name for ``max_enc_rate`` wherever a mode is read."""

import argparse

import pytest

from segenc import cli
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.controller import bootstrap, run_segment_loop
from segenc.encoders import SyntheticEncoder, SyntheticLaw
from segenc.media import make_segments
from segenc.pareto import ObjectivePoint, pareto_front, select_mode_optimal
from segenc.solver import MODES, SolverError, make_mode, solve_constrained

ALIASES = ("max_enc_rate", "min_enc_time")
LAW = SyntheticLaw({g: REFERENCE_MODEL_SETS[("x265", g, "max_quality")] for g in ("B2", "B3")})
BOUNDS = [
    {"min_quality": 36.0, "max_bitrate_kbps": 9000.0},
    {"min_quality": 40.0, "max_bitrate_kbps": 20000.0},
    {"min_quality": 30.0, "max_bitrate_kbps": 3000.0, "quality_metric": "vmaf"},
]


def each_alias(fn):
    """fn's result for both names, or the error it raised with the name masked."""
    out = []
    for mode in ALIASES:
        try:
            out.append(fn(mode))
        except SolverError as exc:
            out.append(("error", str(exc).replace(mode, "<mode>")))
    return out


@pytest.mark.parametrize("bounds", BOUNDS + [
    {"min_quality": 36.0},
    {"max_bitrate_kbps": 9000.0},
    {"min_quality": 36.0, "max_bitrate_kbps": 9000.0, "min_fps": 20.0},
    {"min_quality": 36.0, "max_bitrate_kbps": 9000.0, "max_time_s": 2.0},
])
def test_make_mode(bounds):
    rate, time = each_alias(lambda mode: make_mode(mode, bounds, tol_bitrate=0.2))
    if isinstance(rate, tuple):
        assert rate == time
    else:
        assert (rate.bounds(), rate.tolerances()) == (time.bounds(), time.tolerances())


@pytest.mark.parametrize("bounds", BOUNDS)
def test_select_mode_optimal(bounds):
    encoder = SyntheticEncoder(LAW)
    segment = make_segments(150, 50)[0]
    sweep = [encoder.encode(c, segment) for c in encoder.configs()]
    metric = bounds.get("quality_metric", "psnr")
    front = pareto_front([
        (m.config, ObjectivePoint.from_enc_rate(m.objective(metric), m.bitrate, m.enc_rate))
        for m in sweep
    ])
    rate, time = each_alias(
        lambda mode: select_mode_optimal(front, make_mode(mode, bounds), frames=150)
    )
    assert rate == time


@pytest.mark.parametrize("bounds", BOUNDS)
def test_solve_constrained(bounds):
    segment = make_segments(150, 50)[0]
    state = bootstrap(SyntheticEncoder(LAW), segment, make_mode("max_enc_rate", bounds))
    for models in state.models.values():
        rate, time = each_alias(
            lambda mode: solve_constrained(
                models, make_mode(mode, bounds), qp_bounds=(16, 45), segment_frames=150
            )
        )
        assert rate == time


@pytest.mark.parametrize("bounds", BOUNDS)
def test_run_segment_loop(bounds):
    rate, time = each_alias(
        lambda mode: [
            r.to_record()
            for r in run_segment_loop(
                SyntheticEncoder(LAW), make_segments(1000, 50, 1.0), make_mode(mode, bounds)
            ).history
        ]
    )
    assert rate == time


def test_cli_mode_choices_are_the_mode_table():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["optimize"]._actions if a.dest == "mode")
    assert list(mode.choices) == list(MODES)
