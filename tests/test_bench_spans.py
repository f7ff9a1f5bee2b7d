"""Every name the benchmark's tracer patches must exist where it looks it up.

``bench/spans.py`` wraps functions and methods by module and attribute name;
a name that moved would otherwise drop its layer from the trace silently,
and so would a call that went round the attribute, so a traced run must
record every controller and solver span.
"""

import importlib
import importlib.util
import math
import types
from pathlib import Path

import pytest

from segenc import controller
from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.encoders import SyntheticEncoder, SyntheticLaw, synth_encode
from segenc.media import make_segments
from segenc.solver import ConstraintSet

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
KINDS = {"function": types.FunctionType, "staticmethod": staticmethod, "classmethod": classmethod}


@pytest.mark.parametrize("module_name, attr", [entry[:2] for entry in SPANS._FUNCTIONS])
def test_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, cls, attr, kind", [entry[:4] for entry in SPANS._METHODS])
def test_method_resolves_with_its_kind(module_name, cls, attr, kind):
    owner = getattr(importlib.import_module(module_name), cls)
    assert isinstance(owner.__dict__[attr], KINDS[kind])


class SteppedEncoder(SyntheticEncoder):
    """Four GOPs whose bitrate rises by half, at every QP, from segment ``STEP_AT`` on."""

    STEP_AT = 20
    GOPS = {"B2": "max_quality", "B3": "max_quality", "B4": "min_bitrate", "B6": "max_quality"}
    OFFSETS = {"psnr": 0.25, "vmaf": 0.5, "bits": 150.0, "enc_rate": -0.5}

    def __init__(self):
        easy = {gop: REFERENCE_MODEL_SETS[("x265", gop, mode)] for gop, mode in self.GOPS.items()}
        hard = {}
        for gop, objectives in easy.items():
            a, b1, b2 = objectives["bits"]
            hard[gop] = {**objectives, "bits": (a + math.log(1.5), b1, b2)}
        super().__init__(SyntheticLaw(easy, self.OFFSETS))
        self.hard = SyntheticLaw(hard, self.OFFSETS)

    def encode(self, config, segment):
        law = self.hard if segment.index >= self.STEP_AT else self.law
        return synth_encode(config, law, segment)


def test_trace_records_every_controller_and_solver_span():
    # a solve that called a layer other than through the attribute the
    # tracer wraps would drop that layer from the trace without an error
    names = {name for _, _, name, _ in SPANS._FUNCTIONS if name.startswith(("controller.", "solver."))}
    assert "solver.local_search" in names
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        controller.run_segment_loop(
            SteppedEncoder(),
            make_segments(40 * 150, 50, 3.0),
            ConstraintSet(mode="max_quality", max_bitrate_kbps=8000.0, min_fps=30.0),
        )
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert names <= recorded, names - recorded
