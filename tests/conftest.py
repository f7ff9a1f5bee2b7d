import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# child processes (``python -m segenc.cli``) import the package from src/ too
_SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from segenc.models import RdModel, FitDiagnostics


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_model(coefficients, qp_min=16.0, qp_max=43.0, objective=None) -> RdModel:
    """Hand-built model without going through a fit."""
    return RdModel(
        coefficients=tuple(coefficients),
        qp_min=qp_min,
        qp_max=qp_max,
        diagnostics=FitDiagnostics(1.0, 0.0),
        objective=objective,
    )


def random_monotone_quadratic(rng: np.random.Generator, qp_min=16.0, qp_max=43.0) -> RdModel:
    """ln-quadratic whose derivative keeps one sign across the QP range.

    The derivative is linear in QP, so matching signs at both endpoints
    guarantees monotonicity in between.
    """
    sign = -1.0 if rng.random() < 0.7 else 1.0
    d_lo = sign * rng.uniform(1e-3, 0.5)
    d_hi = sign * rng.uniform(1e-3, 0.5)
    b2 = (d_hi - d_lo) / (2.0 * (qp_max - qp_min))
    b1 = d_lo - 2.0 * b2 * qp_min
    a = rng.uniform(-2.0, 16.0)
    return make_model((a, b1, b2), qp_min, qp_max)
