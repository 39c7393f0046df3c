"""Every tolerance and threshold constant of the package, pinned with its value.

A change that moves one shows here as a test diff.  The scan also fails on a
new constant of one of these name shapes until it is listed.
"""

import importlib
import math
import pkgutil
import re

import opflow

PINNED = {
    "BALL_ATOL": 1e-10,
    "BISECTION_RTOL": 1e-12,
    "BOUNDARY_ATOL": 1e-9,
    "ENDPOINT_MATCH_RTOL": 1e-9,
    "EPS_MAX": 4.0,
    "EPS_MIN": 1e-12,
    "HERMITICITY_RTOL": 1e-12,
    "INJECTIVITY_ATOL": 1e-10,
    "LAGRANGIAN_ATOL": 1e-8,
    "PASSAGE_TURN_MAX": 1.0 / 16.0,
    "PHASE_STEP_MAX": math.pi / 2,
    "PROJECTION_ATOL": 1e-10,
    "RADIUS_MIN": 2.0,
    "RESIDUAL_MAX": 0.25,
    "SQRT_CLAMP": 3e-10,
    "STRICTNESS_ATOL": 1e-8,
    "UNITARITY_ATOL": 1e-10,
    "ZERO_ATOL": 1e-9,
}
SHAPE = re.compile(r"[A-Z0-9_]*(_ATOL|_RTOL|_MAX|_MIN)|EPS_[A-Z0-9_]+|SQRT_CLAMP")


def test_every_tolerance_is_pinned():
    found = {}
    for info in pkgutil.iter_modules(opflow.__path__):
        module = importlib.import_module(f"opflow.{info.name}")
        for name, value in vars(module).items():
            if SHAPE.fullmatch(name) and isinstance(value, float):
                found[name] = value  # a re-export carries the same value
    assert found == PINNED
