"""Shared fixtures: random-state generation, the acceptance summary, and
configs and subprocess runs for the command-line tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvqkd
from cvqkd.gaussian import (
    covariance,
    is_physical,
    symplectic_eigenvalues,
)
from cvqkd.keyrate import mi_oracle

#: acceptance-criterion outcomes collected over the session, number -> (ok, detail)
_CRITERIA = {}


@pytest.fixture
def criterion_log():
    """Callable recording one acceptance-criterion outcome for the summary."""

    def record(number: int, passed: bool, detail: str) -> None:
        _CRITERIA[number] = (bool(passed), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        ok, detail = _CRITERIA[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} ({detail})")


def random_normal_form_state(rng):
    """A mixed two-mode state in normal form with well-separated branches.

    Rejection-samples (lambda_a, lambda_b, c_x, c_p) until the state is
    physical, clearly mixed (smaller symplectic eigenvalue >= 1.005) and the
    two quadrature branches carry distinguishably different information
    (formula-vs-oracle comparisons would be ambiguous at a branch tie).
    """
    while True:
        la = float(rng.uniform(1.05, 3.0))
        lb = float(rng.uniform(1.05, 3.0))
        cap = math.sqrt((la * la - 1.0) * (lb * lb - 1.0)) / math.sqrt(max(la, lb))
        cx = float(rng.uniform(-cap, cap))
        cp = float(rng.uniform(-cap, cap))
        g = covariance(
            [
                [la, 0.0, cx, 0.0],
                [0.0, la, 0.0, cp],
                [cx, 0.0, lb, 0.0],
                [0.0, cp, 0.0, lb],
            ]
        )
        if not is_physical(g):
            continue
        if symplectic_eigenvalues(g)[1] < 1.005:
            continue
        mi_x, mi_p = mi_oracle(g)
        if abs(mi_x - mi_p) < 1e-3:
            continue
        return g


#: the reconstructed two-mode state quoted for the 11.1 dB operating point,
#: reused across test modules as a realistic mildly-rotated fixture
RECONSTRUCTED_EXAMPLE = np.array(
    [
        [0.55, -0.09, 0.45, -0.14],
        [-0.09, 24.7, -0.07, -23.2],
        [0.45, -0.07, 0.55, 0.01],
        [-0.14, -23.2, 0.01, 23.7],
    ]
)


@pytest.fixture
def reconstructed_example():
    """The measured-state fixture wrapped as a CovarianceMatrix."""
    return covariance(RECONSTRUCTED_EXAMPLE)


#: a strongly mixed point: an estimate from a few thousand records per setting stays physical
NOISY = {
    "source": {"mode": "measured", "var_sqz_db": -6.0},
    "channel": {"nu_a": 0.2, "nu_b": 0.2, "delta_a": 0.25, "delta_b": 0.25, "sigma_a": 0.1, "sigma_b": 0.1},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_module(module, *argv, input=None):
    """python -m module argv in a fresh process, on this checkout's cvqkd,
    with input, if given, sent to its stdin through a pipe."""
    paths = [str(Path(cvqkd.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        input=input, capture_output=True, text=True, env=env, timeout=120,
    )
