"""What a fresh process loads: scipy.integrate only where a run needs its
cumulative_simpson (spine and limitlaw); the ODE engine does not import it.

The pytest process has loaded scipy.integrate long before these tests run, so
each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import stablebranch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stablebranch.__file__)))

# argv[1] is a scratch directory; prints one JSON object of readings.
SCRIPT = r"""
import json, os, sys

import numpy as np

import stablebranch as sb
from stablebranch import cli

out = sys.argv[1]
readings = {"after_import": "scipy.integrate" in sys.modules}

model_path = os.path.join(out, "two-site_model.json")
with open(model_path, "w") as fh:
    json.dump({"d": 2, "m": [1.0, 1.0], "Q": [[-1.0, 1.0], [1.0, -1.0]],
               "beta": [0.0, 0.0], "kappa": [1.0, 1.0], "gamma": [1.2, 1.8]}, fh)
model, _ = sb.read_model(model_path)
sb.simulate_paths(model, [0.5, 0.5], sb.SimConfig(0.01, 0.1, 64, seed=1))
readings["exits"] = [
    cli.main(["calibrate", "--model", model_path, "--outdir", os.path.join(out, "cal")]),
    cli.main(["simulate", "--model", model_path, "--paths", "64", "--step", "0.01",
              "--horizon", "0.1", "--mu", "[0.5, 0.5]", "--outdir", os.path.join(out, "sim")]),
]
readings["after_mc"] = "scipy.integrate" in sys.modules

opts = sb.SolverOptions(rel_tol=1e-7)
first = sb.solve_extinction(model, [1e-3, 1.0], opts).values
readings["after_solve"] = "scipy.integrate" in sys.modules
second = sb.solve_extinction(model, [1e-3, 1.0], opts).values
readings["same_bits"] = first.tobytes() == second.tobytes()
print(json.dumps(readings))
"""


def test_only_integrating_runs_load_scipy_integrate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    readings = json.loads(proc.stdout.splitlines()[-1])
    assert readings["exits"] == [0, 0]
    assert readings["after_import"] is False
    assert readings["after_mc"] is False, "calibrate or simulate loaded it"
    assert readings["after_solve"] is False, "an ODE solve loaded it"
    assert readings["same_bits"] is True
