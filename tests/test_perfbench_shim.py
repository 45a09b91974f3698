"""The traced benchmark entry point still finds every hook it times.

perfbench/shim.py wraps ratslice functions by module and name (the GF(2)
engine factory among them) and lists a hook whose target is missing as
absent, which blanks its per-layer metrics without failing the run.
These tests make such a rename fail here instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratslice.paperdata import _rp1_model_complex

from helpers import complex_to_json

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("job", ["grid-tau", "tau", "deep-slice", "verify-paper"])
def test_shim_trace_has_no_absent_hooks(tmp_path, job):
    if job == "grid-tau":
        cli = ["grid-tau", "--torus", "2", "3", "--hfk"]
    elif job == "tau":
        path = tmp_path / "rp1.json"
        path.write_text(json.dumps(complex_to_json(_rp1_model_complex())))
        cli = ["tau", "--complex", str(path)]
    elif job == "deep-slice":
        cli = ["deep-slice", "--builtin", "lift_8_20"]
    else:
        cli = ["verify-paper"]
    trace = tmp_path / "t.json"
    proc = _run("perfbench/shim.py", str(trace), "job", "--", *cli)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(trace.read_text())
    assert record["absent"] == []
    if job == "grid-tau":
        # A hook that is present but bypassed reads 0.  Tau and the knot
        # Floer ranks carry the gradings through their walks, so no state
        # is graded one by one and the scan hook reads 0; tau's rectangles
        # and both eliminations go through the hooks.
        hot = record["hot"]
        assert hot["scan_states"] == 0
        assert hot["rect_calls"] >= 1
        assert hot["columns"] > 0
    elif job == "verify-paper":
        # Two builtin spectra, RP1_in_RP3's and J_example_6.2's copy of
        # it, each one span: paperdata imports tau_spectrum where it runs,
        # so the shim's wrapper is not wrapped again.
        spans = [span["name"] for span in record["spans"]]
        assert spans.count("complexes.tau_spectrum") == 2
    elif job == "tau":
        # The spectrum reads the basis and the complex's one elimination
        # through the hooked functions and engine factory.
        names = {span["name"] for span in record["spans"]}
        assert {"complexes.homology_basis", "complexes.tau_spectrum"} <= names
        assert record["hot"]["columns"] > 0


def test_backend_name_readable():
    proc = _run("-c", "import ratslice.gf2 as g; print(g.BACKEND_NAME)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "python\n"
