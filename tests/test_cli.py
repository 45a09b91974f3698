"""Command-line surface: verbs, documents, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratslice.cli import main
from ratslice.formats import complex_to_json, dump_document, framed_to_json, grid_to_text
from ratslice.grid import torus_knot_grid
from ratslice.paperdata import builtin


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_grid_tau_torus_verb(capsys):
    doc = run_json(capsys, "grid-tau", "--torus", "2", "-5")
    assert doc["tau"] == "-2/1"
    assert doc["n"] == 7
    assert doc["citation"]


def test_grid_tau_from_file(tmp_path, capsys):
    path = tmp_path / "trefoil.grid"
    path.write_text(grid_to_text(torus_knot_grid(2, 3)))
    doc = run_json(capsys, "grid-tau", "--grid", str(path), "--hfk")
    assert doc["tau"] == "1/1"
    assert doc["hfk_ranks"] == {"1/1": 1, "0/1": 1, "-1/1": 1}


def test_tau_verb_spectrum_and_cycle(tmp_path, capsys):
    from ratslice.paperdata import _rp1_model_complex

    path = tmp_path / "rp1.json"
    path.write_text(dump_document(complex_to_json(_rp1_model_complex())))
    doc = run_json(capsys, "tau", "--complex", str(path))
    assert doc["spectrum"]["tau_max"] == "1/4"
    assert doc["spectrum"]["tau_min"] == "-1/4"
    doc = run_json(capsys, "tau", "--complex", str(path), "--cycle", "a")
    assert doc["tau"] == "1/4"


# Documents printed before the knot Floer ranks went block-local; the
# documents stay byte-identical.
T34_HFK_DOCUMENT = """{
  "citation": "tau-of-maslov-zero-grid-class",
  "command": "grid-tau",
  "hfk_ranks": {
    "-2/1": 1,
    "-3/1": 1,
    "0/1": 1,
    "2/1": 1,
    "3/1": 1
  },
  "n": 7,
  "source": "torus(3,4)",
  "tau": "3/1"
}
"""

T2_MINUS5_HFK_DOCUMENT = """{
  "citation": "tau-of-maslov-zero-grid-class",
  "command": "grid-tau",
  "hfk_ranks": {
    "-1/1": 1,
    "-2/1": 1,
    "0/1": 1,
    "1/1": 1,
    "2/1": 1
  },
  "n": 7,
  "source": "torus(2,-5)",
  "tau": "-2/1"
}
"""


@pytest.mark.parametrize(
    "p,q,document",
    [("3", "4", T34_HFK_DOCUMENT), ("2", "-5", T2_MINUS5_HFK_DOCUMENT)],
)
def test_grid_tau_hfk_documents_unchanged(capsys, p, q, document):
    code, out, err = run_cli(capsys, "grid-tau", "--torus", p, q, "--hfk")
    assert code == 0, err
    assert out == document


# A rank-4 complex: classes in Spin^c labels 0 and 1, at Maslov 0 and 1,
# and x -> a + b a Maslov+1 boundary into the (0, 0) class block, so the
# class of a is carried by b.  The document was printed before the GF(2)
# engine moved into ratslice.gf2; the basis ids must not move.
PINNED_COMPLEX = {
    "generators": [
        {"id": "a", "maslov": "0", "alexander": "1", "spinc": "0"},
        {"id": "b", "maslov": "0", "alexander": "0", "spinc": "0"},
        {"id": "c", "maslov": "0", "alexander": "-1", "spinc": "0"},
        {"id": "x", "maslov": "1", "alexander": "2", "spinc": "0"},
        {"id": "y", "maslov": "1", "alexander": "1/2", "spinc": "0"},
        {"id": "z", "maslov": "0", "alexander": "1/2", "spinc": "1"},
    ],
    "differential": {"x": ["a", "b"]},
}

PINNED_SPECTRUM_DOCUMENT = """{
  "citation": "tau-from-filtered-complex",
  "command": "tau",
  "spectrum": {
    "breadth": "3/2",
    "enumeration_complete": true,
    "per_class": {
      "b0": "1/2",
      "b0+b1": "1/2",
      "b0+b1+b2": "1/2",
      "b0+b1+b2+b3": "1/2",
      "b0+b1+b3": "1/2",
      "b0+b2": "1/2",
      "b0+b2+b3": "1/2",
      "b0+b3": "1/2",
      "b1": "0/1",
      "b1+b2": "0/1",
      "b1+b2+b3": "1/2",
      "b1+b3": "1/2",
      "b2": "-1/1",
      "b2+b3": "1/2",
      "b3": "1/2"
    },
    "tau_max": "1/2",
    "tau_min": "-1/1"
  }
}
"""


def test_tau_complex_per_class_document_unchanged(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(PINNED_COMPLEX))
    code, out, err = run_cli(capsys, "tau", "--complex", str(path))
    assert code == 0, err
    assert out == PINNED_SPECTRUM_DOCUMENT


def _framed_document(**fields):
    doc = framed_to_json(builtin("J_example_6.2"))
    doc.update(fields)
    return doc


def _framed_spectrum(**fields):
    spectrum = framed_to_json(builtin("J_example_6.2"))["tau_spectrum"]
    return _framed_document(tau_spectrum=dict(spectrum, **fields))


@pytest.mark.parametrize(
    "verb,flag,doc,field",
    [
        ("tau", "--complex", {"generators": 5}, "generators"),
        ("deep-slice", "--polynomial", {"terms": 5}, "terms"),
        ("deep-slice", "--polynomial", {"terms": [5]}, "terms[0]"),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [{"maslov": "0", "alexander": "0", "rank": "x"}]},
            "terms[0].rank",
        ),
        ("genus-bound", "--knot", _framed_document(tau_spectrum=5), "tau_spectrum"),
        ("genus-bound", "--knot", _framed_document(order=[1]), "order"),
        ("genus-bound", "--knot", _framed_document(order="x"), "order"),
        ("genus-bound", "--knot", _framed_document(order=2.5), "order"),
        ("genus-bound", "--knot", _framed_document(order=True), "order"),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [{"maslov": "0", "alexander": "0", "rank": 1.9}]},
            "terms[0].rank",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(
                per_class={"b0": True}, tau_max="1/1", tau_min="1/1", breadth="0/1"
            ),
            "tau_spectrum.per_class['b0']",
        ),
        ("genus-bound", "--knot", _framed_document(d_invariants="x"), "d_invariants"),
        ("genus-bound", "--knot", _framed_document(linking_form=5), "linking_form"),
        ("genus-bound", "--knot", _framed_document(floer_simple="maybe"), "floer_simple"),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(enumeration_complete="no"),
            "tau_spectrum.enumeration_complete",
        ),
    ],
)
def test_wrong_json_type_names_field(tmp_path, capsys, verb, flag, doc, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = [verb, flag, str(path)] + (["--target", "1"] if verb == "deep-slice" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field}: ")


def test_cable_and_satellite_bounds_agree(capsys):
    cable = run_json(capsys, "cable-bound", "--p", "2", "--tau", "-2", "--lk", "2")
    assert cable["tau_interval"] == {"lo": "-2/1", "hi": "-1/1"}
    satellite = run_json(
        capsys,
        "satellite-bound",
        "--braid", "2: 1 1 1",
        "--tau", "-2",
        "--lk", "1/1",
    )
    assert satellite["tau_interval"] == cable["tau_interval"]


def test_satellite_bound_multi_component_pattern(capsys):
    # sigma_1 in B_3 closes to 2 components: radius (p-1) + comps - 1 = 3.
    doc = run_json(
        capsys, "satellite-bound", "--braid", "3: 1", "--tau", "0", "--lk", "0"
    )
    assert doc["components"] == 2
    assert doc["tau_interval"] == {"lo": "-1/1", "hi": "2/1"}


def test_genus_bound_verbs(capsys):
    doc = run_json(capsys, "genus-bound", "--builtin", "J_example_6.2")
    assert doc["report"]["bound_value"] == "-1/4"
    assert doc["report"]["clamped_value"] == "0/1"
    doc = run_json(
        capsys, "seifert-framed-bound", "--builtin", "J_example_6.2", "--p", "2"
    )
    assert doc["report"]["inputs"]["max_abs_two_tau"] == "9/2"
    doc = run_json(capsys, "genus-bound", "--tau-max", "3/2", "--tau-min", "-1/2")
    assert doc["report"]["bound_value"] == "1/2"


def test_genus_bound_requires_single_source(capsys):
    code, _, err = run_cli(
        capsys, "genus-bound", "--builtin", "RP1_in_RP3", "--tau-max", "1"
    )
    assert code == 1
    assert "exactly one" in err


def test_deep_slice_verb(capsys):
    doc = run_json(capsys, "deep-slice", "--builtin", "lift_8_20", "--target", "1")
    assert doc["verdict"]["deep_slice"] is True
    assert doc["verdict"]["possible_tau"] == ["-1/1", "1/1"]


def test_braid_info_verb(capsys):
    doc = run_json(capsys, "braid-info", "--braid", "4: 1 2 3 1 2 3 1 2 3 1 2 3")
    assert doc["writhe"] == 12
    assert doc["components"] == 4
    assert doc["positive_crossings"] == 12


def test_c_value_verb_seifert_framed(capsys):
    # Index-4 Seifert-framed cases: the rational longitude 2*lambda + mu
    # doubled (framing -1/2, braid (s1 s2 s3)^2) and the longitude
    # lambda + mu taken four times (framing -1, braid (s1 s2 s3)^4).
    doc = run_json(
        capsys,
        "c-value",
        "--braid", "4: 1 2 3 1 2 3",
        "--lk", "-1/2",
        "--order", "2",
    )
    assert doc["c"] == 0
    doc = run_json(
        capsys,
        "c-value",
        "--braid", "4: 1 2 3 1 2 3 1 2 3 1 2 3",
        "--lk", "-1",
        "--order", "2",
    )
    assert doc["c"] == 0


def test_slice_bennequin_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "slice-bennequin", "--tb", "-1", "--rot", "0", "--chi", "-2", "--p", "1"
    )
    assert code == 0
    assert json.loads(out)["report"]["satisfied"] is True
    code, out, _ = run_cli(
        capsys, "slice-bennequin", "--tb", "5", "--rot", "0", "--chi", "0", "--p", "1"
    )
    assert code == 2
    assert json.loads(out)["report"]["satisfied"] is False


def test_verify_paper_all_green(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert len(doc["checks"]) >= 15
    assert all(c["ok"] for c in doc["checks"])
    assert all(c["citation"] for c in doc["checks"])


def test_unknown_verb_rejected():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_malformed_file_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{не json")
    code, _, err = run_cli(capsys, "tau", "--complex", str(path))
    assert code == 1
    assert "line 1" in err


def test_cli_import_loads_no_executor_or_logging():
    # The standard executor package pulls in logging: ~14 ms a process.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (
        "import sys, ratslice.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('concurrent', 'logging')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"
