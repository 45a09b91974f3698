"""Command-line surface: verbs, documents, exit codes, determinism."""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ratslice import cli
from ratslice.cli import _RATIONAL_FLAGS, _VERBS, build_parser, main
from ratslice.complexes import MAX_DOCUMENT_BYTES, MAX_GENERATORS, tau_spectrum
from ratslice.grid import torus_knot_grid
from ratslice.paperdata import builtin
from ratslice.rationals import format_rational

from helpers import (
    complex_to_json,
    disguised_complex,
    forbid_visits,
    framed_to_json,
    grid_to_text,
    poincare_to_json,
    spectrum_by_definition,
    torus_knot_floer_ranks,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a fresh `python -m ratslice.cli` on this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


ADDRESS_SPACE_CAP = 1 << 30


def run_capped(*argv, timeout):
    """`python -m ratslice.cli argv` in a child capped at 1 GiB of address
    space and killed after `timeout` seconds, so a regression fails fast
    instead of hanging the suite or paging the machine."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    return subprocess.run(
        [sys.executable, "-m", "ratslice.cli", *argv],
        capture_output=True, text=True, env=fresh_env(),
        preexec_fn=cap_address_space, timeout=timeout,
    )


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
    path.write_text(json.dumps(complex_to_json(_rp1_model_complex())))
    doc = run_json(capsys, "tau", "--complex", str(path))
    assert doc["spectrum"]["tau_max"] == "1/4"
    assert doc["spectrum"]["tau_min"] == "-1/4"
    doc = run_json(capsys, "tau", "--complex", str(path), "--cycle", "a")
    assert doc["tau"] == "1/4"


@pytest.mark.parametrize(
    "cycle",
    [
        "a,a",  # a + a = 0 over GF(2): not the class of a.
        "a b,a",
        "",  # An empty cycle is no class, not a request for the spectrum.
        " , ",
    ],
)
def test_tau_cycle_refuses_repeated_or_empty_ids(tmp_path, capsys, cycle):
    from ratslice.paperdata import _rp1_model_complex

    path = tmp_path / "rp1.json"
    path.write_text(json.dumps(complex_to_json(_rp1_model_complex())))
    code, out, err = run_cli(capsys, "tau", "--complex", str(path), "--cycle", cycle)
    assert (code, out) == (1, "")
    assert err == f"error: --cycle: expected distinct generator ids, got {cycle!r}\n"


@pytest.mark.parametrize(
    "cycle,message",
    [
        ("q", "unknown generator id 'q'"),
        ("x", "representative is not a cycle"),  # d x = a + b
        ("a,b", "class is zero in homology"),  # a + b = d x
    ],
)
def test_tau_cycle_refusal_names_the_flag(tmp_path, capsys, cycle, message):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(PINNED_COMPLEX))
    assert run_cli(capsys, "tau", "--complex", str(path), "--cycle", cycle) == (
        1, "", f"error: --cycle: {message}\n"
    )


def test_grid_file_refusal_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.grid"
    for text, message in [
        ("0 1 x\n2 0 1\n", "grid rows must contain only integers"),
        ("0 1 2\n", "grid file must have exactly two nonempty rows, found 1"),
        ("0 1 2\n1 2\n", "X and O rows must be nonempty and equal length"),
        ("0 1 2\n0 2 1\n", "X and O may not share a cell"),
        ("0 1 2 3\n1 0 3 2\n", "grid represents a 2-component link, not a knot"),
        (
            " ".join(map(str, range(11))) + "\n" + " ".join(map(str, range(1, 11))) + " 0\n",
            "grid size 11 exceeds the cap 10",
        ),
    ]:
        path.write_text(text)
        assert run_cli(capsys, "grid-tau", "--grid", str(path)) == (
            1, "", f"error: {path}: {message}\n"
        )


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


C_VALUE_DOCUMENT = """{
  "braid": "4: 1 2 3 1 2 3",
  "c": 0,
  "citation": "satellite-boundary-constant",
  "command": "c-value",
  "framing_lk": "-1/2",
  "order": 2
}
"""

GENUS_BOUND_DOCUMENT = """{
  "citation": "tau-breadth-vs-rational-slice-genus",
  "command": "genus-bound",
  "report": {
    "anomaly": null,
    "bound_value": "-1/4",
    "citation": "tau-breadth-vs-rational-slice-genus",
    "clamped_value": "0/1",
    "direction": "lower",
    "inputs": {
      "breadth": "1/2",
      "tau_max": "-7/4",
      "tau_min": "-9/4"
    },
    "is_equality": false,
    "name": "rational-slice-genus-from-tau-breadth",
    "satisfied": null
  }
}
"""

SEIFERT_FRAMED_BOUND_DOCUMENT = """{
  "citation": "seifert-framed-surface-bound",
  "command": "seifert-framed-bound",
  "report": {
    "anomaly": null,
    "bound_value": "7/1",
    "citation": "seifert-framed-surface-bound",
    "clamped_value": "7/1",
    "direction": "lower",
    "inputs": {
      "max_abs_tau": "9/4",
      "max_abs_two_tau": "9/2",
      "p": 2
    },
    "is_equality": false,
    "name": "neg-euler-bound-seifert-framed",
    "satisfied": null
  }
}
"""

SLICE_BENNEQUIN_DOCUMENT = """{
  "citation": "rational-slice-bennequin-inequality",
  "command": "slice-bennequin",
  "report": {
    "anomaly": null,
    "bound_value": "-5/1",
    "citation": "rational-slice-bennequin-inequality",
    "clamped_value": "0/1",
    "direction": "lower",
    "inputs": {
      "chi": 0,
      "p": 1,
      "rot_q": "0/1",
      "tb_q": "5/1"
    },
    "is_equality": false,
    "name": "rational-slice-bennequin",
    "satisfied": false
  }
}
"""

DEEP_SLICE_DOCUMENT = """{
  "citation": "deep-slice-obstruction-from-survivor-tau",
  "command": "deep-slice",
  "spinc": "+1/-1",
  "target_rank": 1,
  "verdict": {
    "citation": "deep-slice-obstruction-from-survivor-tau",
    "deep_slice": true,
    "possible_tau": [
      "-1/1",
      "1/1"
    ]
  }
}
"""

VERIFY_PAPER_DOCUMENT = """{
  "all_ok": true,
  "checks": [
    {
      "actual": "-2/1",
      "citation": "negative (2,5) torus knot tau",
      "expected": "-2/1",
      "name": "grid tau of T(2,-5)",
      "ok": true
    },
    {
      "actual": "-2/1",
      "citation": "negative (2,5) torus knot tau",
      "expected": "-2/1",
      "name": "embedded tau of T(2,-5)",
      "ok": true
    },
    {
      "actual": [
        "1/4",
        "-1/4"
      ],
      "citation": "order-2 core circle tau from d-invariants",
      "expected": [
        "1/4",
        "-1/4"
      ],
      "name": "core circle spectrum extremes",
      "ok": true
    },
    {
      "actual": [
        "-7/4",
        "-9/4"
      ],
      "citation": "tau additivity under local knotting",
      "expected": [
        "-7/4",
        "-9/4"
      ],
      "name": "connected sum shift by -2",
      "ok": true
    },
    {
      "actual": {
        "deep_slice": true,
        "possible_tau": [
          "-1/1",
          "1/1"
        ]
      },
      "citation": "deep-slice obstruction in the branched double cover",
      "expected": {
        "deep_slice": true,
        "possible_tau": [
          "-1/1",
          "1/1"
        ]
      },
      "name": "lift of 8_20 survivor tau values",
      "ok": true
    },
    {
      "actual": [
        [
          "-2/9",
          "-1/1",
          1
        ],
        [
          "7/9",
          "0/1",
          1
        ],
        [
          "16/9",
          "1/1",
          1
        ]
      ],
      "citation": "three-term polynomial at gradings 7/9 + {-1,0,1}",
      "expected": [
        [
          "-2/9",
          "-1/1",
          1
        ],
        [
          "7/9",
          "0/1",
          1
        ],
        [
          "16/9",
          "1/1",
          1
        ]
      ],
      "name": "lift of 8_20 polynomial terms",
      "ok": true
    },
    {
      "actual": "2/1",
      "citation": "surviving gradings differ by at least two",
      "expected": "2/1",
      "name": "dual knot breadth at genus 2",
      "ok": true
    },
    {
      "actual": "-1/2",
      "citation": "boundary slope determines linking -r/q",
      "expected": "-1/2",
      "name": "linking from surface slope (2, 1)",
      "ok": true
    },
    {
      "actual": "5/2",
      "citation": "linking shifts by the framing change",
      "expected": "5/2",
      "name": "re-framing shift (-1/2) + 3",
      "ok": true
    },
    {
      "actual": 6,
      "citation": "standard torus braid writhe",
      "expected": 6,
      "name": "torus braid writhe (mr-1)ms at m=2, r=2, s=1",
      "ok": true
    },
    {
      "actual": 0,
      "citation": "rational-longitude surfaces have c = 0",
      "expected": 0,
      "name": "Seifert-framed boundary constant",
      "ok": true
    },
    {
      "actual": [
        -7,
        -7,
        -7,
        -7,
        -7,
        -7,
        -7
      ],
      "citation": "boundary constant independent of the description",
      "expected": [
        -7,
        -7,
        -7,
        -7,
        -7,
        -7,
        -7
      ],
      "name": "c invariance under twist normalization",
      "ok": true
    },
    {
      "actual": [
        "0/1",
        "3/1"
      ],
      "citation": "exterior generator bigradings, row x3",
      "expected": [
        "0/1",
        "3/1"
      ],
      "name": "grading table entry (x3, C(maxa))",
      "ok": true
    },
    {
      "actual": [
        "0/1",
        "1/1"
      ],
      "citation": "exterior generator bigradings, row x4",
      "expected": [
        "0/1",
        "1/1"
      ],
      "name": "grading table entry (x4, C(maxa))",
      "ok": true
    },
    {
      "actual": "-1/4",
      "citation": "raw breadth bound can be vacuous",
      "expected": "-1/4",
      "name": "breadth genus bound on the composite",
      "ok": true
    },
    {
      "actual": "9/2",
      "citation": "doubled tau maximum of the composite",
      "expected": "9/2",
      "name": "Seifert-framed bound sees 2|tau| = 9/2",
      "ok": true
    },
    {
      "actual": "3/1",
      "citation": "degree-2 surface with -chi = 4",
      "expected": "3/1",
      "name": "explicit surface gives 2*genus + 1 <= 3",
      "ok": true
    },
    {
      "actual": "1/2",
      "citation": "d-invariants are +-1/4",
      "expected": "1/2",
      "name": "d-invariant difference bound on the projective space",
      "ok": true
    }
  ],
  "citation": "embedded-worked-example-suite",
  "command": "verify-paper"
}
"""

# The report documents, the deep-slice verdict and the verify-paper
# checks as printed while reports still carried a direction field and
# verdicts a citation field; the documents stay byte-identical.
GOLDEN_RUNS = [
    (("c-value", "--braid", "4: 1 2 3 1 2 3", "--lk", "-2/4", "--order", "2"),
     0, C_VALUE_DOCUMENT),
    (("genus-bound", "--builtin", "J_example_6.2"), 0, GENUS_BOUND_DOCUMENT),
    (("seifert-framed-bound", "--builtin", "J_example_6.2", "--p", "2"),
     0, SEIFERT_FRAMED_BOUND_DOCUMENT),
    (("slice-bennequin", "--tb", "5", "--rot", "0", "--chi", "0", "--p", "1"),
     2, SLICE_BENNEQUIN_DOCUMENT),
    (("deep-slice", "--builtin", "lift_8_20", "--target", "1"), 0, DEEP_SLICE_DOCUMENT),
    (("verify-paper",), 0, VERIFY_PAPER_DOCUMENT),
]


@pytest.mark.parametrize(
    "argv,code,document", GOLDEN_RUNS, ids=[argv[0] for argv, _, _ in GOLDEN_RUNS]
)
def test_report_and_paper_documents_unchanged(capsys, argv, code, document):
    got, out, err = run_cli(capsys, *argv)
    assert (got, err) == (code, "")
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


def test_tau_complex_per_class_is_tau_of_each_sum(tmp_path, capsys):
    # Rank 13: each id names its basis classes in ascending order, and its
    # value is tau of the sum of their cycles.  From rank 11 on, string
    # order interleaves the names: b1 < b1+b10 < b10 < b2.
    complex_ = disguised_complex(random.Random(13), 13 + 2 * 8, 8, ["0", "1"])
    path = tmp_path / "rank13.json"
    path.write_text(json.dumps(complex_to_json(complex_)))
    code, out, err = run_cli(capsys, "tau", "--complex", str(path))
    assert code == 0, err
    per_class = json.loads(out)["spectrum"]["per_class"]
    expected = spectrum_by_definition(complex_)
    assert len(expected) == 2**13 - 1
    assert per_class == {cid: format_rational(v) for cid, v in expected.items()}
    assert len(set(per_class.values())) > 1
    assert list(tau_spectrum(complex_).per_class) == sorted(expected)
    taus = expected.values()
    expected_doc = {
        "citation": "tau-from-filtered-complex",
        "command": "tau",
        "spectrum": {
            "per_class": {cid: format_rational(v) for cid, v in expected.items()},
            "tau_max": format_rational(max(taus)),
            "tau_min": format_rational(min(taus)),
            "breadth": format_rational(max(taus) - min(taus)),
            "enumeration_complete": True,
        },
    }
    assert out == json.dumps(expected_doc, sort_keys=True, indent=2) + "\n"


# Rank 21, above the enumeration cap: a, b at A=1 and c at A=-5 with
# dx = a + b + c, plus 19 free generators at A=0.  per_class lists the
# filtered basis, which carries both extremes: b0 = [b] (tau 1) and
# b1 = [c] = [a + b] (tau -5).
RANK21_GENERATORS = [("a", "0", "1"), ("b", "0", "1"), ("c", "0", "-5"), ("x", "1", "1")]
RANK21_COMPLEX = {
    "generators": [
        {"id": g, "maslov": m, "alexander": a, "spinc": "0"}
        for g, m, a in RANK21_GENERATORS + [(f"p{i:02d}", "0", "0") for i in range(19)]
    ],
    "differential": {"x": ["a", "b", "c"]},
}

RANK21_SPECTRUM_DOCUMENT = """{
  "citation": "tau-from-filtered-complex",
  "command": "tau",
  "spectrum": {
    "breadth": "6/1",
    "enumeration_complete": false,
    "per_class": {
      "b0": "1/1",
      "b1": "-5/1",
      "b10": "0/1",
      "b11": "0/1",
      "b12": "0/1",
      "b13": "0/1",
      "b14": "0/1",
      "b15": "0/1",
      "b16": "0/1",
      "b17": "0/1",
      "b18": "0/1",
      "b19": "0/1",
      "b2": "0/1",
      "b20": "0/1",
      "b3": "0/1",
      "b4": "0/1",
      "b5": "0/1",
      "b6": "0/1",
      "b7": "0/1",
      "b8": "0/1",
      "b9": "0/1"
    },
    "tau_max": "1/1",
    "tau_min": "-5/1"
  }
}
"""


def test_tau_complex_rank21_document(tmp_path, capsys):
    path = tmp_path / "rank21.json"
    path.write_text(json.dumps(RANK21_COMPLEX))
    code, out, err = run_cli(capsys, "tau", "--complex", str(path))
    assert code == 0, err
    assert out == RANK21_SPECTRUM_DOCUMENT


def free_complex(path, rank):
    """A complex file of rank free generators at Alexander gradings
    -1, 0, 1 in turn: its homology has rank `rank`."""
    path.write_text(json.dumps({
        "generators": [
            {"id": f"g{i:02d}", "maslov": "0", "alexander": str(i % 3 - 1), "spinc": "0"}
            for i in range(rank)
        ],
        "differential": {},
    }))
    return path


class _NullSink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_tau_complex_holds_no_listing_of_every_class(tmp_path, monkeypatch):
    # 65,535 classes at rank 16 (a 2.8 MB document).  Written a table of
    # lines at a time, the peak is 1.4 MiB on Python 3.11 and up to 2.3
    # MiB on 3.10-3.13; a writer that joins the whole listing before
    # writing it peaks at 5.9 MiB on 3.11, and building the classes as
    # tables and dicts peaked at 9.7 MiB.
    path = free_complex(tmp_path / "free16.json", 16)
    monkeypatch.setattr(sys, "stdout", _NullSink())
    tracemalloc.start()
    try:
        assert main(["tau", "--complex", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_tau_complex_answers_at_every_rank_of_a_complete_listing(tmp_path, monkeypatch):
    # A complete listing must attain both extremes; tau_spectrum's are its
    # basis values', so no rank is refused.
    monkeypatch.setattr(sys, "stdout", _NullSink())
    path = tmp_path / "complex.json"
    for rank in range(1, 21):
        complex_ = disguised_complex(random.Random(rank), rank + 2 * 3, 3, ["0", "1"])
        path.write_text(json.dumps(complex_to_json(complex_)))
        assert main(["tau", "--complex", str(path)]) == 0, rank


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # The rank-15 document (about 1 MB) outgrows the pipe, so the writer
    # is still writing when the reader leaves after one line.
    path = free_complex(tmp_path / "free15.json", 15)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratslice.cli", "tau", "--complex", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""  # no Traceback, and no "Exception ignored" at exit
    assert proc.returncode == 1


def _framed_document(**fields):
    doc = framed_to_json(builtin("J_example_6.2"))
    doc.update(fields)
    return doc


def _framed_spectrum(**fields):
    spectrum = framed_to_json(builtin("J_example_6.2"))["tau_spectrum"]
    return _framed_document(tau_spectrum=dict(spectrum, **fields))


_GEN_A = {"id": "a", "maslov": "0", "alexander": "0", "spinc": "0"}


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
        ("genus-bound", "--knot", _framed_document(lk=[1]), "lk"),
        ("genus-bound", "--knot", _framed_document(floer_simple="maybe"), "floer_simple"),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(enumeration_complete="no"),
            "tau_spectrum.enumeration_complete",
        ),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [{"maslov": "0", "alexander": "0", "rank": 0}]},
            "terms[0].rank",
        ),
        (
            "deep-slice",
            "--polynomial",
            {
                "terms": [
                    {"maslov": "0", "alexander": "0", "rank": 1},
                    {"maslov": "1", "alexander": "1", "rank": 1},
                    {"maslov": "0/1", "alexander": "0", "rank": 2},
                ]
            },
            "terms[2]",
        ),
        # d x = a + a = 0 over GF(2): read as a set, the list would give
        # d x = a and zero homology instead of rank 2.
        (
            "tau",
            "--complex",
            {
                "generators": [
                    {"id": "a", "maslov": "0", "alexander": "0", "spinc": "0"},
                    {"id": "x", "maslov": "1", "alexander": "0", "spinc": "0"},
                ],
                "differential": {"x": ["a", "a"]},
            },
            "differential['x']",
        ),
        # Ids and labels are JSON strings; other values were coerced with
        # str(), so null became "None" and the target 1 matched the id "1".
        (
            "tau",
            "--complex",
            {"generators": [{"id": None, "maslov": "0", "alexander": "0", "spinc": "0"}]},
            "generators[0].id",
        ),
        (
            "tau",
            "--complex",
            {"generators": [{"id": "a", "maslov": "0", "alexander": "0", "spinc": None}]},
            "generators[0].spinc",
        ),
        (
            "tau",
            "--complex",
            {
                "generators": [
                    {"id": "1", "maslov": "0", "alexander": "0", "spinc": "0"},
                    {"id": "x", "maslov": "1", "alexander": "0", "spinc": "0"},
                ],
                "differential": {"x": [1]},
            },
            "differential['x']",
        ),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [{"maslov": "0", "alexander": "0", "rank": 1}], "spinc": [1, 2]},
            "spinc",
        ),
        # Record invariants, refused with the document field named.
        ("genus-bound", "--knot", _framed_document(order=0), "order"),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(tau_min="-1/1"),
            "tau_spectrum.tau_min",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(per_class={"b0": "5/1", "b0+b1": "-7/4", "b1": "-9/4"}),
            "tau_spectrum.per_class['b0']",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(tau_max="-1/1", breadth="5/4"),
            "tau_spectrum.tau_max",
        ),
        # A record checks its rules once every field is read, so with two
        # errors the malformed value is named before the broken rule.
        ("genus-bound", "--knot", _framed_document(order=0, slope="x"), "slope"),
        (
            "deep-slice",
            "--polynomial",
            {
                "terms": [
                    {"maslov": "0", "alexander": "0", "rank": 0},
                    {"maslov": "1.5", "alexander": "0", "rank": 1},
                ]
            },
            "terms[1].maslov",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(per_class={}, tau_max="x"),
            "tau_spectrum.tau_max",
        ),
        (
            "tau",
            "--complex",
            {
                "generators": [
                    {"id": "a", "maslov": "0", "alexander": "0", "spinc": "0"},
                    {"id": "x", "maslov": "1", "alexander": "0", "spinc": "0"},
                ],
                "differential": {"x": ["a", "a"], "y": [5]},
            },
            "differential['y']",
        ),
        ("tau", "--complex", {"generators": [_GEN_A], "differential": []}, "differential"),
        (
            "tau",
            "--complex",
            {"generators": [_GEN_A], "differential": {"a": "b"}},
            "differential['a']",
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


def test_knot_document_derived_values_must_agree(tmp_path, capsys):
    # breadth and lk are derived on the records; a document's copies are
    # checked against them and the refusal names the document path.
    cases = [
        (_framed_spectrum(breadth="1/1"), "tau_spectrum.breadth: expected "
         "tau_max - tau_min = 1/2, got 1/1"),
        (_framed_document(lk="1/2"), "lk: expected -slope/order = -1/2, got 1/2"),
    ]
    path = tmp_path / "knot.json"
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "genus-bound", "--knot", str(path)) == (
            1, "", f"error: {message}\n"
        )


@pytest.mark.parametrize(
    "linking_form", [5, ["0/1", "3/2"]], ids=["number", "out_of_range"]
)
def test_framed_document_with_a_linking_form_reads_as_without(
    tmp_path, capsys, linking_form
):
    # Documents once carried a linking form that no verb read; the field
    # is now ignored like any other unknown one, even when malformed.
    plain, old = tmp_path / "plain.json", tmp_path / "old.json"
    plain.write_text(json.dumps(_framed_document()))
    old.write_text(json.dumps(_framed_document(linking_form=linking_form)))
    for argv in (["genus-bound"], ["seifert-framed-bound", "--p", "2"]):
        expected = run_cli(capsys, *argv, "--knot", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, *argv, "--knot", str(old)) == expected


@pytest.mark.parametrize(
    "verb,flag,doc,message",
    [
        (
            "tau",
            "--complex",
            {
                "generators": [
                    {"id": "a", "maslov": "0", "alexander": "0", "spinc": "0"},
                    {"id": "x", "maslov": "1", "alexander": "0", "spinc": "0"},
                ],
                "differential": {"x": ["a", "a"]},
            },
            "differential['x']: repeated target 'a'",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(per_class={}),
            "tau_spectrum.per_class: expected a nonempty object",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(per_class=[]),
            "tau_spectrum.per_class: expected a nonempty object",
        ),
        (
            "tau",
            "--complex",
            {"generators": [_GEN_A, _GEN_A], "differential": {}},
            "duplicate generator id 'a'",
        ),
        (
            "tau",
            "--complex",
            {"generators": [_GEN_A], "differential": {"z": ["a"]}},
            "differential source 'z' is not a generator",
        ),
        (
            "tau",
            "--complex",
            {"generators": [_GEN_A], "differential": {"a": ["z"]}},
            "differential target 'z' is not a generator",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(per_class={"b0": "0/1"}, tau_max="5/1", tau_min="-5/1",
                             breadth="10/1"),
            "tau_spectrum.tau_max: expected 0/1: a complete listing attains both extremes",
        ),
        (
            "genus-bound",
            "--knot",
            _framed_spectrum(tau_min="-5/2", breadth="3/4"),
            "tau_spectrum.tau_min: expected -9/4: a complete listing attains both extremes",
        ),
        # The survivor deduction reads the record and checks these nowhere else.
        (
            "deep-slice",
            "--polynomial",
            {"terms": [{"maslov": "0", "alexander": "0", "rank": 0}]},
            "terms[0].rank: expected a positive integer, got 0",
        ),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [
                {"maslov": "1", "alexander": "1", "rank": 1},
                {"maslov": "0", "alexander": "0", "rank": -1},
            ]},
            "terms[1].rank: expected a positive integer, got -1",
        ),
        (
            "deep-slice",
            "--polynomial",
            {"terms": [
                {"maslov": "0", "alexander": "0", "rank": 1},
                {"maslov": "0/1", "alexander": "0", "rank": 2},
            ]},
            "terms[1]: duplicate bigrading in polynomial",
        ),
    ],
)
def test_record_rule_refusal_text(tmp_path, capsys, verb, flag, doc, message):
    # FilteredComplex, TauSpectrum and PoincarePolynomial own these rules;
    # the parser only refuses a value of the wrong JSON type.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, verb, flag, str(path)) == (1, "", f"error: {message}\n")


def test_huge_exponent_grading_refused_at_once(tmp_path, capsys):
    # Fraction reads "1e6000000" in about 5 s, and the CLI then died
    # naming no field; the rational grammar refuses it before any work.
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "generators": [
            {"id": "a", "maslov": "0", "alexander": "1e6000000", "spinc": "0"}
        ],
        "differential": {},
    }))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "tau", "--complex", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: generators[0].alexander: malformed rational")


def test_rational_flags_echo_canonical_form(capsys):
    doc = run_json(capsys, "cable-bound", "--p", "2", "--tau", "-2", "--lk", "2")
    assert (doc["tau"], doc["lk"]) == ("-2/1", "2/1")
    doc = run_json(capsys, "cable-bound", "--p", "2", "--tau", "-4/2", "--lk", "+6/3")
    assert (doc["tau"], doc["lk"]) == ("-2/1", "2/1")
    doc = run_json(
        capsys, "c-value", "--braid", "4: 1 2 3 1 2 3", "--lk", "-2/4", "--order", "2"
    )
    assert doc["framing_lk"] == "-1/2"
    assert run_cli(capsys, "cable-bound", "--p", "2", "--tau", "1.5", "--lk", "0") == (
        1, "", "error: --tau: malformed rational '1.5': expected an integer or 'a/b'\n"
    )


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


def test_deep_slice_many_cancellations_deep(tmp_path):
    # 1200 cancellations deep: answered, not a RecursionError traceback.
    path = tmp_path / "two_terms.json"
    path.write_text(
        json.dumps(
            {
                "terms": [
                    {"maslov": "1", "alexander": "1", "rank": 1200},
                    {"maslov": "0", "alexander": "0", "rank": 1201},
                ]
            }
        )
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "ratslice.cli",
            "deep-slice", "--polynomial", str(path), "--target", "1",
        ],
        capture_output=True, text=True, env=fresh_env(), timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["possible_tau"] == ["0/1"]


def test_deep_slice_maslov_imbalance_refused_at_once(tmp_path):
    # M = A = -3..3, rank 20 each and 21 at 0: odd-Maslov units outnumber
    # even ones by 19, so one survivor is unreachable.
    path = tmp_path / "diagonal.json"
    terms = [
        {"maslov": str(k), "alexander": str(k), "rank": 20 + (k == 0)}
        for k in range(-3, 4)
    ]
    path.write_text(json.dumps({"terms": terms}))
    # The level sweep took 43.7 s on this input; the refusal comes first.
    proc = run_capped(
        "deep-slice", "--polynomial", str(path), "--target", "1", timeout=10
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "target rank 1 unreachable" in proc.stderr
    assert "imbalance 19" in proc.stderr


def _diagonal_polynomial(path, rank):
    """Seven terms on the diagonal M = A = -3..3, rank `rank` each, one more at 0."""
    terms = [
        {"maslov": str(k), "alexander": str(k), "rank": rank + (k == 0)}
        for k in range(-3, 4)
    ]
    path.write_text(json.dumps({"terms": terms}))
    return path


def test_deep_slice_never_lists_rank_vectors(tmp_path, capsys, monkeypatch):
    # deep-slice asks which gradings can survive; the level sweep that
    # lists every rank vector must stay off its path.
    from ratslice import paperdata

    def listing(*args):
        raise AssertionError("deep-slice listed rank vectors")

    monkeypatch.setattr(paperdata, "survivor_deduction", listing)
    doc = run_json(capsys, "deep-slice", "--builtin", "lift_8_20", "--target", "1")
    assert doc["verdict"]["possible_tau"] == ["-1/1", "1/1"]
    path = _diagonal_polynomial(tmp_path / "diagonal.json", 20)
    doc = run_json(capsys, "deep-slice", "--polynomial", str(path), "--target", "19")
    assert doc["verdict"] == {
        "citation": "deep-slice-obstruction-from-survivor-tau",
        "deep_slice": True,
        "possible_tau": ["-1/1", "-3/1", "1/1", "3/1"],
    }


def test_no_verb_reaches_the_level_sweep(capsys, monkeypatch):
    # verify-paper's dual-knot breadth is a closed form, and deep-slice
    # runs one flow: no command lists rank vectors.
    from ratslice import paperdata

    def listing(*args):
        raise AssertionError("verify-paper listed rank vectors")

    monkeypatch.setattr(paperdata, "survivor_deduction", listing)
    code, out, err = run_cli(capsys, "verify-paper")
    assert code == 0, err
    assert json.loads(out)["all_ok"] is True


@pytest.mark.parametrize("shape,rank,target,possible", [
    ("diagonal", 20, 19, ["-1/1", "-3/1", "1/1", "3/1"]),
    ("diagonal", 30, 29, ["-1/1", "-3/1", "1/1", "3/1"]),
    ("two terms", 10**6, 1, ["0/1"]),
    # 500 terms at A = i, M = i mod 2: a unit at odd i cancels one at an
    # even j < i.  Two survive, one at even e and one at odd o; the rest
    # match up (2t + 1 with 2t, skipping the survivors) exactly when
    # e >= o - 1, so every grading can survive (with o = 1 or e = 498).
    ("500 terms, M = A mod 2", 1, 2, sorted(format_rational(a) for a in range(500))),
    # M = (i + 1) mod 2: nothing lies below A = 0 or above A = 499, so
    # those two always survive, and 2t cancels 2t - 1 for the rest.
    ("500 terms, M = A + 1 mod 2", 1, 2, ["0/1", "499/1"]),
])
def test_deep_slice_stress_inputs_answer_at_once(tmp_path, shape, rank, target, possible):
    # The level sweep took 48 s on the rank-20 diagonal and ran past 60 s
    # at rank 30; the flows answer within the interpreter's start-up.  On
    # 500 terms one flow per term ran past 60 s; the single flow and the
    # interpreter's start take about 0.35 s.
    path = tmp_path / "poly.json"
    if shape == "diagonal":
        _diagonal_polynomial(path, rank)
    elif shape == "two terms":
        path.write_text(json.dumps({"terms": [
            {"maslov": "1", "alexander": "1", "rank": rank},
            {"maslov": "0", "alexander": "0", "rank": rank + 1},
        ]}))
    else:
        shift = shape.endswith("+ 1 mod 2")
        path.write_text(json.dumps({"terms": [
            {"maslov": str((i + shift) % 2), "alexander": str(i), "rank": rank}
            for i in range(500)
        ]}))
    seconds = 5 if shape.startswith("500") else 1
    start = time.perf_counter()
    proc = run_capped(
        "deep-slice", "--polynomial", str(path), "--target", str(target), timeout=5
    )
    assert time.perf_counter() - start < seconds
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"]["possible_tau"] == possible


def test_grid_tau_hfk_above_cap_refused_before_tau(monkeypatch, capsys):
    # The trefoil grid's A >= 0 half holds 6 of its 120 states.
    import ratslice.grid as grid_module

    def no_scan(*args):
        raise AssertionError("scanned a grid above the --hfk cap")

    monkeypatch.setattr(grid_module, "MAX_HFK_STATES", 5)
    monkeypatch.setattr(grid_module, "tau", no_scan)
    monkeypatch.setattr(grid_module, "hfk_ranks", no_scan)
    forbid_visits(monkeypatch)
    assert run_cli(capsys, "grid-tau", "--torus", "2", "3", "--hfk") == (
        1,
        "",
        "error: --hfk: the A >= 0 half holds 6 states, above the limit of 5 "
        "that knot Floer ranks are measured to answer\n",
    )


def test_grid_tau_hfk_builds_the_two_a_table_once(monkeypatch, capsys):
    # check_hfk_size's count and graded_ranks' walk read the one 2A table.
    import ratslice.grid as grid_module

    calls = []
    suffix_counts = grid_module._Grader.suffix_counts

    def counted(self, alexander=False):
        calls.append(alexander)
        return suffix_counts(self, alexander)

    monkeypatch.setattr(grid_module._Grader, "suffix_counts", counted)
    doc = run_json(capsys, "grid-tau", "--torus", "3", "5", "--hfk")
    assert doc["tau"] == "4/1"
    assert calls.count(True) == 1
    assert calls.count(False) == 2  # tau's slice counts: the grid and its mirror


# -- one integer grammar: [+-]?[0-9]+ in text, JSON integers in documents ----
# int() also reads underscores ("1_0" as 10), digits of other scripts
# ("\u0661" as 1) and, in a document, strings ("1" and " 1 ").


@pytest.mark.parametrize("rank", ["1", " 1 "])
def test_document_integer_must_be_a_json_integer(tmp_path, capsys, rank):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"terms": [{"maslov": "0", "alexander": "0", "rank": rank}]}))
    assert run_cli(capsys, "deep-slice", "--polynomial", str(path)) == (
        1, "", f"error: terms[0].rank: expected an integer, got {rank!r}\n"
    )


def test_grid_row_refuses_other_digits(tmp_path, capsys):
    path = tmp_path / "knot.grid"
    path.write_text("0 1 2 3 4\n2 3 4 0 \u0661\n")
    assert run_cli(capsys, "grid-tau", "--grid", str(path)) == (
        1, "", f"error: {path}: grid rows must contain only integers\n"
    )


@pytest.mark.parametrize(
    "braid,message",
    [
        ("3: 1 +2 -1_0", "malformed braid letter 3 '-1_0': expected an integer"),
        ("1_0: 1", "malformed braid header '1_0': expected an integer"),
    ],
)
def test_braid_text_refuses_underscores(capsys, braid, message):
    assert run_cli(capsys, "braid-info", "--braid", braid) == (
        1, "", f"error: --braid: {message}\n"
    )


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["cable-bound", "--p", "1_0", "--tau", "1", "--lk", "0"], "--p", "1_0"),
        (["cable-bound", "--p", "\u0662", "--tau", "1", "--lk", "0"], "--p", "\u0662"),
        (["seifert-framed-bound", "--builtin", "J_example_6.2", "--p", "2_0"], "--p", "2_0"),
        (["grid-tau", "--torus", "2", "1_1"], "--torus", "1_1"),
        (["slice-bennequin", "--tb", "0", "--rot", "0", "--chi", "1_0", "--p", "1"],
         "--chi", "1_0"),
        (["c-value", "--braid", "2: 1", "--lk", "0", "--order", "\u0661"], "--order", "\u0661"),
        (["deep-slice", "--builtin", "lift_8_20", "--target", "1_0"], "--target", "1_0"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_integer_flags_refuse_other_forms(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_integer_text_keeps_signs_and_surrounding_space(capsys):
    plain = run_json(capsys, "cable-bound", "--p", "2", "--tau", "1", "--lk", "0")
    for p in ("+2", " 2 "):
        assert run_json(capsys, "cable-bound", "--p", p, "--tau", "1", "--lk", "0") == plain
    assert run_json(capsys, "braid-info", "--braid", " 3 : +1 -2")["braid"] == "3: 1 -2"


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["braid-info", "--braid", "3: 1 x"],
            "--braid: malformed braid letter 2 'x': expected an integer",
        ),
        (
            ["genus-bound", "--tau-max", "0", "--tau-min", "1"],
            "--tau-min 1 is above --tau-max 0",
        ),
        (
            ["cable-bound", "--p", "2", "--tau", "0", "--lk", "1/0"],
            "--lk: malformed rational '1/0': zero denominator",
        ),
        (
            ["satellite-bound", "--braid", "2: 1", "--tau", "x", "--lk", "0"],
            "--tau: malformed rational 'x': expected an integer or 'a/b'",
        ),
        (
            ["satellite-bound", "--braid", "2: 1", "--tau", "0", "--lk", "1e3"],
            "--lk: malformed rational '1e3': expected an integer or 'a/b'",
        ),
        (
            ["genus-bound", "--tau-max", "1.5", "--tau-min", "0"],
            "--tau-max: malformed rational '1.5': expected an integer or 'a/b'",
        ),
        (
            ["genus-bound", "--tau-max", "1", "--tau-min", "1_000"],
            "--tau-min: malformed rational '1_000': expected an integer or 'a/b'",
        ),
        (
            ["c-value", "--braid", "2: 1", "--lk", "1/0"],
            "--lk: malformed rational '1/0': zero denominator",
        ),
        (
            ["slice-bennequin", "--tb", "0.5", "--rot", "0", "--chi", "-2", "--p", "1"],
            "--tb: malformed rational '0.5': expected an integer or 'a/b'",
        ),
        (
            ["slice-bennequin", "--tb", "0", "--rot", "1/0", "--chi", "-2", "--p", "1"],
            "--rot: malformed rational '1/0': zero denominator",
        ),
        (
            ["cable-bound", "--p", "0", "--tau", "0", "--lk", "0"],
            "--p: p must be >= 1",
        ),
        (
            ["seifert-framed-bound", "--builtin", "J_example_6.2", "--p", "0"],
            "--p: p must be >= 1",
        ),
        (
            ["slice-bennequin", "--tb", "-1", "--rot", "0", "--chi", "-2", "--p", "0"],
            "--p: p must be >= 1",
        ),
        (
            ["c-value", "--braid", "2: 1", "--lk", "0", "--order", "0"],
            "--order: order must be >= 1",
        ),
        (
            ["deep-slice", "--builtin", "lift_8_20", "--target", "0"],
            "--target: ambient homology rank must be >= 1",
        ),
        # Parsers and records that do not know the flag they serve.
        (
            ["braid-info", "--braid", "x: 1"],
            "--braid: malformed braid header 'x': expected an integer",
        ),
        (
            ["braid-info", "--braid", "3: 5"],
            "--braid: letter 5 out of range for index 3",
        ),
        (
            ["satellite-bound", "--braid", "0:", "--tau", "0", "--lk", "0"],
            "--braid: braid index must be >= 1",
        ),
        (
            ["c-value", "--braid", "2: 0", "--lk", "0"],
            "--braid: letter 0 out of range for index 2",
        ),
        (["grid-tau", "--torus", "0", "3"], "--torus: p must be >= 1"),
        (
            ["grid-tau", "--torus", "2", "4"],
            "--torus: T(2,4) is a link, not a knot: gcd = 2",
        ),
        (
            ["genus-bound", "--builtin", "nope"],
            "--builtin: unknown builtin 'nope'; available: RP1_in_RP3, T(2,-5), "
            "J_example_6.2, lift_8_20",
        ),
        (
            ["seifert-framed-bound", "--builtin", "lift_8_20", "--p", "1"],
            "--builtin: 'lift_8_20' is not a framed knot",
        ),
        (
            ["deep-slice", "--builtin", "T(2,-5)"],
            "--builtin: 'T(2,-5)' is not a Poincare polynomial",
        ),
        (["genus-bound", "--tau-max", "1"], "--tau-max and --tau-min must be given together"),
        (["grid-tau"], "specify exactly one of --grid FILE or --torus p q"),
        (
            ["grid-tau", "--grid", "knot.grid", "--torus", "2", "3"],
            "specify exactly one of --grid FILE or --torus p q",
        ),
        (
            ["deep-slice", "--target", "1"],
            "specify exactly one of --polynomial FILE or --builtin NAME",
        ),
    ],
)
def test_bad_flag_value_names_it(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


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
    assert err.value.code == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cable-bound", "--p", "2"], "the following arguments are required: --tau, --lk"),
        (
            ["cable-bound", "--p", "x", "--tau", "0", "--lk", "0"],
            "argument --p: invalid int value: 'x'",
        ),
        (["grid-tau", "--torus", "2"], "argument --torus: expected 2 arguments"),
    ],
)
def test_usage_error_exits_one_with_argparse_text(capsys, argv, message):
    # Exit code 2 is a violated check; argparse's own usage errors exit 1.
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: ratslice {argv[0]} ")
    assert captured.err.endswith(f"\nratslice {argv[0]}: error: {message}\n")


# One verb per flag that _normalize_argv joins, with a negative value in
# the space-separated form that argparse alone would read as an option.
NEGATIVE_RATIONAL_RUNS = {
    "--lk": ["cable-bound", "--p", "2", "--tau", "0", "--lk", "-1/3"],
    "--tau": ["cable-bound", "--p", "2", "--tau", "-1/3", "--lk", "0"],
    "--tau-max": ["genus-bound", "--tau-max", "-1/3", "--tau-min", "-1"],
    "--tau-min": ["genus-bound", "--tau-max", "0", "--tau-min", "-1/3"],
    "--tb": ["slice-bennequin", "--tb", "-1/3", "--rot", "0", "--chi", "-2", "--p", "1"],
    "--rot": ["slice-bennequin", "--tb", "0", "--rot", "-1/3", "--chi", "-2", "--p", "1"],
}


def test_rational_flags_are_the_options_read_as_a_b(capsys):
    verbs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    documented = {
        option
        for sub in verbs.choices.values()
        for action in sub._actions
        if action.help and "a/b" in action.help
        for option in action.option_strings
    }
    assert documented == _RATIONAL_FLAGS == set(NEGATIVE_RATIONAL_RUNS)
    for flag, argv in NEGATIVE_RATIONAL_RUNS.items():
        assert '"-1/3"' in json.dumps(run_json(capsys, *argv)), flag


@pytest.mark.parametrize("flag", sorted(_RATIONAL_FLAGS))
def test_rational_flag_before_another_option_is_missing_its_value(capsys, flag):
    # A token that starts with "--" is the next option, not a negative
    # value: main refuses the run exactly as argparse alone does.
    verb, *rest = NEGATIVE_RATIONAL_RUNS[flag]
    at = rest.index(flag)
    argv = [verb, flag, *rest[:at], *rest[at + 2:]]
    with pytest.raises(SystemExit) as parsed:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as run:
        main(argv)
    assert (run.value.code, capsys.readouterr()) == (parsed.value.code, expected)
    assert parsed.value.code == 1
    assert expected.err.endswith(f"error: argument {flag}: expected one argument\n")


def test_malformed_file_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{не json")
    code, _, err = run_cli(capsys, "tau", "--complex", str(path))
    assert code == 1
    assert "line 1" in err


@pytest.mark.parametrize("argv", [
    ["tau", "--complex"],
    ["grid-tau", "--grid"],
    ["deep-slice", "--polynomial"],
    ["genus-bound", "--knot"],
], ids=lambda argv: argv[0])
def test_non_utf8_file_names_the_file(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff{}")
    assert run_cli(capsys, *argv, str(path)) == (1, "", (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n"
    ))


def test_top_level_json_array_names_the_file(tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    assert run_cli(capsys, "tau", "--complex", str(path)) == (
        1, "", f"error: {path}: top-level JSON value must be an object\n"
    )


_TOO_DEEP = "[" * 100_000
_TOO_LONG = (
    '{"terms": [{"maslov": "0", "alexander": "0", "rank": ' + "1" * 5000 + "}]}"
)


@pytest.mark.parametrize("argv", [
    ["tau", "--complex"],
    ["deep-slice", "--polynomial"],
    ["genus-bound", "--knot"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("text,reason", [
    (_TOO_DEEP, "maximum recursion depth exceeded"),
    (_TOO_LONG, "integer string conversion"),
], ids=["nesting", "digits"])
def test_json_past_the_interpreter_limits_names_the_file(tmp_path, argv, text, reason):
    # Valid JSON that the decoder cannot hold: nesting past the recursion
    # limit printed a RecursionError traceback, and an integer past the
    # digit limit a refusal that named no file.
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run_capped(*argv, str(path), timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {path}: ")
    assert reason in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_grid_tau_huge_torus_refused_before_allocating():
    # A (30000000 + 1)-column grid would need gigabytes for its marking
    # tuples alone; under a 1 GiB address-space cap on the child it must
    # still be refused with the cap named, not die of MemoryError.
    proc = run_capped("grid-tau", "--torus", "30000000", "1", timeout=60)
    assert proc.returncode == 1
    assert "exceeds the cap 10" in proc.stderr
    assert "Traceback" not in proc.stderr


def _wide_complex(tops: int) -> dict:
    """Arrows a_i -> b_i + w and a free z: 2 * tops + 2 generators, the
    column of every a_i as wide as the complex.  Its homology is z and w."""
    def gen(gid, maslov):
        return {"id": gid, "maslov": maslov, "alexander": "0/1", "spinc": "0"}

    generators = [gen(f"a{i}", "1/1") for i in range(tops)]
    generators += [gen(f"b{i}", "0/1") for i in range(tops)] + [gen("z", "0/1"), gen("w", "0/1")]
    return {"generators": generators, "differential": {f"a{i}": [f"b{i}", "w"] for i in range(tops)}}


@pytest.mark.parametrize("over", [0, 1], ids=["at", "past"])
def test_tau_complex_generator_limit(tmp_path, over):
    # The widest columns the limit admits answer (1.7 s at 384 MB measured);
    # one pair more, which answered before the limit, is refused before any entry
    # is read.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_complex((MAX_GENERATORS - 2) // 2 + over)))
    proc = run_capped("tau", "--complex", str(path), timeout=60)
    if over:
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: generators: {MAX_GENERATORS + 2} entries, above the limit of "
            f"{MAX_GENERATORS} that tau --complex is measured to answer\n"
        )
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        spectrum = json.loads(proc.stdout)["spectrum"]
        assert spectrum["per_class"] == {"b0": "0/1", "b0+b1": "0/1", "b1": "0/1"}


def test_generator_limit_refuses_before_any_column(tmp_path, monkeypatch, capsys):
    from ratslice import complexes
    from ratslice.paperdata import _rp1_model_complex

    def refuse(*args):
        raise AssertionError("a column was built before the refusal")

    path = tmp_path / "rp1.json"
    path.write_text(json.dumps(complex_to_json(_rp1_model_complex())))
    monkeypatch.setattr(complexes, "MAX_GENERATORS", 1)
    monkeypatch.setattr(complexes, "validate", refuse)
    message = "error: generators: 2 entries, above the limit of 1 that tau --complex is measured to answer\n"
    assert run_cli(capsys, "tau", "--complex", str(path)) == (1, "", message)


@pytest.mark.parametrize("over", [0, 1], ids=["at", "past"])
def test_tau_complex_byte_limit(tmp_path, over):
    # The 150,000-pair document (24 MB) and compiled n=9 T(2,-7) (88 MB)
    # ran out of 3 GiB without the limits; a document past the byte limit is
    # refused before it is read.  Whitespace pads the RP^3 core complex.
    from ratslice.paperdata import _rp1_model_complex

    text = json.dumps(complex_to_json(_rp1_model_complex()))
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (MAX_DOCUMENT_BYTES + over - len(text)))
    proc = run_capped("tau", "--complex", str(path), timeout=60)
    if over:
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: {path}: {MAX_DOCUMENT_BYTES + 1} bytes, above the limit of "
            f"{MAX_DOCUMENT_BYTES} that tau --complex is measured to read\n"
        )
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["spectrum"]["tau_max"] == "1/4"


@pytest.mark.parametrize("argv", [
    ["braid-info", "--braid", "30000000: 1"],
    ["satellite-bound", "--braid", "30000000: 1", "--tau", "0", "--lk", "0"],
], ids=lambda argv: argv[0])
def test_braid_verbs_refuse_a_huge_index_before_allocating(argv):
    # The strand permutation of a 3 * 10^7-strand braid ran out of 1 GiB
    # after 1.5-1.9 s; the index is refused first, with the limit named.
    proc = run_capped(*argv, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: braid index 30000000 exceeds the limit 1000000 "
        "for the strand permutation\n"
    )


def test_c_value_answers_at_any_braid_index():
    # c-value reads the index, the framing and the writhe; it never builds
    # the strand permutation.  At framing 0 the constant is the writhe.
    proc = run_capped("c-value", "--braid", "30000000: 1", "--lk", "0", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["c"] == 1


def test_braid_index_limit_refuses_before_the_permutation(monkeypatch, capsys):
    from ratslice import braid

    monkeypatch.setattr(braid, "MAX_PERMUTATION_INDEX", 3)
    message = "error: braid index 4 exceeds the limit 3 for the strand permutation\n"
    assert run_cli(capsys, "braid-info", "--braid", "4: 1 2 3") == (1, "", message)
    assert run_cli(
        capsys, "satellite-bound", "--braid", "4: 1 2 3", "--tau", "0", "--lk", "0"
    ) == (1, "", message)
    assert run_json(capsys, "braid-info", "--braid", "3: 1 2")["permutation"] == [1, 2, 0]


@pytest.mark.parametrize("argv", [
    ["braid-info", "--braid", "5: 1 2 3 -4 1"],
    ["satellite-bound", "--braid", "5: 1 2 3 -4 1", "--tau", "0", "--lk", "0"],
], ids=lambda argv: argv[0])
def test_braid_verbs_build_the_permutation_once(monkeypatch, capsys, argv):
    from ratslice import braid

    calls = []
    permutation = braid.BraidWord.permutation

    def counted(word):
        calls.append(word)
        return permutation(word)

    monkeypatch.setattr(braid.BraidWord, "permutation", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == 1


def test_grid_tau_oversize_slice_exits_one(monkeypatch, tmp_path, capsys):
    # This grid's Maslov-0 slice holds 35 states on either side, so the
    # cheaper side is over the limit too.  The refusal is tau's own and
    # does not name the file.
    import ratslice.grid as grid_module

    path = tmp_path / "balanced.grid"
    path.write_text("5 1 4 0 2 3\n0 2 5 3 4 1\n")
    monkeypatch.setattr(grid_module, "MAX_TAU_SLICE", 10)
    assert run_cli(capsys, "grid-tau", "--grid", str(path)) == (
        1,
        "",
        "error: the Maslov-0 slice holds 35 states, above the limit of 10 "
        "that grid tau is measured to answer\n",
    )


def test_grid_tau_hfk_sweeps_each_kept_state_once(monkeypatch, capsys):
    # The knot Floer ranks sweep the graded rectangles of each of the 142
    # states of T(2,-5)'s grid with 2A >= 0 once, of its 5040 states, and
    # neither they nor tau grade a state one by one: the walks carry the
    # gradings column by column.
    import ratslice.grid as grid_module

    calls = []
    for name in ("maslov", "gradings"):
        method = getattr(grid_module._Grader, name)

        def counted(self, state, _method=method, _name=name):
            calls.append(_name)
            return _method(self, state)

        monkeypatch.setattr(grid_module._Grader, name, counted)
    graded_targets = grid_module._graded_targets
    swept = []

    def counted_targets(grid, state):
        swept.append(state)
        return graded_targets(grid, state)

    monkeypatch.setattr(grid_module, "_graded_targets", counted_targets)
    doc = run_json(capsys, "grid-tau", "--torus", "2", "-5", "--hfk")
    assert doc["tau"] == "-2/1"
    assert calls == []
    assert len(swept) == len(set(swept)) == 142


@pytest.mark.parametrize("q,tau", [("-7", "-3/1"), ("7", "3/1")])
def test_grid_tau_size_nine_answers_on_the_cheaper_side(q, tau):
    # T(2,-7) reduced its own Maslov-0 slice of 58,748 states: 23-36 s at
    # about 430 MB.  Its mirror's slice holds one state.
    proc = run_capped("grid-tau", "--torus", "2", q, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tau"] == tau


@pytest.mark.parametrize("q,tau", [("-7", "-6/1"), ("7", "6/1")])
def test_grid_tau_size_ten_torus_answers_at_once(q, tau):
    # T(3,-7)'s own Maslov-0 slice holds 478,886 states and its mirror's
    # one; the side is chosen from the counts, before any state is visited.
    proc = run_capped("grid-tau", "--torus", "3", q, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tau"] == tau


def test_grid_tau_size_ten_hfk_answers_under_the_cap():
    # T(3,7)'s A >= 0 half holds 105,721 of its 10! states: about 1.4 s at
    # about 72 MB.  A scan of all 10! states ran out of 3 GB.
    proc = run_capped("grid-tau", "--torus", "3", "7", "--hfk", timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["tau"] == "6/1"
    assert doc["hfk_ranks"] == {
        format_rational(a): r for a, r in torus_knot_floer_ranks(3, 7).items()
    }


def test_grid_tau_hfk_heavy_size_ten_grid_refused_at_once(tmp_path):
    # README's --hfk example: its A >= 0 half holds 612,155 states, counted
    # before any state is visited and before tau.
    path = tmp_path / "heavy10.grid"
    path.write_text("4 9 6 3 2 8 0 7 5 1\n9 0 1 2 5 4 3 6 7 8\n")
    proc = run_capped("grid-tau", "--grid", str(path), "--hfk", timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: --hfk: the A >= 0 half holds 612155 states, above the limit of "
        "300000 that knot Floer ranks are measured to answer\n"
    )


def test_grid_tau_random_size_ten_grid_refused_at_once(tmp_path):
    # README's random size-10 grid: about 65,000 Maslov-0 states on
    # either side.  A full state scan took about 10 s before the refusal.
    path = tmp_path / "random10.grid"
    path.write_text("6 1 9 0 3 2 4 8 5 7\n3 5 7 9 2 1 8 6 0 4\n")
    proc = run_capped("grid-tau", "--grid", str(path), timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: the Maslov-0 slice holds 65008 states, above the limit of 58748 "
        "that grid tau is measured to answer\n"
    )


def _modules_after(*argv, cwd=None):
    """Every module a fresh interpreter holds after main(argv); import only if empty."""
    probe = (
        "import json, sys\n"
        "from ratslice.cli import main\n"
        "if sys.argv[1:]:\n"
        "    main(sys.argv[1:])\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=fresh_env(), cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_cli_import_loads_no_executor_or_logging():
    # The standard executor package pulls in logging: ~14 ms a process.
    # grid-tau is the verb that loads the grid; it runs no pool.
    loaded = _modules_after("grid-tau", "--torus", "2", "3")
    assert "ratslice.grid" in loaded
    assert "ratslice.parallel" not in loaded
    assert {m for m in loaded if m.partition(".")[0] in ("concurrent", "logging")} == set()


# -- start-up: a verb loads only the modules it runs ----------------------

_HEAVY = {
    f"ratslice.{name}"
    for name in ("grid", "parallel", "paperdata", "complexes", "gf2", "sums")
}


def test_cli_import_loads_only_rationals():
    loaded = _modules_after()
    assert {m for m in loaded if m.partition(".")[0] == "ratslice"} == {
        "ratslice", "ratslice.cli", "ratslice.rationals"
    }


_BOUND_RUNS = [
    ["cable-bound", "--p", "2", "--tau", "-2", "--lk", "2"],
    ["satellite-bound", "--braid", "3: 1 2 1 2", "--tau", "1", "--lk", "0"],
    ["braid-info", "--braid", "4: 1 2 3 1 2 3"],
    ["c-value", "--braid", "4: 1 2 3 1 2 3", "--lk", "-2/4", "--order", "2"],
    ["slice-bennequin", "--tb", "-1", "--rot", "0", "--chi", "-2", "--p", "1"],
    # These read the two tau extremes from their flags: no spectrum record.
    ["genus-bound", "--tau-max", "3/2", "--tau-min", "-1/2"],
    ["seifert-framed-bound", "--tau-max", "3/2", "--tau-min", "-1/2", "--p", "2"],
]


@pytest.mark.parametrize("argv", _BOUND_RUNS, ids=lambda argv: argv[0])
def test_bound_verbs_load_no_grid_or_complex_modules(argv):
    assert _modules_after(*argv) & _HEAVY == set()


def test_cli_import_builds_no_parser():
    # setup_s times a bare import: the verb table is data until main runs.
    # Any parser built here would call the broken __init__ and fail.
    probe = "import argparse\nargparse.ArgumentParser.__init__ = None\nimport ratslice.cli\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=fresh_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("hfk", [[], ["--hfk"]], ids=["tau", "hfk"])
def test_grid_tau_loads_no_complex_module(hfk):
    # Grid tau drives gf2.essential_rows itself; only compile_grid, which
    # no verb runs, builds a FilteredComplex.
    loaded = _modules_after("grid-tau", "--torus", "2", "3", *hfk)
    assert {"ratslice.grid", "ratslice.gf2"} <= loaded
    assert "ratslice.complexes" not in loaded


def test_tau_complex_loads_neither_grid_nor_paperdata(tmp_path):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(PINNED_COMPLEX))
    loaded = _modules_after("tau", "--complex", str(path))
    assert "ratslice.complexes" in loaded
    # Nor the bound evaluators: the spectrum record lives in sums.
    assert loaded & {"ratslice.grid", "ratslice.paperdata", "ratslice.bounds"} == set()


def _verb_inputs(directory):
    """README-style input files for the file-reading verbs."""
    (directory / "complex.json").write_text(json.dumps(PINNED_COMPLEX))
    (directory / "knot.grid").write_text(grid_to_text(torus_knot_grid(2, -3)))
    (directory / "knot.json").write_text(json.dumps(framed_to_json(builtin("J_example_6.2"))))
    (directory / "poly.json").write_text(json.dumps(poincare_to_json(builtin("lift_8_20"))))


@pytest.mark.parametrize("argv", [
    ["deep-slice", "--polynomial", "poly.json", "--target", "1"],
    ["deep-slice", "--builtin", "lift_8_20", "--target", "1"],
], ids=lambda argv: argv[1])
def test_deep_slice_loads_no_bound_link_braid_or_grid_module(tmp_path, argv):
    _verb_inputs(tmp_path)
    loaded = _modules_after(*argv, cwd=tmp_path)
    assert "ratslice.paperdata" in loaded
    assert loaded & {f"ratslice.{name}" for name in ("bounds", "ratlink", "braid", "grid")} == set()
    # Nor the filtered complex and GF(2) code: the deduction reads only
    # the polynomial.  Nor the class listing that only tau spectra use.
    assert loaded & {"ratslice.complexes", "ratslice.gf2", "ratslice.sums"} == set()


@pytest.mark.parametrize("argv", [
    *_BOUND_RUNS,
    ["deep-slice", "--builtin", "lift_8_20"],
    ["genus-bound", "--builtin", "J_example_6.2"],
    ["grid-tau", "--torus", "2", "3"],
    ["verify-paper"],
    ["grid-tau", "--grid", "knot.grid"],
    ["tau", "--complex", "complex.json"],
    ["deep-slice", "--polynomial", "poly.json"],
    ["genus-bound", "--knot", "knot.json"],
    ["seifert-framed-bound", "--knot", "knot.json", "--p", "2"],
], ids=" ".join)
def test_only_the_file_reading_verbs_load_the_readers(tmp_path, argv):
    # ratslice.readers holds every document reader: a verb that reads no
    # file compiles none of it.
    _verb_inputs(tmp_path)
    loaded = _modules_after(*argv, cwd=tmp_path)
    reads_a_file = any(flag in argv for flag in ("--grid", "--complex", "--polynomial", "--knot"))
    assert ("ratslice.readers" in loaded) == reads_a_file
    assert "ratslice.formats" in loaded


@pytest.mark.parametrize("argv", [
    ["tau", "--complex", "complex.json"],
    ["tau", "--complex", "complex.json", "--cycle", "b"],
    ["grid-tau", "--grid", "knot.grid", "--hfk"],
    ["cable-bound", "--p", "2", "--tau", "-2", "--lk", "2"],
    ["satellite-bound", "--braid", "3: 1 2 1 2", "--tau", "1", "--lk", "0"],
    ["genus-bound", "--tau-max", "3/2", "--tau-min", "-1/2"],
    ["genus-bound", "--builtin", "J_example_6.2"],
    ["seifert-framed-bound", "--knot", "knot.json", "--p", "2"],
    ["deep-slice", "--polynomial", "poly.json", "--target", "1"],
    ["deep-slice", "--builtin", "lift_8_20", "--target", "1"],
    ["braid-info", "--braid", "4: 1 2 3 1 2 3"],
    ["c-value", "--braid", "4: 1 2 3 1 2 3", "--lk", "-2/4", "--order", "2"],
    ["slice-bennequin", "--tb", "5", "--rot", "0", "--chi", "0", "--p", "1"],
    ["verify-paper"],
], ids=lambda argv: argv[0] + "".join(a for a in argv[1:] if a.startswith("--")))
def test_fresh_interpreter_matches_in_process(tmp_path, monkeypatch, capsysbinary, argv):
    # A fresh interpreter loads each module when a verb first asks for
    # it, in the verb's own order; here every module is already loaded.
    # An import cycle or a missing import that this process hides shows
    # as a traceback or a different document there.
    _verb_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsysbinary.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ratslice.cli", *argv],
        capture_output=True, env=fresh_env(), cwd=tmp_path,
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr.decode()
    # No verb loads dataclasses, which imports inspect, ast, dis and
    # tokenize: about 11 ms of a process with no bytecode cache.
    imported = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.decode().splitlines() if line.startswith("import time:")
    }
    assert "ratslice.formats" in imported
    assert imported & {"dataclasses", "inspect"} == set()


def test_console_script_resolves_to_run(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["ratslice"]
    assert target == "ratslice.cli:run"
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    # run() freezes the heap once the document is out; recorded here, so
    # this process is never frozen.
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr().out))
    # The installed command calls run() with no arguments.
    monkeypatch.setattr(sys, "argv", ["ratslice", "braid-info", "--braid", "2: 1"])
    assert entry() == 0
    assert len(frozen) == 1
    assert json.loads(frozen[0])["command"] == "braid-info"
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv", [
    ["cable-bound", "--p", "2", "--tau", "-2", "--lk", "2"],
    ["grid-tau", "--grid", "knot.grid"],
    ["tau", "--complex", "complex.json"],
    ["deep-slice", "--polynomial", "poly.json"],
], ids=lambda argv: argv[0])
def test_main_module_exits_with_the_heap_frozen(tmp_path, monkeypatch, capsysbinary, argv):
    # `python -m ratslice.cli` runs the module as __main__, as here.  An
    # atexit probe registered first runs last: by then run() has frozen
    # the heap, so the exit-time collections skip it, and the document
    # and exit code are main()'s.
    _verb_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsysbinary.readouterr().out
    probe = (
        "import atexit, gc, os, runpy\n"
        "atexit.register(lambda: os.write(2, b'frozen %d' % gc.get_freeze_count()))\n"
        "runpy.run_module('ratslice.cli', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, env=fresh_env(), cwd=tmp_path
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr.decode()
    assert proc.stderr.startswith(b"frozen ")
    assert int(proc.stderr[len(b"frozen "):]) > 0


# Usage errors, help and refusals: main builds one verb's subparser when
# argv names a verb, and must print what the parser of every verb prints.
_PARSER_RUNS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["cable"],
    ["--p", "2"],
    ["-h", "cable-bound"],
    *[[verb, "-h"] for verb in _VERBS],
    ["cable-bound", "--p", "2"],
    ["cable-bound", "--p", "x", "--tau", "0", "--lk", "0"],
    ["cable-bound", "--p", "2", "--tau", "1", "--lk", "0", "extra"],
    ["cable-bound", "--p", "2", "--tau", "1", "--lk", "0", "--bogus"],
    ["cable-bound", "--p", "2", "--ta", "1", "--lk", "-1/2"],
    ["grid-tau", "--torus", "2"],
    ["grid-tau", "--torus", "2", "3", "4"],
    ["genus-bound", "--tau-max", "1", "--tau-min"],
    ["deep-slice", "--builtin", "lift_8_20", "--target", "x"],
    ["verify-paper", "extra"],
    ["braid-info", "--braid", "3: 5"],
    ["slice-bennequin", "--tb", "5", "--rot", "0", "--chi", "0", "--p", "1"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _PARSER_RUNS, ids=" ".join)
def test_one_verb_parser_prints_what_every_verb_parser_prints(capsys, monkeypatch, argv):
    built = []

    def recorded(verbs=_VERBS):
        built.append(list(verbs))
        return build_parser(verbs)

    monkeypatch.setattr(cli, "build_parser", recorded)
    outcome = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", lambda verbs=_VERBS: build_parser())
    assert outcome == _outcome(capsys, argv)
    assert outcome[0] in (0, 1, 2) and (outcome[1] or outcome[2])
    # The first parser is the named verb's alone; the parser of every
    # verb is built only when no verb is named or arguments remain.
    assert built[0] == (argv[:1] if argv[:1] and argv[0] in _VERBS else list(_VERBS))
    assert len(built) == 1 or built[1] == list(_VERBS)
