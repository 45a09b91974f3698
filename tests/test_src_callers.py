"""src/ratslice holds only code that a command runs.

Every top-level function and class of the package must be referenced by
some other code in the package: by a verb, or by code a verb runs.  A
function that only the tests call belongs in tests/helpers.py, as an
oracle, and a record type that no code builds or reads goes.  The few
exceptions are listed with the reason each stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ratslice"

# (module, name) -> why it stays in src with no caller there.
UNCALLED = {
    ("grid", "compile_grid"): "perfbench/shim.py hooks it, and the tests use it "
    "as a reference, until the benchmark reads stage records (ROADMAP item 1c)",
    ("complexes", "survivor_deduction"): "perfbench/shim.py hooks it, and the tests "
    "use it as a reference, until the benchmark reads stage records (ROADMAP item 1c)",
    ("parallel", "ordered_map"): "perfbench/shim.py imports ratslice.parallel and "
    "hooks it, until the benchmark reads stage records (ROADMAP item 1c)",
    ("bounds", "floer_simple_genus"): "the paper's Floer simple genus equality; "
    "ROADMAP item 12 gives it a caller",
    ("paperdata", "satellite_pl_genus_growth"): "the paper's unbounded PL slice "
    "genus; a verify-paper check waits for the paper's worked values",
}


def _names(node: ast.AST) -> set[str]:
    """Every name that node's code refers to: variables, attributes and
    imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def uncalled_definitions(src: Path) -> set[tuple[str, str]]:
    """The (module, name) of each top-level function or class of src's
    modules that no code in src outside its own body refers to."""
    definitions = set()
    referrers: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                definitions.add((module, node.name))
            for name in _names(node):
                referrers.setdefault(name, set()).add((module, owner))
    return {
        (module, name)
        for module, name in definitions
        if not referrers.get(name, set()) - {(module, name)}
    }


def test_every_src_function_has_a_caller_in_src():
    uncalled = uncalled_definitions(SRC)
    assert sorted(uncalled - UNCALLED.keys()) == []


def test_every_exemption_is_still_needed():
    # An exempt function that gained a caller, or left src, leaves the list.
    assert sorted(UNCALLED.keys() - uncalled_definitions(SRC)) == []


def _scan_with(tmp_path, addition: str) -> set[tuple[str, str]]:
    """What the scan flags in a copy of src with addition appended to
    bounds.py, beyond what it flags in src itself."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "bounds.py", "a", encoding="utf-8") as handle:
        handle.write(addition)
    return uncalled_definitions(tmp_path) - uncalled_definitions(SRC)


def test_the_scan_sees_an_added_function_with_no_caller(tmp_path):
    addition = "\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n"
    assert _scan_with(tmp_path, addition) == {("bounds", "orphan")}


def test_the_scan_sees_an_added_class_with_no_caller(tmp_path):
    addition = "\n\n@record\nclass Orphan:\n    value: Fraction\n"
    assert _scan_with(tmp_path, addition) == {("bounds", "Orphan")}
