"""src/ratslice holds only code that a command runs, and no option that
takes one value.

Every top-level function and class of the package must be referenced by
some other code in the package: by a verb, or by code a verb runs.  A
function that only the tests call belongs in tests/helpers.py, as an
oracle, and a record type that no code builds or reads goes.  A record
field that every construction in the package gives the same literal is
a constant, not a field.  The few exceptions are listed with the reason
each stays.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ratslice"

# (module, name) -> why it stays in src with no caller there.
UNCALLED = {
    ("grid", "compile_grid"): "perfbench/shim.py hooks it, and the tests use it "
    "as a reference, until the benchmark reads stage records (ROADMAP item 1c)",
    ("paperdata", "survivor_deduction"): "perfbench/shim.py hooks it in paperdata, "
    "and the tests hold survivable_gradings to it, until the benchmark reads stage "
    "records (ROADMAP item 1c)",
    ("parallel", "ordered_map"): "perfbench/shim.py imports ratslice.parallel and "
    "hooks it, until the benchmark reads stage records (ROADMAP item 1c)",
    ("bounds", "floer_simple_genus"): "the paper's Floer simple genus equality; "
    "ROADMAP item 12 gives it a caller",
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


# (record class, field) -> why every construction in src gives the field
# the same literal.
ONE_VALUED: dict[tuple[str, str], str] = {}


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _literal(node: ast.AST | None) -> str | None:
    """repr of the literal that node spells, or None for any other node."""
    try:
        return repr(ast.literal_eval(node)) if node is not None else None
    except (ValueError, TypeError):
        return None


def one_valued_fields(src: Path) -> set[tuple[str, str]]:
    """The (class, field) of each field of an @record class of src's
    modules that every construction in src gives the same literal.

    Positional arguments fill the fields in order, and a field that a
    call leaves out takes its default.  A call through
    formats.named(path, Class, *args) builds Class(*args).
    """
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    defaults: dict[str, dict[str, ast.expr | None]] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and "record" in map(_name, node.decorator_list):
                defaults[node.name] = {
                    field.target.id: field.value
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                }
    seen = {(cls, field): set() for cls, fields in defaults.items() for field in fields}
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            cls, args = _name(call.func), call.args
            if cls == "named" and len(args) > 1:
                cls, args = _name(args[1]), args[2:]
            if cls not in defaults:
                continue
            given = dict(zip(defaults[cls], args))
            given.update((keyword.arg, keyword.value) for keyword in call.keywords)
            # Unpacked arguments fill fields that the scan cannot name.
            unpacked = None in given or any(isinstance(arg, ast.Starred) for arg in args)
            for field, default in defaults[cls].items():
                value = None if unpacked else _literal(given.get(field, default))
                seen[cls, field].add(value)
    return {key for key, values in seen.items() if len(values) == 1 and None not in values}


def test_every_src_function_has_a_caller_in_src():
    uncalled = uncalled_definitions(SRC)
    assert sorted(uncalled - UNCALLED.keys()) == []


def test_every_exemption_is_still_needed():
    # An exempt function that gained a caller, or left src, leaves the list.
    assert sorted(UNCALLED.keys() - uncalled_definitions(SRC)) == []


def test_no_record_field_takes_one_literal_everywhere():
    # A flagged field that is not exempt, or an exempt one that is no
    # longer flagged.
    assert sorted(one_valued_fields(SRC) ^ ONE_VALUED.keys()) == []


def _scan_with(tmp_path, addition: str, scan=uncalled_definitions) -> set:
    """What scan flags in a copy of src with addition appended to
    bounds.py, beyond what it flags in src itself."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "bounds.py", "a", encoding="utf-8") as handle:
        handle.write(addition)
    return scan(tmp_path) - scan(SRC)


def test_the_scan_sees_an_added_function_with_no_caller(tmp_path):
    addition = "\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n"
    assert _scan_with(tmp_path, addition) == {("bounds", "orphan")}


def test_the_scan_sees_an_added_class_with_no_caller(tmp_path):
    addition = "\n\n@record\nclass Orphan:\n    value: Fraction\n"
    assert _scan_with(tmp_path, addition) == {("bounds", "Orphan")}


@pytest.mark.parametrize(
    "constructions,flagged",
    [
        ('Pinned(x, "fixed")', {("Pinned", "kind")}),
        ("Pinned(value=x)", {("Pinned", "kind")}),
        ('named("--x", Pinned, x, "fixed")', {("Pinned", "kind")}),
        ('Pinned(x, "fixed"), Pinned(x)', set()),
        ("Pinned(x, x)", set()),
        ('Pinned(*x), Pinned(x, "fixed")', set()),
    ],
)
def test_the_scan_sees_a_record_field_with_one_value(tmp_path, constructions, flagged):
    addition = (
        '\n\n@record\nclass Pinned:\n    value: Fraction\n    kind: str = "default"\n'
        f"\n\ndef pinned(x):\n    return {constructions}\n"
    )
    assert _scan_with(tmp_path, addition, one_valued_fields) == flagged
