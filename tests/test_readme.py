"""Every command of the README's command-line block runs as documented.

The input files the commands name are built from the README's own
examples in its file-formats section, so the two cannot drift apart.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ratslice.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# "key": value pairs in a command's trailing comment, e.g.
# # {"tau": "-2/1", ...}
_DOCUMENTED = re.compile(r'"(\w+)": ("[^"]*"|-?\d+|true|false)')


def _block(text: str, heading: str, fence: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _commands(directory: Path) -> list[str]:
    """The README's command lines, with the input files they name written
    into directory."""
    text = README.read_text(encoding="utf-8")
    (directory / "complex.json").write_text(_block(text, "File formats", "json"))
    (directory / "knot.grid").write_text(_block(text, "File formats", "text"))
    return [
        line
        for line in _block(text, "Command line", "sh").splitlines()
        if line.startswith("ratslice ")
    ]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    lines = _commands(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert len(lines) >= 13
    documents = {}
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (line, captured.err)
        doc = json.loads(captured.out)
        comment = line.partition("#")[2]
        for key, value in _DOCUMENTED.findall(comment):
            assert doc[key] == json.loads(value), (line, key)
        documents[" ".join(argv)] = doc
    assert documents["grid-tau --torus 2 -5"]["tau"] == "-2/1"


def test_documents_do_not_depend_on_the_hash_seed(tmp_path):
    # String hashes, and with them the iteration order of sets of ids
    # and states, change with PYTHONHASHSEED.  Each command runs in a
    # fresh interpreter under two seeds and must print the same bytes.
    runs = [shlex.split(line, comments=True)[1:] for line in _commands(tmp_path)]
    # A refusal that lists the unknown targets of one arrow, held in a set.
    (tmp_path / "bad.json").write_text(json.dumps({
        "generators": [{"id": "a", "maslov": "0", "alexander": "0", "spinc": "0"}],
        "differential": {"a": ["z", "y", "x"]},
    }))
    runs.append(["tau", "--complex", "bad.json"])
    src = str(README.parent / "src")
    outcomes = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        outcomes[seed] = [
            subprocess.run(
                [sys.executable, "-m", "ratslice.cli", *argv],
                capture_output=True, env=env, cwd=tmp_path,
            )
            for argv in runs
        ]
    for argv, zero, one in zip(runs, outcomes["0"], outcomes["1"]):
        assert (zero.returncode, zero.stdout, zero.stderr) == (
            one.returncode, one.stdout, one.stderr
        ), argv
    assert outcomes["0"][-1].returncode == 1
    assert outcomes["0"][-1].stderr.startswith(b"error: differential target 'x' ")


def test_framed_format_lists_every_record_field():
    # The sentence names the record's fields plus the derived lk, which a
    # document carries for the reader.
    from ratslice.ratlink import FramedKnotData

    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = text.split("FramedKnotData JSON holds ", 1)[1].split(".", 1)[0]
    named = set(re.findall(r"`(\w+)`", sentence))
    assert named == set(FramedKnotData.__annotations__) | {"lk"}


def test_library_table_lists_every_module():
    section = README.read_text(encoding="utf-8").split("\n## Library layout\n", 1)[1]
    rows = set(re.findall(r"^\| `ratslice\.(\w+)`", section.split("\n## ", 1)[0], re.M))
    modules = {path.stem for path in (README.parent / "src" / "ratslice").glob("*.py")}
    assert rows == modules - {"__init__"}
