"""Every command of the README's command-line block runs as documented.

The input files the commands name are built from the README's own
examples in its file-formats section, so the two cannot drift apart.
"""

import json
import re
import shlex
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


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    (tmp_path / "complex.json").write_text(_block(text, "File formats", "json"))
    (tmp_path / "knot.grid").write_text(_block(text, "File formats", "text"))
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for line in _block(text, "Command line", "sh").splitlines()
        if line.startswith("ratslice ")
    ]
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
