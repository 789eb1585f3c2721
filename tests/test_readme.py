"""The README's library tour and quick-start CLI lines run as written.

The tour is executed as one script; each CLI line (``spintomo ...``, with its
backslash continuations and trailing comment) is run through ``cli.main`` in
a scratch directory holding a copy of ``data/``, and must exit 0.
"""

import re
import shlex
import shutil
from pathlib import Path

from spintomo.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _first_block(section: str, lang: str = "") -> str:
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def _cli_lines() -> list[list[str]]:
    text = _first_block("CLI").replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def test_library_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_first_block("Library tour", "python"), "README.md", "exec"), {})


def test_quick_start_cli_lines_exit_0(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    lines = _cli_lines()
    assert len(lines) == 9 and all(argv[0] == "spintomo" for argv in lines)
    for argv in lines:
        assert main(argv[1:]) == 0, " ".join(argv)
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out).stat().st_size > 0, out
