"""Every `$ bondtaylor ...` example in README.md prints what the README shows.

A fenced block whose first line is `$ bondtaylor ARGS` is run through
`cli.main` from the repository root.  The rest of the block is compared with
stdout, or with stderr when it starts with `error:`.  A block that shows a
line `...` is compared on the lines after it, as the tail of the output.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from bondtaylor import cli

ROOT = Path(__file__).resolve().parents[1]
PROMPT = "$ bondtaylor "


def _examples() -> list[tuple[str, list[str]]]:
    blocks = re.findall(r"^```\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    return [(lines[0][len(PROMPT):], lines[1:]) for lines in
            (block.splitlines() for block in blocks) if lines and lines[0].startswith(PROMPT)]


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown, built_table, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "build_table", built_table)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    refused = bool(shown) and shown[0].startswith("error:")
    assert code == (2 if refused else 0)
    got = (err if refused else out).getvalue().splitlines()
    if "..." in shown:
        shown = shown[shown.index("...") + 1:]
        got = got[-len(shown):]
    assert got == shown
