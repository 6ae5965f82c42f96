"""The code the README shows runs as written."""

import re
import shlex
import textwrap
from pathlib import Path

from gromovlab import cli, witnesses
from test_witnesses import _ONE_PARAM

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(text):
    # fenced blocks, also those indented under a list item
    return [
        textwrap.dedent(body)
        for body in re.findall(r"^[ \t]*```[a-z]*\n(.*?)^[ \t]*```", text, re.M | re.S)
    ]


def test_readme_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    blocks = _code_blocks(section)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.splitlines() if line.startswith("gromovlab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv


def test_readme_check_list_is_the_recorded_checks():
    # the check names the README lists are those the families record
    text = " ".join(README.read_text().split())
    listed = text.split("The checks are:", 1)[1].split("A sweep records", 1)[0]
    recorded = {check for name, family in witnesses.FAMILIES.items()
                for check, _ in family.witness(_ONE_PARAM[name]).checks}
    assert set(re.findall(r'"([^"]+)"', listed)) == recorded
