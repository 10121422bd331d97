"""The examples in README.md print what the README says they print: every
``singlet ... # -> OUT`` line of the CLI block prints OUT as its first line,
and every ``print(...)  # OUT`` line of the library block prints OUT."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from singlet.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _code_block(language, marker):
    """The fenced ``language`` block of the README that contains ``marker``."""
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    (block,) = [b for b in blocks if marker in b]
    return block


CLI_EXAMPLES = [
    tuple(part.strip() for part in line.split("# -> "))
    for line in _code_block("sh", "singlet --p").splitlines()
    if "# -> " in line
]
LIBRARY = _code_block("python", "from singlet import")


def test_readme_has_examples():
    assert len(CLI_EXAMPLES) >= 8
    assert LIBRARY.count("print(") >= 5


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example(command, expected):
    program, *argv = shlex.split(command)
    assert program == "singlet"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().splitlines()[0] == expected


def test_library_example():
    expected = [
        line.rsplit("# ", 1)[1].strip() for line in LIBRARY.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(LIBRARY, {})
    assert out.getvalue().splitlines() == expected
