"""Replay the golden CLI corpus: every recorded call must print the same bytes
to stdout and return the same exit code.  ``tests/golden/generate.py``
documents the corpus format and how it was made."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from singlet.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.txt"
CASES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_size():
    assert 150 <= len(CASES) <= 200
    assert {case["exit"] for case in CASES} == {0, 1}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_cli(case, monkeypatch):
    monkeypatch.delenv("SINGLET_ORDER", raising=False)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert (code, out.getvalue()) == (case["exit"], case["stdout"])
