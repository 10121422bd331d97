"""The benchmark's tracer (``perfbench/tracer.py``) must still see every layer
when it wraps the program from outside: a dispatch table that held library
functions itself would bypass the wrapped module attributes and read 0.  Its
partition-cache metric reads ``characters._partitions``, which must hold
exactly p(0)..p(order) after the deepest character."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
import singlet.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [singlet.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "report": tracer.report()}))
"""

CALLS = [
    ["--p", "2", "fuse", "M(1,2)", "P(1,1)"],
    ["--p", "2", "--m", "2", "orbfuse", "W(1,2)", "R(1,1)"],
    ["--p", "2", "--order", "5", "char", "P(1,1)"],
    ["--p", "2", "check", "--suite", "oracle"],
    # Only the kring suite reaches k_product and projective_decompose.
    ["--p", "2", "check", "--suite", "kring"],
]


def test_tracer_counts_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CALLS)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(CALLS)
    calls = result["report"]["calls"]
    for name in (
        "fusion.fuse",
        "fusion.k_product",
        "fusion.projective_decompose",
        "orbifold.orbifold_fuse",
        "orbifold.induce",
        "parser.parse_expr",
        "characters.ch_expr",
        "characters.partition_numbers",
        "cli.run_command",
    ):
        assert calls[name] > 0, name
    assert calls["cli.run_command"] == len(CALLS)
    orders = [int(argv[argv.index("--order") + 1]) for argv in CALLS if "--order" in argv]
    assert result["report"]["partition_cache"] == max(orders) + 1
    assert result["report"]["suites"]["oracle"][1] > 0
