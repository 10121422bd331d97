"""Write ``cli.txt``, the golden CLI corpus replayed by ``tests/test_golden.py``.

Each line of the corpus is one JSON object: ``argv`` (the arguments after
``singlet``), ``exit`` (the exit code of ``singlet.cli.main``) and ``stdout``
(everything it printed to stdout, byte for byte).  The corpus records what
the program prints today, so regenerate it only for a change that is meant
to alter CLI output, and review the diff::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.txt")


def _fuse_cases() -> list[list[str]]:
    out = []
    for p in range(2, 8):
        m_labels = ["M(1,2)", f"M(2,{p})", "M(-1,1)"]
        f_labels = ["F(1/2)", "F(-1/3)", "F(-1/2)"]
        p_labels = ["P(1,1)", f"P(0,{p - 1})"]
        pairs = [
            (m_labels[0], m_labels[1]),
            (m_labels[2], m_labels[0]),
            (m_labels[0], f_labels[0]),
            (f_labels[1], m_labels[1]),
            (m_labels[0], p_labels[0]),
            (p_labels[1], m_labels[1]),
            (f_labels[0], f_labels[1]),
            (f_labels[0], f_labels[2]),
            (f_labels[0], p_labels[0]),
            (p_labels[1], f_labels[1]),
            (p_labels[0], p_labels[0]),
            (p_labels[0], p_labels[1]),
        ]
        out += [["--p", str(p), "fuse", x, y] for x, y in pairs]
        out.append(["--p", str(p), "--format", "json", "fuse", "2*M(1,2) + F(1/2)", "P(1,1) + M(0,1)"])
    out.append(["--p", "40", "fuse", "P(1,1)", "P(1,1)"])
    out.append(["--p", "40", "--format", "json", "fuse", "P(2,1)", "P(-1,1)"])
    return out


def _singlet_cases() -> list[list[str]]:
    out = []
    for fmt in ("text", "json"):
        g = ["--format", fmt]
        for p, text in [(2, "P(1,1)"), (2, "Fa(0,1)"), (3, "G(1,1)"), (3, "G(0,2)"),
                        (3, "M(1,1) + 2*P(-1,1)"), (2, "F(1/2) + G(2,1)")]:
            out.append(["--p", str(p), *g, "kclass", text])
        for p, text in [(2, "M(3,1)"), (3, "P(1,2)"), (3, "Fa(1,1)"), (2, "F(1/2) + 2*F(-5/3)")]:
            out.append(["--p", str(p), *g, "dual", text])
        for p, text in [(2, "M(1,1)"), (3, "P(1,1)"), (3, "Fa(1,1)"), (3, "G(1,1)"), (2, "G(2,1)"), (3, "G(0,3)")]:
            out.append(["--p", str(p), *g, "loewy", text])
        for p, order, text in [(2, 10, "M(1,1)"), (3, 8, "P(1,1)"), (2, 6, "F(1/2)"),
                               (2, 10, "M(1,1) + M(3,1)"), (3, 6, "Fa(0,2) + G(1,1)")]:
            out.append(["--p", str(p), *g, "--order", str(order), "char", text])
        for p, m, order, text in [(2, 2, 8, "W(0,1)"), (2, 2, 6, "R(1,1)"), (3, 2, 6, "V(1/2)")]:
            out.append(["--p", str(p), "--m", str(m), *g, "--order", str(order), "char", text])
        for p, m, text in [(2, 2, "M(1,1)"), (2, 2, "P(0,1)"), (2, 2, "F(1/2)"), (3, 3, "M(3,2) + P(1,1)")]:
            out.append(["--p", str(p), "--m", str(m), *g, "induce", text])
        for p, m, x, y in [(2, 2, "W(1,2)", "W(0,2)"), (2, 2, "W(1,1)", "V(1/2)"),
                           (2, 2, "V(1/2)", "V(3/2)"), (3, 2, "R(1,1)", "W(0,2)"),
                           (3, 2, "R(1,1)", "R(0,1)")]:
            out.append(["--p", str(p), "--m", str(m), *g, "orbfuse", x, y])
        for p, m in [(2, 1), (2, 2), (3, 2)]:
            out.append(["--p", str(p), "--m", str(m), *g, "simples"])
        out.append(["--p", "3", *g, "grade", "M(1,1) + P(0,2) + F(1/2)"])
        out.append(["--p", "3", *g, "twist", "M(2,1) + F(-1/3)"])
        out.append(["--p", "2", *g, "monodromy", "M(0,2) + Fa(1,1)"])
        out.append(["--p", "3", *g, "verma", "1", "2"])
        out.append(["--p", "2", *g, "factors", "-1", "1"])
    return out


def _check_cases() -> list[list[str]]:
    suites = ["associativity", "kring", "duality", "grading", "characters", "oracle", "orbifold"]
    out = [["--p", "2", "check", "--suite", name] for name in suites]
    out.append(["--p", "2", "--format", "json", "check", "--suite", "oracle"])
    out.append(["--p", "2", "--m", "3", "--format", "json", "check", "--suite", "orbifold"])
    out.append(["--p", "2", "--order", "12", "check", "--suite", "characters"])
    return out


def _error_cases() -> list[list[str]]:
    return [
        ["--p", "2", "fuse", "M(1,1", "M(1,1)"],
        ["--p", "2", "fuse", "M(1,3)", "M(1,1)"],
        ["--p", "2", "fuse", "Fa(0,1)", "M(1,1)"],
        ["--p", "2", "fuse", "G(1,1)", "P(1,1)"],
        ["--p", "2", "fuse", "F(2/2)", "M(1,1)"],
        ["--p", "2", "fuse", "0*M(1,1)", "M(1,1)"],
        ["--p", "2", "fuse", "W(0,1)", "M(1,1)"],
        ["--p", "2", "--m", "2", "fuse", "W(0,1)", "M(1,1)"],
        ["--p", "2", "induce", "M(1,1)"],
        ["--p", "2", "--m", "2", "induce", "F(1/3)"],
        ["--p", "2", "--m", "2", "orbfuse", "M(1,1)", "W(0,1)"],
        ["--p", "2", "loewy", "2*M(1,1)"],
        ["--p", "2", "dual", "G(1,1)"],
        ["--p", "2", "twist", "P(1,1)"],
        ["--p", "1", "fuse", "M(1,1)", "M(1,1)"],
        ["--p", "2", "--order", "-1", "char", "M(1,1)"],
        ["--p", "2", "check", "--suite", "nope"],
        ["--p", "2"],
    ]


def corpus_argvs() -> list[list[str]]:
    return _fuse_cases() + _singlet_cases() + _check_cases() + _error_cases()


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    from singlet.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main() -> int:
    os.environ.pop("SINGLET_ORDER", None)
    lines = []
    for argv in corpus_argvs():
        code, stdout = run(argv)
        lines.append(json.dumps({"argv": argv, "exit": code, "stdout": stdout}, ensure_ascii=False))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
