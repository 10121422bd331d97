"""Entry point of every child interpreter the benchmark starts.

Run as ``python -S -c "import child; child.main()" MODE ...`` with
``PYTHONPATH`` holding ``src`` and this directory.  MODE is

* ``cli ARGV...``: what the ``singlet`` console script does, ``main(ARGV)``;
* ``scale SPEC``: the large library calls of the scale workload, timed one
  by one; their results go to stdout as JSON;
* ``setup WORKLOAD SPEC``: import ``singlet.cli`` and make the inputs ready,
  then stop (the cold start that ``setup_s`` measures).

When the process ends it writes a trailer to the file named by
``$BENCH_TRAILER``: its peak resident set size, the time to import
``singlet.cli``, the monotonic time at which its inputs were ready, and,
with ``$BENCH_TRACE=1``, the tracer's report.
"""

import json
import os
import sys
import time


def _peak_rss_kb() -> int:
    # VmHWM covers this program image only; getrusage() would also count
    # the parent's pages from before exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _scale_inputs(spec):
    """Parse every input of the scale spec, as a library user would."""
    from singlet.orbifold import OrbifoldParams
    from singlet.parser import parse_expr
    from singlet.weights import Params

    ready = []
    for op in spec:
        params = Params(op["p"])
        orb = OrbifoldParams(op["p"], op["m"]) if op.get("m") else None
        ready.append((op, params, orb, [parse_expr(x, params, orb) for x in op["args"]]))
    return ready


def _call(op, params, orb, args):
    # Looked up at call time, so that a tracer's wrappers are the ones called.
    import singlet.characters as characters
    import singlet.fusion as fusion
    import singlet.orbifold as orbifold

    kind = op["kind"]
    if kind == "fuse":
        return fusion.fuse(params, *args)
    if kind == "oracle":
        return fusion.chebyshev_fuse(params, *args)
    if kind == "char":
        return characters.ch_expr(params, args[0], op["order"])
    if kind == "orbchar":
        return orbifold.orbifold_char_expr(orb, args[0], op["order"])
    if kind == "orbfuse":
        return orbifold.orbifold_fuse(orb, *args)
    raise SystemExit(f"unknown scale operation {kind!r}")


def _run_scale(ready):
    import singlet.fusion as fusion

    clock = time.perf_counter
    timings, results = [], []
    for op, params, orb, args in ready:
        start = clock()
        result = _call(op, params, orb, args)
        timings.append(clock() - start)
        results.append(result)
    out = []
    for (op, params, orb, args), result in zip(ready, results):
        if op["kind"] in ("char", "orbchar"):
            out.append(result.to_json())
        else:
            out.append(str(result))
    # The oracle is compared with fuse on the reversed pair, computed after
    # the timed calls.
    refs = [str(fusion.fuse(params, args[1], args[0])) if op["kind"] == "oracle" else None
            for op, params, orb, args in ready]
    json.dump({"seconds": timings, "outputs": out, "refs": refs}, sys.stdout)


def main():
    mode = sys.argv[1]
    tracing = os.environ.get("BENCH_TRACE") == "1"
    start = time.perf_counter()
    import singlet.cli

    import_s = time.perf_counter() - start
    tracer = None
    if tracing:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    trailer = {"import_s": import_s}
    code = 0
    if mode == "cli":
        code = singlet.cli.main(sys.argv[2:])
    elif mode == "scale":
        ready = _scale_inputs(json.loads(sys.argv[2]))
        trailer["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        _run_scale(ready)
    elif mode == "setup":
        if sys.argv[2] == "scale":
            _scale_inputs(json.loads(sys.argv[3]))
        trailer["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    trailer["rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        trailer["trace"] = tracer.report()
    with open(os.environ["BENCH_TRAILER"], "w") as fh:
        json.dump(trailer, fh)
    sys.exit(code)
