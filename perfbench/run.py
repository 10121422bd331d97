#!/usr/bin/env python3
"""Fixed-work benchmark of the singlet calculator.

    python3 perfbench/run.py --workload cli|verify|scale --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/singlet``.  Each run
compiles the sources, times several cold starts (``setup_s``), then repeats
one seeded round of operations until S seconds have passed (at least
``MIN_ROUNDS`` rounds).  Every operation runs in its own child interpreter,
one at a time, started with ``-S`` so that site-packages hooks do not count.
Outputs are checked by the benchmark's own computations (``oracle.py``), and
each check is shown a corrupted copy of a real output, which it must reject.
Times are reported at reference speed: scaled by the run's median time of
``reference.py``, a fixed program-free stand-in timed between operations,
because the speed of a shared machine drifts within minutes (README.md).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the children wrap the program's public
functions (``tracer.py``) and the metrics are per-layer counts and self
times.  A full record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import outputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_STARTS = 15
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150
RUN_CAP_S = 120  # start no round after this, to end within three minutes

# Time of one run of reference.py, spawn to exit, on the reference machine
# (2 vCPUs, Python 3.11.7); see the README.
REFERENCE_S = 0.120
# Reference runs per round: cli runs one before every fourth call.
REFERENCE_RUNS = {"cli": 10, "verify": 12, "scale": 10}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer counts, read from every traced child and summed over a round.
LAYER_COUNTS = (
    "modules.ModuleExpr.__init__.calls",
    "modules.ModuleExpr.__add__.calls",
    "modules.normalize_atom.calls",
    "modules.k_class.calls",
    "modules.lowest_weight.calls",
    "fusion.fuse.calls",
    "fusion.fuse_atoms.hits",
    "fusion.fuse_atoms.misses",
    "fusion.k_product.calls",
    "fusion.projective_decompose.calls",
    "fusion.chebyshev_fuse.calls",
    "characters.ch_expr.calls",
    "characters.partition_numbers.calls",
    "characters.partition_cache.len",
    "orbifold.induce.calls",
    "orbifold.orbifold_fuse.calls",
    "orbifold.orbifold_char_expr.calls",
    "parser.parse_expr.calls",
    "cli.run_command.calls",
)
SUITES = ("associativity", "kring", "duality", "grading", "characters", "oracle", "orbifold")
# Self times reported as metrics: only functions that every workload calls,
# since a time that reads 0 on every run of a workload shows nothing.  The
# others (chebyshev_fuse, parse_expr, run_command and the suites) are in the
# printed table and the record under out/.
LAYER_TIMES = (
    "modules.ModuleExpr.__add__.self_s",
    "modules.k_class.self_s",
    "fusion.fuse.self_s",
    "fusion.k_product.self_s",
    "fusion.projective_decompose.self_s",
    "characters.ch_expr.self_s",
    "orbifold.induce.self_s",
    "orbifold.orbifold_fuse.self_s",
    "orbifold.orbifold_char_expr.self_s",
    "cli.import_s",
)


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so children's readings compare with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, start, end, code, stdout, stderr, trailer):
        self.start, self.end, self.code = start, end, code
        self.stdout, self.stderr, self.trailer = stdout, stderr, trailer

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.trailer is not None


class Spawner:
    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
        self.env.pop("BENCH_TRACE", None)
        self.rss_kb = 0
        self.reference_s: list[float] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def _wait(self, proc) -> float:
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            proc.wait()
        except ChildTimeout:
            proc.kill()
            proc.wait()
        finally:
            signal.alarm(0)
        return monotonic()

    def reference(self, runs: int):
        """Time ``runs`` runs of reference.py."""
        argv = [sys.executable, "-S", "-c", "import reference"]
        for _ in range(runs):
            start = monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT)
            end = self._wait(proc)
            if proc.returncode != 0:
                raise RuntimeError("reference.py failed")
            self.reference_s.append(end - start)

    def speed_factor(self) -> float:
        """Multiplier from measured times to times at reference speed."""
        return REFERENCE_S / statistics.median(self.reference_s)

    def run(self, args, trace=False) -> Child:
        """One child interpreter, timed from spawn to exit."""
        paths = [os.path.join(self.work, n) for n in ("stdout", "stderr", "trailer")]
        if os.path.exists(paths[2]):
            os.remove(paths[2])
        env = dict(self.env, BENCH_TRAILER=paths[2])
        if trace:
            env["BENCH_TRACE"] = "1"
        argv = [sys.executable, "-S", "-c", "import child; child.main()", *args]
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            start = monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            end = self._wait(proc)
        with open(paths[0], encoding="utf-8") as fh:
            stdout = fh.read()
        with open(paths[1], encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        trailer = None
        if os.path.exists(paths[2]):
            with open(paths[2]) as fh:
                trailer = json.load(fh)
            self.rss_kb = max(self.rss_kb, trailer["rss_kb"])
        return Child(start, end, proc.returncode, stdout, stderr, trailer)


def percentile_ok(n: int, q: float) -> bool:
    """A percentile needs ten samples beyond it and forty samples in all."""
    return n >= 40 and n * (1 - q) >= 10


class Round:
    def __init__(self):
        self.startup_s = 0.0  # scale: spawn to inputs ready
        self.latencies_ms: list[float] = []  # one per operation
        self.outputs: list = []  # raw stdout per op, None if the op failed
        self.errors: list[str] = []
        self.traces: list[dict] = []
        self.import_s = 0.0


def run_round(spawner: Spawner, workload: str, ops, trace: bool) -> Round:
    rnd = Round()
    if workload == "scale":
        spawner.reference(REFERENCE_RUNS["scale"])
        child = spawner.run(["scale", json.dumps([op.spec for op in ops])], trace)
        if child.ok:
            data = json.loads(child.stdout)
            rnd.startup_s = child.trailer["ready"] - child.start
            rnd.latencies_ms = [1000 * s for s in data["seconds"]]
            rnd.outputs = [
                (json.dumps(out) if op.fmt == "json" else out, ref)
                for op, out, ref in zip(ops, data["outputs"], data["refs"])
            ]
        else:
            rnd.latencies_ms = [1000 * child.wall] * len(ops)
            rnd.outputs = [None] * len(ops)
            rnd.errors.append(f"scale child exited {child.code}: {child.stderr.strip()[-300:]}")
        children = [child]
    else:
        children = []
        every = len(ops) // REFERENCE_RUNS[workload]
        for i, op in enumerate(ops):
            if workload == "verify":
                spawner.reference(REFERENCE_RUNS["verify"] // len(ops))
            elif i % every == 0:
                spawner.reference(1)
            child = spawner.run(["cli", *op.argv], trace)
            children.append(child)
            rnd.latencies_ms.append(1000 * child.wall)
            if child.ok:
                rnd.outputs.append((child.stdout, None))
            else:
                rnd.outputs.append(None)
                rnd.errors.append(f"{op.name()}: exit {child.code}: {child.stderr.strip()[-300:]}")
    for child in children:
        if child.trailer is not None:
            rnd.import_s += child.trailer["import_s"]
            if trace:
                rnd.traces.append(child.trailer["trace"])
    return rnd


def layer_totals(rnd: Round) -> dict:
    """Per-layer counts and times of one traced round."""
    calls: dict = {}
    self_s: dict = {}
    hits = misses = cache_len = 0
    suites = {s: [0.0, 0] for s in SUITES}
    for tr in rnd.traces:
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in tr["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        hits += tr["fuse_atoms"][0]
        misses += tr["fuse_atoms"][1]
        cache_len = max(cache_len, tr["partition_cache"])
        for name, (secs, cases) in tr["suites"].items():
            suites[name][0] += secs
            suites[name][1] += cases
    counts = {f"{k}.calls": v for k, v in calls.items() if k != "checks.run_suite"}
    counts["fusion.fuse_atoms.hits"] = hits
    counts["fusion.fuse_atoms.misses"] = misses
    counts["characters.partition_cache.len"] = cache_len
    times = {f"{k}.self_s": v for k, v in self_s.items() if k != "checks.run_suite"}
    times["cli.import_s"] = rnd.import_s
    for name, (secs, cases) in suites.items():
        counts[f"checks.{name}.cases"] = cases
        times[f"checks.{name}.s"] = secs
    return {"counts": counts, "times": times}


def check_outputs(ops, rounds, ctx) -> tuple[list, int]:
    """Problems found in the outputs, and the number of corrupted outputs
    that the checks rejected."""
    problems: list = []
    if ctx.parts.upto(200) != oracle.partitions_by_parts(200):
        problems.append("the partition recurrence disagrees with counting by parts")
    rejected = 0
    first = rounds[0].outputs
    for i, op in enumerate(ops):
        for later in rounds[1:]:
            if first[i] is not None and later.outputs[i] is not None and later.outputs[i] != first[i]:
                problems.append(f"{op.name()}: output changed between rounds")
    canon = {}
    for i, op in enumerate(ops):
        if first[i] is None:
            continue
        raw, ref = first[i]
        try:
            text, parsed = outputs.parse(op, raw)
            if ref is not None:
                op.extra["ref"] = outputs.parse(op, ref)[1]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{op.name()}: unreadable output: {exc}")
            continue
        canon[i] = text
        check = outputs.checker(op, ctx)
        found = check(parsed)
        problems += [f"{op.name()}: {p}" for p in found]
        if not found:
            if check(outputs.corrupt(op, parsed)):
                rejected += 1
            else:
                problems.append(f"{op.name()}: the check accepted a corrupted output")
    # Twins: the same call in text and JSON prints the same expression, and
    # the products (X, Y) and (Y, X) agree.
    groups: dict = {}
    for i, op in enumerate(ops):
        if op.argv is None or i not in canon:
            continue
        key = op.extra.get("pair")
        if key is None:
            key = tuple(a for a in op.argv if a not in ("--format", "json"))
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        texts = {canon[i] for i in members}
        if len(texts) > 1:
            problems.append(f"{ops[members[0]].name()}: twin calls disagree")
    return problems, rejected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "singlet", "cli.py")):
        print(f"error: no singlet sources under {SRC}", file=sys.stderr)
        return 2
    began = monotonic()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, work, began)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work, began) -> int:
    trace = bool(args.trace)
    ops = workloads.ROUNDS[args.workload](args.seed)
    spawner = Spawner(work)

    # Set-up: compile every module, warm the file cache, then time cold starts.
    subprocess.run([sys.executable, "-S", "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)
    setup_args = ["setup", args.workload]
    if args.workload == "scale":
        setup_args.append(json.dumps([op.spec for op in ops]))
    starts = []
    for i in range(SETUP_STARTS + 1):
        if i % 2:
            spawner.reference(1)
        child = spawner.run(setup_args)
        if not child.ok:
            print(f"error: set-up child failed: {child.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        if i:
            starts.append(child.trailer["ready"] - child.start)

    rounds: list[Round] = []
    measuring = monotonic()
    while len(rounds) < MIN_ROUNDS or (
        monotonic() - measuring < args.seconds and monotonic() - began < RUN_CAP_S
    ):
        rounds.append(run_round(spawner, args.workload, ops, trace))

    ctx = outputs.Context(random.Random(args.seed), SRC)
    problems, rejected = check_outputs(ops, rounds, ctx)
    attempted = len(ops) * len(rounds)
    failed = sum(out is None for r in rounds for out in r.outputs)
    errors = [e for r in rounds for e in r.errors]

    # Each operation's time is its median over the rounds; a round's time is
    # the sum of these (plus, on scale, the child's start-up), so one slow
    # call in one round does not move it.
    per_op = [statistics.median(r.latencies_ms[i] for r in rounds) / 1000 for i in range(len(ops))]
    latencies = [x for r in rounds for x in r.latencies_ms]
    measured = {
        "setup_s": statistics.median(starts),
        "wall_s": statistics.median(r.startup_s for r in rounds) + sum(per_op),
    }
    if args.workload == "cli":
        measured["call_ms.p50"] = statistics.median(latencies)
        if percentile_ok(len(latencies), 0.9):
            measured["call_ms.p90"] = statistics.quantiles(latencies, n=10)[-1]
    if args.workload == "scale":
        for family, kinds in (("fuse_s", ("fuse", "orbfuse")), ("oracle_s", ("oracle",)),
                              ("char_s", ("char", "orbchar"))):
            measured[family] = sum(t for op, t in zip(ops, per_op) if op.kind in kinds)
    factor = spawner.speed_factor()
    at_reference = {k: v * factor for k, v in measured.items()}
    end_to_end = {
        "setup_s": at_reference["setup_s"],
        "wall_s": at_reference["wall_s"],
        "peak_rss_mb": spawner.rss_kb / 1024,
    }

    layers = None
    if trace:
        per_round = [layer_totals(r) for r in rounds]
        if any(t["counts"] != per_round[0]["counts"] for t in per_round[1:]):
            problems.append("per-layer counts differ between rounds")
        layers = {
            "counts": per_round[0]["counts"],
            "times": {k: statistics.median(t["times"][k] for t in per_round)
                      for k in per_round[0]["times"]},
        }
        metrics = {k: {"value": layers["counts"][k], "unit": "count"}
                   for k in LAYER_COUNTS + tuple(f"checks.{s}.cases" for s in SUITES)}
        metrics.update({k: {"value": layers["times"][k], "unit": "s"} for k in LAYER_TIMES})
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {int(trace)}  "
          f"rounds {len(rounds)} x {len(ops)} ops  python {platform.python_version()}")
    print(f"  reference.py median {statistics.median(spawner.reference_s):.6f} s over "
          f"{len(spawner.reference_s)} runs (reference {REFERENCE_S} s): times x {factor:.4f}")
    print(f"  {'metric':<24} {'at reference speed':>20} {'as measured':>14}")
    for name, value in at_reference.items():
        unit = "ms" if "_ms" in name else "s"
        print(f"  {name:<24} {value:17.6f} {unit:<2} {measured[name]:14.6f}")
    print(f"  {'peak_rss_mb':<24} {end_to_end['peak_rss_mb']:17.6f} MB")
    if layers is not None:
        for name in sorted(layers["counts"]):
            print(f"  {name:<44} {layers['counts'][name]:>12}")
        for name in sorted(layers["times"]):
            print(f"  {name:<44} {layers['times'][name]:12.6f} s")
    print(f"  checks: {len(problems)} problems, {rejected} corrupted outputs rejected")
    for line in (problems + errors)[:20]:
        print(f"  ! {line}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": int(trace),
        "python": platform.python_version(), "rounds": len(rounds), "ops_per_round": len(ops),
        "speed_factor": factor, "reference_s": spawner.reference_s, "end_to_end": end_to_end,
        "at_reference": at_reference, "measured": measured, "op_s": per_op, "layers": layers,
        "problems": problems, "errors": errors, "rejected_corruptions": rejected,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
