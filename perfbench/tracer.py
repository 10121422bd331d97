"""Per-layer call counts and self times, recorded from outside the program.

``Tracer.install()`` wraps public functions of ``singlet``'s modules and
rebinds every module-level name that refers to one of them, since modules
import by name (``orbifold.fuse``, ``cli.fuse``, ``fusion.k_class`` and
``characters.k_class`` all reach ``fuse`` or ``k_class``).  A timed wrapper
opens a span around the call; when the span closes, its duration minus the
time of the spans it contains is added to the function's self time.  Spans
are folded into in-memory totals as they close and written out once, by
``report()``, when the process ends.  A counted wrapper only counts calls,
which keeps the hottest constructors cheap to trace.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, how): "timed" records calls and self time, "counted"
# records calls only.  "ModuleExpr.x" names a method of the class.
TIMED = "timed"
COUNTED = "counted"
TARGETS = (
    ("modules", "ModuleExpr.__init__", COUNTED),
    ("modules", "ModuleExpr.__add__", TIMED),
    ("modules", "normalize_atom", COUNTED),
    ("modules", "k_class", TIMED),
    ("modules", "lowest_weight", COUNTED),
    ("fusion", "fuse", TIMED),
    ("fusion", "k_product", TIMED),
    ("fusion", "projective_decompose", TIMED),
    ("fusion", "chebyshev_fuse", TIMED),
    ("characters", "ch_expr", TIMED),
    ("characters", "partition_numbers", COUNTED),
    ("orbifold", "induce", TIMED),
    ("orbifold", "orbifold_fuse", TIMED),
    ("orbifold", "orbifold_char_expr", TIMED),
    ("parser", "parse_expr", TIMED),
    ("cli", "run_command", TIMED),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.suites: dict[str, list] = {}  # suite -> [seconds, cases]
        self._open = [0.0]  # time covered by child spans, per open span

    def _timed(self, name, fn, on_result=None):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = open_spans.pop()
                open_spans[-1] += span
                calls[name] += 1
                self_s[name] += span - inner
            if on_result is not None:
                on_result(args, result, span)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_suites(self, args, results, span):
        entry = self.suites.setdefault(args[0], [0.0, 0])
        entry[0] += span
        entry[1] += sum(r.cases for r in results)

    def install(self):
        """Wrap every target and the check suites; rebind all references."""
        import singlet.checks as checks

        mods = {name: sys.modules[f"singlet.{name}"] for name in {t[0] for t in TARGETS}}
        replaced = {}
        for mod_name, path, how in TARGETS:
            owner, attr = mods[mod_name], path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrap = self._timed(name, original) if how == TIMED else self._counted(name, original)
            setattr(owner, attr, wrap)
            replaced[id(original)] = (original, wrap)
        suites = checks.run_suite
        replaced[id(suites)] = (suites, self._timed("checks.run_suite", suites, self._record_suites))
        checks.run_suite = replaced[id(suites)][1]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "singlet" and not mod_name.startswith("singlet."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        self._check_installed(replaced)

    @staticmethod
    def _check_installed(replaced):
        originals = {id(o) for o, _ in replaced.values()}
        for mod_name, mod in sys.modules.items():
            if mod_name == "singlet" or mod_name.startswith("singlet."):
                stale = [k for k, v in vars(mod).items() if id(v) in originals]
                if stale:
                    raise RuntimeError(f"unwrapped references in {mod_name}: {stale}")

    def report(self) -> dict:
        """Counts, self times, cache counters and suite totals of this process."""
        fusion = sys.modules["singlet.fusion"]
        characters = sys.modules["singlet.characters"]
        info = fusion._fuse_atoms.cache_info()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "fuse_atoms": [info.hits, info.misses],
            "partition_cache": len(characters._partitions),
            "suites": {k: list(v) for k, v in self.suites.items()},
        }
