"""Per-layer spans and counts for the benchmark's traced run.

The tracer wraps every public function of the library modules, plus
``Algebra.to_table_dict`` and ``cli.main``, and patches the wrapper into
every ``propsemiring`` module that imported the original, so calls
between modules pass through it too.  ``cli``'s own helpers stay
unwrapped: argument parsing, loading and JSON rendering are the self
time of ``cli.main``.  Patches are installed only around the traced run
and removed afterwards; the untraced run never sees them.

A span's self time is its duration minus the durations of the wrapped
calls it made, so the self times within one job add up to the duration
of its ``cli.main`` span.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("algebra", "formulas", "properties", "order", "morphisms",
          "differences")
MAIN = "cli.main"
ENUMERATE = "morphisms.enumerate_homs"
CHECK_MORPHISM = "morphisms.check_morphism"
SPAN_DEPTH = 2  # individual spans kept for cli.main and its direct callees


def _checked(result) -> int | None:
    """Summed ``checked`` of a PropertyReport, a list of them, or an
    object holding them in a ``reports`` mapping."""
    if hasattr(result, "checked") and hasattr(result, "holds"):
        return result.checked
    if isinstance(result, (list, tuple)) and result \
            and all(hasattr(r, "checked") for r in result):
        return sum(r.checked for r in result)
    reports = getattr(result, "reports", None)
    if isinstance(reports, dict):
        return sum(r.checked for r in reports.values())
    return None


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []   # open spans: [start, child time]
        self.open: dict[str, int] = defaultdict(int)
        self.functions: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.job_functions: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.jobs: list[dict] = []
        self.spans: list[tuple] = []
        self.job = 0
        self._patches: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import propsemiring.algebra
        import propsemiring.cli
        targets = [(MAIN, propsemiring.cli, "main"),
                   ("algebra.to_table_dict", propsemiring.algebra.Algebra,
                    "to_table_dict")]
        for layer in LAYERS:
            module = sys.modules[f"propsemiring.{layer}"]
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    targets.append((f"{layer}.{name}", module, name))
        modules = [m for name, m in sys.modules.items()
                   if name == "propsemiring" or name.startswith("propsemiring.")]
        for key, owner, name in targets:
            original = getattr(owner, name)
            wrapper = self._wrap(key, original)
            for holder in [owner] + [m for m in modules if m is not owner]:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        perf = time.perf_counter
        stack, open_spans = self.stack, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == CHECK_MORPHISM and open_spans[ENUMERATE]:
                self.counts[ENUMERATE + ".candidates"] += 1
            open_spans[key] += 1
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                open_spans[key] -= 1
                total = end - frame[0]
                if stack:
                    stack[-1][1] += total
                stats = self.job_functions[key]
                stats[0] += 1
                stats[1] += total
                stats[2] += total - frame[1]
                if len(stack) < SPAN_DEPTH:
                    self.spans.append((self.job, key, len(stack) + 1,
                                       frame[0], end))
            self._count(key, result)
            return result

        return wrapper

    def _count(self, key: str, result) -> None:
        checked = _checked(result)
        if checked is not None:
            self.counts[key + ".checked"] += checked
        if key == ENUMERATE:
            self.counts[ENUMERATE + ".homs"] += len(result)
        elif key == "algebra.table_semiring":
            self.counts[key + ".cells"] += 2 * result.size ** 2

    # -- jobs --------------------------------------------------------------

    def end_job(self, kind: str, elapsed: float, output_bytes: int) -> None:
        """Close the job that just ran and fold its spans into the totals."""
        functions = dict(self.job_functions)
        self.job_functions.clear()
        for key, (calls, total, own) in functions.items():
            stats = self.functions[key]
            stats[0] += calls
            stats[1] += total
            stats[2] += own
        self.counts[MAIN + ".output_bytes"] += output_bytes
        self_sum = sum(own for _, _, own in functions.values())
        main_total = functions.get(MAIN, (0, 0.0, 0.0))[1]
        self.jobs.append({"job": self.job, "kind": kind, "elapsed_s": elapsed,
                          "main_s": main_total, "self_sum_s": self_sum,
                          "functions": functions})
        self.job += 1

    def max_gap(self) -> float:
        """Largest difference, over jobs, between a job's timed duration
        and the summed self times of the spans inside it."""
        return max((abs(j["elapsed_s"] - j["self_sum_s"]) for j in self.jobs),
                   default=0.0)

    # -- metrics -----------------------------------------------------------

    def metric(self, name: str, passes: int) -> float:
        """A per-layer metric, per pass of the job list where it is a sum.

        Sums include the warm-up jobs, traced once before the passes, so
        every wrapped function has run: a layer the workload's own jobs
        leave idle reads near 0 rather than exactly 0.

        ``F.s`` is F's self time; ``F.calls`` its call count;
        ``F.tuples_per_s`` the summed ``checked`` of its reports over its
        inclusive time; ``table_semiring.cells_per_s`` add and mul cells
        loaded over inclusive time; ``enumerate_homs.candidates`` the
        check_morphism calls made inside enumerate_homs, and
        ``hit_ratio`` the homomorphisms it returned over those;
        ``cli.main.self_s`` and ``cli.main.output_bytes`` the self time
        of main and the bytes it wrote to stdout and stderr.
        """
        key, stat = name.rsplit(".", 1)
        calls, total, own = self.functions.get(key, (0, 0.0, 0.0))
        if stat in ("s", "self_s"):
            return own / passes
        if stat == "calls":
            return calls / passes
        if stat == "tuples_per_s":
            return self.counts[key + ".checked"] / total if total else 0.0
        if stat == "cells_per_s":
            return self.counts[key + ".cells"] / total if total else 0.0
        if stat == "hit_ratio":
            candidates = self.counts[key + ".candidates"]
            return self.counts[key + ".homs"] / candidates if candidates else 0.0
        if stat in ("candidates", "output_bytes"):
            return self.counts[name] / passes
        raise ValueError(f"no per-layer statistic {stat!r} in {name!r}")

    def dump(self) -> dict:
        return {"functions": {k: {"calls": c, "inclusive_s": t, "self_s": s}
                              for k, (c, t, s) in sorted(self.functions.items())},
                "counts": dict(sorted(self.counts.items())),
                "max_gap_s": self.max_gap(),
                "jobs": self.jobs,
                "spans": [{"job": j, "name": k, "depth": d, "start": a, "end": b}
                          for j, k, d, a, b in self.spans]}
