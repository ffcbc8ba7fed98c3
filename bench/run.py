"""Time to verdict of the propsemiring command line, per workload.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is a seeded list of CLI jobs (see workloads.py).  A job is
one in-process call of ``propsemiring.cli.main(argv)`` with stdout and
stderr captured; its output is checked against the reference only after
the timer stops.  One client runs the jobs in a closed loop, in whole
passes over the list, until ``--seconds`` have gone by.

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics, from a run
with every library function wrapped in a span, with ``--trace 1``.
Details of the run go to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer
from speed import Sampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 15       # fresh interpreters timed for setup_s; the median is kept
SHOWN_MISMATCHES = 5


def load_cli():
    """Import the command line from this checkout's sources, or exit."""
    package = SRC / "propsemiring"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no propsemiring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import propsemiring.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: propsemiring was imported from {cli.__file__}")
    return cli


def measure_setup(workdir: Path, algebras: list[str]) -> tuple[float, float]:
    """Median (raw, rescaled) set-up time over fresh interpreters; one more
    runs first untimed, since it may compile bytecode."""
    cmd = [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), *algebras]
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        if i:
            measured, rescaled = map(float, proc.stdout.split()[-2:])
            raw.append(measured)
            scaled.append(rescaled)
    return statistics.median(raw), statistics.median(scaled)


def run_job(cli, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        end = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), start, end


def warm_up(cli, jobs, tracer: Tracer | None) -> None:
    """Run the untimed warm-up jobs; a traced run traces them too."""
    for job in jobs:
        rc, out, err, start, end = run_job(cli, job.argv)
        if tracer is not None:
            tracer.end_job("warm-up", end - start, len(out.encode()) + len(err.encode()))


def run_passes(cli, jobs, seconds: float, tracer: Tracer | None) -> dict:
    """Whole passes over the job list until ``seconds`` have passed.

    Untraced runs sample the interpreter's speed throughout and rescale
    each job's time by it (speed.py); traced runs report raw times.
    """
    spans, failures, mismatches = [], [], []
    passes = 0
    first = time.perf_counter()
    with contextlib.nullcontext() if tracer else Sampler() as sampler:
        while passes == 0 or time.perf_counter() - first < seconds:
            for job in jobs:
                rc, out, err, start, end = run_job(cli, job.argv)
                if tracer is not None:
                    tracer.end_job(job.kind, end - start,
                                   len(out.encode()) + len(err.encode()))
                if rc != 0:
                    failures.append(f"{' '.join(job.argv)}: exit {rc}: "
                                    f"{err.strip()[-300:]}")
                    continue
                spans.append((job, start, end))
                try:
                    job.verify(out, err)
                except Exception as exc:  # any malformed output is a mismatch
                    mismatches.append(f"{' '.join(job.argv)}: "
                                      f"{type(exc).__name__}: {exc}")
            passes += 1
    wall = time.perf_counter() - first
    raw, times, per_job = [], [], {}
    for job, start, end in spans:
        measured, rescaled = (end - start,) * 2 if sampler is None \
            else sampler.rescale(start, end)
        raw.append(measured)
        times.append(rescaled)
        per_job.setdefault(id(job), (job, []))[1].append(rescaled)
    return {"passes": passes, "wall_s": wall, "raw": raw, "times": times,
            "per_job": list(per_job.values()), "failures": failures,
            "mismatches": mismatches}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, from rescaled job times (speed.py)."""
    times = run["times"]
    return {
        "setup_s": setup_s,
        "verdict_s.p50": statistics.median(times),
        "verdict_s.p90": nearest_rank(times, 0.9),
        "verdicts_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own interpreter and print its metrics."""
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    cli = load_cli()
    tag = f"{args.workload}-seed{args.seed}"
    workdir = BENCH / "work" / tag
    workload = workloads.build(args.workload, args.seed, workdir)

    tracer = Tracer() if args.trace else None
    with contextlib.chdir(workdir):
        if tracer is None:
            warm_up(cli, workload.warmup, None)
            setup_raw, setup_s = measure_setup(workdir, workload.algebras)
            run = run_passes(cli, workload.jobs, args.seconds, None)
            values = end_to_end(run, setup_s)
            run["raw_setup_s"] = setup_raw
            wanted = spec["end_to_end"]
        else:
            tracer.install()
            try:
                warm_up(cli, workload.warmup, tracer)
                run = run_passes(cli, workload.jobs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            values = {m["name"]: tracer.metric(m["name"], run["passes"])
                      for m in spec["per_layer"]}
            wanted = spec["per_layer"]

    if not run["times"]:
        raise SystemExit("error: every job failed:\n" + "\n".join(run["failures"][:5]))
    attempted = run["passes"] * len(workload.jobs)
    result = {
        "correct": not run["mismatches"],
        "attempted": attempted,
        "failed": len(run["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "jobs_per_pass": len(workload.jobs), "passes": run["passes"],
              "wall_s": run["wall_s"],
              "raw_job_s_per_pass": sum(run["raw"]) / run["passes"],
              "raw_job_s_p50": statistics.median(run["raw"]),
              "raw_setup_s": run.get("raw_setup_s"),
              "job_s": [{"kind": job.kind, "argv": " ".join(job.argv),
                         "median": statistics.median(v)} for job, v in run["per_job"]],
              "failures": run["failures"], "mismatches": run["mismatches"],
              "result": result}
    if tracer is not None:
        detail["trace"] = tracer.dump()
    with open(results / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, ensure_ascii=False, indent=1)

    for line in (run["failures"] + run["mismatches"])[:SHOWN_MISMATCHES]:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run['passes']} passes of "
          f"{len(workload.jobs)} jobs in {run['wall_s']:.1f} s", file=sys.stderr)
    if tracer is not None:
        print(f"largest gap between a job's time and its summed self times: "
              f"{tracer.max_gap() * 1e3:.3f} ms", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
