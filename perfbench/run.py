#!/usr/bin/env python3
"""Benchmark of the aisemiring workbench.

    python3 perfbench/run.py --workload derive|census|scan --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One process runs one workload (see ``workloads.py``): it repeats passes for
about ``--seconds`` (at least one pass), sets up the inputs afresh after
each pass to time the set-up, and checks every output.

``--trace 0`` measures the end-to-end metrics on untraced passes. ``--trace
1`` alternates untraced and traced passes; the traced ones record spans
around the benchmark's calls into each layer, which give the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the metrics that BENCHMARK.json names for the mode; every
workload reports all of them. The lines before it list every metric of the
run by name and unit, and the same record with provenance is written to
``perfbench/out/`` (spans too, for a traced run).

Metrics in the last line:

- ``pass_s``: one pass, as the sum over its items (a derivation problem; a
  census or classification call; an ``in_W`` call or an oracle inequality)
  of each item's median time over the run's untraced passes. An item's time
  is its wall time, or the process's CPU time over it if that is less (see
  ``workloads.elapsed``).
- ``setup_s``: the median CPU time of a fresh interpreter that imports the
  library, plus the median CPU time of the input builds; at least
  SETUP_REPEATS of each, spread over the run.
- ``peak_rss_mb``: peak resident set size of the process.
- per-layer counts, zero on a workload that never calls the layer, and
  ``trace.overhead_frac``, ``trace.library_s``, ``trace.spans``.

Metrics in the preceding lines only: ``failed_frac``, the stage times (``derive_s``,
``derive_case_p50_ms``/``p99_ms`` with their sample count, ``census4_s``,
``census5_s``, ``scan_bulk_1t_s``, ``scan_bulk_2t_s``, ``scan_oracle_s``)
and the per-layer times (``derivation.search_s``, ``kernels.census_s.flat``
and so on). Each exists on one workload only, and a time for a layer a
workload never calls would read exactly zero on every run, so they stay out
of the metric set that every workload shares.

Exit codes: 0 when the run completed (failed checks are reported in the
result, not by the exit code), 1 when the result lacks a declared metric,
2 when the library cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from tracing import NullTracer, Tracer, library_s, total_s, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
#: library settings that would change what is measured; cleared before import
CLEARED_ENV = ("AISEMIRING_KERNELS", "AISEMIRING_CENSUS_CAP")
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import aisemiring"


def git_commit() -> str | None:
    """Commit of the checkout; None outside a git work tree."""
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def import_s() -> float:
    """CPU time (user + system) of a fresh interpreter that starts and
    imports the library. An import in this process would be timed once
    only, with the files in whatever state the page cache holds. CPU time
    rather than wall time, because on a shared machine the wall time of a
    short child process swings with the load of other processes."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def median_items(items: list[list[tuple]]) -> list[tuple]:
    """(stage, median time) of each item over passes that ran the same items."""
    return [(stage, median(p[i][1] for p in items)) for i, (stage, _) in enumerate(items[0])]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("derive", "census", "scan"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = {name: os.environ.pop(name) for name in CLEARED_ENV if name in os.environ}
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy
    from aisemiring import _kernels

    cls = workloads.WORKLOADS[args.workload]
    imports, builds, corpus_builds = [], [], []

    def setup_probe():
        """Times one fresh import and one input build; returns the workload."""
        imports.append(import_s())
        tracer = Tracer()
        t0 = process_time()
        built = cls(args.seed, tracer)
        builds.append(process_time() - t0)
        corpus_builds.append(total_s(tracer.spans, "terms.corpus_build"))
        return built

    # A set-up probe follows every pass, so that set-up is sampled over the
    # whole run rather than in its first seconds: on a shared machine the
    # speed drifts over tens of seconds. A pass starts only if it and its
    # probe should end within --seconds, judged by the longest so far, so a
    # run lasts about --seconds whatever the speed of the machine.
    untraced, traced = [], []
    start = perf_counter()
    workload = setup_probe()
    longest = 0.0
    while True:
        trace_next = bool(args.trace) and len(traced) < len(untraced)
        tracer = Tracer() if trace_next else NullTracer()
        t0 = perf_counter()
        result = workload.run_pass(tracer)
        (traced if trace_next else untraced).append((result, tracer))
        setup_probe()
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > args.seconds and (traced or not args.trace):
            break
    while len(builds) < SETUP_REPEATS:
        setup_probe()
    setup_s = median(imports) + median(builds)

    passes = [r for r, _ in untraced + traced]
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    first_failure = next((r.first_failure for r in passes if r.first_failure), None)
    for r in passes[1:]:
        attempted += 1
        if r.counts != passes[0].counts:
            failed += 1
            first_failure = first_failure or f"counts differ between passes: {r.counts}"

    # Each item's median time over the untraced passes. On a shared machine
    # the speed drifts by tens of percent over seconds to minutes; the best
    # time of each item depends on catching a rare quiet moment and varies
    # about three times as much between runs as the median does.
    items = [r.items for r, _ in untraced]
    typical = median_items(items)
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_s": (sum(t for _, t in typical), "s"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for stage in dict.fromkeys(stage for stage, _ in typical if stage):
        metrics[stage] = (sum(t for s, t in typical if s == stage), "s")
    if args.workload == "derive":
        latencies = [t * 1e3 for p in items for _, t in p]
        metrics["derive_case_p50_ms"] = (percentile(latencies, 50), "ms")
        metrics["derive_case_p99_ms"] = (percentile(latencies, 99), "ms")
        metrics["derive_case_samples"] = (len(latencies), "count")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        counts = passes[0].counts
        for name, value in counts.items():
            metrics[name] = (value, "count")
        # a layer the workload never calls did no work
        for m in wanted:
            if m["unit"] == "count":
                metrics.setdefault(m["name"], (0, "count"))
        found = counts.get("derivation.found", 0)
        metrics["derivation.explored_per_found"] = (
            counts["derivation.explored"] / found if found else 0.0, "ratio")
        if any(corpus_builds):
            metrics["terms.corpus_build_s"] = (median(corpus_builds), "s")
        layer = [cls.layer_times(t.spans) for _, t in traced]
        for name in layer[0]:
            metrics[name] = (median([times[name] for times in layer]), "s")
        if "family.in_W_1t_s" in metrics:
            metrics["family.assignments_per_s"] = (
                2 * counts["family.assignments"]
                / (metrics["family.in_W_1t_s"][0] + metrics["family.in_W_2t_s"][0]), "1/s")
        traced_s = sum(t for _, t in median_items([r.items for r, _ in traced]))
        untraced_s = metrics["pass_s"][0]
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        metrics["trace.library_s"] = (median([library_s(t.spans) for _, t in traced]), "s")
        metrics["trace.spans"] = (len(traced[0][1].spans), "count")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: result lacks declared metrics {missing}", file=sys.stderr)
        return 1

    provenance = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": _kernels.active_backend(),
        "numba_importable": _kernels.HAVE_NUMBA,
        "git_commit": git_commit(),
        "cleared_env": cleared,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
    }
    record = {
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl",
                    [(f"{args.workload}-{args.seed}-{i}", t.spans)
                     for i, (_, t) in enumerate(traced)], args.workload)

    print(json.dumps(provenance))
    if first_failure:
        print(f"first failure: {first_failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
