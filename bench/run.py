"""Benchmark of mapdeg's CLI on two seeded workloads, ball-s2 and certify-mixed.

    python3 bench/run.py --workload ball-s2 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; mapdeg is imported from ./src.

--trace 0 measures the end-to-end metrics. It times set-up as the median
of fresh `import mapdeg.cli` processes. It runs the workload in rounds:
each round is a fresh bench/host.py process that feeds mapdeg.cli.main
one batch after another and times every op (input line). The first round
runs for half of --seconds, the second runs the same batches again, and
each op counts with its faster round. Every output line of every round is
checked against the workload's oracle.

--trace 1 measures the per-layer metrics in this process. It runs a fixed
number of ops three times, traced, untraced and traced again, so counts
are exact and repeat across runs. The spans go to bench/out/.

Both print a human summary and then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import host  # first: pins the BLAS and OpenMP threads before numpy loads
import spans
import workloads

HERE = Path(__file__).resolve().parent

#: Rounds per end-to-end run. Each round is a fresh process that runs the
#: same batches; an op's latency is its fastest round. Shared machines run
#: a process up to 1.7 times slower for spells of seconds to minutes; the
#: faster of two rounds run seconds apart filters out the shorter spells.
#: Separate processes keep a cache inside mapdeg from serving a round
#: with the results of the one before.
ROUNDS = 2

#: Fresh `import mapdeg.cli` processes timed before, between and after the
#: rounds, so a passing burst of load on the machine sways few of them.
SETUP_SPAWNS = 3

#: Percentile reported as latency_tail_ms: the highest one with at least
#: 10 ops beyond it at this commit's op counts (about 30 on ball-s2, about
#: 800 on certify-mixed). It is fixed so that runs compare like with like.
TAIL_PERCENTILE = {"ball-s2": 60.0, "certify-mixed": 95.0}

#: Batches per traced pass: 6 and 100 ops.
TRACE_BATCHES = {"ball-s2": 6, "certify-mixed": 5}

#: Spans must account for this share of the traced wall time at least.
MIN_ACCOUNTED = 0.95


def measure_setup(spawns: int) -> list[float]:
    """Wall seconds of fresh `import mapdeg.cli` processes."""
    env = dict(os.environ, PYTHONPATH=str(host.SRC))
    cmd = [sys.executable, "-c", "import mapdeg.cli"]
    times = []
    for _ in range(spawns):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=host.ROOT)
        times.append(perf_counter() - start)
    return times


def run_round(*args: str) -> dict:
    """One round of the workload in a fresh bench/host.py process."""
    cmd = [sys.executable, str(HERE / "host.py"), *args]
    proc = subprocess.run(cmd, check=True, cwd=host.ROOT, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    measure_setup(1)  # warms the bytecode cache
    setup = measure_setup(SETUP_SPAWNS)
    common = ("--workload", name, "--seed", str(seed))
    rounds = [run_round(*common, "--seconds", str(seconds / ROUNDS))]
    for _ in range(ROUNDS - 1):
        setup += measure_setup(SETUP_SPAWNS)
        rounds.append(run_round(*common, "--batches", str(rounds[0]["batches"])))
    setup += measure_setup(SETUP_SPAWNS)

    best = [min(op) for op in zip(*(r["latencies"] for r in rounds))]
    p = TAIL_PERCENTILE[name]
    tail_value, beyond = percentile(best, p)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(best), "ms"),
        "latency_tail_ms": (1000.0 * tail_value, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    tally = {key: sum(r[key] for r in rounds) for key in ("attempted", "failed", "refusals")}
    tally["groups"] = sum((Counter(r["groups"]) for r in rounds), Counter())
    notes = [
        f"setup_s over {len(setup)} processes: "
        + ", ".join(f"{s * 1000:.0f}" for s in setup)
        + " ms",
        f"{len(best)} ops in {rounds[0]['batches']} batches, each op the fastest of "
        f"{ROUNDS} rounds; round busy times "
        + ", ".join(f"{sum(r['latencies']):.2f}" for r in rounds)
        + " s",
        f"latency_tail_ms is p{p:g} of {len(best)} ops, {beyond} beyond it",
        f"fail_share = {tally['failed'] / tally['attempted']:.4f} "
        f"({tally['failed']} of {tally['attempted']} ops, warm-up batches included)",
    ]
    return metrics, notes, tally


def _pass(runner: host.Runner, batches: int, tracer=None) -> tuple[float, int]:
    """Run batches 1..batches; return (wall seconds, ops)."""
    on_line = None
    if tracer is not None:
        tracer.install()

        def on_line():
            tracer.op += 1

    wall = ops = 0
    try:
        for index in range(1, batches + 1):
            w, lat = runner.run(index, on_line)
            wall += w
            ops += len(lat)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, ops


def _layer_metrics(summary: dict, ops: int) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {"cli.self_ms": (get("cli", "self_ms"), "ms")}
    sizes = {
        "expr.eval_array": "rows",
        "expr.field": "rows",
        "geometry.make_grid": "nodes",
        "geometry.normalize_rows": "rows",
        "geometry.frame_rows": "rows",
        "degree.winding_raw": "nodes",
        "degree.quadrature_raw": "nodes",
        "degree.segment_min_norm": "node_t_pairs",
    }
    with_errors = ("expr.parse", "degree.degree", "certify.ball_certificate")
    no_calls = ("geometry.normalize_rows", "geometry.frame_rows")
    names = [t[2] for t in spans.TARGETS[1:]] + [spans.FIELD_SPAN]
    for name in names:
        if name not in no_calls:
            m[f"{name}.calls"] = (get(name, "calls"), "count")
        if name in with_errors:
            m[f"{name}.errors"] = (get(name, "errors"), "count")
        if name in sizes:
            m[f"{name}.{sizes[name]}"] = (get(name, "size"), "count")
        m[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    degree_calls = get("degree.degree", "calls")
    returned = degree_calls - get("degree.degree", "errors")
    passes = get("degree.winding_raw", "calls") + get("degree.quadrature_raw", "calls")
    m["expr.eval_rows_per_op"] = (get("expr.eval_array", "size") / ops, "ratio")
    # raw passes per degree call that returned a value; refusals return none
    m["degree.passes_per_degree"] = (passes / returned if returned else 0.0, "ratio")
    m["certify.degree_calls_per_op"] = (degree_calls / ops, "ratio")
    return m


def per_layer(name: str, seed: int) -> tuple[dict, list[str], dict]:
    host.OUT.mkdir(exist_ok=True)
    runner = host.Runner(workloads.make(name, seed, host.OUT))
    batches = TRACE_BATCHES[name]
    runner.run(0)  # warm-up batch, untraced
    first, second = spans.Tracer(), spans.Tracer()
    wall_a, ops = _pass(runner, batches, first)
    wall_u, _ = _pass(runner, batches)
    wall_b, _ = _pass(runner, batches, second)

    sum_a, sum_b = first.summary(), second.summary()
    counts = {n: {k: v for k, v in row.items() if k != "self_ms"} for n, row in sum_a.items()}
    counts_b = {n: {k: v for k, v in row.items() if k != "self_ms"} for n, row in sum_b.items()}
    for row_name, row in sum_a.items():
        row["self_ms"] = (row["self_ms"] + sum_b.get(row_name, row)["self_ms"]) / 2.0
    metrics = _layer_metrics(sum_a, ops)

    traced_wall = (wall_a + wall_b) / 2.0
    accounted = sum(row["self_ms"] for row in sum_a.values()) / (1000.0 * traced_wall)
    metrics["trace_overhead"] = (traced_wall / wall_u, "ratio")
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.accounted_share"] = (accounted, "ratio")

    checks = {
        "counts repeat exactly between the two traced passes": counts == counts_b,
        f"summed self times cover >= {MIN_ACCOUNTED:g} of the traced wall time": (
            MIN_ACCOUNTED <= accounted <= 1.0
        ),
    }
    if isinstance(runner.workload, workloads.BallWorkload):
        checks["certify.ball_certificate.calls == ops"] = (
            sum_a.get("certify.ball_certificate", {}).get("calls") == ops
        )
    spans_path = host.OUT / f"spans-{name}-{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    first.write(spans_path, "traced-1")
    second.write(spans_path, "traced-2")
    notes = [f"{ops} ops per pass; {len(first.spans)} spans per traced pass in {spans_path.name}"]
    notes += [f"check: {text}: {'ok' if ok else 'FAILED'}" for text, ok in checks.items()]
    notes.append(
        f"degree calls per op = {metrics['certify.degree_calls_per_op'][0]:.3f}"
        " (2 on the ball workloads while the base degree is recomputed per op)"
    )
    tally = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "refusals": runner.refusals,
        "groups": runner.groups,
        "checks_ok": all(checks.values()),
    }
    return metrics, notes, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (host.SRC / "mapdeg" / "cli.py").is_file():
        print(f"bench: no mapdeg sources under {host.SRC}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, notes, tally = per_layer(args.workload, args.seed)
    else:
        metrics, notes, tally = end_to_end(args.workload, args.seed, args.seconds)

    import numpy

    total = sum(tally["groups"].values())
    shares = ", ".join(f"{g} {c / total:.1%}" for g, c in sorted(tally["groups"].items()))
    print(
        f"{args.workload} seed {args.seed}: python {platform.python_version()}, "
        f"numpy {numpy.__version__}, nproc {os.cpu_count()}"
    )
    print(f"line shares: {shares}, refusals {tally['refusals'] / total:.1%}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": tally["failed"] == 0 and tally.get("checks_ok", True),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
