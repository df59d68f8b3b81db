"""Runs one workload's batches through mapdeg.cli.main in this process.

    python3 bench/host.py --workload certify-mixed --seed 1 --seconds 20
    python3 bench/host.py --workload certify-mixed --seed 1 --batches 30

bench/run.py starts this as a child process, once per round. After an
untimed warm-up batch it runs batches 1, 2, ... until --seconds have
passed, or exactly --batches of them, and prints one JSON line: the
batches run, each op's latency in seconds, and the oracle's verdicts.
An op's latency is the time from the previous output line (or from the
start of its batch) to its own output line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import workloads

# One thread for BLAS and OpenMP. numpy reads these when mapdeg first
# imports it, and every process started from here inherits them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class LineClock(io.TextIOBase):
    """Stands in for stdout: keeps each output line with the time it ended."""

    def __init__(self, on_line=None):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._part: list[str] = []
        self._on_line = on_line

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if "\n" not in s:
            self._part.append(s)
            return len(s)
        now = perf_counter()
        *done, rest = ("".join(self._part) + s).split("\n")
        for line in done:
            self.lines.append(line)
            self.times.append(now)
            if self._on_line is not None:
                self._on_line()
        self._part = [rest] if rest else []
        return len(s)


class Runner:
    """Runs batches of one workload through mapdeg.cli.main and checks them."""

    def __init__(self, workload):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.workload = workload
        self.cli = importlib.import_module("mapdeg.cli")
        self.attempted = 0
        self.failed = 0
        self.groups: dict[str, int] = {}
        self.refusals = 0

    def run(self, index: int, on_line=None) -> tuple[float, list[float]]:
        """Run batch `index`; return its wall time and per-op latencies."""
        batch = self.workload.batch(index)
        clock = LineClock(on_line)
        with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = self.cli.main(batch.argv)
            wall = perf_counter() - start
        self._check(batch, clock.lines, code)
        times = [start] + clock.times
        return wall, [b - a for a, b in zip(times, times[1:])]

    def _check(self, batch, lines: list[str], code: int) -> None:
        self.attempted += len(batch.lines)
        failed = max(0, len(batch.lines) - len(lines))  # missing lines
        for expected, text in zip(batch.lines, lines):
            try:
                ok = self.workload.check_line(expected, json.loads(text))
            except (ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
            self.groups[expected.group] = self.groups.get(expected.group, 0) + 1
            self.refusals += expected.kind == "refusal"
        if code != batch.exit_code and failed == 0:
            failed = len(batch.lines)  # a wrong exit code fails the batch
        self.failed += failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one round of a workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--batches", type=int)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    runner = Runner(workloads.make(args.workload, args.seed, OUT))
    runner.run(0)  # warm-up batch: first-call costs, checked but not timed
    deadline = perf_counter() + (args.seconds or 0.0)
    latencies: list[float] = []
    index = 1
    while index <= args.batches if args.batches else perf_counter() < deadline:
        latencies += runner.run(index)[1]
        index += 1
    print(
        json.dumps(
            {
                "batches": index - 1,
                "latencies": latencies,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "groups": runner.groups,
                "refusals": runner.refusals,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
