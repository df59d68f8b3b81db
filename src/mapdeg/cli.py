"""Command-line front end.

Five subcommands: degree, certify, distance, homotopy, experiment. degree
and certify read expressions inline (-e) or one per line from a file (-f,
'#' lines are comments); distance and homotopy read one pair (-a, -b);
experiment generates its samples. distance and homotopy take --resolution,
the density of their one grid; the other three take --max-resolution, the
cap of every degree level. Each command builds its jobs and ends in
_report, which runs them, prints one JSON report line per input on stdout
in input order, prints one summary line of counts per outcome on stderr
and returns the exit code: 0 when every outcome is a success, 1 when one
is not, and 2 for a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter

import numpy as np

from .certify import Refusal, ball_certificate, certify_not_iterate, homotopy_check
from .degree import DegreeParams, degree, sup_distance
from .errors import MapdegError
from .expr import Perturb, Pow, Susp, parse
from .geometry import MIN_RESOLUTION


def _report(command: str, jobs, success=("ok", "refused")) -> int:
    """Run each job, print its report line, then the summary; the exit code.

    A job is (input text, a thunk returning a result, extra report
    fields). wall_ms times the thunk and the result's to_json_dict().
    Each line's outcome is "ok", "refused" for a Refusal (shown as "ok"),
    the name of the MapdegError raised, or "InternalError" for any other
    exception, whose payload names its type; the batch goes on. No
    report is kept once printed. The stderr summary is
    "{command}: N ok, N refused", then ", N <outcome>" for each other
    outcome in the order it first occurred. The exit code is 0 when every
    outcome that occurred is in `success`, else 1.
    """
    counts = Counter(ok=0, refused=0)
    for text, thunk, extra in jobs:
        start = time.perf_counter()
        try:
            result = thunk()
            payload = result.to_json_dict()
            outcome = "refused" if isinstance(result, Refusal) else "ok"
        except MapdegError as err:
            outcome = type(err).__name__
            payload = {"error": str(err)}
        except Exception as err:  # a bug or MemoryError: one line, not a dead batch
            outcome = "InternalError"
            payload = {"error": f"{type(err).__name__}: {err}"}
        wall_ms = 1000.0 * (time.perf_counter() - start)
        counts[outcome] += 1
        shown = "ok" if outcome == "refused" else outcome
        report = {"input": text, "command": command, "outcome": shown,
                  "payload": payload, "wall_ms": wall_ms, **extra}
        print(json.dumps(report))
    print(f"{command}: " + ", ".join(f"{n} {k}" for k, n in counts.items()), file=sys.stderr)
    return 0 if all(k in success for k, n in counts.items() if n) else 1


def _iter_inputs(args):
    if args.expr is not None:
        yield args.expr
        return
    # an undecodable byte becomes U+FFFD, so its line is one ParseError
    with open(args.file, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            yield text


def _cmd_per_line(args, compute) -> int:
    """One report line per input expression; compute(e, params) is the result."""
    params = DegreeParams(max_resolution=args.max_resolution)
    jobs = (
        (text, lambda t=text: compute(parse(t), params), {})
        for text in _iter_inputs(args)
    )
    return _report(args.command, jobs)


def _cmd_pair(args, compute) -> int:
    """One report line for the maps -a and -b; compute(f, g, n) is the result.

    n is the grid resolution: --resolution, or None for the default grid
    of the maps' sphere. A resolution below geometry.MIN_RESOLUTION, 8,
    is a usage error, raised as ValueError before the job runs.
    """
    if args.resolution is not None and args.resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")

    def run():
        return compute(parse(args.a), parse(args.b), args.resolution)

    return _report(args.command, [(f"{args.a} | {args.b}", run, {})])


# splitmix64 finalizer; mixes the sample index into the master seed so
# per-sample streams stay independent of count and processing order
def _sample_seed(master: int, index: int) -> int:
    x = (master + (index + 1) * 0x9E3779B97F4A7C15) % 2**64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) % 2**64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) % 2**64
    x ^= x >> 31
    return x


def experiment_samples(dim: int, count: int, epsilon_max: float, seed: int):
    """Deterministic experiment corpus: (index, epsilon, field seed, map).

    The base map has degree 2: the squaring map of the circle, suspended
    for the sphere. Each sample perturbs it with a seed-derived bounded
    field and an epsilon drawn uniformly from [0, epsilon_max].
    """
    base = Pow(2) if dim == 1 else Susp(Pow(2))
    for i in range(count):
        sample_seed = _sample_seed(seed, i)
        rng = np.random.default_rng(sample_seed)
        eps = float(rng.uniform(0.0, epsilon_max))
        field_seed = int(rng.integers(0, 2**63, dtype=np.int64))
        yield i, eps, field_seed, base, Perturb(field_seed, eps, base)


def _cmd_experiment(args) -> int:
    """One ball certificate per sample; a refusal, too, fails the run.

    A --count below 1 or an --epsilon-max outside [0, 1) is a usage error,
    raised as ValueError before any sample is drawn.
    """
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if not 0.0 <= args.epsilon_max < 1.0:
        raise ValueError("--epsilon-max must lie in [0, 1)")
    params = DegreeParams(max_resolution=args.max_resolution)
    jobs = (
        (
            g.render(),
            functools.partial(ball_certificate, base, g, params),
            {"sample": {"index": i, "seed": field_seed, "epsilon": eps}},
        )
        for i, eps, field_seed, base, g in experiment_samples(
            args.dim, args.count, args.epsilon_max, args.seed
        )
    )
    return _report(args.command, jobs, success=("ok",))


_CAP_HELP = "resolution cap; a degree level is at most half of it or of the finest grid"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main rather than at import."""
    parser = argparse.ArgumentParser(
        prog="mapdeg",
        description="Degrees of circle/sphere self-maps and non-iterate certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, compute, text in (
        ("degree", degree, "compute the degree of each expression"),
        ("certify", certify_not_iterate, "emit non-iterate certificates or refusals"),
    ):
        p = sub.add_parser(name, help=text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("-e", "--expr", help="inline s-expression")
        group.add_argument("-f", "--file", help="file with one expression per line")
        p.add_argument("--max-resolution", type=int, help=_CAP_HELP)
        p.set_defaults(func=functools.partial(_cmd_per_line, compute=compute))

    for name, compute, text in (
        ("distance", sup_distance, "sup distance between two maps"),
        ("homotopy", homotopy_check, "straight-line homotopy validity report"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--resolution", type=int, help="grid density")
        p.add_argument("-a", required=True, help="first expression")
        p.add_argument("-b", required=True, help="second expression")
        p.set_defaults(func=functools.partial(_cmd_pair, compute=compute))

    p = sub.add_parser(
        "experiment",
        help="ball certificates for random perturbations of a degree-2 base map",
    )
    p.add_argument("--max-resolution", type=int, help=_CAP_HELP)
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--epsilon-max", type=float, required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        # bad parameter values or unreadable input files: usage error
        print(f"mapdeg: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
