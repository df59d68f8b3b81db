"""Command-line front end.

Five subcommands: degree, certify, distance, homotopy, experiment. Input
expressions come inline (-e) or one per line from a file (-f, '#' lines
are comments). Every expression produces exactly one JSON line on stdout,
in input order; a short human summary goes to stderr. Exit code 0 means
every line succeeded (and, for experiment, nothing was refused).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .certify import ball_certificate, certify_not_iterate, homotopy_check
from .degree import DegreeParams, degree, sup_distance
from .errors import MapdegError
from .expr import Perturb, Pow, Susp, parse


def _params_from(args) -> DegreeParams:
    return DegreeParams(
        initial_resolution=args.resolution,
        max_resolution=args.max_resolution,
    )


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
    else:
        print(f"{report['input']} -> {report['outcome']}: {report['payload']}")


def _report_line(command: str, text: str, runner) -> dict:
    start = time.perf_counter()
    try:
        payload = runner()
        outcome = "ok"
    except MapdegError as err:
        outcome = type(err).__name__
        payload = {"error": str(err)}
    wall_ms = 1000.0 * (time.perf_counter() - start)
    return {
        "input": text,
        "command": command,
        "outcome": outcome,
        "payload": payload,
        "wall_ms": wall_ms,
    }


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


def _run_per_line(args, command: str, runner) -> int:
    failures = 0
    total = 0
    for text in _iter_inputs(args):
        report = _report_line(command, text, lambda t=text: runner(t))
        _emit(report, args.json)
        total += 1
        if report["outcome"] != "ok":
            failures += 1
    print(f"{command}: {total - failures} ok, {failures} error(s)", file=sys.stderr)
    return 1 if failures else 0


def _run_pair(args, command: str, compute) -> int:
    """One report line for the maps -a and -b; compute(f, g, n) is the result.

    n is the grid resolution: --resolution, or the default grid of the
    maps' sphere.
    """
    params = DegreeParams(initial_resolution=args.resolution)

    def run() -> dict:
        f, g = parse(args.a), parse(args.b)
        return compute(f, g, params.grid_for(f.dim)).to_json_dict()

    report = _report_line(command, f"{args.a} | {args.b}", run)
    _emit(report, args.json)
    ok = report["outcome"] == "ok"
    print(f"{command}: {'ok' if ok else report['outcome']}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_degree(args) -> int:
    params = _params_from(args)

    def run(text: str) -> dict:
        return degree(parse(text), params).to_json_dict()

    return _run_per_line(args, "degree", run)


def _cmd_certify(args) -> int:
    params = _params_from(args)

    def run(text: str) -> dict:
        return certify_not_iterate(parse(text), params).to_json_dict()

    return _run_per_line(args, "certify", run)


def _cmd_distance(args) -> int:
    return _run_pair(args, "distance", sup_distance)


def _cmd_homotopy(args) -> int:
    return _run_pair(args, "homotopy", homotopy_check)


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
    if args.count < 1:
        print("experiment: --count must be >= 1", file=sys.stderr)
        return 2
    if not 0.0 <= args.epsilon_max < 1.0:
        print("experiment: --epsilon-max must lie in [0, 1)", file=sys.stderr)
        return 2
    params = _params_from(args)
    issued = refused = errors = 0
    for i, eps, field_seed, base, g in experiment_samples(
        args.dim, args.count, args.epsilon_max, args.seed
    ):
        def run() -> dict:
            result = ball_certificate(base, g, params)
            return result.to_json_dict()

        report = _report_line("experiment", g.render(), run)
        report["sample"] = {"index": i, "seed": field_seed, "epsilon": eps}
        _emit(report, args.json)
        if report["outcome"] != "ok":
            errors += 1
        elif "witness" in report["payload"]:
            refused += 1
        else:
            issued += 1
    print(
        f"experiment dim={args.dim} count={args.count}: "
        f"issued={issued} refused={refused} errors={errors}",
        file=sys.stderr,
    )
    return 0 if refused == 0 and errors == 0 else 1


def _add_common(p: argparse.ArgumentParser, refines: bool) -> None:
    """--resolution and --json; --max-resolution if `refines`."""
    p.add_argument("--resolution", type=int, default=None, help="starting resolution")
    if refines:
        p.add_argument("--max-resolution", type=int, default=None, help="refinement cap")
    p.add_argument(
        "--json",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="JSON-lines output (default)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main rather than at import."""
    parser = argparse.ArgumentParser(
        prog="mapdeg",
        description="Degrees of circle/sphere self-maps and non-iterate certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("degree", _cmd_degree, "compute the degree of each expression"),
        ("certify", _cmd_certify, "emit non-iterate certificates or refusals"),
    ):
        p = sub.add_parser(name, help=text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("-e", "--expr", help="inline s-expression")
        group.add_argument("-f", "--file", help="file with one expression per line")
        _add_common(p, refines=True)
        p.set_defaults(func=func)

    for name, func, text in (
        ("distance", _cmd_distance, "sup distance between two maps"),
        ("homotopy", _cmd_homotopy, "straight-line homotopy validity report"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p, refines=False)
        p.add_argument("-a", required=True, help="first expression")
        p.add_argument("-b", required=True, help="second expression")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "experiment",
        help="ball certificates for random perturbations of a degree-2 base map",
    )
    _add_common(p, refines=True)
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
