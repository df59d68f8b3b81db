"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Each test measures its own wall time against the stated budget.
"""

import functools
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from mapdeg import (
    Blend,
    Compose,
    Conj,
    DegreeParams,
    Iterate,
    Pow,
    Rot,
    Susp,
    degree,
    eval_array,
    homotopy_check,
    is_perfect_power,
    make_grid,
    parse,
)
from mapdeg.certify import _exponent_scan_range
from mapdeg.cli import main as cli_main
from mapdeg.degree import raw_pass


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@functools.lru_cache(maxsize=None)
def run_experiment(dim: int, count: int, epsilon_max: float, seed: int = 1):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(
            [
                "experiment",
                "--dim", str(dim),
                "--count", str(count),
                "--epsilon-max", str(epsilon_max),
                "--seed", str(seed),
            ]
        )
    elapsed = time.perf_counter() - start
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return code, lines, elapsed


def test_criterion_1_multiplicativity_suite():
    rng = random.Random(20260808)

    def random_expr(depth: int):
        if depth == 0 or rng.random() < 0.45:
            r = rng.random()
            if r < 0.5:
                return Pow(rng.randint(-5, 5))
            if r < 0.8:
                return Rot(rng.uniform(0, 2 * math.pi))
            return Conj()
        return Compose(random_expr(depth - 1), random_expr(depth - 1))

    def random_pair():
        # keep the product degree resolvable within the refinement cap
        while True:
            f, g = random_expr(3), random_expr(3)
            df, dg = f.symbolic_degree(), g.symbolic_degree()
            if max(abs(df), abs(dg), abs(df * dg)) <= 20000:
                return f, g

    params = DegreeParams(max_resolution=1 << 20)
    start = time.perf_counter()
    failures = []
    for i in range(200):
        f, g = random_pair()
        df = degree(f, params).value
        dg = degree(g, params).value
        dfg = degree(Compose(f, g), params).value
        if dfg != df * dg:
            failures.append((i, df, dg, dfg))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        1,
        "multiplicativity suite",
        ok,
        f"200 pairs, {len(failures)} failures, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_symbolic_numeric_corpus():
    corpus = [
        "(id 1)",
        "(id 2)",
        "(antipode 1)",
        "(antipode 2)",
        "(conj)",
        "(pow -5)",
        "(pow -2)",
        "(pow 0)",
        "(pow 3)",
        "(pow 5)",
        "(rot 0.9)",
        "(rot3 0.0 0.0 1.0 1.1)",
        "(rot3 1.0 1.0 0.0 -0.4)",
        "(susp (pow 2))",
        "(susp (pow -3))",
        "(susp (conj))",
        "(compose (pow 2) (pow -3))",
        "(compose (conj) (pow 4))",
        "(compose (antipode 2) (susp (pow 2)))",
        "(iterate 3 (pow 2))",
        "(iterate 4 (compose (conj) (pow 2)))",
        "(iterate 2 (susp (pow 2)))",
    ]
    params_s1 = DegreeParams()
    params_s2 = DegreeParams(max_resolution=512)  # at most 512 latitude bands
    start = time.perf_counter()
    failures = []
    for text in corpus:
        e = parse(text)
        expected = e.symbolic_degree()
        res = degree(e, params_s1 if e.dim == 1 else params_s2)
        if e.dim == 2 and (res.residual >= 0.1 or res.resolution > 512):
            failures.append((text, "residual/resolution", res))
            continue
        # the numeric pass's own integer, at the level degree read it
        numeric = round(raw_pass(e, res.resolution)[0])
        if numeric != expected:
            failures.append((text, expected, numeric))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0 and len(corpus) >= 15
    report(
        2,
        "symbolic-numeric corpus",
        ok,
        f"{len(corpus)} expressions, {len(failures)} failures, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_3_ball_experiment_reproduction():
    code1, lines1, t1 = run_experiment(1, 100, 0.9)
    code2, lines2, t2 = run_experiment(2, 25, 0.8)
    problems = []
    if code1 != 0 or code2 != 0:
        problems.append(f"exit codes {code1}/{code2}")
    if len(lines1) != 100 or len(lines2) != 25:
        problems.append(f"line counts {len(lines1)}/{len(lines2)}")
    for line in lines1 + lines2:
        if line["outcome"] != "ok" or "witness" in line["payload"]:
            problems.append(f"not certified: {line['input']}")
        elif line["payload"]["degree"]["value"] != 2:
            problems.append(f"degree != 2: {line['input']}")
        elif not isinstance(line["payload"]["ball"]["rigorous"], float):
            problems.append(f"no rigorous distance bound: {line['input']}")
        elif line["payload"]["ball"]["rigorous"] >= 1.0:
            problems.append(f"rigorous distance bound >= 1: {line['input']}")
    elapsed = t1 + t2
    ok = not problems and elapsed < 300.0
    report(
        3,
        "ball-certificate experiment",
        ok,
        f"125 samples all certified at degree 2 with rigorous distance bounds "
        f"below 1, {elapsed:.1f}s (budget 300s)"
        if not problems
        else "; ".join(problems[:3]),
    )


def test_criterion_4_perfect_power_oracle_equivalence():
    # oracle: enumerate every k^n with n in [2, 14] and |k| up to the
    # largest base whose n-th power fits in the range
    limit = 10000
    table = set()
    for n in range(2, 15):
        k = 0
        while k**n <= limit:
            table.add(k**n)
            table.add((-k) ** n)
            k += 1
    start = time.perf_counter()
    failures = 0
    for d in range(-limit, limit + 1):
        witness = is_perfect_power(d)
        if (witness is not None) != (d in table):
            failures += 1
        elif witness is not None and (witness.exp < 2 or witness.base**witness.exp != d):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    report(
        4,
        "perfect-power oracle equivalence",
        ok,
        f"d in [-10000, 10000], {failures} disagreements, {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_5_homotopy_endpoints_and_validity():
    pairs_s1 = [
        ("(pow 2)", "(perturb 5 0.5 (pow 2))"),
        ("(pow 2)", "(perturb 9 0.8 (pow 2))"),
        ("(pow -3)", "(perturb 2 0.4 (pow -3))"),
        ("(id 1)", "(rot 1.0)"),
        ("(conj)", "(compose (conj) (rot 0.3))"),
        ("(pow 3)", "(compose (pow 3) (rot 0.1))"),
        ("(rot 0.5)", "(perturb 8 0.3 (rot 0.5))"),
        ("(pow 2)", "(blend 0.5 (pow 2) (perturb 1 0.5 (pow 2)))"),
    ]
    pairs_s2 = [
        ("(susp (pow 2))", "(perturb 6 0.5 (susp (pow 2)))"),
        ("(susp (pow 2))", "(rot3 0.0 0.0 1.0 0.2)"),
    ]
    worst = 0.0
    for f_text, g_text in pairs_s1:
        f, g = parse(f_text), parse(g_text)
        X = make_grid(1, 1024)
        dev0 = np.linalg.norm(eval_array(Blend(0.0, f, g), X) - eval_array(f, X), axis=1).max()
        dev1 = np.linalg.norm(eval_array(Blend(1.0, f, g), X) - eval_array(g, X), axis=1).max()
        worst = max(worst, float(dev0), float(dev1))
    for f_text, g_text in pairs_s2:
        f, g = parse(f_text), parse(g_text)
        X = make_grid(2, 23)  # 2 poles and 22 rings of 46: 1014 samples
        dev0 = np.linalg.norm(eval_array(Blend(0.0, f, g), X) - eval_array(f, X), axis=1).max()
        dev1 = np.linalg.norm(eval_array(Blend(1.0, f, g), X) - eval_array(g, X), axis=1).max()
        worst = max(worst, float(dev0), float(dev1))

    rep = homotopy_check(parse("(id 1)"), parse("(antipode 1)"))
    ok = worst <= 1e-12 and rep.min_norm < 1e-3 and not rep.valid
    report(
        5,
        "homotopy endpoints and validity",
        ok,
        f"{len(pairs_s1) + len(pairs_s2)} pairs, worst endpoint deviation {worst:.2e}, "
        f"pinched min_norm {rep.min_norm:.2e}",
    )


def test_criterion_6_iterate_law():
    bases = [Pow(2), Pow(-2), Pow(3), Susp(Pow(2))]
    start = time.perf_counter()
    failures = []
    for f in bases:
        base_value = degree(f).value
        for n in (2, 3, 4):
            value = degree(Iterate(n, f)).value
            if value != base_value**n:
                failures.append((f.render(), n, value, base_value**n))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        6,
        "iterate law",
        ok,
        f"{len(bases)} maps x n in 2..4, {len(failures)} failures, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_certificate_soundness_audit():
    _, lines, _ = run_experiment(1, 100, 0.9)
    certificates = [line["payload"] for line in lines if "power_check" in line["payload"]]
    audited = 0
    failures = 0
    for cert in certificates[:100]:
        value = cert["degree"]["value"]
        if is_perfect_power(value) is not None:
            failures += 1
        if cert["power_check"]["checked_exponents"] != list(_exponent_scan_range(value)):
            failures += 1
        audited += 1
    ok = audited == 100 and failures == 0
    report(
        7,
        "certificate soundness audit",
        ok,
        f"{audited} certificates re-validated, {failures} failures",
    )
