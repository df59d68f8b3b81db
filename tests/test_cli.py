import importlib
import io
import json
import math
import os
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapdeg import geometry
from mapdeg.cli import main
from mapdeg.degree import DegreeParams, _last_level
from mapdeg.errors import MapdegError
from mapdeg.expr import MAX_DEPTH, PerturbationField, Pow
from mapdeg.geometry import finest


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, lines, captured.err


class TestDegreeCommand:
    def test_inline_expression(self, capsys):
        code, lines, err = run_cli(capsys, "degree", "-e", "(pow 2)")
        assert code == 0
        assert len(lines) == 1
        report = lines[0]
        assert report["outcome"] == "ok"
        assert report["command"] == "degree"
        assert report["payload"]["value"] == 2
        assert set(report["payload"]) == {"value", "residual", "resolution"}
        assert "wall_ms" in report
        assert "1 ok" in err

    def test_sphere_identity(self, capsys):
        code, lines, _ = run_cli(capsys, "degree", "-e", "(id 2)")
        assert code == 0
        assert lines[0]["payload"]["value"] == 1

    def test_syntax_error_is_reported_in_stream(self, capsys):
        code, lines, _ = run_cli(capsys, "degree", "-e", "(pow")
        assert code == 1
        assert lines[0]["outcome"] == "ParseError"
        assert "line 1" in lines[0]["payload"]["error"]

    def test_file_input_preserves_order_and_skips_comments(self, capsys, tmp_path):
        f = tmp_path / "maps.txt"
        f.write_text("# corpus\n(pow 2)\n\n(pow -3)\n(bogus)\n")
        code, lines, _ = run_cli(capsys, "degree", "-f", str(f))
        assert code == 1  # one bad line
        assert [r["input"] for r in lines] == ["(pow 2)", "(pow -3)", "(bogus)"]
        assert [r["outcome"] for r in lines] == ["ok", "ok", "ParseError"]
        assert lines[1]["payload"]["value"] == -3

    def test_start_refusal_names_the_rule_it_enforces(self, capsys):
        # the cap rises to 512, twice the first level; (pow 41) needs
        # 2*pi*41 = 257.6 samples, so it starts at 258, and 258 > 512 / 2
        argv = ["degree", "-e", "(pow 41)", "--max-resolution", "8"]
        code, lines, _ = run_cli(capsys, *argv)
        assert code == 1
        assert lines[0]["outcome"] == "ResolutionExceeded"
        params = DegreeParams(max_resolution=8)
        cap, last = params.max_for(1), _last_level(params, 1)
        assert last == cap // 2 == 512 // 2
        need = math.ceil(2 * math.pi * 41)
        assert lines[0]["payload"] == {
            "error": f"map needs resolution {need}, above the last level {last}, half the smaller "
            f"of the cap {cap} and the finest grid {finest(1)} within {geometry.MAX_ROWS} "
            "sample rows"
        }


class TestCertifyCommand:
    def test_certificate(self, capsys):
        code, lines, _ = run_cli(capsys, "certify", "-e", "(pow 2)")
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["degree"]["value"] == 2
        assert "power_check" in payload
        assert payload["ball"] is None

    def test_refusal_is_not_an_error(self, capsys):
        code, lines, _ = run_cli(capsys, "certify", "-e", "(iterate 2 (pow 3))")
        assert code == 0
        assert lines[0]["outcome"] == "ok"
        assert lines[0]["payload"]["witness"] == {"base": 3, "exp": 2}

    def test_suspended_squaring(self, capsys):
        code, lines, _ = run_cli(capsys, "certify", "-e", "(susp (pow 2))")
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["degree"]["value"] == 2
        assert payload["dim"] == 2


    def test_overflowing_bound_does_not_kill_the_batch(self, capsys, tmp_path):
        f = tmp_path / "maps.txt"
        f.write_text("(iterate 2000 (pow 2))\n(pow 3)\n")
        code, lines, _ = run_cli(capsys, "certify", "-f", str(f))
        assert code == 1
        assert [r["outcome"] for r in lines] == ["ResolutionExceeded", "ok"]
        assert lines[1]["payload"]["degree"]["value"] == 3


class TestDistanceCommand:
    def test_zero_distance(self, capsys):
        code, lines, _ = run_cli(capsys, "distance", "-a", "(pow 2)", "-b", "(pow 2)")
        assert code == 0
        assert lines[0]["payload"]["sampled_max"] == 0.0

    def test_antipodal_distance(self, capsys):
        code, lines, _ = run_cli(capsys, "distance", "-a", "(id 1)", "-b", "(antipode 1)")
        assert code == 0
        assert lines[0]["payload"]["sampled_max"] == 2.0

    def test_perturbation_distance_below_one(self, capsys):
        code, lines, _ = run_cli(
            capsys, "distance", "-a", "(pow 2)", "-b", "(perturb 5 0.4 (pow 2))"
        )
        assert code == 0
        assert lines[0]["payload"]["sampled_max"] < 1.0

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("resolution", [[], ["--resolution", "16"]])
    def test_a_perturbation_is_bounded_by_its_chord(self, capsys, resolution, swapped):
        # g is f under one perturb by 0.5, so |f - g| <= c(0.5 * M) = 0.293
        # everywhere, in either order; at 16 bands sampled_max + (L_f +
        # L_g) * mesh alone is 1.71
        maps = ["(susp (pow 2))", "(perturb 4 0.5 (susp (pow 2)))"][:: -1 if swapped else 1]
        argv = ["distance", "-a", maps[0], "-b", maps[1]]
        code, lines, _ = run_cli(capsys, *argv, *resolution)
        assert code == 0
        payload = lines[0]["payload"]
        size = 0.5 * PerturbationField(4, 2).sup_bound()
        chord = (2 - 2 * (1 - size * size) ** 0.5) ** 0.5
        assert payload["sampled_max"] <= payload["rigorous"] <= chord + 1e-12

    def test_dimension_mismatch_is_an_error_line(self, capsys):
        code, lines, _ = run_cli(capsys, "distance", "-a", "(pow 2)", "-b", "(id 2)")
        assert code == 1
        assert lines[0]["outcome"] == "DimensionMismatch"

    def test_rigorous_bound_comes_from_the_checks(self, capsys):
        code, lines, _ = run_cli(
            capsys, "distance", "-a", "(pow 2)", "-b", "(perturb 5 0.1 (pow 2))"
        )
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["rigorous"] is not None
        assert payload["rigorous"] >= payload["sampled_max"]
        # a blend's bound comes from its check, so its distance is proven
        blend = "(blend 0.5 (pow 2) (compose (rot 0.1) (pow 2)))"
        code, lines, _ = run_cli(capsys, "distance", "-a", "(pow 2)", "-b", blend)
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["sampled_max"] <= payload["rigorous"] < 1.0
        # and a blend its check refuses is an error line
        pinched = "(blend 0.5 (pow 2) (compose (antipode 1) (pow 2)))"
        code, lines, _ = run_cli(capsys, "distance", "-a", "(pow 2)", "-b", pinched)
        assert code == 1
        assert lines[0]["outcome"] == "InvalidBlend"


class TestHomotopyCommand:
    def test_valid_homotopy(self, capsys):
        code, lines, _ = run_cli(
            capsys, "homotopy", "-a", "(pow 2)", "-b", "(perturb 3 0.5 (pow 2))"
        )
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["valid"] is True
        assert payload["min_norm"] > 0.25
        assert set(payload) == {"valid", "min_norm", "floor", "argmin", "resolution"}
        assert 1e-6 < payload["floor"] <= payload["min_norm"]
        assert payload["argmin"]["t"] == 0.5

    def test_pinched_homotopy(self, capsys):
        code, lines, _ = run_cli(capsys, "homotopy", "-a", "(id 1)", "-b", "(antipode 1)")
        assert code == 0
        assert lines[0]["payload"]["valid"] is False
        assert lines[0]["payload"]["min_norm"] < 1e-3

    @pytest.mark.parametrize(
        "argv",
        [
            # degrees 128 and -128: antipodal between every two of the
            # 256 nodes, where the sampled minimum reads 1.0
            ["-a", "(pow 128)", "-b", "(pow -128)"],
            # rigorous 2.40: the sampled minimum of 0.12 proves nothing
            [
                "-a", "(susp (pow 3))", "-b", "(compose (rot3 0 0 1 2.9) (susp (pow 3)))",
                "--resolution", "64",
            ],
        ],
    )
    def test_an_unproven_homotopy_is_not_valid(self, capsys, argv):
        code, lines, _ = run_cli(capsys, "homotopy", *argv)
        assert code == 0
        payload = lines[0]["payload"]
        assert payload["valid"] is False and payload["floor"] == 0.0
        assert payload["min_norm"] > 0.1

    def test_a_pinching_blend_is_refused(self, capsys):
        # both maps' blend checks run first, as for distance
        blend = "(blend 0.5 (pow 2) (compose (antipode 1) (pow 2)))"
        code, lines, _ = run_cli(capsys, "homotopy", "-a", "(pow 2)", "-b", blend)
        assert code == 1
        assert lines[0]["outcome"] == "InvalidBlend"


class TestExperimentCommand:
    def test_small_run_issues_certificates(self, capsys):
        code, lines, err = run_cli(
            capsys,
            "experiment", "--dim", "1", "--count", "5", "--epsilon-max", "0.9",
            "--seed", "1",
        )
        assert code == 0
        assert len(lines) == 5
        for report in lines:
            assert report["outcome"] == "ok"
            assert "power_check" in report["payload"]
            assert report["payload"]["degree"]["value"] == 2
        assert err == "experiment: 5 ok, 0 refused\n"

    def test_zero_epsilon_certifies_the_base_map_itself(self, capsys):
        code, lines, _ = run_cli(
            capsys,
            "experiment", "--dim", "1", "--count", "1", "--epsilon-max", "0.0",
            "--seed", "1",
        )
        assert code == 0
        assert lines[0]["payload"]["ball"]["sampled_distance"] <= 1e-12

    def test_deterministic_payloads(self, capsys):
        argv = [
            "experiment", "--dim", "1", "--count", "4", "--epsilon-max", "0.8",
            "--seed", "7",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)

        def stripped(reports):
            return json.dumps(
                [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports]
            )

        assert stripped(first) == stripped(second)

    def test_base_record_leaves_the_output_unchanged(self, capsys, monkeypatch):
        # cold, warm, then cleared again, in one process
        kept = importlib.import_module("mapdeg.certify")._kept_base
        degree_module = importlib.import_module("mapdeg.degree")
        grid_blocks, grids = degree_module.grid_blocks, []

        def walked(dim, n):
            grids[-1] += 1
            return grid_blocks(dim, n)

        monkeypatch.setattr(degree_module, "grid_blocks", walked)
        argv = [
            "experiment", "--dim", "2", "--count", "12", "--epsilon-max", "0.8",
            "--seed", "5",
        ]
        runs, lookups = [], []
        for clear in (True, False, True):
            if clear:
                kept.cache_clear()
            grids.append(0)
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, re.sub(r'"wall_ms": [^,}]*', '"wall_ms": 0', out), err))
            lookups.append(kept.cache_info()[:2])
        # (hits, misses): the warm run computes no base
        assert lookups == [(11, 1), (23, 1), (11, 1)]
        # the base's record builds the grids of the levels it keeps, 8 to
        # 23 bands, and of 24, past its budget; the subjects' degree
        # levels, 8 (five of them) to 18 bands, are all kept, so no
        # certificate builds a grid, cold or warm
        assert grids == [17, 0, 17]
        assert runs[0][0] == 0
        assert runs[0][1].count('"outcome": "ok"') == 12
        assert runs[0] == runs[1] == runs[2]

    def test_a_refusal_fails_the_run(self, capsys, monkeypatch):
        # the degree-2 base is never refused; a degree-4 base always is
        cli = importlib.import_module("mapdeg.cli")
        monkeypatch.setattr(cli, "Pow", lambda k: Pow(2 * k))
        argv = ["experiment", "--dim", "1", "--count", "2", "--epsilon-max", "0.5"]
        code, lines, err = run_cli(capsys, *argv)
        assert [r["payload"]["witness"] for r in lines] == [{"base": 2, "exp": 2}] * 2
        assert err == "experiment: 0 ok, 2 refused\n"
        assert code == 1

    def test_rejects_epsilon_of_one(self, capsys):
        code = main(["experiment", "--dim", "1", "--count", "1", "--epsilon-max", "1.0"])
        assert capsys.readouterr().err == "mapdeg: --epsilon-max must lie in [0, 1)\n"
        assert code == 2


class TestSummaries:
    """Each command's stderr summary and exit code, from its counts."""

    @pytest.mark.parametrize(
        "argv, first, summary, code",
        [
            # certify refuses (pow 4), and a refusal is a success
            (["degree", "-f", "FILE"], {}, "degree: 2 ok, 0 refused, 1 ParseError", 1),
            (["certify", "-f", "FILE"], {}, "certify: 1 ok, 1 refused, 1 ParseError", 1),
            (
                ["distance", "-a", "(pow 2)", "-b", "(susp (pow 2))"],
                {},
                "distance: 0 ok, 0 refused, 1 DimensionMismatch",
                1,
            ),
            (
                ["homotopy", "-a", "(id 1)", "-b", "(antipode 1)"],
                {},
                "homotopy: 1 ok, 0 refused",
                0,
            ),
            (
                ["experiment", "--dim", "1", "--count", "3", "--epsilon-max", "0.9"],
                {},
                "experiment: 3 ok, 0 refused",
                0,
            ),
            (
                # from a first level of 8 samples the cap rises to 16, and
                # (pow 2) starts at 12.6 samples, whose double is over it
                ["experiment", "--dim", "1", "--count", "2", "--epsilon-max", "0.5",
                 "--max-resolution", "8"],
                {1: 8},
                "experiment: 0 ok, 0 refused, 2 ResolutionExceeded",
                1,
            ),
        ],
    )
    def test_summary_and_exit_code(
        self, capsys, monkeypatch, tmp_path, argv, first, summary, code
    ):
        for dim, n in first.items():
            monkeypatch.setitem(importlib.import_module("mapdeg.degree")._FIRST, dim, n)
        f = tmp_path / "maps.txt"
        f.write_text("(pow 2)\n# a comment\n(bogus\n(pow 4)\n")
        argv = [str(f) if a == "FILE" else a for a in argv]
        assert main(argv) == code
        assert capsys.readouterr().err == summary + "\n"

    @pytest.mark.parametrize(
        "text",
        [
            # an ok line, a refusal, ParseError, DimensionMismatch, DomainError
            "(pow 3)\n(pow 4)\n(bogus\n(compose (pow 2) (susp (pow 2)))\n"
            "(blend 2 (pow 1) (pow 1))\n(pow 5)\n(bogus\n",
            # successes only
            "(pow 9)\n(pow 2)\n(susp (pow 3))\n",
        ],
    )
    def test_the_summary_counts_the_printed_reports(self, capsys, tmp_path, text):
        # a refusal is an ok line whose payload has a witness; the other
        # kinds follow in the order they first occur
        f = tmp_path / "maps.txt"
        f.write_text(text)
        code, lines, err = run_cli(capsys, "certify", "-f", str(f))
        counts = {"ok": 0, "refused": 0}
        for r in lines:
            refused = r["outcome"] == "ok" and "witness" in r["payload"]
            kind = "refused" if refused else r["outcome"]
            counts[kind] = counts.get(kind, 0) + 1
        assert len(lines) == len(text.splitlines())
        assert err == "certify: " + ", ".join(f"{n} {k}" for k, n in counts.items()) + "\n"
        assert code == (0 if set(counts) == {"ok", "refused"} else 1)


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code = main(["degree", "-f", "/no/such/file.txt"])
        assert code == 2
        assert "mapdeg:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distance", "homotopy"])
    @pytest.mark.parametrize("resolution", ["0", "4"])
    def test_bad_pair_resolution(self, capsys, command, resolution):
        # 0 used to fall back to the default grid and exit 0
        code = main([command, "-a", "(pow 2)", "-b", "(pow 2)", "--resolution", resolution])
        assert code == 2
        assert "resolution must be >= 8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "-a", "(pow 2)", "-b", "(pow 2)", "--max-resolution", "5"],
            ["distance", "-a", "(pow 2)", "-b", "(pow 2)", "--tolerance", "0.9"],
            ["homotopy", "-a", "(pow 2)", "-b", "(pow 2)", "--max-resolution", "64"],
            ["homotopy", "-a", "(pow 2)", "-b", "(pow 2)", "--tolerance", "0.2"],
            ["distance", "-a", "(pow 2)", "-b", "(pow 2)", "--seed", "3"],
            ["homotopy", "-a", "(pow 2)", "-b", "(pow 2)", "--seed", "3"],
            ["degree", "-e", "(pow 2)", "--seed", "3"],
            ["certify", "-e", "(pow 2)", "--seed", "3"],
            ["degree", "-e", "(pow 2)", "--tolerance", "0.2"],
            # only distance and homotopy take a grid resolution
            ["degree", "-e", "(pow 2)", "--resolution", "16"],
            ["certify", "-e", "(pow 2)", "--resolution", "16"],
            ["experiment", "--dim", "1", "--count", "1", "--epsilon-max", "0.5",
             "--resolution", "16"],
            # every report line is JSON
            *[
                argv + [flag]
                for argv in (
                    ["degree", "-e", "(pow 2)"],
                    ["certify", "-e", "(pow 2)"],
                    ["distance", "-a", "(pow 2)", "-b", "(pow 2)"],
                    ["homotopy", "-a", "(pow 2)", "-b", "(pow 2)"],
                    ["experiment", "--dim", "1", "--count", "1", "--epsilon-max", "0.5"],
                )
                for flag in ("--json", "--no-json")
            ],
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_count_below_one_is_a_usage_error(self, capsys):
        code = main(["experiment", "--dim", "1", "--count", "0", "--epsilon-max", "0.5"])
        assert capsys.readouterr() == ("", "mapdeg: --count must be >= 1\n")
        assert code == 2

    @pytest.mark.parametrize("cap", ["0", "-7", "4"])
    def test_bad_max_resolution(self, capsys, cap):
        code = main(["degree", "-e", "(pow 2)", "--max-resolution", cap])
        assert code == 2
        assert "max resolution" in capsys.readouterr().err


class TestHostileInput:
    def test_deep_nesting_does_not_kill_the_batch(self, capsys, tmp_path):
        f = tmp_path / "maps.txt"
        f.write_text("(compose (pow 1) " * 1000 + "(pow 1)" + ")" * 1000 + "\n(pow 3)\n")
        code, lines, _ = run_cli(capsys, "degree", "-f", str(f))
        assert code == 1
        assert [r["outcome"] for r in lines] == ["ParseError", "ok"]
        assert lines[1]["payload"]["value"] == 3

    def test_an_unexpected_exception_is_one_internal_error_line(
        self, capsys, tmp_path, monkeypatch
    ):
        certify = importlib.import_module("mapdeg.certify")
        original = certify.degree

        def degree(e, params):
            if e.render() == "(pow 5)":
                raise MemoryError("no room for the grid")
            return original(e, params)

        monkeypatch.setattr(certify, "degree", degree)
        f = tmp_path / "maps.txt"
        f.write_text("(pow 2)\n(pow 5)\n(pow 3)\n")
        code, lines, err = run_cli(capsys, "certify", "-f", str(f))
        assert code == 1
        assert [r["outcome"] for r in lines] == ["ok", "InternalError", "ok"]
        assert lines[1]["payload"] == {"error": "MemoryError: no room for the grid"}
        assert err == "certify: 2 ok, 0 refused, 1 InternalError\n"

    def test_a_nan_degree_is_a_consistency_error_line(self, capsys, monkeypatch):
        # rounding a NaN raw degree raised ValueError, an InternalError
        degree = importlib.import_module("mapdeg.degree")
        evaluate = degree.eval_array

        def with_a_nan(e, X, **kwargs):
            values = evaluate(e, X, **kwargs)
            values[0, 0] = math.nan
            return values

        monkeypatch.setattr(degree, "eval_array", with_a_nan)
        code, lines, err = run_cli(capsys, "degree", "-e", "(susp (pow 2))")
        assert code == 1
        assert [r["outcome"] for r in lines] == ["ConsistencyError"]
        assert err == "degree: 0 ok, 0 refused, 1 ConsistencyError\n"

    def test_undecodable_bytes_do_not_kill_the_batch(self, capsys, tmp_path):
        f = tmp_path / "maps.txt"
        f.write_bytes(b"(pow 2)\n\xff\xfe\n(pow 3)\n")
        code, lines, _ = run_cli(capsys, "degree", "-f", str(f))
        assert code == 1
        assert [r["outcome"] for r in lines] == ["ok", "ParseError", "ok"]
        assert lines[2]["payload"]["value"] == 3

    def test_overflowing_numbers_do_not_kill_the_batch(self, capsys, tmp_path):
        huge = 10**400
        f = tmp_path / "maps.txt"
        f.write_text(
            f"(pow {huge})\n(blend 0.5 (pow {huge}) (pow 2))\n"
            f"(compose (pow {huge}) (pow 0))\n(rot3 1e200 1e200 0 1)\n(pow 3)\n"
        )
        code, lines, _ = run_cli(capsys, "certify", "-f", str(f))
        assert code == 1
        assert [r["outcome"] for r in lines] == ["DomainError"] * 3 + ["ok", "ok"]
        assert lines[3]["payload"]["degree"]["value"] == 1
        assert lines[4]["payload"]["degree"]["value"] == 3

    @pytest.mark.parametrize(
        "text",
        [
            "(iterate 100000000 (id 1))",
            "(iterate 10000000 (pow 3))",
            "(iterate 1000 (iterate 1000 (iterate 1000 (id 1))))",
            "(iterate 0 (iterate 10000000 (pow 3)))",
            "(iterate 0 (iterate 1000000000000 (pow 2)))",
        ],
    )
    def test_maps_over_the_evaluation_budget_are_refused_up_front(self, capsys, text):
        start = time.perf_counter()
        code, lines, _ = run_cli(capsys, "degree", "-e", text)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert [r["outcome"] for r in lines] == ["DomainError"]
        assert "node evaluations" in lines[0]["payload"]["error"]

    @pytest.mark.parametrize(
        "argv, outcome",
        [
            # the wrap bound starts at about 9425 bands: ~177 M mesh rows
            (
                ["degree", "-e", "(susp (pow 3000))", "--max-resolution", "1000000"],
                "ResolutionExceeded",
            ),
            (
                ["distance", "-a", "(id 2)", "-b", "(antipode 2)", "--resolution", "100000"],
                "InvalidResolution",
            ),
            (
                ["homotopy", "-a", "(id 2)", "-b", "(antipode 2)", "--resolution", "100000"],
                "InvalidResolution",
            ),
        ],
    )
    def test_resolutions_over_the_row_budget_are_refused_up_front(
        self, capsys, argv, outcome
    ):
        start = time.perf_counter()
        code, lines, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert [r["outcome"] for r in lines] == [outcome]
        assert "sample rows" in lines[0]["payload"]["error"]


#: The documented outcomes of a report line.
_OUTCOMES = {"ok"} | {c.__name__ for c in MapdegError.__subclasses__()}

_INT = st.integers(-(10**400), 10**400)
_FLOAT = st.floats(-1e308, 1e308, allow_nan=False)
_UNIT = st.one_of(st.floats(0.0, 1.0), _FLOAT)

_S1_LEAF = st.one_of(
    st.sampled_from(["(id 1)", "(antipode 1)", "(conj)"]),
    st.builds("(pow {})".format, _INT),
    st.builds("(rot {!r})".format, _FLOAT),
)
_S1 = st.recursive(
    _S1_LEAF,
    lambda inner: st.one_of(
        st.builds("(compose {} {})".format, inner, inner),
        st.builds("(iterate {} {})".format, st.integers(0, 10**12), inner),
        st.builds("(blend {!r} {} {})".format, _UNIT, inner, inner),
        st.builds("(perturb {} {!r} {})".format, _INT, _UNIT, inner),
    ),
    max_leaves=4,
)
# S2 trees leave out iterate, whose admitted counts would make a sample slow
_S2 = st.recursive(
    st.one_of(
        st.sampled_from(["(id 2)", "(antipode 2)"]),
        st.builds("(rot3 {!r} {!r} {!r} {!r})".format, _FLOAT, _FLOAT, _FLOAT, _FLOAT),
        st.builds("(susp {})".format, _S1_LEAF),
    ),
    lambda inner: st.one_of(
        st.builds("(compose {} {})".format, inner, inner),
        st.builds("(blend {!r} {} {})".format, _UNIT, inner, inner),
        st.builds("(perturb {} {!r} {})".format, _INT, _UNIT, inner),
    ),
    max_leaves=3,
)


def _nest(text: str, depth: int) -> str:
    return "(iterate 1 " * depth + text + ")" * depth


def _mutate(text: str, edits: list) -> str:
    """Apply (position, character) edits: None deletes, a character inserts."""
    for pos, ch in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + text[i + 1 :] if ch is None else text[:i] + ch + text[i:]
    return text


_VALID = st.one_of(
    _S1, _S2, st.builds(_nest, _S1, st.integers(MAX_DEPTH - 4, MAX_DEPTH + 1))
)
_EDITS = st.lists(
    st.tuples(st.integers(0, 10**4), st.none() | st.sampled_from(list("() 01-.e#x\t"))),
    min_size=1,
    max_size=3,
)
_LINE = st.one_of(_VALID, st.builds(_mutate, _VALID, _EDITS))


class TestFuzz:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.lists(_LINE, min_size=1, max_size=4))
    def test_every_line_gets_one_documented_report(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "maps.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(texts) + "\n")
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["certify", "-f", path])
        expected = [t.strip() for t in texts]
        expected = [t for t in expected if t and not t.startswith("#")]
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["input"] for r in reports] == expected
        assert {r["outcome"] for r in reports} <= _OUTCOMES
        assert code == (0 if all(r["outcome"] == "ok" for r in reports) else 1)


def key_paths(obj: dict, prefix: str = "") -> list[str]:
    """Keys of a payload in order, nested keys as 'outer.inner'."""
    paths = []
    for key, value in obj.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths.extend(key_paths(value, f"{prefix}{key}."))
    return paths


_DEGREE_KEYS = ["value", "residual", "resolution"]
_SUBJECT_KEYS = ["subject", "dim", "degree"] + [f"degree.{k}" for k in _DEGREE_KEYS]


class TestPayloadSchemas:
    """Key order of every payload type, as README's schema section gives it."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["degree", "-e", "(pow 2)"], _DEGREE_KEYS),
            (
                ["distance", "-a", "(pow 2)", "-b", "(perturb 5 0.4 (pow 2))"],
                ["sampled_max", "resolution", "rigorous"],
            ),
            (
                ["homotopy", "-a", "(id 1)", "-b", "(antipode 1)"],
                ["valid", "min_norm", "floor", "argmin", "argmin.point", "argmin.t", "resolution"],
            ),
            (
                ["certify", "-e", "(pow 2)"],
                _SUBJECT_KEYS + ["power_check", "power_check.checked_exponents", "ball"],
            ),
            (
                ["experiment", "--dim", "1", "--count", "1", "--epsilon-max", "0.5"],
                _SUBJECT_KEYS
                + ["power_check", "power_check.checked_exponents", "ball"]
                + [f"ball.{k}" for k in ("base", "sampled_distance", "radius", "rigorous")],
            ),
            (
                ["certify", "-e", "(pow 4)"],
                _SUBJECT_KEYS + ["witness", "witness.base", "witness.exp"],
            ),
        ],
        ids=["degree", "distance", "homotopy", "certificate", "ball", "refusal"],
    )
    def test_key_order(self, capsys, argv, expected):
        code, lines, _ = run_cli(capsys, *argv)
        assert code == 0
        report = lines[0]
        assert list(report)[:5] == ["input", "command", "outcome", "payload", "wall_ms"]
        assert key_paths(report["payload"]) == expected
