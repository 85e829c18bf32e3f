"""Tests for the experiment drivers and the command line interface."""

import argparse
import functools
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sobolev.cli
import sobolev.experiments
import sobolev.hiep
import sobolev.sop
from sobolev import (
    NumericalFailure,
    arnoldi,
    build_same_measure,
    golub_welsch,
    hermite_least_squares,
    legendre_jacobi,
    solve_hessenberg,
    spectral_from_json,
    update_solve,
)
from sobolev.cli import EXIT_NUMERICAL_FAILURE, _parse_degrees, build_parser, main
from sobolev.experiments import (
    ExperimentReport,
    cmd_althammer_roots,
    cmd_compare_solvers,
    cmd_laguerre_roots,
    cmd_least_squares,
    cmd_penta,
    least_squares_figure,
    random_spectral_data,
    report_to_csv,
    report_to_json,
)

FLOAT_CELL = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,}$")


class TestParseDegrees:
    def test_comma_list(self):
        assert _parse_degrees("1,11,21") == [1, 11, 21]

    def test_range_with_step(self):
        assert _parse_degrees("1:201:10") == list(range(1, 202, 10))

    def test_range_default_step_is_inclusive(self):
        assert _parse_degrees("3:5") == [3, 4, 5]

    @pytest.mark.parametrize("text", ["a,b", "1:2:3:4", "1:10:0"])
    def test_rejects_malformed(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_degrees(text)

    @pytest.mark.parametrize("text", ["a:b", "1:x", "1:5:two"])
    def test_bad_range_is_named_in_the_usage_error(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["least-squares", "--degrees", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"bad degree range {text!r}" in err
        assert "_parse_degrees" not in err


class TestReportSerialization:
    def _report(self):
        return ExperimentReport(
            experiment="demo",
            config={"n": 2},
            rows=[
                {"k": 1, "value": 0.5, "flag": True, "note": None},
                {"k": 2, "value": -1.0 / 3.0, "flag": False, "note": None},
            ],
            diagnostics={"residual": 1e-16, "z": 1 + 2j},
        )

    def test_csv_layout(self):
        lines = report_to_csv(self._report()).splitlines()
        assert lines[0] == "k,value,flag,note"
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert FLOAT_CELL.match(cells[1])
        assert cells[2] == "true"
        assert cells[3] == ""

    def test_csv_empty(self):
        report = ExperimentReport(experiment="demo", config={}, rows=[])
        assert report_to_csv(report) == "\n"

    def test_json_round_trip(self):
        obj = json.loads(report_to_json(self._report()))
        assert obj["experiment"] == "demo"
        assert obj["rows"][0]["flag"] is True
        assert obj["diagnostics"]["z"] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "convert, value, expected",
        [
            ("_cell", "update-rot", "update-rot"),
            ("_jsonable", np.array([[1.0, np.nan], [np.inf, 2.0]]), [[1.0, None], [None, 2.0]]),
            ("_jsonable", np.array([1 + 2j]), [[1.0, 2.0]]),
            # a range argument, such as least-squares degrees, as its list
            ("_jsonable", range(1, 8, 3), [1, 4, 7]),
            # any other non-JSON value as its str
            ("_jsonable", Path("out") / "r.csv", str(Path("out") / "r.csv")),
            ("_jsonable", slice(2), "slice(None, 2, None)"),
        ],
    )
    def test_strings_arrays_and_other_objects(self, convert, value, expected):
        assert getattr(sobolev.experiments, convert)(value) == expected


class TestCmdLaguerreRoots:
    def test_default_run(self):
        report, data = cmd_laguerre_roots()
        assert len(report.rows) == 10
        assert report.rows[0]["k"] == 1
        assert report.rows[4]["smallest_root_re"] == pytest.approx(
            -0.0799899984977785, abs=1e-10
        )
        assert abs(report.rows[4]["smallest_root_im"]) <= 1e-10
        Z, w = data
        assert Z.m == 20

    def test_solvers_agree_per_row(self):
        ref, _ = cmd_laguerre_roots(solver="arnoldi")
        for solver in ("update-hh", "update-rot"):
            got, _ = cmd_laguerre_roots(solver=solver)
            for a, b in zip(ref.rows, got.rows):
                assert abs(a["smallest_root_re"] - b["smallest_root_re"]) <= 1e-10
                assert abs(a["smallest_root_im"] - b["smallest_root_im"]) <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cmd_laguerre_roots(gamma=0.0)
        with pytest.raises(ValueError):
            cmd_laguerre_roots(k_max=21)  # exceeds spectral dimension 20

    def test_rejects_empty_root_table(self):
        with pytest.raises(ValueError, match="k_max=0"):
            cmd_laguerre_roots(k_max=0)


class TestCmdAlthammerRoots:
    def test_small_run_has_no_violations(self):
        report, _ = cmd_althammer_roots(n=12, gamma=1.0, n_quad=12)
        assert len(report.rows) == 12
        assert report.diagnostics["n_imag_violations"] == 0
        assert report.diagnostics["n_range_violations"] == 0
        assert report.diagnostics["n_gap_violations"] == 0

    def test_degree_fifty(self):
        report, _ = cmd_althammer_roots(n=50, gamma=100.0, n_quad=60)
        assert report.diagnostics["n_imag_violations"] == 0
        assert report.diagnostics["n_range_violations"] == 0
        assert report.diagnostics["n_gap_violations"] == 0

    def test_degree_one_root_at_origin(self):
        # the product is symmetric, so p_1 vanishes at 0
        report, _ = cmd_althammer_roots(n=1, gamma=2.0, n_quad=6)
        assert abs(report.rows[0]["root_re"]) <= 1e-12
        assert abs(report.rows[0]["root_im"]) <= 1e-12

    def test_rejects_overlong_degree(self):
        with pytest.raises(ValueError):
            cmd_althammer_roots(n=13, gamma=1.0, n_quad=6)
        # the root checks hold only while the rule is exact for orthogonality
        with pytest.raises(ValueError, match="n=7 exceeds n_quad=6"):
            cmd_althammer_roots(n=7, gamma=1.0, n_quad=6)
        report, _ = cmd_althammer_roots(n=6, gamma=1.0, n_quad=6)
        assert len(report.rows) == 6

    def test_rejects_empty_degree(self):
        with pytest.raises(ValueError, match="n=0"):
            cmd_althammer_roots(n=0)

    @pytest.mark.parametrize("argv", [[], ["--solver", "arnoldi"]], ids=["default", "arnoldi"])
    def test_real_roots_are_exactly_real(self, capsys, argv):
        # real spectral data give a float64 H, and LAPACK's real QR returns
        # real roots with an imaginary part of exactly zero
        assert main(["althammer-roots", *argv]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,root_re,root_im"
        assert [line.split(",")[2] for line in lines[1:]] == ["0.0000000000000000e+00"] * 60
        solver = argv[-1] if argv else sobolev.hiep.DEFAULT_SOLVER
        report, _ = cmd_althammer_roots(solver=solver)
        assert all(row["root_im"] == 0.0 for row in report.rows)
        assert report.diagnostics["max_abs_imag"] == 0

    def test_roots_off_the_real_axis_are_a_numerical_failure(self, capsys):
        # n <= n_quad: the roots are real and simple, and update-rot's
        # columnwise error at gamma 1e16 moves many of them off the axis
        argv = ["althammer-roots", "--n", "150", "--n-quad", "150", "--gamma", "1e16"]
        assert main([*argv, "--solver", "update-rot", "--format", "json"]) == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["error"] == "roots are not real and simple, as they are for n <= n_quad"
        assert record["n_imag_violations"] > 0
        assert {"n_range_violations", "n_gap_violations", "max_abs_imag", "min_pair_gap"} <= set(record)

    def test_roots_outside_the_interval_are_only_counted(self, capsys):
        # at gamma 1e300 the smallest root sits just below -1: conditioning
        argv = ["althammer-roots", "--solver", "arnoldi", "--n", "100", "--n-quad", "100",
                "--gamma", "1e300", "--format", "json"]
        assert main(argv) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["n_range_violations"] >= 1
        assert diagnostics["n_imag_violations"] == diagnostics["n_gap_violations"] == 0

    def test_gap_diagnostics_match_pair_loop(self):
        report, _ = cmd_althammer_roots()
        roots = np.array([complex(r["root_re"], r["root_im"]) for r in report.rows])
        gaps = [
            abs(roots[i] - roots[j])
            for i in range(len(roots))
            for j in range(i + 1, len(roots))
        ]
        assert report.diagnostics["min_pair_gap"] == float(min(gaps))
        assert report.diagnostics["n_gap_violations"] == sum(g <= 1e-10 for g in gaps)


class TestCmdLeastSquares:
    def test_small_run(self):
        report, data = cmd_least_squares(
            gamma=0.01, m=15, degrees=[1, 14, 20], grid_points=401
        )
        assert [row["degree"] for row in report.rows] == [1, 14, 20]
        # the value-only basis ends at degree m-1 = 14
        assert [row["effective_degree_plain"] for row in report.rows] == [1, 14, 14]
        for row in report.rows:
            for key in (
                "value_error_plain",
                "deriv_error_plain",
                "value_error_sobolev",
                "deriv_error_sobolev",
            ):
                assert np.isfinite(row[key]) and row[key] >= 0.0
        Zg, _ = data
        assert Zg.m == 30

    @pytest.mark.parametrize("solver", ["arnoldi", "update-rot"])
    def test_rows_equal_per_degree_fits(self, solver):
        # reference: one hermite_least_squares fit per degree and family,
        # each measuring its own errors on the grid
        def bump(x):
            return np.exp(-100.0 * (x - 0.2) ** 2)

        def bump_prime(x):
            return -200.0 * (x - 0.2) * bump(x)

        m, gamma, degrees, grid = 15, 0.01, [1, 7, 14, 20], 401
        report, _ = cmd_least_squares(
            gamma=gamma, m=m, degrees=degrees, solver=solver, grid_points=grid
        )
        rule = golub_welsch(legendre_jacobi(m))
        fv, fpv = bump(rule.nodes), bump_prime(rule.nodes)
        Z0, w0 = build_same_measure(rule, [1.0])
        Zg, wg = build_same_measure(rule, [1.0, gamma])
        H0 = solve_hessenberg(Z0, w0, m, method=solver)
        Hg = solve_hessenberg(Zg, wg, max(degrees) + 1, method=solver)
        expected = []
        for d in degrees:
            d0 = min(d, m - 1)
            fit0 = hermite_least_squares(
                H0, w0.norm(), rule.nodes, rule.weights, fv, fpv,
                0.0, d0, bump, bump_prime, grid,
            )
            fitg = hermite_least_squares(
                Hg, wg.norm(), rule.nodes, rule.weights, fv, fpv,
                gamma, d, bump, bump_prime, grid,
            )
            expected.append(
                {
                    "degree": d,
                    "value_error_plain": fit0.value_error,
                    "deriv_error_plain": fit0.deriv_error,
                    "value_error_sobolev": fitg.value_error,
                    "deriv_error_sobolev": fitg.deriv_error,
                    "effective_degree_plain": d0,
                }
            )
        assert report.rows == expected
        assert [list(row) for row in report.rows] == [list(row) for row in expected]

    @pytest.mark.parametrize("degrees", [[1], [14], [20, 3, 9], list(range(1, 30, 2))])
    def test_one_fit_and_one_grid_evaluation_per_family(self, monkeypatch, degrees):
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # each family fits and measures on one basis, evaluated through sop
        # on the nodes and the grid together
        counted(sobolev.sop, "evaluate")
        cmd_least_squares(m=15, degrees=degrees, grid_points=101)
        assert calls == {"evaluate": 2}

    def test_degrees_from_a_generator(self):
        # the generator is read once: the rows and the echoed config share it
        report, _ = cmd_least_squares(m=10, degrees=(d for d in (1, 5)), grid_points=11)
        assert [row["degree"] for row in report.rows] == [1, 5]
        assert report.config["degrees"] == [1, 5]
        assert json.loads(report_to_json(report))["config"]["degrees"] == [1, 5]

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            cmd_least_squares(m=15, degrees=[0, 5])
        with pytest.raises(ValueError):
            cmd_least_squares(m=15, degrees=[30])  # above 2m-1
        with pytest.raises(ValueError):
            cmd_least_squares(m=15, degrees=[5], gamma=0.0)

    def test_rejects_non_integral_degrees(self):
        # truncation would report degrees 1 and 3 under a config of [1.5, 3.9]
        for degrees, name in (([1.5, 3.9], "1.5"), ([2, np.float64(3.0)], "3.0")):
            with pytest.raises(ValueError, match=f"degree {name} must be an integer"):
                cmd_least_squares(m=15, degrees=degrees)
        report, _ = cmd_least_squares(m=15, degrees=np.array([2, 5]))
        assert [row["degree"] for row in report.rows] == [2, 5]

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid_points=0 must be at least 1"):
            cmd_least_squares(m=15, degrees=[5], grid_points=0)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--m", "0"], "m=0 must be at least 1"),
            (["--m", "-2", "--degrees", "1"], "m=-2 must be at least 1"),
            (["--degrees", "3:1"], "the degree list is empty"),
            (["--degrees", ","], "the degree list is empty"),
        ],
    )
    def test_empty_fit_request_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["least-squares", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sobolev least-squares")
        assert message in captured.err
        assert captured.out == ""


SVG = "{http://www.w3.org/2000/svg}"
LEGEND = ["value err, gamma=0", "value err, gamma=0.01", "deriv err, gamma=0", "deriv err, gamma=0.01"]


class TestLeastSquaresFigure:
    """The error curves that ``least-squares --out`` writes next to its report."""

    @staticmethod
    def _figure(plain_value, sobolev_value, plain_deriv, sobolev_deriv):
        columns = {
            "value_error_plain": plain_value,
            "value_error_sobolev": sobolev_value,
            "deriv_error_plain": plain_deriv,
            "deriv_error_sobolev": sobolev_deriv,
        }
        rows = [
            {"degree": d, **{key: vals[i] for key, vals in columns.items()}}
            for i, d in enumerate([1, 11, 21, 31])
        ]
        svg = least_squares_figure(ExperimentReport("least-squares", {"gamma": 0.01}, rows))
        root = ElementTree.fromstring(svg)
        # legend swatches, in series order, carry each series' colour
        colors = [e.get("stroke") for e in root.iter(f"{SVG}line") if e.get("stroke-width") == "1.6"]
        lines = [[e.get("points").split() for e in root.iter(f"{SVG}polyline") if e.get("stroke") == c]
                 for c in colors]
        texts = [e.text for e in root.iter(f"{SVG}text")]
        return colors, lines, texts

    def test_one_line_and_one_legend_entry_per_series(self):
        decay = [1e-2, 1e-4, 1e-6, 1e-8]
        colors, lines, texts = self._figure(decay, decay, decay, decay)
        assert len(set(colors)) == 4
        assert [[len(points) for points in group] for group in lines] == [[4]] * 4
        assert [texts.count(name) for name in LEGEND] == [1] * 4

    def test_decade_tick_labels(self):
        colors, _, texts = self._figure([1e-2] * 4, [3e-9] * 4, [1e-5] * 4, [0.5] * 4)
        ticks = [t for t in texts if re.fullmatch(r"1e-?\d+", t)]
        # log10 of the data spans -8.52 .. -0.30, padded by 0.41 on each side
        assert ticks == [f"1e{k}" for k in range(-8, 1)]

    def test_zero_or_non_finite_error_breaks_the_line(self):
        colors, lines, texts = self._figure(
            [1e-2, 0.0, 1e-6, 1e-8],
            [1e-2, 1e-4, np.nan, 1e-8],
            [np.inf, 1e-4, 1e-6, 1e-8],
            [1e-2, -np.inf, 0.0, 1e-8],
        )
        assert [[len(points) for points in group] for group in lines] == [[1, 2], [2, 1], [3], [1, 1]]
        assert [texts.count(name) for name in LEGEND] == [1] * 4

    def test_no_positive_finite_error_draws_axes_only(self):
        colors, lines, texts = self._figure([0.0] * 4, [np.nan] * 4, [0.0] * 4, [np.inf] * 4)
        assert lines == [[]] * 4
        assert [texts.count(name) for name in LEGEND] == [1] * 4
        assert [t for t in texts if re.fullmatch(r"1e-?\d+", t)] == ["1e0", "1e1"]


class TestCmdPenta:
    def test_default_run(self):
        report, data = cmd_penta()
        assert len(report.rows) == 25
        assert report.diagnostics["offband_rel"] <= 1e-9
        assert report.diagnostics["hermitian_rel"] <= 1e-10
        assert report.diagnostics["cross_solver_rel"] <= 1e-12
        Zs, _ = data
        assert Zs.blocks[0].z == 0.0  # operator arrives shifted by c

    def test_single_entry(self):
        report, _ = cmd_penta(m=1)
        assert len(report.rows) == 1

    def test_offband_diagnostic_matches_entry_loop(self):
        report, _ = cmd_penta()
        m = report.config["m"]
        B = np.zeros((m, m), dtype=complex)
        for row in report.rows:
            B[row["i"] - 1, row["j"] - 1] = complex(row["re"], row["im"])
        offband = 0.0
        for i in range(m):
            for j in range(m):
                if abs(i - j) > 2:
                    offband = max(offband, abs(B[i, j]))
        assert offband > 0.0  # rounding leaves the off-band entries nonzero
        assert report.diagnostics["offband_rel"] == offband / float(np.linalg.norm(B))

    def test_failed_cross_check_keeps_the_solve(self, capsys, monkeypatch):
        # the cross-check breaks down only where the requested matrix
        # already fails its structure bound, so the reference solve, any
        # solver but the default, is made to fail here; at N=1e300 the
        # requested solve itself fails, by structure or by breakdown
        recurrence = sobolev.experiments.pentadiagonal_recurrence

        def failing_reference(Z, w, m, solver, trace=None):
            if solver != sobolev.hiep.DEFAULT_SOLVER:
                raise NumericalFailure("Arnoldi iteration broke down before k columns", column=2, k=m + 1)
            return recurrence(Z, w, m, solver=solver, trace=trace)

        monkeypatch.setattr(sobolev.experiments, "pentadiagonal_recurrence", failing_reference)
        assert main(["penta", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["rows"]) == 25
        assert "cross_solver_rel" not in report["diagnostics"]
        assert report["diagnostics"]["cross_solver_failure"] == {
            "error": "Arnoldi iteration broke down before k columns", "column": 2, "k": 6}
        monkeypatch.undo()
        argv = ["penta", "--N", "1e300", "--solver", "update-rot", "--format", "json"]
        assert main(argv) == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        failure = json.loads(captured.err.strip().splitlines()[-1])
        assert failure["hermitian_rel"] > 1.0 and failure["offband_rel"] > 0.5
        assert main(["penta", "--N", "1e300", "--solver", "arnoldi"]) == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1])["column"] == 2

    @pytest.mark.parametrize("solver", sobolev.hiep.SOLVER_NAMES)
    def test_structure_failure_exits_3(self, solver, capsys):
        # from N = 1e21..1e23 on, rounding amplified by the sqrt(N) scaling
        # leaves B neither Hermitian nor pentadiagonal (Arnoldi breaks down
        # first at 1e30); at N=1e16 every solver is within 4.5e-8 of both
        assert main(["penta", "--N", "1e30", "--solver", solver]) == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        failure = json.loads(captured.err.strip().splitlines()[-1])
        if solver == "arnoldi":
            assert failure == {"error": "Arnoldi iteration broke down before k columns", "column": 2, "k": 6}
        else:
            assert failure["error"] == "recurrence matrix is not Hermitian and pentadiagonal to rounding"
            assert failure["bound"] == sobolev.experiments.PENTA_STRUCTURE_BOUND
            assert max(failure["hermitian_rel"], failure["offband_rel"]) > 1e-3
        report, _ = cmd_penta(N=1e16, solver=solver)
        assert max(report.diagnostics["hermitian_rel"], report.diagnostics["offband_rel"]) <= 1e-7

    def test_arnoldi_driver_cross_checks_against_updating(self):
        report, _ = cmd_penta(solver="arnoldi")
        assert report.diagnostics["cross_solver"] == "update-rot"
        assert report.diagnostics["cross_solver_rel"] <= 1e-12


class TestCmdCompareSolvers:
    def test_small_run(self):
        report, data = cmd_compare_solvers(count=5, max_m=12, seed=7)
        assert data is None
        assert len(report.rows) == 5
        assert report.diagnostics["max_rel_diff_update_hh"] <= 1e-11
        assert report.diagnostics["max_rel_diff_update_rot"] <= 1e-11

    def test_deterministic_given_seed(self):
        a, _ = cmd_compare_solvers(count=3, max_m=10, seed=5)
        b, _ = cmd_compare_solvers(count=3, max_m=10, seed=5)
        assert a.rows == b.rows

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            cmd_compare_solvers(count=0)

    def test_rejects_too_small_max_m(self):
        with pytest.raises(ValueError, match="max_m=1"):
            cmd_compare_solvers(max_m=1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_m": 1}, "max_m=1 must be at least 2"),
            ({"max_block": 0}, "max_block=0 must be at least 1"),
            ({"max_block": -1}, "max_block=-1 must be at least 1"),
            ({"max_m": 10.5}, "max_m=10.5 must be an integer"),
            ({"max_m": 10.0}, "max_m=10.0 must be an integer"),
            ({"max_block": 2.5}, "max_block=2.5 must be an integer"),
        ],
    )
    def test_sampler_rejects_its_own_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            random_spectral_data(np.random.default_rng(0), **kwargs)

    def test_sampler_takes_numpy_integers(self):
        Z, w = random_spectral_data(np.random.default_rng(0), max_m=np.int64(6), max_block=np.int32(2))
        assert 2 <= Z.m <= 6 and max(b.size for b in Z.blocks) <= 2

    @pytest.mark.parametrize(
        "driver, kwargs, message",
        [
            (cmd_compare_solvers, {"max_m": 10.5}, "max_m=10.5 must be an integer"),
            # n_quad=10.5 used to run, echo 10.5 and print the n_quad=11 table
            (cmd_laguerre_roots, {"n_quad": 10.5}, "n_quad=10.5 must be an integer"),
            (cmd_althammer_roots, {"n": 5, "n_quad": 10.5}, "n_quad=10.5 must be an integer"),
            # each count is named as the driver names it, before any numpy call
            (cmd_laguerre_roots, {"k_max": 2.5}, "^k_max=2.5 must be an integer"),
            (cmd_althammer_roots, {"n": 2.5}, "^n=2.5 must be an integer"),
            (cmd_compare_solvers, {"count": 2.5}, "^count=2.5 must be an integer"),
            (cmd_compare_solvers, {"seed": 1.5}, "^seed=1.5 must be an integer"),
            (cmd_least_squares, {"m": 10.5}, "^m=10.5 must be an integer"),
            (cmd_least_squares, {"grid_points": 10.5}, "^grid_points=10.5 must be an integer"),
            (cmd_penta, {"m": 2.5}, "^m=2.5 must be an integer"),
        ],
    )
    def test_drivers_reject_non_integral_point_counts(self, driver, kwargs, message):
        with pytest.raises(ValueError, match=message):
            driver(**kwargs)

    def test_rows_equal_updating_solves_with_q(self):
        report, _ = cmd_compare_solvers(count=4, max_m=12, seed=3)
        rng = np.random.default_rng(3)
        for row in report.rows:
            Z, w = random_spectral_data(rng, max_m=12)
            H_ref = arnoldi(Z, w, Z.m).H
            scale = float(np.linalg.norm(H_ref))
            for strategy, key in (
                ("householder", "rel_diff_update_hh"),
                ("rotations", "rel_diff_update_rot"),
            ):
                H, _ = update_solve(Z, w, strategy=strategy)
                assert row[key] == float(np.linalg.norm(H - H_ref)) / scale


class TestCli:
    def test_solver_names_come_from_hiep(self, capsys):
        # --solver offers SOLVER_NAMES, and compare-solvers has one column and
        # one diagnostic per name other than its Arnoldi reference, in order
        [subparsers] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        for command in ("laguerre-roots", "althammer-roots", "least-squares", "penta"):
            [option] = [a for a in subparsers.choices[command]._actions if a.dest == "solver"]
            assert tuple(option.choices) == sobolev.hiep.SOLVER_NAMES
            assert option.default == sobolev.hiep.DEFAULT_SOLVER
        columns = [
            "rel_diff_" + name.replace("-", "_")
            for name in sobolev.hiep.SOLVER_NAMES if name != "arnoldi"
        ]
        assert len(columns) == len(sobolev.hiep.SOLVER_NAMES) - 1
        assert main(["compare-solvers", "--count", "2", "--max-m", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == ",".join(["instance", "m", *columns])
        assert main(["compare-solvers", "--count", "2", "--max-m", "6", "--format", "json"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert list(diagnostics) == [f"max_{column}" for column in columns]

    def test_csv_on_stdout(self, capsys):
        assert main(["laguerre-roots", "--k-max", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "k,smallest_root_re,smallest_root_im"
        assert len(lines) == 4
        assert FLOAT_CELL.match(lines[1].split(",")[1])

    def test_json_output(self, capsys):
        assert main(["penta", "--m", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["experiment"] == "penta"
        assert {"experiment", "config", "rows", "diagnostics", "wall_time"} <= set(obj)

    STRICT_JSON_RUNS = {
        "laguerre-roots": ["--n-quad", "5", "--k-max", "3"],
        # one root has no pair to measure a gap with: min_pair_gap is inf
        "althammer-roots": ["--n", "1", "--n-quad", "2"],
        "least-squares": ["--m", "20", "--degrees", "1,5"],
        "penta": ["--m", "2"],
        "compare-solvers": ["--count", "2", "--max-m", "8"],
    }

    def test_json_output_is_strict_for_every_command(self, capsys):
        # a non-finite float is written as null, never as NaN or Infinity
        [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(self.STRICT_JSON_RUNS) == set(subparsers.choices)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        reports = {}
        for command, flags in self.STRICT_JSON_RUNS.items():
            assert main([command, *flags, "--format", "json"]) == 0
            reports[command] = json.loads(capsys.readouterr().out, parse_constant=reject)
            assert reports[command]["experiment"] == command
        assert reports["althammer-roots"]["diagnostics"]["min_pair_gap"] is None

    # flags of each run and the driver arguments they set
    CONFIG_RUNS = {
        "laguerre-roots": (["--n-quad", "5", "--k-max", "3", "--solver", "arnoldi"],
                           {"n_quad": 5, "k_max": 3, "solver": "arnoldi"}),
        "althammer-roots": (["--n", "4", "--gamma", "2"], {"n": 4, "gamma": 2.0}),
        "least-squares": (["--m", "10", "--degrees", "1:9:4"], {"m": 10, "degrees": [1, 5, 9]}),
        "penta": (["--m", "3", "--M", "0.5"], {"m": 3, "M": 0.5}),
        "compare-solvers": (["--count", "2", "--max-m", "6"], {"count": 2, "max_m": 6}),
    }

    def test_config_is_the_drivers_arguments(self, capsys):
        # every parameter but trace, in signature order, as given or as its default
        [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(self.CONFIG_RUNS) == set(subparsers.choices)
        for command, (flags, given) in self.CONFIG_RUNS.items():
            parameters = inspect.signature(subparsers.choices[command].get_default("run")).parameters
            assert "trace" in parameters and set(given) <= set(parameters)
            expected = {
                name: given.get(name, parameter.default)
                for name, parameter in parameters.items() if name != "trace"
            }
            assert main([command, *flags, "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert list(report["config"].items()) == list(expected.items())
            assert report["wall_time"] > 0.0

    def test_out_file_and_byte_stability(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["compare-solvers", "--count", "3", "--max-m", "10", "--out", str(first)])
        assert f"wrote {first}" in capsys.readouterr().out
        main(["compare-solvers", "--count", "3", "--max-m", "10", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_dump_spectral(self, tmp_path):
        out = tmp_path / "roots.csv"
        main(["laguerre-roots", "--k-max", "2", "--out", str(out), "--dump-spectral"])
        dumped = json.loads((tmp_path / "roots.spectral.json").read_text())
        assert set(dumped) == {"blocks", "betas"}
        Z, w = spectral_from_json(dumped)
        assert Z.m == 20
        assert w.betas.size == 10
        assert all(len(entry["z"]) == 2 for entry in dumped["blocks"])

    def test_dump_spectral_requires_out(self):
        with pytest.raises(SystemExit):
            main(["laguerre-roots", "--dump-spectral"])

    def test_trace_streams_json_lines(self, capsys):
        main(["laguerre-roots", "--k-max", "2", "--trace"])
        err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.strip()]
        assert err_lines
        for line in err_lines:
            record = json.loads(line)
            assert "event" in record

    def test_arnoldi_trace(self, capsys):
        main(["laguerre-roots", "--k-max", "2", "--solver", "arnoldi", "--trace"])
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        assert {e["event"] for e in events} == {"arnoldi-step", "eigen"}

    def test_trace_covers_the_eigensolver(self, capsys):
        assert main(["laguerre-roots", "--k-max", "3", "--trace"]) == 0
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        eigen = [e for e in events if e["event"] == "eigen"]
        # the root table's three sections in one LAPACK call
        assert [(e["n"], e["sections"]) for e in eigen] == [(3, 3)]
        assert all(e["seconds"] >= 0.0 for e in eigen)
        assert main(["althammer-roots", "--n", "6", "--n-quad", "8", "--trace"]) == 0
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        assert [(e["n"], e["sections"]) for e in events if e["event"] == "eigen"] == [(6, 1)]
        assert main(["laguerre-roots", "--k-max", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_penta_trace_covers_both_solves(self, capsys):
        assert main(["penta", "--m", "3", "--trace"]) == 0
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        # the update-rot solve and its Arnoldi cross-check
        assert {e["event"] for e in events} == {"update-restore", "arnoldi-step"}

    def test_compare_solvers_trace_covers_every_solver(self, capsys):
        assert main(["compare-solvers", "--count", "2", "--max-m", "6", "--trace"]) == 0
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        assert {e["event"] for e in events} == {"update-restore", "arnoldi-step"}

    def test_least_squares_trace_covers_every_evaluation(self, capsys):
        # per family one basis on the 15 nodes and the 2001-point grid together;
        # the Arnoldi H of real spectral data is float64, so every one is real
        args = ["least-squares", "--m", "15", "--degrees", "1:13:6", "--solver", "arnoldi", "--trace"]
        assert main(args) == 0
        events = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
        assert {e["event"] for e in events} == {"arnoldi-step", "evaluate"}
        evaluations = [(e["k"], e["points"], e["real"]) for e in events if e["event"] == "evaluate"]
        assert evaluations == [(13, 15 + 2001, True)] * 2

    def test_non_finite_argument_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["penta", "--c", "nan"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["171", "1e308", "inf"])
    def test_unusable_alpha_is_a_usage_error(self, capsys, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["laguerre-roots", "--alpha", alpha])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "alpha" in captured.err

    def test_least_squares_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "errors.csv"
        main([
            "least-squares", "--m", "15", "--degrees", "1:13:6",
            "--out", str(out),
        ])
        svg = (tmp_path / "errors.svg").read_text()
        assert svg.lstrip().startswith("<svg")
        assert out.exists()
        # the report first, then its figure, each with its own line
        assert capsys.readouterr().out.splitlines() == [f"wrote {out}", f"wrote {tmp_path / 'errors.svg'}"]

    @pytest.mark.parametrize("name", ["r.svg", "./r.svg"])
    def test_out_that_is_the_figure_path_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # a stand-in carries its driver's signature, which gives the subcommand its flags
        @functools.wraps(cmd_least_squares)
        def must_not_run(**kwargs):
            pytest.fail("cmd_least_squares ran although its figure would overwrite --out")

        monkeypatch.setattr(sobolev.cli, "cmd_least_squares", must_not_run)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["least-squares", "--out", name])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sobolev least-squares")
        assert "path of the figure" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_directory_is_a_usage_error_and_writes_no_figure(self, tmp_path, capsys):
        out = tmp_path / "report"
        out.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["least-squares", "--m", "15", "--degrees", "1:13:6", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"cannot write {out}" in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["least-squares", "--m", "15", "--degrees", "1:13:6"], "r.svg"),
            (["penta", "--m", "4", "--dump-spectral"], "r.spectral.json"),
        ],
    )
    def test_unwritable_companion_file_fails_before_the_run(
        self, tmp_path, capsys, monkeypatch, argv, blocked
    ):
        # a directory where the figure or the spectral dump goes used to
        # surface after the run, with the report already written
        driver = {"least-squares": "cmd_least_squares", "penta": "cmd_penta"}[argv[0]]

        @functools.wraps(getattr(sobolev.experiments, driver))
        def must_not_run(**kwargs):
            pytest.fail(f"{driver} ran although {blocked} cannot be written")

        monkeypatch.setattr(sobolev.cli, driver, must_not_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / blocked).mkdir()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "r.csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {argv[0]}")
        assert f"cannot write {blocked}: it is a directory" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [blocked]

    @pytest.mark.parametrize(
        "argv", [["compare-solvers", "--solver", "arnoldi"], ["penta", "--bogus"]]
    )
    def test_unknown_flag_gets_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {argv[0]}")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags", [["--solver", "arnoldi"], ["--dump-spectral", "--out", "x.csv"]]
    )
    def test_compare_solvers_takes_no_flag_it_would_ignore(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compare-solvers", "--count", "1", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["penta"], ["least-squares", "--m", "15", "--degrees", "1:13:6"]],
    )
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {argv[0]}")
        assert str(out.parent) in captured.err
        assert "Traceback" not in captured.err

    def test_write_that_fails_after_the_check_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the path passes the check before the run, and the write still fails
        def failing_write(path, text, encoding=None):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_text", failing_write)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["penta", "--m", "3", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sobolev penta")
        assert f"cannot write {out}: No space left on device" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["compare-solvers", "least-squares"])
    def test_missing_out_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command):
        driver = {"compare-solvers": "cmd_compare_solvers", "least-squares": "cmd_least_squares"}[command]

        @functools.wraps(getattr(sobolev.experiments, driver))
        def must_not_run(**kwargs):
            pytest.fail(f"{driver} ran although --out cannot be written")

        monkeypatch.setattr(sobolev.cli, driver, must_not_run)
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {command}")
        assert f"cannot write {out}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("exists", [False, True])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, exists):
        # os.access reports no write permission, which a superuser never sees
        @functools.wraps(sobolev.experiments.cmd_penta)
        def must_not_run(**kwargs):
            pytest.fail("cmd_penta ran although --out cannot be written")

        monkeypatch.setattr(sobolev.cli, "cmd_penta", must_not_run)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        out = tmp_path / "x.csv"
        if exists:
            out.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["penta", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: sobolev penta")
        assert f"cannot write {out}: permission denied" in captured.err
        assert captured.out == ""

    def test_althammer_command(self, capsys):
        assert main(["althammer-roots", "--n", "6", "--n-quad", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,root_re,root_im"
        assert len(lines) == 7

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["althammer-roots", "--n", "0"], "n=0"),
            (["laguerre-roots", "--k-max", "0"], "k_max=0"),
            (["compare-solvers", "--max-m", "1"], "max_m=1"),
        ],
    )
    def test_empty_root_request_is_a_usage_error(self, capsys, argv, name):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.err.startswith(f"usage: sobolev {argv[0]}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["penta", "--m", "0"], "m=0 must be at least 1 (the number of rows"),
            (["penta", "--m", "-3"], "m=-3 must be at least 1 (the number of rows"),
            (["althammer-roots", "--n-quad", "0"], "n_quad=0 must be at least 1 (the number of Gauss-Legendre"),
            (["althammer-roots", "--n", "1", "--n-quad", "-1"], "n_quad=-1 must be at least 1"),
            (["laguerre-roots", "--n-quad", "0"], "n_quad=0 must be at least 1 (the number of Gauss-Laguerre"),
            (["laguerre-roots", "--n-quad", "-4", "--k-max", "1"], "n_quad=-4 must be at least 1"),
        ],
    )
    def test_empty_rule_is_a_usage_error(self, capsys, argv, message):
        # the count is checked before a rule is built, so the message names
        # the argument given, not the rule size derived from it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {argv[0]}")
        assert message in captured.err
        assert "need at least one point" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["least-squares", "althammer-roots", "laguerre-roots"])
    def test_non_finite_gamma_is_a_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--gamma", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: sobolev {command}")
        assert f"gamma={value} must be positive and finite" in captured.err
        assert captured.out == ""

    def test_numerical_failure_is_reported_without_traceback(self, capsys, monkeypatch):
        def failing_solve(*args, **kwargs):
            raise NumericalFailure("breakdown in column 4", column=4, residual=1e-3)

        monkeypatch.setattr(sobolev.experiments, "solve_hessenberg", failing_solve)
        code = main(["laguerre-roots", "--k-max", "3"])
        assert code == EXIT_NUMERICAL_FAILURE
        assert code not in (0, 2)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "breakdown in column 4" in captured.err
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record == {"error": "breakdown in column 4", "column": 4, "residual": 1e-3}

    def test_failing_trace_is_strict_json_and_stops_at_the_first_nan(self, capsys):
        # update-hh overflows at gamma=1e300: the first window whose residual
        # is NaN fails, and its record carries null, not NaN
        argv = ["althammer-roots", "--gamma", "1e300", "--solver", "update-hh", "--trace"]
        # no errstate here: update_solve keeps numpy's overflow warnings, which
        # this suite turns into errors, to itself
        assert main(argv) == EXIT_NUMERICAL_FAILURE

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        lines = capsys.readouterr().err.splitlines()
        assert lines[-2] == (
            "sobolev: numerical failure: Hessenberg restoration left a residual above tolerance"
        )
        records = [json.loads(line, parse_constant=reject) for line in lines[:-2] + lines[-1:]]
        assert records[-1] == {
            "error": "Hessenberg restoration left a residual above tolerance",
            "column": 4,
            "block": 2,
            "residual": None,
        }
        # the loop stops at the failing window's step, block + column - 2 = 4
        events = records[:-1]
        assert {e["event"] for e in events} == {"update-restore"}
        assert max(e["block"] + e["column"] - 2 for e in events) == 3

    def test_overflow_prints_no_warning_between_the_trace_lines(self):
        # in a process with numpy's warnings shown, stderr holds the trace
        # lines, the failure message and its record, and nothing else
        src = str(Path(sobolev.__file__).parents[1])
        argv = ["althammer-roots", "--gamma", "1e300", "--solver", "update-hh", "--trace"]
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "sobolev.cli", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert out.returncode == EXIT_NUMERICAL_FAILURE
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert lines[-2] == (
            "sobolev: numerical failure: Hessenberg restoration left a residual above tolerance"
        )
        for line in lines[:-2] + lines[-1:]:
            assert isinstance(json.loads(line), dict), line

    def test_closed_stdout_ends_without_a_traceback(self):
        # the read end is closed before the child starts, so its write fails
        # whatever the timing
        src = str(Path(sobolev.__file__).parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "sobolev.cli", "laguerre-roots"],
                env={**os.environ, "PYTHONPATH": src}, stdout=write_end,
                stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert out.returncode == 1
        assert out.stderr == ""

    def test_trace_events_are_strict_json(self, capsys):
        sobolev.cli._stderr_trace({"event": "x", "residual": np.float64("nan"), "z": 1j, "n": np.int64(2)})
        line = capsys.readouterr().err
        assert line == '{"event": "x", "residual": null, "z": [0.0, 1.0], "n": 2}\n'

    def test_bad_arguments_exit_with_usage_error(self):
        with pytest.raises(SystemExit):
            main(["laguerre-roots", "--gamma", "-1"])
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        with pytest.raises(SystemExit):
            main(["least-squares", "--degrees", "nope"])

    def test_arnoldi_follows_huge_derivative_weight(self, capsys):
        # ~1e150 scalings: the scale-aware breakdown test keeps all 10 columns
        tables = {}
        for solver in ("arnoldi", "update-rot"):
            code = main(["laguerre-roots", "--gamma", "1e300", "--solver", solver])
            assert code == 0
            lines = capsys.readouterr().out.strip().splitlines()
            tables[solver] = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert tables["arnoldi"].shape == (10, 3)
        assert_allclose(tables["arnoldi"], tables["update-rot"], rtol=0.0, atol=1e-8)

    def test_arnoldi_breakdown_is_a_numerical_failure(self, capsys, monkeypatch):
        # Z q_3 made to lie in span(q_1) breaks the iteration down at column 3
        matvec = sobolev.hiep.jordan_matvec
        calls = []

        def breaking_matvec(Z, x):
            calls.append(x)
            return calls[0].copy() if len(calls) == 3 else matvec(Z, x)

        monkeypatch.setattr(sobolev.hiep, "jordan_matvec", breaking_matvec)
        code = main(["laguerre-roots", "--solver", "arnoldi"])
        assert code == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        record = json.loads(captured.err.strip().splitlines()[-1])
        assert record["column"] == 3
        assert record["k"] == 10


# laguerre-roots --gamma 1e300 --n-quad 10 --k-max 20 --solver update-rot,
# smallest root of p_1..p_20 (all real)
UPDATE_ROT_ROOTS_PAST_BREAKDOWN = [
    4.9999999999999972e-01, -2.0710678118654782e-01, -1.3122329229207250e-01,
    -9.6099789269519717e-02, -7.5823207703981127e-02, -6.2617041927072042e-02,
    -5.3330648458693279e-02, -4.6443830021738665e-02, -4.1132699269736797e-02,
    -3.6911886010914087e-02, -3.3476852839583390e-02, -3.3642047900483925e-02,
    -3.3949073690891368e-02, -3.4437278561522393e-02, -3.5169338236264329e-02,
    -3.6251794226844443e-02, -3.7883930196567238e-02, -4.0497735960973329e-02,
    -4.5301206276256056e-02, 6.0192025173081511e-02,
]


class TestDefaultSolverEdges:
    """Default flags where the solvers part ways: Arnoldi is accurate up to
    its breakdown, and a breakdown before the needed column exits 3."""

    @staticmethod
    def _failure(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return json.loads(captured.err.strip().splitlines()[-1])

    def test_least_squares_at_gamma_1e30_is_accurate(self, capsys):
        # update-rot reads 1.09e38 here, with exit 0
        assert main(["least-squares", "--gamma", "1e30", "--degrees", "101,201"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert row["degree"] == "201"
        assert float(row["value_error_sobolev"]) <= 1.1e-14

    def test_least_squares_past_the_breakdown_exits_3(self, capsys):
        argv = ["least-squares", "--gamma", "1e30", "--degrees", "101,201,301"]
        assert main(argv) == EXIT_NUMERICAL_FAILURE
        failure = self._failure(capsys)
        assert (failure["column"], failure["k"]) == (202, 302)

    LAGUERRE_PAST_BREAKDOWN = ["laguerre-roots", "--gamma", "1e300", "--n-quad", "10", "--k-max", "20"]

    def test_laguerre_roots_past_the_breakdown_exits_3(self, capsys):
        assert main(self.LAGUERRE_PAST_BREAKDOWN) == EXIT_NUMERICAL_FAILURE
        failure = self._failure(capsys)
        assert (failure["column"], failure["k"]) == (11, 20)

    def test_update_rot_returns_every_column_past_the_breakdown(self, capsys):
        assert main([*self.LAGUERRE_PAST_BREAKDOWN, "--solver", "update-rot"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert_allclose(table[:, 0], np.arange(1, 21))
        assert_allclose(table[:, 1], UPDATE_ROT_ROOTS_PAST_BREAKDOWN, rtol=1e-9, atol=0.0)
        assert (table[:, 2] == 0.0).all()

    def test_althammer_roots_at_gamma_1e16_are_real_and_simple(self, capsys):
        # update-rot puts 138 of these roots off the real axis (exit 3)
        argv = ["althammer-roots", "--n", "150", "--n-quad", "150", "--gamma", "1e16",
                "--format", "json"]
        assert main(argv) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["n_imag_violations"] == 0
        assert diagnostics["n_gap_violations"] == 0
        assert diagnostics["n_range_violations"] == 0


DISPATCH = [
    ("laguerre-roots", "cmd_laguerre_roots", ["--k-max", "3"], "k_max", 3),
    ("althammer-roots", "cmd_althammer_roots", ["--n-quad", "7"], "n_quad", 7),
    ("least-squares", "cmd_least_squares", ["--degrees", "1,3"], "degrees", [1, 3]),
    ("penta", "cmd_penta", ["--M", "2.5"], "M", 2.5),
    ("compare-solvers", "cmd_compare_solvers", ["--max-m", "6"], "max_m", 6),
]


# one row with the columns the least-squares figure plots
FAKE_REPORT = ExperimentReport(
    experiment="fake",
    config={"gamma": 0.5},
    rows=[{"degree": 1, **dict.fromkeys(
        ["value_error_plain", "deriv_error_plain", "value_error_sobolev", "deriv_error_sobolev"], 0.1
    )}],
)


def solver_option(command, name=sobolev.hiep.DEFAULT_SOLVER):
    """The --solver value a driver receives; compare-solvers takes none."""
    return {} if command == "compare-solvers" else {"solver": name}


@pytest.mark.parametrize("command, driver, flag, param, value", DISPATCH)
class TestCliDispatch:
    @staticmethod
    def _record_calls(monkeypatch, driver):
        calls = []

        @functools.wraps(getattr(sobolev.experiments, driver))
        def fake(**kwargs):
            calls.append(kwargs)
            return FAKE_REPORT, None

        monkeypatch.setattr(sobolev.cli, driver, fake)
        return calls

    def test_defaults_are_the_driver_defaults(
        self, monkeypatch, capsys, command, driver, flag, param, value
    ):
        calls = self._record_calls(monkeypatch, driver)
        assert main([command]) == 0
        assert calls == [{**solver_option(command), "trace": None}]

    def test_flag_arrives_under_parameter_name(
        self, monkeypatch, capsys, command, driver, flag, param, value
    ):
        calls = self._record_calls(monkeypatch, driver)
        solver = [] if command == "compare-solvers" else ["--solver", "arnoldi"]
        assert main([command, *flag, *solver]) == 0
        assert calls == [{**solver_option(command, "arnoldi"), "trace": None, param: value}]

    def test_out_adds_svg_path_for_least_squares_only(
        self, monkeypatch, capsys, tmp_path, command, driver, flag, param, value
    ):
        # the driver gets no path; main writes the figure next to --out
        calls = self._record_calls(monkeypatch, driver)
        out = tmp_path / "r.csv"
        assert main([command, "--out", str(out)]) == 0
        assert calls == [{**solver_option(command), "trace": None}]
        written = [out, tmp_path / "r.svg"] if command == "least-squares" else [out]
        assert capsys.readouterr().out.splitlines() == [f"wrote {path}" for path in written]
        assert sorted(tmp_path.iterdir()) == sorted(written)

    def test_every_flag_names_a_driver_parameter(
        self, command, driver, flag, param, value
    ):
        [subparsers] = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        parameters = inspect.signature(getattr(sobolev.experiments, driver)).parameters
        actions = subparsers.choices[command]._actions
        own = [
            a for a in actions
            if a.dest not in ("help", "solver", "out", "fmt", "dump_spectral", "trace")
        ]
        assert own
        for action in own:
            assert action.dest in parameters
            assert action.default is argparse.SUPPRESS
        # and the converse: every parameter a caller may pass by position is
        # a flag, and only a driver that takes a solver gets the solver flags
        assert [(a.dest, a.option_strings) for a in own] == [
            (name, ["--" + name.replace("_", "-")])
            for name, p in parameters.items()
            if p.kind is p.POSITIONAL_OR_KEYWORD and name != "solver"
        ]
        solving = {a.dest for a in actions} & {"solver", "dump_spectral"}
        assert solving == ({"solver", "dump_spectral"} if "solver" in parameters else set())


def test_a_new_driver_parameter_is_a_flag_with_no_cli_edit(monkeypatch, capsys):
    calls = []

    def fake(count: int = 100, max_m: int = 40, seed: int = 1, repeats: int = 1, *, trace=None):
        calls.append({"count": count, "max_m": max_m, "seed": seed, "repeats": repeats})
        return FAKE_REPORT, None

    monkeypatch.setattr(sobolev.cli, "cmd_compare_solvers", fake)
    assert main(["compare-solvers", "--repeats", "3", "--max-m", "6"]) == 0
    assert calls == [{"count": 100, "max_m": 6, "seed": 1, "repeats": 3}]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["compare-solvers", "--help"])
    assert "--repeats REPEATS" in capsys.readouterr().out
