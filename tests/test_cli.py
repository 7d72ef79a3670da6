"""CLI surface: flags, schemas, formats, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stokes_isolas import beta, resonance
from stokes_isolas.cli import SCHEMA_PATH, build_parser, main
from stokes_isolas.errors import SolverError


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = [r for r in text.splitlines() if not r.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestResonanceCommand:
    def test_single_depth_row(self):
        code, out, _ = run_cli("resonance", "--p", "2", "--h", "10")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["phi"]) == pytest.approx(0.2524159483781384, abs=1e-12)
        assert abs(float(row["residual"])) <= 1e-12
        assert float(row["phi_asymptote"]) == pytest.approx(0.25 + 0.375 * math.exp(-5), rel=1e-15)

    def test_grid_monotone_toward_deep_limit(self):
        code, out, _ = run_cli("resonance", "--p", "4", "--h-min", "2", "--h-max", "8", "--n", "7")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 7
        phis = [float(r["phi"]) for r in rows]
        assert all(a < b for a, b in zip(phis, phis[1:]))
        assert phis[-1] == pytest.approx(2.25, abs=1e-5)

    def test_subnormal_depth_is_quiet(self):
        # phi/tanh(x) overflows at such a depth, only where the series overwrites it: nothing on stderr
        code, out, err = run_cli("resonance", "--p", "2", "--h", "1e-310")
        assert (code, err) == (0, "")
        assert len(parse_csv(out)) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_large_index_table(self, fmt):
        # from p*c = 512 one ulp of p*c exceeds DEFAULT_TOL; the roots there are accepted all the same
        code, out, err = run_cli("resonance", "--p", "1000", "--h-min", "0.05", "--h-max", "20", "--n", "200",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        rows = parse_csv(out) if fmt == "csv" else json.loads(out)
        assert len(rows) == 200

    def test_p_below_two_is_usage_error(self):
        # the library's check alone: one error line that names the value
        expected = (2, "", "error: isola index p must be an integer >= 2, got 1\n")
        assert run_cli("resonance", "--p", "1", "--h", "2") == expected
        assert run_cli("resonance", "--p", "1", "--h", "nan") == expected  # p is refused before the depth

    @pytest.mark.parametrize("depths, rows", [(["--h", "1"], 1), (["--h-min", "1", "--h-max", "2", "--n", "3"], 3)],
                             ids=["one-depth", "grid"])
    def test_largest_index_table(self, depths, rows):
        # sqrt of the largest double, the largest p taken; as an int it is the double's value exactly
        p = int(math.sqrt(sys.float_info.max))
        code, out, err = run_cli("resonance", "--p", str(p), *depths)
        assert (code, err) == (0, "")
        assert [int(row["p"]) for row in parse_csv(out)] == [p] * rows

    @pytest.mark.parametrize("p", [int(math.sqrt(sys.float_info.max)) + 1, 2**512, 10**200],
                             ids=["next-int", "next-double", "1e200"])
    @pytest.mark.parametrize("depths", [["--h", "1"], ["--h-min", "1", "--h-max", "2"]], ids=["one-depth", "grid"])
    def test_index_beyond_the_largest_is_usage_error(self, p, depths):
        code, out, err = run_cli("resonance", "--p", str(p), *depths)
        assert (code, out) == (2, "")
        assert err.startswith("error: isola index p must be at most 1.3407807929942596e+154, ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("h, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1e-3", "-0.001")])
    def test_bad_depth_is_usage_error(self, h, shown):
        # one depth is refused as a grid's depths are: one error line that names the value
        expected = (2, "", f"error: depth must be a positive finite real, got {shown}\n")
        assert run_cli("resonance", "--p", "2", f"--h={h}") == expected

    def test_grid_flag_conflicts(self):
        code, _, _ = run_cli("resonance", "--p", "2", "--h", "1", "--h-min", "1", "--h-max", "2")
        assert code == 2
        code, _, _ = run_cli("resonance", "--p", "2")
        assert code == 2

    @pytest.mark.parametrize("command", ["resonance", "beta"])
    @pytest.mark.parametrize("bounds", [("1", "inf"), ("1", "nan"), ("nan", "2"), ("-inf", "2")], ids="/".join)
    def test_non_finite_grid_bounds(self, command, bounds):
        # the table's own depth check refuses the end, as it refuses the same --h, before numpy sees it
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's RuntimeWarning on an infinite grid would raise
            code, out, err = run_cli(command, "--p", "3", f"--h-min={bounds[0]}", f"--h-max={bounds[1]}", "--n", "500")
        bad = bounds[1] if bounds[0] == "1" else bounds[0]
        refusal = {"resonance": f"depth must be a positive finite real, got {float(bad)!r}",
                   "beta": f"depth must lie within [0.05, 20.0], got h={float(bad)!r}"}[command]
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        assert run_cli(command, "--p", "3", "--h", bad) == (code, out, err)

    @pytest.mark.parametrize("command", ["resonance", "beta"])
    def test_grid_bounds_out_of_order(self, command):
        code, out, err = run_cli(command, "--p", "2", "--h-min", "2", "--h-max", "1")
        assert (code, out) == (2, "")
        assert err.endswith("error: need --h-min < --h-max\n")

    @pytest.mark.parametrize("command", ["resonance", "beta"])
    @pytest.mark.parametrize("n", ["0", "1", "-3"])
    def test_grid_needs_two_points(self, command, n):
        code, out, err = run_cli(command, "--p", "2", "--h-min", "1", "--h-max", "2", "--n", n)
        assert code == 2
        assert out == ""
        assert "--n" in err


class TestBetaCommand:
    def test_near_zero_depth(self):
        code, out, _ = run_cli("beta", "--p", "3", "--h", "0.82064")
        assert code == 0
        (row,) = parse_csv(out)
        assert abs(float(row["beta1"])) <= 1e-4

    def test_p5_usage_error(self):
        # argparse checks --p, so the message names the subcommand
        for command, depths in (("beta", ["--h", "1"]), ("zeros", ["--h-min", "1", "--h-max", "2"])):
            for p in ("5", "1"):
                code, out, err = run_cli(command, "--p", p, *depths)
                assert (code, out) == (2, "")
                assert f"stokes-isolas {command}: error: argument --p: invalid choice: {p} (choose from 2, 3, 4)" in err

    def test_breakdown_term_rows(self):
        code, out, _ = run_cli("beta", "--p", "4", "--h", "3", "--breakdown")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 27
        total = sum(int(r["sign"]) * float(r["value"]) for r in rows)
        largest = max(abs(float(r["value"])) for r in rows)
        code2, out2, _ = run_cli("beta", "--p", "4", "--h", "3")
        beta_val = float(parse_csv(out2)[0]["beta1"])
        assert abs(total - beta_val) <= 64 * math.ulp(largest)

    def test_breakdown_and_groups_exclusive(self):
        code, out, err = run_cli("beta", "--p", "4", "--h", "3", "--breakdown", "--groups")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err

    @pytest.mark.parametrize("mode", [[], ["--breakdown"], ["--groups"]], ids=["scan", "breakdown", "groups"])
    @pytest.mark.parametrize(
        "depths, bad",
        [
            (["--h", "30"], 30.0),
            (["--h", "0.001"], 0.001),
            (["--h", "1e-200"], 1e-200),
            (["--h", "nan"], math.nan),
            (["--h-min", "0.01", "--h-max", "2"], 0.01),
            (["--h-min", "1", "--h-max", "25", "--n", "3"], 25.0),
        ],
        ids=["deep", "shallow", "tiny", "nan", "grid-start", "grid-end"],
    )
    def test_every_table_refuses_depths_outside_range(self, mode, depths, bad):
        code, out, err = run_cli("beta", "--p", "4", *depths, *mode)
        assert (code, out) == (2, "")
        assert err == f"error: depth must lie within [0.05, 20.0], got h={bad!r}\n"

    def test_groups_match_deep_water_coefficients(self):
        code, out, _ = run_cli("beta", "--p", "4", "--h", "6", "--groups")
        assert code == 0
        rows = {r["group"]: float(r["value"]) for r in parse_csv(out)}
        assert len(rows) == 8
        from stokes_isolas import DEEP_WATER_GROUPS

        scale = math.exp(-12.0)
        for name, coeff in DEEP_WATER_GROUPS[4].items():
            if coeff != 0.0:
                assert rows[name] / scale == pytest.approx(coeff, rel=0.10), name


class TestZerosCommand:
    def test_p4_two_rows(self):
        code, out, _ = run_cli("zeros", "--p", "4", "--h-min", "0.3", "--h-max", "3")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["h_star"]) == pytest.approx(0.566633, abs=5e-4)
        assert float(rows[1]["h_star"]) == pytest.approx(1.255969, abs=5e-4)
        for r in rows:
            assert abs(float(r["residual"])) < 1e-6

    def test_p2_empty_range_keeps_header(self):
        code, out, _ = run_cli("zeros", "--p", "2", "--h-min", "3", "--h-max", "10", "--n", "500")
        assert code == 0
        assert out.splitlines()[0] == "p,h_star,residual"
        assert parse_csv(out) == []

    def test_p3_one_row(self):
        code, out, _ = run_cli("zeros", "--p", "3", "--h-min", "0.5", "--h-max", "2", "--n", "500")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["h_star"]) == pytest.approx(0.82064, abs=5e-4)

    @pytest.mark.parametrize(
        "bounds, message",
        [(("3", "1"), "need h_min < h_max, got 3.0 >= 1.0"),
         (("0", "1"), "depth must lie within [0.05, 20.0], got h=0.0")],
        ids=["reversed", "zero"],
    )
    def test_bad_bounds_one_error_line(self, bounds, message):
        # the library's check alone: one error line that names the value
        argv = ("zeros", "--p", "2", "--h-min", bounds[0], "--h-max", bounds[1])
        assert run_cli(*argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_usage_error(self, tol):
        code, out, err = run_cli("zeros", "--p", "2", "--h-min", "1", "--h-max", "2", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err == f"error: tol must be positive and finite, got {float(tol)!r}\n"


class TestNegativeExponents:
    # "--flag -2e-3" reads as "--flag=-2e-3" does, in every subcommand
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["isola", "--p", "4", "--h", "3", "--eps", "0.1", "--T1", "1", "--E", "0.5", "--mu0", "-2e-3"], 0),
            (["isola", "--p", "4", "--h", "3", "--eps", "0.1", "--T1", "1", "--E", "0.5", "--y0", "-1e-1"], 0),
            (["isola", "--p", "4", "--h", "3", "--eps", "0.1", "--T1", "1", "--E", "0.5", "--mu0", "-1.7e308"], 0),
            (["isola", "--p", "4", "--h", "3", "--eps", "0.1", "--T1", "1", "--E", "0.5", "--mu0", "-Inf"], 2),
            (["resonance", "--p", "2", "--h", "-1e-3"], 2),
            (["beta", "--p", "2", "--h-max", "2", "--h-min", "-1E+1"], 2),
            (["zeros", "--p", "2", "--h-min", "-1e-3", "--h-max", "2"], 2),
        ],
        ids=["isola-mu0", "isola-y0", "isola-mu0-huge", "isola-mu0-inf", "resonance", "beta", "zeros"],
    )
    def test_spaced_value_reads_as_equals(self, argv, code):
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        expected = run_cli(*joined)
        assert expected[0] == code
        assert run_cli(*argv) == expected
        if code:
            assert expected[1] == "" and "error: " in expected[2]


class TestIsolaCommand:
    def test_missing_T1_names_parameter(self):
        for given, missing in ((["--E", "0.5"], "--T1"), ([], "--T1, --E")):
            code, out, err = run_cli("isola", "--p", "2", "--h", "3", "--eps", "0.05", *given)
            assert (code, out) == (2, "")
            assert err.startswith("usage: stokes-isolas isola ")
            assert err.endswith(f"\nstokes-isolas isola: error: the following arguments are required: {missing}\n")

    def test_missing_E_names_parameter(self):
        code, out, err = run_cli("isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1")
        assert (code, out) == (2, "")
        assert err.endswith("\nstokes-isolas isola: error: the following arguments are required: --E\n")

    @pytest.mark.parametrize("h", ["30", "0.001", "20.000001", "nan"])
    def test_refuses_depths_outside_range(self, h):
        code, out, err = run_cli("isola", "--p", "4", "--h", h, "--eps", "0.1", "--T1", "1", "--E", "0.5")
        assert (code, out) == (2, "")
        assert err == f"error: depth must lie within [0.05, 20.0], got h={float(h)!r}\n"

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "1e100", "--T1", "1", "--E", "0.5"], ["--eps", "0.1", "--T1", "1e-320", "--E", "0.5"],
         ["--eps", "0.1", "--T1", "1", "--E", "1e-320"],
         ["--eps", "0.1", "--T1", "4e-315", "--E", "0.5", "--mu0", "1.7e308"],
         ["--eps", "0.1", "--T1", "1", "--E", "2e-314", "--y0", "1.79e308"]],
        ids=["eps", "T1", "E", "mu0", "y0"],
    )
    def test_refuses_overflowing_model(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "stokes_isolas.cli", "isola", "--p", "4", "--h", "3", *flags],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: band ends mu0 -+ half_width and ellipse extremes y0 +- max_growth / E "
                                      "must be finite, got ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_ellipse_samples_on_curve(self):
        code, out, _ = run_cli(
            "isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "64"
        )
        assert code == 0
        meta = dict(
            line[2:].split(" = ", 1) for line in out.splitlines() if line.startswith("# ")
        )
        rows = parse_csv(out)
        assert len(rows) == 64
        g = float(meta["max_growth"])
        y0 = float(meta["y0"])
        E = float(meta["E"])
        tol = 8 * math.ulp(g * g) + 4 * E * g * math.ulp(abs(y0) + g / E)
        for r in rows:
            lhs = float(r["x"]) ** 2 + E**2 * (float(r["y"]) - y0) ** 2
            assert abs(lhs - g * g) <= tol

    def test_band_width_scales_with_eps_power(self):
        def width(eps):
            code, out, _ = run_cli(
                "isola", "--p", "2", "--h", "3", "--eps", str(eps),
                "--T1", "1", "--E", "0.5", "--format", "json",
            )
            assert code == 0
            band = json.loads(out)[0]
            return band["mu_high"] - band["mu_low"]

        assert width(0.1) / width(0.05) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--eps", "--T1", "--y0", "--mu0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_input_is_usage_error(self, flag, value):
        argv = {"--eps": "0.05", "--T1": "1", "--E": "0.5"} | {flag: value}
        code, out, err = run_cli("isola", "--p", "2", "--h", "3", *sum(argv.items(), ()), "--format", "json")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag[2:]} must be finite, got {float(value)!r}\n"


class TestParser:
    COMMANDS = {
        "resonance": ["--p", "2", "--h", "1"],
        "beta": ["--p", "2", "--h", "1"],
        "zeros": ["--p", "2", "--h-min", "1", "--h-max", "2"],
        "isola": ["--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5"],
        "selftest": [],
    }

    def test_five_subcommands(self):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert "{" + ",".join(self.COMMANDS) + "}" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_format_ends_every_usage_line(self, command):
        code, out, _ = run_cli(command, "--help")
        assert code == 0
        usage = " ".join(out.split("\n\n")[0].split())
        assert usage.startswith(f"usage: stokes-isolas {command} ")
        assert usage.endswith(" [--format {csv,json}]")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_format_defaults_to_csv(self, command):
        args = build_parser().parse_args([command, *self.COMMANDS[command]])
        assert args.format == "csv"
        assert build_parser().parse_args([command, *self.COMMANDS[command], "--format", "json"]).format == "json"


class TestFormats:
    def test_csv_json_same_data(self):
        _, csv_out, _ = run_cli("resonance", "--p", "3", "--h-min", "1", "--h-max", "2", "--n", "3")
        _, json_out, _ = run_cli(
            "resonance", "--p", "3", "--h-min", "1", "--h-max", "2", "--n", "3", "--format", "json"
        )
        csv_rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows) == 3
        for c, j in zip(csv_rows, json_rows):
            for key in ("p", "h", "phi", "omega_star", "residual", "phi_asymptote"):
                assert float(c[key]) == pytest.approx(float(j[key]), rel=1e-15), key

    def test_round_trip_precision(self):
        _, out, _ = run_cli("beta", "--p", "2", "--h", "1.371")
        row = parse_csv(out)[0]
        from stokes_isolas import beta1

        assert float(row["beta1"]) == beta1(2, 1.371)

    def test_json_validates_against_shipped_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for argv in (
            ["resonance", "--p", "2", "--h", "4"],
            ["resonance", "--p", "6", "--h-min", "1", "--h-max", "3", "--n", "3"],
            ["beta", "--p", "3", "--h", "2"],
            ["beta", "--p", "4", "--h", "2", "--breakdown"],
            ["beta", "--p", "4", "--h", "2", "--groups"],
            ["zeros", "--p", "3", "--h-min", "0.5", "--h-max", "2", "--n", "500"],
            ["zeros", "--p", "2", "--h-min", "3", "--h-max", "10", "--n", "500"],
            ["isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "8"],
            ["selftest"],
        ):
            code, out, _ = run_cli(*argv, "--format", "json")
            assert code == 0, argv
            jsonschema.validate(json.loads(out), schema)

    @pytest.mark.parametrize(
        "kind, argv",
        [
            ("resonance", ["resonance", "--p", "2", "--h", "4"]),
            ("scan", ["beta", "--p", "3", "--h", "2"]),
            ("beta_term", ["beta", "--p", "2", "--h", "2", "--breakdown"]),
            ("beta_group", ["beta", "--p", "2", "--h", "2", "--groups"]),
            ("zero", ["zeros", "--p", "2", "--h-min", "3", "--h-max", "10", "--n", "500"]),
            ("isola_band", ["isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "8"]),
            ("isola_point", ["isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "8"]),
            ("selftest", ["selftest"]),
        ],
    )
    def test_csv_fields_follow_schema(self, kind, argv):
        # every kind in the schema, each with its fields in the schema's order
        items = json.loads(SCHEMA_PATH.read_text())["items"]["oneOf"]
        (required,) = [k["required"] for k in items if k["properties"]["schema"]["const"] == kind]
        assert len(items) == 8 and required[0] == "schema"
        code, out, _ = run_cli(*argv)
        assert code == 0
        comments = [line for line in out.splitlines() if line.startswith("# ")]
        header = [line[2:].split(" = ")[0] for line in comments] if kind == "isola_band" else (
            out.splitlines()[len(comments)].split(","))
        assert header == required[1:]

    def test_scan_row_fields_are_the_schema_fields(self):
        from stokes_isolas import ScanRow

        items = json.loads(SCHEMA_PATH.read_text())["items"]["oneOf"]
        (required,) = [k["required"] for k in items if k["properties"]["schema"]["const"] == "scan"]
        assert [f.name for f in dataclasses.fields(ScanRow)] == required[1:]

    def test_scan_csv_is_beta_scan_to_the_bit(self):
        from stokes_isolas import beta_scan

        code, out, _ = run_cli("beta", "--p", "3", "--h-min", "0.05", "--h-max", "20", "--n", "401")
        assert code == 0
        rows = parse_csv(out)
        expected = beta_scan(3, np.linspace(0.05, 20, 401))
        assert len(rows) == len(expected) == 401
        for row, scan_row in zip(rows, expected):
            floats = ("h", "beta1", "leading", "ratio")
            assert [float(row[f]).hex() for f in floats] == [getattr(scan_row, f).hex() for f in floats]
            assert row["floor_flag"] == ("true" if scan_row.floor_flag else "false")

    def test_byte_stable(self):
        a = run_cli("beta", "--p", "4", "--h-min", "1", "--h-max", "4", "--n", "5")
        b = run_cli("beta", "--p", "4", "--h-min", "1", "--h-max", "4", "--n", "5")
        assert a == b


class TestSelftest:
    def test_passes_on_shipped_fixtures(self):
        code, out, err = run_cli("selftest")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) >= 20
        assert all(r["ok"] == "true" for r in rows)
        assert "within the cancellation floor" in err

    def test_reads_the_floor_once_per_row(self, monkeypatch):
        # selftest takes each row's floor from its single-depth terms, with no record
        from stokes_isolas import cli

        real, reads = cli._cancellation_floor, []

        def counting(signed):
            reads.append(real(signed))
            return reads[-1]

        monkeypatch.setattr(cli, "_cancellation_floor", counting)
        code, out, _ = run_cli("selftest")
        assert code == 0
        assert reads == [float(r["floor"]) for r in parse_csv(out)]

    def test_numerical_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("# corrupted record\n2\t1.0\t-0.25\t50\n")
        code, out, err = run_cli("selftest", "--fixtures", str(bad))
        assert code == 3
        assert "beyond the cancellation floor" in err
        (row,) = parse_csv(out)
        assert row["ok"] == "false"


    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read fixture file {path}: No such file or directory"),
            ("", "fixture file {path} holds no records"),
            ("# only comments\n\n", "fixture file {path} holds no records"),
            ("2\t1.0\t-0.165\t50\n2\t1.5\n", "fixture file {path} line 2: expected p, h, value, digits"),
            ("# c\n2\t1.0\tx\t50\n", "fixture file {path} line 2: expected p, h, value, digits"),
        ],
        ids=["missing", "empty", "comments-only", "short-record", "bad-number"],
    )
    def test_bad_fixture_file_is_usage_error(self, tmp_path, content, message):
        path = tmp_path / "fixtures.tsv"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli("selftest", "--fixtures", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message.format(path=path))


class TestTinyDepths:
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # refused as outside the domain before anything is computed: a usage error
            (["isola", "--p", "2", "--h", "1e-200", "--eps", "0.05", "--T1", "1", "--E", "0.5"], 2,
             "depth must lie within [0.05, 20.0], got h=1e-200"),
            (["zeros", "--p", "2", "--h-min", "1e-200", "--h-max", "1e-100", "--n", "100"], 2,
             "depth must lie within [0.05, 20.0], got h=1e-200"),
        ],
        ids=["isola", "zeros"],
    )
    def test_numerical_exit_without_traceback(self, argv, code, message):
        proc = subprocess.run(
            [sys.executable, "-m", "stokes_isolas.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestNumericalFailure:
    # cli.main's except StokesIsolasError: a solve that fails ends the table with exit 3, before any row
    @pytest.mark.parametrize(
        "argv",
        [
            ["beta", "--p", "3", "--h", "1"],
            ["beta", "--p", "3", "--h-min", "1", "--h-max", "2", "--n", "200"],
            ["resonance", "--p", "3", "--h", "1"],
            ["resonance", "--p", "3", "--h-min", "1", "--h-max", "2"],
        ],
        ids=["beta-one-depth", "beta-lanes", "resonance-one-depth", "resonance-grid"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_solver_error_is_a_numerical_exit(self, monkeypatch, argv, fmt):
        def failing(p, h):
            raise SolverError(f"no sign change toward 0+ for p={p}, h={h}", bracket=(0.0, 1.0))

        # every depth goes to the single-depth solve: the lane pass, where a grid takes it, settles none
        monkeypatch.setattr(resonance, "_brentq_lanes", lambda f, args, xa, *_: (np.full(xa.size, np.nan),) * 2)
        for module in (resonance, beta):
            monkeypatch.setattr(module, "_solve", failing)
        assert run_cli(*argv, "--format", fmt) == (3, "", "error: no sign change toward 0+ for p=3, h=1.0\n")


class TestHugeGrids:
    # 10**14 doubles are 728 TiB, above the 128 TiB user address space of x86-64 Linux:
    # the allocation fails at once and touches no memory
    @pytest.mark.parametrize(
        "argv",
        [
            ["beta", "--p", "2", "--h-min", "1", "--h-max", "2"],
            ["resonance", "--p", "2", "--h-min", "1", "--h-max", "2"],
            ["zeros", "--p", "2", "--h-min", "1", "--h-max", "2"],
            ["isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5"],
        ],
        ids=["beta", "resonance", "zeros", "isola"],
    )
    def test_grid_too_large_is_usage_error(self, argv):
        code, out, err = run_cli(*argv, "--n", str(10**14))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEnvironment:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reader_leaving_early(self, fmt):
        # 20000 rows outgrow the pipe buffer: the table is still being written when the reader leaves
        argv = ["resonance", "--p", "2", "--h-min", "1", "--h-max", "5", "--n", "20000", "--format", fmt]
        with subprocess.Popen(
            [sys.executable, "-m", "stokes_isolas.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stokes_isolas.cli", "resonance", "--p", "2", "--h", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("p,h,phi")
