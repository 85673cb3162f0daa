import argparse
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from ricbounds import asymptotic
from ricbounds.cli import main
from ricbounds.finite import TailBound


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = 0
    try:
        main(list(argv))
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


SRC = Path(__file__).resolve().parents[1] / "src"


@functools.cache
def top_level_modules_after(statement: str) -> frozenset[str]:
    probe = (f"import json, sys; {statement}; "
             "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return frozenset(json.loads(done.stdout))


def test_import_loads_no_scipy():
    # scipy.optimize alone adds about half a second to interpreter start-up.
    assert "scipy" not in top_level_modules_after("import ricbounds.cli")


def test_import_loads_no_numpy():
    # bounds, finite, grid and phase need no numpy; empirical and cover import it.
    assert "numpy" not in top_level_modules_after("import ricbounds.cli")


def test_cli_imports_only_the_standard_library():
    # Every third-party import costs start-up time that a bounds call (well
    # under a millisecond) never wins back: on a 2-vCPU VM scipy.optimize
    # takes about half a second, numpy about 0.16 s and click about 18 ms.
    # empirical and cover import numpy when they run.  Modules that the
    # interpreter's own start-up loads (site may import a certificate
    # package, say) do not count.
    loaded = top_level_modules_after("import ricbounds.cli") - top_level_modules_after("pass")
    assert loaded - sys.stdlib_module_names == {"ricbounds"}


def test_import_loads_no_typing():
    # The result records are collections.namedtuple subclasses: without site
    # (python -S), which may import typing itself, the CLI loads no typing.
    probe = "import sys, ricbounds.cli; print('typing' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_main_builds_no_parser(capsys, monkeypatch):
    # Building the parser costs more than parsing an argv, so it is built
    # once, at import, and main() only parses.
    def build(*args, **kwargs):
        raise AssertionError("main() built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", build)
    code, out, _ = run_cli(capsys, "bounds", "0.5", "0.5", "--family", "CT")
    assert code == 0
    assert out


def load_schema():
    text = resources.files("ricbounds").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


class TestBounds:
    def test_ct_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "bounds", "0.5", "0.5", "--family", "CT")
        assert code == 0
        payload = json.loads(out)
        ref = asymptotic.ct_bounds(0.5, 0.5)
        assert payload["results"]["U"] == pytest.approx(ref.U, rel=1e-15)
        assert payload["results"]["L"] == pytest.approx(ref.L, rel=1e-15)

    def test_bt_strictly_below_bct(self, capsys):
        argv = ("--format", "json", "bounds", "0.5", "0.5", "--family")
        _, out_bt, _ = run_cli(capsys, *argv, "BT")
        _, out_bct, _ = run_cli(capsys, *argv, "BCT")
        bt = json.loads(out_bt)["results"]
        bct = json.loads(out_bct)["results"]
        assert bt["U"] < bct["U"]
        assert bt["log_lambda_min"] > bct["log_lambda_min"]  # L_BT < L_BCT

    def test_stationarity_residual_where_gamma_rounds_onto_rho(self, capsys):
        # gamma_max - rho is 0.0 in double here; the residual is taken from
        # the ln(gamma - rho) that the gamma search found.
        _, out, _ = run_cli(capsys, "--format", "json", "bounds", "0.05", "0.95", "--family", "BT")
        rec = json.loads(out)["results"]
        assert rec["gamma_max"] == rec["rho"]
        assert rec["boundary_lower"] is False
        assert rec["stationarity_residual_lower"] < 1e-6
        assert rec["stationarity_residual_upper"] < 1e-6

    def test_stationarity_residual_null_at_edge_optimum(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "bounds", "0.8", "0.8", "--family", "BT")
        rec = json.loads(out)["results"]
        assert rec["boundary_upper"] is True
        assert rec["stationarity_residual_upper"] is None
        assert rec["stationarity_residual_lower"] < 1e-6

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "1.5", "0.5")
        assert code == 2
        assert "delta" in err

    def test_tiny_rho_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "bounds", "0.5", "1e-150")
        assert code == 0, err
        rec = json.loads(out)["results"]
        # The root of the net exponent at gamma = rho, by mpmath at 400 digits.
        assert rec["U"] == pytest.approx(4.561906588715820e-74, rel=1e-12, abs=0.0)
        assert rec["stationarity_residual_upper"] <= 1e-12
        assert rec["stationarity_residual_lower"] <= 1e-12

    def test_delta_below_one_ulp_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "1e-20", "0.5")
        assert code == 2
        assert "2**-52" in err

    def test_underflowing_rho_delta_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "1e-6", "1e-323")
        assert code == 2
        assert "smallest normal double" in err

    @pytest.mark.parametrize("family", ["BT", "BCT"])
    def test_rho_next_to_one_exit_code(self, capsys, family):
        # lambda^min's offset reaches -1 - 2**53 here; the point solves.
        argv = ("--format", "json", "bounds", "0.2185", "0.9999999999999996", "--family", family)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["results"]["L"] == 1.0

    def test_json_envelope_validates(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", "bounds", "0.3", "0.2")
        jsonschema.validate(json.loads(out), load_schema())

    @pytest.mark.parametrize("argv, record", [
        (("bounds", "0.8", "0.8", "--family", "BT"), asymptotic.AsymptoticBound.RECORD + (
            "stationarity_residual_upper", "stationarity_residual_lower",
            "boundary_upper", "boundary_lower")),
        (("bounds", "0.5", "0.5", "--family", "CT"), asymptotic.AsymptoticBound.RECORD),
        (("finite", "100", "200", "2000"), TailBound.RECORD),
        (("finite", "100", "200", "2000", "--side", "lower"), TailBound.RECORD),
    ], ids=["bounds-BT", "bounds-CT", "finite-upper", "finite-lower"])
    def test_default_text_names_every_record_key(self, capsys, argv, record):
        _, text, _ = run_cli(capsys, *argv)
        _, out, _ = run_cli(capsys, "--format", "json", *argv)
        keys = [line.split()[0] for line in text.splitlines()]
        assert keys == list(json.loads(out)["results"]) == list(record)


class TestGrid:
    def test_row_count_and_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid", "--delta-steps", "3", "--rho-steps", "3", "--families", "BT"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "delta", "rho", "family", "L", "U", "lambda_min", "lambda_max",
            "gamma_min", "gamma_max", "nu_opt",
        ]
        assert len(rows) == 10  # header + 9 data rows

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "grid", "--delta-steps", "2", "--rho-steps", "2", "--families", "BT"
        )
        reader = csv.DictReader(io.StringIO(out))
        for row in reader:
            ref = asymptotic.bt_bounds(float(row["delta"]), float(row["rho"]))
            assert float(row["U"]) == ref.U  # exact round trip
            assert float(row["L"]) == ref.L
            assert float(row["gamma_min"]) == ref.gamma_min
            assert row["nu_opt"] == ""  # not applicable for BT

    def test_gamma_exceeds_rho_on_interior_grid(self, capsys):
        _, out, _ = run_cli(
            capsys, "grid", "--delta-steps", "3", "--rho-steps", "3",
            "--rho-max", "0.6", "--families", "BT",
        )
        for row in csv.DictReader(io.StringIO(out)):
            assert float(row["gamma_min"]) > float(row["rho"])

    def test_svg_output(self, capsys, tmp_path):
        out_file = tmp_path / "grid.svg"
        code, _, _ = run_cli(
            capsys, "--format", "svg", "--out", str(out_file),
            "grid", "--delta-steps", "3", "--rho-steps", "3",
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--families", "XY")
        assert code == 2

    def test_repeated_family_rejected(self, capsys):
        # Case-insensitive: BT,bt would solve and write every point twice.
        code, out, err = run_cli(capsys, "grid", "--delta-steps", "2", "--rho-steps", "2", "--families", "BT,bt")
        assert code == 2 and out == ""
        assert "DomainError" in err and "repeated" in err


class TestFinite:
    def test_upper_value_matches_library(self, capsys):
        from ricbounds.finite import FiniteInstance, tail_prob_upper

        code, out, _ = run_cli(
            capsys, "--format", "json", "finite", "100", "200", "2000",
            "--epsilon", "1e-3", "--side", "upper",
        )
        assert code == 0
        payload = json.loads(out)
        ref = tail_prob_upper(FiniteInstance(100, 200, 2000, 1e-3))
        assert payload["results"]["total"] == pytest.approx(ref.total, rel=1e-12)
        assert payload["results"]["log_total"] == pytest.approx(ref.log_total, rel=1e-12)

    def test_csv_is_one_row_that_round_trips(self, capsys):
        from ricbounds.finite import FiniteInstance, tail_prob_upper

        code, out, _ = run_cli(capsys, "--format", "csv", "finite", "100", "200", "2000")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        ref = tail_prob_upper(FiniteInstance(100, 200, 2000, 1e-3))
        assert float(rows[0]["log_total"]) == ref.log_total

    def test_invalid_instance_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "finite", "300", "200", "2000")
        assert code == 2

    def test_degenerate_lower_tail_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "finite", "999999999", "1000000000", "2000000000", "--side", "lower"
        )
        assert code == 2
        assert out == ""
        assert "degenerate group ratio" in err

    def test_nan_epsilon_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "finite", "100", "200", "2000", "--epsilon", "nan")
        assert code == 2
        assert out == ""
        assert "epsilon" in err


class TestEmpirical:
    def test_csv_columns_and_determinism(self, capsys):
        args = (
            "--seed", "5", "empirical", "--n", "20", "--sizes", "40",
            "--k", "2", "--restarts", "5",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        row = next(csv.DictReader(io.StringIO(out1)))
        assert float(row["ratio_U"]) >= 1.0
        assert row["error"] == ""

    def test_cell_matches_the_library(self, capsys):
        # A cell and sharpness_ratio share one pipeline, so they agree to the bit.
        # N = 10 < n fails first, on the bound's delta, and leaves the next cell intact.
        from ricbounds.empirical import local_search, sample_gaussian, sharpness_ratio

        sample = sample_gaussian(20, 40, 5)
        ratios = sharpness_ratio(2, 20, 40, seed=5, restarts=3)
        for sizes in ("40", "10,40"):
            _, out, _ = run_cli(
                capsys, "--seed", "5", "empirical", "--n", "20", "--sizes", sizes,
                "--k", "2", "--restarts", "3",
            )
            *failed, row = csv.DictReader(io.StringIO(out))
            assert len(failed) == sizes.count(",")
            for bad in failed:
                assert bad.pop("error") == "delta must be in (0,1), got 2.0"
                assert list(bad.values()) == ["20", "10", "2"] + [""] * 6
            for mode, column in (("upper", "U_est"), ("lower", "L_est")):
                assert float(row[column]) == local_search(sample, 2, mode, restarts=3, seed=5).estimate
            assert (float(row["ratio_U"]), float(row["ratio_L"])) == ratios
            assert row["error"] == ""

    def test_gram_guard_fills_the_error_column(self, capsys):
        # n = 2, N = 16385: one column past the Gram guard; the row reports it.
        code, out, _ = run_cli(capsys, "empirical", "--n", "2", "--sizes", "16385", "--k", "1",
                               "--restarts", "1")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["error"] == "a 16385 x 16385 Gram matrix exceeds the guard of 2147483648 bytes"

    def test_tiny_instance_matches_exhaustive(self, capsys):
        from ricbounds.empirical import exhaustive_ric, sample_gaussian

        _, out, _ = run_cli(
            capsys, "--seed", "3", "empirical", "--n", "6", "--sizes", "10",
            "--k", "2", "--restarts", "50",
        )
        row = next(csv.DictReader(io.StringIO(out)))
        L, U, _, _ = exhaustive_ric(sample_gaussian(6, 10, 3), 2)
        assert float(row["U_est"]) == pytest.approx(U, abs=1e-9)
        assert float(row["L_est"]) == pytest.approx(L, abs=1e-9)

    @pytest.mark.parametrize(
        "bad",
        [("--sizes", "200,abc"), ("--sizes", ""), ("--sizes", "0"), ("--restarts", "0"),
         ("--n", "0"), ("--k", "0"), ("--k-frac", "nan"), ("--k-frac", "-0.3"),
         ("--k-frac", "0"), ("--k-frac", "1.5")],
        ids=["sizes-not-int", "sizes-empty", "sizes-zero", "restarts-zero",
             "n-zero", "k-zero", "k-frac-nan", "k-frac-negative", "k-frac-zero",
             "k-frac-above-one"],
    )
    def test_invalid_input_exit_code(self, capsys, bad):
        code, out, err = run_cli(capsys, "empirical", "--n", "6", *bad)
        assert code == 2
        assert out == ""
        assert "DomainError" in err


class TestPhase:
    def test_curve_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase", "--delta-steps", "2", "--delta-min", "0.3",
            "--delta-max", "0.7", "--families", "BT",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert 1e-4 < float(row["rho_star"]) < 1e-2

    def test_svg_draws_one_curve_per_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "svg", "phase", "--delta-steps", "3", "--families", "BT,BCT",
        )
        assert code == 0
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")
        assert out.count("<polyline") == 2
        assert "log10(rho*)" in out

    def test_repeated_family_rejected(self, capsys):
        code, out, err = run_cli(capsys, "phase", "--delta-steps", "2", "--families", "BCT,CT,bct")
        assert code == 2 and out == ""
        assert "DomainError" in err and "repeated" in err


@pytest.mark.parametrize(
    "argv, option, value",
    [(["phase", "--delta-steps", "3", "--delta-max", "inf"], "--delta-max", "inf"),
     (["phase", "--delta-min=-inf"], "--delta-min", "-inf"),
     (["grid", "--delta-max", "nan"], "--delta-max", "nan"),
     (["grid", "--rho-min", "nan"], "--rho-min", "nan"),
     (["grid", "--rho-max", "inf"], "--rho-max", "inf"),
     (["phase", "--delta-steps", "1"], "--delta-steps", "1"),
     (["grid", "--rho-steps", "1"], "--rho-steps", "1")],
    ids=["phase-delta-max-inf", "phase-delta-min-minus-inf", "grid-delta-max-nan",
         "grid-rho-min-nan", "grid-rho-max-inf", "phase-one-step", "grid-one-rho-step"],
)
def test_grid_range_refused_by_option(capsys, argv, option, value):
    # (inf - lo) * 0 is nan, so a non-finite end would turn every grid point
    # into nan; it is refused by name before the grid is built.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"DomainError: {option} must be" in err and err.rstrip().endswith(f"got {value}")


class TestCover:
    def test_summary_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "--seed", "1", "cover",
            "-N", "12", "--k", "3", "--m", "6", "--trials", "10",
        )
        assert code == 0
        rec = json.loads(out)["results"]
        assert rec["u"] == 132
        assert rec["failure_frequency"] <= 1.0

    def test_intermediate_bound_uses_the_drawn_u(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "cover",
            "-N", "12", "--k", "3", "--m", "6", "--u", "20", "--trials", "2",
        )
        assert code == 0
        rec = json.loads(out)["results"]
        assert rec["u"] == 20
        assert rec["log_bound_intermediate"] == pytest.approx(math.log(220) - 20 / 11, rel=1e-14)

    def test_plan_refused_before_any_trial(self, capsys, monkeypatch):
        from ricbounds import covering

        def no_trials(plan):
            raise AssertionError("a trial ran before the plan was checked")

        monkeypatch.setattr(covering, "random_cover", no_trials)
        code, out, err = run_cli(
            capsys, "cover", "-N", "12", "--k", "12", "--m", "12", "--trials", "20000"
        )
        assert (code, out, err) == (2, "", "DomainError: require 0 < k < N, got (12, 12)\n")

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cover", "-N", "80", "--k", "10", "--m", "20", "--trials", "1"
        )
        assert code == 4
        assert "guard" in err

    def test_guard_message_of_a_count_past_4300_digits(self, capsys):
        # C(20000, 10000) has 6019 digits, past Python's int-to-str limit;
        # the guard names its size as a power of ten instead.
        code, out, err = run_cli(
            capsys, "cover", "-N", "20000", "--k", "10000", "--m", "19999", "--trials", "1"
        )
        assert (code, out) == (4, "")
        assert "C(20000, 10000) ~ 10^6018.4 subsets" in err

    def test_negative_u_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "cover", "-N", "12", "--k", "3", "--m", "6", "--u", "-5")
        assert code == 2
        assert out == ""

    def test_group_count_beyond_double_range_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "-N", "8000", "--k", "400", "--m", "800", "--trials", "1"
        )
        assert code == 4
        assert out == ""

    def test_universe_superset_never_fails(self, capsys):
        _, out, _ = run_cli(
            capsys, "--format", "json", "cover", "-N", "8", "--k", "2", "--m", "8", "--trials", "5"
        )
        assert json.loads(out)["results"]["failures"] == 0


class TestIO:
    def test_unwritable_path_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "--out", "/nonexistent-dir/x.csv", "bounds", "0.5", "0.5",
            "--family", "CT",
        )
        assert code == 5

    def test_out_naming_a_directory_exit_code(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--out", str(tmp_path), "bounds", "0.5", "0.5")
        assert code == 5
        assert out == ""
        assert "IOFailure" in err

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "not-a-number", "0.5")
        assert code == 2

    def test_json_flag_is_a_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "bounds", "0.5", "0.5")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("bounds", "0.5", "0.5"),
        ("finite", "100", "200", "2000"),
        ("empirical", "--n", "6", "--sizes", "10", "--k", "2", "--restarts", "2"),
        ("cover", "-N", "8", "--k", "2", "--m", "4", "--trials", "2"),
    ], ids=lambda argv: argv[0])
    def test_svg_without_figure_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "--format", "svg", *argv)
        assert code == 2
        assert out == ""
        assert "DomainError" in err

    @pytest.mark.parametrize("argv", [
        ("cover", "-N", "8", "--k", "2", "--m", "4"),
        ("empirical", "--n", "6", "--sizes", "10", "--k", "2", "--restarts", "2"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_a_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "--seed", "-1", *argv)
        assert code == 2
        assert out == ""
        assert "DomainError" in err


    @pytest.mark.parametrize("argv", [
        ("--form", "json", "bounds", "0.5", "0.5"),
        ("finite", "100", "200", "2000", "--epsil", "1e-3"),
    ], ids=["top-level", "command"])
    def test_abbreviated_option_is_a_usage_error(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command, options", [
        ("bounds", ["--family"]),
        ("grid", ["--delta-min", "--delta-max", "--delta-steps", "--rho-min", "--rho-max",
                  "--rho-steps", "--families"]),
        ("finite", ["--epsilon", "--side"]),
        ("empirical", ["--n", "--sizes", "--k-frac", "--k", "--restarts"]),
        ("phase", ["--delta-steps", "--delta-min", "--delta-max", "--families"]),
        ("cover", ["--universe", "-N", "--k", "--m", "--u", "--trials", "--details"]),
    ])
    def test_command_help_names_every_option(self, capsys, command, options):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert set(options) <= set(re.findall(r"--?[A-Za-z][\w-]*", out))

    def test_interrupt_exits_1(self, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(asymptotic, "compute_bounds", interrupted)
        code, out, err = run_cli(capsys, "bounds", "0.5", "0.5")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    def test_closed_stdout_exits_1_quietly(self):
        # The reader is gone before the command writes, as with `| head`.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "ricbounds.cli", "bounds", "0.5", "0.5"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""
