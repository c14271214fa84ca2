import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import sobprod
from sobprod.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv: str) -> tuple[int, list[dict]]:
    code, text = run_cli(*argv, "--format", "json")
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return code, records


@pytest.fixture(scope="module")
def schema():
    import importlib.resources

    ref = importlib.resources.files("sobprod").joinpath("data/output_record.schema.json")
    return json.loads(ref.read_text())


def validate_records(schema, records):
    jsonschema = pytest.importorskip("jsonschema")
    for rec in records:
        jsonschema.validate(rec, schema)


class TestBound:
    def test_high_regime_interval(self, schema):
        code, recs = run_json("bound", "--n", "2", "--a", "2", "--d", "3")
        assert code == 0 and len(recs) == 1
        rec = recs[0]
        assert rec["lower"] >= 0.24
        assert rec["upper"] <= 0.67
        validate_records(schema, recs)

    def test_exact_constant_flagged_sharp(self):
        code, recs = run_json("bound", "--n", "0", "--a", "1", "--d", "1")
        assert code == 0
        assert recs[0]["sharp"] is True
        assert recs[0]["lower"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_regime_error_exit_code(self):
        code, _ = run_cli("bound", "--n", "1", "--a", "2", "--d", "1")
        assert code == 3

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("bound", "--n", "oops", "--a", "1", "--d", "1")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "n,a", [("inf", "1"), ("-inf", "1"), ("3", "inf"), ("inf", "inf")]
    )
    def test_non_finite_input_is_usage_error(self, n, a):
        code, _ = run_cli("bound", f"--n={n}", f"--a={a}", "--d", "1")
        assert code == 2

    def test_large_a_fourier_bound_finite(self):
        # R(a, d) alone leaves the double range at a = 1e3; the bound does not
        code, recs = run_json("bound", "--n", "0.5", "--a", "1e3", "--d", "1")
        assert code == 0
        assert math.isfinite(recs[0]["lower_fourier"]) and recs[0]["lower_fourier"] > 0.0

    @pytest.mark.parametrize(
        "n,a,d,method",
        [("93", "2", "2", "fourier"), ("120", "2", "2", "fourier"),
         ("150", "2", "2", "fourier"), ("150", "150", "1", "bessel")],
        ids=["93", "120", "150", "150-150-1"],
    )
    def test_integer_n_bessel_bound_in_logs(self, n, a, d, method):
        # s^(d-1+2j) of the moments and the norms alone leave the double
        # range from n = 93 on; in logs the Bessel bound stays available, and
        # at a = n it is the best lower bound
        src = os.path.dirname(os.path.dirname(sobprod.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "sobprod", "bound", "--n", n, "--a", a, "--d", d,
             "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rec = json.loads(proc.stdout)
        assert math.isfinite(rec["lower_bessel"]) and rec["lower_bessel"] > 0.0
        assert rec["method_of_best_lower"] == method

    def test_undefined_log2_field_prints(self, schema):
        # at n = 1.7e308 both bounds leave the double range but their logs
        # do not; at n = 5e-324, log/n leaves it
        code, recs = run_json("bound", "--n", "1.7e308", "--a", "2", "--d", "2")
        assert code == 0
        assert math.isfinite(recs[0]["log2_lower_over_n"])
        assert math.isfinite(recs[0]["log2_upper_over_n"])
        validate_records(schema, recs)
        code, text = run_cli("bound", "--n", "1.7e308", "--a", "2", "--d", "2")
        assert code == 0 and "undefined" not in text
        assert "1.000000 <= log2(K)/n <= 1.000000" in text
        code, recs = run_json("bound", "--n", "5e-324", "--a", "2", "--d", "2")
        assert code == 0
        assert recs[0]["log2_lower_over_n"] is None and recs[0]["log2_upper_over_n"] is None
        validate_records(schema, recs)

    # with a close to n, u(n, a, d) of the second weak bound alone leaves
    # the double range from about n = a = 2050
    @pytest.mark.parametrize(
        "n,a,d",
        [("1500", "2", "2"), ("1e6", "2", "2"), ("1e300", "2", "2"),
         ("2100", "2100", "1"), ("3000", "2500", "1"), ("1e4", "1e4", "1")],
        ids=["1500", "1e6", "1e300", "2100-2100-1", "3000-2500-1", "1e4-1e4-1"],
    )
    def test_bound_beyond_double_range_prints(self, schema, n, a, d):
        t0 = time.perf_counter()
        code, recs = run_json("bound", "--n", n, "--a", a, "--d", d)
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        rec = recs[0]
        assert rec["upper"] is None and rec["printed_upper"] is None
        assert rec["upper_weak2"] is None
        assert math.isfinite(rec["log2_upper_over_n"])
        assert math.isfinite(rec["log2_lower_over_n"])
        assert rec["log2_lower_over_n"] <= rec["log2_upper_over_n"]
        validate_records(schema, recs)
        code, text = run_cli("bound", "--n", n, "--a", a, "--d", d)
        assert code == 0
        assert "beyond the double range" in text and "None" not in text


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class TestTotality:
    def test_bound_grid_ends_with_contract_exit_codes(self):
        t0 = time.perf_counter()
        for d in (1, 2, 3):
            ns = (0.0, 1e-300, d / 2.0, 150.5, 1500.0, 1e6, 1e300, 1.7e308,
                  math.inf, -math.inf, math.nan)
            for n in ns:
                for a in (d / 2.0 + 0.1, 2.0, 1e3, math.inf, math.nan):
                    argv = ("bound", "--n", repr(n), "--a", repr(a), "--d", str(d),
                            "--format", "json")
                    try:
                        code, text = run_cli(*argv)
                    except SystemExit as exc:  # argparse reads "-inf" as a flag
                        code, text = exc.code, ""
                    assert code in (0, 2, 3, 4), argv
                    if code == 0:
                        json.loads(text, parse_constant=_reject_constant)
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("n,a,d", [("110.5", "1", "1"), ("149.5", "2", "2")])
    def test_noninteger_n_up_to_the_cap(self, n, a, d):
        # |f^2|_n^2 leaves the double range from n = 110.5 on; the direct
        # square norm and the ratio at non-integer n work in logs
        code, text = run_cli("bound", "--n", n, "--a", a, "--d", d, "--format", "json")
        assert code == 0
        rec = json.loads(text, parse_constant=_reject_constant)
        assert rec["lower"] <= rec["upper"]
        if rec["lower_bessel"] is not None:
            assert rec["lower_bessel"] <= rec["lower"]


class TestTable:
    def test_paper_preset_brackets(self):
        code, recs = run_json("table", "--preset", "paper")
        assert code == 0 and len(recs) == 8
        for rec in recs:
            if rec["query"]["n"] == 0.0:
                continue  # exact rows are covered by the sharp-constant test
            assert rec["lower"] >= rec["paper_lower"], rec["query"]
            assert rec["upper"] <= rec["paper_upper"], rec["query"]

    def test_text_rows(self):
        code, text = run_cli("table", "--preset", "paper")
        assert code == 0
        assert "0.84 < K < 1.42" in text
        assert "0.36 < K < 1.00" in text
        assert "0.19 < K < 0.34" in text

    def test_unknown_preset(self):
        code, _ = run_cli("table", "--preset", "nope")
        assert code == 2


class TestSweep:
    def test_rows_and_trend_columns(self):
        code, recs = run_json(
            "sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "10", "--n-step", "2"
        )
        assert code == 0 and len(recs) == 5
        cols = [r["log2_upper_over_n"] for r in recs]
        assert all(c is not None for c in cols)
        # approach toward 1 from below for this preset
        assert cols == sorted(cols)
        assert all(c < 1.0 for c in cols)

    def test_in_stream_errors(self):
        code, recs = run_json(
            "sweep", "--a", "1", "--d", "1", "--n-from", "0", "--n-to", "1", "--n-step", "0.25"
        )
        assert code == 0
        errs = [r for r in recs if r.get("error")]
        ok = [r for r in recs if not r.get("error")]
        assert errs and ok  # 0.75 is out of regime for a = 1, d = 1

    def test_empty_range_header_only(self):
        code, text = run_cli(
            "sweep", "--a", "2", "--d", "2", "--n-from", "5", "--n-to", "4",
            "--format", "csv",
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n,a,d,regime,upper")

    def test_zero_step_usage_error(self):
        code, _ = run_cli(
            "sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "4", "--n-step", "0"
        )
        assert code == 2

    def test_csv_header_stable(self):
        code, text = run_cli(
            "sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "2",
            "--format", "csv",
        )
        header = text.splitlines()[0]
        assert header == (
            "n,a,d,regime,upper,upper_weak,upper_weak2,lower_ground,lower_bessel,"
            "lower_fourier,lower,method_of_best_lower,sharp,log2_upper_over_n,"
            "log2_lower_over_n,printed_lower,printed_upper,bessel_lambda_star,"
            "fourier_p_star,fourier_sigma_star,error"
        )


class TestOracleCommand:
    def test_validate_passes(self, schema):
        code, recs = run_json(
            "oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "validate"
        )
        assert code == 0
        assert all(c["passed"] for c in recs[0]["checks"])
        validate_records(schema, recs)

    def test_search_deterministic_bytes(self):
        args = ("oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "search",
                "--seed", "7", "--budget", "40")
        code1, text1 = run_cli(*args, "--format", "json")
        code2, text2 = run_cli(*args, "--format", "json")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_d3_grid_cap_warning(self, capsys):
        code, _ = run_cli(
            "oracle", "--n", "2", "--a", "2", "--d", "3", "--mode", "validate",
            "--grid-n", "256", "--format", "json",
        )
        assert code == 0
        assert "capped" in capsys.readouterr().err


class TestDeterminismAndSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--n", "2", "--a", "2", "--d", "2"),
            ("table", "--preset", "paper"),
            ("sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "6", "--n-step", "2"),
        ],
    )
    def test_byte_identical_json_and_csv(self, argv):
        for fmt in ("json", "csv"):
            _, t1 = run_cli(*argv, "--format", fmt)
            _, t2 = run_cli(*argv, "--format", fmt)
            assert t1 == t2

    def test_all_commands_validate_against_schema(self, schema):
        for argv in (
            ("bound", "--n", "2", "--a", "2", "--d", "2"),
            ("bound", "--n", "0", "--a", "2", "--d", "3"),
            ("table", "--preset", "paper"),
            ("sweep", "--a", "2", "--d", "2", "--n-from", "1", "--n-to", "4", "--n-step", "1.5"),
            ("oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "search",
             "--seed", "1", "--budget", "20"),
        ):
            code, recs = run_json(*argv)
            assert code == 0
            validate_records(schema, recs)

    def test_timing_flag_adds_wall_time(self):
        _, recs = run_json("bound", "--n", "0", "--a", "1", "--d", "1", "--timing")
        assert "wall_time_ms" in recs[0]

    def test_json_roundtrip_lossless(self):
        _, text = run_cli("bound", "--n", "2", "--a", "2", "--d", "3", "--format", "json")
        rec = json.loads(text)
        assert json.loads(json.dumps(rec)) == rec

    def test_rel_tol_flag_threads_through(self):
        code, recs = run_json(
            "bound", "--n", "2", "--a", "2", "--d", "2", "--rel-tol", "1e-4"
        )
        assert code == 0
        loose = recs[0]
        code, recs = run_json("bound", "--n", "2", "--a", "2", "--d", "2")
        tight = recs[0]
        # same certified interval to well within the loose tolerance
        assert abs(loose["lower"] - tight["lower"]) <= 1e-3 * tight["lower"]
        assert loose["upper"] == tight["upper"]
