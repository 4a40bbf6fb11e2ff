import contextlib
import io
import json
import os
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsq import cli, experiments
from nearsq.arith import build_prime_table
from nearsq.cli import COMMANDS, RunConfig, build_parser, dispatch, main
from nearsq.errors import EXIT_CODES
from nearsq.experiments import count_near_squares, generate_subset, sieve_decomposition


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_captured(argv):
    """Exit code, stdout and stderr of one in-process run, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# numeric strings no command can use, and small values per flag: valid ones,
# plus malformed lists for the list flags.  The valid ones keep every run
# cheap (u-max <= 12, z <= 1e5, N <= 300, H <= 50, expsum sizes <= 200), but
# for N = 10^12, which every command refuses before it draws a set.
BAD_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1/0", "abc"]
BAD_LISTS = ["1:2:3", "2,x", "1,", ""]
HUGE = str(10**12)
FUZZ_FLAGS = {
    "constant": {"--k": ["4", "5"], "--delta": ["0.0121", "0.05"], "--tol": ["1e-9", "1e-13"]},
    "threshold": {"--eta": ["1", "9/10"], "--beta": ["1", "0.8"],
                  "--delta": ["0", "1/20"], "--eps": ["0", "1/100"]},
    "sieve-fn": {"--u-max": ["6", "8", "12"], "--step": ["1e-3", "2e-3", "0.01", "7e-4"],
                 "--tol": ["1e-6", "1e-3"], "--query": ["2.5", "5.5", "7"]},
    "mertens": {"--z": ["2", "10", "1e5"]},
    "sweep --target=constant": {"--k": ["4", "5"], "--delta-start": ["0.001", "0.05"],
                                "--delta-end": ["0.002", "0.09"], "--delta-step": ["1e-3", "0.01"]},
    "experiment": {"--N": ["50", "300", HUGE], "--kind": ["full", "bernoulli"],
                   "--density": ["0.5", "1"], "--delta": ["1/20", "0.3"],
                   "--delta-exp": ["0.05", "0.5", "-1e10"], "--k": ["2", "6"],
                   "--d-max": ["10", "100"], "--max-pairs": ["100", "10000000"],
                   "--seed": ["0", "3"]},
    "psi-approx": {"--H": ["2", "50"], "--grid-points": ["1", "100"]},
    "expsum-check --check=quadruples": {"--M": ["1", "20"], "--N": ["1", "20", HUGE],
                                        "--theta": ["0.01", "1e-6"], "--alpha": ["0.5", "-1"],
                                        "--beta": ["0.5", "2"]},
    "expsum-check --check=pairs": {"--N": ["2", "200", HUGE], "--X": ["1", "10"],
                                   "--kind": ["full", "bernoulli"], "--density": ["0.5", "1"],
                                   "--seed": ["0", "5"]},
    "expsum-check --check=bilinear": {"--N": ["2", "200", HUGE], "--H0": ["1", "4"],
                                      "--d": ["1", "3"], "--kind": ["full", "bernoulli"],
                                      "--density": ["0.5"],
                                      "--seed": ["0", "5"]},
    "sweep --target=residual": {"--N-list": ["50", "100,200", HUGE, *BAD_LISTS],
                                "--seeds": ["0", "0:2", "1,3", *BAD_LISTS],
                                "--density": ["0.8"], "--delta": ["1/10", "0.3"]},
    "sweep --target=remainder": {"--N-list": ["50", "100,300", HUGE, *BAD_LISTS]},
    "sweep --target=quadruples": {"--sizes": ["2", "2,4", *BAD_LISTS], "--theta": ["1e-6", "0.1"]},
    "sweep --target=bilinear": {"--sizes": ["2", "8,16", *BAD_LISTS], "--H0": ["1", "4"],
                                "--d": ["1", "2"]},
}

# each sweep target against the command run its rows stand for: the sweep's
# flags for one row, the command's argv, and per CSV column the key of the
# command's report, dotted into nested objects
SWEEP_COMMANDS = {
    "constant": (
        ["--k", "4", "--delta-start", "0.002", "--delta-end", "0.002"],
        ["constant", "--k", "4", "--delta", "0.002"],
        {"delta": "delta", "k": "k", "value": "value", "value_unsimplified": "value_unsimplified",
         "discrepancy": "discrepancy", "quad_error": "quad_error"},
    ),
    "residual": (
        ["--N-list", "300", "--seeds", "2", "--density", "0.8", "--delta", "1/10"],
        ["experiment", "--N", "300", "--density", "0.8", "--seed", "2", "--delta", "1/10"],
        {"N": "config.N", "seed": "config.seed", "size_A": "sizes.A", "size_B": "sizes.B",
         "H": "H", "residual": "residual"},
    ),
    "remainder": (
        ["--N-list", "300"],
        ["experiment", "--N", "300", "--kind", "full", "--delta-exp", "0.05", "--d-max", "50"],
        {"N": "config.N", "delta": "config.delta_float", "H": "H", "X": "X",
         "scaled_remainder_max": "scaled_remainder_max_d50"},
    ),
    "quadruples": (
        ["--sizes", "8", "--theta", "1e-3"],
        ["expsum-check", "--check", "quadruples", "--M", "8", "--N", "8", "--theta", "1e-3"],
        {"M": "params.M", "N": "params.N", "theta": "params.theta", "measured": "measured_value",
         "bound": "bound_value", "ratio": "ratio"},
    ),
    "bilinear": (
        ["--sizes", "16", "--H0", "4", "--d", "2"],
        ["expsum-check", "--check", "bilinear", "--N", "16", "--H0", "4", "--d", "2"],
        {"N": "params.N", "H0": "params.H0", "d": "params.d", "measured": "measured_value",
         "bound": "bound_value", "ratio": "ratio"},
    ),
}


class FakePool:
    """A pool that records the size asked for and maps in process: no process starts."""

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return [fn(a) for a in args]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools a run asks for, with ``FakePool`` in place of ``cli.Pool``."""
    sizes = []
    monkeypatch.setattr(FakePool, "sizes", sizes, raising=False)
    monkeypatch.setattr(cli, "Pool", FakePool)
    return sizes


class TestThreshold:
    def test_balanced_case(self, capsys):
        code, out, _ = run_cli(capsys, ["threshold", "--eta", "1", "--beta", "1", "--delta", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 6
        assert doc["delta_range"] == {
            "lo": "0/1",
            "hi": "1/14",
            "lo_inclusive": False,
            "empty": False,
        }
        assert doc["constant_provenance"] == "reconstructed"

    def test_rational_flags(self, capsys):
        code, out, _ = run_cli(capsys, ["threshold", "--delta", "1/14"])
        assert code == 0
        assert json.loads(out)["k"] == 7


class TestConstant:
    def test_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, ["constant", "--k", "4", "--delta", "0.01"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "delta",
            "k",
            "value",
            "value_unsimplified",
            "discrepancy",
            "quad_error",
            "discrepancy_exceeds_tol",
        ]
        assert doc["value"] > 0 and doc["value_unsimplified"] > doc["value"]
        assert doc["discrepancy_exceeds_tol"] is True

    def test_regime_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["constant", "--k", "4", "--delta", "0.2"])
        assert code == 3
        assert "error:" in err


class TestSieveFn:
    def test_default_queries_end_at_the_last_grid_point(self, capsys):
        # the grid at step 1/128 ends at 7.296875, just below the requested 7.3
        code, out, err = run_cli(capsys, [
            "sieve-fn", "--u-max", "7.3", "--step", "0.0078125", "--tol", "1e-3",
        ])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["u_max"] == 7.296875
        assert [v["u"] for v in doc["values"]] == [2.0, 3.0, 4.0, 5.0, 6.0, 7.296875]

    def test_csv_and_table_flatten_the_values_to_dotted_keys(self, capsys):
        argv = ["sieve-fn", "--u-max", "7.3", "--step", "0.0078125", "--tol", "1e-3"]
        _, out, _ = run_cli(capsys, argv + ["--format", "csv"])
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["values.5.u"], cells["csv_dump"]) == ("7.296875", "")
        _, out, _ = run_cli(capsys, argv + ["--format", "table"])
        assert "values.5.u  7.296875\n" in out


class TestMertens:
    def test_exact_string_up_to_256_denominator_bits(self, capsys):
        # the primes below 251 give a 253-bit denominator, adding 251 gives 261
        code, out, _ = run_cli(capsys, ["mertens", "--z", "251"])
        assert code == 0
        num = den = 1
        spf = build_prime_table(250).spf
        for p in range(2, 251):
            if spf[p] == p:  # p is prime
                num, den = num * (p - 1), den * p
        exact = Fraction(num, den)
        assert exact.denominator.bit_length() == 253
        assert json.loads(out)["product_exact"] == f"{exact.numerator}/{exact.denominator}"
        code, out, _ = run_cli(capsys, ["mertens", "--z", "252"])
        assert code == 0
        assert json.loads(out)["product_exact"] is None


class TestDeterminism:
    def test_experiment_byte_identical(self, capsys):
        argv = [
            "experiment", "--N", "1000", "--density", "0.5",
            "--delta-exp", "0.05", "--seed", "1",
        ]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert "timing_seconds" not in doc
        assert doc["H"] > 0

    def test_timing_opt_in(self, capsys):
        code, out, _ = run_cli(capsys, [
            "experiment", "--N", "300", "--delta", "0.1", "--timing",
        ])
        assert code == 0
        assert "timing_seconds" in json.loads(out)

    def test_psi_approx_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, ["psi-approx", "--H", "10"])
        _, out2, _ = run_cli(capsys, ["psi-approx", "--H", "10"])
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["envelope_holds"] is True


class TestSweep:
    def test_constant_sweep_rows(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--target", "constant", "--k", "4",
            "--delta-start", "0.001", "--delta-end", "0.005", "--delta-step", "0.001",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "delta,k,value,value_unsimplified,discrepancy,quad_error"
        assert len(lines) == 6
        assert "\r" not in out

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--target", "constant", "--k", "4",
            "--delta-start", "0.01", "--delta-end", "0.005", "--delta-step", "0.001",
        ])
        assert code == 0
        assert out.splitlines() == ["delta,k,value,value_unsimplified,discrepancy,quad_error"]

    @pytest.mark.parametrize("grid", [
        ["--delta-start", "0.001", "--delta-end", "0.002", "--delta-step", "1e-300"],
        ["--delta-start", "0", "--delta-end", "1", "--delta-step", "1e-4"],
    ], ids=["step-lost-to-rounding", "one-row-over"])
    def test_row_budget_refuses_before_any_row(self, capsys, monkeypatch, grid):
        # 1e-300 vanishes in start + j * step, and 0, 1e-4, ..., 1 is 10,001 rows
        monkeypatch.setattr(cli, "_sweep_row", lambda task: pytest.fail("a row ran"))
        code, out, err = run_cli(capsys, ["sweep", "--target", "constant", *grid])
        assert code == 4
        assert out == ""
        assert err.splitlines() == [
            f"error: sweep of more than {cli.SWEEP_ROW_BUDGET} rows exceeds the row budget"]

    def test_row_budget_takes_a_grid_of_its_size(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_ROW_BUDGET", 5)
        argv = ["sweep", "--target", "constant", "--delta-start", "0.001", "--delta-step", "0.001"]
        code, out, _ = run_cli(capsys, argv + ["--delta-end", "0.005"])
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
            "0.001", "0.002", "0.003", "0.004", "0.005"]
        assert run_cli(capsys, argv + ["--delta-end", "0.006"])[0] == 4

    def test_residual_sweep(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--target", "residual", "--N-list", "200,400",
            "--seeds", "0:2", "--density", "0.8", "--delta", "1/10",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,seed,size_A,size_B,H,residual"
        assert len(lines) == 5

    def test_remainder_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--target", "remainder", "--N-list", "100,300"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,delta,H,X,scaled_remainder_max"
        assert len(lines) == 3
        n, delta, H, X, stat = lines[2].split(",")
        A = generate_subset(300, "full")
        nsc = count_near_squares(A, A, 300.0 ** -0.05)
        dec = sieve_decomposition(nsc, 300, 300, 50)
        assert (int(n), int(H)) == (300, nsc.H_count)
        assert float(delta) == pytest.approx(300.0 ** -0.05, rel=1e-11)
        assert float(X) == pytest.approx(float(dec.X), rel=1e-11)
        assert float(stat) == pytest.approx(dec.scaled_remainder_max(), rel=1e-11)

    @pytest.mark.parametrize("target", list(SWEEP_COMMANDS))
    def test_row_equals_the_command_report(self, capsys, target):
        sweep_flags, command, columns = SWEEP_COMMANDS[target]
        code, out, err = run_cli(capsys, ["sweep", "--target", target, *sweep_flags])
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header.split(",") == list(columns)
        code, out, err = run_cli(capsys, command)
        assert (code, err) == (0, "")
        report = json.loads(out)
        cells = []
        for key in columns.values():
            value = report
            for part in key.split("."):
                value = value[part]
            # the CSV writer prints floats at 12 significant digits and None as ""
            cells.append("" if value is None else f"{value:.12g}" if isinstance(value, float)
                         else str(value))
        assert row.split(",") == cells

    def test_experiment_rows_skip_the_root_analysis(self, capsys, monkeypatch):
        # no residual or remainder column reads the sifted roots, so no row
        # builds the prime table that sifts them
        def no_table(limit):
            raise AssertionError(f"prime table of {limit} built")

        monkeypatch.setattr(cli, "build_prime_table", no_table)
        for target in ("residual", "remainder"):
            code, out, err = run_cli(capsys, ["sweep", "--target", target, "--N-list", "200,300"])
            assert (code, err, len(out.splitlines())) == (0, "", 3)

    def test_checkpoint_resume(self, capsys, tmp_path):
        ck = tmp_path / "sweep.ck"
        argv = [
            "sweep", "--target", "constant", "--k", "5",
            "--delta-start", "0.001", "--delta-end", "0.003", "--delta-step", "0.001",
            "--checkpoint", str(ck),
        ]
        code, out1, _ = run_cli(capsys, argv)
        assert code == 0
        assert ck.read_text() == "3"
        code, out2, _ = run_cli(capsys, argv)
        assert code == 0
        # all rows recorded as done: only the header is re-emitted
        assert out2.splitlines() == [out1.splitlines()[0]]

    def test_thread_count_does_not_change_bytes(self, capsys):
        argv = [
            "sweep", "--target", "constant", "--k", "5",
            "--delta-start", "0.001", "--delta-end", "0.006", "--delta-step", "0.001",
        ]
        _, serial, _ = run_cli(capsys, argv)
        _, parallel, _ = run_cli(capsys, argv + ["--threads", "3"])
        assert serial == parallel

    def test_bilinear_rows_in_forked_workers_give_the_same_bytes(self, capsys):
        # each forked pool worker runs bilinear_sum_check, which deals its row
        # tiles to threads of its own (6 and 63 tiles at N = 300 and 1000)
        argv = ["sweep", "--target", "bilinear", "--sizes", "64,300,1000", "--H0", "2"]
        _, serial, _ = run_cli(capsys, argv + ["--threads", "1"])
        code, pooled, _ = run_cli(capsys, argv + ["--threads", "2"])
        assert code == 0
        assert pooled == serial
        assert len(serial.splitlines()) == 4

    def test_pool_is_no_larger_than_the_row_count(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 64)
        argv = ["sweep", "--target", "quadruples", "--sizes", "4,8"]
        _, serial, _ = run_cli(capsys, argv)
        code, pooled, _ = run_cli(capsys, argv + ["--threads", "500"])
        assert code == 0
        assert pooled == serial
        assert pool_sizes == [2]

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, [])])
    def test_pool_is_no_larger_than_the_cpu_count(self, capsys, monkeypatch, pool_sizes,
                                                  cpus, pools):
        # with one CPU the rows run in process, without a pool
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        argv = ["sweep", "--target", "quadruples", "--sizes", "4,8,12,16"]
        _, serial, _ = run_cli(capsys, argv)
        code, pooled, _ = run_cli(capsys, argv + ["--threads", "10000"])
        assert code == 0
        assert pooled == serial
        assert len(serial.splitlines()) == 5
        assert pool_sizes == pools

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NEARSQ_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, [
            "mertens", "--z", "10", "--output", "mertens.json",
        ])
        assert code == 0
        assert out == ""
        doc = json.loads((tmp_path / "mertens.json").read_text())
        assert doc["product_exact"] == "8/35"


class TestConfigFile:
    def test_file_wins_with_warning(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"parameters": {"delta": 0.002}}))
        code, out, err = run_cli(capsys, [
            "constant", "--k", "4", "--delta", "0.01", "--config", str(cfg),
        ])
        assert code == 0
        assert err == "warning: config file overrides flags for: delta\n"
        assert json.loads(out)["delta"] == 0.002
        # a file value for a parameter no flag gave overrides nothing
        cfg.write_text(json.dumps({"parameters": {"theta": "1e-3"}}))
        code, _, err = run_cli(capsys, ["sweep", "--target", "quadruples", "--sizes", "4",
                                        "--config", str(cfg)])
        assert (code, err) == (0, "")

    def test_file_values_read_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"parameters": {"sizes": "4,8", "theta": "1e-3"}}))
        argv = ["sweep", "--target", "quadruples"]
        _, from_flags, _ = run_cli(capsys, argv + ["--sizes", "4,8", "--theta", "1e-3"])
        code, from_file, _ = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 0
        assert from_file == from_flags

    @pytest.mark.parametrize("argv,content", [
        (["sieve-fn"], None),
        (["sieve-fn"], "{not json"),
        (["sieve-fn"], "[1, 2]"),
        (["sieve-fn"], '{"parameters": 3}'),
        (["experiment", "--N", "100"], '{"parameters": {"N": "abc"}}'),
        (["experiment", "--N", "100"], '{"parameters": {"N": 100.7}}'),
        (["sieve-fn"], '{"parameters": {"query": 3}}'),
        (["sweep", "--target", "quadruples"], '{"parameters": {"sizes": "4,x"}}'),
        (["sweep", "--target", "quadruples", "--sizes", "2"], '{"threads": "x"}'),
        (["experiment", "--N", "100"], '{"parameters": {"timing": "yes"}}'),
        (["mertens", "--z", "10"], '{"output_format": "yaml"}'),
        (["sweep", "--target", "quadruples"], '{"parameters": {"sizse": "4,8"}}'),
        (["mertens", "--z", "10"], '{"seed": 3}'),
    ], ids=["missing", "not-json", "not-object", "parameters-not-object", "N", "N-float", "query",
            "sizes", "threads", "timing", "format", "misspelt", "top-level"])
    def test_bad_file_exits_with_one_error_line(self, capsys, tmp_path, argv, content):
        cfg = tmp_path / "run.json"
        if content is not None:
            cfg.write_text(content)
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
        assert err.splitlines()[-1].startswith("error: ")


class TestReadme:
    def test_flag_table_matches_the_declarations(self):
        # every command's row lists its flags in declaration order, all but --output
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme, flags=re.M)
        table = {command: re.findall(r"--[\w-]+", flags) + ["--output"] for command, flags in rows}
        assert table == {command: [prm.flag for prm in params]
                         for command, (_, _, _, params) in COMMANDS.items()}
        assert list(table) == list(COMMANDS)


class TestErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_dispatch_unknown_command(self, capsys):
        assert dispatch(RunConfig(command="bogus")) == 2

    def test_budget_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, [
            "experiment", "--N", "5000", "--delta", "0.1", "--max-pairs", "100",
        ])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["experiment", "--N", "50000000"],
        ["experiment", "--N", "47453133", "--density", "0.001"],
        ["experiment", "--N", str(10**9), "--delta-exp", "0.05"],
        ["sweep", "--target", "remainder", "--N-list", "50000000"],
    ], ids=["full", "bernoulli", "delta-exp", "remainder-sweep"])
    def test_uncountable_N_is_refused_before_any_draw(self, capsys, monkeypatch, argv):
        # 4 N^2 > 2^53 from N = 47,453,133 on, whatever the sets; drawing the
        # full sets of N = 5 * 10^7 alone takes 800 MB
        def no_draw(*args, **kwargs):
            raise AssertionError("a subset was drawn")

        monkeypatch.setattr(cli, "generate_subset", no_draw)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert err.splitlines() == ["error: products exceed the exact float-filter range"]

    @pytest.mark.parametrize("argv, code, message", [
        (["experiment", "--N", "10000000", "--delta", "2"], 2, "window delta must lie in (0, 1)"),
        (["experiment", "--N", "10000000"], 4,
         "100000000000000 pairs exceed the budget of 1000000000"),
        (["sweep", "--target", "remainder", "--N-list", "1000000"], 4,
         "1000000000000 pairs exceed the budget of 40000000000"),
        (["expsum-check", "--check", "bilinear", "--N", HUGE, "--H0", "1"], 4,
         "1000000000000000000000000 terms exceed the budget of 100000000"),
    ], ids=["delta", "pairs", "remainder-sweep", "bilinear-terms"])
    def test_flag_only_faults_are_refused_before_any_draw(self, capsys, monkeypatch, argv, code,
                                                          message):
        # full sets have N^2 pairs, and N^2 H0 bilinear terms
        def no_draw(*args, **kwargs):
            raise AssertionError("a subset was drawn")

        monkeypatch.setattr(cli, "generate_subset", no_draw)
        got, out, err = run_cli(capsys, argv)
        assert (got, out, err.splitlines()) == (code, "", [f"error: {message}"])

    @pytest.mark.parametrize("argv", [
        ["expsum-check", "--check", "pairs", "--N", HUGE, "--X", "5"],
        ["expsum-check", "--check", "pairs", "--N", HUGE, "--X", "5", "--density", "0.5"],
        ["expsum-check", "--check", "bilinear", "--N", HUGE, "--H0", "1", "--density", "1e-9"],
    ], ids=["full", "bernoulli", "bilinear-bernoulli"])
    def test_huge_N_is_refused_before_the_draw(self, capsys, monkeypatch, argv):
        # the window (N, 2N] at N = 10^12 would be 8 TB, and a Bernoulli set
        # is drawn in a million chunks of 2^20 uniforms
        def no_draw(*args, **kwargs):
            raise AssertionError("a subset was drawn")

        monkeypatch.setattr(experiments.np, "arange", no_draw)
        monkeypatch.setattr(experiments.np.random, "default_rng", no_draw)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (4, "")
        assert err.splitlines() == [
            "error: base_N = 1000000000000 exceeds the budget of 100000000"]

    def test_bernoulli_sets_are_not_refused_on_their_largest_size(self, capsys):
        # N^2 H0 = 4 * 10^10 terms would exceed the budget; these sets hold about 10^2 each
        code, out, err = run_cli(capsys, ["expsum-check", "--check", "bilinear", "--N", "100000",
                                          "--density", "0.001", "--H0", "4"])
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["size_A"] < 1000

    def test_delta_and_delta_exp_together_exit_2(self, capsys, tmp_path):
        message = ["error: experiment takes --delta or --delta-exp, not both"]
        argv = ["experiment", "--N", "300"]
        code, out, err = run_cli(capsys, argv + ["--delta", "1/3", "--delta-exp", "0.05"])
        assert (code, out, err.splitlines()) == (2, "", message)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"parameters": {"delta": "1/3", "delta_exp": 0.05}}))
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert (code, out, err.splitlines()) == (2, "", message)
        # one from a flag and one from the file
        cfg.write_text(json.dumps({"parameters": {"delta_exp": 0.05}}))
        code, out, err = run_cli(capsys, argv + ["--delta", "1/3", "--config", str(cfg)])
        assert (code, out, err.splitlines()) == (2, "", message)

    def test_expsum_check_missing_parameter_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["expsum-check", "--check", "pairs", "--N", "10"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: expsum check 'pairs' needs --X"]

    @pytest.mark.parametrize("command,code,err", [
        ("sieve-fn", 0, []),
        ("mertens", 2, ["error: mertens needs --z"]),
        ("constant", 2, ["error: constant needs --k, --delta"]),
        ("threshold", 0, []),
        ("psi-approx", 2, ["error: psi-approx needs --H"]),
        ("expsum-check", 2, ["error: expsum check 'pairs' needs --N, --X"]),
        ("experiment", 2, ["error: experiment needs --N"]),
        ("sweep", 0, []),
    ])
    def test_empty_parameters_exit_cleanly(self, capsys, command, code, err):
        # a run description without parameters, as the bare subcommand or a
        # RunConfig built in code gives: a report or one error line
        assert dispatch(RunConfig(command=command)) == code
        out = capsys.readouterr()
        assert out.err.splitlines() == err
        assert (out.out == "") == (code != 0)

    def test_density_draws_bernoulli_sets_in_both_commands(self, capsys):
        # one subset rule for experiment and expsum-check: the same sets
        code, out, _ = run_cli(capsys, ["expsum-check", "--check", "bilinear", "--N", "300",
                                        "--H0", "4", "--density", "0.7"])
        assert code == 0
        params = json.loads(out)["params"]
        code, out, _ = run_cli(capsys, ["experiment", "--N", "300", "--density", "0.7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["kind"] == "bernoulli"
        assert (params["size_A"], params["size_B"]) == (doc["sizes"]["A"], doc["sizes"]["B"])
        assert params["size_A"] < 300

    @pytest.mark.parametrize("argv", [
        ["experiment", "--N", "300", "--kind", "full", "--density", "0.7"],
        ["expsum-check", "--check", "bilinear", "--N", "300", "--H0", "4", "--kind", "full",
         "--density", "0.7"],
        ["expsum-check", "--check", "pairs", "--N", "300", "--X", "10",
         "--kind", "adversarial-spread", "--density", "0.7"],
    ], ids=["experiment", "bilinear", "pairs"])
    def test_density_with_a_kind_that_takes_none_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        kind = argv[argv.index("--kind") + 1]
        assert err.splitlines() == [f"error: --density draws Bernoulli sets, not --kind {kind}"]

    def test_empty_subset_reports_null_residual(self, capsys):
        code, out, err = run_cli(capsys, ["experiment", "--N", "50", "--density", "0.001"])
        assert code == 0
        assert err == ""
        doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert doc["sizes"] == {"A": 0, "B": 0}
        assert doc["residual"] is None

    def test_empty_subset_leaves_residual_cell_empty(self, capsys):
        code, out, _ = run_cli(capsys, [
            "sweep", "--target", "residual", "--N-list", "50", "--density", "0.001",
        ])
        assert code == 0
        assert out.splitlines()[1] == "50,0,0,0,0,"

    def test_sifting_level_below_two_sifts_nothing(self, capsys):
        # z = (3N)^(1/(k+1)) is about 1.46 here: no prime lies below it
        code, out, err = run_cli(capsys, ["experiment", "--N", "100", "--k", "14"])
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["sifted"] == doc["H"]

    @pytest.mark.parametrize("flag,value,err", [
        ("--k", "-1", "error: almost-prime order k must be nonnegative"),
        ("--d-max", "0", "error: d_max must be at least 1"),
    ], ids=["k", "d_max"])
    def test_experiment_order_and_modulus_checked_first(self, capsys, flag, value, err):
        code, out, errtext = run_cli(capsys, ["experiment", "--N", "100", flag, value])
        assert code == 2
        assert out == ""
        assert errtext.splitlines() == [err]

    def test_sweep_zero_step_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "sweep", "--target", "constant", "--delta-step", "0",
        ])
        assert code == 2
        assert err.splitlines() == ["error: sweep step must be positive"]

    def test_unknown_branches_exit_2(self, capsys):
        for command, params in (
            ("sweep", {"target": "bogus"}),
            ("expsum-check", {"check": "bogus"}),
            ("mertens", {"z": 10, "format": "yaml"}),
        ):
            assert dispatch(RunConfig(command=command, parameters=params)) == 2
            assert capsys.readouterr().err.startswith("error: unknown")

    def test_help_mentions_formulas(self, capsys):
        parser = build_parser()
        # every subcommand's description spells out what it computes
        for sub in ("constant", "threshold", "sieve-fn", "expsum-check"):
            with pytest.raises(SystemExit):
                parser.parse_args([sub, "--help"])
        helptext = capsys.readouterr().out
        assert "log(4-10 delta)" in helptext or "floor(2 /" in helptext

    @pytest.mark.parametrize("argv, code", [
        (["sieve-fn", "--u-max", "nan"], 2),
        (["sieve-fn", "--query", "nan"], 7),
        (["sieve-fn", "--tol", "nan"], 2),
        (["constant", "--k", "4", "--delta", "0.01", "--tol", "nan"], 2),
        (["mertens", "--z", "nan"], 2),
        (["mertens", "--z", "inf"], 2),
        (["threshold", "--delta", "nan"], 2),
        (["threshold", "--eta", "inf"], 2),
        (["threshold", "--delta", "1/0"], 2),
        (["experiment", "--N", "100", "--delta", "nan"], 2),
        (["experiment", "--N", "100", "--delta-exp=-1e10"], 2),
        (["psi-approx", "--H", "4", "--grid-points", "0"], 2),
        (["sweep", "--target", "constant", "--delta-start", "nan"], 2),
        (["sweep", "--target", "constant", "--delta-end", "inf"], 2),
        (["expsum-check", "--check", "pairs", "--N", "100", "--X", "nan"], 2),
        (["expsum-check", "--check", "pairs", "--N", "100", "--X", "inf"], 2),
        (["expsum-check", "--check", "quadruples", "--M", "2", "--N", "2", "--theta", "0.1",
          "--alpha", "nan"], 2),
        (["expsum-check", "--check", "quadruples", "--M", "2", "--N", "2", "--theta", "nan"], 2),
        (["sweep", "--target", "quadruples", "--sizes", "2", "--theta", "nan"], 2),
        (["sweep", "--target", "residual", "--N-list", "100,abc"], 2),
        (["sweep", "--target", "residual", "--seeds", "1:2:3"], 2),
        (["sweep", "--target", "quadruples", "--sizes", "2,x"], 2),
        (["sieve-fn", "--step", "7e-4"], 2),  # does not divide 1
        (["sieve-fn", "--u-max", "5e5"], 4),  # 5 * 10^8 grid points
        (["mertens", "--z", "1e300"], 4),
        (["mertens", "--z", "2e6"], 4),
        (["experiment", "--N", "100", "--d-max", "100001"], 4),  # over D_MAX_BUDGET
        (["psi-approx", "--H", "100001", "--grid-points", "1000"], 4),  # over TERM_BUDGET
    ])
    def test_bad_number_exits_with_one_error_line(self, capsys, argv, code):
        got, out, err = run_cli(capsys, argv)
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_psi_approx_budget_raises_before_allocating(self, capsys):
        # one grid_points x H matrix over the budget is 800 MB
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, ["psi-approx", "--H", "100001", "--grid-points", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert err.startswith("error: ")
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv, config, message", [
        (["mertens", "--z", "10", "--seed", "1"], None, "unrecognized arguments: --seed 1"),
        (["constant", "--k", "4", "--delta", "0.01", "--threads", "2"], None,
         "unrecognized arguments: --threads 2"),
        (["sweep", "--format", "csv"], None, "unrecognized arguments: --format csv"),
        # flags of another mode of the command
        (["sweep", "--target", "remainder", "--N-list", "300", "--delta", "1/3", "--seeds", "0:3",
          "--density", "0.5"], None, "error: sweep 'remainder' does not read --seeds, --delta, "
         "--density"),
        (["expsum-check", "--check", "quadruples", "--M", "4", "--N", "4", "--theta", "0.01",
          "--X", "5", "--H0", "3", "--weights", "adversarial"], None,
         "error: expsum check 'quadruples' does not read --X, --H0, --weights"),
        (["expsum-check", "--check", "pairs", "--N", "100", "--X", "5"], {"alpha": 0.3},
         "error: expsum check 'pairs' does not read --alpha"),
    ], ids=[f"argv{i}" for i in range(6)])
    def test_flags_a_command_does_not_read_are_rejected(self, tmp_path, argv, config, message):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"parameters": config}))
            argv = argv + ["--config", str(path)]
        code, out, err = run_cli_captured(argv)
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
        assert err.splitlines()[-1].endswith(message)

    def test_each_mode_reads_its_own_flags(self):
        # (mode, flag) pairs that a run can set, --format and --output included
        settable = 0
        for command in ("sweep", "expsum-check"):
            params = COMMANDS[command][3]
            for mode in params[0].choices:
                settable += sum(not prm.needed_by or mode in prm.needed_by for prm in params)
        assert settable == 60

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, [
            "mertens", "--z", "100", "--output", str(tmp_path / "nodir" / "x.json"),
        ])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_numbers_exit_with_a_mapped_code(self, data):
        # each drawn value goes on the command line or into a --config file
        command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        argv = command.split()
        from_file = {}
        for flag, valid in FUZZ_FLAGS[command].items():
            if data.draw(st.booleans()):
                value = data.draw(st.sampled_from(valid + BAD_NUMBERS))
                if data.draw(st.booleans()):
                    from_file[flag[2:].replace("-", "_")] = value
                else:
                    argv.append(f"{flag}={value}")
        with tempfile.TemporaryDirectory() as tmp:
            if from_file:
                path = os.path.join(tmp, "run.json")
                with open(path, "w") as fh:
                    json.dump({"parameters": from_file}, fh)
                argv += ["--config", path]
            code, _, err = run_cli_captured(argv)
        assert code in {0, *EXIT_CODES.values()}, (argv, code, err)
        assert "Traceback" not in err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == (code != 0), (argv, code, err)
