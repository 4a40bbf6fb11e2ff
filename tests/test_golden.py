"""Golden CLI reports: each argv in ``golden_experiment.json`` replayed in process.

The file maps each argv (joined by spaces) to the stdout, stderr and exit
code it gave when it was recorded.  A change that alters report bytes on purpose
regenerates the file with ``python tests/test_golden.py`` and lists every
changed entry in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from nearsq.cli import main

GOLDEN = Path(__file__).with_name("golden_experiment.json")
CONFIG = Path(__file__).with_name("golden_config.json")

# full and Bernoulli(0.9) sets at two sizes, at windows on both sides of 1/2,
# two sweeps whose rows run the experiment handler, the flattened csv and
# table formats, and the expsum checks: bilinear sums of six row tiles (unit,
# and adversarial on Bernoulli sets with d = 3), one quadruple and one
# root-pair count, a bilinear sweep, and one-sided windows on dense sets at
# 1/2, at 1/10 and just below 1/2 (where the screen's tau floor applies)
ARGVS = [
    ["experiment", "--N", str(N), *sets, *window]
    for N in (300, 2000)
    for sets in ([], ["--density", "0.9"])
    for window in (["--delta-exp", "0.05"], ["--delta", "2/3"], ["--delta", "1/20"])
] + [
    ["sweep", "--target", "remainder", "--N-list", "100,500"],
    ["sweep", "--target", "residual", "--N-list", "300,1000", "--seeds", "0:2",
     "--density", "0.8", "--delta", "2/3"],
    ["experiment", "--N", "300", "--format", "csv"],
    ["experiment", "--N", "300", "--density", "0.9", "--delta", "2/3", "--format", "table"],
    ["expsum-check", "--check", "bilinear", "--N", "300", "--H0", "4"],
    ["expsum-check", "--check", "bilinear", "--N", "300", "--H0", "4", "--kind", "bernoulli",
     "--density", "0.7", "--d", "3", "--weights", "adversarial"],
    ["expsum-check", "--check", "quadruples", "--M", "12", "--N", "9", "--theta", "0.001",
     "--alpha", "0.37", "--beta", "1.3"],
    ["expsum-check", "--check", "pairs", "--N", "1000", "--X", "10", "--kind", "bernoulli",
     "--density", "0.5", "--seed", "3"],
    ["sweep", "--target", "bilinear", "--sizes", "64,300", "--H0", "2"],
    ["experiment", "--N", "2000", "--delta", "1/2"],
    ["experiment", "--N", "2000", "--density", "0.9", "--delta", "1/2"],
    ["experiment", "--N", "2000", "--delta", "0.4999999999999991"],
    ["experiment", "--N", "2000", "--density", "0.9", "--delta", "1/10"],
] + [
    # the analytic commands: C(delta, k) in json and csv, its two sweeps, the
    # density pair at its default points and across both closed forms and the
    # table, the sawtooth, the thresholds, Mertens products and the
    # quadruples sweep
    argv.split()
    for argv in (
        "constant --k 4 --delta 0.0121",
        "constant --k 5 --delta 0.05 --format csv",
        "sweep --target constant",
        "sweep --target constant --k 5 --delta-end 0.099",
        "sieve-fn",
        "sieve-fn --query 2 3.5 4.5 5 5.5 6 7.25 10 --format table",
        "psi-approx --H 100",
        "threshold",
        "threshold --eta 9/10 --beta 1 --delta 1/20 --eps 1/1000",
        "mertens --z 1000",
        "mertens --z 200000",
        "sweep --target quadruples",
        # one failure per exit code 2-5 and 7; 6 (a prime table too small)
        # is out of reach, as every command sizes its own table
        "constant --k 3 --delta 0.01",
        "threshold --eta 1/2 --beta 1/2",
        "mertens --z 2e6",
        "constant --k 4 --delta 0.01 --tol 1e-15",
        "constant --k 4 --delta 0.01 --tol 1e-300",
        "sieve-fn --query 11",
    )
] + [
    # the almost-prime order at its edges: no root (k = 0), the primes
    # (k = 1), and every root (k = 20 and 10^9, past the largest Omega)
    ["experiment", "--N", "2000", "--density", "0.9", "--delta", "1/3", "--k", str(k)]
    for k in (0, 1, 2, 20, 10**9)
] + [
    # windows within the float margin of an integer edge, where the window
    # pass certifies a count with exact fallbacks: next to 1 on full and
    # Bernoulli(0.9) sets, and next to 0
    ["experiment", "--N", "300", "--delta", "0.999999999999999"],
    ["experiment", "--N", "300", "--density", "0.9", "--delta", "0.999999999999999"],
    ["experiment", "--N", "2000", "--delta", "1/1000000000000000"],
] + [
    # a run read from a config file, alone and overriding a flag
    ["experiment", "--config", CONFIG.name],
    ["experiment", "--N", "2000", "--config", CONFIG.name],
]


def replay(argv):
    argv = [str(CONFIG) if arg == CONFIG.name else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def write_golden():
    """Record every entry of ``ARGVS`` with the code as it stands."""
    golden = {" ".join(argv): replay(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_report_matches_golden(argv):
    assert replay(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


def test_golden_file_holds_exactly_the_argvs():
    # an entry left over from a removed argv, or an argv never recorded
    assert set(json.loads(GOLDEN.read_text())) == {" ".join(argv) for argv in ARGVS}


if __name__ == "__main__":
    write_golden()
