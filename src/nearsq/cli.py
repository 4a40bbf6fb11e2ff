"""Command-line driver: every module behind a subcommand with reproducible output.

Reports are deterministic: a fixed RunConfig yields byte-identical output
(stable key order, floats at 12 significant digits).  Timing is therefore
opt-in.  Module errors map to distinct exit codes: usage/invalid 2, regime
3, budget 4, accuracy 5, coverage 6, range 7.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

from .arith import as_fraction, build_prime_table
from .constants import (
    RegimeParams,
    alpha_level,
    delta_range,
    k_min,
    sieve_lower_constant,
    weighted_sieve_constant,
)
from .errors import EXIT_USAGE, InvalidArgumentError, NearsqError, RegimeError, exit_code_for
from .experiments import (
    almost_prime_count,
    count_near_squares,
    generate_subset,
    main_term_dominant,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
)
from .expsum import bilinear_sum_check, build_sawtooth_approximation, pair_count, quadruple_count
from .reports import csv_text, fraction_str, json_report, sig12, table_text
from .sievefn import build_sieve_table, mertens_product

OUTPUT_DIR_ENV = "NEARSQ_OUTPUT_DIR"


@dataclass
class RunConfig:
    """Validated run description; the dispatch target of both CLI and tests."""

    command: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None
    threads: int = 1


def _emit(text: str, config: RunConfig) -> None:
    path = config.output_path
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _format_report(report: dict, config: RunConfig) -> str:
    if config.output_format == "json":
        return json_report(report)
    if config.output_format == "table":
        return table_text(report)
    if config.output_format == "csv":
        header = list(report)
        return csv_text(header, [[report[k] for k in header]])
    raise InvalidArgumentError(f"unknown output format {config.output_format!r}")


def _cmd_sieve_fn(config: RunConfig) -> dict:
    p = config.parameters
    u_max = float(p.get("u_max", 10.0))
    step = float(p.get("step", 1e-3))
    tol = float(p.get("tol", 1e-6))
    table = build_sieve_table(u_max, step=step, tol=tol)
    queries = p.get("query") or [2.0, 3.0, 4.0, 5.0, 6.0, u_max]
    if p.get("dump_csv"):
        table.dump_csv(p["dump_csv"])
    return {
        "u_max": table.u_max,
        "step": table.grid_step,
        "tol": tol,
        "values": [
            {"u": float(u), "F": table.upper(float(u)), "f": table.lower(float(u))}
            for u in queries
        ],
        "csv_dump": p.get("dump_csv"),
    }


def _cmd_mertens(config: RunConfig) -> dict:
    p = config.parameters
    z = float(p["z"])
    if not math.isfinite(z):  # checked before the prime table is sized from ceil(z)
        raise InvalidArgumentError(f"mertens product needs a finite z, got {z}")
    table = build_prime_table(max(int(math.ceil(z)), 2))
    m = mertens_product(z, table)
    exact = (
        fraction_str(m.exact)
        if m.exact.denominator.bit_length() <= 256
        else None  # omit astronomically long exact strings from reports
    )
    return {
        "z": m.z,
        "product": m.value,
        "product_exact": exact,
        "asymptotic": m.asymptotic,
        "ratio": m.ratio,
    }


def _cmd_constant(config: RunConfig) -> dict:
    p = config.parameters
    report = weighted_sieve_constant(
        float(p["delta"]), int(p["k"]), tol=float(p.get("tol", 1e-9))
    )
    return {
        "delta": report.delta,
        "k": report.k,
        "value": report.value,
        "value_unsimplified": report.value_unsimplified,
        "discrepancy": report.discrepancy,
        "quad_error": report.quad_error,
        "discrepancy_exceeds_tol": report.flagged,
    }


def _cmd_threshold(config: RunConfig) -> dict:
    p = config.parameters
    params = RegimeParams(
        as_fraction(p.get("eta", "1")),
        as_fraction(p.get("beta", "1")),
        as_fraction(p.get("delta", "0")),
        as_fraction(p.get("eps", "0")),
    )
    k = k_min(params)
    rng = delta_range(k, params.eta, params.beta)
    out = {
        "eta": float(params.eta),
        "beta": float(params.beta),
        "delta": float(params.delta),
        "eps": float(params.eps),
        "k": k,
        "alpha": float(alpha_level(params)),
        "delta_range": {
            "lo": fraction_str(rng.lo),
            "hi": fraction_str(rng.hi),
            "lo_inclusive": rng.lo_inclusive,
            "empty": rng.is_empty,
        },
        "hypothesis_satisfied": params.hypothesis_satisfied(),
    }
    try:
        rep = sieve_lower_constant(params)
        out["sieve_argument"] = rep.sieve_argument
        out["constant"] = rep.constant_value
        out["constant_provenance"] = "reconstructed"
    except RegimeError as exc:
        out["sieve_argument"] = None
        out["constant"] = None
        out["constant_provenance"] = f"unavailable: {exc}"
    return out


def _cmd_psi_approx(config: RunConfig) -> dict:
    import numpy as np

    p = config.parameters
    H = int(p["H"])
    grid_points = int(p.get("grid_points", 10_000))
    if grid_points < 1:
        raise InvalidArgumentError("psi-approx needs at least one grid point")
    approx = build_sawtooth_approximation(H)
    t = (np.arange(grid_points) + 0.5) / grid_points
    saw = t - np.floor(t) - 0.5
    main = approx.main_term(t)
    kernel = approx.error_kernel(t)
    err = np.abs(saw - main)
    return {
        "H": H,
        "grid_points": grid_points,
        "c1": approx.c1,
        "c2": approx.c2,
        "max_abs_error": float(err.max()),
        "mean_abs_error": float(err.mean()),
        "kernel_min": float(kernel.min()),
        "kernel_max": float(kernel.max()),
        "kernel_mean": float(kernel.mean()),
        "envelope_holds": bool(np.all(err <= kernel + 1e-12)),
    }


# parameters each expsum check cannot run without
_EXPSUM_REQUIRED = {
    "quadruples": ("M", "N", "theta"),
    "pairs": ("N", "X"),
    "bilinear": ("N", "H0"),
}


def _cmd_expsum_check(config: RunConfig) -> dict:
    p = config.parameters
    check = p.get("check", "pairs")
    if check not in _EXPSUM_REQUIRED:
        raise InvalidArgumentError(f"unknown expsum check {check!r}")
    missing = [f"--{name}" for name in _EXPSUM_REQUIRED[check] if p.get(name) is None]
    if missing:
        raise InvalidArgumentError(f"expsum check {check!r} needs {', '.join(missing)}")
    if check == "quadruples":
        rec = quadruple_count(
            int(p["M"]), int(p["N"]), float(p["theta"]),
            float(p.get("alpha", 0.5)), float(p.get("beta", 0.5)),
        )
    elif check == "pairs":
        B = generate_subset(
            int(p["N"]),
            p.get("kind", "full"),
            density=p.get("density"),
            seed=config.seed,
        )
        rec = pair_count(B, float(p["X"]))
    else:
        N = int(p["N"])
        A = generate_subset(N, p.get("kind", "full"), density=p.get("density"), seed=config.seed)
        B = generate_subset(
            N, p.get("kind", "full"), density=p.get("density"), seed=config.seed + 1
        )
        rec = bilinear_sum_check(
            int(p["H0"]), A, B, d=int(p.get("d", 1)), weights=p.get("weights", "unit")
        )
    return {
        "check": rec.check,
        "params": rec.params,
        "measured_value": rec.measured_value,
        "bound_value": rec.bound_value,
        "ratio": rec.ratio,
    }


def _experiment_delta(p: dict, N: int) -> Fraction:
    if "delta" in p and p["delta"] is not None:
        return as_fraction(p["delta"])
    if "delta_exp" in p and p["delta_exp"] is not None:
        return as_fraction(float(N) ** -float(p["delta_exp"]))
    return Fraction(1, 20)


def _cmd_experiment(config: RunConfig) -> dict:
    p = config.parameters
    N = int(p["N"])
    kind = p.get("kind", "bernoulli" if p.get("density") else "full")
    density = p.get("density")
    t0 = time.perf_counter()
    A = generate_subset(N, kind, density=density, seed=config.seed)
    B = generate_subset(N, kind, density=density, seed=config.seed + 1)
    delta = _experiment_delta(p, N)
    k = int(p.get("k", 6))
    d_max = int(p.get("d_max", 100))
    max_pairs = int(p.get("max_pairs", 10**9))
    # checked before any work: z = (3N)^(1/(k+1)) is undefined at k = -1
    if k < 0:
        raise InvalidArgumentError("almost-prime order k must be nonnegative")
    if d_max < 1:
        raise InvalidArgumentError("d_max must be at least 1")

    nsc = count_near_squares(A, B, delta, max_pairs=max_pairs)
    dec = sieve_decomposition(nsc, len(A), len(B), d_max)
    table = build_prime_table(2 * N + 2)
    z = (3.0 * N) ** (1.0 / (k + 1))
    sifted = sifting_function(nsc, z, table)
    almost = almost_prime_count(nsc, k, table)
    residual = normalized_residual(A, B, delta, nsc=nsc)
    elapsed = time.perf_counter() - t0

    truncated = {str(d): dec.counts[d] for d in sorted(dec.counts)[:20]}
    report = {
        "config": {
            "N": N,
            "kind": kind,
            "density": density,
            "delta": fraction_str(nsc.delta),
            "delta_float": nsc.delta_float,
            "k": k,
            "d_max": d_max,
            "seed": config.seed,
        },
        "sizes": {"A": len(A), "B": len(B)},
        "H": nsc.H_count,
        "distinct": nsc.distinct_count,
        "X": float(dec.X),
        "residual": residual,
        "main_term_dominant": main_term_dominant(A, B),
        "boundary_margin": nsc.boundary_margin if nsc.pair_total else None,
        "exact_fallbacks": nsc.exact_fallbacks,
        "sifted": sifted,
        "almost_prime": {"k": k, "multiset": almost.multiset_count, "distinct": almost.distinct_count},
        "scaled_remainder_max_d50": dec.scaled_remainder_max(50),
        "sieve_counts_by_d": truncated,
    }
    if p.get("timing"):
        report["timing_seconds"] = elapsed
    return report


def _sweep_rows(config: RunConfig, skip: int = 0) -> tuple[list[str], list[list], int]:
    """Header, computed rows after ``skip`` completed ones, and the grid size."""
    p = config.parameters
    target = p.get("target", "constant")
    if target == "constant":
        k = int(p.get("k", 4))
        start = float(p.get("delta_start", 1e-4))
        end = float(p.get("delta_end", 0.0121))
        step = float(p.get("delta_step", 1e-4))
        if not all(map(math.isfinite, (start, end, step))):  # the grid loop would never end
            raise InvalidArgumentError("sweep delta grid needs a finite start, end and step")
        if step <= 0:
            raise InvalidArgumentError("sweep step must be positive")
        deltas = []
        j = 0
        while True:
            d = start + j * step
            if d > end + 1e-15:
                break
            deltas.append(d)
            j += 1
        header = ["delta", "k", "value", "value_unsimplified", "discrepancy", "quad_error"]
        args = [(d, k) for d in deltas]
        fn = _constant_row
    elif target == "residual":
        n_list = [int(x) for x in p.get("N_list", [1000])]
        seeds = p.get("seeds", [0])
        density = p.get("density")
        delta = p.get("delta", "0.05")
        header = ["N", "seed", "size_A", "size_B", "H", "residual"]
        args = [(n, s, density, str(delta)) for n in n_list for s in seeds]
        fn = _residual_row
    elif target == "remainder":
        header = ["N", "delta", "H", "X", "scaled_remainder_max"]
        args = [int(x) for x in p.get("N_list", [1000])]
        fn = _remainder_row
    elif target == "quadruples":
        sizes = [int(x) for x in p.get("sizes", [4, 8, 16, 32])]
        theta = float(p.get("theta", 1e-6))
        header = ["M", "N", "theta", "measured", "bound", "ratio"]
        args = [(m, theta) for m in sizes]
        fn = _quadruple_row
    elif target == "bilinear":
        sizes = [int(x) for x in p.get("sizes", [4, 8, 16, 32])]
        h0 = int(p.get("H0", 4))
        d = int(p.get("d", 1))
        header = ["N", "H0", "d", "measured", "bound", "ratio"]
        args = [(n, h0, d) for n in sizes]
        fn = _bilinear_row
    else:
        raise InvalidArgumentError(f"unknown sweep target {target!r}")
    results = _parallel_map(fn, args[skip:], config.threads)
    return header, results, len(args)


def _constant_row(args) -> list:
    d, k = args
    rep = weighted_sieve_constant(d, k)
    return [sig12(d), k, rep.value, rep.value_unsimplified, rep.discrepancy, rep.quad_error]


def _residual_row(args) -> list:
    n, seed, density, delta = args
    if density:
        A = generate_subset(n, "bernoulli", density=float(density), seed=seed)
        B = generate_subset(n, "bernoulli", density=float(density), seed=seed + 1)
    else:
        A = generate_subset(n, "full")
        B = A
    nsc = count_near_squares(A, B, as_fraction(delta))
    res = normalized_residual(A, B, as_fraction(delta), nsc=nsc)
    return [n, seed, len(A), len(B), nsc.H_count, res]


def _remainder_row(n: int) -> list:
    # the decay statistic of acceptance criterion 9: full sets, window N^-0.05
    delta = float(n) ** -0.05
    A = generate_subset(n, "full")
    nsc = count_near_squares(A, A, delta, max_pairs=4 * 10**10)
    dec = sieve_decomposition(nsc, len(A), len(A), 50)
    return [n, delta, nsc.H_count, float(dec.X), dec.scaled_remainder_max()]


def _quadruple_row(args) -> list:
    m, theta = args
    rec = quadruple_count(m, m, theta, 0.5, 0.5)
    return [m, m, theta, rec.measured_value, rec.bound_value, rec.ratio]


def _bilinear_row(args) -> list:
    n, h0, d = args
    A = generate_subset(n, "full")
    rec = bilinear_sum_check(h0, A, A, d=d)
    return [n, h0, d, rec.measured_value, rec.bound_value, rec.ratio]


def _parallel_map(fn, args, threads: int) -> list:
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with Pool(processes=threads) as pool:
        return pool.map(fn, args)  # ordered, deterministic merge


def _cmd_sweep(config: RunConfig) -> str:
    checkpoint = config.parameters.get("checkpoint")
    done = 0
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            try:
                done = int(fh.read().strip() or 0)
            except ValueError:
                done = 0
    header, rows, total = _sweep_rows(config, skip=done)
    if checkpoint:
        with open(checkpoint, "w") as fh:
            fh.write(str(total))
    return csv_text(header, rows)


# subcommand -> (handler, parameters it cannot run without); a handler returns
# a report dict, or CSV text (sweep).  expsum-check checks its per-check
# parameters itself (_EXPSUM_REQUIRED).
COMMANDS = {
    "sieve-fn": (_cmd_sieve_fn, ()),
    "mertens": (_cmd_mertens, ("z",)),
    "constant": (_cmd_constant, ("k", "delta")),
    "threshold": (_cmd_threshold, ()),
    "psi-approx": (_cmd_psi_approx, ("H",)),
    "expsum-check": (_cmd_expsum_check, ()),
    "experiment": (_cmd_experiment, ("N",)),
    "sweep": (_cmd_sweep, ()),
}


def dispatch(config: RunConfig) -> int:
    """Run one command and emit exactly one report; returns the exit code."""
    if config.command not in COMMANDS:
        sys.stderr.write(f"error: unknown command {config.command!r}\n")
        return EXIT_USAGE
    handler, required = COMMANDS[config.command]
    try:
        missing = [f"--{name}" for name in required if config.parameters.get(name) is None]
        if missing:
            raise InvalidArgumentError(f"{config.command} needs {', '.join(missing)}")
        out = handler(config)
        text = out if isinstance(out, str) else _format_report(out, config)
        _emit(text, config)
        return 0
    except NearsqError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exit_code_for(exc)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
    sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
    sub.add_argument("--output", default=None, help="output file (default: stdout)")
    sub.add_argument("--threads", type=int, default=1, help="worker pool size for sweeps")
    sub.add_argument("--config", default=None, help="JSON config file; wins over flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearsq",
        description="Near-square product counts, linear-sieve density functions, "
        "and explicit weighted-sieve constants.",
    )
    subs = parser.add_subparsers(dest="command")

    s = subs.add_parser(
        "sieve-fn",
        help="tabulate the linear-sieve density pair",
        description="Tabulates the density pair solving (u F)' = f(u-1), "
        "(u f)' = F(u-1) with F = 2 e^gamma / u and f = 0 on (0, 2].",
    )
    s.add_argument("--u-max", dest="u_max", type=float, default=10.0)
    s.add_argument("--step", type=float, default=1e-3)
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--query", type=float, nargs="*", default=None)
    s.add_argument("--dump-csv", dest="dump_csv", default=None)
    _add_common(s)

    s = subs.add_parser(
        "mertens",
        help="exact prime product prod_{p<z} (1 - 1/p)",
        description="Evaluates prod_{p<z} (1 - 1/p) exactly and compares it "
        "to the asymptotic value e^{-gamma} / log z.",
    )
    s.add_argument("--z", type=float, required=True)
    _add_common(s)

    s = subs.add_parser(
        "constant",
        help="weighted-sieve constant C(delta, k)",
        description="Evaluates C(delta,k) = 6/(1-2 delta) * (log(4-10 delta) "
        "+ int_2^{3-10 delta} (log(s-1)/s) log((4-10 delta)/(s+1)) ds - half the "
        "mid-range prime upper term) as one single-integral formula with two "
        "log arguments: the printed one (value) and the one re-derived from the "
        "double integrals by Fubini (value_unsimplified).",
    )
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--tol", type=float, default=1e-9)
    _add_common(s)

    s = subs.add_parser(
        "threshold",
        help="minimal almost-prime order and admissible window range",
        description="Computes k = floor(2 / ((eta+beta)/2 - 2/3 - 2 delta/3)), "
        "the level exponent alpha = ((eta+beta)/2 - 2/3 - 2 delta/3)/(eta+beta-delta) - eps, "
        "the admissible delta interval for that k, and the reconstructed "
        "lower-bound constant 2(k+1) e^{-gamma} f(alpha (k+1)(eta+beta-delta)).",
    )
    s.add_argument("--eta", default="1")
    s.add_argument("--beta", default="1")
    s.add_argument("--delta", default="0")
    s.add_argument("--eps", default="0")
    _add_common(s)

    s = subs.add_parser(
        "psi-approx",
        help="sawtooth trigonometric approximation diagnostics",
        description="Builds the degree-H sawtooth approximation (main "
        "coefficients of size 1/h, nonnegative Fejer-type error kernel with "
        "coefficients of size 1/H) and measures its pointwise envelope.",
    )
    s.add_argument("--H", type=int, required=True)
    s.add_argument("--grid-points", dest="grid_points", type=int, default=10_000)
    _add_common(s)

    s = subs.add_parser(
        "expsum-check",
        help="measured-vs-bound records for oscillation counts",
        description="Brute-force checks: quadruples with |(m'/m)^a - (n'/n)^b| "
        "< theta against M N log(2MN) + theta M^2 N^2; root pairs with "
        "|sqrt(b) - sqrt(b')| < 1/(2X) against (1 + 2 sqrt(2N)/X)|B|; and the "
        "bilinear sum |sum_{h ~ H0} sum_{a,b} e(h sqrt(ab)/d)| against "
        "N H0 (|A||B|)^{1/4} (1 + sqrt(d/H0)) log^{1/2}(2 N H0).",
    )
    s.add_argument("--check", choices=("quadruples", "pairs", "bilinear"), required=True)
    s.add_argument("--M", type=int)
    s.add_argument("--N", type=int)
    s.add_argument("--theta", type=float)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=0.5)
    s.add_argument("--X", type=float)
    s.add_argument("--H0", type=int)
    s.add_argument("--d", type=int, default=1)
    s.add_argument("--kind", default="full")
    s.add_argument("--density", type=float, default=None)
    s.add_argument("--weights", choices=("unit", "adversarial"), default="unit")
    _add_common(s)

    s = subs.add_parser(
        "experiment",
        help="full counting experiment on generated subsets",
        description="Generates subsets of (N, 2N], counts pairs with "
        "sqrt(ab) within delta of an integer exactly, decomposes the rounded "
        "values by divisibility (counts[d] = 2 delta |A||B| / d + remainder), "
        "sifts them, and reports the normalized residual of the main term.",
    )
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--kind", default=None)
    s.add_argument("--density", type=float, default=None)
    s.add_argument("--delta", default=None, help="window as a rational, e.g. 1/20 or 0.05")
    s.add_argument("--delta-exp", dest="delta_exp", type=float, default=None,
                   help="window N^(-delta_exp), snapped to an exact rational")
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--d-max", dest="d_max", type=int, default=100)
    s.add_argument("--max-pairs", dest="max_pairs", type=int, default=10**9)
    s.add_argument("--timing", action="store_true")
    _add_common(s)

    s = subs.add_parser(
        "sweep",
        help="grid sweeps emitting one CSV row per point",
        description="Deterministic grid sweeps: constant (C(delta,k) over a "
        "delta grid), residual (normalized residuals over N and seeds), "
        "remainder (max over d <= 50 of d |r(d)| / X for full sets with "
        "window N^-0.05, over N), quadruples and bilinear (doubling-size "
        "bound-ratio records).",
    )
    s.add_argument("--target", required=True,
                   choices=("constant", "residual", "remainder", "quadruples", "bilinear"))
    s.add_argument("--k", type=int, default=4)
    s.add_argument("--delta-start", dest="delta_start", type=float, default=1e-4)
    s.add_argument("--delta-end", dest="delta_end", type=float, default=0.0121)
    s.add_argument("--delta-step", dest="delta_step", type=float, default=1e-4)
    s.add_argument("--N-list", dest="N_list", default="1000")
    s.add_argument("--seeds", default="0", help="comma list or a:b range")
    s.add_argument("--delta", default="0.05")
    s.add_argument("--density", type=float, default=None)
    s.add_argument("--sizes", default="4,8,16,32")
    s.add_argument("--theta", type=float, default=1e-6)
    s.add_argument("--H0", type=int, default=4)
    s.add_argument("--d", type=int, default=1)
    s.add_argument("--checkpoint", default=None)
    _add_common(s)

    return parser


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b)))
    return [int(x) for x in text.split(",") if x != ""]


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    skip = {"command", "seed", "format", "output", "threads", "config"}
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    if "N_list" in params:
        params["N_list"] = [int(x) for x in str(params["N_list"]).split(",")]
    if "seeds" in params:
        params["seeds"] = _parse_seeds(str(params["seeds"]))
    if "sizes" in params:
        params["sizes"] = [int(x) for x in str(params["sizes"]).split(",")]
    config = RunConfig(
        command=args.command,
        parameters=params,
        seed=args.seed,
        output_format=args.format,
        output_path=args.output,
        threads=args.threads,
    )
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        clashes = [k for k in overrides if k != "parameters"]
        if overrides.get("parameters"):
            clashes += list(overrides["parameters"])
        if clashes:
            sys.stderr.write(
                f"warning: config file overrides flags for: {', '.join(sorted(set(clashes)))}\n"
            )
        config.parameters.update(overrides.get("parameters", {}))
        for key in ("command", "seed", "output_format", "output_path", "threads"):
            if key in overrides:
                setattr(config, key, overrides[key])
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return dispatch(_config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
