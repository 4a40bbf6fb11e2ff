"""Command-line driver: every module behind a subcommand with reproducible output.

Reports are deterministic: a fixed RunConfig yields byte-identical output
(stable key order, floats at 12 significant digits).  Timing is therefore
opt-in.  Module errors map to distinct exit codes: usage/invalid 2, regime
3, budget 4, accuracy 5, coverage 6, range 7.

``COMMANDS`` declares each parameter once.  argparse only splits argv into
strings; ``dispatch`` defaults, checks and converts every value the same way,
whether it came from a flag, a ``--config`` file or a RunConfig built in code,
and refuses a parameter that the run's mode (``--check``, ``--target``) does
not read.  A run is a command and its parameters, nothing else.  ``sweep`` adds no
computation of its own: each of its rows is one run of the command that
``SWEEPS`` names for its target, and its cells are keys of that run's report.
An ``experiment`` row calls the command's handler with ``roots=False``: it
skips the root analysis, which none of its cells read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import partial
from multiprocessing import Pool
from typing import Callable

import numpy as np

from .arith import as_fraction, build_prime_table
from .constants import (
    RegimeParams,
    alpha_level,
    delta_range,
    k_min,
    sieve_lower_constant,
    weighted_sieve_constant,
)
from .errors import (
    EXIT_USAGE,
    BudgetError,
    InvalidArgumentError,
    NearsqError,
    RegimeError,
    exit_code_for,
)
from .experiments import (
    PAIR_BUDGET_DEFAULT,
    almost_prime_count,
    check_base_N,
    check_d_max,
    check_delta,
    check_pair_budget,
    count_near_squares,
    generate_subset,
    main_term_dominant,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
)
from .expsum import (
    TERM_BUDGET,
    _cpu_count,
    bilinear_sum_check,
    build_sawtooth_approximation,
    check_bilinear_terms,
    pair_count,
    quadruple_count,
)
from .reports import csv_report, csv_text, flatten, fraction_str, json_report, table_text
from .sievefn import MERTENS_Z_BUDGET, build_sieve_table, mertens_product

OUTPUT_DIR_ENV = "NEARSQ_OUTPUT_DIR"
SWEEP_ROW_BUDGET = 10**4  # rows of one sweep; the criterion grids have 121 and 99


@dataclass
class RunConfig:
    """One run: a command and its unconverted parameters, keyed by ``Param.name``."""

    command: str
    parameters: dict = field(default_factory=dict)

REQUIRED = ...  # the default of a parameter that every run reading it must give


@dataclass(frozen=True)
class Param:
    """One parameter of one command: its flag, converter, default and choices.

    A command whose first parameter has choices runs in the mode it names.
    ``needed_by`` lists the modes that read the parameter, and is empty when
    every run reads it: a parameter given in any other mode is an error, and
    one whose default is ``REQUIRED`` is required in the modes that read it.
    With ``nargs``, ``convert`` reads each list item.
    """

    flag: str
    convert: Callable = str
    default: object = None
    needed_by: tuple = ()
    choices: tuple = ()
    nargs: str | None = None
    help: str | None = None

    @property
    def name(self) -> str:
        return self.flag[2:].replace("-", "_")


def _int(value) -> int:
    """An integer from its text or a JSON integer; int() would truncate 100.7 and read true as 1."""
    if isinstance(value, (bool, float)):
        raise TypeError(value)
    return int(value)


def _int_list(value) -> list[int]:
    """Comma-separated integers, or a list of integers from a config file."""
    return [_int(x) for x in (value.split(",") if isinstance(value, str) else value)]


def _seed_list(value) -> list[int]:
    """The seeds range(a, b) written ``a:b``, or what ``_int_list`` reads."""
    if isinstance(value, str) and ":" in value:
        a, b = value.split(":")
        return list(range(int(a), int(b)))
    return _int_list(value)


def _switch(value) -> bool:
    """A flag that takes no value; a config file gives true or false."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# --format -> writer of a report dict
FORMATS = {
    "json": json_report,
    "csv": csv_report,
    "table": table_text,
}


def _cmd_sieve_fn(p: dict) -> dict:
    table = build_sieve_table(p["u_max"], step=p["step"], tol=p["tol"])
    # the last grid point, which lies within step/2 of the requested u_max
    queries = p["query"] or [2.0, 3.0, 4.0, 5.0, 6.0, table.u_max]
    if p["dump_csv"]:
        table.dump_csv(p["dump_csv"])
    return {
        "u_max": table.u_max,
        "step": table.grid_step,
        "tol": p["tol"],
        "values": [{"u": u, "F": table.upper(u), "f": table.lower(u)} for u in queries],
        "csv_dump": p["dump_csv"],
    }


def _cmd_mertens(p: dict) -> dict:
    z = p["z"]
    # both checked before the prime table is sized from ceil(z)
    if not math.isfinite(z):
        raise InvalidArgumentError(f"mertens product needs a finite z, got {z}")
    if z > MERTENS_Z_BUDGET:
        raise BudgetError(f"mertens product z = {z} exceeds the budget of {MERTENS_Z_BUDGET}")
    table = build_prime_table(max(int(math.ceil(z)), 2))
    m = mertens_product(z, table)
    # omit astronomically long exact strings from reports
    exact = f"{m.numerator}/{m.denominator}" if m.denominator.bit_length() <= 256 else None
    return {
        "z": m.z,
        "product": m.value,
        "product_exact": exact,
        "asymptotic": m.asymptotic,
        "ratio": m.ratio,
    }


def _cmd_constant(p: dict) -> dict:
    report = weighted_sieve_constant(p["delta"], p["k"], tol=p["tol"])
    return {**asdict(report), "discrepancy_exceeds_tol": report.flagged}


def _cmd_threshold(p: dict) -> dict:
    params = RegimeParams(p["eta"], p["beta"], p["delta"], p["eps"])
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
        out.update(sieve_argument=rep.sieve_argument, constant=rep.constant_value,
                   constant_provenance="reconstructed")
    except RegimeError as exc:
        out.update(sieve_argument=None, constant=None, constant_provenance=f"unavailable: {exc}")
    return out


def _cmd_psi_approx(p: dict) -> dict:
    H, grid_points = p["H"], p["grid_points"]
    if grid_points < 1:
        raise InvalidArgumentError("psi-approx needs at least one grid point")
    # main_term and error_kernel each build a grid_points x H matrix
    if grid_points * H > TERM_BUDGET:
        raise BudgetError(f"{grid_points * H} sawtooth cells exceed the budget of {TERM_BUDGET}")
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


def _kind(p: dict) -> str:
    """A run's subset kind.  ``--density`` means Bernoulli sets: the default kind
    with it, and no other kind's."""
    density = p["density"]
    kind = p["kind"] or ("full" if density is None else "bernoulli")
    if density is not None and kind in ("full", "adversarial-spread"):
        raise InvalidArgumentError(f"--density draws Bernoulli sets, not --kind {kind}")
    return kind


def _subsets(p: dict, kind: str, count: int = 2) -> list:
    """A run's sets A and B of ``kind``, drawn with seeds ``seed`` and ``seed + 1``."""
    return [generate_subset(p["N"], kind, density=p["density"], seed=p["seed"] + i)
            for i in range(count)]


def _cmd_expsum_check(p: dict) -> dict:
    if p["check"] == "quadruples":
        rec = quadruple_count(p["M"], p["N"], p["theta"], p["alpha"], p["beta"])
    elif p["check"] == "pairs":
        rec = pair_count(_subsets(p, _kind(p), 1)[0], p["X"])
    else:
        kind = _kind(p)
        if kind == "full":  # |A| = |B| = N: the term budget holds before the draw
            check_bilinear_terms(p["H0"], p["d"], p["N"], p["N"])
        A, B = _subsets(p, kind)
        rec = bilinear_sum_check(p["H0"], A, B, d=p["d"], weights=p["weights"])
    return {**asdict(rec), "ratio": rec.ratio}


def _cmd_experiment(p: dict, roots: bool = True) -> dict:
    """The ``experiment`` report; without ``roots`` it has no ``sifted`` and
    ``almost_prime`` keys and builds no prime table (sweep rows read neither)."""
    t0 = time.perf_counter()
    N, k, d_max, delta = p["N"], p["k"], p["d_max"], p["delta"]
    # every check runs before the subsets are drawn
    if p["delta_exp"] is not None and delta is not None:
        raise InvalidArgumentError("experiment takes --delta or --delta-exp, not both")
    check_base_N(N)
    if p["delta_exp"] is not None:
        if not p["delta_exp"] > 0:  # N^-x would be at least 1, or overflow
            raise InvalidArgumentError("experiment --delta-exp must be positive")
        delta = as_fraction(N ** -p["delta_exp"])
    if delta is None:
        delta = Fraction(1, 20)
    # z = (3N)^(1/(k+1)) is undefined at k = -1
    if k < 0:
        raise InvalidArgumentError("almost-prime order k must be nonnegative")
    check_d_max(d_max)
    kind = _kind(p)
    check_delta(delta)
    if kind == "full":  # |A||B| = N^2: the pair budget holds before the draw
        check_pair_budget(N * N, p["max_pairs"])

    A, B = _subsets(p, kind)
    nsc = count_near_squares(A, B, delta, max_pairs=p["max_pairs"])
    dec = sieve_decomposition(nsc, len(A), len(B), d_max)
    report = {
        "config": {
            "N": N,
            "kind": kind,
            "density": p["density"],
            "delta": fraction_str(nsc.delta),
            "delta_float": nsc.delta_float,
            "k": k,
            "d_max": d_max,
            "seed": p["seed"],
        },
        "sizes": {"A": len(A), "B": len(B)},
        "H": nsc.H_count,
        "distinct": nsc.distinct_count,
        "X": float(dec.X),
        "residual": normalized_residual(A, B, delta, nsc=nsc),
        "main_term_dominant": main_term_dominant(A, B),
        "boundary_margin": nsc.boundary_margin if nsc.pair_total else None,
        "exact_fallbacks": nsc.exact_fallbacks,
    }
    if roots:
        table = build_prime_table(2 * N + 2)
        report["sifted"] = sifting_function(nsc, (3.0 * N) ** (1.0 / (k + 1)), table)
        almost = almost_prime_count(nsc, k, table)
        report["almost_prime"] = {"k": k, "multiset": almost.multiset_count,
                                  "distinct": almost.distinct_count}
    report["scaled_remainder_max_d50"] = dec.scaled_remainder_max(50)
    report["sieve_counts_by_d"] = {str(d): dec.counts[d] for d in sorted(dec.counts)[:20]}
    if p["timing"]:
        report["timing_seconds"] = time.perf_counter() - t0
    return report


def _cmd_sweep(p: dict) -> str:
    """CSV of one row per grid point, skipping the rows a checkpoint records as done."""
    target = p["target"]
    if target == "constant":
        start, end, step = p["delta_start"], p["delta_end"], p["delta_step"]
        if not all(map(math.isfinite, (start, end, step))):  # the grid loop would never end
            raise InvalidArgumentError("sweep delta grid needs a finite start, end and step")
        if step <= 0:
            raise InvalidArgumentError("sweep step must be positive")
        # the points rise with j, so the rows are a prefix; one point over the
        # budget is enough to refuse, and stops a step lost to rounding
        grid = (start + j * step for j in range(SWEEP_ROW_BUDGET + 1))
        runs = [{"k": p["k"], "delta": d} for d in grid if d <= end + 1e-15]
    elif target == "residual":
        runs = [{"N": n, "seed": s, "density": p["density"], "delta": p["delta"]}
                for n in p["N_list"] for s in p["seeds"]]
    elif target == "remainder":
        # the decay statistic of acceptance criterion 9: full sets, window N^-0.05
        runs = [{"N": n, "kind": "full", "delta_exp": 0.05, "d_max": 50, "max_pairs": 4 * 10**10}
                for n in p["N_list"]]
    elif target == "quadruples":
        runs = [{"check": "quadruples", "M": m, "N": m, "theta": p["theta"]} for m in p["sizes"]]
    else:
        runs = [{"check": "bilinear", "N": n, "H0": p["H0"], "d": p["d"]} for n in p["sizes"]]
    if len(runs) > SWEEP_ROW_BUDGET:
        raise BudgetError(f"sweep of more than {SWEEP_ROW_BUDGET} rows exceeds the row budget")
    checkpoint, done = p["checkpoint"], 0
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            text = fh.read().strip()
        done = int(text) if text.isdigit() else 0  # an unreadable count resumes from 0
    rows = _parallel_map(_sweep_row, [(target, run) for run in runs[done:]], p["threads"])
    if checkpoint:
        with open(checkpoint, "w") as fh:
            fh.write(str(len(runs)))
    return csv_text(list(SWEEPS[target][2]), rows)


def _sweep_row(task: tuple) -> list:
    """The cells of one run's report, each named by a dotted key such as ``sizes.A``."""
    target, run = task
    command, handler, columns = SWEEPS[target]
    flat = flatten(handler(_resolve(RunConfig(command, run), COMMANDS[command][3])))
    return [flat[key] for key in columns.values()]


def _parallel_map(fn, args, threads: int) -> list:
    workers = min(threads, len(args), _cpu_count())  # at most one process per row and per CPU
    if workers <= 1:
        return [fn(a) for a in args]
    with Pool(processes=workers) as pool:
        return pool.map(fn, args)  # ordered, deterministic merge


# sweep target -> (command whose parameters a row takes, handler that makes the
# row's report, {CSV column: key of that report}).  Experiment rows read no
# root analysis, so their handler skips it.
SWEEPS = {
    "constant": ("constant", _cmd_constant,
                 {c: c for c in ("delta", "k", "value", "value_unsimplified", "discrepancy",
                                 "quad_error")}),
    "residual": ("experiment", partial(_cmd_experiment, roots=False),
                 {"N": "config.N", "seed": "config.seed", "size_A": "sizes.A",
                  "size_B": "sizes.B", "H": "H", "residual": "residual"}),
    "remainder": ("experiment", partial(_cmd_experiment, roots=False),
                  {"N": "config.N", "delta": "config.delta_float", "H": "H", "X": "X",
                   "scaled_remainder_max": "scaled_remainder_max_d50"}),
    "quadruples": ("expsum-check", _cmd_expsum_check,
                   {"M": "params.M", "N": "params.N", "theta": "params.theta",
                    "measured": "measured_value", "bound": "bound_value", "ratio": "ratio"}),
    "bilinear": ("expsum-check", _cmd_expsum_check,
                 {"N": "params.N", "H0": "params.H0", "d": "params.d",
                  "measured": "measured_value", "bound": "bound_value", "ratio": "ratio"}),
}

SEED = Param("--seed", _int, 0, help="deterministic RNG seed")
DENSITY = Param("--density", float, help="Bernoulli subsets of this density")
KIND = Param("--kind", help="subset kind (default: bernoulli with --density, else full)")
OUTPUT = Param("--output", help="output file (default: stdout)")
REPORT = (Param("--format", default="json", choices=tuple(FORMATS)), OUTPUT)

# subcommand -> (handler, help, description, parameters).  A handler takes the
# converted parameters and returns a report dict, or CSV text (sweep).
COMMANDS = {
    "sieve-fn": (
        _cmd_sieve_fn,
        "tabulate the linear-sieve density pair",
        "Tabulates the density pair solving (u F)' = f(u-1), "
        "(u f)' = F(u-1) with F = 2 e^gamma / u and f = 0 on (0, 2].",
        (
            Param("--u-max", float, 10.0),
            Param("--step", float, 1e-3),
            Param("--tol", float, 1e-6),
            Param("--query", float, nargs="*"),
            Param("--dump-csv"),
            *REPORT,
        ),
    ),
    "mertens": (
        _cmd_mertens,
        "exact prime product prod_{p<z} (1 - 1/p)",
        "Evaluates prod_{p<z} (1 - 1/p) exactly and compares it "
        "to the asymptotic value e^{-gamma} / log z.",
        (Param("--z", float, REQUIRED), *REPORT),
    ),
    "constant": (
        _cmd_constant,
        "weighted-sieve constant C(delta, k)",
        "Evaluates C(delta,k) = 6/(1-2 delta) * (log(4-10 delta) "
        "+ int_2^{3-10 delta} (log(s-1)/s) log((4-10 delta)/(s+1)) ds - half the "
        "mid-range prime upper term) as one single-integral formula with two "
        "log arguments: the printed one (value) and the one re-derived from the "
        "double integrals by Fubini (value_unsimplified).",
        (
            Param("--k", _int, REQUIRED),
            Param("--delta", float, REQUIRED),
            Param("--tol", float, 1e-9),
            *REPORT,
        ),
    ),
    "threshold": (
        _cmd_threshold,
        "minimal almost-prime order and admissible window range",
        "Computes k = floor(2 / ((eta+beta)/2 - 2/3 - 2 delta/3)), "
        "the level exponent alpha = ((eta+beta)/2 - 2/3 - 2 delta/3)/(eta+beta-delta) - eps, "
        "the admissible delta interval for that k, and the reconstructed "
        "lower-bound constant 2(k+1) e^{-gamma} f(alpha (k+1)(eta+beta-delta)).",
        (
            Param("--eta", as_fraction, "1"),
            Param("--beta", as_fraction, "1"),
            Param("--delta", as_fraction, "0"),
            Param("--eps", as_fraction, "0"),
            *REPORT,
        ),
    ),
    "psi-approx": (
        _cmd_psi_approx,
        "sawtooth trigonometric approximation diagnostics",
        "Builds the degree-H sawtooth approximation (main "
        "coefficients of size 1/h, nonnegative Fejer-type error kernel with "
        "coefficients of size 1/H) and measures its pointwise envelope.",
        (Param("--H", _int, REQUIRED), Param("--grid-points", _int, 10_000), *REPORT),
    ),
    "expsum-check": (
        _cmd_expsum_check,
        "measured-vs-bound records for oscillation counts",
        "Brute-force checks: quadruples with |(m'/m)^a - (n'/n)^b| "
        "< theta against M N log(2MN) + theta M^2 N^2; root pairs with "
        "|sqrt(b) - sqrt(b')| < 1/(2X) against (1 + 2 sqrt(2N)/X)|B|; and the "
        "bilinear sum |sum_{h ~ H0} sum_{a,b} e(h sqrt(ab)/d)| against "
        "N H0 (|A||B|)^{1/4} (1 + sqrt(d/H0)) log^{1/2}(2 N H0).",
        (
            Param("--check", default="pairs", choices=("quadruples", "pairs", "bilinear")),
            Param("--M", _int, REQUIRED, ("quadruples",)),
            Param("--N", _int, REQUIRED),
            Param("--theta", float, REQUIRED, ("quadruples",)),
            Param("--alpha", float, 0.5, ("quadruples",)),
            Param("--beta", float, 0.5, ("quadruples",)),
            Param("--X", float, REQUIRED, ("pairs",)),
            Param("--H0", _int, REQUIRED, ("bilinear",)),
            Param("--d", _int, 1, ("bilinear",)),
            *(replace(prm, needed_by=("pairs", "bilinear")) for prm in (KIND, DENSITY)),
            Param("--weights", default="unit", needed_by=("bilinear",),
                  choices=("unit", "adversarial")),
            replace(SEED, needed_by=("pairs", "bilinear")),
            *REPORT,
        ),
    ),
    "experiment": (
        _cmd_experiment,
        "full counting experiment on generated subsets",
        "Generates subsets of (N, 2N], counts pairs with "
        "sqrt(ab) within delta of an integer exactly, decomposes the rounded "
        "values by divisibility (counts[d] = 2 delta |A||B| / d + remainder), "
        "sifts them, and reports the normalized residual of the main term.",
        (
            Param("--N", _int, REQUIRED),
            KIND,
            DENSITY,
            Param("--delta", as_fraction, help="window as a rational, e.g. 1/20 (default) or 0.05"),
            Param("--delta-exp", float, help="window N^(-delta_exp), snapped to an exact rational"),
            Param("--k", _int, 6),
            Param("--d-max", _int, 100),
            Param("--max-pairs", _int, PAIR_BUDGET_DEFAULT),
            Param("--timing", _switch, False),
            SEED,
            *REPORT,
        ),
    ),
    "sweep": (
        _cmd_sweep,
        "grid sweeps emitting one CSV row per point",
        "Deterministic grid sweeps: constant (C(delta,k) over a "
        "delta grid), residual (normalized residuals over N and seeds), "
        "remainder (max over d <= 50 of d |r(d)| / X for full sets with "
        "window N^-0.05, over N), quadruples and bilinear (doubling-size "
        "bound-ratio records).  Always writes CSV.",
        (
            Param("--target", default="constant", choices=tuple(SWEEPS)),
            Param("--k", _int, 4, ("constant",)),
            Param("--delta-start", float, 1e-4, ("constant",)),
            Param("--delta-end", float, 0.0121, ("constant",)),
            Param("--delta-step", float, 1e-4, ("constant",)),
            Param("--N-list", _int_list, "1000", ("residual", "remainder")),
            Param("--seeds", _seed_list, "0", ("residual",), help="comma list or a:b range"),
            Param("--delta", as_fraction, "0.05", ("residual",)),
            replace(DENSITY, needed_by=("residual",)),
            Param("--sizes", _int_list, "4,8,16,32", ("quadruples", "bilinear")),
            Param("--theta", float, 1e-6, ("quadruples",)),
            Param("--H0", _int, 4, ("bilinear",)),
            Param("--d", _int, 1, ("bilinear",)),
            Param("--checkpoint"),
            Param("--threads", _int, 1, help="worker pool size"),
            OUTPUT,
        ),
    ),
}


def _convert(command: str, prm: Param, value):
    try:
        if prm.nargs and not isinstance(value, list):
            raise TypeError(value)
        converted = [prm.convert(v) for v in value] if prm.nargs else prm.convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise InvalidArgumentError(f"{command} {prm.flag}: invalid value {value!r}") from None
    if prm.choices and converted not in prm.choices:
        raise InvalidArgumentError(
            f"unknown {prm.name} {converted!r} for {command}; choose from {', '.join(prm.choices)}"
        )
    return converted


def _resolve(config: RunConfig, params: tuple) -> dict:
    """Every parameter of the command, converted or defaulted; raises on a name
    the command does not declare, on a value that does not convert, on a
    parameter its mode does not read and on a missing required parameter."""
    unknown = set(config.parameters) - {prm.name for prm in params}
    if unknown:
        raise InvalidArgumentError(f"unknown parameter {', '.join(sorted(unknown))} "
                                   f"for {config.command}")
    p = {}
    for prm in params:
        value = config.parameters.get(prm.name)
        if value is None and prm.default is not REQUIRED:
            value = prm.default
        p[prm.name] = None if value is None else _convert(config.command, prm, value)
    mode = p[params[0].name] if params[0].choices else None
    # "experiment needs --N", or per mode: "expsum check 'pairs' needs --X"
    who = f"{config.command.replace('-', ' ')} {mode!r}" if mode else config.command
    read = {prm.name for prm in params if not prm.needed_by or mode in prm.needed_by}
    unread = [prm.flag for prm in params if prm.name not in read
              and config.parameters.get(prm.name) is not None]
    if unread:
        raise InvalidArgumentError(f"{who} does not read {', '.join(unread)}")
    missing = [prm.flag for prm in params if prm.name in read and p[prm.name] is None
               and prm.default is REQUIRED]
    if missing:
        raise InvalidArgumentError(f"{who} needs {', '.join(missing)}")
    return p


def _fail(exc: NearsqError) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return exit_code_for(exc)


def dispatch(config: RunConfig) -> int:
    """Run one command and emit exactly one report; returns the exit code."""
    try:
        if config.command not in COMMANDS:
            raise InvalidArgumentError(f"unknown command {config.command!r}")
        handler, _, _, params = COMMANDS[config.command]
        p = _resolve(config, params)
        out = handler(p)
        _emit(out if isinstance(out, str) else FORMATS[p["format"]](out), p["output"])
        return 0
    except NearsqError as exc:
        return _fail(exc)
    except OSError as exc:  # an unwritable --output, --dump-csv or --checkpoint
        return _fail(InvalidArgumentError(str(exc)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearsq",
        description="Near-square product counts, linear-sieve density functions, "
        "and explicit weighted-sieve constants.",
    )
    subs = parser.add_subparsers(dest="command")
    for command, (_, help_text, description, params) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text, description=description)
        for prm in params:
            if prm.convert is _switch:
                how = {"action": "store_true", "default": None}
            else:
                how = {"nargs": prm.nargs, "choices": prm.choices or None}
            # e.g. "required, only with --check quadruples"
            only = prm.needed_by and f"only with {params[0].flag} {' or '.join(prm.needed_by)}"
            text = "required" if prm.default is REQUIRED else prm.help
            sub.add_argument(prm.flag, dest=prm.name, **how,
                             help=", ".join(filter(None, (text, only))) or None)
        sub.add_argument("--config", help="JSON config file; wins over flags")
    return parser


def _read_config(path: str) -> dict:
    """The parameters of a config file, which holds one JSON object {"parameters": {...}}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config file: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InvalidArgumentError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) - {"parameters"} \
            or not isinstance(doc.get("parameters", {}), dict):
        raise InvalidArgumentError(
            f'config file {path} must be a JSON object {{"parameters": {{name: value, ...}}}}')
    return doc.get("parameters", {})


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {k: v for k, v in vars(args).items() if v is not None}
    command, path = given.pop("command"), given.pop("config", None)
    if path:
        from_file = _read_config(path)
        clashes = sorted(set(from_file) & set(given))
        if clashes:
            sys.stderr.write(f"warning: config file overrides flags for: {', '.join(clashes)}\n")
        given.update(from_file)
    return RunConfig(command, given)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return dispatch(_config_from_args(args))
    except NearsqError as exc:  # an unreadable --config file; dispatch reports its own errors
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
