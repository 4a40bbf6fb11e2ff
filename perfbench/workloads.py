"""The four benchmark workloads: their inputs, their fixed operation lists and their checks.

Each workload draws its inputs from the run's seed in ``setup`` (the only
place ``generate_subset`` is called), then ``ops()`` lists the operations of
one job.  An operation's ``run`` makes the public calls, each inside a span
named after the layer it enters; its ``check`` compares the output with an
independent reference from ``oracles`` and returns the problems found.
Checks run after the job, outside every timed region.  Why each workload
exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracles
from nearsq import cli
from nearsq.arith import as_fraction, build_prime_table
from nearsq.constants import RegimeParams, sieve_lower_constant, weighted_sieve_constant
from nearsq.experiments import (
    almost_prime_count,
    count_near_squares,
    generate_subset,
    main_term_dominant,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
    weighted_sum,
)
from nearsq.expsum import bilinear_sum_check, pair_count, quadruple_count
from nearsq.sievefn import build_sieve_table, lower_closed, mertens_product

K_ALMOST = 6  # almost-prime order of the CLI experiment
K_WEIGHTED = 4
D_MAX = 100
BERNOULLI_DENSITY = 0.9  # of the A != B sets of dense-count
WINDOW_SAMPLES = 16  # rounded roots per instance recounted with exact windows

# exact H of the full set with A = B, from the seed commit
PINNED_H = {
    (5000, "N^-0.05"): 32_757_134,
    (5000, "1/20"): 2_648_810,
}
CLI_N = 5000  # `nearsq experiment --kind full --N 5000`: window 1/20, k = 6
CLI_PINNED_H = {5000: 2_648_810}
# bilinear ratios: the two large full-set checks pinned at the seed commit,
# and the doubling sweep frozen in acceptance criterion 8
BILINEAR_PINNED = {(2000, 4, "unit"): 0.09925013941328598, (1000, 8, "adversarial"): 0.08187824672453747}
BILINEAR_SWEEP_RATIOS = {4: 0.237297, 8: 0.215248, 16: 0.186360, 32: 0.168926}
QUADRUPLE_SWEEP_COUNTS = {4: 28, 8: 128, 16: 540, 32: 2384}
C4_FLOOR = 0.0023205  # criterion 1: C(delta, 4) on its grid stays above this


@dataclass
class Op:
    kind: str
    run: Callable[[Any, dict], Any]
    check: Callable[[Any], list[str]]
    work: Callable[[Any], int]


def child_seeds(seed: int, n: int) -> list[int]:
    """Independent integer seeds, so no two inputs of a run share a stream."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _close(x: float, ref: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= tol


# ---------------------------------------------------------------- counting


@dataclass
class Instance:
    """One (A, B, window) experiment input."""

    key: str
    N: int
    A: Any
    B: Any
    delta: Fraction
    pinned_H: int | None = None


@dataclass
class ExperimentResult:
    nsc: Any
    dec: Any
    sifted: int
    almost: Any
    weighted: Fraction
    residual: float
    spf_bytes: int


def run_experiment(tr, inst: Instance) -> ExperimentResult:
    """The CLI experiment as library calls, plus the weighted sum."""
    N, A, B = inst.N, inst.A, inst.B
    with tr.span("arith.build_prime_table") as c:
        table = build_prime_table(2 * N + 2)
        c["limit"] = table.limit
    with tr.span("experiments.count_near_squares") as c:
        nsc = count_near_squares(A, B, inst.delta)
        c.update(pairs=nsc.pair_total, exact_fallbacks=nsc.exact_fallbacks, hits=nsc.H_count)
    with tr.span("experiments.sieve_decomposition"):
        dec = sieve_decomposition(nsc, len(A), len(B), D_MAX)
    z = (3.0 * N) ** (1.0 / (K_ALMOST + 1))
    with tr.span("experiments.sifting_function"):
        sifted = sifting_function(nsc, z, table)
    with tr.span("experiments.almost_prime_count") as c:
        almost = almost_prime_count(nsc, K_ALMOST, table)
        c["values"] = nsc.distinct_count
    with tr.span("experiments.weighted_sum") as c:
        weighted = weighted_sum(nsc, K_WEIGHTED, table)
        c["values"] = nsc.distinct_count
    with tr.span("experiments.normalized_residual"):
        residual = normalized_residual(A, B, inst.delta, nsc=nsc)
    spf_bytes = table.spf.nbytes if table.spf is not None else 0
    return ExperimentResult(nsc, dec, sifted, almost, weighted, residual, spf_bytes)


class ExperimentChecker:
    """Checks experiment outputs; references are computed once per instance and cached.

    Each instance's reference multiplicities come from
    ``oracles.reference_multiplicities``, cross-checked with exact windows
    at roots sampled from them and with the pinned H where there is one.
    Every result must give exactly those multiplicities, and the root
    analysis is checked against references built from them, so no reference
    depends on the counter under test.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.spf: dict[int, np.ndarray] = {}
        self.refs: dict[str, dict] = {}
        self.working_set = {"B_bytes": 0, "multiplicities_bytes": 0, "spf_bytes": 0}

    def _references(self, inst: Instance) -> dict:
        values, mults = oracles.reference_multiplicities(inst.A.elements, inst.B.elements, inst.delta)
        problems = []
        if inst.pinned_H is not None and int(mults.sum()) != inst.pinned_H:
            problems.append(f"{inst.key}: reference H {int(mults.sum())} != pinned {inst.pinned_H}")
        b_sorted = [int(b) for b in inst.B.elements]
        num, den = inst.delta.numerator, inst.delta.denominator
        for i in self.rng.integers(0, len(values), size=WINDOW_SAMPLES if len(values) else 0):
            l, want = int(values[i]), int(mults[i])
            exact = oracles.exact_window_count(inst.A.elements, b_sorted, num, den, l)
            if exact != want:
                problems.append(f"{inst.key}: reference multiplicity at l={l} is {want}, exact window gives {exact}")
        limit = 2 * inst.N + 2
        if limit not in self.spf:
            self.spf[limit] = oracles.smallest_prime_factors(limit)
        z = (3.0 * inst.N) ** (1.0 / (K_ALMOST + 1))
        ref = oracles.rounded_root_refs(
            values, mults, inst.N, z, K_ALMOST, K_WEIGHTED, self.spf[limit], D_MAX
        )
        ref.update(values=values, mults=mults, H=int(mults.sum()), problems=problems)
        return ref

    def __call__(self, inst: Instance, res: ExperimentResult) -> list[str]:
        nsc, key = res.nsc, inst.key
        out = []
        ws = self.working_set
        ws["B_bytes"] = max(ws["B_bytes"], inst.B.elements.nbytes)
        ws["multiplicities_bytes"] = max(ws["multiplicities_bytes"], nsc.multiplicities.nbytes)
        ws["spf_bytes"] = max(ws["spf_bytes"], res.spf_bytes)
        if nsc.H_count != int(nsc.multiplicities.sum()):
            out.append(f"{key}: H is not the sum of the multiplicities")
        if nsc.distinct_count != int(np.count_nonzero(nsc.multiplicities)):
            out.append(f"{key}: distinct count disagrees with the multiplicities")
        if key not in self.refs:
            self.refs[key] = self._references(inst)
        ref = self.refs[key]
        out += ref["problems"]
        idx = np.nonzero(nsc.multiplicities)[0]
        values, mults = idx + nsc.l_offset, nsc.multiplicities[idx]
        if not (np.array_equal(values, ref["values"]) and np.array_equal(mults, ref["mults"])):
            got = dict(zip(values.tolist(), mults.tolist()))
            want = dict(zip(ref["values"].tolist(), ref["mults"].tolist()))
            wrong = sorted(l for l in got.keys() | want.keys() if got.get(l, 0) != want.get(l, 0))
            l = wrong[0]
            out.append(f"{key}: multiplicities differ from the reference count at {len(wrong)} roots, "
                       f"first at l={l}: {got.get(l, 0)} != {want.get(l, 0)}")
        if nsc.H_count != ref["H"]:
            out.append(f"{key}: H {nsc.H_count} != reference {ref['H']}")

        X = 2 * inst.delta * len(inst.A) * len(inst.B)
        dec = res.dec
        if dec.X != X:
            out.append(f"{key}: X = {dec.X} != 2 delta |A||B| = {X}")
        for d in range(1, D_MAX + 1):
            if dec.counts[d] != ref["divisor_counts"][d]:
                out.append(f"{key}: |A_{d}| = {dec.counts[d]} != {ref['divisor_counts'][d]}")
            if Fraction(dec.counts[d]) != dec.X / d + dec.remainders[d]:
                out.append(f"{key}: counts[{d}] != X/{d} + r({d})")
        if res.sifted != ref["sifted"]:
            out.append(f"{key}: sifted {res.sifted} != {ref['sifted']}")
        if (res.almost.multiset_count, res.almost.distinct_count) != (
            ref["almost_multiset"], ref["almost_distinct"]
        ):
            out.append(f"{key}: almost-prime counts {res.almost} disagree with {ref}")
        if res.weighted != ref["weighted"]:
            out.append(f"{key}: weighted sum {res.weighted} != {ref['weighted']}")
        if not res.sifted <= res.almost.multiset_count <= nsc.H_count:
            out.append(f"{key}: sifted <= almost-prime <= H fails")
        N, size = inst.N, len(inst.A) * len(inst.B)
        residual = float(nsc.H_count - X) / (N * size**0.25 * math.log(N) ** 1.5)
        if not _close(res.residual, residual, 1e-12 * max(1.0, abs(residual))):
            out.append(f"{key}: residual {res.residual} != {residual}")
        return out


def _windows(N: int) -> list[tuple[str, Fraction]]:
    # N^-0.05 is above 1/2 for N <= 10^6 and takes the two-sided branch
    return [("N^-0.05", as_fraction(float(N) ** -0.05)), ("1/20", Fraction(1, 20))]


class _CountingWorkload:
    work_unit = "pairs"

    def __init__(self):
        self.instances: list[Instance] = []
        self.checker: ExperimentChecker | None = None

    def _instances(self, tag, N, A, B, pinned=False) -> list[Instance]:
        return [
            Instance(f"{tag}/{name}", N, A, B, delta, PINNED_H.get((N, name)) if pinned else None)
            for name, delta in _windows(N)
        ]

    def _experiment_op(self, inst: Instance) -> Op:
        return Op(
            "experiment",
            lambda tr, state: run_experiment(tr, inst),
            lambda res: self.checker(inst, res),
            lambda res: res.nsc.pair_total,
        )

    def ops(self) -> list[Op]:
        return [self._experiment_op(inst) for inst in self.instances]

    def working_set(self) -> dict:
        return dict(self.checker.working_set)

    def traced_extras(self) -> dict:
        """Uncertified float recount of every instance: the floor for certified counting."""
        floor_s = 0.0
        for inst in self.instances:
            t0 = time.perf_counter()
            oracles.float_recount(inst.A.elements, inst.B.elements, float(inst.delta))
            floor_s += time.perf_counter() - t0
        return {"floor_s": floor_s}


def _cli_as_library(N: int) -> None:
    """What `nearsq experiment --kind full --N <N>` computes, as direct library calls."""
    A = generate_subset(N, "full", seed=0)
    B = generate_subset(N, "full", seed=1)
    delta = Fraction(1, 20)
    nsc = count_near_squares(A, B, delta)
    dec = sieve_decomposition(nsc, len(A), len(B), D_MAX)
    table = build_prime_table(2 * N + 2)
    z = (3.0 * N) ** (1.0 / (K_ALMOST + 1))
    sifting_function(nsc, z, table)
    almost_prime_count(nsc, K_ALMOST, table)
    normalized_residual(A, B, delta, nsc=nsc)
    main_term_dominant(A, B)
    dec.scaled_remainder_max(50)


class DenseCount(_CountingWorkload):
    """Full sets with A = B and Bernoulli(0.9) sets with A != B at N = 5000, plus one CLI run."""

    name = "dense-count"

    def __init__(self, N: int = 5000, cli_N: int = CLI_N):
        super().__init__()
        self.N, self.cli_N = N, cli_N
        self._cli_H: int | None = None

    def setup(self, seed: int, tr) -> None:
        N = self.N
        sa, sb = child_seeds(seed, 2)
        with tr.span("experiments.generate_subset"):
            full = generate_subset(N, "full")
        with tr.span("experiments.generate_subset"):
            A = generate_subset(N, "bernoulli", density=BERNOULLI_DENSITY, seed=sa)
        with tr.span("experiments.generate_subset"):
            B = generate_subset(N, "bernoulli", density=BERNOULLI_DENSITY, seed=sb)
        self.instances = self._instances("full", N, full, full, pinned=True)
        self.instances += self._instances("bernoulli", N, A, B)
        self.checker = ExperimentChecker(seed)

    def _run_cli(self, tr, state):
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            code = cli.main(["experiment", "--kind", "full", "--N", str(self.cli_N)])
        return code, buf.getvalue()

    def _check_cli(self, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"cli exited with {code}"]
        if self._cli_H is None:
            full = generate_subset(self.cli_N, "full")
            self._cli_H = count_near_squares(full, full, Fraction(1, 20)).H_count
        pinned = CLI_PINNED_H.get(self.cli_N, self._cli_H)
        H = json.loads(text)["H"]
        if not H == self._cli_H == pinned:
            return [f"cli H {H}, library H {self._cli_H}, pinned H {pinned} differ"]
        return []

    def ops(self) -> list[Op]:
        return super().ops() + [
            Op("cli", self._run_cli, self._check_cli, lambda out: self.cli_N * self.cli_N)
        ]

    def traced_extras(self) -> dict:
        """Floor recounts, and the median of three runs of the CLI's configuration as library calls."""
        extras = super().traced_extras()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _cli_as_library(self.cli_N)
            times.append(time.perf_counter() - t0)
        extras["cli_library_s"] = sorted(times)[1]
        return extras


class SparseRoots(_CountingWorkload):
    """Random 500-element sets with A != B at N = 10^6: the rounded-root analysis dominates.

    The sets have a fixed size, drawn without replacement, so the work of a
    job does not change with the seed; Bernoulli sets of this density vary
    in size by about 5%.
    """

    name = "sparse-roots"

    def __init__(self, N: int = 10**6, size: int = 500):
        super().__init__()
        self.N, self.size = N, size

    def setup(self, seed: int, tr) -> None:
        window = np.arange(self.N + 1, 2 * self.N + 1)
        sets = []
        for s in child_seeds(seed, 2):
            picked = np.random.default_rng(s).choice(window, size=self.size, replace=False)
            with tr.span("experiments.generate_subset"):
                sets.append(generate_subset(self.N, "explicit", elements=picked.tolist()))
        self.instances = self._instances("random", self.N, *sets)
        self.checker = ExperimentChecker(seed)


# ---------------------------------------------------------------- analytic


class AnalyticScan:
    """Weighted-sieve constants, lower density, sieve table, sieve constants, Mertens."""

    name = "analytic-scan"
    work_unit = "evaluations"

    def __init__(self, c4_points: int = 121, c5_points: int = 99, u_points: int = 50,
                 mertens_z: int = 200_000):
        # the criterion 1 and 2 grids
        self.c4 = [1e-4 * j for j in range(1, c4_points + 1)]
        self.c5 = [1e-3 * j for j in range(1, c5_points + 1)]
        # the criterion 3 grid of closeness exponents, all giving order 6
        self.thresholds = [Fraction(j, 1000) for j in range(1, 72)]
        self.u_points = u_points
        self.mertens_z = mertens_z
        self.us: list[float] = []
        self._refs: dict = {}

    def setup(self, seed: int, tr) -> None:
        # one point in each of u_points equal strata of (4, 6], so every seed
        # spreads the nested-quadrature cost over the interval the same way
        jitter = np.random.default_rng(child_seeds(seed, 1)[0]).random(self.u_points)
        width = 2.0 / self.u_points
        self.us = [4.0 + width * (i + 1.0 - float(j)) for i, j in enumerate(jitter)]

    def working_set(self) -> dict:
        return {"spf_bytes": 8 * (self.mertens_z + 1)}

    def traced_extras(self) -> dict:
        return {}

    def _ref(self, key, fn):
        if key not in self._refs:
            self._refs[key] = fn()
        return self._refs[key]

    def _constant_op(self, delta: float, k: int) -> Op:
        def run(tr, state):
            with tr.span("constants.weighted_sieve_constant"):
                return weighted_sieve_constant(delta, k, tol=1e-9)

        def check(r) -> list[str]:
            printed, unsimplified = self._ref(("C", delta, k), lambda: oracles.weighted_constant_ref(delta, k))
            out = []
            if not _close(r.value, printed, 1e-9):
                out.append(f"C({delta:g}, {k}) printed {r.value!r} != {printed!r}")
            if not _close(r.value_unsimplified, unsimplified, 1e-9):
                out.append(f"C({delta:g}, {k}) unsimplified {r.value_unsimplified!r} != {unsimplified!r}")
            if r.discrepancy != r.value_unsimplified - r.value:
                out.append(f"C({delta:g}, {k}) discrepancy is not the difference of the forms")
            floor = C4_FLOOR if k == 4 else 0.0
            if not (r.value > floor and r.value_unsimplified > floor):
                out.append(f"C({delta:g}, {k}) = {r.value!r} is not above {floor}")
            return out

        return Op("constant", run, check, lambda r: 1)

    def _lower_op(self, u: float, via_table: bool) -> Op:
        def run(tr, state):
            if via_table:
                with tr.span("sievefn.table_lower"):
                    return state["table"].lower(u)
            with tr.span("sievefn.lower_closed"):
                return lower_closed(u)

        def check(v) -> list[str]:
            ref = self._ref(("f", u), lambda: oracles.lower_ref(u))
            return [] if _close(v, ref, 1e-9) else [f"f({u!r}) = {v!r} != {ref!r}"]

        return Op("table_lower" if via_table else "lower_closed", run, check, lambda v: 1)

    def _table_op(self) -> Op:
        def run(tr, state):
            with tr.span("sievefn.build_sieve_table"):
                state["table"] = build_sieve_table(10.0, 1e-3, 1e-6)
            return state["table"]

        def check(t) -> list[str]:
            up, lo, grid = t.upper_values, t.lower_values, t.grid
            out = []
            if not (np.all(np.diff(up) < 0) and np.all(np.diff(lo) >= 0) and np.all(up - lo > 0)):
                out.append("sieve table is not monotone with a positive gap")
            at = {u: int(round((u - 2.0) / t.grid_step)) for u in (2.0, 4.0, 5.0, 6.0)}
            refs = [
                (up[at[2.0]], oracles.upper_ref(2.0), 1e-12),  # F(2) = e^gamma
                (lo[at[4.0]], oracles.lower_ref(4.0), 1e-9),  # f(4) = e^gamma log(3) / 2
                (up[at[5.0]], oracles.upper_ref(5.0), 1e-6),
                (lo[at[6.0]], oracles.lower_ref(6.0), 1e-6),
            ]
            for got, ref, tol in refs:
                if not _close(float(got), ref, tol):
                    out.append(f"sieve table value {got!r} != reference {ref!r}")
            if abs(grid[-1] - 10.0) > 1e-9:
                out.append(f"sieve table ends at {grid[-1]}")
            return out

        return Op("sieve_table", run, check, lambda t: 1)

    def _sieve_lower_op(self, delta: Fraction) -> Op:
        def run(tr, state):
            with tr.span("constants.sieve_lower_constant"):
                return sieve_lower_constant(RegimeParams(1, 1, delta))

        def check(r) -> list[str]:
            # eta = beta = 1: k = 6 and the sieve argument is 7 (1 - 2 delta) / 3 < 4
            arg = float(Fraction(7, 3) * (1 - 2 * delta))
            f = oracles.lower_ref(arg)
            const = 14.0 * math.exp(-oracles.EULER_GAMMA) * f
            if r.k != 6 or not _close(r.sieve_argument, arg, 1e-12) or not _close(
                r.constant_value, const, 1e-12 * const
            ):
                return [f"sieve lower constant at delta={delta}: {r} != k=6, {arg}, {const}"]
            return []

        return Op("sieve_lower_constant", run, check, lambda r: 1)

    def _mertens_op(self) -> Op:
        z = self.mertens_z

        def run(tr, state):
            with tr.span("arith.build_prime_table") as c:
                table = build_prime_table(z)
                c["limit"] = table.limit
            with tr.span("sievefn.mertens_product"):
                return mertens_product(float(z), table)

        def check(m) -> list[str]:
            ref = self._ref(("mertens", z), lambda: oracles.mertens_ref(z))
            if not _close(m.value, ref, 1e-12 * ref) or float(m.exact) != m.value:
                return [f"Mertens product below {z}: {m.value!r} != {ref!r}"]
            return []

        return Op("mertens", run, check, lambda m: 1)

    def ops(self) -> list[Op]:
        ops = [self._constant_op(d, 4) for d in self.c4]
        ops += [self._constant_op(d, 5) for d in self.c5]
        ops += [self._lower_op(u, via_table=False) for u in self.us]
        ops.append(self._table_op())
        ops += [self._lower_op(u, via_table=True) for u in self.us]
        ops += [self._sieve_lower_op(d) for d in self.thresholds]
        ops.append(self._mertens_op())
        return ops


# ---------------------------------------------------------------- expsum


def _two_pointer_pairs(roots: np.ndarray, w: float) -> int:
    """Ordered pairs with roots[i] - w < roots[j] < roots[i] + w, by a sliding window."""
    r = roots.tolist()
    n, lo, hi, total = len(r), 0, 0, 0
    for x in r:
        while lo < n and not r[lo] > x - w:
            lo += 1
        while hi < n and r[hi] < x + w:
            hi += 1
        total += hi - lo
    return total


class ExpsumBounds:
    """Bilinear exponential sums, the criterion 8 sweeps and seeded root-pair counts."""

    name = "expsum-bounds"
    work_unit = "terms"

    def __init__(self, bilinear=((2000, 4, "unit"), (1000, 8, "adversarial")), pair_sets: int = 10):
        self.bilinear = list(bilinear)
        self.pair_sets = pair_sets
        self.sets: dict[int, Any] = {}
        self.pairs: list[tuple[Any, float]] = []

    def setup(self, seed: int, tr) -> None:
        sizes = [n for n, _, _ in self.bilinear] + list(BILINEAR_SWEEP_RATIOS)
        for n in sizes:
            with tr.span("experiments.generate_subset"):
                self.sets[n] = generate_subset(n, "full")
        # root-pair instances drawn as in criterion 8
        seeds = child_seeds(seed, 1 + self.pair_sets)
        rng = np.random.default_rng(seeds[0])
        self.pairs = []
        for s in seeds[1:]:
            N = int(rng.integers(300, 3001))
            density = float(rng.uniform(0.2, 1.0))
            X = float(rng.uniform(1.0, 2.0 * math.sqrt(2.0 * N)))
            with tr.span("experiments.generate_subset"):
                self.pairs.append((generate_subset(N, "bernoulli", density=density, seed=s), X))

    def working_set(self) -> dict:
        return {"B_bytes": max(A.elements.nbytes for A in self.sets.values())}

    def traced_extras(self) -> dict:
        return {}

    def _bilinear_op(self, N: int, H0: int, weights: str, pinned: float, tol: float) -> Op:
        A = self.sets[N]

        def run(tr, state):
            with tr.span("expsum.bilinear_sum_check") as c:
                rec = bilinear_sum_check(H0, A, A, weights=weights)
                c["terms"] = H0 * len(A) * len(A)
            return rec

        def check(rec) -> list[str]:
            if not _close(rec.ratio, pinned, tol) or not rec.ratio < 1.0:
                return [f"bilinear N={N} H0={H0} {weights}: ratio {rec.ratio!r} != {pinned!r}"]
            return []

        return Op("bilinear", run, check, lambda rec: H0 * len(A) * len(A))

    def _quadruple_op(self, m: int) -> Op:
        def run(tr, state):
            with tr.span("expsum.quadruple_count"):
                return quadruple_count(m, m, 1e-6, 0.5, 0.5)

        def check(rec) -> list[str]:
            want = QUADRUPLE_SWEEP_COUNTS[m]
            return [] if rec.measured_value == want else [f"quadruples M=N={m}: {rec.measured_value} != {want}"]

        return Op("quadruples", run, check, lambda rec: 0)

    def _pair_op(self, B, X: float) -> Op:
        def run(tr, state):
            with tr.span("expsum.pair_count"):
                return pair_count(B, X)

        def check(rec) -> list[str]:
            roots = np.sqrt(B.elements.astype(np.float64))
            want = _two_pointer_pairs(roots, 1.0 / (2.0 * X))
            if rec.measured_value != want or not rec.ratio <= 1.0:
                return [f"root pairs N={B.base_N} X={X!r}: {rec.measured_value} != {want} or ratio > 1"]
            return []

        return Op("root_pairs", run, check, lambda rec: 0)

    def ops(self) -> list[Op]:
        ops = [self._bilinear_op(N, H0, w, BILINEAR_PINNED[(N, H0, w)], 1e-7 * BILINEAR_PINNED[(N, H0, w)])
               for N, H0, w in self.bilinear]
        ops += [self._bilinear_op(n, 2, "adversarial", r, 1e-4) for n, r in BILINEAR_SWEEP_RATIOS.items()]
        ops += [self._quadruple_op(m) for m in QUADRUPLE_SWEEP_COUNTS]
        ops += [self._pair_op(B, X) for B, X in self.pairs]
        return ops


WORKLOADS = {w.name: w for w in (DenseCount, SparseRoots, AnalyticScan, ExpsumBounds)}
