"""Sawtooth trigonometric approximation and brute-force checks of oscillation bounds.

The sawtooth approximation realizes the classical construction of
J. D. Vaaler (Some extremal functions in Fourier analysis, Bull. Amer. Math.
Soc. 12 (1985), 183-216): a degree-H trigonometric polynomial whose
pointwise error is dominated by a nonnegative Fejer-type kernel with
coefficients of size 1/H.  The bound checkers enumerate the counting
quantities behind the bilinear dispersion argument exactly and record
measured/bound ratios for regression.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, InvalidArgumentError
from .experiments import CELLS, IntervalSubset

TERM_BUDGET = 10**8


@dataclass(frozen=True)
class SawtoothApproximation:
    """Finite trig approximation of the sawtooth with a nonnegative error envelope.

    main coefficients: u(h) = i * phi(h/(H+1)) / (2 pi h) for 1 <= h <= H,
    with u(-h) the conjugate, where phi(x) = pi x (1-x) cot(pi x) + x.
    envelope coefficients: v(|h|) = (1 - |h|/(H+1)) / (2H + 2), whose cosine
    sum is (1/(2H+2)) times the Fejer kernel, hence nonnegative, and for
    every t:   |sawtooth(t) - main_term(t)| <= error_kernel(t).
    """

    H: int
    u_coeffs: np.ndarray  # complex u(h) for h = 1..H
    v_coeffs: np.ndarray  # real v(|h|) for |h| = 0..H
    c1: float  # measured sup over h of |h * u(h)|
    c2: float  # measured sup over h of H * v(h)

    def _series(self, t, terms):
        """``terms`` of the matrix 2 pi t h, a row per t and h = 1..H, at a scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        h = np.arange(1, self.H + 1, dtype=np.float64)
        vals = terms(2.0 * math.pi * np.outer(t_arr, h))
        return vals if np.ndim(t) else float(vals[0])

    def main_term(self, t):
        # u(h) e(ht) + conj gives -w sin, with w = 2 Im u(h)
        return self._series(t, lambda x: -np.sin(x) @ (2.0 * np.imag(self.u_coeffs)))

    def error_kernel(self, t):
        return self._series(t, lambda x: self.v_coeffs[0] + 2.0 * (np.cos(x) @ self.v_coeffs[1:]))


def build_sawtooth_approximation(H: int) -> SawtoothApproximation:
    """Degree-H sawtooth approximation satisfying the pointwise envelope contract."""
    if H < 2:
        raise InvalidArgumentError("frequency cutoff H must be at least 2")
    h = np.arange(1, H + 1, dtype=np.float64)
    x = h / (H + 1.0)
    phi = math.pi * x * (1.0 - x) / np.tan(math.pi * x) + x
    u = 1j * phi / (2.0 * math.pi * h)
    v = (1.0 - np.arange(0, H + 1, dtype=np.float64) / (H + 1.0)) / (2.0 * H + 2.0)
    return SawtoothApproximation(
        H=H,
        u_coeffs=u,
        v_coeffs=v,
        c1=float(np.max(np.abs(u) * h)),
        c2=float(np.max(v) * H),
    )


@dataclass(frozen=True)
class BoundCheckRecord:
    """One measured-versus-bound instance of an oscillation-count inequality."""

    check: str
    params: dict
    measured_value: float
    bound_value: float

    @property
    def ratio(self) -> float:
        return self.measured_value / self.bound_value


def quadruple_count(
    M: int, N: int, theta: float, alpha_exp: float, beta_exp: float
) -> BoundCheckRecord:
    """Exact count of quadruples with |(m'/m)^alpha - (n'/n)^beta| < theta.

    m, m' range over [M, 2M) and n, n' over [N, 2N); the reference bound is
    M*N*log(2MN) + theta*M^2*N^2.  The ratios of n are sorted ``CELLS // N``
    rows (at least one) at a time, and the M^2 ratios of m are looked up in
    each such chunk ``CELLS // M`` rows at a time, so neither an N^2 nor an
    M^2 array is held.  Every ratio of n lies in exactly one chunk, so the
    integer counts of the chunks add up to the count over all of them.
    """
    if M < 1 or N < 1:
        raise InvalidArgumentError("ranges must satisfy M, N >= 1")
    if not 0 < theta < math.inf:  # also rejects NaN
        raise InvalidArgumentError("window theta must be positive and finite")
    if not all(math.isfinite(e) and e != 0 for e in (alpha_exp, beta_exp)):
        raise InvalidArgumentError("exponents must be finite and nonzero")
    if M * M * N * N > TERM_BUDGET:
        raise BudgetError(f"{M * M * N * N} quadruples exceed the budget of {TERM_BUDGET}")

    m = np.arange(M, 2 * M, dtype=np.float64)
    n = np.arange(N, 2 * N, dtype=np.float64)
    count = 0
    m_rows, n_rows = max(1, CELLS // M), max(1, CELLS // N)
    for j0 in range(0, N, n_rows):
        ys = n[None, :] / n[j0 : j0 + n_rows, None]
        ys **= beta_exp
        ys = ys.ravel()
        ys.sort()
        for i0 in range(0, M, m_rows):
            xs = m[None, :] / m[i0 : i0 + m_rows, None]
            xs **= alpha_exp
            lo = np.searchsorted(ys, xs - theta, side="right")
            hi = np.searchsorted(ys, xs + theta, side="left")
            count += int(np.sum(hi - lo))
    bound = M * N * math.log(2 * M * N) + theta * (M * N) ** 2
    return BoundCheckRecord(
        check="quadruples",
        params={"M": M, "N": N, "theta": theta, "alpha": alpha_exp, "beta": beta_exp},
        measured_value=float(count),
        bound_value=bound,
    )


def pair_count(B: IntervalSubset, X: float) -> BoundCheckRecord:
    """Ordered pairs (b, b') in B^2 with |sqrt(b) - sqrt(b')| < 1/(2X).

    The reference bound (1 + 2*sqrt(2N)/X)*|B| holds with constant exactly
    1, so the recorded ratio never exceeds 1.
    """
    if not 1 <= X < math.inf:  # also rejects NaN
        raise InvalidArgumentError("spacing parameter X must be finite and at least 1")
    if len(B) == 0:
        raise InvalidArgumentError("subset must be nonempty")
    roots = np.sqrt(B.elements.astype(np.float64))
    w = 1.0 / (2.0 * X)
    lo = np.searchsorted(roots, roots - w, side="right")
    hi = np.searchsorted(roots, roots + w, side="left")
    count = int(np.sum(hi - lo))
    bound = (1.0 + 2.0 * math.sqrt(2.0 * B.base_N) / X) * len(B)
    return BoundCheckRecord(
        check="root-pairs",
        params={"N": B.base_N, "size": len(B), "X": X},
        measured_value=float(count),
        bound_value=bound,
    )


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _tile_sums(a_rows, b_arr, hs, d, t, x, v, out) -> None:
    """Row sums of cos and sin of 2 pi frac(h sqrt(ab)/d) for one tile of rows of A.

    ``t``, ``x`` and ``v`` are buffers of the tile's shape; ``out[i, 0]`` and
    ``out[i, 1]`` receive the cos and sin sums of the rows at the i-th h.
    """
    np.multiply.outer(a_rows, b_arr, out=t)
    np.sqrt(t, out=t)
    for i, h in enumerate(hs):
        np.multiply(t, h, out=x)
        if d != 1:  # x / 1 == x
            np.divide(x, d, out=x)
        np.floor(x, out=v)
        np.subtract(x, v, out=x)  # the phase mod 1, exactly: x >= 0
        np.multiply(x, 2 * math.pi, out=x)
        np.cos(x, out=v)
        np.add.reduce(v, axis=1, out=out[i, 0])
        np.sin(x, out=v)
        np.add.reduce(v, axis=1, out=out[i, 1])


def bilinear_sum_check(
    H0: int,
    A: IntervalSubset,
    B: IntervalSubset,
    d: int = 1,
    weights: str = "unit",
) -> BoundCheckRecord:
    """|sum over h ~ H0, a, b of e(h sqrt(ab)/d)| against the dispersion bound.

    The dyadic block is h in (H0, 2*H0].  With ``weights="unit"`` all outer
    coefficients are 1; ``weights="adversarial"`` aligns each h-block's
    phase, the worst case the bound must absorb.

    The terms are taken in tiles of whole rows of A, ``CELLS // |B|`` rows
    (at least one) against all of B, with one square root per (a, b) shared
    by every h.  Each phase x = h sqrt(ab)/d >= 0 is reduced to x - floor(x),
    which equals ``np.mod(x, 1)`` exactly, scaled by 2 pi, and summed row by
    row through ``np.cos`` and ``np.sin``: the real and imaginary parts of
    ``np.exp(2j pi frac)``, bit for bit.  A row is one contiguous sum, so its
    pairwise tree does not depend on the tile; cutting a row would change it.
    The row sums of each h then go through ``math.fsum``, which is exactly
    rounded, so ``measured_value`` does not depend on the tile size either.

    The tiles are dealt round-robin to one worker per CPU of the affinity
    set, at most one per tile: worker k takes tiles k, k + w, k + 2w, ...
    The calling thread is worker 0, and the others are threads, which run
    at once because numpy's ufuncs release the GIL.  Each worker fills its
    own buffers, allocated before any thread starts, and writes its rows'
    sums into their own slots of one array in row order.  Every row is
    summed by the same ufuncs whichever worker takes it, so the bits do not
    depend on the number of workers.  Every thread is joined before the
    call returns or raises, and the first exception of any worker is raised
    here; the other workers stop at their next tile.  The caller waits for
    the others without blocking, so that its CPU does not go idle.
    """
    if H0 < 1 or d < 1:
        raise InvalidArgumentError("H0 and d must be at least 1")
    if weights not in ("unit", "adversarial"):
        raise InvalidArgumentError("weights must be 'unit' or 'adversarial'")
    if A.base_N != B.base_N:
        raise InvalidArgumentError("both subsets must share the same base N")
    if len(A) == 0 or len(B) == 0:  # the bound would be 0
        raise InvalidArgumentError("subsets must be nonempty")
    terms = H0 * len(A) * len(B)
    if terms > TERM_BUDGET:
        raise BudgetError(f"{terms} terms exceed the budget of {TERM_BUDGET}")

    N = A.base_N
    a_arr = A.elements.astype(np.float64)
    b_arr = B.elements.astype(np.float64)
    hs = range(H0 + 1, 2 * H0 + 1)
    rows = max(1, CELLS // len(b_arr))  # whole rows only: a cut row sums in another tree
    starts = range(0, len(a_arr), rows)
    workers = min(_cpu_count(), len(starts))
    sums = np.empty((len(hs), 2, len(a_arr)))  # cos and sin row sums of each h, in row order
    shape = (min(rows, len(a_arr)), len(b_arr))
    shares = [(starts[k::workers], *(np.empty(shape) for _ in range(3))) for k in range(workers)]
    failed = []  # the first exception of any worker

    def work(tiles, t, x, v):
        try:
            for i0 in tiles:
                if failed:
                    return
                n = min(rows, len(a_arr) - i0)
                _tile_sums(a_arr[i0 : i0 + n], b_arr, hs, d, t[:n], x[:n], v[:n],
                           sums[:, :, i0 : i0 + n])
        except BaseException as exc:
            failed.append(exc)

    started = []
    try:
        for share in shares[1:]:
            thread = threading.Thread(target=work, args=share)
            thread.start()
            started.append(thread)
        work(*shares[0])
    except BaseException as exc:  # a thread that would not start: stop the others early
        failed.append(exc)
    finally:
        # Poll, releasing the GIL, instead of blocking in join: a blocked
        # caller leaves its CPU idle, and the host of a virtual machine may
        # then resume it on a busier core.  On a 2-CPU VM with a busy host,
        # a blocking join made the single-threaded work after each call (the
        # set-ups of perfbench's expsum-bounds) 15-43% slower.  The shares
        # differ by at most one tile, so the poll is short.
        for thread in started:
            while thread.is_alive():
                time.sleep(0)
            thread.join()
    if failed:
        raise failed[0]
    # fsum is exactly rounded, so the block sums do not depend on the loop order
    block_sums = [complex(math.fsum(r.tolist()), math.fsum(m.tolist())) for r, m in sums]

    if weights == "unit":
        measured = abs(complex(math.fsum(s.real for s in block_sums),
                               math.fsum(s.imag for s in block_sums)))
    else:
        measured = math.fsum(abs(s) for s in block_sums)

    h1 = float(H0)
    bound = (
        N
        * h1
        * (len(A) * len(B)) ** 0.25
        * (1.0 + math.sqrt(d / h1))
        * math.sqrt(math.log(2 * N * h1))
    )
    return BoundCheckRecord(
        check="bilinear",
        params={
            "N": N,
            "H0": H0,
            "size_A": len(A),
            "size_B": len(B),
            "d": d,
            "weights": weights,
        },
        measured_value=measured,
        bound_value=bound,
    )
