"""One fixed Gauss-Legendre rule for the analytic integrals.

Every integrand of the package is g(s) = log(s - 1)/s times the log of a
rational function, analytic on its closed interval with its nearest
singularity at least 1 away, so a fixed Gauss-Legendre rule converges
geometrically there.  The 24- and 48-node tables are computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, InvalidArgumentError

_NODES_24, _WEIGHTS_24 = np.polynomial.legendre.leggauss(24)
_NODES_48, _WEIGHTS_48 = np.polynomial.legendre.leggauss(48)
_EPS = float(np.finfo(float).eps)


def _weighted_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # einsum, not matmul: BLAS sums a row in an order that depends on its
    # position in the matrix, and no value may depend on the other rows
    return np.einsum("...i,i->...", values, weights)


@dataclass(frozen=True)
class QuadratureResult:
    value: float | np.ndarray
    error_estimate: float | np.ndarray


def integrate(
    fn: Callable[[np.ndarray], np.ndarray], a, b, tol: float
) -> QuadratureResult:
    """Integral of ``fn`` over [a, b] by the 48-node Gauss-Legendre rule.

    ``a`` and ``b`` are scalars or arrays of one shape; ``fn`` is called once
    per rule on an array of nodes with one row per interval.  ``fn`` may
    return leading axes of its own: a vector-valued integrand gives one row
    per component, each bit for bit the integral of that component alone.
    The error estimate is |Q_24 - Q_48| plus the rounding bound eps * 48 *
    (b - a)/2 * sum w |f| of the 48-node sum, so it is 0 only on an empty
    interval.  Raises ``AccuracyError``, naming the largest estimate, when
    any estimate exceeds ``tol`` or is NaN.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError(f"quadrature tolerance must be positive and finite, got {tol}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(a <= b):
        raise InvalidArgumentError("integration bounds must satisfy a <= b")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    q24 = _weighted_rows(fn(mid[..., None] + half[..., None] * _NODES_24), _WEIGHTS_24) * half
    f48 = fn(mid[..., None] + half[..., None] * _NODES_48)
    q48 = _weighted_rows(f48, _WEIGHTS_48) * half
    err = np.abs(q24 - q48) + _EPS * 48 * half * _weighted_rows(np.abs(f48), _WEIGHTS_48)
    if not np.all(err <= tol):  # a NaN estimate fails too
        raise AccuracyError(
            f"Gauss-Legendre error estimate {float(np.max(err)):.3g} exceeds tolerance {tol:.3g}"
        )
    if q48.ndim == 0:
        return QuadratureResult(float(q48), float(err))
    return QuadratureResult(q48, err)
