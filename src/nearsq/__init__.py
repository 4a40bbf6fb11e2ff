"""Near-square product counting over integer subsets.

Counts pairs (a, b) from subsets of (N, 2N] whose product lies within a
small window of a perfect square, sieves the rounded square roots for
almost-primality, and evaluates the linear-sieve density functions and
explicit constants that govern the achievable almost-prime order.
"""

from .arith import (
    PrimeTable,
    as_fraction,
    build_prime_table,
    near_square_roots,
)
from .constants import (
    ConstantReport,
    DeltaRange,
    RegimeParams,
    WeightedConstantReport,
    alpha_level,
    delta_range,
    k_min,
    sieve_lower_constant,
    weighted_sieve_constant,
)
from .errors import (
    AccuracyError,
    BudgetError,
    CoverageError,
    InvalidArgumentError,
    NearsqError,
    RangeError,
    RegimeError,
)
from .experiments import (
    AlmostPrimeCounts,
    IntervalSubset,
    NearSquareCount,
    SieveDecomposition,
    almost_prime_count,
    count_near_squares,
    generate_subset,
    main_term_dominant,
    normalized_residual,
    sieve_decomposition,
    sifting_function,
    weighted_sum,
)
from .expsum import (
    BoundCheckRecord,
    SawtoothApproximation,
    bilinear_sum_check,
    build_sawtooth_approximation,
    pair_count,
    quadruple_count,
)
from .sievefn import (
    EULER_GAMMA,
    EXP_GAMMA,
    MertensProduct,
    SieveFunctionTable,
    build_sieve_table,
    lower_closed,
    mertens_product,
    upper_closed,
)

__version__ = "0.1.0"
