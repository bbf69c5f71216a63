"""Probability helpers shared by the analytical models (Section V).

The paper's document-retrieval analysis composes two stages:

1. **sampling** — which documents containing a value are retrieved; for
   scan-style strategies this is hypergeometric over the database;
2. **extraction thinning** — each retrieved occurrence is emitted
   independently with probability tp(θ) (good) or fp(θ) (bad); binomial.

The composed law ``Pr{l extracted | f occurrences, n of N docs retrieved}``
= Σ_k Hyper(N, n, f, k) · Bnm(k, l, r) is what the MLE inverts; its mean
``r · f · n / N`` is what the expectation models use.  Everything here is
vectorized with numpy for the model sweeps.

The binomial and hypergeometric pmfs are :func:`binom_pmf` and
:func:`_hypergeom_pmf`: ``scipy.stats``' ``rv_discrete.pmf`` argument
checks, support mask and clipping around the same Boost kernels
(``scipy.special._ufuncs``) that ``binom.pmf`` and ``hypergeom.pmf``
call, so every float is the one scipy returns while ``scipy.stats``
itself is never imported (DESIGN §6.2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import _ufuncs, gammaln

ArrayLike = Union[float, np.ndarray]


_GAMMALN_TABLE = gammaln(np.arange(256, dtype=float))

#: ``rv_discrete.pmf`` shifts *k* by ``loc``, a 0-d int array; subtracting
#: it keeps scipy's quantile dtype promotion, and so its kernel loop
_NO_SHIFT = np.asarray(0)


def _discrete_pmf(kernel, k, args, valid, lower, upper):
    """``rv_discrete.pmf`` around a Boost pmf *kernel*, value for value.

    NaN where the shape arguments fail their check (*valid*) or *k* is
    NaN, 0 off the integer support ``[lower, upper]``, and the clipped
    kernel value on the entries inside it; a 0-d result is a scalar.
    """
    inside = valid & (k >= lower) & (k <= upper) & (np.floor(k) == k)
    output = np.zeros(np.shape(inside))
    np.place(output, ~valid | np.isnan(k), np.nan)
    if np.any(inside):
        picked = [np.broadcast_to(a, inside.shape)[inside] for a in (k, *args)]
        np.place(output, inside, np.clip(kernel(*picked), 0, 1))
    if output.ndim == 0:
        return output[()]
    return output


def _is_integral(x: np.ndarray) -> np.ndarray:
    return x == np.round(x)


def binom_pmf(k: ArrayLike, n: ArrayLike, p: ArrayLike) -> ArrayLike:
    """Bnm(n, p) at *k*: exactly ``scipy.stats.binom.pmf(k, n, p)``."""
    k = np.asarray(np.asarray(k) - _NO_SHIFT)
    n, p = np.asarray(n), np.asarray(p)
    valid = (n >= 0) & _is_integral(n) & (p >= 0) & (p <= 1)
    return _discrete_pmf(_ufuncs._binom_pmf, k, (n, p), valid, 0, n)


def _hypergeom_pmf(
    k: ArrayLike, total: ArrayLike, successes: ArrayLike, draws: ArrayLike
) -> ArrayLike:
    """Hyper at *k*: exactly ``scipy.stats.hypergeom.pmf(k, total,
    successes, draws)``, NaN for out-of-model arguments included."""
    k = np.asarray(np.asarray(k) - _NO_SHIFT)
    total, successes, draws = map(np.asarray, (total, successes, draws))
    valid = (total > 0) & (successes >= 0) & (draws >= 0)
    valid &= (successes <= total) & (draws <= total)
    valid &= _is_integral(total) & _is_integral(successes) & _is_integral(draws)
    return _discrete_pmf(
        _ufuncs._hypergeom_pmf,
        k,
        (successes, draws, total),
        valid,
        np.maximum(draws - (total - successes), 0),
        np.minimum(successes, draws),
    )


def _gammaln_table(limit: int) -> np.ndarray:
    """``gammaln(0..limit)`` as a lookup table, grown geometrically.

    Every argument the hypergeometric pmf needs is an integer bounded by
    ``population + 1``, so one cached table turns six transcendental
    matrix evaluations into integer fancy-indexing.
    """
    global _GAMMALN_TABLE
    if _GAMMALN_TABLE.size <= limit:
        size = max(limit + 1, 2 * _GAMMALN_TABLE.size)
        _GAMMALN_TABLE = gammaln(np.arange(size, dtype=float))
    return _GAMMALN_TABLE


def _hypergeom_weights(population: int, draws: int, width: int) -> np.ndarray:
    """Matrix ``P[n, k] = Hyper(population, draws, n, k)``, ``n, k < width``.

    Direct log-gamma evaluation of ``C(n,k)·C(M-n,N-k)/C(M,N)`` — the
    same quantity :func:`_hypergeom_pmf` computes (and agrees with to
    ~1e-13 relative), minus the per-entry Boost evaluation that dominates
    the models' inner loops.  Out-of-support entries are exactly zero.
    """
    total = int(population)
    sample = int(draws)
    grid = np.arange(width, dtype=np.int64)
    if width - 1 > total:
        # Out-of-model rows (more occurrences than documents): defer to
        # the checked pmf, which flags them with NaNs, rather than
        # mis-index the table.
        return _hypergeom_pmf(grid[None, :], total, grid[:, None], sample)
    table = _gammaln_table(total + 1)
    n = grid[:, None]
    kk = grid[None, :]
    lower = np.maximum(0, sample + n - total)
    upper = np.minimum(n, sample)
    valid = (kk >= lower) & (kk <= upper)
    # Clamp masked-out entries into the support so every table index
    # stays in range; their values are discarded by the mask below.
    kc = np.minimum(np.maximum(kk, lower), np.maximum(upper, lower))
    logp = (
        (table[n + 1] + table[total - n + 1] - table[total + 1])
        + (table[sample + 1] + table[total - sample + 1])
        - table[kc + 1]
        - table[n - kc + 1]
        - table[sample - kc + 1]
        - table[total - n - sample + kc + 1]
    )
    return np.where(valid, np.exp(logp), 0.0)


def hypergeom_pmf(
    population: int, draws: int, successes: int, k: np.ndarray
) -> np.ndarray:
    """Pr{k of *successes* land in a size-*draws* sample of *population*}."""
    if draws > population:
        raise ValueError("draws cannot exceed population")
    return _hypergeom_pmf(k, population, successes, draws)


def thinned_hypergeom_pmf(
    population: int,
    draws: int,
    occurrences: int,
    rate: float,
    l_values: np.ndarray,
) -> np.ndarray:
    """Pr{l occurrences extracted} under sampling + extraction thinning.

    ``Pr{l} = Σ_k Hyper(population, draws, occurrences, k) · Bnm(k, l, rate)``
    — Section V-C's composed law, evaluated for every entry of *l_values*.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    if rate < 1e-12:
        # Subnormal rates overflow scipy's binomial kernels; the thinned
        # distribution is (numerically) a point mass at zero anyway.
        rate = 0.0
    draws = min(draws, population)
    k = np.arange(occurrences + 1)
    weights = hypergeom_pmf(population, draws, occurrences, k)
    l_grid = np.asarray(l_values, dtype=int)
    # pmf_matrix[i, j] = Bnm(k_i, l_j, rate)
    pmf_matrix = binom_pmf(l_grid[None, :], k[:, None], rate)
    return weights @ pmf_matrix


def thinned_hypergeom_mean(
    population: int, draws: int, occurrences: int, rate: float
) -> float:
    """Mean of the composed law: ``rate · occurrences · draws / population``."""
    if population <= 0:
        return 0.0
    draws = min(draws, population)
    return rate * occurrences * draws / population


@lru_cache(maxsize=262144)
def probability_none_extracted(
    population: int, draws: int, occurrences: int, rate: float
) -> float:
    """Pr{no occurrence extracted} under sampling + thinning.

    Uses the hypergeometric probability-generating identity
    ``E[(1-rate)^K]`` with K ~ Hyper; evaluated by the exact finite sum.
    The scalar reference for :class:`NoneExtractedBatch`: the differential
    references and the tests call it per (value, effort) pair, so it is
    memoized.
    """
    if occurrences == 0 or population <= 0:
        return 1.0
    draws = min(draws, population)
    k = np.arange(occurrences + 1)
    weights = hypergeom_pmf(population, draws, occurrences, k)
    return float(np.sum(weights * (1.0 - rate) ** k))


#: Bound on the shared none-extracted tables.  A binary optimizer pass
#: over one catalog reads a few hundred distinct operating points, and
#: each table holds one float per occurrence count.
_NONE_EXTRACTED_TABLES = 4096


@lru_cache(maxsize=_NONE_EXTRACTED_TABLES)
def _none_extracted_table(
    population: int, draws: int, rate: float, width: int
) -> np.ndarray:
    """Pr{none extracted} for the occurrence counts ``0 .. width-1``.

    A pure function of its key, shared by every batch and model in the
    process: a table is never grown or patched in place, so its floats do
    not depend on which batches asked first.  The array is read-only.
    """
    pows = (1.0 - rate) ** np.arange(width, dtype=np.int64)
    table = _hypergeom_weights(population, draws, width) @ pows
    table[0] = 1.0  # no occurrence: nothing can be extracted
    table.flags.writeable = False
    return table


class NoneExtractedBatch:
    """``probability_none_extracted`` over a *fixed* occurrence array.

    Models evaluate the same occurrence array at many (draws, rate)
    operating points — every bisection probe, every curve grid point.  The
    batch holds only the array and its table width (largest count + 1);
    each operating point reads the process-wide table of
    :func:`_none_extracted_table` and gathers its entries by count.
    """

    __slots__ = ("occurrences", "width", "all_zero")

    def __init__(self, occurrences: np.ndarray) -> None:
        occ = np.asarray(occurrences, dtype=np.int64)
        self.occurrences = occ
        self.width = int(occ.max()) + 1 if occ.size else 1
        #: no occurrence at all (or an empty array): nothing can be
        #: extracted, so every operating point answers all ones
        self.all_zero = self.width == 1

    def evaluate(self, population: int, draws: int, rate: float) -> np.ndarray:
        """Pr{none extracted} per occurrence count at one operating point."""
        if self.all_zero or population <= 0:
            return np.ones(self.occurrences.shape)
        draws = min(draws, population)
        table = _none_extracted_table(
            int(population), int(draws), float(rate), self.width
        )
        return table[self.occurrences]


def issue_probability_ceiling(
    good_occurrences: ArrayLike,
    bad_occurrences: ArrayLike,
    tp: float,
    fp: float,
) -> ArrayLike:
    """Upper bound, over *all* effort levels, on Pr{value extracted at all}.

    ``Pr{extracted}(draws) = 1 - E[(1-rate)^K]`` is non-decreasing in the
    number of documents retrieved (K is stochastically increasing in
    ``draws``), so the ceiling is the full-retrieval point, where the
    hypergeometric tail degenerates to a point mass at the occurrence
    count: ``1 - (1-tp)^g · (1-fp)^b``.  This is the quantity the bound
    oracle uses to cap ZGJN's reachable-document occupancy and the value
    the zig-zag model itself calls ``p_queryable``.
    """
    g = np.asarray(good_occurrences, dtype=float)
    b = np.asarray(bad_occurrences, dtype=float)
    return 1.0 - (1.0 - tp) ** g * (1.0 - fp) ** b


def expected_distinct_sampled(
    population: int, draws: int, frequencies: np.ndarray
) -> float:
    """Expected number of distinct values seen after sampling documents.

    For each value with frequency f, Pr{seen} = 1 - C(N-f, n)/C(N, n);
    summed over values.  Used by query-issuance models (a value spawns a
    query once any of its occurrences is extracted).
    """
    draws = min(draws, population)
    f = np.asarray(frequencies, dtype=int)
    p_unseen = _hypergeom_pmf(0, population, f, draws)
    return float(np.sum(1.0 - p_unseen))
