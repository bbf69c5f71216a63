"""MLE estimation of database-specific parameters (Section VI).

While a join executes, the collector records — per relation — the sample
frequencies ``s(a)`` (how many processed documents generated each observed
value), per-occurrence extractor confidences, and per-document tuple
yields.  This estimator inverts the Section V observation model to recover
the parameters the quality models need, *without any tuple-verification
oracle*: the good/bad split is probabilistic, exactly as the paper
describes ("the estimation methods derive a probabilistic split of the
observed tuples").

Observation model (scan-order sampling of ``n`` of ``N`` documents at an
extractor operating point tp/fp):

* a good value with true frequency g yields s ~ Binomial(g, tp·n/N) — the
  good-document coverage under scan is n/N, so the per-occurrence
  observation probability is tp·n/N (hypergeometric sampling composed with
  extraction thinning, in its binomial regime);
* a bad value with true frequency b yields s ~ Binomial(b, fp·n/N);
* true frequencies follow truncated power laws with per-class parameters
  (β, k_max) and value-population sizes N_good / N_bad.

**Good/bad split.**  When the offline knob characterization provides
class-conditional confidence distributions
(:class:`~repro.extraction.characterization.ConfidenceReference`), the
mixture weight is fitted from the observed confidence histogram (a concave
1-D likelihood) and each observed value receives a posterior good
probability from its own scores — no labels involved.  Without a
reference, the estimator falls back to fitting the (β_good, β_bad) mixture
directly on the s(a) histogram, which is identifiable only through the
difference between tp and fp.

**Document classes.**  |Dg| and |Db| never enter the s(a) likelihood under
scan sampling (the coverage ratio cancels), so they are recovered in a
second step from the productive-document rate and the mean per-document
yield, inverting the zero-truncated thinning of the yield distribution.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..extraction.characterization import ConfidenceReference
from ..joins.stats_collector import RelationObservations
from ..models.distributions import binom_pmf
from ..textdb.stats import FrequencyHistogram
from ..validation.invariants import active_checker
from .bounded import minimize_bounded
from .powerlaw import PowerLawModel

#: Documented priors for degenerate pilots.  A sample carrying no usable
#: signal (no documents, or only unproductive documents) cannot identify
#: any parameter, so the estimator returns these instead of dividing by
#: zero: uniform-ish power laws (β = 1), an uninformative half/half
#: occurrence split, and *empty* populations — models over the priors
#: predict zero output, which is exactly what a pilot that saw nothing
#: supports.
PRIOR_BETA = 1.0
PRIOR_OCCURRENCE_SHARE = 0.5


@dataclass(frozen=True)
class EstimatedParameters:
    """The estimator's output for one relation."""

    relation: str
    n_good_values: float
    n_bad_values: float
    beta_good: float
    beta_bad: float
    n_good_docs: float
    n_bad_docs: float
    k_max_good: int
    k_max_bad: int
    log_likelihood: float
    #: fitted share of observed occurrences that are good
    good_occurrence_share: float = 0.5

    def good_power_law(self) -> PowerLawModel:
        return PowerLawModel(beta=self.beta_good, k_max=self.k_max_good)

    def bad_power_law(self) -> PowerLawModel:
        return PowerLawModel(beta=self.beta_bad, k_max=self.k_max_bad)

    def good_histogram(self) -> FrequencyHistogram:
        return self.good_power_law().expected_histogram(self.n_good_values)

    def bad_histogram(self) -> FrequencyHistogram:
        return self.bad_power_law().expected_histogram(self.n_bad_values)


@dataclass(frozen=True)
class ObservationContext:
    """What the estimator is allowed to know about the execution.

    ``coverage`` is the fraction of the database the execution has
    processed (n/N for scan; the retrieval model's document coverage for
    other strategies).  ``tp``/``fp`` come from the offline knob
    characterization — retrieval- and extractor-specific parameters are
    known, only database statistics are estimated (Section VI).
    ``theta`` is the executing knob setting, used to condition the
    reference confidence distributions on scores the knob admits.
    """

    database_size: int
    coverage: float
    tp: float
    fp: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be within (0, 1]")

    @property
    def p_obs_good(self) -> float:
        return min(1.0, self.tp * self.coverage)

    @property
    def p_obs_bad(self) -> float:
        return min(1.0, self.fp * self.coverage)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------


def _class_log_pmf(
    s_values: np.ndarray, beta: float, k_max: int, p_obs: float
) -> Tuple[np.ndarray, float]:
    """(log Pr{s | class} for each s, Pr{s >= 1 | class}).

    Pr{s} = Σ_g pl(g; β) · Bnm(g, s, p_obs) — the power-law prior pushed
    through the binomial observation channel.
    """
    law = PowerLawModel(beta=beta, k_max=k_max)
    g = law.support()
    prior = law.pmf()
    pmf_matrix = binom_pmf(s_values[None, :], g[:, None], p_obs)
    marginal = prior @ pmf_matrix
    p_zero = float(prior @ binom_pmf(0, g, p_obs))
    p_seen = max(1.0 - p_zero, 1e-12)
    return np.log(np.clip(marginal, 1e-300, None)), p_seen


def _class_log_pmf_grid(
    s_values: np.ndarray, beta_grid: np.ndarray, k_max: int, p_obs: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_class_log_pmf` for every β at once.

    The binomial observation matrix ``Bnm(g, s, p_obs)`` is β-independent,
    so the whole grid costs one binomial matrix plus one matmul with the
    stacked power-law priors — instead of rebuilding the matrix per β.
    Returns ``(log_pmf[β, s], p_seen[β])``.
    """
    g = np.arange(1, k_max + 1)
    pmf_matrix = binom_pmf(s_values[None, :], g[:, None], p_obs)
    betas = np.asarray(beta_grid, dtype=float)
    weights = g.astype(float)[None, :] ** (-betas[:, None])
    priors = weights / weights.sum(axis=1, keepdims=True)
    marginal = priors @ pmf_matrix
    p_zero = priors @ binom_pmf(0, g, p_obs)
    p_seen = np.maximum(1.0 - p_zero, 1e-12)
    return np.log(np.clip(marginal, 1e-300, None)), p_seen


def _support_cap(max_s: int, p_obs: float, factor: float, database_size: int) -> int:
    cap = max(max_s, int(math.ceil(factor * max_s / max(p_obs, 1e-9))))
    return max(1, min(cap, database_size))


def _fit_single_class(
    s_values: np.ndarray,
    weights: np.ndarray,
    p_obs: float,
    k_max: int,
    beta_grid: np.ndarray,
) -> Tuple[float, float, float]:
    """Fit (β, N) for one class from a weighted s-histogram.

    Returns (beta, n_values, log_likelihood).  N follows from the
    truncated-count identity E[#observed] = N · Pr{s ≥ 1}.  The whole β
    grid is evaluated in one matrix pass (:func:`_class_log_pmf_grid`);
    the per-β reference loop lives in :mod:`repro.validation.differential`.
    """
    total = float(weights.sum())
    if total <= 0:
        return float(beta_grid[0]), 0.0, 0.0
    log_pmf, p_seen = _class_log_pmf_grid(s_values, beta_grid, k_max, p_obs)
    logliks = np.sum(
        weights[None, :] * (log_pmf - np.log(p_seen)[:, None]), axis=1
    )
    best = int(np.argmax(logliks))
    return (
        float(beta_grid[best]),
        total / float(p_seen[best]),
        float(logliks[best]),
    )


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def prior_parameters(
    relation: str, context: ObservationContext
) -> EstimatedParameters:
    """The documented prior the estimator degrades to on empty samples.

    See :data:`PRIOR_BETA` / :data:`PRIOR_OCCURRENCE_SHARE` — an empty
    pilot supports no populations, so every population size is zero and
    both power laws sit at the uninformative β = 1 on minimal support.
    """
    return EstimatedParameters(
        relation=relation,
        n_good_values=0.0,
        n_bad_values=0.0,
        beta_good=PRIOR_BETA,
        beta_bad=PRIOR_BETA,
        n_good_docs=0.0,
        n_bad_docs=0.0,
        k_max_good=1,
        k_max_bad=1,
        log_likelihood=0.0,
        good_occurrence_share=PRIOR_OCCURRENCE_SHARE,
    )


def estimate_parameters(
    observations: RelationObservations,
    context: ObservationContext,
    reference: Optional[ConfidenceReference] = None,
    beta_grid: Optional[np.ndarray] = None,
    k_max_factor: float = 3.0,
) -> EstimatedParameters:
    """Fit the observation model to what the execution has seen so far.

    An empty sample (no processed documents, or only unproductive ones)
    degrades to :func:`prior_parameters` instead of raising — downstream
    models then predict zero output rather than the pipeline crashing on
    a pilot that happened to see nothing.
    """
    if observations.documents_processed == 0 or not observations.sample_frequency:
        return prior_parameters(observations.relation, context)
    if beta_grid is None:
        beta_grid = np.linspace(0.2, 2.6, 25)

    if reference is not None and observations.value_confidences:
        split = _confidence_split(observations, context, reference)
    else:
        split = None

    s_histogram: Dict[int, float] = {}
    for s in observations.sample_frequency.values():
        s_histogram[s] = s_histogram.get(s, 0.0) + 1.0
    s_values = np.array(sorted(s_histogram), dtype=int)
    max_s = int(s_values[-1])
    k_max_good = _support_cap(
        max_s, context.p_obs_good, k_max_factor, context.database_size
    )
    k_max_bad = _support_cap(
        max_s, context.p_obs_bad, k_max_factor, context.database_size
    )

    if split is not None:
        good_weights = np.zeros(len(s_values))
        bad_weights = np.zeros(len(s_values))
        index_of = {int(s): i for i, s in enumerate(s_values)}
        for value, s in observations.sample_frequency.items():
            pi = split.posterior.get(value, split.occurrence_share)
            good_weights[index_of[int(s)]] += pi
            bad_weights[index_of[int(s)]] += 1.0 - pi
        beta_g, n_good_values, ll_g = _fit_single_class(
            s_values, good_weights, context.p_obs_good, k_max_good, beta_grid
        )
        beta_b, n_bad_values, ll_b = _fit_single_class(
            s_values, bad_weights, context.p_obs_bad, k_max_bad, beta_grid
        )
        loglik = ll_g + ll_b + split.log_likelihood
        share = split.occurrence_share
    else:
        beta_g, beta_b, n_good_values, n_bad_values, loglik, share = (
            _fit_blind_mixture(
                s_values,
                np.array([s_histogram[int(s)] for s in s_values]),
                context,
                k_max_good,
                k_max_bad,
                beta_grid,
            )
        )

    n_good_docs, n_bad_docs = _estimate_document_classes(
        observations,
        context,
        n_good_values=n_good_values,
        n_bad_values=n_bad_values,
        mean_good=PowerLawModel(beta_g, k_max_good).mean(),
        mean_bad=PowerLawModel(beta_b, k_max_bad).mean(),
    )
    estimate = EstimatedParameters(
        relation=observations.relation,
        n_good_values=n_good_values,
        n_bad_values=n_bad_values,
        beta_good=beta_g,
        beta_bad=beta_b,
        n_good_docs=n_good_docs,
        n_bad_docs=n_bad_docs,
        k_max_good=k_max_good,
        k_max_bad=k_max_bad,
        log_likelihood=loglik,
        good_occurrence_share=share,
    )
    checker = active_checker()
    if checker.enabled:
        where = f"mle.estimate_parameters[{observations.relation}]"
        checker.check_estimate(where, estimate, context.database_size)
        checker.check_refit(
            where,
            _fit_fingerprint(
                observations, context, reference, beta_grid, k_max_factor
            ),
            estimate.log_likelihood,
        )
    return estimate


def _fit_fingerprint(
    observations: RelationObservations,
    context: ObservationContext,
    reference: Optional[ConfidenceReference],
    beta_grid: np.ndarray,
    k_max_factor: float,
) -> str:
    """A digest of everything that determines a fit's log-likelihood.

    Two calls with equal fingerprints see identical inputs, so their
    deterministic grid searches must reach the same likelihood — the
    comparability condition behind the refit-monotonicity invariant.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        f"{observations.relation}|{observations.documents_processed}|"
        f"{observations.productive_documents}|{context.database_size}|"
        f"{context.coverage!r}|{context.tp!r}|{context.fp!r}|"
        f"{context.theta!r}|{reference is not None}|{k_max_factor!r}".encode()
    )
    for value, s in sorted(observations.sample_frequency.items()):
        digest.update(f"|{value}:{s}".encode())
        confidences = observations.value_confidences.get(value, ())
        digest.update(("|" + ",".join(repr(c) for c in confidences)).encode())
    digest.update(np.asarray(beta_grid, dtype=float).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# confidence-driven split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConfidenceSplit:
    occurrence_share: float
    posterior: Mapping[str, float]
    log_likelihood: float


def _confidence_split(
    observations: RelationObservations,
    context: ObservationContext,
    reference: ConfidenceReference,
) -> _ConfidenceSplit:
    """Fit the good-occurrence share and per-value posteriors from scores."""
    log_pg = np.log(np.clip(reference.good_at(context.theta), 1e-12, None))
    log_pb = np.log(np.clip(reference.bad_at(context.theta), 1e-12, None))
    bins: List[int] = []
    per_value_bins: Dict[str, List[int]] = {}
    for value, confidences in observations.value_confidences.items():
        indices = [reference.bin_of(c) for c in confidences]
        per_value_bins[value] = indices
        bins.extend(indices)
    counts = np.bincount(bins, minlength=reference.n_bins).astype(float)

    def negative(lam: float) -> float:
        mix = lam * np.exp(log_pg) + (1.0 - lam) * np.exp(log_pb)
        return -float(np.sum(counts * np.log(np.clip(mix, 1e-300, None))))

    lam, fun = minimize_bounded(negative, (1e-3, 1.0 - 1e-3))
    lam = float(lam)
    posterior: Dict[str, float] = {}
    log_lam, log_one_minus = math.log(lam), math.log(1.0 - lam)
    for value, indices in per_value_bins.items():
        lg = log_lam + float(np.sum(log_pg[indices]))
        lb = log_one_minus + float(np.sum(log_pb[indices]))
        m = max(lg, lb)
        posterior[value] = math.exp(lg - m) / (
            math.exp(lg - m) + math.exp(lb - m)
        )
    return _ConfidenceSplit(
        occurrence_share=lam,
        posterior=posterior,
        log_likelihood=-float(fun),
    )


# ---------------------------------------------------------------------------
# fallback: blind mixture on the s(a) histogram
# ---------------------------------------------------------------------------


def _fit_blind_mixture(
    s_values: np.ndarray,
    s_counts: np.ndarray,
    context: ObservationContext,
    k_max_good: int,
    k_max_bad: int,
    beta_grid: np.ndarray,
) -> Tuple[float, float, float, float, float, float]:
    """Grid-search the two-class mixture without confidence information."""
    n_observed = float(s_counts.sum())
    coarse = beta_grid[:: max(1, len(beta_grid) // 13)]
    # The class log-pmfs depend on one β each, so hoist them out of the
    # (β_good, β_bad) product loop: |grid| evaluations per class instead of
    # |grid|² for the bad class.  Numerics are unchanged — the same rows
    # feed the same mixture fit.
    rows_good = [
        _class_log_pmf(s_values, float(b), k_max_good, context.p_obs_good)
        for b in coarse
    ]
    rows_bad = [
        _class_log_pmf(s_values, float(b), k_max_bad, context.p_obs_bad)
        for b in coarse
    ]
    best = None
    for beta_g, (log_pmf_g, p_seen_g) in zip(coarse, rows_good):
        for beta_b, (log_pmf_b, p_seen_b) in zip(coarse, rows_bad):

            def negative(w: float) -> float:
                mix = (
                    w * np.exp(log_pmf_g) / p_seen_g
                    + (1.0 - w) * np.exp(log_pmf_b) / p_seen_b
                )
                return -float(
                    np.sum(s_counts * np.log(np.clip(mix, 1e-300, None)))
                )

            w, fun = minimize_bounded(negative, (1e-3, 1.0 - 1e-3))
            w = float(w)
            loglik = -float(fun)
            if best is None or loglik > best[4]:
                best = (
                    float(beta_g),
                    float(beta_b),
                    w * n_observed / p_seen_g,
                    (1.0 - w) * n_observed / p_seen_b,
                    loglik,
                    w,
                )
    return best


# ---------------------------------------------------------------------------
# document classes
# ---------------------------------------------------------------------------


def _estimate_document_classes(
    observations: RelationObservations,
    context: ObservationContext,
    n_good_values: float,
    n_bad_values: float,
    mean_good: float,
    mean_bad: float,
) -> Tuple[float, float]:
    """Recover (|Dg|, |Db|) from yields and the productive-document rate.

    Total extractable occurrences per class are O_c = N_c · E[frequency];
    non-empty documents hold them at the (de-thinned) mean per-document
    multiplicity.  The good share of non-empty documents is taken from the
    good share of occurrences — the estimator cannot observe which
    documents are good, only how much material they carry.
    """
    total_good_occ = n_good_values * mean_good
    total_bad_occ = n_bad_values * mean_bad
    total_occ = max(total_good_occ + total_bad_occ, 1e-9)
    rate_eff = (
        context.tp * total_good_occ + context.fp * total_bad_occ
    ) / total_occ
    if observations.productive_documents:
        yields = observations.tuples_per_document
        observed_mean_yield = sum(k * c for k, c in yields.items()) / max(
            observations.productive_documents, 1
        )
    else:
        observed_mean_yield = 1.0
    # Invert the zero-truncated thinning: a document with m mentions yields
    # Binomial(m, rate_eff); conditioned on >= 1 its mean is
    # m·r / (1 - (1-r)^m).  Fixed-point solve for m.
    m = max(observed_mean_yield / max(rate_eff, 1e-9), 1.0)
    for _ in range(50):
        seen = 1.0 - (1.0 - min(rate_eff, 1.0)) ** m
        m_next = observed_mean_yield * max(seen, 1e-9) / max(rate_eff, 1e-9)
        if abs(m_next - m) < 1e-9:
            break
        m = max(m_next, 1.0)
    non_empty = min(total_occ / m, float(context.database_size))
    good_share = total_good_occ / total_occ
    n_good_docs = non_empty * good_share
    n_bad_docs = non_empty - n_good_docs
    return n_good_docs, n_bad_docs
