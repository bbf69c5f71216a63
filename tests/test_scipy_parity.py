"""The program's scipy-free kernels against the scipy calls they replace.

``binom_pmf`` and ``_hypergeom_pmf`` call private Boost ufuncs in
``scipy.special._ufuncs``, ``minimize_bounded`` is a port of scipy's
bounded Brent, and the FFT convolution is ``fftconvolve``'s 1-D body.
Each must return scipy's floats bit for bit: these tests compare raw
bytes and scalar types, and are the tripwire if a scipy release renames
the ufuncs or changes the reference algorithms.
"""

import numpy as np
import pytest
from scipy import optimize, stats
from scipy.signal import fftconvolve

import repro.estimation.bounded as bounded_module
import repro.estimation.mle as mle_module
import repro.estimation.powerlaw as powerlaw_module
from repro.estimation import ObservationContext, estimate_parameters, fit_power_law
from repro.estimation.bounded import minimize_bounded
from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.models.distributions import _hypergeom_pmf, binom_pmf
from repro.models.generating import _truncated_convolve
from repro.retrieval import ScanRetriever

#: probabilities on and beyond the edges of [0, 1], plus ordinary ones
EDGE_P = (0.0, 1.0, 1e-13, 1.2, -0.1, 0.5, 0.3 + 1e-9, 1.0 - 1e-12)


def assert_same(mine, reference):
    """Equal bytes, dtype and shape, and the same scalar/array type."""
    assert type(mine) is type(reference)
    mine_array, reference_array = np.asarray(mine), np.asarray(reference)
    assert mine_array.dtype == reference_array.dtype
    assert mine_array.shape == reference_array.shape
    assert mine_array.tobytes() == reference_array.tobytes()


def k_grid(rng, top):
    """Integer quantiles from below the support to past it, any dtype."""
    k = np.arange(-3, top + 4)
    if rng.random() < 0.3:
        return k.astype(float) + rng.choice([0.0, 0.5], size=k.size)
    return k


class TestBinomialPmf:
    def test_random_grids(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = rng.integers(0, 60, size=rng.integers(1, 6))
            p = rng.choice(EDGE_P) if rng.random() < 0.5 else rng.random()
            k = k_grid(rng, int(n.max()))
            assert_same(
                binom_pmf(k[None, :], n[:, None], p),
                stats.binom.pmf(k[None, :], n[:, None], p),
            )

    @pytest.mark.parametrize("p", EDGE_P)
    def test_edge_probabilities(self, p):
        k = np.arange(-2, 40)
        n = np.arange(0, 35)
        assert_same(
            binom_pmf(k[None, :], n[:, None], p),
            stats.binom.pmf(k[None, :], n[:, None], p),
        )
        assert_same(binom_pmf(0, n, p), stats.binom.pmf(0, n, p))

    @pytest.mark.parametrize(
        "k, n, p",
        [
            (3, 10, 0.4),
            (0, 0, 0.5),
            (-1, 10, 0.4),
            (11, 10, 0.4),
            (2.5, 10, 0.4),
            (np.nan, 10, 0.4),
            (3, 10.5, 0.4),
            (3, -1, 0.4),
            (3, 10, 1.5),
            (3, 10, np.nan),
            (np.int32(3), np.int64(10), np.float64(0.2)),
        ],
    )
    def test_scalar_calls(self, k, n, p):
        assert_same(binom_pmf(k, n, p), stats.binom.pmf(k, n, p))

    def test_mixed_invalid_rows(self):
        k = np.array([[0, 1, 2, np.nan], [3, -1, 2.5, 4]])
        n = np.array([[4], [-2]])
        p = np.array([0.3, 1.2, 0.0, 1.0])
        assert_same(binom_pmf(k, n, p), stats.binom.pmf(k, n, p))


class TestHypergeometricPmf:
    def test_random_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            total = int(rng.integers(1, 200))
            draws = int(rng.integers(0, total + 1))
            successes = rng.integers(0, total + 1, size=rng.integers(1, 6))
            k = k_grid(rng, int(successes.max()))
            assert_same(
                _hypergeom_pmf(k[None, :], total, successes[:, None], draws),
                stats.hypergeom.pmf(k[None, :], total, successes[:, None], draws),
            )

    def test_out_of_model_rows(self):
        # more successes than the population, or draws past it: NaN rows
        k = np.arange(0, 12)
        successes = np.array([3, 9, 10, 11, 14])
        for total, draws in ((10, 4), (10, 10), (10, 12), (0, 0)):
            assert_same(
                _hypergeom_pmf(k[None, :], total, successes[:, None], draws),
                stats.hypergeom.pmf(k[None, :], total, successes[:, None], draws),
            )

    @pytest.mark.parametrize(
        "k, total, successes, draws",
        [
            (0, 50, 5, 10),
            (2, 50, 5, 10),
            (6, 50, 5, 10),
            (-1, 50, 5, 10),
            (1.5, 50, 5, 10),
            (np.nan, 50, 5, 10),
            (0, 50, 60, 10),
            (0, 50.5, 5, 10),
            (0, 0, 0, 0),
        ],
    )
    def test_scalar_calls(self, k, total, successes, draws):
        assert_same(
            _hypergeom_pmf(k, total, successes, draws),
            stats.hypergeom.pmf(k, total, successes, draws),
        )

    def test_unseen_vector(self):
        f = np.array([0, 1, 5, 40, 120])
        assert_same(
            _hypergeom_pmf(0, 120, f, 37), stats.hypergeom.pmf(0, 120, f, 37)
        )


def scipy_bounded(func, bounds, maxiter=500):
    result = optimize.minimize_scalar(
        func, bounds=bounds, method="bounded", options={"maxiter": maxiter}
    )
    return result.x, result.fun


class TestBoundedBrent:
    def test_random_problems(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            low = float(rng.uniform(-5, 5))
            high = low + float(rng.uniform(1e-3, 10))
            centre, width = rng.uniform(-6, 6), rng.uniform(0.1, 3)
            shape = int(rng.integers(0, 3))

            def func(x, c=centre, w=width, s=shape):
                if s == 0:
                    return float((x - c) ** 2)
                if s == 1:
                    return float(np.cos(w * x) + 0.1 * (x - c) ** 2)
                return float(abs(x - c) ** 1.5 - w * np.log1p(x * x))

            mine = minimize_bounded(func, (low, high))
            reference = scipy_bounded(func, (low, high))
            assert_same(mine[0], reference[0])
            assert_same(mine[1], reference[1])

    def test_hits_maxiter(self, monkeypatch):
        def func(x):
            return float(np.sin(40.0 * x) + x)

        for maxiter in (1, 2, 3, 5):
            monkeypatch.setattr(bounded_module, "MAXITER", maxiter)
            mine = minimize_bounded(func, (0.0, 3.0))
            reference = scipy_bounded(func, (0.0, 3.0), maxiter=maxiter)
            assert_same(mine[0], reference[0])
            assert_same(mine[1], reference[1])

    def test_defaults_are_scipys(self):
        assert (bounded_module.XATOL, bounded_module.MAXITER) == (1e-5, 500)

    def test_numpy_objective(self):
        def func(x):
            return np.float64(x) ** 2 - 1.0

        assert_same(
            minimize_bounded(func, (-1.0, 2.0))[0], scipy_bounded(func, (-1.0, 2.0))[0]
        )

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((1.0,), "two elements"),
            ((0.0, np.inf), "finite scalars"),
            ((2.0, 1.0), "lower bound exceeds"),
        ],
    )
    def test_bad_bounds(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            minimize_bounded(lambda x: x, bounds)


@pytest.fixture(scope="module")
def repo_objectives(mini_db1, mini_db2, mini_extractor1, mini_extractor2, mini_char1):
    """Every objective the estimators minimize, with its bounds.

    Covers the confidence path's mixture λ, the blind fallback's mixture
    w and the power-law β fit, captured from real estimator runs.
    """
    captured = {}

    def recorder(module):
        original = module.minimize_bounded

        def record(func, bounds):
            captured.setdefault(module.__name__, []).append((func, bounds))
            return original(func, bounds)

        return record

    inputs = JoinInputs(
        database1=mini_db1,
        database2=mini_db2,
        extractor1=mini_extractor1,
        extractor2=mini_extractor2,
    )
    run = IndependentJoin(
        inputs, ScanRetriever(mini_db1), ScanRetriever(mini_db2)
    ).run(budgets=Budgets(max_documents1=160, max_documents2=160))
    observations = run.observations.side(1)
    context = ObservationContext(
        database_size=len(mini_db1),
        coverage=observations.documents_processed / len(mini_db1),
        tp=mini_char1.tp_at(0.4),
        fp=mini_char1.fp_at(0.4),
        theta=0.4,
    )
    with pytest.MonkeyPatch.context() as patch:
        for module in (mle_module, powerlaw_module):
            patch.setattr(module, "minimize_bounded", recorder(module))
        estimate_parameters(observations, context, reference=mini_char1.confidences)
        estimate_parameters(observations, context, reference=None)
        fit_power_law({1: 40, 2: 11, 3: 6, 5: 2, 9: 1})
    return captured


class TestRepoObjectives:
    def test_all_three_objectives_seen(self, repo_objectives):
        assert len(repo_objectives[mle_module.__name__]) >= 2
        assert len(repo_objectives[powerlaw_module.__name__]) >= 1

    def test_same_minimum_as_scipy(self, repo_objectives):
        for calls in repo_objectives.values():
            for func, bounds in calls:
                mine = minimize_bounded(func, bounds)
                reference = scipy_bounded(func, bounds)
                assert_same(mine[0], reference[0])
                assert_same(mine[1], reference[1])


class TestFftConvolution:
    def test_matches_fftconvolve(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a = rng.random(int(rng.integers(96, 700)))
            b = rng.random(int(rng.integers(96, 700)))
            a[rng.random(a.size) < 0.3] = 0.0
            full = a.size + b.size - 1
            for max_degree in (full + 5, full - 1, int(rng.integers(0, full))):
                assert_same(
                    _truncated_convolve(a, b, max_degree, method="fft"),
                    np.clip(fftconvolve(a, b)[: max_degree + 1], 0.0, None),
                )

    def test_auto_picks_fft_at_threshold(self):
        rng = np.random.default_rng(24)
        a, b = rng.random(96), rng.random(130)
        assert_same(
            _truncated_convolve(a, b, 512),
            np.clip(fftconvolve(a, b)[:513], 0.0, None),
        )
