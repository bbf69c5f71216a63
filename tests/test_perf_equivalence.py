"""Golden equivalence tests for the performance engineering layer.

Every vectorized kernel keeps its scalar predecessor as a reference
implementation in :mod:`repro.validation.differential`; these tests pin
the contract:

* vectorized model predictions match the scalar references within 1e-9,
  kernel by kernel and through the unpruned optimizer's plan choices.

The bound-pruned optimizer's exactness against the unpruned bisection is
pinned separately in ``tests/test_pruning.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import QualityRequirement
from repro.core.plan import RetrievalKind
from repro.estimation.mle import _fit_single_class
from repro.experiments.figures import task_statistics
from repro.models.distributions import (
    NoneExtractedBatch,
    _hypergeom_weights,
    _none_extracted_table,
    probability_none_extracted,
)
from repro.models.generating import GeneratingFunction
from repro.models.idjn_model import IDJNModel
from repro.models import oijn_model
from repro.models.oijn_model import OIJNModel
from repro.models.retrieval_models import AQGModel, ClassMix
from repro.models.zgjn_model import ZGJNModel
from repro.optimizer import enumerate_plans
from repro.optimizer.optimizer import JoinOptimizer
from repro.validation.differential import (
    BisectionJoinOptimizer,
    ReferenceJoinOptimizer,
    reference_aqg_reach,
    reference_fit_single_class,
    reference_idjn_predict,
    reference_oijn_predict,
    reference_zgjn_predict,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# distribution kernels
# ---------------------------------------------------------------------------


class TestDistributionKernels:
    def test_hypergeom_table_matches_scipy(self):
        population, draws = 500, 120
        successes = np.array([0, 1, 3, 17, 60, 499, 500])
        k = np.arange(0, 130)
        ours = _hypergeom_weights(population, draws, 501)[successes][:, k]
        scipys = stats.hypergeom.pmf(
            k[None, :], population, successes[:, None], draws
        )
        np.testing.assert_allclose(ours, scipys, atol=TOL, rtol=TOL)

    def test_hypergeom_table_out_of_model_defers_to_scipy(self):
        # successes > population is out of model; both paths must agree
        # (scipy flags the bad rows with NaN).
        ours = _hypergeom_weights(10, 4, 13)[[3, 12]][:, :5]
        scipys = stats.hypergeom.pmf(
            np.arange(5)[None, :], 10, np.array([3, 12])[:, None], 4
        )
        np.testing.assert_array_equal(np.isnan(ours), np.isnan(scipys))
        mask = ~np.isnan(scipys)
        np.testing.assert_allclose(ours[mask], scipys[mask], atol=TOL)

    def test_none_extracted_batch_matches_scalar(self):
        occurrences = np.array([0, 1, 2, 2, 5, 13, 40, 0])
        batch = NoneExtractedBatch(occurrences)
        for population, draws, rate in [
            (200, 50, 0.7),
            (200, 0, 0.7),
            (200, 200, 0.3),
            (40, 39, 1.0),
            (40, 17, 0.0),
        ]:
            got = batch.evaluate(population, draws, rate)
            want = np.array(
                [
                    probability_none_extracted(population, draws, int(f), rate)
                    for f in occurrences
                ]
            )
            np.testing.assert_allclose(got, want, atol=TOL, rtol=TOL)

    def test_all_zero_batch_shortcut_matches_the_table_path(self):
        occurrences = np.zeros((3, 4), dtype=np.int64)
        batch = NoneExtractedBatch(occurrences)
        assert batch.all_zero
        _none_extracted_table.cache_clear()
        for population, draws, rate in [
            (200, 50, 0.7), (200, 200, 0.3), (40, 39, 1.0), (1, 0, 0.0),
        ]:
            got = batch.evaluate(population, draws, rate)
            # the table path, computed without entering the shared memo
            table = _none_extracted_table.__wrapped__(
                population, draws, rate, batch.width
            )
            want = table[occurrences]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # the shortcut built no shared table
        assert _none_extracted_table.cache_info().currsize == 0
        assert not NoneExtractedBatch(np.array([0, 1])).all_zero

    def test_none_extracted_tables_do_not_depend_on_order(self):
        first = NoneExtractedBatch(np.array([0, 3, 1, 3, 7]))
        second = NoneExtractedBatch(np.array([[2, 0], [5, 5]]))
        points = [(200, 50, 0.7), (200, 200, 0.3), (9, 4, 0.5), (3, 2, 0.9)]

        def run(batches):
            _none_extracted_table.cache_clear()
            return {
                (name, point): batch.evaluate(*point).tobytes()
                for name, batch in batches
                for point in points
            }

        forward = run([("A", first), ("B", second)])
        backward = run([("B", second), ("A", first)])
        assert forward == backward
        # an out-of-model point (counts above the population) included
        assert np.isnan(first.evaluate(*points[-1])).any()

    def test_none_extracted_tables_are_shared_and_read_only(self):
        _none_extracted_table.cache_clear()
        a = NoneExtractedBatch(np.array([4, 1]))
        b = NoneExtractedBatch(np.array([[0, 1], [4, 3]]))
        np.testing.assert_array_equal(
            a.evaluate(50, 10, 0.4), b.evaluate(50, 10, 0.4)[[1, 0], [0, 1]]
        )
        info = _none_extracted_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        table = _none_extracted_table(50, 10, 0.4, 5)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0.0

    def test_none_extracted_batch_empty_and_degenerate(self):
        assert NoneExtractedBatch(np.array([])).evaluate(10, 5, 0.5).size == 0
        np.testing.assert_array_equal(
            NoneExtractedBatch(np.array([3, 0])).evaluate(0, 5, 0.5),
            np.ones(2),
        )


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


class TestGeneratingFunctionMethods:
    def test_power_fft_matches_direct(self):
        coeffs = np.linspace(1.0, 0.01, 150)
        gf = GeneratingFunction(coeffs)
        direct = gf.power(7, max_degree=400, method="direct")
        fft = gf.power(7, max_degree=400, method="fft")
        np.testing.assert_allclose(
            direct.coefficients, fft.coefficients, atol=TOL, rtol=TOL
        )

    def test_compose_fft_matches_direct(self):
        outer = GeneratingFunction(np.linspace(0.5, 0.01, 120))
        inner = GeneratingFunction(np.linspace(1.0, 0.1, 110))
        direct = outer.compose(inner, max_degree=300, method="direct")
        fft = outer.compose(inner, max_degree=300, method="fft")
        np.testing.assert_allclose(
            direct.coefficients, fft.coefficients, atol=TOL, rtol=TOL
        )


# ---------------------------------------------------------------------------
# model predictions: vectorized vs scalar
# ---------------------------------------------------------------------------


def _assert_predictions_close(fast, slow):
    assert fast.n_good == pytest.approx(slow.n_good, abs=TOL, rel=TOL)
    assert fast.n_bad == pytest.approx(slow.n_bad, abs=TOL, rel=TOL)
    assert fast.total_time == pytest.approx(slow.total_time, abs=TOL, rel=TOL)


@pytest.fixture(scope="module")
def statistics(hq_ex_task):
    return task_statistics(hq_ex_task, 0.4, 0.4)


class TestModelEquivalence:
    @pytest.mark.parametrize("per_value", [True, False])
    def test_idjn(self, statistics, per_value):
        model = IDJNModel(
            statistics,
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
            per_value=per_value,
        )
        for share in (0.0, 0.17, 0.5, 1.0):
            e1 = share * statistics.side1.n_documents
            e2 = share * statistics.side2.n_documents
            _assert_predictions_close(
                model.predict(e1, e2), reference_idjn_predict(model, e1, e2)
            )

    @pytest.mark.parametrize("outer", [1, 2])
    def test_oijn(self, statistics, outer):
        model = OIJNModel(statistics, RetrievalKind.SCAN, outer=outer)
        max_effort = model.outer_model.max_effort
        for share in (0.0, 0.25, 0.75, 1.0):
            effort = share * max_effort
            _assert_predictions_close(
                model.predict(effort), reference_oijn_predict(model, effort)
            )

    def test_zgjn(self, statistics):
        model = ZGJNModel(statistics)
        for queries in (0.0, 3.0, 11.5, 40.0):
            _assert_predictions_close(
                model.predict(queries), reference_zgjn_predict(model, queries)
            )

    def test_aqg_reach_fast_matches_scalar(self, hq_ex_task, statistics):
        model = AQGModel(statistics.side1, hq_ex_task.query_stats1)
        side = statistics.side1
        for effort in (0.0, 1.0, 2.5, float(model.max_effort)):
            fast = model._reach_fast(effort, side.n_good_docs, "good")
            slow = reference_aqg_reach(
                model, effort, side.n_good_docs, lambda s: s.good_hits
            )
            assert fast == slow  # bit-identical by construction

    def test_class_mix_is_memoized(self, statistics, hq_ex_task):
        model = AQGModel(statistics.side1, hq_ex_task.query_stats1)
        assert model.class_mix(2.0) is model.class_mix(2.0)


class TestOIJNSharing:
    """One set of OIJN vectors per side pair, shared by every outer plan."""

    @pytest.mark.parametrize("per_value", [True, False])
    def test_outer_plans_share_one_vectors_object(self, statistics, per_value):
        for outer in (1, 2):
            models = [
                OIJNModel(statistics, kind, outer=outer, per_value=per_value)
                for kind in (
                    RetrievalKind.SCAN,
                    RetrievalKind.FILTERED_SCAN,
                    RetrievalKind.AQG,
                )
            ]
            first = models[0]._vec()
            assert all(model._vec() is first for model in models)
            other = OIJNModel(
                statistics,
                RetrievalKind.SCAN,
                outer=outer,
                per_value=not per_value,
            )
            assert other._vec() is not first

    def test_one_vectors_build_per_side_pair(self, hq_ex_task, monkeypatch):
        builds = []
        original = oijn_model._OIJNVectors.__init__

        def counting(self, *args, **kwargs):
            builds.append(args[:2])
            original(self, *args, **kwargs)

        monkeypatch.setattr(oijn_model._OIJNVectors, "__init__", counting)
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        optimizer = JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)
        optimizer.optimize(plans, QualityRequirement(tau_good=20, tau_bad=40))
        models = [
            model
            for model in optimizer._models.values()
            if isinstance(model, OIJNModel)
        ]
        # 2 outer choices x 3 outer retrievals x 4 extractor (θ1, θ2)
        # pairs, over 8 distinct (outer side, inner side) pairs
        assert len(models) == 24
        assert len(builds) == 8
        assert len({(id(a), id(b)) for a, b in builds}) == 8

    def test_outer_batches_build_once_per_outer_side(
        self, hq_ex_task, monkeypatch
    ):
        arrays = []
        original = oijn_model._occurrence_arrays

        def counting(side, values):
            arrays.append(side)
            return original(side, values)

        monkeypatch.setattr(oijn_model, "_occurrence_arrays", counting)
        outers = []
        build = oijn_model._OuterVectors.__init__

        def counting_outer(self, side):
            outers.append(side)
            build(self, side)

        monkeypatch.setattr(oijn_model._OuterVectors, "__init__", counting_outer)
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        optimizer = JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)
        optimizer.optimize(plans, QualityRequirement(tau_good=20, tau_bad=40))
        models = [
            model
            for model in optimizer._models.values()
            if isinstance(model, OIJNModel)
        ]
        # 8 side pairs over 4 distinct outer sides (2 sides x 2 θ): three
        # outer batches per outer side and one inner batch per pair, where
        # building the outer batches per pair took 4 x 8 = 32
        assert len({id(side) for side in outers}) == len(outers) == 4
        assert len(arrays) == 3 * 4 + 8 < 4 * 8
        for model in models:
            vec = model._vec()
            outer_side = model.statistics.side(model.outer)
            values = sorted(
                set(outer_side.good_frequency) | set(outer_side.bad_frequency)
            )
            good_values = list(outer_side.good_frequency)
            bad_only = [
                v
                for v in outer_side.bad_frequency
                if v not in outer_side.good_frequency
            ]
            for batches, expected_values in (
                (vec.outer_occ, values),
                (vec.mean_good_occ, good_values),
                (vec.mean_bad_occ, bad_only),
            ):
                expected = original(outer_side, expected_values)
                for batch, reference in zip(batches, expected):
                    np.testing.assert_array_equal(
                        batch.occurrences, reference.occurrences
                    )
            # the pair's vectors read the outer side's one set of batches
            assert vec.outer_occ is oijn_model.outer_vectors(outer_side).occ

    def test_mixes_with_the_same_draws_hit_the_class_mean_memo(
        self, statistics
    ):
        model = OIJNModel(
            statistics, RetrievalKind.SCAN, outer=1, per_value=False
        )
        # both mixes round to 10 good and 3 bad documents drawn
        first = model._mean_issue_cache(ClassMix(10.2, 3.4, 0.0))
        second = model._mean_issue_cache(ClassMix(9.6, 2.6, 7.0))
        assert second is first
        assert (model._issue_cache_hits, model._issue_cache_misses) == (1, 1)
        model._mean_issue_cache(ClassMix(10.6, 3.4, 0.0))
        assert model._issue_cache_misses == 2


class TestMLEEquivalence:
    def test_fit_single_class_matches_scalar(self):
        s_values = np.array([1, 2, 3, 5, 8])
        weights = np.array([30.0, 11.0, 4.0, 2.0, 1.0])
        beta_grid = np.linspace(0.5, 3.0, 26)
        fast = _fit_single_class(s_values, weights, 0.4, 40, beta_grid)
        slow = reference_fit_single_class(
            s_values, weights, 0.4, 40, beta_grid
        )
        assert fast[0] == pytest.approx(slow[0], abs=TOL)
        assert fast[1] == pytest.approx(slow[1], rel=TOL)
        assert fast[2] == pytest.approx(slow[2], rel=TOL)


# ---------------------------------------------------------------------------
# engine vs bisection
# ---------------------------------------------------------------------------

REQUIREMENTS = [
    QualityRequirement(tau_good=g, tau_bad=b)
    for g in (2, 15, 40, 80)
    for b in (30, 100000)
]


@pytest.fixture(scope="module")
def plan_space(hq_ex_task):
    return enumerate_plans(
        hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
    )


class TestEngineEquivalence:
    def test_vectorized_matches_scalar_within_tolerance(
        self, hq_ex_task, plan_space
    ):
        fast = BisectionJoinOptimizer(
            hq_ex_task.catalog(), costs=hq_ex_task.costs
        )
        slow = ReferenceJoinOptimizer(
            hq_ex_task.catalog(), costs=hq_ex_task.costs
        )
        for requirement in REQUIREMENTS[:4]:
            got = fast.optimize(plan_space, requirement)
            want = slow.optimize(plan_space, requirement)
            for a, b in zip(got.evaluations, want.evaluations):
                assert a.plan == b.plan
                assert a.feasible == b.feasible
                assert a.effort_fraction == pytest.approx(
                    b.effort_fraction, abs=1e-12
                )
                if a.feasible:
                    assert a.prediction.n_good == pytest.approx(
                        b.prediction.n_good, abs=TOL, rel=TOL
                    )

