import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import (
    CoordSet,
    aggregate_reports,
    hungarian_match,
    score_calibration,
    score_detection,
    score_probability_terms,
)

from probcell.evalmetrics import linear_sum_assignment, pair_distances

from oracles import (
    brute_force_assignment_cost,
    scipy_assignment,
    scipy_distances,
    scipy_hungarian_match,
)


def cs(*points, p=None):
    return CoordSet(np.asarray(points, dtype=float), p=p)


class TestHungarian:
    def test_identical_sets_identity_zero_distance(self, rng):
        pts = rng.random((6, 3)) * 20
        pairs = hungarian_match(CoordSet(pts), CoordSet(pts.copy()))
        assert [(g, p) for g, p, _ in pairs] == [(i, i) for i in range(6)]
        assert sum(d for _, _, d in pairs) == 0.0

    def test_empty_sides(self):
        assert hungarian_match(CoordSet.empty(), cs([0, 0, 0])) == []
        assert hungarian_match(cs([0, 0, 0]), CoordSet.empty()) == []
        assert hungarian_match(CoordSet.empty(), CoordSet.empty()) == []

    def test_matches_permutation_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            gt = rng.random((n, 3)) * 15
            pred = rng.random((m, 3)) * 15
            pairs = hungarian_match(CoordSet(gt), CoordSet(pred))
            got = sum(d for _, _, d in pairs)
            want = brute_force_assignment_cost(gt, pred)
            assert got == pytest.approx(want, abs=1e-9)


@st.composite
def _costs(draw):
    """A 0-40 x 0-40 cost matrix, tall or wide: integer costs in {0..3}
    (ties everywhere), one constant, or uniform floats."""
    shape = (draw(st.integers(0, 40)), draw(st.integers(0, 40)))
    kind = draw(st.sampled_from(["integer", "constant", "float"]))
    if kind == "integer":
        return draw(arrays(np.float64, shape, elements=st.integers(0, 3)))
    if kind == "constant":
        return np.full(shape, float(draw(st.integers(0, 3))))
    return draw(arrays(np.float64, shape, elements=st.floats(0.0, 100.0)))


@st.composite
def _point_sets(draw):
    """Two 0-40 point sets on a small integer grid (duplicates and equal
    distances throughout), a finer grid, anywhere in a box (where the order
    of the sum decides the last bit), or with coordinates whose squared
    distance overflows float64."""
    values = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.integers(-20, 20).map(lambda k: k * 0.25),
        st.floats(-100.0, 100.0),
        st.sampled_from([0.0, 1.0, -2.5, 1.4e154, -1.4e154, 1e300, -1e300]),
    ]))
    return [draw(arrays(np.float64, (draw(st.integers(0, 40)), 3), elements=values))
            for _ in range(2)]


class TestScipyOracle:
    """The numpy solver and distances against scipy's linear_sum_assignment
    and cdist, which the package used before: equal assignments, ties
    included, and equal distances bit for bit."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(cost=_costs())
    def test_assignment_equals_scipy(self, cost):
        rows, cols = linear_sum_assignment(cost)
        want_rows, want_cols = scipy_assignment(cost)
        assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(points=_point_sets())
    def test_distances_and_matches_equal_scipy(self, points):
        a, b = points
        want = scipy_distances(a, b)
        got = pair_distances(a, b)  # an overflow is inf, without a warning
        pairs = hungarian_match(CoordSet(a), CoordSet(b))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert pairs == scipy_hungarian_match(CoordSet(a), CoordSet(b))

    def test_large_matrix_equals_scipy(self, rng):
        """Blocks of rows in the distances, and long augmenting paths."""
        gt = rng.uniform(0.0, 60.0, (300, 3))
        pred = np.concatenate([gt + rng.normal(0.0, 1.0, gt.shape), rng.uniform(0.0, 60.0, (80, 3))])
        for a, b in ((gt, pred), (pred, gt)):
            assert pair_distances(a, b).tobytes() == scipy_distances(a, b).tobytes()
            assert hungarian_match(CoordSet(a), CoordSet(b)) == scipy_hungarian_match(
                CoordSet(a), CoordSet(b))

    @pytest.mark.parametrize("cost, message", [
        ([[0.0, np.nan]], "invalid numeric entries"),
        ([[0.0], [-np.inf]], "invalid numeric entries"),
        ([[np.inf, np.inf], [0.0, 1.0]], "infeasible"),
        ([[np.inf, 1.0], [np.inf, 2.0]], "infeasible"),
    ])
    def test_scipy_value_errors(self, cost, message):
        for solve in (linear_sum_assignment, scipy_assignment):
            with pytest.raises(ValueError, match=message):
                solve(np.asarray(cost))


class TestReferenceScenarios:
    """The five matching scenarios with t_match = 4 um."""

    def test_a_far_pair_is_fp_and_fn(self):
        r = score_detection(cs([0, 0, 0]), cs([0, 0, 6.0]), 4.0)
        assert (r.tp, r.fp, r.fn) == (0, 1, 1)

    def test_b_close_pair_is_tp(self):
        r = score_detection(cs([0, 0, 0]), cs([0, 0, 2.0]), 4.0)
        assert (r.tp, r.fp, r.fn) == (1, 0, 0)

    def test_c_two_predictions_in_radius_closest_wins(self):
        gt = cs([0, 0, 0])
        pred = cs([0, 0, 1.0], [0, 0, 3.0])
        r = score_detection(gt, pred, 4.0)
        assert (r.tp, r.fp, r.fn) == (1, 1, 0)
        assert r.pairs[0][1] == 0  # the closer prediction forms the pair

    def test_d_one_prediction_two_gt_other_becomes_fn(self):
        gt = cs([0, 0, 0], [0, 0, 5.0])
        pred = cs([0, 0, 2.0])
        r = score_detection(gt, pred, 4.0)
        assert (r.tp, r.fp, r.fn) == (1, 0, 1)
        assert r.pairs[0][0] == 0  # paired with the closer annotation

    def test_e_three_predictions_two_gt_farthest_is_fp(self):
        gt = cs([0, 0, 0], [0, 0, 8.0])
        pred = cs([0, 0, 1.0], [0, 0, 7.0], [0, 0, 11.5])
        r = score_detection(gt, pred, 4.0)
        assert (r.tp, r.fp, r.fn) == (2, 1, 0)


class TestDetectionMetrics:
    def test_empty_predictions_conventions(self):
        r = score_detection(cs([0, 0, 0], [8, 0, 0], [16, 0, 0]), CoordSet.empty(), 4.0)
        assert (r.tp, r.fp, r.fn) == (0, 0, 3)
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert r.zero_prediction_precision

    def test_two_tp_one_fp_one_fn(self):
        gt = cs([0, 0, 0], [10, 0, 0], [20, 0, 0])
        pred = cs([0, 0, 1.0], [10, 0, 1.0], [40, 0, 0])
        r = score_detection(gt, pred, 4.0)
        assert (r.tp, r.fp, r.fn) == (2, 1, 1)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f1 == pytest.approx(2 / 3)

    def test_swap_symmetry(self, rng):
        gt = CoordSet(rng.random((7, 3)) * 20)
        pred = CoordSet(rng.random((5, 3)) * 20)
        a = score_detection(gt, pred, 4.0)
        b = score_detection(pred, gt, 4.0)
        assert a.precision == pytest.approx(b.recall)
        assert a.recall == pytest.approx(b.precision)
        assert a.fp == b.fn and a.fn == b.fp
        assert a.f1 == pytest.approx(b.f1)

    def test_t_match_monotone_in_tp(self, rng):
        gt = CoordSet(rng.random((10, 3)) * 25)
        pred = CoordSet(rng.random((9, 3)) * 25)
        tps = [score_detection(gt, pred, t).tp for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert tps == sorted(tps)

    @pytest.mark.parametrize("t_match", [float("nan"), 0.0, -4.0])
    def test_t_match_must_be_positive(self, t_match):
        with pytest.raises(ValueError, match="t_match"):
            score_detection(cs([1, 1, 1]), cs([1, 1, 1]), t_match)

    def test_count_identities(self, rng):
        for _ in range(10):
            gt = CoordSet(rng.random((int(rng.integers(0, 8)), 3)) * 20)
            pred = CoordSet(rng.random((int(rng.integers(0, 8)), 3)) * 20)
            r = score_detection(gt, pred, 4.0)
            assert r.tp + r.fn == len(gt)
            assert r.tp + r.fp == len(pred)

    def test_aggregate_reports(self, rng):
        reports = []
        for _ in range(4):
            gt = CoordSet(rng.random((6, 3)) * 20)
            pred = CoordSet(rng.random((6, 3)) * 20)
            reports.append(score_detection(gt, pred, 4.0))
        agg = aggregate_reports(reports)
        assert agg["n_samples"] == 4
        f1s = [r.f1 for r in reports]
        assert agg["f1"]["mean"] == pytest.approx(np.mean(f1s))
        assert agg["f1"]["sd"] == pytest.approx(np.std(f1s))
        assert agg["tp"] == sum(r.tp for r in reports)


class TestCalibration:
    def test_one_match_per_detection_report(self, rng, monkeypatch):
        import probcell.evalmetrics as evalmetrics

        calls = []
        real = evalmetrics.hungarian_match

        def counting(gt, pred):
            calls.append((len(gt), len(pred)))
            return real(gt, pred)

        gt = CoordSet(rng.random((12, 3)) * 30)
        pred = CoordSet(gt.coords[:9] + rng.normal(0, 3, (9, 3)), p=rng.random(9))
        brier, nll = score_calibration(gt, pred, 4.0)
        monkeypatch.setattr(evalmetrics, "hungarian_match", counting)
        report = score_detection(gt, pred, 4.0)
        assert calls == [(12, 9)]
        assert (report.brier, report.nll) == (brier, nll)

    @pytest.mark.parametrize("t_match", [float("nan"), float("inf"), 0.0, -1.0])
    def test_t_match_must_be_positive_and_finite(self, t_match):
        """score_calibration once skipped the radius check: it scored NaN as
        (0.0, 0.0), a perfect score, since every pair fails both <= and >."""
        with pytest.raises(ValueError, match="t_match"):
            score_calibration(cs([0, 0, 0]), cs([0, 0, 1.0], p=[0.7]), t_match)

    def test_perfect_deterministic_detector(self):
        gt = cs([0, 0, 0], [10, 0, 0])
        brier, nll = score_calibration(gt, cs([0, 0, 0], [10, 0, 0]), 4.0)
        assert brier == 0.0
        assert nll == pytest.approx(0.0, abs=1e-6)

    def test_single_matched_gt_with_p(self):
        brier, _ = score_calibration(cs([0, 0, 0]), cs([0, 0, 1.0], p=[0.7]), 4.0)
        assert brier == pytest.approx((1 - 0.7) ** 2)

    def test_deterministic_one_tp_one_fp(self):
        gt = cs([0, 0, 0])
        pred = cs([0, 0, 1.0], [30, 0, 0])
        brier, nll = score_calibration(gt, pred, 4.0)
        assert brier == pytest.approx(0.5)
        assert nll == pytest.approx(-0.5 * np.log(1e-7), rel=1e-6)

    def test_far_pair_scores_two_terms(self):
        # one annotation, one prediction 10 um away with p = 0.8:
        # terms (1, 0) and (0, 0.8)
        brier, _ = score_calibration(cs([0, 0, 0]), cs([0, 0, 10.0], p=[0.8]), 4.0)
        assert brier == pytest.approx((1.0 + 0.8**2) / 2.0)

    def test_terms_brier_converges_to_p_one_minus_p(self, rng):
        p = 0.3
        n = 200_000
        targets = (rng.random(n) < p).astype(float)
        brier, nll = score_probability_terms(targets, np.full(n, p))
        assert abs(brier - p * (1 - p)) < 0.01
        want_nll = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        assert abs(nll - want_nll) < 0.02
