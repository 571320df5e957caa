import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from kssnet import autodiff, metrics

import oracles


def top_k_reference(scores, k):
    """First k labels of each row in stable descending order, one row at a time."""
    pred = np.zeros(scores.shape, dtype=np.int64)
    for i, row in enumerate(scores.tolist()):
        for j in sorted(range(len(row)), key=lambda c: -row[c])[:k]:
            pred[i, j] = 1
    return pred


def average_precision(scores, targets):
    """AP of one class: ``per_class_ap`` of the one-column matrix."""
    return metrics.per_class_ap(np.asarray(scores)[:, None], np.asarray(targets)[:, None])[0]


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_hand_case(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7]), np.array([0, 1, 1]))
        assert ap == pytest.approx(7.0 / 12.0, abs=1e-15)

    def test_all_positive(self):
        rng = np.random.default_rng(0)
        assert average_precision(rng.normal(size=6), np.ones(6)) == 1.0

    def test_no_positives_rejected(self):
        # a class without positives has no AP: NaN in its column, an error for the mAP
        assert np.isnan(average_precision([0.5, 0.2], [0, 0]))
        with pytest.raises(ValueError, match="positive"):
            metrics.map_score([[0.5], [0.2]], [[0], [0]])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.normal(size=10)
            targets = (rng.random(10) < 0.4).astype(int)
            if targets.sum() == 0:
                targets[0] = 1
            base = average_precision(scores, targets)
            for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s ** 3):
                assert average_precision(transform(scores), targets) == base

    def test_tie_broken_by_original_order(self):
        # equal scores keep input order: the positive sits at rank 2
        ap = average_precision([0.5, 0.5], [0, 1])
        assert ap == pytest.approx(0.5)
        ap = average_precision([0.5, 0.5], [1, 0])
        assert ap == 1.0

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            scores = np.round(rng.normal(size=n), 2)  # induce ties
            targets = (rng.random(n) < 0.5).astype(int)
            if targets.sum() == 0:
                targets[int(rng.integers(0, n))] = 1
            mine = average_precision(scores, targets)
            ref = oracles.ap_oracle([float(s) for s in scores], [int(t) for t in targets])
            assert mine == ref

    @pytest.mark.parametrize("case", ["rounded", "all_equal", "one_positive", "all_positive"])
    def test_matches_oracle_bitwise_on_ties(self, case):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            scores = np.round(rng.normal(size=n), 1)
            targets = (rng.random(n) < 0.3).astype(int)
            if case == "all_equal":
                scores = np.full(n, 0.25)
            elif case == "one_positive":
                targets = np.zeros(n, dtype=int)
            elif case == "all_positive":
                targets = np.ones(n, dtype=int)
            if targets.sum() == 0:
                targets[int(rng.integers(0, n))] = 1
            mine = average_precision(scores, targets)
            assert mine == oracles.ap_oracle(scores.tolist(), targets.tolist())

    def test_signed_zeros_tie(self):
        scores = np.array([0.0, -0.0, 0.0, -0.0, 1.0])
        for targets in ([0, 1, 0, 1, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 1]):
            mine = average_precision(scores, targets)
            assert mine == oracles.ap_oracle(scores.tolist(), targets)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_non_binary_targets_rejected(self, bad):
        # a 2 would count as a hit but not as a positive: AP 2.0
        with pytest.raises(ValueError, match="targets must be 0 or 1"):
            average_precision([0.9, 0.8, 0.7], [1, bad, 0])


class TestMapScore:
    def test_perfect(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        targets = np.array([[1, 0], [0, 1]])
        assert metrics.map_score(scores, targets) == 1.0

    def test_mean_of_class_aps(self):
        scores = np.array([[0.9], [0.8], [0.7]])
        targets = np.array([[0], [1], [1]])
        two_col_scores = np.hstack([np.array([[0.9], [0.5], [0.1]]), scores])
        two_col_targets = np.hstack([np.array([[1], [0], [0]]), targets])
        expected = (1.0 + 7.0 / 12.0) / 2.0
        assert metrics.map_score(two_col_scores, two_col_targets) == pytest.approx(expected)

    def test_positive_free_class_excluded_with_warning(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.4]])
        targets = np.array([[1, 0], [0, 0]])
        with pytest.warns(UserWarning, match="excluded"):
            assert metrics.map_score(scores, targets) == 1.0

    def test_all_classes_excluded_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            metrics.map_score(np.ones((2, 2)), np.zeros((2, 2)))

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores = rng.normal(size=(10, 4))
            targets = (rng.random((10, 4)) < 0.4).astype(int)
            targets[0] = 1  # every class has a positive
            assert metrics.map_score(scores, targets) == oracles.map_oracle(scores, targets)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(8, 5))
        targets = (rng.random((8, 5)) < 0.5).astype(int)
        targets[0] = 1
        perm = rng.permutation(5)
        assert metrics.map_score(scores[:, perm], targets[:, perm]) == \
            metrics.map_score(scores, targets)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_non_binary_targets_rejected(self, bad):
        targets = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        targets[2, 1] = bad
        with pytest.raises(ValueError, match="targets must be 0 or 1"):
            metrics.map_score(np.zeros((3, 2)), targets)

    def test_inputs_checked_once_per_matrix(self, monkeypatch):
        calls = []
        checked = metrics._checked
        monkeypatch.setattr(metrics, "_checked", lambda *a: calls.append(a) or checked(*a))
        rng = np.random.default_rng(10)
        targets = (rng.random((30, 20)) < 0.5).astype(int)
        targets[0] = 1
        metrics.map_score(rng.normal(size=(30, 20)), targets)
        assert len(calls) == 1


class TestDecide:
    def test_sigmoid_rule(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # large |score| must not overflow
            pred = metrics.decide(np.array([[1.0, -1.0, 0.0, -1000.0, 1000.0]]), ("sigmoid", 0.5))
        npt.assert_array_equal(pred, [[1, 0, 1, 0, 1]])  # sigmoid(0) = 0.5 passes >=

    def test_score_rule(self):
        pred = metrics.decide(np.array([[0.6, 0.4]]), ("score", 0.5))
        npt.assert_array_equal(pred, [[1, 0]])

    def test_top_k_rule(self):
        pred = metrics.decide(np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.2]]), ("top_k", 2))
        npt.assert_array_equal(pred, [[0, 1, 1], [1, 1, 0]])  # second-row tie -> original order

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="decision"):
            metrics.decide(np.zeros((1, 1)), ("argmax", 1))

    @pytest.mark.parametrize("rule", [("sigmoid", 0.5), ("score", 0.0), ("top_k", 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, rule, bad):
        with pytest.raises(ValueError, match="finite"):
            metrics.decide(np.array([[0.5, bad], [0.1, 0.2]]), rule)

    @pytest.mark.parametrize("k", [0, 1, 5, 6, 8])  # 0, 1, C-1, C, C+2 for C = 6
    def test_top_k_matches_stable_sort_on_ties(self, k):
        rng = np.random.default_rng(8)
        scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(40, 6))
        npt.assert_array_equal(metrics.decide(scores, ("top_k", k)), top_k_reference(scores, k))

    @pytest.mark.parametrize("rule", ["sigmoid", "score"])
    def test_threshold_rules_across_block_boundary(self, rule):
        # blocked rules must equal the whole-matrix expression bitwise
        rng = np.random.default_rng(11)
        rows = 2 * metrics._DECIDE_BLOCK_ROWS + 3
        scores = np.concatenate([rng.normal(scale=4.0, size=rows * 5 - 6),
                                 [0.0, -0.0, 1000.0, -1000.0, 1e-300, -1e-300]])
        scores = rng.permutation(scores).reshape(rows, 5)
        for t in (0.0, 0.5, 0.7310585786300049, 1.0):
            whole = autodiff._sigmoid(scores) if rule == "sigmoid" else scores
            pred = metrics.decide(scores, (rule, t))
            assert pred.dtype == bool
            npt.assert_array_equal(pred, (whole >= t).astype(np.int64))

    def test_top_k_across_block_boundary(self):
        rng = np.random.default_rng(9)
        rows = metrics._DECIDE_BLOCK_ROWS + 7
        scores = np.round(rng.normal(size=(rows, 5)), 1)
        for k in (1, 3):
            pred = metrics.decide(scores, ("top_k", k))
            npt.assert_array_equal(pred, top_k_reference(scores, k))
            assert pred.dtype == bool


class TestPrfSuite:
    def test_perfect_predictions(self):
        targets = np.array([[1, 0], [0, 1], [1, 1]])
        scores = np.where(targets == 1, 5.0, -5.0)
        result = metrics.prf_suite(scores, targets)
        assert result.as_tuple() == (1.0,) * 6

    def test_of1_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            scores = rng.normal(size=(6, 3))
            targets = (rng.random((6, 3)) < 0.5).astype(int)
            targets[0] = 1
            r = metrics.prf_suite(scores, targets)
            expected = 2 * r.op * r.or_ / (r.op + r.or_) if r.op + r.or_ > 0 else 0.0
            assert r.of1 == expected
            assert 0.0 <= min(r.as_tuple()) and max(r.as_tuple()) <= 1.0

    def test_hand_case_against_confusion_oracle(self):
        scores = np.array([[2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])
        targets = np.array([[1, 0], [0, 1], [1, 1]])
        r = metrics.prf_suite(scores, targets)
        pred = metrics.decide(scores, ("sigmoid", 0.5))
        assert r.as_tuple() == oracles.prf_oracle(pred, targets)

    def test_empty_precision_flagged(self):
        scores = np.full((2, 2), -5.0)  # nothing predicted
        targets = np.array([[1, 0], [1, 1]])
        r = metrics.prf_suite(scores, targets)
        assert r.cp == 0.0 and r.op == 0.0

    def test_positive_free_class_excluded(self):
        scores = np.array([[5.0, 5.0], [5.0, -5.0]])
        targets = np.array([[1, 0], [1, 0]])
        r = metrics.prf_suite(scores, targets)
        assert r.cr == 1.0

    @pytest.mark.filterwarnings("ignore:.*excluded from mAP")
    def test_exhaustive_small_instances_match_oracle(self):
        # every binary score/target pattern for shapes with up to 6 cells
        checked = 0
        for n_samples, n_classes in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2),
                                     (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]:
            cells = n_samples * n_classes
            for score_bits in itertools.product((0.0, 1.0), repeat=cells):
                scores = np.array(score_bits).reshape(n_samples, n_classes)
                for target_bits in itertools.product((0, 1), repeat=cells):
                    targets = np.array(target_bits).reshape(n_samples, n_classes)
                    if not np.any(targets.sum(axis=0) > 0):
                        continue
                    pred = metrics.decide(scores, ("score", 0.5))
                    r = metrics.prf_suite(scores, targets, ("score", 0.5))
                    assert r.as_tuple() == oracles.prf_oracle(pred, targets)
                    assert metrics.map_score(scores, targets) == \
                        oracles.map_oracle(scores, targets)
                    checked += 1
        assert checked > 5000

    def test_non_finite_scores_rejected(self):
        targets = np.array([[1, 0], [0, 1]])
        for decision in (("sigmoid", 0.5), ("top_k", 1)):
            with pytest.raises(ValueError, match="finite"):
                metrics.prf_suite(np.array([[np.nan, 0.0], [0.0, 1.0]]), targets, decision)

    def test_top_k_matches_oracle(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(7, 4))
        targets = (rng.random((7, 4)) < 0.5).astype(int)
        targets[0] = 1
        r = metrics.prf_suite(scores, targets, ("top_k", 3))
        pred = metrics.decide(scores, ("top_k", 3))
        assert r.as_tuple() == oracles.prf_oracle(pred, targets)

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_non_binary_targets_rejected(self, bad):
        targets = np.array([[1, 0], [0, 1]], dtype=float)
        targets[0, 1] = bad
        for decision in (("sigmoid", 0.5), ("top_k", 1)):
            with pytest.raises(ValueError, match="targets must be 0 or 1"):
                metrics.prf_suite(np.zeros((2, 2)), targets, decision)


class TestFormatting:
    def test_fixed_order_percent_table(self):
        r = metrics.PrfResult(cp=0.846, cr=0.732, cf1=0.772, op=0.878, or_=0.762, of1=0.815)
        table = metrics.format_metric_table(0.837, r)
        lines = table.splitlines()
        assert lines[0].split() == ["mAP", "CP", "CR", "CF1", "OP", "OR", "OF1"]
        assert lines[1].split() == ["83.7", "84.6", "73.2", "77.2", "87.8", "76.2", "81.5"]

    def test_perfect_row(self):
        r = metrics.PrfResult(cp=1.0, cr=1.0, cf1=1.0, op=1.0, or_=1.0, of1=1.0)
        table = metrics.format_metric_table(1.0, r)
        assert table.splitlines()[1].split() == ["100.0"] * 7
