import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xrlat import metrics
from xrlat.metrics import (
    P_AT_K,
    MetricsReport,
    PredictionSet,
    auc,
    check_defined,
    compute_metrics,
    macro_f1,
    macro_micro_auc,
    micro_f1,
    precision_at_k,
    top_codes,
)
from xrlat.util import DataError, derive_rng


def brute_force_auc(scores, labels):
    """O(N^2) pairwise comparison with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


def unique_loop_auc(scores, labels):
    """AUC as one np.unique ranking of the cells: each tie group at its average rank."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def unique_loop_macro_micro(scores, gold):
    """(macro, micro, skipped) with one unique_loop_auc per evaluable code."""
    n_pos = gold.astype(bool).sum(axis=0)
    evaluable = np.flatnonzero((n_pos > 0) & (n_pos < len(gold)))
    values = [unique_loop_auc(scores[:, j], gold[:, j]) for j in evaluable]
    micro = unique_loop_auc(scores.reshape(-1), gold.reshape(-1))
    return float(np.mean(values)), micro, gold.shape[1] - evaluable.size


TIED_SCORES = (-0.0, 0.0, 0.25, 0.5, 1.0)


def tied_predictions(rng, n, l, positive=0.3):
    """Scores from TIED_SCORES, every 7th row all zero (a cascade row), and gold with
    ``positive`` of its cells set and about a fifth of the codes single-class."""
    scores = rng.choice(TIED_SCORES, size=(n, l))
    scores[::7] = 0.0
    gold = (rng.random((n, l)) < positive).astype(np.uint8)
    gold[:, rng.random(l) < 0.1] = 0
    gold[:, rng.random(l) < 0.1] = 1
    return scores, gold


def brute_force_f1(scores, gold, threshold):
    yhat = scores >= threshold
    tp = int((yhat & (gold == 1)).sum())
    fp = int((yhat & (gold == 0)).sum())
    fn = int((~yhat & (gold == 1)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


class TestMicroF1:
    def test_pooled_hand_count(self):
        scores = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        gold = np.array([[1, 1, 0], [0, 1, 0]])
        f1, precision, recall = micro_f1(PredictionSet(scores, gold))
        assert f1 == pytest.approx(2 / 3, abs=1e-12)
        assert precision == pytest.approx(2 / 3, abs=1e-12)
        assert recall == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect(self):
        gold = np.array([[1, 0], [0, 1]])
        f1, _, _ = micro_f1(PredictionSet(gold.astype(float), gold))
        assert f1 == 1.0

    def test_all_zero_predictions(self):
        gold = np.array([[1, 0], [0, 1]])
        f1, _, _ = micro_f1(PredictionSet(np.zeros((2, 2)), gold))
        assert f1 == 0.0


class TestMacroF1:
    def test_per_code_mean(self):
        scores = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        gold = np.array([[1, 1, 0], [0, 1, 0]])
        assert macro_f1(PredictionSet(scores, gold)) == pytest.approx(0.555556, abs=1e-6)

    def test_perfect(self):
        gold = np.array([[1, 0], [0, 1]])
        assert macro_f1(PredictionSet(gold.astype(float), gold)) == 1.0

    def test_single_code_equals_micro(self):
        rng = derive_rng(1)
        scores = rng.random((20, 1))
        gold = (rng.random((20, 1)) < 0.5).astype(np.uint8)
        pred = PredictionSet(scores, gold)
        assert macro_f1(pred) == pytest.approx(micro_f1(pred)[0], abs=1e-12)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1, 0.8], [1, 0, 1]) == 1.0

    def test_tie_convention(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = derive_rng(2)
        for _ in range(100):
            n = int(rng.integers(5, 30))
            scores = np.round(rng.random(n), 2)  # induce ties
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pytest.approx(
                brute_force_auc(scores, labels), abs=1e-9
            )

    def test_invariant_under_monotone_transform(self):
        rng = derive_rng(3)
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(int)
        labels[0], labels[1] = 1, 0
        assert auc(scores, labels) == pytest.approx(auc(np.exp(3 * scores), labels), abs=1e-12)


class TestMacroMicroAuc:
    def test_single_evaluable_code(self):
        scores = np.array([[0.9, 0.5, 0.2], [0.1, 0.5, 0.7]])
        gold = np.array([[1, 1, 0], [0, 1, 0]])  # all-positive and all-negative codes skipped
        macro, micro, skipped = macro_micro_auc(PredictionSet(scores, gold))
        assert macro == auc(scores[:, 0], gold[:, 0])
        assert skipped == 2

    def test_skips_and_macro_match_per_code_oracle(self):
        rng = derive_rng(9)
        for _ in range(40):
            n, l = int(rng.integers(2, 12)), int(rng.integers(2, 10))
            scores = np.round(rng.random((n, l)), 1)
            gold = (rng.random((n, l)) < 0.4).astype(int)
            gold[:, rng.random(l) < 0.25] = 1
            gold[:, rng.random(l) < 0.25] = 0
            gold[0, 0], gold[1, 0] = 1, 0  # keep one code evaluable
            values = [brute_force_auc(scores[:, j], gold[:, j])
                      for j in range(l) if 0 < gold[:, j].sum() < n]
            macro, _, skipped = macro_micro_auc(PredictionSet(scores, gold))
            assert skipped == l - len(values)
            assert macro == pytest.approx(np.mean(values), abs=1e-9)

    def test_constant_scores_give_half(self):
        gold = np.array([[1, 0], [0, 1]])
        _, micro, _ = macro_micro_auc(PredictionSet(np.full((2, 2), 0.3), gold))
        assert micro == 0.5

    def test_nothing_evaluable(self):
        with pytest.raises(DataError):
            macro_micro_auc(PredictionSet(np.zeros((2, 1)), np.ones((2, 1), dtype=int)))

    def test_micro_matches_flattened_oracle(self):
        rng = derive_rng(4)
        for _ in range(25):
            scores = np.round(rng.random((8, 6)), 1)
            gold = (rng.random((8, 6)) < 0.3).astype(int)
            gold[0, 0], gold[0, 1] = 1, 0
            _, micro, _ = macro_micro_auc(PredictionSet(scores, gold))
            want = brute_force_auc(scores.ravel(), gold.ravel())
            assert micro == pytest.approx(want, abs=1e-9)


@st.composite
def tied_case(draw):
    """(scores, gold) drawn like tied_predictions: scores from TIED_SCORES, any rows all
    zero, any codes single-class."""
    n, l = draw(st.integers(2, 12)), draw(st.integers(1, 8))
    cells = st.lists(st.sampled_from(TIED_SCORES), min_size=n * l, max_size=n * l)
    scores = np.array(draw(cells)).reshape(n, l)
    scores[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    gold = np.array(draw(st.lists(st.booleans(), min_size=n * l, max_size=n * l)))
    gold = gold.reshape(n, l).astype(np.uint8)
    for j, fill in enumerate(draw(st.lists(st.sampled_from([None, 0, 1]), min_size=l,
                                           max_size=l))):
        if fill is not None:
            gold[:, j] = fill
    return scores, gold


class TestAucOracle:
    """macro_micro_auc ranks every code in one sort; its values equal, bit for bit, both
    the pairwise count and one np.unique ranking per code."""

    @settings(max_examples=300, deadline=None)
    @given(tied_case())
    def test_equals_pair_count_and_unique_loop(self, case):
        scores, gold = case
        n, l = scores.shape
        evaluable = [j for j in range(l) if 0 < gold[:, j].sum() < n]
        pred = PredictionSet(scores, gold)
        if not evaluable:
            with pytest.raises(DataError):
                macro_micro_auc(pred)
            return
        got = macro_micro_auc(pred)
        per_code = [brute_force_auc(scores[:, j], gold[:, j]) for j in evaluable]
        assert [auc(scores[:, j], gold[:, j]) for j in evaluable] == per_code
        assert got == (float(np.mean(per_code)), brute_force_auc(scores.ravel(), gold.ravel()),
                       l - len(evaluable))
        assert got == unique_loop_macro_micro(scores, gold)

    def test_code_blocks_do_not_change_the_result(self, monkeypatch):
        scores, gold = tied_predictions(derive_rng(13), 9, 40)
        want = macro_micro_auc(PredictionSet(scores, gold))
        monkeypatch.setattr(metrics, "AUC_BLOCK_CELLS", 3 * 9)  # three codes per block
        assert macro_micro_auc(PredictionSet(scores, gold)) == want

    @pytest.mark.slow
    def test_eval_scale(self):
        """400 documents x 8929 codes, the size of the ICD code set."""
        scores, gold = tied_predictions(derive_rng(14), 400, 8929, positive=0.003)
        assert macro_micro_auc(PredictionSet(scores, gold)) == unique_loop_macro_micro(scores, gold)


class TestPrecisionAtK:
    def test_half_hit(self):
        pred = PredictionSet(np.array([[0.9, 0.8, 0.1]]), np.array([[1, 0, 0]]))
        assert precision_at_k(pred, 2) == 0.5

    def test_exact_topk(self):
        pred = PredictionSet(np.array([[0.9, 0.8, 0.1]]), np.array([[1, 1, 0]]))
        assert precision_at_k(pred, 2) == 1.0

    def test_ties_break_toward_lower_index(self):
        pred = PredictionSet(np.array([[0.5, 0.5, 0.5]]), np.array([[0, 1, 1]]))
        # top-2 under tie-breaking = indices 0 and 1 -> one hit
        assert precision_at_k(pred, 2) == 0.5

    def test_k_exceeding_codes(self):
        pred = PredictionSet(np.zeros((1, 3)), np.zeros((1, 3), dtype=int))
        with pytest.raises(DataError):
            precision_at_k(pred, 4)

    def test_matches_sort_oracle(self):
        rng = derive_rng(5)
        for _ in range(100):
            n, l = int(rng.integers(1, 10)), int(rng.integers(3, 15))
            scores = np.round(rng.random((n, l)), 1)
            gold = (rng.random((n, l)) < 0.4).astype(int)
            k = int(rng.integers(1, l + 1))
            want = 0.0
            for i in range(n):
                order = sorted(range(l), key=lambda j: (-scores[i, j], j))[:k]
                want += sum(gold[i, j] for j in order) / k
            want /= n
            assert precision_at_k(PredictionSet(scores, gold), k) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = derive_rng(6)
        scores = rng.random((6, 9))
        gold = (rng.random((6, 9)) < 0.3).astype(int)
        a = precision_at_k(PredictionSet(scores, gold), 4)
        b = precision_at_k(PredictionSet(scores**3 + 1, gold), 4)
        assert a == b


def stable_argsort_top(scores, k, lower_index_first=True):
    """Oracle for top_codes: a full stable sort of the negated scores. With
    lower_index_first=False, ties go to the higher code index instead."""
    if lower_index_first:
        return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    flipped = np.argsort(-scores[..., ::-1], axis=-1, kind="stable")
    return (scores.shape[-1] - 1 - flipped)[..., :k]


class TestTopCodes:
    def tied_scores(self, rng, n, l):
        """Few distinct values (most rows tie at their k-th score), an all-equal row,
        +0.0 and -0.0 (equal under comparison), a cascade row (three positive codes,
        then zeros), a row whose best score ties only past the leading codes, a row of
        distinct scores, and rows of NaN with three numbers or none (NaN sorts last)."""
        scores = rng.integers(-2, 3, size=(n, l)) * 0.25
        scores[1] = 0.5
        scores[2] = np.where(rng.random(l) < 0.5, 0.0, -0.0)
        scores[3] = 0.0
        scores[3, rng.choice(l, 3, replace=False)] = rng.random(3)
        scores[4] = rng.random(l) * 0.5
        scores[4, l - 12 :] = 1.0
        scores[5] = rng.random(l)
        scores[6] = np.nan
        scores[6, rng.choice(l, 3, replace=False)] = [0.5, -1.0, 0.5]
        scores[7] = np.nan
        return scores

    @pytest.mark.parametrize("k_of", [lambda l: 1, lambda l: 5, lambda l: 15,
                                      lambda l: l, lambda l: l + 3],
                             ids=["1", "5", "15", "L", "L+3"])
    def test_matches_stable_full_sort(self, k_of):
        rng = derive_rng(12)
        for _ in range(30):
            n, l = int(rng.integers(8, 12)), int(rng.integers(16, 120))
            scores = self.tied_scores(rng, n, l)
            assert np.signbit(scores[2]).any() and not np.signbit(scores[2]).all()
            k = k_of(l)
            got = top_codes(scores, k)
            want = stable_argsort_top(scores, k)
            assert got.shape == want.shape == (n, min(k, l))
            assert np.array_equal(got, want)
            assert np.array_equal(top_codes(scores[0], k), want[0])  # one row, 1-D

    def test_data_catches_ties_toward_the_higher_index(self):
        """The oracle data is tied enough that a higher-index tie-break disagrees."""
        rng = derive_rng(12)
        scores = self.tied_scores(rng, 8, 80)
        for k in (1, 5, 15):
            high_first = stable_argsort_top(scores, k, lower_index_first=False)
            assert not np.array_equal(high_first, stable_argsort_top(scores, k))
            assert not np.array_equal(high_first, top_codes(scores, k))

    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_rows_with_at_most_k_nonzero_scores(self, k):
        """Cascade rows: row i has i nonzero scores (tied, and some below zero) and
        +0.0 or -0.0 elsewhere, so its k-th score is shared by at least L - k codes."""
        rng = derive_rng(16)
        for l in (k + 1, 2 * k, 2 * k + 1, 200):
            scores = np.where(rng.random((k + 1, l)) < 0.5, 0.0, -0.0)
            for i in range(1, k + 1):
                scores[i, rng.choice(l, i, replace=False)] = rng.choice([-0.5, 0.25, 1.0], i)
            assert np.array_equal(top_codes(scores, k), stable_argsort_top(scores, k))

    def test_no_documents(self):
        assert top_codes(np.zeros((0, 20)), 5).shape == (0, 5)

    def test_row_blocks_match_stable_full_sort(self, monkeypatch):
        """Rows go to the partition in blocks of AUC_BLOCK_CELLS // L; at three rows a
        block, tied, zero and NaN rows sit on both sides of the block boundaries."""
        rng = derive_rng(17)
        l = 40
        monkeypatch.setattr(metrics, "AUC_BLOCK_CELLS", 3 * l + 2)
        scores = np.concatenate([self.tied_scores(rng, 8, l) for _ in range(3)])
        for k in (1, 5, 15):
            assert np.array_equal(top_codes(scores, k), stable_argsort_top(scores, k))

    def test_traced_peak_below_macro_auc(self):
        """On 400 x 8929 scores P@k's copies of the rows stay below macro AUC's traced
        peak (19 MB to its 48 MB; 65 MB when every row was copied at once)."""
        rng = derive_rng(18)
        pred = PredictionSet(rng.random((400, 8929)),
                             (rng.random((400, 8929)) < 0.01).astype(np.uint8))
        peaks = []
        for call in (lambda: precision_at_k(pred, max(P_AT_K)), lambda: macro_micro_auc(pred)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1], peaks


class TestThresholdMonotonicity:
    def test_raising_threshold_never_raises_recall(self):
        rng = derive_rng(7)
        scores = rng.random((20, 10))
        gold = (rng.random((20, 10)) < 0.3).astype(int)
        recalls = []
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            _, _, recall = micro_f1(PredictionSet(scores, gold, t))
            recalls.append(recall)
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))


class TestReport:
    def test_text_format(self):
        rep = MetricsReport(0.9, 0.95, 0.5, 0.8, 0.7, 0.6, 0.4, 3)
        text = rep.to_text()
        lines = text.strip().split("\n")
        assert "macro_auc\t0.9000" in lines
        assert "p@15\t0.4000" in lines
        assert lines[-1] == "macro_auc_skipped\t3"

    def test_compute_metrics_end_to_end(self):
        rng = derive_rng(8)
        scores = rng.random((30, 20))
        gold = (rng.random((30, 20)) < 0.3).astype(int)
        gold[:, 0] = 1  # one single-class code to exercise the skip path
        rep = compute_metrics(scores, gold)
        assert rep.macro_auc_skipped == 1
        for value in (rep.macro_auc, rep.micro_auc, rep.macro_f1, rep.micro_f1,
                      rep.p5, rep.p8, rep.p15):
            assert 0.0 <= value <= 1.0

    def test_check_defined_names_the_input_at_fault(self):
        gold = np.zeros((3, 15), dtype=int)
        gold[0, 4] = 1
        check_defined(gold, "tree.txt", "docs.tsv")  # 15 codes, code 4 has both classes
        with pytest.raises(DataError, match=r"^tree\.txt: 14 codes, but the report's p@15 needs 15$"):
            check_defined(gold[:, :14], "tree.txt", "docs.tsv")
        with pytest.raises(DataError, match=r"^docs\.tsv: no code has both classes"):
            check_defined(gold[:1], "tree.txt", "docs.tsv")
        # the same inputs make compute_metrics raise
        for bad in (gold[:, :14], gold[:1]):
            with pytest.raises(DataError):
                compute_metrics(np.zeros(bad.shape), bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            PredictionSet(np.zeros((2, 3)), np.zeros((2, 4)))
