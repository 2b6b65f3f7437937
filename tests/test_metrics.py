import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglab.errors import ValidationError
from seglab.grid import PROB_SLACK, ClassSet, GridShape, LabelMap, ProbabilityMap, overlap_sums
from seglab.losses import LossConfig, combined_value
from seglab.metrics import (
    DSC_EPS,
    BinStat,
    _argmax,
    _argmax_dsc,
    _clece_cells,
    argmax_dsc,
    argmax_predict,
    clece,
    clece_report,
    dsc,
    evaluate_sample,
)
from seglab.net import softmax

from .oracles import clece_oracle, clece_report_loop, dsc_oracle, random_instance


def random_label_pair(rng, max_pixels=24):
    count_objects = int(rng.integers(1, 4))
    pixels = int(rng.integers(2, max_pixels))
    classes = ClassSet(count_objects)
    y = LabelMap(rng.integers(0, classes.total, pixels), classes)
    pred = LabelMap(rng.integers(0, classes.total, pixels), classes)
    return y, pred


class TestDsc:
    def test_identical_maps_score_one(self):
        rng = np.random.default_rng(0)
        y, _ = random_label_pair(rng)
        assert dsc(y, y) == pytest.approx(np.ones(y.classes.total), abs=1e-8)

    def test_disjoint_supports_score_zero(self):
        y = LabelMap(np.array([1, 0]), ClassSet(1))
        pred = LabelMap(np.array([0, 1]), ClassSet(1))
        assert dsc(y, pred) == pytest.approx(np.zeros(2), abs=1e-12)

    def test_worked_two_thirds(self):
        # |y|=2, |pred|=1, overlap 1 for class 1
        y = LabelMap(np.array([1, 1, 0]), ClassSet(1))
        pred = LabelMap(np.array([1, 0, 0]), ClassSet(1))
        assert dsc(y, pred)[1] == pytest.approx(2 / 3, rel=1e-7)

    def test_both_empty_class_scores_one(self):
        # class 2 appears in neither map
        y = LabelMap(np.array([0, 1]), ClassSet(2))
        pred = LabelMap(np.array([1, 0]), ClassSet(2))
        assert dsc(y, pred)[2] == 1.0

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y, pred = random_label_pair(rng)
            forward_scores = dsc(y, pred)
            assert np.array_equal(forward_scores, dsc(pred, y))
            perm = rng.permutation(y.shape.pixel_count)
            y_p = LabelMap(y.indices[perm], y.classes)
            pred_p = LabelMap(pred.indices[perm], pred.classes)
            assert np.allclose(forward_scores, dsc(y_p, pred_p), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y, pred = random_label_pair(rng)
            assert np.abs(dsc(y, pred) - dsc_oracle(y, pred)).max() < 1e-12


class TestArgmaxPredict:
    def test_one_hot_probabilities_round_trip(self):
        rng = np.random.default_rng(3)
        y, _ = random_label_pair(rng)
        s = ProbabilityMap(y.shape, y.classes, y.values)
        assert np.array_equal(argmax_predict(s).values, y.values)

    def test_tie_breaks_to_lowest_class(self):
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.5], [0.5]]))
        pred = argmax_predict(s)
        assert pred.values[0, 0] == 1.0 and pred.values[1, 0] == 0.0

    def test_against_per_pixel_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y, s = random_instance(rng, max_pixels=16)
            pred = argmax_predict(s)
            for i in range(s.shape.pixel_count):
                best, best_val = 0, -1.0
                for k in range(s.classes.total):
                    if s.values[k, i] > best_val:
                        best, best_val = k, s.values[k, i]
                assert pred.values[best, i] == 1.0
                assert pred.values[:, i].sum() == 1.0

    def test_composed_with_dsc_perfect_when_true_class_argmax(self):
        rng = np.random.default_rng(5)
        y, _ = random_label_pair(rng)
        noise = rng.uniform(0.0, 0.4, size=y.values.shape)
        values = np.where(y.values == 1.0, 0.6 + noise * 0.5, noise)
        s = ProbabilityMap(y.shape, y.classes, values)
        scores = dsc(y, argmax_predict(s))
        assert scores == pytest.approx(np.ones(y.classes.total), abs=1e-7)


class TestClece:
    def test_perfectly_calibrated_hard_prediction(self):
        rng = np.random.default_rng(6)
        y, _ = random_label_pair(rng)
        s = ProbabilityMap(y.shape, y.classes, y.values)
        assert clece(y, s) == pytest.approx(np.zeros(y.classes.total), abs=1e-12)

    def test_single_pixel_gap(self):
        y = LabelMap(np.array([1]), ClassSet(1))
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.3], [0.7]]))
        values = clece(y, s)
        assert values[1] == pytest.approx(0.3, rel=1e-12)
        assert values[0] == pytest.approx(0.3, rel=1e-12)

    def test_constant_half_on_balanced_plane(self):
        y = LabelMap(np.array([1, 0, 1, 0]), ClassSet(1))
        s = ProbabilityMap(GridShape((4,)), ClassSet(1), np.full((2, 4), 0.5))
        assert clece(y, s) == pytest.approx(np.zeros(2), abs=1e-12)

    def test_range_and_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            y, s = random_instance(rng, s_low=0.0, s_high=1.0)
            values = clece(y, s)
            assert (values >= 0.0).all() and (values <= 1.0).all()
            perm = rng.permutation(y.shape.pixel_count)
            y_p = LabelMap(y.indices[perm], y.classes)
            s_p = ProbabilityMap(s.shape, s.classes, s.values[:, perm])
            assert np.allclose(values, clece(y_p, s_p), atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            y, s = random_instance(rng, max_pixels=20, s_low=0.0, s_high=1.0)
            assert np.abs(clece(y, s) - clece_oracle(y, s)).max() < 1e-12

    def test_bin_diagnostics_account_for_every_pixel(self):
        rng = np.random.default_rng(9)
        y, s = random_instance(rng)
        _, diagnostics = clece_report(y, s)
        for per_class in diagnostics:
            assert sum(b.count for b in per_class) == y.shape.pixel_count


class TestCrossModuleConsistency:
    def test_one_minus_dice_loss_equals_mean_dsc_on_hard_predictions(self):
        # the identity needs every class non-empty in ground truth (the
        # both-empty DSC convention of 1.0 has no counterpart in the loss)
        rng = np.random.default_rng(10)
        cfg = LossConfig(epsilon=1e-12)
        for _ in range(20):
            count_objects = int(rng.integers(1, 4))
            classes = ClassSet(count_objects)
            pixels = int(rng.integers(classes.total, 24))
            idx = np.concatenate(
                [np.arange(classes.total), rng.integers(0, classes.total, pixels - classes.total)]
            )
            y = LabelMap(rng.permutation(idx), classes)
            pred = LabelMap(rng.integers(0, classes.total, pixels), classes)
            s = ProbabilityMap(pred.shape, pred.classes, pred.values)
            loss = combined_value((("dice", 1.0),), y, s, cfg)
            mean_all_classes = dsc(y, pred, eps=1e-12).mean()
            assert abs((1.0 - loss) - mean_all_classes) < 1e-9


class TestEvaluateSample:
    def test_report_fields(self):
        rng = np.random.default_rng(11)
        y, s = random_instance(rng)
        report = evaluate_sample(y, s)
        assert report.dsc.shape == (y.classes.total,)
        assert report.clece.shape == (y.classes.total,)
        assert 0.0 <= report.mean_dsc <= 1.0
        assert 0.0 <= report.mean_clece <= 1.0
        # means exclude the background plane
        assert report.mean_dsc == pytest.approx(float(report.dsc[1:].mean()))
        assert report.mean_clece == pytest.approx(float(report.clece[1:].mean()))


def random_grid(rng, sides=(1, 71)):
    """A grid up to 70x70; one run in four is a single row or column."""
    h, w = (int(v) for v in rng.integers(*sides, size=2))
    shape = rng.integers(4)
    return (1, w) if shape == 0 else (h, 1) if shape == 1 else (h, w)


def softmax_instance(rng, dims):
    total = int(rng.integers(2, 5))
    logits = rng.normal(size=(total, *dims)) * rng.uniform(0.1, 6.0)
    return LabelMap(rng.integers(0, total, size=dims), ClassSet(total - 1)), softmax(logits)


class TestAgainstPerBinLoop:
    """clece_report bins all class planes at once; the per-bin loop is its reference."""

    @staticmethod
    def assert_same_report(y, s, bins):
        values, diagnostics = clece_report(y, s, bins)
        ref_values, ref_diagnostics = clece_report_loop(y, s, bins)
        assert np.array_equal(values, ref_values)
        assert diagnostics == ref_diagnostics
        assert np.array_equal(clece(y, s, bins), ref_values)
        assert np.array_equal(evaluate_sample(y, s, bins).clece, ref_values)

    def test_random_softmax_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(320):
            y, s = softmax_instance(rng, random_grid(rng))
            self.assert_same_report(y, s, int(rng.integers(1, 25)))

    def test_probabilities_on_bin_edges_and_slack_limits(self):
        rng = np.random.default_rng(13)
        for bins in (1, 2, 3, 7, 10, 24):
            edges = np.concatenate([np.arange(bins + 1) / bins, [-PROB_SLACK, 1.0 + PROB_SLACK]])
            for _ in range(6):
                dims = random_grid(rng, sides=(1, 30))
                y, s = softmax_instance(rng, dims)
                values = rng.choice(edges, size=s.values.shape)
                smooth = rng.random(s.values.shape) < 0.3
                values[smooth] = s.values[smooth]
                s = ProbabilityMap(s.shape, s.classes, values)
                self.assert_same_report(y, s, bins)

    def test_object_classes_alone_equal_their_rows_of_all_classes(self):
        # the training engine's test scores bin the object classes only
        rng = np.random.default_rng(15)
        for bins in (1, 3, 10, 256, 1000, 1500):
            for _ in range(12):
                y, s = softmax_instance(rng, random_grid(rng, sides=(1, 40)))
                values = s.values.copy()
                values.reshape(-1)[rng.integers(0, values.size, size=3)] = [-PROB_SLACK, 1.0 + PROB_SLACK, 1.0 / bins]
                full = _clece_cells(y.indices, values, bins)
                objects = _clece_cells(y.indices, values, bins, first=1)
                assert all(np.array_equal(a, b[1:]) for a, b in zip(objects, full, strict=True))
                ref_values, ref_diagnostics = clece_report_loop(y, ProbabilityMap(s.shape, s.classes, values), bins)
                assert np.array_equal(objects[0], ref_values[1:])
                assert objects[1].tolist() == [[d.count for d in row] for row in ref_diagnostics[1:]]

    def test_argmax_dsc_equals_dsc_of_argmax_prediction(self):
        rng = np.random.default_rng(14)
        for trial in range(300):
            dims = random_grid(rng, sides=(1, 40))
            total = int(rng.integers(2, 5))
            # small integer logits tie often; a narrow label range leaves
            # classes empty in both maps
            logits = rng.integers(0, 3, size=(total, *dims)).astype(float)
            if trial % 2:
                logits[total - 1] = -10.0
            y = LabelMap(rng.integers(0, 1 + trial % total, size=dims), ClassSet(total - 1))
            s = softmax(logits)
            assert np.array_equal(argmax_dsc(y, s), dsc(y, argmax_predict(s)))
            for planes in (logits.reshape(total, -1), s.values):
                assert np.array_equal(_argmax(planes), np.argmax(planes, axis=0))

    def test_evaluate_sample_builds_no_prediction_map(self, monkeypatch):
        rng = np.random.default_rng(15)
        y, s = softmax_instance(rng, (9, 7))
        monkeypatch.setattr(LabelMap, "__init__", None)  # any LabelMap built now fails
        report = evaluate_sample(y, s)
        monkeypatch.undo()
        assert np.array_equal(report.dsc, dsc(y, argmax_predict(s)))

    def test_evaluate_sample_builds_no_bin_stats(self, monkeypatch):
        rng = np.random.default_rng(18)
        y, s = softmax_instance(rng, (9, 7))
        monkeypatch.setattr(BinStat, "__init__", None)  # any BinStat built now fails
        report = evaluate_sample(y, s)
        monkeypatch.undo()
        assert np.array_equal(report.clece, clece_report(y, s)[0])


@st.composite
def index_instance(draw):
    """Labels and softmax probabilities on a grid from 1x1 to 70x70, with a
    single row or column one draw in three.  Labels use only the first
    ``present`` classes; with ``absent`` set, those later classes get logits
    of -10, so they are empty in both maps.  Integer logits tie often."""
    total = draw(st.integers(2, 5))
    h, w = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    dims = draw(st.sampled_from([(h, w), (1, w), (h, 1)]))
    present = draw(st.integers(1, total))
    absent = draw(st.booleans())
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.integers(0, levels, size=(total, *dims)).astype(float)
    if absent:
        logits[present:] = -10.0
    y = LabelMap(rng.integers(0, present, size=dims), ClassSet(total - 1))
    return y, softmax(logits), draw(st.integers(1, 24))


class TestIndexKernels:
    """The kernels count from class indices; one-hot references must agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(index_instance())
    def test_kernels_equal_one_hot_references(self, instance):
        y, s, bins = instance
        pred = argmax_predict(s)
        inter, union = overlap_sums(y.values, pred.values)  # U = |A| + |B| over one-hot planes
        ref_dsc = np.where(union > 0, 2.0 * inter / (union + DSC_EPS), 1.0)
        assert dsc(y, pred).tobytes() == ref_dsc.tobytes()
        ref_values, ref_diagnostics = clece_report_loop(y, s, bins)
        for labels in (y.indices, y.indices.astype(np.intp)):
            assert _argmax_dsc(labels, s.values).tobytes() == ref_dsc.tobytes()
            values, counts, confidence, accuracy = _clece_cells(labels, s.values, bins)
            assert values.tobytes() == ref_values.tobytes()
            assert counts.tolist() == [[b.count for b in row] for row in ref_diagnostics]
            assert confidence.tolist() == [[b.confidence for b in row] for row in ref_diagnostics]
            assert accuracy.tolist() == [[b.accuracy for b in row] for row in ref_diagnostics]


class TestBinsArgument:
    @pytest.mark.parametrize("bins", [0, -3, 2.5, 3.0, "3", True, np.bool_(True), None])
    def test_rejected(self, bins):
        rng = np.random.default_rng(16)
        y, s = random_instance(rng)
        for fn in (clece, clece_report, evaluate_sample):
            with pytest.raises(ValidationError, match="bins"):
                fn(y, s, bins)

    @pytest.mark.parametrize("bins", [np.int64(7), np.int32(7), np.uint8(7)])
    def test_numpy_integers_accepted(self, bins):
        rng = np.random.default_rng(17)
        y, s = random_instance(rng)
        values, diagnostics = clece_report(y, s, bins)
        assert np.array_equal(values, clece(y, s, 7))
        assert all(len(per_class) == 7 for per_class in diagnostics)
