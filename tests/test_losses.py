import numpy as np
import pytest

from seglab.errors import ConfigError, ShapeMismatchError, ValidationError
from seglab.gradcheck import PROBE_BLOCK, finite_diff_grad, max_relative_error
from seglab.grid import ClassSet, GridShape, LabelMap, ProbabilityMap, overlap_sums
from seglab.losses import (
    CE_CLAMP,
    LOSS_IDS,
    LossConfig,
    combined_loss,
    combined_value,
    _ce,
    _combined,
    _dice,
    _dice_weights,
    _labelled,
    _mime,
    _mime_weights,
    _nm,
)

from .oracles import binary_pair, random_instance

# Near-zero guard for comparisons against closed forms derived at eps -> 0.
TINY_EPS = LossConfig(epsilon=1e-12)

# Each loss alone, as its single-term set.
CE = (("ce", 1.0),)
DICE = (("dice", 1.0),)
MIME = (("mime", 1.0),)
NM = (("nm", 1.0),)

# Every term set whose value is taken of a probe stack: each loss alone, and ce+dice.
STACK_TERM_SETS = {loss_id: ((loss_id, 1.0),) for loss_id in LOSS_IDS} | {"ce+dice": CE + DICE}


def worked_case():
    # binary task: foreground y=[1,1,0,0], s=[1,0,0,0]; background complements
    return binary_pair([1, 1, 0, 0], [1, 0, 0, 0])


class TestLossConfig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            LossConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            LossConfig(epsilon=-1e-8)

    @pytest.mark.parametrize("a, b", [(-1.0, 0.1), (1.9, 0.0), (float("nan"), 0.1)])
    def test_mime_weights_must_be_positive_whatever_the_kind(self, a, b):
        # checked when the config is built, not when a mime kernel first runs
        for kind in ("dice", "mime"):
            with pytest.raises(ConfigError, match="'a' and 'b'"):
                LossConfig(kind=kind, a=a, b=b)


class TestDiceLoss:
    def test_worked_four_pixel_case(self):
        y, s = worked_case()
        # fg: 1 - 2/3, bg: 1 - 4/5, averaged: 4/15
        assert combined_value(DICE, y, s, TINY_EPS) == pytest.approx(4 / 15, rel=1e-9)

    def test_perfect_overlap_is_zero(self):
        y, s = binary_pair([1, 0, 1], [1, 0, 1])
        assert combined_value(DICE, y, s, TINY_EPS) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports_is_one(self):
        y, s = binary_pair([1, 0], [0, 1])
        assert combined_value(DICE, y, s, TINY_EPS) == pytest.approx(1.0, rel=1e-9)

    def test_range_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y, s = random_instance(rng, s_low=0.0, s_high=1.0)
            assert 0.0 <= combined_value(DICE, y, s) <= 1.0 + 1e-12


class TestDiceGrad:
    def test_worked_case_two_values(self):
        y, s = worked_case()
        g = combined_loss(DICE, y, s, TINY_EPS)[1]
        class_avg = 0.5
        # foreground plane: I=1, U=3 -> fg -4/9, bg 2/9 before averaging
        assert g.values[1, 0] == pytest.approx(-4 / 9 * class_avg, rel=1e-9)
        assert g.values[1, 1] == pytest.approx(-4 / 9 * class_avg, rel=1e-9)
        assert g.values[1, 2] == pytest.approx(2 / 9 * class_avg, rel=1e-9)

    def test_weights_on_worked_case(self):
        y, s = worked_case()
        intersection, union = overlap_sums(y.values, s.values)
        a, b = _dice_weights(intersection, union, TINY_EPS.epsilon, y.classes.total)
        # background I=2, U=5: a = 2*3/25/2, b = 2*2/25/2; foreground I=1, U=3
        assert a == pytest.approx([3 / 25, 2 / 9], rel=1e-9)
        assert b == pytest.approx([2 / 25, 1 / 9], rel=1e-9)
        g = combined_loss(DICE, y, s, TINY_EPS)[1].values
        assert np.array_equal(g, np.where(y.values == 1.0, -a[:, None], b[:, None]))

    def test_disjoint_background_gradient_is_exactly_zero(self):
        y, s = binary_pair([1, 0], [0, 1])
        g = combined_loss(DICE, y, s)[1]
        # foreground plane has I=0: background pixel gradient exactly 0
        assert g.values[1, 1] == 0.0

    def test_perfect_segmentation_gradients_are_nonzero(self):
        # s = y binary with |fg|=n: gradients +/- 1/(2n) per class, averaged
        for n in (1, 2, 5):
            fore = [1] * n + [0] * n
            y, s = binary_pair(fore, fore)
            g = combined_loss(DICE, y, s, TINY_EPS)[1]
            class_avg = 0.5
            assert g.values[1, 0] == pytest.approx(-1 / (2 * n) * class_avg, rel=5e-12)
            assert g.values[1, -1] == pytest.approx(1 / (2 * n) * class_avg, rel=5e-12)
            assert (g.values != 0.0).all()

    def test_sign_structure_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            y, s = random_instance(rng)
            g = combined_loss(DICE, y, s)[1]
            assert (g.values[y.values == 1.0] <= 0.0).all()
            assert (g.values[y.values == 0.0] >= 0.0).all()

    def test_magnitude_bound(self):
        rng = np.random.default_rng(5)
        cfg = LossConfig()
        for _ in range(200):
            y, s = random_instance(rng)
            g = combined_loss(DICE, y, s, cfg)[1]
            _, union = overlap_sums(y.values, s.values)
            limit = (2.0 / (union + cfg.epsilon)) / y.classes.total
            assert (np.abs(g.values) <= limit[:, None] + 1e-12).all()

    def test_background_zero_iff_no_overlap(self):
        # overlap present -> strictly positive background gradient
        y, s = binary_pair([1, 0], [0.5, 0.5])
        g = combined_loss(DICE, y, s)[1]
        assert g.values[1, 1] > 0.0
        # no overlap -> exactly zero
        y0, s0 = binary_pair([1, 0], [0.0, 1.0])
        g0 = combined_loss(DICE, y0, s0)[1]
        assert g0.values[1, 1] == 0.0

    def test_gradient_matches_loss_derivative(self):
        # central finite differences computed inline, independent of gradcheck
        rng = np.random.default_rng(6)
        y, s = random_instance(rng, max_pixels=12)
        g = combined_loss(DICE, y, s)[1].values
        h = 1e-6
        base = np.array(s.values)
        for idx in np.ndindex(base.shape):
            orig = base[idx]
            base[idx] = orig + h
            hi = combined_value(DICE, y, ProbabilityMap(s.shape, s.classes, base))
            base[idx] = orig - h
            lo = combined_value(DICE, y, ProbabilityMap(s.shape, s.classes, base))
            base[idx] = orig
            assert g[idx] == pytest.approx((hi - lo) / (2 * h), abs=1e-7)


class TestCrossEntropy:
    def test_single_pixel_two_classes(self):
        y = LabelMap(np.array([1]), ClassSet(1))
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.5], [0.5]]))
        assert combined_value(CE, y, s) == pytest.approx(-np.log(0.5) / 2, rel=1e-12)
        g = combined_loss(CE, y, s)[1]
        assert g.values[1, 0] == pytest.approx(-1.0, rel=1e-12)
        assert g.values[0, 0] == 0.0

    def test_perfect_prediction_is_zero(self):
        y, s = binary_pair([1, 0, 1], [1, 0, 1])
        assert combined_value(CE, y, s) == pytest.approx(0.0, abs=1e-12)

    def test_two_correct_pixels(self):
        y = LabelMap(np.array([1, 1]), ClassSet(1))
        s = ProbabilityMap(GridShape((2,)), ClassSet(1), np.array([[0.1, 0.1], [0.9, 0.9]]))
        assert combined_value(CE, y, s) == pytest.approx(2 * -np.log(0.9) / 4, rel=1e-12)

    def test_empty_class_plane_has_zero_gradient(self):
        y = LabelMap(np.array([0, 0, 0]), ClassSet(2))
        s = ProbabilityMap(GridShape((3,)), ClassSet(2), np.full((3, 3), 1 / 3))
        g = combined_loss(CE, y, s)[1]
        assert (g.values[1] == 0.0).all()
        assert (g.values[2] == 0.0).all()

    def test_gradient_magnitude_varies_with_confidence(self):
        y = LabelMap(np.array([1, 1]), ClassSet(1))
        s = ProbabilityMap(GridShape((2,)), ClassSet(1), np.array([[0.1, 0.5], [0.9, 0.5]]))
        g = combined_loss(CE, y, s)[1]
        assert abs(g.values[1, 0]) != abs(g.values[1, 1])

    def test_clamp_keeps_loss_finite(self):
        y, s = binary_pair([1, 0], [0.0, 0.0])
        assert np.isfinite(combined_value(CE, y, s))
        assert np.isfinite(combined_loss(CE, y, s)[1].values).all()


class TestLabelledValues:
    """ce and nm values read only the labelled entry of each pixel."""

    def test_values_equal_sums_over_all_entries_to_round_off(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            y, s = random_instance(rng, s_low=0.0, s_high=1.0)
            yv, sv = y.values, s.values
            full_ce = -(yv * np.log(np.maximum(sv, CE_CLAMP))).sum() / yv.size
            assert combined_value(CE, y, s) == pytest.approx(full_ce, rel=1e-14, abs=0)
            assert combined_value(NM, y, s) == pytest.approx(-(yv * sv).sum(), rel=1e-14, abs=0)

    def test_labelled_entries_of_a_stack_are_c_contiguous_rows(self):
        y, s = random_instance(np.random.default_rng(17))
        stack = np.random.default_rng(18).uniform(size=(5, *s.values.shape))
        rows = _labelled(y.values, stack)
        assert rows.shape == (5, y.shape.pixel_count) and rows.flags.c_contiguous
        assert np.array_equal(rows, stack[:, y.indices, np.arange(y.shape.pixel_count)])
        assert all(np.array_equal(_labelled(y.values, probe), row) for probe, row in zip(stack, rows))


class TestMime:
    def test_reference_weight_map(self):
        # omega = -2y + 0.1 rewritten as a=1.9, b=0.1
        y = LabelMap(np.array([1, 0, 0]), ClassSet(1))
        w = _mime_weights(y.values, a=1.9, b=0.1)
        assert np.allclose(w[1], [-1.9, 0.1, 0.1])
        assert np.allclose(w[0], [0.1, -1.9, -1.9])

    def test_symmetric_weights(self):
        y = LabelMap(np.array([1, 0]), ClassSet(1))
        w = _mime_weights(y.values, a=1.0, b=1.0)
        assert np.array_equal(w, 1.0 - 2.0 * y.values)

    def test_worked_inner_product(self):
        # one pixel, three classes, true class 0: omega = [-1.9, 0.1, 0.1]
        y = LabelMap(np.array([0]), ClassSet(2))
        cfg = LossConfig(a=1.9, b=0.1)
        s = ProbabilityMap(GridShape((1,)), ClassSet(2), np.array([[0.8], [0.1], [0.1]]))
        assert combined_value(MIME, y, s, cfg) == pytest.approx(-1.50, rel=1e-12)

    def test_zero_probabilities_give_zero(self):
        y = LabelMap(np.array([0, 1]), ClassSet(1))
        cfg = LossConfig(a=1.9, b=0.1)
        s = ProbabilityMap(GridShape((2,)), ClassSet(1), np.zeros((2, 2)))
        assert combined_value(MIME, y, s, cfg) == 0.0

    def test_gradient_is_exactly_the_weight_map(self):
        rng = np.random.default_rng(7)
        y, s = random_instance(rng)
        w = _mime_weights(y.values, 1.9, 0.1)
        assert np.array_equal(_mime(y.values, s.values, LossConfig(a=1.9, b=0.1))[1], w)
        # independent of s: combined gradient for a mime term equals omega
        _, g = combined_loss(MIME, y, s, LossConfig())
        assert np.array_equal(g.values, w)


class TestNm:
    def test_worked_inner_product(self):
        y = LabelMap(np.array([0]), ClassSet(1))
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.7], [0.3]]))
        assert combined_value(NM, y, s) == pytest.approx(-0.7, rel=1e-12)

    def test_one_hot_prediction_gives_negative_pixel_count(self):
        rng = np.random.default_rng(8)
        idx = rng.integers(0, 3, size=17)
        y = LabelMap(idx, ClassSet(2))
        s = ProbabilityMap(y.shape, y.classes, y.values)
        assert combined_value(NM, y, s) == pytest.approx(-17.0, rel=1e-12)

    def test_gradient_is_exactly_negative_labels(self):
        rng = np.random.default_rng(9)
        y, s = random_instance(rng)
        assert np.array_equal(_nm(y.values, s.values, LossConfig())[1], -y.values)
        _, g = combined_loss(NM, y, s, LossConfig())
        assert np.array_equal(g.values, -y.values)


class TestLossTable:
    @pytest.mark.parametrize("loss_id", LOSS_IDS)
    def test_gradient_matches_finite_differences(self, loss_id):
        terms = ((loss_id, 1.0),)
        # non-default mime weights show the entry reads cfg
        cfg = LossConfig(a=2.5, b=0.3)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 5:
            y, s = random_instance(rng, max_pixels=24)
            if y.classes.count_objects < 2:
                continue
            numeric = finite_diff_grad(lambda p: combined_value(terms, y, p, cfg), s)
            assert max_relative_error(combined_loss(terms, y, s, cfg)[1], numeric) < 1e-5
            checked += 1


    @pytest.mark.parametrize("loss_id", LOSS_IDS)
    def test_stack_values_equal_per_map_calls(self, loss_id):
        terms = ((loss_id, 1.0),)
        cfg = LossConfig(a=2.5, b=0.3)
        rng = np.random.default_rng(12)
        for _ in range(5):
            y, s = random_instance(rng)
            stack = rng.uniform(0.0, 1.0, (7, *s.values.shape))
            values = combined_value(terms, y, stack, cfg)
            assert values.shape == (7,)
            per_map = [combined_value(terms, y, ProbabilityMap(y.shape, y.classes, p), cfg) for p in stack]
            assert np.array_equal(values, per_map)
            assert type(combined_value(terms, y, s, cfg)) is float

    @pytest.mark.parametrize("terms", STACK_TERM_SETS.values(), ids=list(STACK_TERM_SETS))
    @pytest.mark.parametrize(
        "objects, side, probes",
        # one full PROBE_BLOCK stack of a 4-class 8x8 instance; 64x64 planes
        [(3, 8, 2 * (PROBE_BLOCK // (2 * 4 * 8 * 8))), (1, 64, 7), (3, 64, 7)],
        ids=["k4_8x8_full_block", "k2_64x64", "k4_64x64"],
    )
    def test_stack_values_equal_per_map_calls_at_oracle_sizes(self, terms, objects, side, probes):
        cfg = LossConfig(a=2.5, b=0.3)
        rng = np.random.default_rng(side * 10 + objects)
        y = LabelMap(rng.integers(0, objects + 1, (side, side)), ClassSet(objects))
        stack = rng.uniform(0.0, 1.0, (probes, *y.values.shape))
        values = combined_value(terms, y, stack, cfg)
        per_map = [combined_value(terms, y, ProbabilityMap(y.shape, y.classes, p), cfg) for p in stack]
        assert np.array_equal(values, per_map)

    @pytest.mark.parametrize("loss_id", LOSS_IDS)
    def test_stack_with_wrong_trailing_shape_rejected(self, loss_id):
        y, s = random_instance(np.random.default_rng(13))
        k, n = s.values.shape
        for shape in ((3, k, n + 1), (3, k + 1, n), (k, n), (3, 1, k, n)):
            with pytest.raises(ShapeMismatchError):
                combined_value(((loss_id, 1.0),), y, np.full(shape, 0.5), LossConfig())


class TestCombined:
    def test_single_term_identical_to_plain_dice(self):
        y, s = worked_case()
        cfg = LossConfig()
        value, grad = combined_loss(DICE, y, s, cfg)
        kernel_value, kernel_grad = _dice(y.values, s.values, cfg)
        assert value == kernel_value
        assert np.array_equal(grad.values, kernel_grad)

    def test_ce_plus_dice_sums_hand_values(self):
        y, s = worked_case()
        cfg = LossConfig()
        value, grad = combined_loss(CE + DICE, y, s, cfg)
        assert value == pytest.approx(combined_value(CE, y, s, cfg) + combined_value(DICE, y, s, cfg), rel=1e-12)
        expected = combined_loss(CE, y, s, cfg)[1].values + combined_loss(DICE, y, s, cfg)[1].values
        assert np.allclose(grad.values, expected, rtol=0, atol=1e-15)

    def test_lambda_scaling_is_exact(self):
        rng = np.random.default_rng(10)
        y, s = random_instance(rng)
        cfg = LossConfig()
        _, g1 = combined_loss([("dice", 1.0)], y, s, cfg)
        _, g2 = combined_loss([("dice", 2.0)], y, s, cfg)
        assert np.array_equal(g2.values, 2.0 * g1.values)

    @pytest.mark.parametrize("terms", [[("ce", 1.0)], [("nm", 1.0)], [("ce", 1.0), ("nm", 1.0)]])
    def test_unit_weight_gradient_is_positive_zero_off_the_labels(self, terms):
        # the ce and nm kernels' gradients are -0.0 off the labels.  The combined sum
        # starts at +0.0, and 0.0 + -0.0 is +0.0, so a unit-weight term that
        # skips its product still gives +0.0 there: the bytes that
        # gradmap_ce_k*.pfm and gradmap_nm_k*.pfm store.
        y, s = random_instance(np.random.default_rng(11))
        off = y.values == 0.0
        assert off.any()
        cfg = LossConfig()
        assert np.signbit(_ce(y.values, s.values, cfg)[1][off]).all() and np.signbit(_nm(y.values, s.values, cfg)[1][off]).all()
        kernel_grad = _combined(terms, y.values, s.values, cfg)[1]
        map_grad = combined_loss(terms, y, s, cfg)[1].values
        for g in (kernel_grad, map_grad):
            assert not np.signbit(g[off]).any()
            assert (g[off] == 0.0).all()

    def test_unknown_loss_id_rejected(self):
        y, s = worked_case()
        with pytest.raises(ConfigError):
            combined_loss([("jaccard", 1.0)], y, s, LossConfig())

    def test_empty_terms_rejected(self):
        y, s = worked_case()
        with pytest.raises(ConfigError):
            combined_loss([], y, s, LossConfig())
