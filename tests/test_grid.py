import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglab.errors import ShapeMismatchError, ValidationError
from seglab.grid import (
    ClassSet,
    GradientMap,
    GridShape,
    LabelMap,
    ProbabilityMap,
    overlap_stats,
)

from .oracles import binary_pair, one_hot


class TestTypes:
    def test_class_set_counts(self):
        assert ClassSet(1).total == 2
        assert ClassSet(3).total == 4

    def test_class_set_rejects_zero_objects(self):
        with pytest.raises(ValidationError):
            ClassSet(0)

    def test_grid_shape_pixel_count(self):
        assert GridShape((4, 8)).pixel_count == 32
        assert GridShape((5,)).pixel_count == 5

    def test_grid_shape_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            GridShape((0, 4))
        with pytest.raises(ValidationError):
            GridShape(())

    def test_probability_map_range(self):
        classes = ClassSet(1)
        shape = GridShape((2,))
        ProbabilityMap(shape, classes, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValidationError):
            ProbabilityMap(shape, classes, np.array([[0.0, 1.5], [1.0, 0.0]]))
        # probe slack: a finite-difference step outside [0, 1] is fine
        ProbabilityMap(shape, classes, np.array([[0.0, 1.0 + 1e-5], [1.0, -1e-5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_probability_map_rejects_non_finite_between_valid_values(self, bad):
        planes = np.array([[0.2, 0.5, 0.9], [0.8, bad, 0.1]])
        with pytest.raises(ValidationError, match="must be finite"):
            ProbabilityMap(GridShape((3,)), ClassSet(1), planes)
        with pytest.raises(ValidationError, match="must be finite"):
            ProbabilityMap.check(planes)

    def test_probability_map_reports_true_range(self):
        planes = np.array([[0.2, 1.25, 0.9], [0.8, -0.5, 0.1]])
        with pytest.raises(ValidationError, match=r"got range \[-0\.5, 1\.25\]"):
            ProbabilityMap(GridShape((3,)), ClassSet(1), planes)

    def test_empty_values_pass_the_probability_check(self):
        ProbabilityMap.check(np.empty((2, 0)))

    def test_grid_shape_accepts_numpy_integer_dims(self):
        shape = GridShape((np.int64(4), np.uint8(3)))
        assert shape.dims == (4, 3) and all(type(d) is int for d in shape.dims)
        assert shape == GridShape((4, 3))
        for dims in ((), (np.int64(0), 4), (4, -2), (np.int32(-1),)):
            with pytest.raises(ValidationError):
                GridShape(dims)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            ProbabilityMap(GridShape((3,)), ClassSet(1), np.zeros((2, 4)))

    def test_values_frozen(self):
        y, s = binary_pair([1, 0], [0.5, 0.5])
        with pytest.raises(ValueError):
            y.values[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_spatial_layout_rejected(self):
        classes = ClassSet(1)
        shape = GridShape((2, 2))
        planes = np.zeros((2, 2, 2))
        planes[0] = 1.0
        for cls in (ProbabilityMap, GradientMap):
            with pytest.raises(ShapeMismatchError):
                cls(shape, classes, planes)
        s = ProbabilityMap(shape, classes, planes.reshape(2, 4))
        assert np.array_equal(s.plane(0), np.ones((2, 2)))
        assert np.array_equal(s.planes(), planes)


class TestOverlapStats:
    def test_worked_binary_case(self):
        # foreground plane y=[1,1,0,0], s=[1,0,0,0]: I=1, U=3
        y, s = binary_pair([1, 1, 0, 0], [1, 0, 0, 0])
        stats = overlap_stats(y, s)
        assert stats.intersection[1] == 1.0
        assert stats.union_sum[1] == 3.0

    def test_identity_case(self):
        y, s = binary_pair([1, 1, 0, 0], [1, 1, 0, 0])
        stats = overlap_stats(y, s)
        sizes = y.foreground_sizes()
        assert np.array_equal(stats.intersection, sizes)
        assert np.array_equal(stats.union_sum, 2 * sizes)

    def test_disjoint_supports(self):
        y, s = binary_pair([1, 0], [0, 1])
        stats = overlap_stats(y, s)
        assert stats.intersection[1] == 0.0
        assert stats.union_sum[1] == 2.0

    def test_mismatch_raises(self):
        y, _ = binary_pair([1, 0], [0, 1])
        _, s = binary_pair([1, 0, 0], [0, 1, 0])
        with pytest.raises(ShapeMismatchError):
            overlap_stats(y, s)

    def test_double_intersection_below_union_1000_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            count_objects = int(rng.integers(1, 4))
            pixels = int(rng.integers(1, 33))
            classes = ClassSet(count_objects)
            y = LabelMap(rng.integers(0, classes.total, pixels), classes)
            s = ProbabilityMap(
                GridShape((pixels,)), classes, rng.uniform(0, 1, (classes.total, pixels))
            )
            stats = overlap_stats(y, s)
            assert (2.0 * stats.intersection <= stats.union_sum + 1e-12).all()
            assert (stats.intersection >= 0).all()
            upper = np.minimum(y.foreground_sizes(), s.values.sum(axis=1))
            assert (stats.intersection <= upper + 1e-12).all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        pixels = int(rng.integers(2, 32))
        classes = ClassSet(int(rng.integers(1, 4)))
        y = LabelMap(rng.integers(0, classes.total, pixels), classes)
        s = ProbabilityMap(
            GridShape((pixels,)), classes, rng.uniform(0, 1, (classes.total, pixels))
        )
        perm = rng.permutation(pixels)
        y_p = LabelMap(y.indices[perm], y.classes)
        s_p = ProbabilityMap(s.shape, s.classes, s.values[:, perm])
        a = overlap_stats(y, s)
        b = overlap_stats(y_p, s_p)
        assert np.allclose(a.intersection, b.intersection, rtol=0, atol=1e-12)
        assert np.allclose(a.union_sum, b.union_sum, rtol=0, atol=1e-12)


class TestOneHot:
    def test_basic_planes(self):
        classes = ClassSet(2)
        y = LabelMap(np.array([0, 2]), classes)
        assert np.array_equal(y.values, [[1, 0], [0, 0], [0, 1]])

    def test_all_background(self):
        y = LabelMap(np.zeros(5, dtype=int), ClassSet(1))
        assert np.array_equal(y.values[0], np.ones(5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            LabelMap(np.array([0, 3]), ClassSet(2))
        with pytest.raises(ValidationError):
            LabelMap(np.array([-1]), ClassSet(2))

    def test_round_trip_100_random_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            classes = ClassSet(int(rng.integers(1, 5)))
            dims = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            idx = rng.integers(0, classes.total, dims)
            y = LabelMap(idx, classes)
            assert np.array_equal(y.indices, idx)
            assert np.array_equal(y.values.argmax(axis=0).reshape(dims), idx)
            assert (y.values.sum(axis=0) == 1.0).all()


class TestLabelMap:
    @pytest.mark.parametrize(
        "indices",
        [
            np.array([0.0, 1.0]),
            np.array([False, True]),
            np.array([0, -1]),
            np.array([0, 3]),
            np.zeros((0,), dtype=int),
        ],
        ids=["float", "bool", "negative", "at_total", "empty"],
    )
    def test_rejected(self, indices):
        with pytest.raises(ValidationError):
            LabelMap(indices, ClassSet(2))

    def test_values_equal_loop_built_planes_and_are_read_only(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            classes = ClassSet(int(rng.integers(1, 5)))
            dims = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            y = LabelMap(rng.integers(0, classes.total, dims), classes)
            assert y.shape == GridShape(dims)
            assert y.values.dtype == np.float64
            assert np.array_equal(y.values, one_hot(y.indices, classes))
            with pytest.raises(ValueError):
                y.values[0, 0] = 5.0

    def test_indices_copied_read_only_in_smallest_unsigned_dtype(self):
        idx = np.array([[0, 1], [2, 1]])
        y = LabelMap(idx, ClassSet(2))
        idx[0, 0] = 2
        assert y.indices.dtype == np.uint8 and y.indices[0, 0] == 0
        with pytest.raises(ValueError):
            y.indices[0, 0] = 1
