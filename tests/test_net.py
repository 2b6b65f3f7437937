import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seglab.errors import SegLabError, ShapeMismatchError, StaleCacheError, ValidationError
from seglab.grid import ClassSet, GradientMap, GridShape, LabelMap, ProbabilityMap
from seglab.losses import LossConfig, combined_loss
from seglab.net import (
    SegNet,
    backward,
    forward,
    load_checkpoint,
    save_checkpoint,
    softmax,
    softmax_backward,
)

from .oracles import im2col_backward, im2col_forward


def make_net(count_objects=2, seed=0):
    return SegNet(ClassSet(count_objects), seed=seed)


def set_zero_kernels(net, final_biases):
    theta = np.zeros(net.param_count)
    _, bias_slice = net.param_slices[-1]
    theta[bias_slice] = final_biases
    net.set_params(theta)


class TestForward:
    def test_zero_net_outputs_final_biases(self):
        net = make_net(2)
        biases = np.array([0.3, -0.1, 2.0])
        set_zero_kernels(net, biases)
        logits, _ = forward(net, np.random.default_rng(0).uniform(0, 1, (6, 7)))
        for k, b in enumerate(biases):
            assert np.allclose(logits[k], b, rtol=0, atol=0)

    def test_center_tap_chain_on_constant_image(self):
        # kernels with only the center tap act like 1x1s: constant image in,
        # constant logits out despite the zero padding
        net = make_net(1)
        theta = np.zeros(net.param_count)
        for layer, (kslice, _) in zip(net.layers, net.param_slices):
            kernels = np.zeros(layer.kernels.shape)
            out_ch, in_ch, kh, kw = layer.kernels.shape
            kernels[:, :, kh // 2, kw // 2] = 0.5
            theta[kslice] = kernels.ravel()
        net.set_params(theta)
        logits, _ = forward(net, np.full((5, 9), 0.4))
        for k in range(logits.shape[0]):
            assert np.allclose(logits[k], logits[k, 0, 0])

    def test_random_net_output_shape_and_finiteness(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            count_objects = int(rng.integers(1, 4))
            net = make_net(count_objects, seed=int(rng.integers(0, 1000)))
            h, w = int(rng.integers(3, 20)), int(rng.integers(3, 20))
            logits, _ = forward(net, rng.uniform(0, 1, (h, w)))
            assert logits.shape == (count_objects + 1, h, w)
            assert np.isfinite(logits).all()

    def test_non_2d_image_rejected(self):
        net = make_net()
        with pytest.raises(ShapeMismatchError):
            forward(net, np.zeros((2, 3, 4)))

    @pytest.mark.parametrize("dims", [(0, 5), (5, 0)])
    def test_empty_image_rejected(self, dims):
        with pytest.raises(ShapeMismatchError):
            forward(make_net(), np.zeros(dims))

    def test_deterministic_given_seed_and_image(self):
        img = np.random.default_rng(3).uniform(0, 1, (8, 8))
        a, _ = forward(make_net(seed=42), img)
        b, _ = forward(make_net(seed=42), img)
        assert np.array_equal(a, b)

    def test_warm_forward_allocates_under_1_3_mb(self):
        # 1.17 MB: the cached tap rows, two 8-channel grids and one tap product
        net = make_net(3)
        image = np.random.default_rng(24).uniform(0, 1, (64, 64))
        forward(net, image)
        tracemalloc.start()
        try:
            forward(net, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3e6

    @pytest.mark.parametrize("dims", [(1, 1), (1, 7), (7, 1), (5, 9), (48, 64)])
    def test_cached_grids_have_zero_pad_rows_and_columns(self, dims):
        # positive biases make every junk entry of a layer's output window
        # positive before its pad columns are zeroed
        net = make_net(2, seed=3)
        theta = net.get_params()
        for _, bias_slice in net.param_slices:
            theta[bias_slice] = 1.0
        net.set_params(theta)
        _, cache = forward(net, np.random.default_rng(25).uniform(0, 1, dims))
        height, width = dims
        for grid in cache.inputs[1:]:
            rows = grid.reshape(-1, height + 2, width + 2)
            assert not rows[:, [0, -1], :].any()
            assert not rows[:, :, [0, -1]].any()
            assert (rows[:, 1:-1, 1:-1] > 0.0).any()


class TestSoftmax:
    def test_symmetric_logits(self):
        s = softmax(np.zeros((2, 1, 1)))
        assert np.allclose(s.values, 0.5)

    def test_closed_form(self):
        s = softmax(np.array([np.log(3.0), 0.0]).reshape(2, 1, 1))
        assert s.values[0, 0] == pytest.approx(0.75, rel=1e-12)
        assert s.values[1, 0] == pytest.approx(0.25, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 3, (3, 4, 5))
        a = softmax(z)
        b = softmax(z + 17.5)
        assert np.allclose(a.values, b.values, rtol=0, atol=1e-12)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(5)
        s = softmax(rng.normal(0, 10, (4, 6, 6)))
        assert np.abs(s.values.sum(axis=0) - 1.0).max() <= 1e-6

    def test_overflowing_shift_is_quiet_and_exact(self):
        # 1e308 - (-1e308) overflows to -inf after the max shift; its exp is 0
        s = softmax(np.array([[1e308], [-1e308]]))
        assert np.array_equal(s.values, [[1.0], [0.0]])


class TestSoftmaxBackward:
    def test_constant_upstream_is_tangent(self):
        rng = np.random.default_rng(6)
        s = softmax(rng.normal(0, 1, (3, 2, 2)))
        g = GradientMap(s.shape, s.classes, np.full((3, 4), 0.7))
        assert np.allclose(softmax_backward(s, g), 0.0, atol=1e-15)

    def test_closed_form(self):
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.5], [0.5]]))
        g = GradientMap(s.shape, s.classes, np.array([[-1.0], [0.0]]))
        dz = softmax_backward(s, g)
        assert dz[0, 0] == pytest.approx(-0.25, rel=1e-12)
        assert dz[1, 0] == pytest.approx(0.25, rel=1e-12)

    def test_matches_finite_differences_through_composite(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0, 1, (3, 3, 3))
        y = LabelMap(rng.integers(0, 3, (3, 3)), ClassSet(2))
        cfg = LossConfig()

        def composite(logits):
            value, _ = combined_loss([("dice", 1.0)], y, softmax(logits), cfg)
            return value

        s = softmax(z)
        _, gs = combined_loss([("dice", 1.0)], y, s, cfg)
        dz = softmax_backward(s, gs)
        h = 1e-6
        worst = 0.0
        for idx in np.ndindex(z.shape):
            zp = z.copy()
            zp[idx] += h
            hi = composite(zp)
            zp[idx] -= 2 * h
            lo = composite(zp)
            num = (hi - lo) / (2 * h)
            worst = max(worst, abs(dz[idx] - num) / max(1.0, abs(dz[idx]), abs(num)))
        assert worst < 1e-5


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        net = make_net()
        logits, cache = forward(net, np.random.default_rng(8).uniform(0, 1, (5, 5)))
        grad = backward(net, cache, np.zeros_like(logits))
        assert np.array_equal(grad, np.zeros(net.param_count))

    def test_final_layer_kernel_gradient_is_upstream_times_input(self):
        # on a 1x1 image the 1x1 head sees exactly its cached input features
        net = make_net(1)
        image = np.array([[0.63]])
        logits, cache = forward(net, image)
        head_input = cache.inputs[2].reshape(-1, 3, 3)[:, 1, 1]  # (hidden,), inside the zero border
        upstream = np.zeros_like(logits)
        upstream[1, 0, 0] = 2.5
        grad = backward(net, cache, upstream)
        kslice, bslice = net.param_slices[2]
        dkernels = grad[kslice].reshape(net.layers[2].kernels.shape)
        assert np.allclose(dkernels[1, :, 0, 0], 2.5 * head_input, rtol=0, atol=1e-15)
        assert np.allclose(dkernels[0], 0.0)
        assert grad[bslice][1] == 2.5

    def test_relu_backward_zeroes_non_positive_preactivations(self):
        net = make_net()
        rng = np.random.default_rng(9)
        logits, cache = forward(net, rng.uniform(0, 1, (6, 6)))
        upstream = rng.normal(0, 1, logits.shape)
        # recompute the upstream gradient flowing into layer 1's ReLU by hand:
        # head is 1x1, so dL/dh2 = W3^T @ dL/dz3 pixelwise
        w3 = net.layers[2].kernels.reshape(net.layers[2].kernels.shape[0], -1)
        dh2 = (w3.T @ upstream.reshape(upstream.shape[0], -1)).reshape(
            -1, *logits.shape[1:]
        )
        # relu(x) > 0 exactly where x > 0, so the head's input grid holds layer 1's mask
        mask = cache.inputs[2].reshape(-1, 8, 8)[:, 1:-1, 1:-1] > 0
        assert not mask.all()  # some pre-activations are cut on this image
        expected_dz2 = dh2 * mask
        # the 8 -> 8 bias gradient is the masked gradient summed over pixels
        grad = backward(net, cache, upstream)
        _, bias_slice = net.param_slices[1]
        assert np.allclose(grad[bias_slice], expected_dz2.sum(axis=(1, 2)), rtol=1e-12, atol=1e-12)
        assert not np.allclose(grad[bias_slice], dh2.sum(axis=(1, 2)), rtol=1e-6, atol=1e-6)

    def test_stale_cache_after_parameter_update(self):
        net = make_net()
        logits, cache = forward(net, np.ones((4, 4)) * 0.3)
        net.set_params(net.get_params() * 1.01)
        with pytest.raises(StaleCacheError):
            backward(net, cache, np.zeros_like(logits))

    def test_upstream_of_the_wrong_shape_rejected(self):
        net = make_net(2)
        logits, cache = forward(net, np.random.default_rng(26).uniform(0, 1, (5, 9)))
        backward(net, cache, np.zeros_like(logits))
        # the transposed grid has the same padded size, (9 + 2) * (5 + 2)
        for shape in [(3, 9, 5), (4, 5, 9), (2, 5, 9), (3, 45)]:
            with pytest.raises(ShapeMismatchError):
                backward(net, cache, np.zeros(shape))

    def test_cache_from_other_net_rejected(self):
        net_a, net_b = make_net(seed=1), make_net(seed=1)
        logits, cache = forward(net_a, np.ones((4, 4)) * 0.3)
        with pytest.raises(StaleCacheError):
            backward(net_b, cache, np.zeros_like(logits))

    def test_end_to_end_finite_difference_small(self):
        rng = np.random.default_rng(10)
        net = make_net(1, seed=11)
        cfg = LossConfig()
        for dims in ((8, 8), (5, 9)):
            img = rng.uniform(0, 1, dims)
            y = LabelMap(rng.integers(0, 2, dims), ClassSet(1))
            for terms in ([("dice", 1.0)], [("ce", 1.0)]):
                logits, cache = forward(net, img)
                s = softmax(logits)
                _, gs = combined_loss(terms, y, s, cfg)
                gtheta = backward(net, cache, softmax_backward(s, gs))
                theta0 = net.get_params()
                h = 1e-5
                for j in rng.choice(net.param_count, 12, replace=False):
                    theta = theta0.copy()
                    theta[j] += h
                    net.set_params(theta)
                    hi = combined_loss(terms, y, softmax(forward(net, img)[0]), cfg)[0]
                    theta[j] -= 2 * h
                    net.set_params(theta)
                    lo = combined_loss(terms, y, softmax(forward(net, img)[0]), cfg)[0]
                    num = (hi - lo) / (2 * h)
                    err = abs(gtheta[j] - num) / max(1.0, abs(gtheta[j]), abs(num))
                    assert err < 1e-6
                net.set_params(theta0)


class TestPassesShareNoState:
    def test_later_passes_leave_an_earlier_cache_and_logits_intact(self):
        rng = np.random.default_rng(21)
        first, second = rng.random((2, 9, 11))
        net = make_net(count_objects=2, seed=4)
        logits, cache = forward(net, first)
        kept = logits.copy()
        later_logits, later_cache = forward(net, second)
        dz = rng.normal(size=logits.shape)
        backward(net, later_cache, rng.normal(size=later_logits.shape))
        grad = backward(net, cache, dz)
        assert np.array_equal(logits, kept)
        fresh = make_net(count_objects=2, seed=4)
        fresh_logits, fresh_cache = forward(fresh, first)
        assert np.array_equal(logits, fresh_logits)
        assert np.array_equal(grad, backward(fresh, fresh_cache, dz))

    # Shapes whose padded rows hold the same number of entries: 4 x (10 + 2)
    # and 6 x (6 + 2) for the 3x3 layers, and a 1x1 head with K = 8 classes
    # on 6 x 8 against a 3x3 layer on 6 x 6.
    @pytest.mark.parametrize("count_objects", [2, 7])
    @pytest.mark.parametrize("shapes", [((4, 10), (6, 6)), ((6, 6), (4, 10)), ((6, 8), (6, 6))], ids=str)
    def test_gradient_does_not_depend_on_earlier_shapes(self, shapes, count_objects):
        rng = np.random.default_rng(23)
        images = [rng.random(dims) for dims in shapes]
        upstreams = [rng.normal(size=(count_objects + 1, *dims)) for dims in shapes]
        net = make_net(count_objects, seed=5)
        for image, dz in zip(images, upstreams):
            logits, cache = forward(net, image)
            grad = backward(net, cache, dz)
            fresh = make_net(count_objects, seed=5)
            fresh_logits, fresh_cache = forward(fresh, image)
            assert np.array_equal(logits, fresh_logits)
            assert np.array_equal(grad, backward(fresh, fresh_cache, dz))


class TestAgainstIm2col:
    """The row-shifted convolution against the explicit im2col/col2im pass in oracles.py."""

    @pytest.mark.parametrize("count_objects", [1, 3])
    @pytest.mark.parametrize("dims", [(1, 1), (1, 7), (7, 1), (5, 9), (64, 64)])
    def test_logits_equal_and_gradients_match(self, dims, count_objects):
        rng = np.random.default_rng(20)
        net = make_net(count_objects, seed=21)
        image = rng.uniform(0, 1, dims)
        logits, cache = forward(net, image)
        ref_logits, ref_caches = im2col_forward(net, image)
        # the 1 -> 8 layer runs the oracle's im2col GEMM; later layers sum their taps in another order
        height, width = dims
        tap_rows = np.zeros((9, height * (width + 2)))
        tap_rows[:, : cache.inputs[0].shape[1]] = cache.inputs[0]
        assert np.array_equal(tap_rows.reshape(9, height, width + 2)[:, :, :width].reshape(9, -1), ref_caches[0][0])
        layer0 = cache.inputs[1].reshape(-1, height + 2, width + 2)[:, 1:-1, 1:-1]
        assert np.array_equal(layer0, np.maximum(ref_caches[0][1], 0.0))
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-13, atol=1e-13 * np.abs(ref_logits).max())
        upstream = rng.normal(0, 1, logits.shape)
        grad = backward(net, cache, upstream)
        ref_grad = im2col_backward(net, ref_caches, upstream)
        # sums are reordered, so entries that cancel to ~0 get an absolute bound
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-13, atol=1e-13 * np.abs(ref_grad).max())

    def test_cached_layer_inputs_are_padded_grids_not_im2col_columns(self):
        # 862 KB at 64x64: the 1 -> 8 layer's 9 tap rows and two 8-channel
        # grids; the im2col columns of the three layers took 2.9 MB
        net = make_net(3)
        _, cache = forward(net, np.random.default_rng(22).uniform(0, 1, (64, 64)))
        assert sum(x.nbytes for x in cache.inputs) < 1 << 20


class TestParamsAndCheckpoint:
    def test_param_round_trip(self):
        net = make_net(2, seed=12)
        theta = net.get_params()
        net.set_params(theta * 2.0)
        assert np.array_equal(net.get_params(), theta * 2.0)

    def test_get_params_returns_a_copy(self):
        net = make_net(2, seed=14)
        image = np.random.default_rng(14).uniform(0, 1, (9, 7))
        theta, logits = net.get_params(), forward(net, image)[0]
        version = net.params_version
        params = net.get_params()
        params += 1.0
        assert np.array_equal(net.get_params(), theta)
        assert net.params_version == version
        assert np.array_equal(forward(net, image)[0], logits)

    def test_set_params_shows_in_every_layer(self):
        net = make_net(3, seed=15)
        theta = np.random.default_rng(15).normal(size=net.param_count)
        net.set_params(theta)
        for layer, (kslice, bslice) in zip(net.layers, net.param_slices):
            assert np.array_equal(layer.kernels, theta[kslice].reshape(layer.kernels.shape))
            assert np.array_equal(layer.biases, theta[bslice])

    def test_param_count_matches_architecture(self):
        net = make_net(3)
        expected = (8 * 1 * 9 + 8) + (8 * 8 * 9 + 8) + (4 * 8 + 4)
        assert net.param_count == expected

    def test_wrong_length_rejected(self):
        net = make_net()
        with pytest.raises(ShapeMismatchError):
            net.set_params(np.zeros(net.param_count + 1))

    def test_checkpoint_round_trip(self, tmp_path):
        net = make_net(2, seed=13)
        path = save_checkpoint(
            tmp_path / "net.ckpt", net, epoch=7, best_val_dsc=0.5, config={"seed": 13}
        )
        restored, header = load_checkpoint(path)
        assert np.array_equal(restored.get_params(), net.get_params())
        assert header["epoch"] == 7
        assert header["best_val_dsc"] == 0.5
        assert header["classes_total"] == 3
        assert header["config"] == {"seed": 13}

    def test_truncated_checkpoint_rejected(self, tmp_path):
        net = make_net()
        path = save_checkpoint(tmp_path / "net.ckpt", net, epoch=0)
        raw = path.read_bytes()
        for cut in (16, 3):  # whole and partial float64 values missing
            path.write_bytes(raw[:-cut])
            with pytest.raises(ValidationError):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"\xff\xfe not utf-8\n",
            b"{not json\n",
            b'["seglab-checkpoint-v1"]\n',
            b'{"format": "seglab-checkpoint-v1"}\n',
            b'{"format": "seglab-checkpoint-v1", "param_count": "ten", "classes_total": 3, '
            b'"hidden_channels": 8, "seed": 0}\n',
            b'{"format": "seglab-checkpoint-v1", "param_count": 100, "classes_total": 3, '
            b'"hidden_channels": 0, "seed": 0}\n',
        ],
        ids=["not_utf8", "not_json", "not_object", "missing_keys", "wrong_type", "zero_hidden"],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + bytes(800))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"dtype": ">f4"},
            {"dtype": "<f4"},
            {"dtype": None},
            {"in_channels": 3},
            {"in_channels": True},
            {"in_channels": 1.0},
            {"hidden_channels": 16},
        ],
        ids=["big_endian_f4", "f4", "no_dtype", "three_channels", "bool_channels", "float_channels", "hidden_16"],
    )
    def test_header_constants_enforced(self, tmp_path, change):
        path = save_checkpoint(tmp_path / "net.ckpt", make_net(), epoch=0)
        header, block = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(json.loads(header) | change).encode("utf-8") + b"\n" + block)
        with pytest.raises(ValidationError, match=next(iter(change))):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = save_checkpoint(tmp_path / "net.ckpt", make_net(), epoch=0)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValidationError, match="parameter block"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        count_objects=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        in_header=st.booleans(),
        cut=st.floats(0.0, 1.0, exclude_max=True),
        flip=st.integers(0, 255),
    )
    def test_fuzzed_checkpoint_raises_only_seglab_errors(self, tmp_path, count_objects, seed, in_header, cut, flip):
        """Truncate a saved checkpoint (flip == 0) or XOR one byte with flip,
        in the header or in the block; only SegLabError may escape."""
        net = make_net(count_objects, seed=seed)
        path = save_checkpoint(tmp_path / "fuzz.ckpt", net, epoch=3, best_val_dsc=0.5, config={"seed": seed})
        raw = bytearray(path.read_bytes())
        header_len = raw.index(b"\n") + 1
        at = int(cut * header_len) if in_header else header_len + int(cut * (len(raw) - header_len))
        if flip:
            raw[at] ^= flip
        else:
            del raw[at:]
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except SegLabError:
            pass
