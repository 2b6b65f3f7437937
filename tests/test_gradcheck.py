import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglab import gradcheck
from seglab.errors import OracleError, UndefinedRangeError, ValidationError
from seglab.gradcheck import (
    FD_STEP,
    PROBE_BLOCK,
    GradAuditReport,
    audit_bound,
    audit_two_valued,
    dynamic_range_db,
    export_gradient_map,
    finite_diff_grad,
    max_relative_error,
)
from seglab.grid import ClassSet, GradientMap, GridShape, LabelMap, ProbabilityMap, overlap_stats
from seglab.imgio import read_pfm
from seglab.losses import (
    LOSSES,
    LossConfig,
    ce_grad,
    ce_loss,
    combined_value,
    dice_grad,
    dice_loss,
    mime_loss,
    mime_weights,
)
from seglab.metrics import argmax_predict  # noqa: F401  (keeps import graph honest)

from .oracles import binary_pair, finite_diff_loop, noisy_prediction_instance, random_instance

# Every table entry on its own, and the ce+dice combination the paper trains with.
VALUE_FNS = {lid: value_fn for lid, (value_fn, _) in LOSSES.items()} | {
    "ce+dice": lambda y, s, cfg: combined_value((("ce", 1.0), ("dice", 1.0)), y, s, cfg)
}


class TestFiniteDiff:
    def test_linear_loss_recovered_to_machine_precision(self):
        rng = np.random.default_rng(1)
        y, s = random_instance(rng, max_pixels=16)
        w = mime_weights(y, 1.9, 0.1)
        cfg = LossConfig(mime_a=1.9, mime_b=0.1)
        for h in (1e-3, 1e-5, 1e-7):
            g = finite_diff_grad(lambda p: mime_loss(y, p, cfg), s, h)
            # no truncation error for a linear loss; only |L| * ulp / h remains
            assert np.abs(g.values - w).max() < 1e-7

    def test_dice_on_worked_case(self):
        y, s = binary_pair([1, 1, 0, 0], [1, 0, 0, 0])
        analytic = dice_grad(y, s)
        numeric = finite_diff_grad(lambda p: dice_loss(y, p), s, 1e-5)
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_ce_at_half_half(self):
        y = LabelMap(np.array([1]), ClassSet(1))
        s = ProbabilityMap(GridShape((1,)), ClassSet(1), np.array([[0.5], [0.5]]))
        numeric = finite_diff_grad(lambda p: ce_loss(y, p), s, 1e-5)
        assert numeric.values[1, 0] == pytest.approx(-1.0, rel=1e-6)
        assert numeric.values[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert max_relative_error(ce_grad(y, s), numeric) < 1e-6

    def test_non_finite_loss_raises_oracle_error(self):
        _, s = binary_pair([1, 0], [0.5, 0.5])
        with pytest.raises(OracleError):
            finite_diff_grad(lambda p: np.full(len(p), np.nan), s)

    def test_non_finite_value_names_its_coordinate(self):
        _, s = binary_pair([1, 0], [0.5, 0.5])
        # only the +h probe of coordinate (1, 0) is non-finite
        with pytest.raises(OracleError, match=r"probe \(1, 0\)"):
            finite_diff_grad(lambda p: np.where(p[:, 1, 0] > 0.5, np.inf, p.sum(axis=(1, 2))), s)

    @pytest.mark.parametrize(
        "wrong", [lambda p: 0.0, lambda p: np.zeros(len(p) + 1), lambda p: np.zeros((len(p), 1))],
        ids=["scalar", "one_too_many", "column"],
    )
    def test_wrongly_shaped_result_raises_oracle_error(self, wrong):
        _, s = binary_pair([1, 0], [0.5, 0.5])
        with pytest.raises(OracleError, match=r"coordinate \(0, 0\)"):
            finite_diff_grad(wrong, s)

    def test_probes_outside_the_slack_band_rejected(self):
        _, s = binary_pair([1, 0], [1.0, 0.0])
        finite_diff_grad(lambda p: p.sum(axis=(1, 2)), s, h=1e-3)
        with pytest.raises(ValidationError):
            finite_diff_grad(lambda p: p.sum(axis=(1, 2)), s, h=1e-2)

    def test_non_positive_step_rejected(self):
        _, s = binary_pair([1, 0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            finite_diff_grad(lambda p: 0.0, s, h=0.0)


class TestAgainstLoop:
    """The stacked oracle reproduces the per-coordinate loop over maps bit for bit."""

    @pytest.mark.parametrize("block", [PROBE_BLOCK, 1000, 1], ids=["one_stack", "uneven_stacks", "per_coordinate"])
    @pytest.mark.parametrize("value_fn", VALUE_FNS.values(), ids=list(VALUE_FNS))
    def test_matches_loop_exactly(self, monkeypatch, value_fn, block):
        monkeypatch.setattr(gradcheck, "PROBE_BLOCK", block)
        cfg = LossConfig(mime_a=2.5, mime_b=0.3)
        rng = np.random.default_rng(12)
        for _ in range(4):
            y, s = random_instance(rng, max_pixels=24)
            stacked = finite_diff_grad(lambda p: value_fn(y, p, cfg), s)
            looped = finite_diff_loop(lambda m: value_fn(y, m, cfg), s, FD_STEP)
            assert np.array_equal(stacked.values, looped.values)

    @pytest.mark.parametrize("value_fn", VALUE_FNS.values(), ids=list(VALUE_FNS))
    def test_instance_larger_than_one_block(self, value_fn):
        rng = np.random.default_rng(13)
        y = LabelMap(rng.integers(0, 4, 64), ClassSet(3))
        s = ProbabilityMap(y.shape, y.classes, rng.uniform(0.05, 0.95, (4, 64)))
        assert 2 * s.values.size**2 > PROBE_BLOCK  # its 512 probes of 256 values take several stacks
        cfg = LossConfig()
        stacked = finite_diff_grad(lambda p: value_fn(y, p, cfg), s, 1e-4)
        looped = finite_diff_loop(lambda m: value_fn(y, m, cfg), s, 1e-4)
        assert np.array_equal(stacked.values, looped.values)


class TestTwoValued:
    def test_dice_gradient_on_100_random_instances(self):
        rng = np.random.default_rng(2)
        seen = 0
        while seen < 100:
            y, s = random_instance(rng)
            sizes = y.foreground_sizes()
            counts = audit_two_valued(dice_grad(y, s))
            for k in range(y.classes.total):
                if 0 < sizes[k] < y.shape.pixel_count:
                    assert counts[k] == 2
            seen += 1

    def test_all_background_plane_collapses_to_one_value(self):
        # class 2 never occurs: its plane has I=0, so a single gradient value
        y = LabelMap(np.array([0, 1, 1]), ClassSet(2))
        s = ProbabilityMap(GridShape((3,)), ClassSet(2), np.full((3, 3), 0.2))
        counts = audit_two_valued(dice_grad(y, s))
        assert counts[2] == 1

    def test_ce_gradient_generically_exceeds_two(self):
        rng = np.random.default_rng(3)
        y = LabelMap(rng.integers(0, 2, 32), ClassSet(1))
        s = ProbabilityMap(GridShape((32,)), ClassSet(1), rng.uniform(0.1, 0.9, (2, 32)))
        counts = audit_two_valued(ce_grad(y, s))
        assert max(counts) > 2

    def test_tolerance_merges_close_values(self):
        g = GradientMap(GridShape((3,)), ClassSet(1), np.array([[0.0, 1e-13, 1.0], [0.0, 0.0, 0.0]]))
        assert audit_two_valued(g, tol=1e-12) == [2, 1]
        assert audit_two_valued(g, tol=0.0) == [3, 1]

    def test_negative_tolerance_rejected(self):
        g = GradientMap(GridShape((1,)), ClassSet(1), np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            audit_two_valued(g, tol=-1.0)


class TestBound:
    def test_worked_case_has_no_violations(self):
        y, s = binary_pair([1, 1, 0, 0], [1, 0, 0, 0])
        g = dice_grad(y, s)
        assert audit_bound(g, overlap_stats(y, s)) == 0

    def test_1000_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            y, s = random_instance(rng, max_pixels=24)
            g = dice_grad(y, s)
            assert audit_bound(g, overlap_stats(y, s)) == 0

    def test_scaled_gradient_is_caught(self):
        rng = np.random.default_rng(5)
        y, s = random_instance(rng)
        g = dice_grad(y, s)
        scaled = GradientMap(g.shape, g.classes, 10.0 * g.values)
        assert audit_bound(scaled, overlap_stats(y, s)) > 0

    def test_limit_is_two_over_class_count_times_union(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y, s = random_instance(rng)
            stats = overlap_stats(y, s)
            limit = 2.0 / (y.classes.total * (stats.union_sum + LossConfig.epsilon))
            factors = rng.choice([0.99, 1.01], size=s.values.shape)
            g = GradientMap(s.shape, s.classes, factors * limit[:, None])
            assert audit_bound(g, stats) == int((factors > 1).sum())

    def test_epsilon_is_keyword_only(self):
        y, s = binary_pair([1, 1, 0, 0], [1, 0, 0, 0])
        with pytest.raises(TypeError):
            audit_bound(dice_grad(y, s), overlap_stats(y, s), 0.5)


class TestDynamicRange:
    def test_two_valued_map(self):
        g = GradientMap(
            GridShape((2,)), ClassSet(1), np.array([[4 / 9, 4 / 9], [2 / 9, 2 / 9]])
        )
        assert dynamic_range_db(g) == pytest.approx(10 * np.log10(2), rel=1e-12)

    def test_constant_magnitude_map(self):
        g = GradientMap(GridShape((3,)), ClassSet(1), np.array([[0.5, -0.5, 0.5]] * 2))
        assert dynamic_range_db(g) == 0.0

    def test_all_zero_map_rejected(self):
        g = GradientMap(GridShape((2,)), ClassSet(1), np.zeros((2, 2)))
        with pytest.raises(UndefinedRangeError):
            dynamic_range_db(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        y, s = random_instance(rng)
        g = dice_grad(y, s)
        scaled = GradientMap(g.shape, g.classes, c * g.values)
        assert dynamic_range_db(scaled) == pytest.approx(dynamic_range_db(g), abs=1e-9)

    def test_dice_narrower_than_ce_on_noisy_predictions(self):
        rng = np.random.default_rng(6)
        wins = 0
        for _ in range(100):
            y, s = noisy_prediction_instance(rng)
            if dynamic_range_db(dice_grad(y, s)) < dynamic_range_db(ce_grad(y, s)):
                wins += 1
        assert wins >= 95


class TestExport:
    def test_pfm_header_and_payload_for_zero_plane(self, tmp_path):
        g = GradientMap(GridShape((2, 2)), ClassSet(1), np.zeros((2, 4)))
        paths = export_gradient_map(g, tmp_path / "zero")
        assert [p.name for p in paths] == ["zero_k0.pfm", "zero_k1.pfm"]
        raw = paths[0].read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        assert raw[len(b"Pf\n2 2\n-1.0\n") :] == b"\x00" * 16

    def test_round_trip_float32(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.normal(0, 1, (3, 20))
        g = GradientMap(GridShape((4, 5)), ClassSet(2), values)
        paths = export_gradient_map(g, tmp_path / "rt")
        for k, path in enumerate(paths):
            back = read_pfm(path)
            assert back.shape == (4, 5)
            assert np.array_equal(back, g.plane(k).astype(np.float32))

    def test_worked_gradient_round_trip(self, tmp_path):
        y, s = binary_pair([1, 1, 0, 0], [1, 0, 0, 0])
        y2 = LabelMap(y.indices.reshape(2, 2), y.classes)
        s2 = type(s)(GridShape((2, 2)), s.classes, s.values)
        g = dice_grad(y2, s2, LossConfig(epsilon=1e-12))
        paths = export_gradient_map(g, tmp_path / "worked")
        fg_plane = read_pfm(paths[1])
        assert fg_plane[0, 0] == pytest.approx(-4 / 9 * 0.5, rel=1e-6)
        assert fg_plane[1, 0] == pytest.approx(2 / 9 * 0.5, rel=1e-6)

    def test_3d_grid_rejected(self, tmp_path):
        g = GradientMap(GridShape((2, 2, 2)), ClassSet(1), np.zeros((2, 8)))
        with pytest.raises(ValidationError):
            export_gradient_map(g, tmp_path / "bad")


class TestReport:
    def test_json_shape(self, tmp_path):
        report = GradAuditReport(
            max_rel_error=1e-7,
            distinct_values=(2, 2),
            bound_violations=0,
            dynamic_range_db=3.01,
        )
        path = report.write(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "max_rel_error",
            "distinct_values",
            "bound_violations",
            "dynamic_range_db",
        }
        assert payload["distinct_values"] == [2, 2]
        assert payload["bound_violations"] == 0
