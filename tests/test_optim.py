import numpy as np
import pytest

from seglab.errors import ShapeMismatchError, TrainingAbortError, ValidationError
from seglab.optim import (
    AdamState,
    MomentumState,
    OptimizerConfig,
    SchedulerState,
    adam_step,
    default_optimizer_config,
    scheduler_step,
    sgd_step,
)


class TestConfig:
    def test_reference_defaults(self):
        adam = default_optimizer_config("adam")
        assert (adam.eta, adam.beta1, adam.beta2) == (5e-4, 0.99, 0.999)
        sgd = default_optimizer_config("sgd")
        assert (sgd.eta, sgd.momentum, sgd.weight_decay) == (1e-2, 0.9, 5e-4)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(kind="rmsprop")
        with pytest.raises(ValidationError):
            OptimizerConfig(eta=0.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(momentum=1.0)
        with pytest.raises(ValidationError):
            OptimizerConfig(beta1=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("lam", 0.0), ("lam", -1.0), ("weight_decay", -5.0), ("weight_decay", -1e-12), ("adam_eps", 0.0), ("adam_eps", -1e-8)],
    )
    def test_sign_of_scale_decay_and_eps_validated(self, field, value):
        for kind in ("sgd", "adam"):
            with pytest.raises(ValidationError, match=field):
                OptimizerConfig(kind=kind, **{field: value})

    def test_zero_weight_decay_accepted(self):
        assert OptimizerConfig(kind="sgd", weight_decay=0.0).weight_decay == 0.0


class TestSgd:
    def test_plain_update_to_machine_precision(self):
        # momentum-free, decay-free case is exactly theta - eta * grad
        rng = np.random.default_rng(0)
        theta = rng.normal(0, 1, 50)
        grad = rng.normal(0, 1, 50)
        cfg = OptimizerConfig(kind="sgd", eta=0.01, lam=1.0, momentum=0.0, weight_decay=0.0)
        out = sgd_step(theta, grad, cfg, MomentumState.fresh(50))
        assert np.array_equal(out, theta - 0.01 * grad)

    def test_zero_gradient_keeps_theta_and_decays_velocity(self):
        theta = np.array([1.0, -2.0])
        cfg = OptimizerConfig(kind="sgd", eta=0.01, momentum=0.9, weight_decay=0.0)
        fresh = MomentumState.fresh(2)
        out = sgd_step(theta, np.zeros(2), cfg, fresh)
        assert np.array_equal(out, theta)
        rolling = MomentumState(velocity=np.array([4.0, -4.0]))
        sgd_step(theta, np.zeros(2), cfg, rolling)
        assert np.array_equal(rolling.velocity, np.array([3.6, -3.6]))

    def test_hand_worked_update(self):
        # theta=1, g=1, eta=0.01, momentum=0.9, wd=5e-4, fresh velocity
        cfg = OptimizerConfig(kind="sgd", eta=0.01, momentum=0.9, weight_decay=5e-4)
        state = MomentumState.fresh(1)
        out = sgd_step(np.array([1.0]), np.array([1.0]), cfg, state)
        assert state.velocity[0] == pytest.approx(1.0005, rel=1e-15)
        assert out[0] == pytest.approx(0.989995, rel=1e-12)

    def test_eta_lambda_counterbalance(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(0, 1, 20)
        grad = rng.normal(0, 1, 20)
        base = OptimizerConfig(kind="sgd", eta=0.01, lam=1.0, momentum=0.0, weight_decay=0.0)
        reference = sgd_step(theta, grad, base, MomentumState.fresh(20))
        for c in (2.0, 4.0, 0.5):
            cfg = OptimizerConfig(
                kind="sgd", eta=0.01 * c, lam=1.0 / c, momentum=0.0, weight_decay=0.0
            )
            out = sgd_step(theta, grad, cfg, MomentumState.fresh(20))
            assert np.array_equal(out, reference)
        cfg3 = OptimizerConfig(kind="sgd", eta=0.03, lam=1.0 / 3.0, momentum=0.0, weight_decay=0.0)
        out3 = sgd_step(theta, grad, cfg3, MomentumState.fresh(20))
        assert np.allclose(out3, reference, rtol=1e-14, atol=0)

    def test_non_finite_gradient_aborts(self):
        cfg = default_optimizer_config("sgd")
        with pytest.raises(TrainingAbortError):
            sgd_step(np.zeros(2), np.array([1.0, np.nan]), cfg, MomentumState.fresh(2))

    def test_shape_mismatch_rejected(self):
        cfg = default_optimizer_config("sgd")
        with pytest.raises(ShapeMismatchError):
            sgd_step(np.zeros(2), np.zeros(3), cfg, MomentumState.fresh(2))


class TestAdam:
    def test_zero_gradient_at_first_step_is_identity(self):
        theta = np.array([3.0, -1.0])
        cfg = default_optimizer_config("adam")
        out = adam_step(theta, np.zeros(2), cfg, AdamState.fresh(2))
        assert np.array_equal(out, theta)

    def test_first_step_with_unit_gradient(self):
        # bias corrections cancel at t=1: step = eta / (1 + adam_eps)
        cfg = default_optimizer_config("adam")
        out = adam_step(np.zeros(1), np.ones(1), cfg, AdamState.fresh(1))
        assert out[0] == pytest.approx(-5e-4 / (1 + 1e-8), rel=1e-12)

    def test_constant_gradient_step_approaches_eta_sign(self):
        cfg = default_optimizer_config("adam")
        for g in (0.003, -7.0):
            state = AdamState.fresh(1)
            theta = np.zeros(1)
            grad = np.array([g])
            for _ in range(3000):
                new = adam_step(theta, grad, cfg, state)
                step = new[0] - theta[0]
                theta = new
            assert step == pytest.approx(-cfg.eta * np.sign(g), rel=1e-3)

    def test_asymptotic_rescaling_invariance(self):
        # steps for g and c*g converge to the same magnitude
        cfg = default_optimizer_config("adam")
        finals = []
        for scale in (1.0, 250.0):
            state = AdamState.fresh(1)
            theta = np.zeros(1)
            grad = np.array([0.01 * scale])
            for _ in range(3000):
                new = adam_step(theta, grad, cfg, state)
                step = new[0] - theta[0]
                theta = new
            finals.append(step)
        assert finals[0] == pytest.approx(finals[1], rel=1e-6)

    def test_state_counts_its_steps(self):
        cfg = default_optimizer_config("adam")
        state = AdamState.fresh(1)
        assert state.t == 0
        for t in range(1, 4):
            adam_step(np.zeros(1), np.ones(1), cfg, state)
            assert state.t == t

    def test_counted_steps_bias_correct_as_explicit_ones(self):
        cfg = default_optimizer_config("adam")
        state = AdamState.fresh(1)
        theta = np.zeros(1)
        m = v = 0.0
        for t in range(1, 6):
            g = 0.5 * t
            theta_ref = theta[0]
            theta = adam_step(theta, np.array([g]), cfg, state)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
            m_hat, v_hat = m / (1.0 - cfg.beta1**t), v / (1.0 - cfg.beta2**t)
            assert theta[0] == theta_ref - cfg.eta * cfg.lam * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)

    def test_non_finite_gradient_aborts(self):
        # the abort leaves the step count and moments as they were
        cfg = default_optimizer_config("adam")
        state = AdamState.fresh(2)
        adam_step(np.zeros(2), np.ones(2), cfg, state)
        m, v = state.m.copy(), state.v.copy()
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(TrainingAbortError):
                adam_step(np.zeros(2), np.array([1.0, bad]), cfg, state)
            assert state.t == 1
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


class TestScheduler:
    def start(self, eta=1e-2):
        return SchedulerState(current_eta=eta)

    def test_nineteen_flat_epochs_then_improvement(self):
        state = scheduler_step(self.start(), 0.5)
        for _ in range(19):
            state = scheduler_step(state, 0.5)  # not a strict improvement
        assert state.current_eta == 1e-2
        state = scheduler_step(state, 0.6)
        assert state.current_eta == 1e-2
        assert state.epochs_since_improvement == 0
        assert state.best_metric == 0.6

    def test_twenty_flat_epochs_halves_once(self):
        state = scheduler_step(self.start(), 0.5)
        for i in range(20):
            assert state.current_eta == 1e-2, f"halved early at flat epoch {i}"
            state = scheduler_step(state, 0.5)
        assert state.current_eta == 5e-3
        assert state.epochs_since_improvement == 0
        assert state.best_metric == 0.5

    def test_forever_flat_keeps_halving(self):
        state = scheduler_step(self.start(), 0.5)
        for _ in range(40):
            state = scheduler_step(state, 0.5)
        assert state.current_eta == pytest.approx(1e-2 / 4)

    def test_strictly_increasing_metric_never_halves(self):
        state = self.start()
        for i in range(100):
            state = scheduler_step(state, i / 100)
        assert state.current_eta == 1e-2
        assert state.best_metric == 0.99

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValidationError):
            scheduler_step(self.start(), float("nan"))
