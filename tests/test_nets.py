"""Tests for the dense-network engine."""

import math

import numpy as np
import pytest

from fiberae.channel import make_rng
from fiberae.gradcheck import grad_check
from fiberae.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    DenseLayer,
    DenseNetwork,
    adam_init,
    adam_step,
    backward,
    cross_entropy,
    forward,
    network,
)


def quadratic_loss(target):
    """0.5 |out - target|^2 of a one-row batch, and its gradient."""
    def loss(out):
        d = out - target
        return 0.5 * float(d[0] @ d[0]), d

    return loss


class TestForward:
    def test_identity_linear_layer(self):
        net = DenseNetwork([DenseLayer(np.eye(4), np.zeros(4), "linear")])
        v = np.array([[1.0, -2.0, 3.0, 0.5]])
        out, _ = forward(net, v)
        assert np.array_equal(out, v)

    def test_zero_tanh_layer(self):
        net = DenseNetwork([DenseLayer(np.zeros((3, 5)), np.zeros(5), "tanh")])
        out, _ = forward(net, np.array([[9.0, -4.0, 2.0]]))
        assert np.array_equal(out, np.zeros((1, 5)))

    def test_zero_sigmoid_layer(self):
        net = DenseNetwork([DenseLayer(np.zeros((3, 5)), np.zeros(5), "sigmoid")])
        out, _ = forward(net, np.array([[9.0, -4.0, 2.0]]))
        assert np.array_equal(out, np.full((1, 5), 0.5))

    def test_sigmoid_does_not_overflow(self):
        # exp underflowing to 0 is how the extremes come out exactly 0 and 1
        net = DenseNetwork([DenseLayer(np.eye(1), np.zeros(1), "sigmoid")])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out, _ = forward(net, np.array([[-800.0], [-0.0], [0.0], [800.0]]))
        assert out.ravel().tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_batch_matches_vector(self):
        net = network([4, 8, 3], ["tanh", "sigmoid"], make_rng(0))
        xs = make_rng(1).standard_normal((6, 4))
        batch_out, _ = forward(net, xs)
        for i in range(6):
            row_out, _ = forward(net, xs[i:i + 1])
            # BLAS may sum batched and single-row matmuls in different orders
            assert np.allclose(batch_out[i:i + 1], row_out, rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch(self):
        net = network([4, 3], ["linear"], make_rng(0))
        with pytest.raises(ValueError):
            forward(net, np.zeros((1, 5)))

    def test_returns_every_activation(self):
        # [input, layer 1 output, ..., output]: what backward reads
        net = network([4, 8, 3], ["tanh", "sigmoid"], make_rng(0))
        xs = make_rng(1).standard_normal((6, 4))
        out, activations = forward(net, xs)
        assert [a.shape for a in activations] == [(6, 4), (6, 8), (6, 3)]
        assert np.array_equal(activations[0], xs)
        assert activations[-1] is out

    def test_single_vector_rejected(self):
        # one sample is a batch of one row, (1, n_in)
        net = network([4, 3], ["linear"], make_rng(0))
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))

    def test_bad_chain_rejected(self):
        layers = [
            DenseLayer(np.zeros((4, 3)), np.zeros(3), "tanh"),
            DenseLayer(np.zeros((5, 2)), np.zeros(2), "linear"),
        ]
        with pytest.raises(ValueError):
            DenseNetwork(layers)


class TestBackward:
    def test_linear_grad_input_is_weights_times_grad(self):
        rng = make_rng(2)
        w = rng.standard_normal((4, 3))
        net = DenseNetwork([DenseLayer(w, np.zeros(3), "linear")])
        x = rng.standard_normal((1, 4))
        _, activations = forward(net, x)
        g = rng.standard_normal((1, 3))
        _, grad_in = backward(net, activations, g)
        assert np.allclose(grad_in, g @ w.T, rtol=0, atol=0)

    def test_zero_grad_output(self):
        net = network([4, 8, 4], ["tanh", "sigmoid"], make_rng(3))
        _, activations = forward(net, np.ones((1, 4)))
        grads, grad_in = backward(net, activations, np.zeros((1, 4)))
        assert all(np.all(g == 0) for g in grads)
        assert grad_in.shape == (1, 4) and np.all(grad_in == 0)

    def test_three_layer_matches_finite_differences(self):
        rng = make_rng(4)
        net = network([4, 8, 4], ["tanh", "tanh"], rng)
        x = rng.standard_normal((1, 4))
        target = rng.standard_normal(4)
        assert grad_check(net, quadratic_loss(target), x) < 1e-6

    def test_stale_cache_rejected(self):
        net_a = network([4, 3], ["tanh"], make_rng(0))
        net_b = network([4, 5, 3], ["tanh", "tanh"], make_rng(0))
        _, activations = forward(net_a, np.ones((1, 4)))
        with pytest.raises(ValueError):
            backward(net_b, activations, np.zeros((1, 3)))


class TestCrossEntropy:
    def test_uniform_sixteen(self):
        losses = cross_entropy(np.full((1, 16), 1 / 16), np.array([5]))
        assert losses.shape == (1,)
        assert losses[0] == pytest.approx(2.772588722239781, rel=1e-12)

    def test_perfect_prediction(self):
        post = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(post, np.array([1]))[0] == 0.0

    def test_half(self):
        losses = cross_entropy(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0, 1]))
        assert losses == pytest.approx([0.6931471805599453] * 2, rel=1e-12)

    def test_zero_posterior_gives_inf(self):
        losses = cross_entropy(np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0, 1]))
        assert losses.tolist() == [math.inf, 0.0]

    def test_nonnegative_random(self):
        rng = make_rng(5)
        p = rng.uniform(0.01, 1.0, size=(50, 8))
        p /= p.sum(axis=1, keepdims=True)
        messages = rng.integers(8, size=50)
        losses = cross_entropy(p, messages)
        assert np.all(losses >= 0.0)
        assert np.array_equal(losses, -np.log(p[np.arange(50), messages]))


class TestAdam:
    def _params(self, rng):
        return [rng.standard_normal((3, 2)), rng.standard_normal(2)]

    def test_zero_gradient_no_change(self):
        params = self._params(make_rng(6))
        before = [p.copy() for p in params]
        state = adam_init(params, learning_rate=0.01)
        adam_step(state, params, [np.zeros_like(p) for p in params])
        for p, q in zip(before, params):
            assert np.array_equal(p, q)

    def test_first_step_magnitude(self):
        # first bias-corrected step is lr * g/(|g| + eps') ~= lr for |g| >> eps
        params = [np.zeros(4)]
        state = adam_init(params, learning_rate=1e-3)
        g = np.array([5.0, -2.0, 0.1, 100.0])
        adam_step(state, params, [g])
        assert np.allclose(np.abs(params[0]), 1e-3, rtol=1e-5)
        assert np.all(np.sign(params[0]) == -np.sign(g))

    def test_three_steps_match_closed_form(self):
        # the in-place update against Kingma & Ba's bias-corrected formulas,
        # written out with fresh arrays at every step
        rng = make_rng(12)
        params = self._params(rng)
        lr = 0.01
        p_ref = [p.copy() for p in params]
        m_ref = [np.zeros_like(p) for p in params]
        v_ref = [np.zeros_like(p) for p in params]
        state = adam_init(params, learning_rate=lr)
        live = [id(p) for p in params]
        for t in range(1, 4):
            grads = [rng.standard_normal(p.shape) for p in params]
            adam_step(state, params, grads)
            for i, g in enumerate(grads):
                m_ref[i] = ADAM_BETA1 * m_ref[i] + (1.0 - ADAM_BETA1) * g
                v_ref[i] = ADAM_BETA2 * v_ref[i] + (1.0 - ADAM_BETA2) * g * g
                m_hat = m_ref[i] / (1.0 - ADAM_BETA1**t)
                v_hat = v_ref[i] / (1.0 - ADAM_BETA2**t)
                p_ref[i] = p_ref[i] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            assert state.step_count == t
            for got, want in zip(params + state.first_moment + state.second_moment,
                                 p_ref + m_ref + v_ref):
                assert np.array_equal(got, want)
        assert [id(p) for p in params] == live

    def test_lr_zero_is_identity(self):
        rng = make_rng(8)
        params = self._params(rng)
        before = [p.copy() for p in params]
        grads = [rng.standard_normal(p.shape) for p in params]
        state = adam_init(params, learning_rate=0.0)
        adam_step(state, params, grads)
        for p, q in zip(before, params):
            assert np.array_equal(p, q)


class TestGradCheck:
    def test_linear_quadratic_is_near_exact(self):
        rng = make_rng(9)
        net = network([5, 3], ["linear"], rng)
        x = rng.standard_normal((1, 5))
        assert grad_check(net, quadratic_loss(rng.standard_normal(3)), x) <= 1e-9

    def test_random_tanh_net(self):
        rng = make_rng(10)
        net = network([4, 6, 6, 2], ["tanh", "tanh", "tanh"], rng)
        x = rng.standard_normal((1, 4))
        assert grad_check(net, quadratic_loss(rng.standard_normal(2)), x) <= 1e-6

    def test_single_neuron(self):
        rng = make_rng(11)
        net = network([1, 1], ["sigmoid"], rng)
        assert grad_check(net, quadratic_loss(np.array([0.3])), np.array([[0.7]])) <= 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_architectures(self, seed):
        # invariant: grad_check <= 1e-5 on random nets, widths <= 32, depth <= 8
        rng = make_rng(100 + seed)
        depth = int(rng.integers(1, 9))
        widths = [int(rng.integers(1, 33)) for _ in range(depth + 1)]
        acts = [str(rng.choice(["tanh", "sigmoid", "linear"])) for _ in range(depth)]
        net = network(widths, acts, rng)
        x = rng.standard_normal((1, widths[0]))
        target = rng.standard_normal(widths[-1])
        assert grad_check(net, quadratic_loss(target), x) <= 1e-5
