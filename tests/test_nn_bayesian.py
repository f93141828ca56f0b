"""Unit tests: variational layers and the Bayesian MLP (pi_phi core)."""

import numpy as np
import pytest

from repro.nn.bayesian import BayesianMLP, VariationalDense
from repro.nn.optim import Adam


class TestVariationalDense:
    def test_forward_shape(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        out = layer.forward(rng.standard_normal((6, 4)))
        assert out.shape == (6, 3)

    def test_deterministic_when_sampling_off(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        layer.sample_noise = False
        x = rng.standard_normal((2, 4))
        np.testing.assert_array_equal(layer.forward(x),
                                      layer.forward(x))

    def test_stochastic_when_sampling_on(self, rng):
        layer = VariationalDense(4, 3, rng=rng, initial_rho=0.0)
        x = rng.standard_normal((2, 4))
        assert not np.allclose(layer.forward(x), layer.forward(x))

    def test_kl_nonnegative(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        assert layer.kl_divergence() >= 0.0

    def test_kl_zero_at_prior(self, rng):
        layer = VariationalDense(4, 3, rng=rng)
        layer.weight_mu.value[...] = 0.0
        layer.bias_mu.value[...] = 0.0
        # sigma = softplus(rho) = 1 -> matches the unit prior
        rho_one = float(np.log(np.expm1(1.0)))
        layer.weight_rho.value[...] = rho_one
        layer.bias_rho.value[...] = rho_one
        assert layer.kl_divergence(prior_std=1.0) == pytest.approx(
            0.0, abs=1e-9)

    def test_mu_gradient_matches_numerical(self, rng):
        layer = VariationalDense(3, 2, rng=rng)
        layer.sample_noise = False  # freeze the mean path
        x = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        layer.zero_grad()
        layer.backward(2.0 * out)
        eps = 1e-6
        flat = layer.weight_mu.value.ravel()
        gflat = layer.weight_mu.grad.ravel()
        for i in range(0, flat.size, 2):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss()
            flat[i] = orig - eps
            lm = loss()
            flat[i] = orig
            assert abs((lp - lm) / (2 * eps) - gflat[i]) < 1e-5

    def test_kl_grad_direction(self, rng):
        """KL gradient pushes mu toward 0 (the prior mean)."""
        layer = VariationalDense(3, 2, rng=rng)
        layer.weight_mu.value[...] = 2.0
        layer.zero_grad()
        layer.accumulate_kl_grad(1.0)
        assert np.all(layer.weight_mu.grad > 0)  # descent moves mu down


class TestBayesianMLP:
    def test_learns_function_and_uncertainty(self, rng):
        net = BayesianMLP(1, 1, hidden_sizes=(32, 16), rng=rng)
        optim = Adam(net.parameters(), lr=1e-2)
        x = rng.uniform(-2, 2, size=(256, 1))
        y = 0.5 * x
        for _ in range(150):
            optim.zero_grad()
            net.elbo_step(x, y, kl_weight=1e-5)
            optim.step()
        mean, std = net.predict(np.array([[1.0], [15.0]]),
                                num_samples=32, rng=rng)
        assert mean[0, 0] == pytest.approx(0.5, abs=0.15)
        # epistemic uncertainty larger far from the data
        assert std[1, 0] > std[0, 0]

    def test_elbo_step_returns_both_terms(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(8,), rng=rng)
        nll, kl = net.elbo_step(rng.standard_normal((16, 2)),
                                rng.standard_normal((16, 1)))
        assert np.isfinite(nll) and kl >= 0.0

    def test_predict_mean_deterministic(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(8,), rng=rng)
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(net.predict_mean(x),
                                      net.predict_mean(x))

    def test_predict_single_input_shape(self, rng):
        net = BayesianMLP(3, 1, hidden_sizes=(8,), rng=rng)
        mean, std = net.predict(np.zeros(3), num_samples=4, rng=rng)
        assert mean.shape == (1,) and std.shape == (1,)
        assert np.all(std > 0)

    def test_kl_decomposes_over_layers(self, rng):
        net = BayesianMLP(2, 1, hidden_sizes=(4, 3), rng=rng)
        total = net.kl_divergence()
        parts = sum(v.kl_divergence(net.prior_std)
                    for v in net._vlayers)
        assert total == pytest.approx(parts)


def _loop_predict(net, x, num_samples, rng=None):
    """The sequential posterior predictive ``predict`` must match: one
    full ``forward`` per sample, each drawing its layers' noise in
    layer order from the layers' generator."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if rng is not None:
        for vlayer in net._vlayers:
            vlayer._rng = rng
    net._set_sampling(True)
    draws = np.stack([net.forward(np.atleast_2d(x))
                      for _ in range(num_samples)])
    noise_var = float(np.exp(2.0 * net.log_noise.value[0]))
    mean = draws.mean(axis=0)
    std = np.sqrt(draws.var(axis=0) + noise_var)
    return (mean[0], std[0]) if single else (mean, std)


def _twin_nets(activation, hidden_sizes=(64, 32), rho=None, seed=7):
    """Two identical pi_phi-shaped networks, each with its own (equal)
    generator, optionally trained a little so the weights are not the
    initial ones."""
    nets = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        net = BayesianMLP(9, 1, hidden_sizes=hidden_sizes,
                          activation=activation, rng=rng)
        if rho is not None:
            for vlayer in net._vlayers:
                vlayer.weight_rho.value[...] = rho
                vlayer.bias_rho.value[...] = rho - 1.0
        optim = Adam(net.parameters(), lr=1e-2)
        data = np.random.default_rng(seed + 1)
        x = data.standard_normal((32, 9))
        for _ in range(3):
            optim.zero_grad()
            net.elbo_step(x, x[:, :1] ** 2, kl_weight=1e-3)
            optim.step()
        nets.append(net)
    return nets


class TestPredictParity:
    """``predict`` is bit-identical to a loop of ``forward`` calls:
    same mean and std bits, and the generator ends in the same state
    (every later draw -- and every serve digest -- depends on it)."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 17, 50, 64])
    @pytest.mark.parametrize("num_samples", [1, 16])
    @pytest.mark.parametrize("rho", [None, -1.5])
    def test_bit_identical_to_forward_loop(self, activation, rows,
                                           num_samples, rho):
        fused, loop = _twin_nets(activation, rho=rho)
        x = np.random.default_rng(rows).standard_normal((rows, 9))
        gen_a = np.random.default_rng(99)
        gen_b = np.random.default_rng(99)
        for _ in range(2):  # a second call continues the stream
            mean_a, std_a = fused.predict(x, num_samples, rng=gen_a)
            mean_b, std_b = _loop_predict(loop, x, num_samples,
                                          rng=gen_b)
            assert mean_a.shape == (rows, 1) and std_a.shape == (rows, 1)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)
        assert gen_a.bit_generator.state == gen_b.bit_generator.state
        assert all(v._rng is gen_a for v in fused._vlayers)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_single_input(self, activation):
        fused, loop = _twin_nets(activation)
        x = np.linspace(-1.0, 1.0, 9)
        mean_a, std_a = fused.predict(x, rng=np.random.default_rng(3))
        mean_b, std_b = _loop_predict(loop, x, 16,
                                      rng=np.random.default_rng(3))
        assert mean_a.shape == (1,) and std_a.shape == (1,)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rng_none_uses_layer_generator(self, rows):
        fused, loop = _twin_nets("relu")
        x = np.random.default_rng(5).standard_normal((rows, 9))
        for _ in range(2):
            mean_a, std_a = fused.predict(x)
            mean_b, std_b = _loop_predict(loop, x, 16)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)
        assert (fused._vlayers[0]._rng.bit_generator.state
                == loop._vlayers[0]._rng.bit_generator.state)
