"""Unit tests for Sequential networks, the MLP builder, optimizers and schedules."""

import numpy as np
import pytest
from reference_training import ReferenceAdam, ReferenceSGD, reference_clip_grad_norm

from repro.exceptions import ConfigurationError, SerializationError
from repro.nn import (
    Adam,
    BatchNorm1d,
    ConstantLR,
    CosineAnnealingLR,
    Linear,
    PAPER_BACKBONE_DIMS,
    PAPER_EMBEDDING_DIM,
    ReLU,
    SGD,
    Sequential,
    StepLR,
    Tanh,
    build_mlp,
    clip_grad_norm,
    mse_loss,
)


class TestSequential:
    def test_forward_composes(self, rng):
        net = Sequential([Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng)])
        out = net.forward(rng.normal(size=(5, 3)))
        assert out.shape == (5, 2)

    def test_backward_gradient_check(self, rng):
        net = Sequential([Linear(3, 5, rng=rng), ReLU(), Linear(5, 2, rng=rng)])
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_at(flat_w):
            net.layers[0].weight.data = flat_w.reshape(3, 5)
            out = net.forward(x, training=True)
            return mse_loss(out, target)[0]

        w0 = net.layers[0].weight.data.copy()
        out = net.forward(x, training=True)
        _, grad = mse_loss(out, target)
        net.zero_grad()
        net.backward(grad)
        analytic = net.layers[0].weight.grad.copy()

        numeric = np.zeros(w0.size)
        eps = 1e-6
        flat = w0.flatten()
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += eps
            down[i] -= eps
            numeric[i] = (loss_at(up) - loss_at(down)) / (2 * eps)
        net.layers[0].weight.data = w0
        assert np.allclose(analytic.flatten(), numeric, atol=1e-5)

    def test_parameters_collects_all(self, rng):
        net = Sequential([Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng)])
        assert len(net.parameters()) == 4  # two weights + two biases

    def test_n_parameters(self, rng):
        net = Sequential([Linear(2, 3, rng=rng)])
        assert net.n_parameters() == 2 * 3 + 3

    def test_size_bytes_float32(self, rng):
        net = Sequential([Linear(2, 3, rng=rng)])
        assert net.size_bytes() == net.n_parameters() * 4

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_state_dict_roundtrip(self, rng):
        net = Sequential([Linear(3, 4, rng=rng), BatchNorm1d(4), ReLU(),
                          Linear(4, 2, rng=rng)])
        net.forward(rng.normal(size=(8, 3)), training=True)  # move BN stats
        state = net.state_dict()
        twin = Sequential.from_config(net.to_config())
        twin.load_state_dict(state)
        x = rng.normal(size=(5, 3))
        assert np.allclose(net.forward(x), twin.forward(x))

    def test_load_missing_key_rejected(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        with pytest.raises(SerializationError, match="missing"):
            net.load_state_dict({})

    def test_load_shape_mismatch_rejected(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        state = net.state_dict()
        state["0.weight"] = np.zeros((3, 3))
        with pytest.raises(SerializationError, match="shape"):
            net.load_state_dict(state)

    def test_clone_is_independent(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        twin = net.clone()
        twin.layers[0].weight.data += 1.0
        assert not np.allclose(net.layers[0].weight.data,
                               twin.layers[0].weight.data)

    def test_clone_preserves_outputs(self, rng):
        net = Sequential([Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng)])
        x = rng.normal(size=(4, 3))
        assert np.allclose(net.forward(x), net.clone().forward(x))


class TestBuildMlp:
    def test_paper_dimensions(self):
        # "[1024 x 512 x 128 x 64 x 128]" on an 80-dim input.
        net = build_mlp(input_dim=80, rng=0)
        dims = [(l.in_features, l.out_features)
                for l in net.layers if isinstance(l, Linear)]
        assert dims == [(80, 1024), (1024, 512), (512, 128), (128, 64),
                        (64, 128)]
        assert PAPER_BACKBONE_DIMS == (1024, 512, 128, 64)
        assert PAPER_EMBEDDING_DIM == 128

    def test_paper_model_fits_edge_budget(self):
        # The full backbone at float32 must sit well under the paper's 5 MB
        # total-footprint claim.
        net = build_mlp(input_dim=80, rng=0)
        assert net.size_bytes() < 4 * 1024 * 1024

    def test_custom_dims(self):
        net = build_mlp(4, hidden_dims=(8,), output_dim=2, rng=0)
        out = net.forward(np.zeros((1, 4)))
        assert out.shape == (1, 2)

    def test_final_layer_is_linear(self):
        net = build_mlp(4, hidden_dims=(8,), output_dim=2, rng=0)
        assert isinstance(net.layers[-1], Linear)

    def test_dropout_and_batchnorm_flags(self):
        net = build_mlp(4, hidden_dims=(8,), output_dim=2, dropout=0.2,
                        batchnorm=True, rng=0)
        kinds = [type(l).__name__ for l in net.layers]
        assert "Dropout" in kinds
        assert "BatchNorm1d" in kinds

    def test_tanh_activation(self):
        net = build_mlp(4, hidden_dims=(8,), output_dim=2, activation="tanh",
                        rng=0)
        kinds = [type(l).__name__ for l in net.layers]
        assert "Tanh" in kinds

    def test_invalid_activation_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mlp(4, activation="gelu")

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            build_mlp(0)
        with pytest.raises(ConfigurationError):
            build_mlp(4, output_dim=0)


def quadratic_problem(rng, n=40, d=5):
    """A least-squares problem y = X w* solvable by any sane optimizer."""
    X = rng.normal(size=(n, d))
    w_star = rng.normal(size=(d, 1))
    y = X @ w_star
    return X, y


@pytest.mark.parametrize("opt_factory", [
    lambda p: SGD(p, lr=0.05),
    lambda p: SGD(p, lr=0.05, momentum=0.9),
    lambda p: Adam(p, lr=0.05),
])
def test_optimizers_solve_least_squares(opt_factory, rng):
    X, y = quadratic_problem(rng)
    net = Sequential([Linear(5, 1, rng=rng)])
    optimizer = opt_factory(net.parameters())
    for _ in range(300):
        out = net.forward(X, training=True)
        loss, grad = mse_loss(out, y)
        net.zero_grad()
        net.backward(grad)
        optimizer.step()
    final = mse_loss(net.forward(X), y)[0]
    assert final < 1e-3


class TestOptimizerValidation:
    def test_bad_lr_rejected(self, rng):
        params = Sequential([Linear(2, 2, rng=rng)]).parameters()
        with pytest.raises(ConfigurationError):
            SGD(params, lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)

    def test_bad_momentum_rejected(self, rng):
        params = Sequential([Linear(2, 2, rng=rng)]).parameters()
        with pytest.raises(ConfigurationError):
            SGD(params, lr=0.1, momentum=1.0)

    def test_bad_betas_rejected(self, rng):
        params = Sequential([Linear(2, 2, rng=rng)]).parameters()
        with pytest.raises(ConfigurationError):
            Adam(params, betas=(1.0, 0.999))

    def test_weight_decay_shrinks_weights(self, rng):
        net = Sequential([Linear(3, 3, rng=rng)])
        optimizer = SGD(net.parameters(), lr=0.1, weight_decay=0.5)
        before = float(np.abs(net.layers[0].weight.data).sum())
        for _ in range(20):
            net.zero_grad()  # gradient stays zero; only decay acts
            optimizer.step()
        after = float(np.abs(net.layers[0].weight.data).sum())
        assert after < before

    def test_set_lr(self, rng):
        opt = SGD(Sequential([Linear(2, 2, rng=rng)]).parameters(), lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ConfigurationError):
            opt.set_lr(-1.0)


class TestClipGradNorm:
    def test_large_gradients_scaled(self, rng):
        net = Sequential([Linear(3, 3, rng=rng)])
        for p in net.parameters():
            p.grad[...] = 100.0
        pre = clip_grad_norm(net.parameters(), max_norm=1.0)
        assert pre > 1.0
        total = sum(float((p.grad ** 2).sum()) for p in net.parameters())
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-6)

    def test_small_gradients_untouched(self, rng):
        net = Sequential([Linear(2, 2, rng=rng)])
        for p in net.parameters():
            p.grad[...] = 1e-4
        before = [p.grad.copy() for p in net.parameters()]
        clip_grad_norm(net.parameters(), max_norm=10.0)
        for b, p in zip(before, net.parameters()):
            assert np.allclose(b, p.grad)

    def test_bad_max_norm_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            clip_grad_norm(Sequential([Linear(2, 2, rng=rng)]).parameters(), 0.0)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.1).at_epoch(100) == 0.1

    def test_step_decay(self):
        sched = StepLR(1.0, step_size=10, gamma=0.5)
        assert sched.at_epoch(0) == 1.0
        assert sched.at_epoch(10) == 0.5
        assert sched.at_epoch(25) == 0.25

    def test_cosine_endpoints(self):
        sched = CosineAnnealingLR(1.0, total_epochs=100, min_lr=0.1)
        assert sched.at_epoch(0) == pytest.approx(1.0)
        assert sched.at_epoch(100) == pytest.approx(0.1)
        assert 0.1 < sched.at_epoch(50) < 1.0

    def test_cosine_monotone_decrease(self):
        sched = CosineAnnealingLR(1.0, total_epochs=50)
        values = [sched.at_epoch(e) for e in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StepLR(1.0, step_size=0)
        with pytest.raises(ConfigurationError):
            CosineAnnealingLR(1.0, total_epochs=10, min_lr=2.0)


# --------------------------------------------------------------------- #
# the in-place step and the trimmed backward pass move no bit
# --------------------------------------------------------------------- #


def twin_networks():
    net = build_mlp(7, hidden_dims=(12, 9), output_dim=5, rng=3)
    return net, net.clone()


def fill_grads(net, twin, rng, scale=1.0):
    for p, q in zip(net.parameters(), twin.parameters()):
        p.grad[...] = scale * rng.normal(size=p.grad.shape)
        q.grad[...] = p.grad


class TestBackwardWithoutInputGrad:
    @pytest.mark.parametrize("first_layers", [
        lambda rng: [Linear(7, 6, rng=rng)],
        lambda rng: [BatchNorm1d(7), Linear(7, 6, rng=rng)],
        lambda rng: [Tanh(), Linear(7, 6, rng=rng)],
    ])
    def test_parameter_grads_identical_and_nothing_returned(self, first_layers, rng):
        net = Sequential(first_layers(rng) + [ReLU(), Linear(6, 3, rng=rng)])
        twin = net.clone()
        x = rng.normal(size=(5, 7))
        grad_out = rng.normal(size=(5, 3))

        net.forward(x, training=True)
        net.zero_grad()
        full = net.backward(grad_out)
        twin.forward(x, training=True)
        twin.zero_grad()
        trimmed = twin.backward(grad_out, need_input_grad=False)

        assert full.shape == x.shape
        assert trimmed is None
        for p, q in zip(net.parameters(), twin.parameters()):
            assert np.array_equal(p.grad, q.grad)

    def test_default_still_returns_input_gradient(self, rng):
        layer = Linear(4, 3, rng=rng)
        layer.forward(rng.normal(size=(2, 4)), training=True)
        grad_out = rng.normal(size=(2, 3))
        assert np.array_equal(
            layer.backward(grad_out), grad_out @ layer.weight.data.T
        )


class TestInPlaceStepsAreExact:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("fast_cls, reference_cls, kwargs", [
        (SGD, ReferenceSGD, {}),
        (SGD, ReferenceSGD, {"momentum": 0.9}),
        (Adam, ReferenceAdam, {}),
    ])
    def test_steps_match_textbook_optimizer(
        self, fast_cls, reference_cls, kwargs, weight_decay, rng
    ):
        net, twin = twin_networks()
        fast = fast_cls(net.parameters(), lr=0.05, weight_decay=weight_decay, **kwargs)
        reference = reference_cls(
            twin.parameters(), 0.05, weight_decay=weight_decay, **kwargs
        )
        for _ in range(25):
            fill_grads(net, twin, rng)
            before = [p.grad.copy() for p in net.parameters()]
            fast.step()
            reference.step()
            for p, q, g in zip(net.parameters(), twin.parameters(), before):
                assert np.array_equal(p.data, q.data)
                assert np.array_equal(p.grad, g)  # a step never edits gradients

    @pytest.mark.parametrize("scale", [1e-3, 50.0])
    def test_clip_matches_textbook_clip(self, scale, rng):
        net, twin = twin_networks()
        fill_grads(net, twin, rng, scale=scale)
        want = reference_clip_grad_norm(twin.parameters(), 1.0)
        assert clip_grad_norm(net.parameters(), 1.0) == want
        for p, q in zip(net.parameters(), twin.parameters()):
            assert np.array_equal(p.grad, q.grad)

    def test_optimizer_clip_is_the_same_clip(self, rng):
        net, twin = twin_networks()
        fill_grads(net, twin, rng, scale=50.0)
        optimizer = Adam(net.parameters())
        assert optimizer.clip_grad_norm(1.0) == clip_grad_norm(twin.parameters(), 1.0)
        for p, q in zip(net.parameters(), twin.parameters()):
            assert np.array_equal(p.grad, q.grad)
        with pytest.raises(ConfigurationError):
            optimizer.clip_grad_norm(0.0)

    def test_scratch_is_one_pair_sized_to_the_largest_parameter(self, rng):
        net, _ = twin_networks()
        largest = max(p.data.size for p in net.parameters())
        for optimizer in (Adam(net.parameters()), SGD(net.parameters(), momentum=0.9)):
            assert optimizer._scratch.shape == (2, largest)
