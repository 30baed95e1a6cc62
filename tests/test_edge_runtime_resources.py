"""Unit tests for the device resource model."""

import numpy as np
import pytest

from repro.edge_runtime import (
    DEVICE_PRESETS,
    FLAGSHIP_PHONE,
    MIDRANGE_PHONE,
    RASPBERRY_PI,
    DeviceSpec,
    ResourceModel,
    forward_flops,
    training_flops,
)
from repro.exceptions import ConfigurationError
from repro.nn import BatchNorm1d, Linear, ReLU, Sequential, TrainConfig, build_mlp


class TestDeviceSpecs:
    def test_presets_registered(self):
        assert set(DEVICE_PRESETS) == {
            "midrange_phone", "flagship_phone", "raspberry_pi"
        }

    def test_flagship_faster_than_midrange_than_pi(self):
        assert FLAGSHIP_PHONE.gflops > MIDRANGE_PHONE.gflops > RASPBERRY_PI.gflops

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec("x", gflops=0.0, ram_mb=1, storage_mb=1,
                       joules_per_gflop=1)
        with pytest.raises(ConfigurationError):
            DeviceSpec("x", gflops=1.0, ram_mb=0, storage_mb=1,
                       joules_per_gflop=1)


class TestFlopCounting:
    def test_linear_layer_flops(self):
        net = Sequential([Linear(10, 20, rng=0)])
        assert forward_flops(net) == 2 * 10 * 20

    def test_activations_free(self):
        with_act = Sequential([Linear(10, 20, rng=0), ReLU()])
        without = Sequential([Linear(10, 20, rng=0)])
        assert forward_flops(with_act) == forward_flops(without)

    def test_batchnorm_counted(self):
        net = Sequential([Linear(10, 20, rng=0), BatchNorm1d(20)])
        assert forward_flops(net) == 2 * 10 * 20 + 4 * 20

    def test_batch_scaling(self):
        net = Sequential([Linear(10, 20, rng=0)])
        assert forward_flops(net, batch_size=8) == 8 * forward_flops(net)

    def test_paper_backbone_flop_count(self):
        net = build_mlp(80, rng=0)  # paper dims
        expected = 2 * (80 * 1024 + 1024 * 512 + 512 * 128 + 128 * 64 + 64 * 128)
        assert forward_flops(net) == expected

    def test_training_flops_structure(self):
        net = Sequential([Linear(10, 20, rng=0)])
        assert training_flops(net, batch_size=4, n_batches=5, epochs=2) == (
            3 * forward_flops(net, 4) * 5 * 2
        )

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            forward_flops(Sequential([Linear(2, 2, rng=0)]), batch_size=0)


class TestResourceModel:
    def test_latency_inverse_to_throughput(self):
        fast = ResourceModel(FLAGSHIP_PHONE)
        slow = ResourceModel(RASPBERRY_PI)
        assert fast.latency_ms(10**9) < slow.latency_ms(10**9)

    def test_latency_linear_in_flops(self):
        model = ResourceModel(MIDRANGE_PHONE)
        assert model.latency_ms(2 * 10**8) == pytest.approx(
            2 * model.latency_ms(10**8)
        )

    def test_paper_inference_is_milliseconds_on_midrange(self):
        # The full-size backbone must land in single-digit ms on a phone —
        # the paper's "imperceptible prediction latency ... few ms".
        net = build_mlp(80, rng=0)
        cost = ResourceModel(MIDRANGE_PHONE).inference_cost(net)
        assert cost["latency_ms"] < 10.0

    def test_energy_positive_and_linear(self):
        model = ResourceModel(MIDRANGE_PHONE)
        assert model.energy_joules(10**9) == pytest.approx(
            MIDRANGE_PHONE.joules_per_gflop
        )

    def test_retraining_cost_structure(self):
        net = build_mlp(10, hidden_dims=(8,), output_dim=4, rng=0)
        cost = ResourceModel().retraining_cost(
            net, n_samples=100, train=TrainConfig(batch_pairs=32, epochs=10)
        )
        assert cost["latency_s"] > 0
        assert cost["energy_joules"] > 0
        assert cost["flops"] > forward_flops(net)

    def test_retraining_cost_grows_with_epochs(self):
        net = build_mlp(10, hidden_dims=(8,), output_dim=4, rng=0)
        model = ResourceModel()
        c5 = model.retraining_cost(net, 100, TrainConfig(batch_pairs=32, epochs=5))
        c10 = model.retraining_cost(net, 100, TrainConfig(batch_pairs=32, epochs=10))
        assert c10["flops"] == pytest.approx(2 * c5["flops"])

    def test_retraining_cost_follows_pairs_per_epoch(self):
        # The trainer runs ceil(16 / 48) = 1 batch per epoch here, not the
        # ceil(4 * 100 / 48) = 9 of the default pair budget.
        net = build_mlp(10, hidden_dims=(8,), output_dim=4, rng=0)
        train = TrainConfig(batch_pairs=48, pairs_per_epoch=16, epochs=3)
        assert train.batches_per_epoch(100) == 1
        cost = ResourceModel().retraining_cost(net, 100, train)
        assert cost["flops"] == training_flops(net, 96, n_batches=1, epochs=3)

    def test_fits_in_ram(self):
        model = ResourceModel(MIDRANGE_PHONE)
        assert model.fits_in_ram(1024)
        assert not model.fits_in_ram(int(MIDRANGE_PHONE.ram_mb * 1024**2))

    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceModel().latency_ms(-1)
