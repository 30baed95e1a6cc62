"""Edge device resource model.

The paper's Section 1 names the three Edge constraints — model size, data
size, energy — and Section 5 stresses that Edge devices are "extremely
limited in terms of computational resources".  This module makes those
constraints quantitative: a :class:`DeviceSpec` describes a device class
(compute throughput, RAM, storage, energy cost per unit compute),
:class:`ResourceModel` converts operation counts of the numpy networks into
estimated on-device latency and energy, and a :class:`ResourceAccountant`
attached to an :class:`~repro.core.edge.EdgeDevice` charges every verdict
and re-training to those budgets and admits an update only when its
projected footprint fits the device's storage budget.

Estimates are intentionally simple (ops / throughput), because the
experiments compare *architectures* (Edge vs Cloud, small vs large model),
not silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..exceptions import ConfigurationError, ResourceExceededError
from ..nn.layers import BatchNorm1d, Linear
from ..nn.network import Sequential
from ..nn.siamese import TrainConfig


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a device class."""

    name: str
    #: Sustained compute throughput for small dense kernels (GFLOP/s).
    gflops: float
    ram_mb: float
    storage_mb: float
    #: Energy cost of compute (joules per GFLOP).
    joules_per_gflop: float

    def __post_init__(self) -> None:
        if self.gflops <= 0:
            raise ConfigurationError(f"gflops must be > 0, got {self.gflops}")
        if self.ram_mb <= 0 or self.storage_mb <= 0:
            raise ConfigurationError("ram_mb and storage_mb must be > 0")
        if self.joules_per_gflop <= 0:
            raise ConfigurationError(
                f"joules_per_gflop must be > 0, got {self.joules_per_gflop}"
            )


#: A mid-range Android phone (the demo's device class).
MIDRANGE_PHONE = DeviceSpec(
    name="midrange_phone",
    gflops=8.0,
    ram_mb=4096.0,
    storage_mb=65536.0,
    joules_per_gflop=0.35,
)

#: A flagship phone.
FLAGSHIP_PHONE = DeviceSpec(
    name="flagship_phone",
    gflops=25.0,
    ram_mb=12288.0,
    storage_mb=262144.0,
    joules_per_gflop=0.22,
)

#: A constrained single-board computer.
RASPBERRY_PI = DeviceSpec(
    name="raspberry_pi",
    gflops=3.0,
    ram_mb=1024.0,
    storage_mb=16384.0,
    joules_per_gflop=0.55,
)

DEVICE_PRESETS: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (MIDRANGE_PHONE, FLAGSHIP_PHONE, RASPBERRY_PI)
}


def forward_flops(network: Sequential, batch_size: int = 1) -> int:
    """FLOPs of one forward pass (dense layers dominate; 2·in·out each)."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    total = 0
    for layer in network.layers:
        if isinstance(layer, Linear):
            total += 2 * layer.in_features * layer.out_features
        elif isinstance(layer, BatchNorm1d):
            total += 4 * layer.num_features
    return total * batch_size


def training_flops(
    network: Sequential, batch_size: int, n_batches: int, epochs: int
) -> int:
    """FLOPs of a training run: forward + ~2x for backward per batch."""
    per_batch = 3 * forward_flops(network, batch_size)
    return per_batch * n_batches * epochs


class ResourceModel:
    """Converts operation counts into device-level latency and energy."""

    def __init__(self, spec: DeviceSpec = MIDRANGE_PHONE) -> None:
        self.spec = spec

    def latency_ms(self, flops: int) -> float:
        """Estimated execution time of ``flops`` on this device."""
        if flops < 0:
            raise ConfigurationError(f"flops must be >= 0, got {flops}")
        return flops / (self.spec.gflops * 1e9) * 1e3

    def energy_joules(self, flops: int) -> float:
        """Estimated compute energy of ``flops`` on this device."""
        if flops < 0:
            raise ConfigurationError(f"flops must be >= 0, got {flops}")
        return flops / 1e9 * self.spec.joules_per_gflop

    def inference_cost(self, network: Sequential) -> Dict[str, float]:
        """Latency/energy of a single-window inference."""
        flops = forward_flops(network, batch_size=1)
        return {
            "flops": float(flops),
            "latency_ms": self.latency_ms(flops),
            "energy_joules": self.energy_joules(flops),
        }

    def retraining_cost(
        self, network: Sequential, n_samples: int, train: TrainConfig
    ) -> Dict[str, float]:
        """Latency/energy of an Edge re-training session under ``train``.

        A contrastive batch forwards ``2 x batch_pairs`` rows; batches per
        epoch follow :meth:`~repro.nn.siamese.TrainConfig.batches_per_epoch`,
        the rule the trainer runs.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        flops = training_flops(
            network,
            2 * train.batch_pairs,
            train.batches_per_epoch(n_samples),
            train.epochs,
        )
        return {
            "flops": float(flops),
            "latency_s": self.latency_ms(flops) / 1e3,
            "energy_joules": self.energy_joules(flops),
        }

    def fits_in_ram(self, n_bytes: int, fraction: float = 0.25) -> bool:
        """Whether a working set fits within ``fraction`` of device RAM."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        return n_bytes <= self.spec.ram_mb * 1024 * 1024 * fraction


@dataclass
class RuntimeStats:
    """Cumulative resource usage since the accountant started."""

    inferences: int = 0
    retrainings: int = 0
    compute_energy_joules: float = 0.0
    modeled_compute_ms: float = 0.0
    wall_clock_ms: float = 0.0


class ResourceAccountant:
    """The modelled budget an ``EdgeDevice(accountant=...)`` consults: every
    verdict and re-training is charged to :attr:`stats`, and :meth:`admit`
    refuses an update whose projected footprint overflows the storage budget.

    ``storage_budget_fraction`` is the share of device storage the app may
    occupy (1% of a 64 GB phone ≈ 655 MB — generous against the paper's
    <5 MB).
    """

    def __init__(
        self, spec: DeviceSpec = MIDRANGE_PHONE, storage_budget_fraction: float = 0.01
    ) -> None:
        if not 0.0 < storage_budget_fraction <= 1.0:
            raise ResourceExceededError(
                f"storage_budget_fraction must be in (0, 1], "
                f"got {storage_budget_fraction}"
            )
        self.model = ResourceModel(spec)
        self.storage_budget_bytes = int(
            spec.storage_mb * 1024 * 1024 * storage_budget_fraction
        )
        self.stats = RuntimeStats()

    def admit(self, footprint_bytes: int) -> int:
        """Return ``footprint_bytes``; raise if it exceeds the storage budget."""
        if footprint_bytes > self.storage_budget_bytes:
            raise ResourceExceededError(
                f"on-device footprint {footprint_bytes} B exceeds storage budget "
                f"{self.storage_budget_bytes} B"
            )
        return footprint_bytes

    def charge_inference(
        self, network: Sequential, n_windows: int, wall_clock_ms: float
    ) -> None:
        """Charge ``n_windows`` forward passes that took ``wall_clock_ms``."""
        if n_windows > 0:
            flops = forward_flops(network, batch_size=n_windows)
            self.stats.inferences += n_windows
            self.stats.compute_energy_joules += self.model.energy_joules(flops)
            self.stats.modeled_compute_ms += self.model.latency_ms(flops)
            self.stats.wall_clock_ms += wall_clock_ms

    def charge_retraining(
        self, network: Sequential, n_samples: int, train: TrainConfig
    ) -> None:
        """Charge one re-training session over ``n_samples`` support rows."""
        cost = self.model.retraining_cost(network, n_samples, train)
        self.stats.retrainings += 1
        self.stats.compute_energy_joules += cost["energy_joules"]
        self.stats.modeled_compute_ms += cost["latency_s"] * 1e3

    def summary(self, footprint_bytes: int) -> Dict[str, float]:
        """Budget/usage snapshot for display and experiments."""
        return {
            "inferences": float(self.stats.inferences),
            "retrainings": float(self.stats.retrainings),
            "compute_energy_joules": self.stats.compute_energy_joules,
            "modeled_compute_ms": self.stats.modeled_compute_ms,
            "wall_clock_ms": self.stats.wall_clock_ms,
            "footprint_bytes": float(footprint_bytes),
            "storage_budget_bytes": float(self.storage_budget_bytes),
        }
