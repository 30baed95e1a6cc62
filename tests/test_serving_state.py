"""Serving holds no training state.

A process that only serves reads weights, never gradients: a loaded
package's network and the engine's float32 replica of it allocate no
gradient buffer, are rebuilt from the stored weights without drawing an
init, and a stride-30 stream's IIR carry-over holds only its pending rows.
"""

import numpy as np
import pytest

from repro.core import TransferPackage
from repro.nn import Linear, Parameter, build_mlp, initializers
from repro.preprocessing import ButterworthLowpass
from repro.sensors import SensorDevice
from repro.serving import FleetServer, engine_from_package


@pytest.fixture(scope="module")
def package_path(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("state") / "package.npz"
    scenario.package.save(path)
    return path


@pytest.fixture(scope="module")
def served(scenario, package_path):
    """An engine from a loaded package after one float32 stride-30 fleet
    tick, with the tick's verdicts."""
    engine = engine_from_package(TransferPackage.load(package_path))
    server = FleetServer(engine)
    server.connect("s32", dtype=np.float32)
    data = SensorDevice(user=scenario.edge_user, rng=4901).record("walk", 3.0).data
    tick = server.step_stream({"s32": data}, stride=30)
    assert tick["s32"]
    return engine


def _replica(engine):
    return engine._model_kernel(np.float32).embed.__self__


def test_served_network_and_replica_hold_no_gradient(served):
    network = served.embedder.network
    replica = _replica(served)
    assert replica is not network
    params = network.parameters() + replica.parameters()
    assert params
    assert all(param._grad is None for param in params)


def test_replica_is_the_served_weights_cast_once(served):
    network = served.embedder.network
    replica = _replica(served)
    weights, cast = network.state_arrays(), replica.state_arrays()
    assert list(cast) == list(weights)
    for key, w in weights.items():
        assert cast[key].dtype == np.float32
        assert cast[key].tobytes() == w.astype(np.float32).tobytes(), key


def test_rebuilds_draw_no_init(scenario, package_path, monkeypatch):
    """A package load, a clone and a float32 replica build their layers
    from the stored arrays: no initializer runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a rebuild drew an init")

    for name in list(initializers.INITIALIZERS):
        monkeypatch.setitem(initializers.INITIALIZERS, name, refuse)
    package = TransferPackage.load(package_path)
    network = package.embedder.network
    twin = network.clone()
    for key, value in scenario.package.embedder.network.state_arrays().items():
        assert network.state_arrays()[key].tobytes() == value.tobytes()
        assert twin.state_arrays()[key].tobytes() == value.tobytes()
        assert twin.state_arrays()[key] is not network.state_arrays()[key]
    engine = engine_from_package(package)
    assert engine._model_kernel(np.float32).embed.__self__ is not network


def test_a_gradient_is_allocated_on_first_use():
    p = Parameter("w", np.ones((2, 3)))
    assert p._grad is None
    p.zero_grad()
    assert p._grad is not None and not p.grad.any()
    p.grad = None
    p.grad += 2.0
    assert np.all(p.grad == 2.0)


def test_load_state_dict_releases_gradients():
    net = build_mlp(4, (3,), 2, rng=0)
    x = np.ones((5, 4))
    net.forward(x, training=True)
    net.backward(np.ones((5, 2)))
    assert all(param._grad is not None for param in net.parameters())
    net.load_state_dict(net.state_dict())
    assert all(param._grad is None for param in net.parameters())


def test_float32_parameters_kept_float32():
    w = np.ones((2, 3), dtype=np.float32)
    layer = Linear.from_arrays(w, np.zeros(3, dtype=np.float32))
    assert layer.weight.data is w
    assert layer.infer(np.ones((1, 2), dtype=np.float32)).dtype == np.float32
    assert Parameter("b", np.ones(3, dtype=np.int64)).data.dtype == np.float64


def test_iir_stream_carry_over_is_compact():
    """The carry-over is an owned copy of the pending rows, not a view
    pinning the array a ``push`` concatenated."""
    stream = ButterworthLowpass().make_stream()
    rng = np.random.default_rng(11)
    for _ in range(20):
        stream.push(rng.normal(size=(1200, 22)))
    pending = stream._yf
    assert pending.base is None
    assert pending.shape[0] < stream.block + stream.truncation
    assert pending.shape[0] == stream.samples_in - stream.samples_out
