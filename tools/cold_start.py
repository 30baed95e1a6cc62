"""Check a cold start: serving and learning import no scipy submodule and
no ``numpy.ma``, at any stride.

    PYTHONPATH=src python tools/cold_start.py [PACKAGE.npz]

In this fresh interpreter the script imports ``repro.serving`` (and prints
how long that took), registers ``PACKAGE.npz`` lazily in a
``ModelRegistry``, serves one windowed ``EdgeDevice.infer_chunk`` and one
windowed ``FleetServer.step_stream`` tick, then has the device learn a new
activity and calibrate a known one from ``Recording``s, and checks that
none of ``scipy.signal``, ``scipy.ndimage`` and ``numpy.ma`` has been
imported: the Butterworth design and its window operator are numpy's, an
update featurizes its recording as serving does, and neither the package
load nor the trainer's pair sampler sorts with ``np.unique``, which
imports ``numpy.ma``.  It then serves a stride-30 stream and a stride-30
fleet tick, which run ``lfilter``, and the stream's
``infer_stream(stride=30)`` reference, which runs ``ButterworthLowpass.apply``.
It checks that the streamed verdicts match the reference's, that scipy's
compiled ``lfilter`` kernel ran, and that none of the three has been
imported still: the kernel is loaded on its own.

Without ``PACKAGE.npz`` a small package is pre-trained first (about 10 s)
and the check runs on it in a child interpreter, so that the training's
imports do not count.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

W = 120  # samples per window at the synthetic sensors' 120 Hz
UNUSED = ("scipy.signal", "scipy.ndimage", "numpy.ma")
NONE_OF_THEM = ", ".join(f"no {name}" for name in UNUSED)


def _check(ok: bool, message: str) -> None:
    if not ok:
        print(f"cold start: FAILED: {message}")
        raise SystemExit(1)


def check_cold_start(package_path: str) -> None:
    start = time.perf_counter()
    import repro.serving
    import_ms = (time.perf_counter() - start) * 1e3
    print(f"import repro.serving: {import_ms:.1f} ms")

    import numpy as np

    from repro.core import EdgeDevice
    from repro.preprocessing import denoise
    from repro.sensors import SensorDevice

    registry = repro.serving.ModelRegistry(default_cohort="cold")
    registry.register_lazy("cold", package_path)
    sensor = SensorDevice(rng=7)
    data = sensor.record("walk", 6.0).data

    edge = EdgeDevice(rng=0)
    edge.install(registry.package_for("cold"))
    session = edge.open_stream()
    _check(len(edge.infer_chunk(session, data[:W])) == 1, "no windowed verdict")
    server = repro.serving.FleetServer(registry)
    server.connect_many(["a", "b"])
    tick = server.step_stream({"a": data[: 2 * W], "b": data[W : 3 * W]})
    _check(
        [len(tick[sid]) for sid in "ab"] == [2, 2], "no windowed fleet tick"
    )
    loaded = [name for name in UNUSED if name in sys.modules]
    _check(not loaded, f"serving at stride = window imported {loaded}")
    edge.learn_activity("gesture_hi", sensor.record("gesture_hi", 20.0))
    edge.calibrate_activity("walk", sensor.record("walk", 20.0))
    _check("gesture_hi" in edge.classes, "the learned activity is not served")
    loaded = [name for name in UNUSED if name in sys.modules]
    _check(not loaded, f"learning at stride = window imported {loaded}")
    print(
        f"windowed edge chunk, fleet tick, learn and calibrate: {NONE_OF_THEM}"
    )

    session = edge.open_stream(stride=30)
    streamed = [edge.infer_chunk(session, data), edge.finish_stream(session)]
    _check(denoise._sigtools is not None, "a stride-30 stream ran no lfilter")
    server.connect_many(["c", "d"])
    tick = server.step_stream({"c": data, "d": data[W:]}, stride=30)
    _check(all(tick[sid] for sid in "cd"), "no stride-30 fleet tick")
    names = [name for batch in streamed for name in batch.names]
    distances = np.concatenate([batch.distances for batch in streamed])
    want = edge.infer_stream(data, stride=30)
    _check(names == want.names, "stride-30 verdicts differ from infer_stream")
    scale = np.max(np.abs(want.distances))
    _check(
        np.max(np.abs(distances - want.distances)) <= 1e-9 * scale,
        "stride-30 distances differ from infer_stream beyond 1e-9",
    )
    loaded = [name for name in UNUSED if name in sys.modules]
    _check(not loaded, f"serving at stride 30 imported {loaded}")
    print(
        f"stride-30 stream: {len(names)} verdicts; stride-30 fleet tick and "
        f"infer_stream: lfilter kernel ran, {NONE_OF_THEM}"
    )


def pretrain_and_check() -> int:
    from repro.core import CloudConfig, CloudInitializer
    from repro.nn import TrainConfig

    config = CloudConfig(
        backbone_dims=(64, 32),
        embedding_dim=16,
        train=TrainConfig(epochs=3, batch_pairs=32, lr=1e-3),
        support_capacity=10,
    )
    package, _ = CloudInitializer(config, rng=1).pretrain(
        n_users=2, windows_per_user_per_activity=6
    )
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "package.npz")
        package.save(path)
        return subprocess.run([sys.executable, __file__, path]).returncode


def main(argv) -> int:
    if not argv:
        return pretrain_and_check()
    check_cold_start(argv[0])
    print("cold start: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
