"""E-COHORT — multi-model cohort serving vs a single-model fleet.

A population-scale fleet is heterogeneous: device classes, sampling rates
and enrollment sizes each want their own model package.  The cohort-aware
:class:`~repro.serving.fleet.FleetServer` binds every session to a cohort in
a :class:`~repro.serving.registry.ModelRegistry` and still batches each
tick into **one engine call per distinct model**, so splitting a fleet
across k models costs k smaller batched calls instead of per-session
serving — the per-tick dispatch grows with the number of *models*, never
with the number of *sessions*.

This bench serves the same total session count two ways:

- ``single``  — the classic fleet: every session on one shared engine,
  one batched call per tick (lower bound),
- ``cohorts`` — the same sessions split evenly across three distinct
  model packages in a registry, three batched calls per tick,

and asserts the headline gate: the 3-cohort fleet tick stays within
**1.5x** of the single-model wall-clock.  Both runs serve identical
traffic, so the window counts must agree exactly.

Run under pytest for the CI assertions, or standalone to record a
baseline::

    PYTHONPATH=src python benchmarks/bench_fleet_cohorts.py \
        --out BENCH_fleet.json           # full benchmark scale
    PYTHONPATH=src python benchmarks/bench_fleet_cohorts.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

import numpy as np
from conftest import build_cohort_fleet_setup

from repro.core import CloudConfig
from repro.datasets import build_edge_scenario
from repro.nn import TrainConfig
from repro.serving import FleetServer, ModelRegistry

#: Samples per serving tick (10 windows at window_len=120) — small enough
#: that per-tick dispatch matters, large enough that the tick is not pure
#: dispatch (see bench_chunked_stream's overhead note).  The fleet layout
#: itself (120 s recording, 24 sessions, 3 cohorts) is the shared
#: ``conftest.build_cohort_fleet_setup`` default.
CHUNK_SAMPLES = 1200
MAX_RATIO_VS_SINGLE = 1.5


def _best_seconds(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_fleet(server, session_ids, data, chunk_samples) -> int:
    """Drive one full serving run; returns the windows served."""
    served = 0
    for start in range(0, data.shape[0], chunk_samples):
        chunk = data[start : start + chunk_samples]
        verdicts = server.step_stream(
            {sid: chunk for sid in session_ids}
        )
        served += sum(len(v) for v in verdicts.values())
    return served


def measure_cohort_fleet(
    setup,
    chunk_samples: int = CHUNK_SAMPLES,
    repeats: int = 3,
) -> Dict:
    """Wall-clock of a single-model fleet vs the same fleet split by cohort.

    ``setup`` is a :class:`conftest.CohortFleetSetup`, the fleet layout
    only ``bench_fleet_cohorts`` uses (build one with
    :func:`conftest.build_cohort_fleet_setup`).
    """
    data = setup.data
    session_ids = setup.session_ids
    served = {}

    def single():
        server = FleetServer(setup.single_engine)
        server.connect_many(session_ids)
        served["single"] = _run_fleet(server, session_ids, data, chunk_samples)

    def cohort_fleet():
        server = FleetServer(setup.registry)
        for sid, cohort in zip(session_ids, setup.cohorts):
            server.connect(sid, cohort=cohort)
        served["cohorts"] = _run_fleet(server, session_ids, data, chunk_samples)

    single_s = _best_seconds(single, repeats=repeats)
    cohort_s = _best_seconds(cohort_fleet, repeats=repeats)
    assert served["single"] == served["cohorts"]  # identical traffic
    k = served["single"]
    ticks = len(range(0, data.shape[0], chunk_samples))
    return {
        "windows": k,
        "ticks": ticks,
        "sessions": setup.n_sessions,
        "cohorts": setup.n_cohorts,
        "chunk_samples": chunk_samples,
        "recording_samples": int(data.shape[0]),
        "single": {"ms_total": single_s * 1e3, "windows_per_sec": k / single_s},
        "cohort": {"ms_total": cohort_s * 1e3, "windows_per_sec": k / cohort_s},
        "ratio_cohort_vs_single": cohort_s / single_s,
    }


# ---------------------------------------------------------------------- #
# pytest entry points (CI gates)
# ---------------------------------------------------------------------- #


def test_bench_cohort_fleet_within_1p5x_of_single_model(cohort_fleet):
    """A 3-cohort fleet tick stays within 1.5x of the single-model fleet."""
    results = measure_cohort_fleet(cohort_fleet)
    ratio = results["ratio_cohort_vs_single"]
    print(
        f"\nE-COHORT: single {results['single']['ms_total']:.1f} ms, "
        f"{results['cohorts']}-cohort "
        f"{results['cohort']['ms_total']:.1f} ms over "
        f"{results['ticks']} ticks x {results['sessions']} sessions "
        f"({ratio:.2f}x)"
    )
    assert ratio <= MAX_RATIO_VS_SINGLE


def test_bench_mixed_cohort_verdicts_match_individual_routing(bench_scenario):
    """Serving correctness at benchmark scale: grouped == per-cohort."""
    engines = {
        "a": bench_scenario.fresh_edge(rng=1).engine,
        "b": bench_scenario.fresh_edge(rng=2).engine,
    }
    registry = ModelRegistry(default_cohort="a")
    for cohort, engine in engines.items():
        registry.publish(cohort, engine)
    server = FleetServer(registry, smoother_factory=None)
    server.connect("sa", cohort="a")
    server.connect("sb", cohort="b")
    data = bench_scenario.sensor_device.record("walk", 10.0).data
    got = {"sa": [], "sb": []}
    for start in range(0, data.shape[0], 500):
        chunk = data[start : start + 500]
        for sid, verdicts in server.step_stream(
            {"sa": chunk, "sb": chunk}
        ).items():
            got[sid].extend(verdicts)
    for sid, cohort in (("sa", "a"), ("sb", "b")):
        ref = engines[cohort].infer_stream(data)
        assert [v.activity for v in got[sid]] == ref.names
        np.testing.assert_allclose(
            [v.confidence for v in got[sid]],
            ref.confidences,
            rtol=0,
            atol=1e-9,
        )


# ---------------------------------------------------------------------- #
# standalone baseline recorder
# ---------------------------------------------------------------------- #


def _standalone_scenario(smoke: bool):
    """Rebuild the shared bench scenario outside pytest (same seeds/scale)."""
    if smoke:
        config = CloudConfig(
            backbone_dims=(64, 32),
            embedding_dim=16,
            train=TrainConfig(epochs=5, batch_pairs=32, lr=1e-3),
            support_capacity=25,
        )
        return build_edge_scenario(
            cloud_config=config,
            n_users=2,
            windows_per_user_per_activity=10,
            base_test_windows_per_activity=5,
            rng=2024,
        )
    config = CloudConfig(
        backbone_dims=(256, 128, 64),
        embedding_dim=64,
        train=TrainConfig(epochs=25, batch_pairs=64, lr=1e-3),
        support_capacity=200,
    )
    return build_edge_scenario(
        cloud_config=config,
        n_users=6,
        windows_per_user_per_activity=40,
        base_test_windows_per_activity=25,
        rng=2024,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure multi-model cohort serving overhead"
    )
    parser.add_argument("--out", default=None,
                        help="write the results as JSON to this path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenario + short recording for a fast "
                             "CI smoke run")
    args = parser.parse_args(argv)

    scenario = _standalone_scenario(smoke=args.smoke)
    if args.smoke:
        setup = build_cohort_fleet_setup(scenario, seconds=30.0, n_sessions=6)
        results = measure_cohort_fleet(setup, repeats=2)
    else:
        results = measure_cohort_fleet(build_cohort_fleet_setup(scenario))
    results["scale"] = "smoke" if args.smoke else "benchmark"
    results["recorded"] = time.strftime("%Y-%m-%d")

    for path in ("single", "cohort"):
        row = results[path]
        print(f"{path:>7}: {row['ms_total']:8.1f} ms "
              f"({row['windows_per_sec']:7.0f} windows/s)")
    ratio = results["ratio_cohort_vs_single"]
    print(f"{results['cohorts']}-cohort fleet vs single-model: {ratio:.2f}x "
          f"(gate <= {MAX_RATIO_VS_SINGLE}x) over {results['ticks']} ticks "
          f"x {results['sessions']} sessions")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.out}")

    if ratio > MAX_RATIO_VS_SINGLE:
        print(
            f"FAIL: cohort fleet {ratio:.2f}x single-model exceeds the "
            f"{MAX_RATIO_VS_SINGLE}x acceptance threshold"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
