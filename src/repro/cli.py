"""Command-line interface for the MAGNETO reproduction.

Five subcommands cover the platform lifecycle without writing any Python:

``pretrain``   run the Cloud offline step and save a transfer package
``inspect``    print a saved package's footprint and classes
``infer``      simulate a user performing an activity and classify it
``demo``       run the full Figure-3 demonstration scenario
``fleet``      serve many simulated devices through the batched engine
               (optionally multi-model: ``--cohorts spec.json`` serves
               each cohort from its own package via a ModelRegistry)
``gateway``    expose a fleet over TCP: framed HELLO/CHUNK/FINISH
               sessions, each flush served as one fleet tick
``gateway-bench``  replay N simulated devices against a gateway and
               report p50/p95/p99 tick latency (optionally a
               saturation ramp)

Examples::

    python -m repro pretrain --out package.npz --users 5 --windows 30
    python -m repro inspect package.npz
    python -m repro infer package.npz --activity walk --seconds 5
    python -m repro demo package.npz --new-activity gesture_hi
    python -m repro fleet package.npz --sessions 50 --ticks 10
    python -m repro fleet package.npz --cohorts cohorts.json --ticks 10
    python -m repro gateway package.npz --port 7070
    python -m repro gateway-bench package.npz --devices 16 --ticks 5
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

import numpy as np

from .core import (
    CloudConfig,
    CloudInitializer,
    EdgeDevice,
    TransferPackage,
)
from .edge_runtime import MagnetoApp, render_prediction, render_session
from .nn import TrainConfig
from .serving import (
    DEFAULT_COHORT,
    FleetServer,
    ModelRegistry,
    load_cohort_spec,
    registry_from_specs,
)
from .serving.gateway import GatewayServer, find_saturation, run_load
from .sensors import (
    SensorDevice,
    list_activities,
    sample_user,
)
from .utils import format_bytes


def _add_pretrain(subparsers) -> None:
    cmd = subparsers.add_parser(
        "pretrain", help="run Cloud pre-training and save a transfer package"
    )
    cmd.add_argument("--out", required=True, help="output .npz package path")
    cmd.add_argument("--users", type=int, default=5,
                     help="simulated campaign users (default 5)")
    cmd.add_argument("--windows", type=int, default=30,
                     help="windows per user per activity (default 30)")
    cmd.add_argument("--epochs", type=int, default=20,
                     help="pre-training epochs (default 20)")
    cmd.add_argument("--support", type=int, default=100,
                     help="support-set capacity per class (default 100)")
    cmd.add_argument("--seed", type=int, default=7, help="random seed")


def _add_inspect(subparsers) -> None:
    cmd = subparsers.add_parser(
        "inspect", help="print a package's classes and footprint"
    )
    cmd.add_argument("package", help="path to a saved .npz package")


def _add_infer(subparsers) -> None:
    cmd = subparsers.add_parser(
        "infer", help="simulate an activity and classify it on the Edge"
    )
    cmd.add_argument("package", help="path to a saved .npz package")
    cmd.add_argument("--activity", default="walk",
                     help=f"one of: {', '.join(list_activities())}")
    cmd.add_argument("--seconds", type=float, default=5.0,
                     help="recording length (default 5 s)")
    cmd.add_argument("--user-seed", type=int, default=42,
                     help="which simulated user performs it")
    cmd.add_argument("--seed", type=int, default=11, help="sensor seed")


def _add_demo(subparsers) -> None:
    cmd = subparsers.add_parser(
        "demo", help="run the Figure-3 demonstration scenario"
    )
    cmd.add_argument("package", help="path to a saved .npz package")
    cmd.add_argument("--new-activity", default="gesture_hi",
                     help="activity to learn on-device (default gesture_hi)")
    cmd.add_argument("--user-seed", type=int, default=42)
    cmd.add_argument("--seed", type=int, default=11)


def _add_fleet(subparsers) -> None:
    cmd = subparsers.add_parser(
        "fleet",
        help="serve a fleet of simulated devices through the batched engine",
    )
    cmd.add_argument("package", help="path to a saved .npz package")
    cmd.add_argument("--sessions", type=int, default=25,
                     help="concurrent simulated devices (default 25)")
    cmd.add_argument("--ticks", type=int, default=5,
                     help="serving rounds, one raw sensor chunk per session "
                          "each (default 5)")
    cmd.add_argument("--chunk-seconds", type=float, default=1.0,
                     help="raw samples each session uploads per tick "
                          "(default 1.0 s = one window); need not align "
                          "to windows — each session's leftover tail "
                          "carries over to the next tick")
    cmd.add_argument("--overlap", type=float, default=0.0,
                     help="window overlap fraction in [0, 1) used when "
                          "segmenting each chunk (default 0, "
                          "non-overlapping); applied per cohort against "
                          "its own window length")
    cmd.add_argument("--cohorts", default=None, metavar="SPEC.json",
                     help="serve a multi-model fleet from a cohort spec: "
                          "a JSON object {'default': ..., 'cohorts': "
                          "{name: {'package': path, 'sessions': n}}}; "
                          "entries without a package are served from the "
                          "positional package, and --sessions is ignored "
                          "in favor of the per-cohort counts")
    cmd.add_argument("--seed", type=int, default=11, help="simulation seed")


def _add_gateway(subparsers) -> None:
    cmd = subparsers.add_parser(
        "gateway",
        help="expose a fleet over TCP (framed HELLO/CHUNK/FINISH sessions)",
    )
    cmd.add_argument("package", help="path to a saved .npz package")
    cmd.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    cmd.add_argument("--port", type=int, default=7070,
                     help="TCP port (default 7070; 0 = ephemeral)")
    cmd.add_argument("--cohorts", default=None, metavar="SPEC.json",
                     help="serve a multi-model fleet from a cohort spec "
                          "(same format as `repro fleet --cohorts`)")


def _add_gateway_bench(subparsers) -> None:
    cmd = subparsers.add_parser(
        "gateway-bench",
        help="replay simulated devices against a gateway and report "
             "tick-latency percentiles",
    )
    cmd.add_argument("package", help="path to a saved .npz package")
    cmd.add_argument("--devices", type=int, default=8,
                     help="concurrent simulated devices (default 8)")
    cmd.add_argument("--ticks", type=int, default=5,
                     help="chunks each device replays (default 5)")
    cmd.add_argument("--chunk-seconds", type=float, default=1.0,
                     help="raw samples each device uploads per tick "
                          "(default 1.0 s)")
    cmd.add_argument("--tick-interval", type=float, default=0.0,
                     help="idle seconds between a device's ticks "
                          "(default 0 = full-speed replay)")
    cmd.add_argument("--saturation", action="store_true",
                     help="after the replay, ramp the device count at "
                          "full speed and report the saturation point")
    cmd.add_argument("--seed", type=int, default=11, help="simulation seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAGNETO reproduction — Edge AI for HAR",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_pretrain(subparsers)
    _add_inspect(subparsers)
    _add_infer(subparsers)
    _add_demo(subparsers)
    _add_fleet(subparsers)
    _add_gateway(subparsers)
    _add_gateway_bench(subparsers)
    return parser


def _cmd_pretrain(args) -> int:
    config = CloudConfig(
        backbone_dims=(256, 128, 64),
        embedding_dim=64,
        train=TrainConfig(epochs=args.epochs, batch_pairs=64, lr=1e-3),
        support_capacity=args.support,
    )
    cloud = CloudInitializer(config, rng=args.seed)
    print(f"pre-training on {args.users} users x {args.windows} windows "
          f"x 5 activities...")
    package, report = cloud.pretrain(
        n_users=args.users, windows_per_user_per_activity=args.windows
    )
    package.save(args.out)
    print(f"train accuracy: {report.train_accuracy:.3f}")
    print(f"saved package to {args.out} "
          f"({format_bytes(package.size_bytes())})")
    return 0


def _cmd_inspect(args) -> int:
    package = TransferPackage.load(args.package)
    print(f"classes: {', '.join(package.support_set.class_names)}")
    print(f"model parameters: {package.embedder.n_parameters()}")
    print(f"support exemplars: {package.support_set.counts()}")
    print("footprint:")
    print(package.describe())
    return 0


def _make_edge(package_path: str, user_seed: int, seed: int):
    package = TransferPackage.load(package_path)
    edge = EdgeDevice(rng=seed)
    edge.install(package)
    user = sample_user(user_id=user_seed, rng=user_seed)
    phone = SensorDevice(user=user, rng=seed)
    return edge, phone


def _cmd_infer(args) -> int:
    edge, phone = _make_edge(args.package, args.user_seed, args.seed)
    recording = phone.record(args.activity, args.seconds)
    majority, names = edge.infer_recording(recording)
    result = edge.infer_window(
        recording.data[: edge.pipeline.window_len]
    )
    print(f"performed: {args.activity} for {args.seconds:.0f} s")
    print(f"per-window predictions: {names}")
    print(f"majority verdict: {majority} "
          f"(first-window latency {result.latency_ms:.1f} ms)")
    return 0 if majority == args.activity else 1


def _cmd_demo(args) -> int:
    edge, phone = _make_edge(args.package, args.user_seed, args.seed)
    app = MagnetoApp(edge, phone)
    frames = app.run_demo_scenario(
        new_label=args.new_activity,
        performed_new_activity=args.new_activity,
        warmup_activities=["still", "walk"],
        infer_s=4.0,
        record_s=20.0,
    )
    for phase, phase_frames in frames.items():
        print(f"\n=== {phase} ===")
        print(render_session(phase_frames))
    print()
    print(render_prediction(frames[f"new:{args.new_activity}"][-1]))
    new_frames = frames[f"new:{args.new_activity}"]
    accuracy = float(np.mean(
        [f.activity == args.new_activity for f in new_frames]
    ))
    print(f"\nnew activity recognized in {accuracy * 100:.0f}% of windows; "
          f"user bytes sent to Cloud: {edge.guard.user_bytes_sent_to_cloud()}")
    return 0


def _cmd_fleet(args) -> int:
    """Serve a fleet of simulated devices for ``--ticks`` rounds.

    Every round records ``--chunk-seconds`` of raw sensor samples per
    device; the FleetServer folds each chunk into the session's carry-over
    stream (windows straddling tick boundaries are classified, not
    dropped), featurizes only the newly completed windows through the
    O(chunk) path, and classifies every window of the whole fleet in one
    batched engine pass per distinct model — the serving pattern for
    continuous high-overlap traffic.  Without ``--cohorts`` the whole
    fleet shares the positional package; with it, each cohort's sessions
    are served from the cohort's own package through a lazily loaded
    :class:`~repro.serving.registry.ModelRegistry`.
    """
    if not 0.0 <= args.overlap < 1.0:
        print(f"overlap must be in [0, 1), got {args.overlap}")
        return 2
    if args.cohorts:
        spec = load_cohort_spec(args.cohorts)
        registry = registry_from_specs(spec, fallback_package=args.package)
        sessions_by_cohort = {
            row.cohort: row.sessions for row in spec.cohorts
        }
    else:
        registry = ModelRegistry()
        registry.register_lazy(DEFAULT_COHORT, args.package)
        sessions_by_cohort = {DEFAULT_COHORT: args.sessions}
    server = FleetServer(registry)

    strides = {}
    phones = {}
    performed = {}
    i = 0
    for cohort, n_sessions in sessions_by_cohort.items():
        engine = registry.engine_for(cohort)  # lazy load happens here
        strides[cohort] = max(
            1, int(round(engine.pipeline.window_len * (1.0 - args.overlap)))
        )
        activities = list(engine.class_names)
        for j in range(n_sessions):
            session_id = f"{cohort}-{j:04d}"
            server.connect(session_id, cohort=cohort)
            user = sample_user(user_id=i, rng=args.seed + i)
            phones[session_id] = SensorDevice(user=user, rng=args.seed + i)
            performed[session_id] = activities[i % len(activities)]
            i += 1

    correct = 0
    correct_by_cohort = {cohort: 0 for cohort in sessions_by_cohort}
    for _ in range(args.ticks):
        chunks = {
            session_id: phone.record(
                performed[session_id], args.chunk_seconds
            ).data
            for session_id, phone in phones.items()
        }
        verdicts = server.step_stream(chunks, stride=strides)
        for sid, session_verdicts in verdicts.items():
            hits = sum(
                verdict.display == performed[sid]
                for verdict in session_verdicts
            )
            correct += hits
            correct_by_cohort[server.session(sid).cohort] += hits

    summary = server.summary()
    total = int(summary["windows_served"])
    buffered = sum(
        session.stream.pending_samples
        for session in server.sessions.values()
        if session.stream is not None
    )
    print(f"served {total} windows across {server.n_sessions} sessions "
          f"in {args.ticks} ticks")
    print(f"engine throughput: {summary['windows_per_sec']:.0f} windows/s "
          f"({summary['serve_ms']:.1f} ms total inference)")
    print(f"buffered tail awaiting the next tick: {buffered} samples")
    if len(sessions_by_cohort) > 1:
        for cohort, rollup in server.cohort_summary().items():
            served = int(rollup["windows_served"])
            cohort_acc = (
                correct_by_cohort.get(cohort, 0) / served if served else 0.0
            )
            print(f"  cohort {cohort}: {int(rollup['sessions'])} sessions, "
                  f"{served} windows, "
                  f"accuracy {cohort_acc * 100:.0f}%"
                  + (" [default]" if cohort == registry.default_cohort
                     else ""))
    accuracy = correct / total if total else 0.0
    print(f"smoothed fleet accuracy: {accuracy * 100:.0f}%")
    return 0 if accuracy >= 0.5 else 1


def _gateway_registry(args) -> ModelRegistry:
    """The registry a gateway command serves (single- or multi-model)."""
    if getattr(args, "cohorts", None):
        spec = load_cohort_spec(args.cohorts)
        return registry_from_specs(spec, fallback_package=args.package)
    registry = ModelRegistry()
    registry.register_lazy(DEFAULT_COHORT, args.package)
    return registry


def _cmd_gateway(args) -> int:
    """Serve a fleet over TCP until interrupted.

    Every connection is one device session speaking the binary framed
    wire protocol; each flush of chunks is one
    :class:`~repro.serving.FleetServer` tick across cohorts, so socket
    serving keeps the in-process batching economics.
    """
    registry = _gateway_registry(args)

    async def serve() -> None:
        async with GatewayServer(
            registry, host=args.host, port=args.port
        ) as gateway:
            print(f"gateway listening on {gateway.host}:{gateway.port}",
                  flush=True)
            try:
                await gateway.serve_forever()
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("gateway stopped")
    return 0


def _cmd_gateway_bench(args) -> int:
    """Replay a simulated device fleet against a live gateway.

    Starts an in-process gateway on an ephemeral port, replays
    ``--devices`` concurrent sessions for ``--ticks`` chunks each, and
    prints client-observed p50/p95/p99 tick round-trip latency plus
    throughput.  ``--saturation`` then ramps the device count at full
    replay speed and reports the largest fleet that still scaled
    (throughput gain per doubling).
    """
    if args.devices < 1 or args.ticks < 1:
        print("--devices and --ticks must be >= 1")
        return 2
    registry = _gateway_registry(args)
    engine = registry.engine_for(registry.default_cohort)
    activities = list(engine.class_names)

    def device_schedule(n_devices, prefix="dev"):
        schedule = {}
        for i in range(n_devices):
            user = sample_user(user_id=i, rng=args.seed + i)
            phone = SensorDevice(user=user, rng=args.seed + i)
            activity = activities[i % len(activities)]
            schedule[f"{prefix}-{i:04d}"] = [
                phone.record(activity, args.chunk_seconds).data
                for _ in range(args.ticks)
            ]
        return schedule

    async def bench() -> None:
        async with GatewayServer(registry, port=0) as gateway:
            report = await run_load(
                gateway.host,
                gateway.port,
                device_schedule(args.devices),
                tick_interval_s=args.tick_interval,
            )
            stats = report.to_dict()
            print(f"{args.devices} devices x {args.ticks} ticks "
                  f"({args.chunk_seconds:.1f}s chunks): "
                  f"{stats['windows_served']} windows in "
                  f"{stats['wall_s']:.2f}s "
                  f"({stats['windows_per_sec']:.0f} windows/s)")
            print(f"tick latency: p50 {stats['p50_ms']:.1f} ms, "
                  f"p95 {stats['p95_ms']:.1f} ms, "
                  f"p99 {stats['p99_ms']:.1f} ms")
            if args.saturation:
                counts, n = [], args.devices
                for _ in range(4):
                    counts.append(n)
                    n *= 2
                ramp = await find_saturation(
                    gateway.host,
                    gateway.port,
                    lambda k: device_schedule(k, prefix=f"ramp-{k}"),
                    counts,
                )
                for step in ramp["steps"]:
                    print(f"  {int(step['devices']):>5} devices: "
                          f"{step['windows_per_sec']:8.0f} windows/s, "
                          f"p95 {step['p95_ms']:.1f} ms")
                print(f"saturation point: "
                      f"{ramp['saturation_devices']} devices")

    asyncio.run(bench())
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "inspect": _cmd_inspect,
    "infer": _cmd_infer,
    "demo": _cmd_demo,
    "fleet": _cmd_fleet,
    "gateway": _cmd_gateway,
    "gateway-bench": _cmd_gateway_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main(argv)
    sys.exit(main())
