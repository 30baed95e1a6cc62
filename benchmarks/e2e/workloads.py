"""The five workloads, untraced: timed rounds through the real front doors.

``edge_*`` drive an in-process :class:`~repro.core.edge.EdgeDevice` (the
paper's on-device path); ``gateway_*`` drive eight ``GatewayClient``
sockets, multiplexed on this process's single asyncio thread, against a
``GatewayServer`` child process.  Every timed region is cut into short
rounds, each bracketed by the calibration kernel (``calibration.py``);
``run.py`` reports the median over calibrated rounds and keeps their
quartiles as the noise record.  Verdicts are compared with
``InferenceEngine.infer_stream`` on the whole recording after the clock
has stopped.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import repro
from repro.core.edge import EdgeDevice
from repro.core.transfer import TransferPackage
from repro.exceptions import MagnetoError
from repro.sensors.activities import BASE_ACTIVITIES
from repro.serving import GatewayClient, engine_from_package

import scenario as sc

#: chunk = samples per CHUNK/infer_chunk; round_ticks = ticks per round at
#: benchmark scale: the shortest round whose p95 still has >= 10 samples
#: beyond it (gateway: 25 ticks x 8 devices), so a run holds many rounds.
WORKLOADS: Dict[str, Dict] = {
    "edge_tick": dict(
        kind="edge_tick", loop="closed", devices=1, chunk=120, stride=120,
        dtype="float64", round_ticks=240,
    ),
    "edge_learn": dict(
        kind="edge_learn", loop="closed", devices=1, chunk=120, stride=120,
        dtype="float64", round_ticks=204,
    ),
    "gateway_bulk": dict(
        kind="gateway", loop="closed", devices=8, chunk=1200, stride=30,
        dtype="float32", round_ticks=25, period_s=0.0,
    ),
    "gateway_lockstep": dict(
        kind="gateway", loop="closed", devices=8, chunk=120, stride=120,
        dtype="float64", round_ticks=25, period_s=0.0,
    ),
    "gateway_paced": dict(
        kind="gateway", loop="open", devices=8, chunk=120, stride=120,
        dtype="float64", round_ticks=25, period_s=0.1,
    ),
}
MIN_ROUNDS = 3
SETUP_REPS = 3
OP_TIMEOUT_S = 10.0
#: docs/precision.md's contract for the float32 path.
FLIP_BUDGET = 1e-3
#: float64 scores, chunked against one infer_stream of the whole recording.
#: Not the tests' 1e-9: over a 204 s recording the reference path's own
#: prefix sums lose that much (a low-variance window's normalised feature
#: moved 3.3e-9, its distances 1.3e-9 — measured), so 1e-9 fails by seed.
SCORE_TOL = 1e-7


@dataclass
class Context:
    """Everything one workload run is given."""

    name: str
    scale: str
    seed: int
    seconds: float
    package_path: str
    user: object
    speed: object  # calibration.BoxSpeed
    tracer: Optional[object] = None  # ladder.Tracer on --trace runs

    @property
    def cfg(self) -> Dict:
        return WORKLOADS[self.name]

    @property
    def round_ticks(self) -> int:
        # smoke keeps the code path and shrinks the rounds
        ticks = self.cfg["round_ticks"]
        return ticks if self.scale == "benchmark" else max(4, ticks // 4)

    @property
    def seconds_per_activity(self) -> float:
        return sc.SCALES[self.scale]["seconds_per_activity"]

    @property
    def np_dtype(self):
        return np.float32 if self.cfg["dtype"] == "float32" else None


@dataclass
class Outcome:
    """What a workload measured: raw per-round records, counts, counters."""

    rounds: List[Dict[str, float]] = field(default_factory=list)
    updates: List[Dict[str, float]] = field(default_factory=list)
    setups: List[Dict[str, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    scored: int = 0
    hits: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)


class Reference(NamedTuple):
    names: List[str]
    accepted: np.ndarray
    scores: np.ndarray  # (k, classes) distances in-process, (k, 1) confidence on the wire
    labels: List[Optional[str]]


def round_record(latencies_ms, windows: int, timed) -> Dict[str, float]:
    """One round's raw numbers plus the box's slowdown while it ran."""
    arr = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "tick_ms_p50": float(np.percentile(arr, 50)),
        "tick_ms_p95": float(np.percentile(arr, 95)),
        "windows_per_s": windows / timed.seconds,
        "slowdown": timed.slowdown,
    }


def reset_peak_rss() -> None:
    """Restart the high-water mark so scenario pre-training does not set it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # kernel without clear_refs: the peak then includes pre-training


def make_reference(ctx: Context, engine, data, labelling, wire: bool) -> Reference:
    """``infer_stream`` on the whole recording: the reference path (float64)."""
    batch = engine.infer_stream(data, stride=ctx.cfg["stride"])
    return Reference(
        names=batch.names,
        accepted=batch.accepted,
        scores=batch.confidences[:, None] if wire else batch.distances,
        labels=sc.window_labels(len(batch), ctx.cfg["stride"], labelling),
    )


class VerdictCheck:
    """Tally a workload's verdicts against the reference, pass by pass."""

    def __init__(self, exact: bool) -> None:
        self.exact = exact
        self.windows = 0
        self.bad_windows = 0
        self.bad_ops = 0
        self.count_errors = 0
        self.scored = 0
        self.hits = 0

    def add_pass(self, counts, names, accepted, scores, ref: Reference) -> None:
        n = min(len(names), len(ref.names))
        bad = np.array([a != b for a, b in zip(names[:n], ref.names[:n])], dtype=bool)
        if self.exact and n:
            bad |= np.asarray(accepted[:n]) != ref.accepted[:n]
            bad |= (np.abs(np.asarray(scores[:n]) - ref.scores[:n]) > SCORE_TOL).any(axis=1)
        op_of_window = np.repeat(np.arange(len(counts)), counts)[:n]
        self.bad_ops += len(set(op_of_window[bad].tolist()))
        self.bad_windows += int(bad.sum())
        self.windows += n
        if len(names) != len(ref.names):
            self.count_errors += 1  # windows served != windows expected
        for name, label in zip(names[:n], ref.labels[:n]):
            if label is not None:
                self.scored += 1
                self.hits += int(name == label)

    def failed(self) -> int:
        forgiven = not self.exact and self.bad_windows <= FLIP_BUDGET * self.windows
        return (0 if forgiven else self.bad_ops) + self.count_errors

    def fold_into(self, out: Outcome) -> None:
        out.failed += self.failed()
        out.scored += self.scored
        out.hits += self.hits


def check_batches(check: VerdictCheck, batches, ref: Reference) -> None:
    """One in-process pass: the ``BatchInference`` of every tick + finish."""
    check.add_pass(
        [len(b) for b in batches],
        [name for b in batches for name in b.names],
        np.concatenate([b.accepted for b in batches]),
        np.concatenate([b.distances for b in batches], axis=0),
        ref,
    )


def fresh_edge(ctx: Context, rng) -> EdgeDevice:
    """The paper's single Cloud->Edge transfer: load the package, install it."""
    edge = EdgeDevice(rng=rng)
    edge.install(TransferPackage.load(ctx.package_path))
    return edge


def stream_pass(edge: EdgeDevice, ctx: Context, chunks, latencies_ms: List[float]):
    """open_stream -> infer_chunk per chunk -> finish_stream; returns batches."""
    session = edge.open_stream(stride=ctx.cfg["stride"], dtype=ctx.np_dtype)
    batches = []
    for chunk in chunks:
        start = time.perf_counter()
        batches.append(edge.infer_chunk(session, chunk))
        latencies_ms.append((time.perf_counter() - start) * 1e3)
    batches.append(edge.finish_stream(session))
    return batches


def edge_setup(ctx: Context, chunks, out: Outcome) -> EdgeDevice:
    """Package load + install + one untimed warm-up pass, SETUP_REPS times."""
    for _ in range(SETUP_REPS):
        with ctx.speed.timed() as timed:
            edge = fresh_edge(ctx, rng=0)
            stream_pass(edge, ctx, chunks, [])
        out.setups.append({"setup_s": timed.seconds, "slowdown": timed.slowdown})
    return edge


def timed_update(edge: EdgeDevice, ctx: Context, round_index: int) -> Dict[str, float]:
    """learn_activity then calibrate_activity on 25 s recordings each."""
    device = sc.sensor(ctx.user, ctx.seed, 2000 + round_index)
    learn_rec = device.record(sc.NEW_ACTIVITY, sc.LEARN_SECONDS)
    calibrate_rec = device.record(sc.CALIBRATED_ACTIVITY, sc.LEARN_SECONDS)
    with ctx.speed.timed() as learn:
        edge.learn_activity(sc.NEW_ACTIVITY, learn_rec)
    with ctx.speed.timed() as calibrate:
        edge.calibrate_activity(sc.CALIBRATED_ACTIVITY, calibrate_rec)
    return {
        "learn_s": learn.seconds, "learn_slowdown": learn.slowdown,
        "calibrate_s": calibrate.seconds, "calibrate_slowdown": calibrate.slowdown,
    }


PROBE_UPDATES = 3


def probe_update(ctx: Context, out: Outcome) -> None:
    """learn + calibrate beside a tick workload (see README, end-to-end table)."""
    for index in range(PROBE_UPDATES):
        out.updates.append(timed_update(fresh_edge(ctx, rng=index), ctx, index))
        out.attempted += 2


def rounds_left(ctx: Context, out: Outcome, deadline: float) -> bool:
    return len(out.rounds) < MIN_ROUNDS or time.perf_counter() < deadline


# ---------------------------------------------------------------------- #
# edge_tick / edge_learn
# ---------------------------------------------------------------------- #


def run_edge_tick(ctx: Context) -> Outcome:
    out = Outcome()
    data, labelling = sc.labelled_recording(
        sc.sensor(ctx.user, ctx.seed, 0), ctx.seconds_per_activity
    )
    chunks = sc.split_chunks(data, ctx.cfg["chunk"])
    edge = edge_setup(ctx, chunks, out)
    passes_per_round = max(1, ctx.round_ticks // len(chunks))
    reset_peak_rss()
    passes = []
    deadline = time.perf_counter() + ctx.seconds
    while rounds_left(ctx, out, deadline):
        latencies: List[float] = []
        with ctx.speed.timed() as timed:
            done = [stream_pass(edge, ctx, chunks, latencies) for _ in range(passes_per_round)]
        windows = sum(len(b) for batches in done for b in batches)
        out.rounds.append(round_record(latencies, windows, timed))
        passes.extend(done)
    out.peak_rss_mb = sc.peak_rss_mb()
    ref = make_reference(ctx, edge.engine, data, labelling, wire=False)
    check = VerdictCheck(exact=True)
    for batches in passes:
        check_batches(check, batches, ref)
        out.attempted += len(batches)
    check.fold_into(out)
    if ctx.tracer is not None:
        from ladder import edge_tick_ladder

        edge_tick_ladder(ctx, edge, chunks)
    probe_update(ctx, out)
    return out


def run_edge_learn(ctx: Context) -> Outcome:
    out = Outcome()
    held_out = BASE_ACTIVITIES + (sc.NEW_ACTIVITY,)
    data, labelling = sc.labelled_recording(
        sc.sensor(ctx.user, ctx.seed, 1), ctx.round_ticks / len(held_out), held_out
    )
    chunks = sc.split_chunks(data, ctx.cfg["chunk"])
    edge_setup(ctx, chunks, out)
    reset_peak_rss()
    deadline = time.perf_counter() + ctx.seconds
    check = VerdictCheck(exact=True)
    while rounds_left(ctx, out, deadline):
        edge = fresh_edge(ctx, rng=len(out.rounds))
        out.updates.append(timed_update(edge, ctx, len(out.rounds)))
        latencies: List[float] = []
        with ctx.speed.timed() as timed:
            batches = stream_pass(edge, ctx, chunks, latencies)
        out.rounds.append(round_record(latencies, sum(len(b) for b in batches), timed))
        # the personalised model is this round's reference
        ref = make_reference(ctx, edge.engine, data, labelling, wire=False)
        check_batches(check, batches, ref)
        out.attempted += 2 + len(batches)
    out.peak_rss_mb = sc.peak_rss_mb()
    check.fold_into(out)
    if ctx.tracer is not None:
        from ladder import edge_learn_ladder

        edge_learn_ladder(ctx)
    return out


# ---------------------------------------------------------------------- #
# gateway_*
# ---------------------------------------------------------------------- #


class GatewayChild:
    """The gateway process: spawn, ask for counters, stop."""

    def __init__(self, proc, port: int) -> None:
        self.proc = proc
        self.port = port

    @classmethod
    async def spawn(cls, package_path: str) -> "GatewayChild":
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(here, "gateway_child.py"), src, package_path,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 60.0)
            return cls(proc, int(json.loads(line)["port"]))
        except BaseException:
            proc.kill()
            await proc.wait()
            raise

    async def summary(self) -> Dict[str, float]:
        self.proc.stdin.write(b"summary\n")
        await self.proc.stdin.drain()
        return json.loads(await asyncio.wait_for(self.proc.stdout.readline(), OP_TIMEOUT_S))

    async def stop(self) -> None:
        try:
            self.proc.stdin.write(b"stop\n")
            await self.proc.stdin.drain()
            await asyncio.wait_for(self.proc.wait(), OP_TIMEOUT_S)
        except (asyncio.TimeoutError, OSError):
            self.proc.kill()
            await self.proc.wait()


class Device:
    """One device session: cycles its recording, FINISH at each wrap.

    Every pass over the recording is its own stream on the server, so each
    pass's verdicts compare with one ``infer_stream`` of the recording.
    """

    def __init__(self, name: str, cohort: str, ctx: Context, port: int, data) -> None:
        self.name = name
        self.cohort = cohort
        self.ctx = ctx
        self.data = data
        self.chunks = sc.split_chunks(data, ctx.cfg["chunk"])
        self.client = GatewayClient("127.0.0.1", port)
        self.pos = 0
        self.sent = 0
        self.chunk_ops = 0
        self.failed = 0
        self.windows = 0
        self.errors: List[str] = []
        self.passes: List[Tuple[List[int], list]] = []
        self._counts: List[int] = []
        self._verdicts: list = []
        self.late_ms: List[float] = []
        self.deadline_misses = 0

    async def connect(self) -> None:
        cfg = self.ctx.cfg
        await self.client.connect(
            self.name, cohort=self.cohort, stride=cfg["stride"], dtype=cfg["dtype"]
        )

    async def _exchange(self, coro) -> bool:
        self.sent += 1
        try:
            verdicts = await asyncio.wait_for(coro, OP_TIMEOUT_S)
        except (MagnetoError, asyncio.TimeoutError, OSError) as exc:
            self.failed += 1
            self.errors.append(f"{self.name}: {exc!r}")
            return False
        self._counts.append(len(verdicts))
        self._verdicts.extend(verdicts)
        self.windows += len(verdicts)
        return True

    async def finish(self) -> None:
        await self._exchange(self.client.finish())
        self.passes.append((self._counts, self._verdicts))
        self._counts, self._verdicts = [], []

    async def tick(self, due: Optional[float] = None, span=None) -> Optional[float]:
        """One CHUNK -> VERDICT exchange; latency in ms (from ``due`` if given)."""
        chunk = self.chunks[self.pos]
        start = time.perf_counter() if due is None else due
        ok = await self._exchange(self.client.send_chunk(chunk))
        end = time.perf_counter()
        self.chunk_ops += 1
        if span is not None:
            span(start, end)
        self.pos += 1
        if self.pos == len(self.chunks):
            self.pos = 0
            await self.finish()
        return (end - start) * 1e3 if ok else None

    async def close(self) -> None:
        if self.pos:
            await self.finish()  # flush the partial last pass
        await self.client.aclose()

    def verify(self, check: VerdictCheck, engine, labelling, out: Outcome) -> None:
        full = make_reference(self.ctx, engine, self.data, labelling, wire=True)
        for index, (counts, verdicts) in enumerate(self.passes):
            ref = full
            if index == len(self.passes) - 1 and self.pos:
                sent = self.data[: self.pos * self.ctx.cfg["chunk"]]
                ref = make_reference(self.ctx, engine, sent, labelling, wire=True)
            check.add_pass(
                counts,
                [v.activity for v in verdicts],
                np.array([v.accepted for v in verdicts], dtype=bool),
                np.array([[v.confidence] for v in verdicts], dtype=np.float64).reshape(-1, 1),
                ref,
            )
        out.attempted += self.sent
        out.failed += self.failed
        out.errors.extend(self.errors)


async def closed_round(devices: List[Device], ticks: int, span_for=None):
    """Lockstep: every device sends tick t, all verdicts return, then t+1.

    Returns ``(latencies_ms, windows_served)``.
    """
    latencies: List[float] = []
    windows = sum(d.windows for d in devices)
    for tick in range(ticks):
        got = await asyncio.gather(
            *(d.tick(span=span_for(tick, d) if span_for else None) for d in devices)
        )
        latencies.extend(ms for ms in got if ms is not None)
    return latencies, sum(d.windows for d in devices) - windows


async def paced_round(devices: List[Device], period: float, offsets: np.ndarray):
    """Open loop: each device sends one chunk per ``period`` slot, at its
    own offset inside the slot (``offsets[device, slot]``), timed from due.

    Returns ``(latencies_ms, windows_served)``.
    """
    latencies: List[float] = []
    windows = sum(d.windows for d in devices)
    start = time.perf_counter() + 0.02

    async def drive(device: Device, slots: np.ndarray) -> None:
        for k, offset in enumerate(slots):
            due = start + k * period + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            device.late_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
            ms = await device.tick(due=due)
            if ms is not None:
                latencies.append(ms)
            if ms is None or ms > period * 1e3:
                device.deadline_misses += 1  # verdict after the next chunk was due

    await asyncio.gather(*(drive(d, slots) for d, slots in zip(devices, offsets)))
    return latencies, sum(d.windows for d in devices) - windows


async def gateway_setup(ctx: Context, recordings, out: Outcome):
    """Child spawn + 8 HELLOs + one untimed warm-up round, SETUP_REPS times."""
    for rep in range(SETUP_REPS):
        with ctx.speed.timed() as timed:
            child = await GatewayChild.spawn(ctx.package_path)
            devices = [
                Device(f"dev-{i}", sc.COHORTS[i % len(sc.COHORTS)], ctx, child.port, data)
                for i, data in enumerate(recordings)
            ]
            try:
                await asyncio.gather(*(d.connect() for d in devices))
                await closed_round(devices, max(2, ctx.round_ticks // 5))
            except BaseException:
                await child.stop()
                raise
        out.setups.append({"setup_s": timed.seconds, "slowdown": timed.slowdown})
        if rep < SETUP_REPS - 1:
            await asyncio.gather(*(d.close() for d in devices))
            await child.stop()
    return child, devices


async def run_gateway_async(ctx: Context) -> Outcome:
    out = Outcome()
    cfg = ctx.cfg
    recordings = []
    for i in range(cfg["devices"]):
        data, labelling = sc.labelled_recording(
            sc.sensor(ctx.user, ctx.seed, 10 + i), ctx.seconds_per_activity
        )
        recordings.append(data)
    phase_rng = np.random.default_rng([ctx.seed, 99])
    child, devices = await gateway_setup(ctx, recordings, out)
    try:
        counters = await child.summary()
        chunks_before = sum(d.chunk_ops for d in devices)
        deadline = time.perf_counter() + ctx.seconds
        while rounds_left(ctx, out, deadline):
            with ctx.speed.timed() as timed:
                if cfg["loop"] == "open":
                    # A fixed phase per device makes the tail a property of
                    # one draw (two devices 1 ms apart collide every slot);
                    # an offset per slot samples every relative phase.
                    offsets = phase_rng.uniform(
                        0.0, cfg["period_s"], size=(len(devices), ctx.round_ticks)
                    )
                    measured = await paced_round(devices, cfg["period_s"], offsets)
                else:
                    measured = await closed_round(devices, ctx.round_ticks)
            out.rounds.append(round_record(*measured, timed))
        if ctx.tracer is not None:
            from ladder import gateway_ladder

            await gateway_ladder(ctx, devices)
        before, after = counters, await child.summary()
        await asyncio.gather(*(d.close() for d in devices))
    finally:
        await child.stop()
    out.peak_rss_mb = after["peak_rss_mb"]
    engine = engine_from_package(TransferPackage.load(ctx.package_path))
    # float32's flip budget is a rate over the fleet's windows, not per device
    check = VerdictCheck(exact=cfg["dtype"] == "float64")
    for device in devices:
        device.verify(check, engine, labelling, out)
    check.fold_into(out)
    chunks = sum(d.chunk_ops for d in devices) - chunks_before
    fleet_ticks = after["ticks"] - before["ticks"]
    late = [ms for d in devices for ms in d.late_ms]
    paced = sum(len(d.late_ms) for d in devices)
    out.counters = {
        "loadgen.busy_retries": sum(d.client.busy_frames_seen for d in devices),
        "loadgen.late_ms_p95": float(np.percentile(late, 95)) if late else 0.0,
        "loadgen.deadline_miss_share": (
            sum(d.deadline_misses for d in devices) / paced if paced else 0.0
        ),
        "gateway.frames_received": after["frames_received"] - before["frames_received"],
        "gateway.fleet_ticks": fleet_ticks,
        "gateway.sessions_per_tick": chunks / fleet_ticks if fleet_ticks else 0.0,
        "gateway.busy_refusals": after["busy_refusals"] - before["busy_refusals"],
        "gateway.protocol_errors": after["protocol_errors"] - before["protocol_errors"],
    }
    probe_update(ctx, out)
    return out


def run_gateway(ctx: Context) -> Outcome:
    return asyncio.run(run_gateway_async(ctx))


RUNNERS = {"edge_tick": run_edge_tick, "edge_learn": run_edge_learn, "gateway": run_gateway}
