"""The traced ladder run: where a tick's wall-clock goes, outside in.

The program has no spans of its own yet (ROADMAP item 1), so the ladder
replays a workload's own inputs through each layer's public entry point —
one *rung* per layer boundary, every rung with its own fresh state — and
records a span around each call.  A rung's self time is its span minus the
spans of the rung below it on the same tick.  The ladder runs after the
untraced rounds, never during them.

Rungs are independent on purpose: ROADMAP items 2-3 will collapse or delete
layers, and a rung whose entry point is gone reports zeros (and is counted
in ``trace.rungs_failed``) instead of taking the other rungs with it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import scenario as sc
import workloads as wl


class Tracer:
    """In-memory spans ``{name, layer, workload, tick_id, parent, start, end}``."""

    def __init__(self, workload: str, speed) -> None:
        self.workload = workload
        self.speed = speed  # calibration.BoxSpeed
        self.spans: List[tuple] = []
        self.slowdown: List[float] = []  # per span: the box's slowdown over its rung
        self.rows: Dict[str, List[int]] = defaultdict(list)
        self.rungs_failed = 0

    def add(self, name: str, tick_id: int, parent: Optional[str], start: float, end: float):
        if tick_id >= 0:  # negative ticks are a rung's untraced warm-up
            self.spans.append((name, tick_id, parent, start, end))

    def count(self, name: str, tick_id: int, rows: int) -> None:
        if tick_id >= 0:
            self.rows[name].append(rows)

    def span(self, name: str, tick_id: int, parent: Optional[str]) -> "_Span":
        return _Span(self, name, tick_id, parent)

    @contextlib.contextmanager
    def calibrated(self):
        """Spans recorded inside are scaled by the box's slowdown over the block."""
        first = len(self.spans)
        timed = self.speed.timed()
        try:
            with timed:
                yield
        finally:
            self.slowdown.extend([timed.slowdown] * (len(self.spans) - first))

    def per_tick_ms(self, name: str, reduce=sum) -> Dict[int, float]:
        """Per tick, the calibrated durations of the spans called ``name``,
        summed (the calls one tick makes) unless another ``reduce`` is given."""
        found: Dict[int, List[float]] = defaultdict(list)
        for (span_name, tick_id, _, start, end), slow in zip(self.spans, self.slowdown):
            if span_name == name:
                found[tick_id].append((end - start) * 1e3 / slow)
        return {tick: float(reduce(values)) for tick, values in found.items()}

    def median_ms(self, name: str, minus: List[str] = ()) -> float:
        """Median over ticks of ``name`` minus the ``minus`` spans (self time)."""
        own = self.per_tick_ms(name)
        below = [self.per_tick_ms(other) for other in minus]
        ticks = [t for t in own if all(t in b for b in below)]
        if not ticks:
            return 0.0
        return float(np.median([own[t] - sum(b[t] for b in below) for t in ticks]))

    def mean_rows(self, name: str) -> float:
        return float(np.mean(self.rows[name])) if self.rows[name] else 0.0

    def rung(self, fn: Callable, *args) -> None:
        """Run one rung; a failing rung costs its own metrics only."""
        try:
            with self.calibrated():
                fn(self, *args)
        except Exception:  # a layer's entry point may be refactored away
            self._rung_failed(fn)

    async def async_rung(self, fn: Callable, *args) -> None:
        try:
            with self.calibrated():
                await fn(self, *args)
        except Exception:
            self._rung_failed(fn)

    def _rung_failed(self, fn: Callable) -> None:
        self.rungs_failed += 1
        print(f"ladder rung {fn.__name__} failed:", file=sys.stderr)
        traceback.print_exc()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, tick_id, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": name.split(".")[0],
                            "workload": self.workload,
                            "tick_id": tick_id,
                            "parent": parent,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name", "tick_id", "parent", "start")

    def __init__(self, tracer, name, tick_id, parent) -> None:
        self.tracer, self.name, self.tick_id, self.parent = tracer, name, tick_id, parent

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer.add(self.name, self.tick_id, self.parent, self.start, time.perf_counter())


# ---------------------------------------------------------------------- #
# leaves: the calls PreprocessingPipeline.process_chunk makes, one by one
# ---------------------------------------------------------------------- #


class LeafStream:
    """One session's chunk stream through denoise / extract / normalize.

    Mirrors ``process_chunk``'s two modes through public calls: at the
    non-overlapping stride each completed window is denoised in isolation
    (``apply_batch``); otherwise the continuous signal goes through the
    denoiser's ``make_stream().push`` and a carried tail.
    """

    def __init__(self, pipeline, stride: int, dtype) -> None:
        self.pipeline = pipeline
        self.stride = stride
        self.dtype = dtype
        self.windowed = stride == pipeline.window_len
        self.denoiser_stream = None if self.windowed else pipeline.denoiser.make_stream()
        self.tail: Optional[np.ndarray] = None

    def push(self, tracer: Tracer, tick: int, chunk: np.ndarray) -> np.ndarray:
        pipeline, w, s = self.pipeline, self.pipeline.window_len, self.stride
        parent = "pipeline.process_chunk"
        if self.windowed:
            buffer = chunk if self.tail is None else np.concatenate([self.tail, chunk])
            k = buffer.shape[0] // w
            self.tail = buffer[k * w :]
            with tracer.span("denoise.apply", tick, parent):
                span = pipeline.denoiser.apply_batch(
                    buffer[: k * w].reshape(k, w, -1)
                ).reshape(k * w, -1)
        else:
            with tracer.span("denoise.apply", tick, parent):
                emitted = self.denoiser_stream.push(chunk)
            buffer = emitted if self.tail is None else np.concatenate([self.tail, emitted])
            k = 0 if buffer.shape[0] < w else (buffer.shape[0] - w) // s + 1
            self.tail = buffer[k * s :]
            span = buffer[: (k - 1) * s + w] if k else buffer[:0]
        with tracer.span("features.extract", tick, parent):
            raw = pipeline.streaming_extractor.extract(span, w, stride=s, dtype=self.dtype)
        tracer.count("features.extract", tick, raw.shape[0])
        with tracer.span("normalize.transform", tick, parent):
            return pipeline.normalizer.transform(raw)


def verdict_leaf(tracer: Tracer, tick: int, engine, features: np.ndarray) -> None:
    """``infer_embeddings`` on the rows ``infer_features`` would embed."""
    embeddings = engine.embedder.embed(features)
    with tracer.span("ncm.verdict", tick, "engine.infer_features"):
        engine.infer_embeddings(embeddings)


# ---------------------------------------------------------------------- #
# edge_tick
# ---------------------------------------------------------------------- #

EDGE_LADDER_PASSES = 2


def _edge_top(tracer, ctx, edge, chunks, base):
    session = edge.open_stream(stride=ctx.cfg["stride"], dtype=ctx.np_dtype)
    for i, chunk in enumerate(chunks):
        with tracer.span("edge.infer_chunk", base + i, None):
            edge.infer_chunk(session, chunk)
    edge.finish_stream(session)


def _edge_engine(tracer, ctx, edge, chunks, base):
    engine = edge.engine
    session = engine.open_stream(stride=ctx.cfg["stride"], dtype=ctx.np_dtype)
    for i, chunk in enumerate(chunks):
        with tracer.span("engine.infer_chunk", base + i, "edge.infer_chunk"):
            engine.infer_chunk(session, chunk)
    engine.finish_stream(session)


def _edge_pipeline(tracer, ctx, edge, chunks, base):
    engine = edge.engine
    state = engine.pipeline.open_stream(stride=ctx.cfg["stride"], dtype=ctx.np_dtype)
    for i, chunk in enumerate(chunks):
        with tracer.span("pipeline.process_chunk", base + i, "engine.infer_chunk"):
            features = engine.pipeline.process_chunk(state, chunk)
        tracer.count("engine.infer_features", base + i, features.shape[0])
        with tracer.span("engine.infer_features", base + i, "engine.infer_chunk"):
            engine.infer_features(features, dtype=ctx.np_dtype)


def _edge_leaves(tracer, ctx, edge, chunks, base):
    engine = edge.engine
    leaf = LeafStream(engine.pipeline, ctx.cfg["stride"], ctx.np_dtype)
    for i, chunk in enumerate(chunks):
        verdict_leaf(tracer, base + i, engine, leaf.push(tracer, base + i, chunk))


def edge_tick_ladder(ctx, edge, chunks) -> None:
    tracer = ctx.tracer
    for p in range(EDGE_LADDER_PASSES):
        for rung in (_edge_top, _edge_engine, _edge_pipeline, _edge_leaves):
            tracer.rung(rung, ctx, edge, chunks, p * len(chunks))


# ---------------------------------------------------------------------- #
# edge_learn: one learn + one calibrate, then the same two updates taken
# apart into the calls IncrementalLearner makes
# ---------------------------------------------------------------------- #


def _update_whole(tracer, ctx, recordings):
    edge = wl.fresh_edge(ctx, rng=0)
    with tracer.span("edge.update", 0, None):
        edge.learn_activity(sc.NEW_ACTIVITY, recordings[0])
    with tracer.span("edge.update", 1, None):
        edge.calibrate_activity(sc.CALIBRATED_ACTIVITY, recordings[1])


def _update_parts(tracer, ctx, recordings):
    from repro.core.incremental import IncrementalConfig
    from repro.core.ncm import NCMClassifier
    from repro.nn.siamese import SiameseTrainer

    edge = wl.fresh_edge(ctx, rng=0)
    embedder, support = edge.embedder, edge.support_set
    updates = (
        (sc.NEW_ACTIVITY, support.add_class),
        (sc.CALIBRATED_ACTIVITY, support.replace_class),
    )
    for tick, ((name, update), recording) in enumerate(zip(updates, recordings)):
        with tracer.span("pipeline.process_recording", tick, "edge.update"):
            features = edge.pipeline.process_recording(recording)
        with tracer.span("support_set.update", tick, "edge.update"):
            update(name, features, embedder=embedder)
        with tracer.span("nn.clone", tick, "edge.update"):
            teacher = embedder.clone()
        with tracer.span("nn.train", tick, "edge.update"):
            SiameseTrainer(IncrementalConfig().train, rng=tick).train(
                embedder, *support.training_set(), teacher=teacher
            )
        with tracer.span("ncm.refit", tick, "edge.update"):
            NCMClassifier().fit_from_support_set(embedder, support)


def edge_learn_ladder(ctx) -> None:
    device = sc.sensor(ctx.user, ctx.seed, 3000)
    recordings = (
        device.record(sc.NEW_ACTIVITY, sc.LEARN_SECONDS),
        device.record(sc.CALIBRATED_ACTIVITY, sc.LEARN_SECONDS),
    )
    ctx.tracer.rung(_update_whole, ctx, recordings)
    ctx.tracer.rung(_update_parts, ctx, recordings)


# ---------------------------------------------------------------------- #
# gateway_lockstep / gateway_bulk
# ---------------------------------------------------------------------- #


def _groups(devices) -> List[List]:
    """Per-(cohort, stride) groups, as ``GatewayServer._group_batch`` cuts them."""
    by_cohort: Dict[str, List] = defaultdict(list)
    for device in devices:
        by_cohort[device.cohort].append(device)
    return list(by_cohort.values())


def _connect_all(fleet, ctx, devices) -> None:
    for device in devices:
        fleet.connect(device.name, cohort=device.cohort, dtype=ctx.cfg["dtype"])


async def _rung_async_fleet(tracer, ctx, registry, devices, inputs):
    from repro.serving import AsyncFleetServer

    # the geometry GatewayServer builds when it owns its fleet
    async with AsyncFleetServer(registry, workers=2, max_inflight=8) as fleet:
        _connect_all(fleet, ctx, devices)
        groups = _groups(devices)
        for tick, chunks in inputs:
            with tracer.span("async_fleet.tick", tick, "gateway.rtt"):
                await asyncio.gather(
                    *(
                        fleet.step_stream(
                            {d.name: chunks[d.name] for d in group},
                            stride=ctx.cfg["stride"],
                        )
                        for group in groups
                    )
                )


def _rung_fleet(tracer, ctx, registry, devices, inputs, verdicts_out):
    from repro.serving import FleetServer

    fleet = FleetServer(registry)
    _connect_all(fleet, ctx, devices)
    groups = _groups(devices)
    for tick, chunks in inputs:
        for group in groups:
            with tracer.span("fleet.step_stream", tick, "async_fleet.tick"):
                served = fleet.step_stream(
                    {d.name: chunks[d.name] for d in group}, stride=ctx.cfg["stride"]
                )
            tracer.count("fleet.step_stream", tick, sum(len(v) for v in served.values()))
            verdicts_out[tick].update(served)


def _rung_pipeline(tracer, ctx, registry, devices, inputs, leaves: bool):
    stride, dtype = ctx.cfg["stride"], ctx.np_dtype
    streams = {}
    for device in devices:
        pipeline = registry.engine_for(device.cohort).pipeline
        streams[device.name] = (
            LeafStream(pipeline, stride, dtype)
            if leaves
            else pipeline.open_stream(stride=stride, dtype=dtype)
        )
    groups = _groups(devices)
    for tick, chunks in inputs:
        for group in groups:
            engine = registry.engine_for(group[0].cohort)
            blocks = []
            for device in group:
                if leaves:
                    blocks.append(streams[device.name].push(tracer, tick, chunks[device.name]))
                else:
                    with tracer.span("pipeline.process_chunk", tick, "fleet.step_stream"):
                        blocks.append(
                            engine.pipeline.process_chunk(
                                streams[device.name], chunks[device.name]
                            )
                        )
            rows = np.concatenate(blocks, axis=0)
            if leaves:
                verdict_leaf(tracer, tick, engine, rows)
            else:
                tracer.count("engine.infer_features", tick, rows.shape[0])
                with tracer.span("engine.infer_features", tick, "fleet.step_stream"):
                    engine.infer_features(rows, dtype=dtype)


def _rung_protocol(tracer, ctx, devices, inputs, verdicts):
    from repro.serving.gateway import BinaryFrameCodec, chunk_frame, verdict_frame

    codec = BinaryFrameCodec()
    for tick, chunks in inputs:
        for seq, device in enumerate(devices):
            with tracer.span("protocol.encode_chunk", tick, "gateway.rtt"):
                wire = codec.encode(chunk_frame(seq, chunks[device.name]))
            tracer.count("protocol.chunk_bytes", tick, len(wire))
            with tracer.span("protocol.decode_chunk", tick, "gateway.rtt"):
                codec.feed(wire)
            with tracer.span("protocol.encode_verdict", tick, "gateway.rtt"):
                wire = codec.encode(verdict_frame(seq, verdicts[tick].get(device.name, [])))
            tracer.count("protocol.verdict_bytes", tick, len(wire))
            with tracer.span("protocol.decode_verdict", tick, "gateway.rtt"):
                codec.feed(wire)


async def gateway_ladder(ctx, devices) -> None:
    """Top rung over TCP against the live child, then the in-process rungs."""
    tracer = ctx.tracer
    if ctx.cfg["loop"] == "open":
        return  # gateway_paced reports the loadgen.* and gateway.* counters only
    ticks = ctx.round_ticks
    # the chunks the TCP rung is about to send, tick by tick
    inputs = [
        (t, {d.name: d.chunks[(d.pos + t) % len(d.chunks)] for d in devices})
        for t in range(ticks)
    ]

    def span_for(tick, device):
        return lambda start, end: tracer.add("gateway.rtt", tick, None, start, end)

    with tracer.calibrated():
        await wl.closed_round(devices, ticks, span_for)
    registry = sc.build_registry(ctx.package_path)
    warm = [(-1, inputs[-1][1])]
    verdicts: Dict[int, Dict] = defaultdict(dict)
    await tracer.async_rung(_rung_async_fleet, ctx, registry, devices, warm + inputs)
    tracer.rung(_rung_fleet, ctx, registry, devices, warm + inputs, verdicts)
    tracer.rung(_rung_pipeline, ctx, registry, devices, warm + inputs, False)
    tracer.rung(_rung_pipeline, ctx, registry, devices, warm + inputs, True)
    tracer.rung(_rung_protocol, ctx, devices, inputs, verdicts)


# ---------------------------------------------------------------------- #
# spans -> per-layer metrics
# ---------------------------------------------------------------------- #

PROTOCOL_SPANS = (
    "protocol.encode_chunk", "protocol.decode_chunk",
    "protocol.encode_verdict", "protocol.decode_verdict",
)
LEAF_SPANS = ("denoise.apply", "features.extract", "normalize.transform", "ncm.verdict")


def layer_metrics(tracer: Tracer, kind: str, untraced_top_ms: float) -> Dict[str, float]:
    """Every span-derived per-layer metric of one workload (ms per tick)."""
    m = tracer.median_ms
    out: Dict[str, float] = {"trace.rungs_failed": tracer.rungs_failed, "trace.spans": len(tracer.spans)}
    if kind == "edge_learn":
        parts = ["pipeline.process_recording", "support_set.update", "nn.clone", "nn.train", "ncm.refit"]
        top = m("edge.update")
        out.update({
            "pipeline.recording_ms": m("pipeline.process_recording"),
            "support_set.update_ms": m("support_set.update"),
            "nn.clone_ms": m("nn.clone"),
            "nn.train_s": m("nn.train") / 1e3,
            "ncm.refit_ms": m("ncm.refit"),
            "edge.learn_self_ms": m("edge.update", parts),
        })
        leaves = sum(m(p) for p in parts)
    else:
        pipeline = ["denoise.apply", "features.extract", "normalize.transform"]
        out.update({
            "pipeline.chunk_ms": m("pipeline.process_chunk"),
            "pipeline.self_ms": m("pipeline.process_chunk", pipeline),
            "denoise.apply_ms": m("denoise.apply"),
            "features.extract_ms": m("features.extract"),
            "features.windows": tracer.mean_rows("features.extract"),
            "normalize.transform_ms": m("normalize.transform"),
            "engine.features_ms": m("engine.infer_features"),
            "ncm.verdict_ms": m("ncm.verdict"),
            # the forward pass is what infer_features does beyond infer_embeddings
            "nn.embed_ms": m("engine.infer_features", ["ncm.verdict"]),
            "nn.rows_per_call": tracer.mean_rows("engine.infer_features"),
        })
        leaves = sum(m(p) for p in LEAF_SPANS) + out["nn.embed_ms"]
        if kind == "edge_tick":
            top = m("edge.infer_chunk")
            out["engine.chunk_ms"] = m("engine.infer_chunk")
            out["engine.self_ms"] = m(
                "engine.infer_chunk", ["pipeline.process_chunk", "engine.infer_features"]
            )
        else:
            # a tick's RTTs overlap the same served tick: take their median
            rtt = tracer.per_tick_ms("gateway.rtt", reduce=np.median)
            top = float(np.median(list(rtt.values()))) if rtt else 0.0
            below = ["pipeline.process_chunk", "engine.infer_features"]
            protocol_ms = sum(m(p) for p in PROTOCOL_SPANS)
            calls = max(1, len(tracer.rows["protocol.chunk_bytes"]))
            ticks = max(1, len(rtt))
            out.update({
                "async_fleet.tick_ms": m("async_fleet.tick"),
                "async_fleet.self_ms": m("async_fleet.tick", ["fleet.step_stream"]),
                "fleet.tick_ms": m("fleet.step_stream"),
                "fleet.self_ms": m("fleet.step_stream", below),
                "fleet.windows_per_tick": float(np.sum(tracer.rows["fleet.step_stream"])) / ticks,
                "fleet.engine_calls_per_tick": len(tracer.rows["engine.infer_features"]) / ticks,
                "gateway.self_ms": top - m("async_fleet.tick") - protocol_ms,
                "protocol.chunk_bytes": tracer.mean_rows("protocol.chunk_bytes"),
                "protocol.verdict_bytes": tracer.mean_rows("protocol.verdict_bytes"),
            })
            for name in PROTOCOL_SPANS:
                # per frame, in microseconds
                total = sum(tracer.per_tick_ms(name).values())
                out[name + "_us"] = total * 1e3 / calls
            leaves += protocol_ms
    out["trace.top_rung_ratio"] = top / untraced_top_ms if untraced_top_ms else 0.0
    out["trace.unattributed_share"] = (top - leaves) / top if top else 0.0
    return out
