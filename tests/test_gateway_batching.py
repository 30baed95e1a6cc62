"""The gateway's micro-batch wait: who is waited for, and for how long.

Every test serves through an in-process ``GatewayServer`` whose batch
window (0.5 s) is ~100x a tick, and asserts with a 5-10x margin on either
side of it: a chunk that must not wait returns in < 0.1 s, a chunk that
must wait one window returns in 0.4-0.9 s.  Nothing here is a stopwatch:
a flusher that sleeps the window whenever some live session has not
parked misses these bounds by the whole window.

In every scenario the verdicts each session got over the wire equal
``FleetServer`` serving the same chunks in-process (rows exact,
scores 1e-9): the policy decides *when* ``step_stream`` runs and with
whom, never what a session contributes to it.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.sensors import SensorDevice
from repro.serving import FleetServer, ModelRegistry
from repro.serving.gateway import GatewayClient, GatewayServer

from test_stacked_ticks import (  # noqa: F401  (served_rows is a fixture)
    W,
    _assert_same_service,
    drive,
    served_rows,
)

WINDOW_S = 0.5
PROMPT_S = 0.1  # "did not wait": a tick is ~2 ms, the window 500
COHORTS = ("a", "b")


@pytest.fixture(scope="module")
def registry(scenario):
    registry = ModelRegistry(default_cohort="a")
    registry.publish("a", scenario.fresh_edge(rng=1).engine)
    registry.publish("b", scenario.fresh_edge(rng=2).engine)
    return registry


@pytest.fixture(scope="module")
def recordings():
    """Four devices x 12 one-window chunks, each from its own generator."""
    out = {}
    for i in range(4):
        data = np.concatenate(
            [
                SensorDevice(rng=700 + i).record(activity, 4.0).data
                for activity in ("walk", "run", "still")
            ],
            axis=0,
        )
        out[f"s{i}"] = [data[k : k + W] for k in range(0, data.shape[0], W)]
    return out


def _cohort(sid):
    return COHORTS[int(sid[1:]) % len(COHORTS)]


class _Fleet:
    """Clients of one gateway, remembering what each session sent and got."""

    def __init__(self, gateway, recordings):
        self.gateway = gateway
        self.recordings = recordings
        self.clients = {}
        self.sent = {}
        self.got = {}
        self.finished = set()

    async def connect(self, *sids):
        for sid in sids:
            client = GatewayClient(self.gateway.host, self.gateway.port)
            await client.connect(sid, cohort=_cohort(sid))
            self.clients[sid] = client
            self.sent[sid] = []
            self.got[sid] = []

    async def tick(self, sid):
        """Send ``sid``'s next chunk; seconds until its verdict returned."""
        chunk = self.recordings[sid][len(self.sent[sid])]
        self.sent[sid].append(chunk)
        start = time.perf_counter()
        self.got[sid].extend(await self.clients[sid].send_chunk(chunk))
        return time.perf_counter() - start

    async def lockstep(self, *sids):
        """One gathered tick; seconds until the last verdict returned."""
        return max(await asyncio.gather(*(self.tick(sid) for sid in sids)))

    async def finish(self, *sids):
        for sid in sids:
            self.got[sid].extend(await self.clients[sid].finish())
            self.finished.add(sid)
            await self.clients[sid].aclose()


def _reference(registry, sent, finished):
    """The same chunks per session, served in-process."""
    got = {sid: [] for sid in sent}
    server = FleetServer(registry)
    for sid in sent:
        server.connect(sid, cohort=_cohort(sid))
    for tick in range(max(len(chunks) for chunks in sent.values())):
        chunks = {
            sid: c[tick] for sid, c in sent.items() if tick < len(c)
        }
        for sid, verdicts in server.step_stream(chunks).items():
            got[sid].extend(verdicts)
    for sid in finished.intersection(sent):
        got[sid].extend(server.finish_stream(sid))
    return got


def _serve(registry, recordings, served_rows, scenario_body):
    """Run ``scenario_body(fleet, gateway)`` against a live gateway, then
    check every session's verdicts against in-process serving.

    Returns ``(body's result, gateway.summary() at the end)``.
    """

    async def body():
        async with GatewayServer(registry, batch_window_s=WINDOW_S) as gateway:
            fleet = _Fleet(gateway, recordings)
            result = await scenario_body(fleet, gateway)
            return result, gateway.summary(), fleet

    result, summary, fleet = drive(body())
    rows_gateway = {k: list(v) for k, v in served_rows.items()}
    served_rows.clear()
    sent = {sid: chunks for sid, chunks in fleet.sent.items() if chunks}
    reference = _reference(registry, sent, fleet.finished)
    for sid in sent:
        _assert_same_service(
            reference, fleet.got, served_rows, rows_gateway, sid=sid
        )
    return result, summary


class TestWhoIsWaitedFor:
    def test_silent_sessions_hold_nobody_up(
        self, registry, recordings, served_rows
    ):
        """One sender among three connected-but-silent sessions."""

        async def scenario_body(fleet, gateway):
            await fleet.connect("s0", "s1", "s2", "s3")
            # a session is presumed about to send for one slack after its
            # WELCOME; these three never do
            await asyncio.sleep(WINDOW_S + 0.1)
            took = [await fleet.tick("s0") for _ in range(6)]
            await fleet.finish("s0", "s1", "s2", "s3")
            return took

        took, summary = _serve(registry, recordings, served_rows, scenario_body)
        assert max(took) < PROMPT_S
        assert summary["flushes"] == 6
        assert summary["flush_waits"] == 0

    def test_lockstep_clients_share_every_tick(
        self, registry, recordings, served_rows
    ):
        """4 clients x 10 gathered ticks over 2 cohorts: each flush is
        one fleet tick across both cohorts, so 10 fleet ticks."""
        sids = ("s0", "s1", "s2", "s3")

        async def scenario_body(fleet, gateway):
            await fleet.connect(*sids)
            start = time.perf_counter()
            for _ in range(10):
                await fleet.lockstep(*sids)
            took = time.perf_counter() - start
            await fleet.finish(*sids)
            return took

        took, summary = _serve(registry, recordings, served_rows, scenario_body)
        assert took < 1.0
        assert summary["ticks"] == summary["flushes"] == 10
        assert summary["flush_deadline_expiries"] == 0

    def test_straggler_costs_one_window_once(
        self, registry, recordings, served_rows
    ):
        """A session in lockstep goes silent with its socket open."""
        everyone = ("s0", "s1", "s2", "s3")
        others = everyone[:3]

        async def scenario_body(fleet, gateway):
            await fleet.connect(*everyone)
            for _ in range(3):
                await fleet.lockstep(*everyone)
            waited = await fleet.lockstep(*others)  # s3 is awaited ...
            after = [await fleet.lockstep(*others) for _ in range(3)]
            await fleet.finish(*others)
            await fleet.tick("s3")  # ... and is served when it does send
            await fleet.finish("s3")
            return waited, after

        (waited, after), summary = _serve(
            registry, recordings, served_rows, scenario_body
        )
        assert 0.8 * WINDOW_S < waited < WINDOW_S + 0.4
        assert max(after) < PROMPT_S
        assert 0.8 * WINDOW_S * 1e3 < summary["flush_wait_ms_total"]
        assert summary["flush_wait_ms_total"] < (WINDOW_S + 0.4) * 1e3

    def test_disconnect_releases_parked_chunks(
        self, registry, recordings, served_rows
    ):
        """Closing an awaited session's socket flushes who waited for it."""

        async def scenario_body(fleet, gateway):
            await fleet.connect("s0", "s1", "s2")
            for _ in range(2):
                await fleet.lockstep("s0", "s1", "s2")
            parked = asyncio.ensure_future(fleet.lockstep("s0", "s1"))
            await asyncio.sleep(0.05)
            assert not parked.done()  # waiting for s2, who is about to send
            start = time.perf_counter()
            await fleet.clients["s2"].aclose()
            await parked
            took = time.perf_counter() - start
            await fleet.finish("s0", "s1")
            return took

        took, summary = _serve(registry, recordings, served_rows, scenario_body)
        assert took < PROMPT_S
        assert summary["flush_deadline_expiries"] == 0


class TestEverySessionIsReaped:
    def test_no_per_session_state_survives_disconnect(
        self, registry, recordings
    ):
        """connect -> chunk -> disconnect, N times: nothing is left behind."""

        async def body():
            async with GatewayServer(registry) as gateway:
                for i in range(12):
                    sid = f"s{i % 4}"
                    client = GatewayClient(gateway.host, gateway.port)
                    await client.connect(f"cycle-{i}", cohort=_cohort(sid))
                    await client.send_chunk(recordings[sid][0])
                    await client.aclose()  # no FINISH: the client just goes
                for _ in range(200):
                    if not gateway.fleet.sessions:
                        break
                    await asyncio.sleep(0.01)
                return (
                    dict(gateway._live_sessions),
                    dict(gateway._pending),
                    dict(gateway.fleet.sessions),
                    gateway.summary()["live_sessions"],
                )

        assert drive(body()) == ({}, {}, {}, 0.0)


class TestLoadgenCountsEveryWindow:
    def test_devices_finishing_at_different_times(self, registry, recordings):
        """``run_load`` counts a slow device's windows served while a fast
        device's FINISH is in flight (sessions no longer end in lockstep)."""
        from repro.serving.gateway import run_load

        schedules = {"s0": recordings["s0"][:1], "s1": recordings["s1"][:8]}

        async def body():
            async with GatewayServer(registry, batch_window_s=0.0) as gateway:
                report = await run_load(
                    gateway.host, gateway.port, schedules,
                    cohorts={sid: _cohort(sid) for sid in schedules},
                )
                return report.windows_served, gateway.summary()

        served, summary = drive(body())
        assert served == summary["windows_served"] == 9
