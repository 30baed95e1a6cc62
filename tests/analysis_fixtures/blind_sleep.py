"""Fixture: sleeping where the serving core should wait on an event.  Never
imported; parsed by reprolint in tests *as* ``serving/gateway/server.py``.
Expected: 3x blind-sleep; a literal ``sleep(0)`` yield, the event wait with
a deadline and the sync helper are legal."""

import asyncio
from asyncio import sleep as nap


async def flush_loop(wake, pending, window_s):
    await wake.wait()
    if not pending.ready():
        await asyncio.sleep(window_s)  # blind-sleep: deaf to the next arrival
    return pending.drain()


async def release(fleet, session_id):
    while fleet.busy(session_id):
        await asyncio.sleep(0.01)  # blind-sleep: a poll, not a wait
    await nap(0.5)  # blind-sleep: the alias is the same sleep


async def flush_on_event(wake, deadline):
    loop = asyncio.get_running_loop()
    timer = loop.call_at(deadline, wake.set)
    await wake.wait()  # fine: woken by an arrival or by the deadline
    timer.cancel()
    await asyncio.sleep(0)  # fine: a bare yield to the loop


def sync_helper():
    return asyncio.sleep(1.0)  # fine: not on the event loop here
