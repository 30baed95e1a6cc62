"""Fixture: blocking waits on the event loop.  Never imported; parsed by
reprolint in tests.  Expected: 1x async-blocking (time.sleep); the inline
engine call, the sync closure and the sync path are legal."""

import asyncio
import time


async def tick(engine, windows):
    time.sleep(0.01)  # async-blocking: blocks the event loop
    batch = engine.infer_windows(windows)  # fine: a tick's compute runs inline
    await asyncio.sleep(0)
    return batch


async def tick_via_executor(engine, windows):
    def payload():
        time.sleep(0.01)  # fine: an executor payload, off the event loop
        return engine.infer_windows(windows)

    return await asyncio.get_running_loop().run_in_executor(None, payload)


def sync_path(engine, windows):
    time.sleep(0.01)  # fine: not on the event loop
    return engine.infer_windows(windows)  # fine: the sync path may block
