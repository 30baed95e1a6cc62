"""Fixture: idiomatic code that every checker should pass untouched.
Expected: 0 violations."""

import asyncio

import numpy as np

from repro.exceptions import DataShapeError


class WindowStreamState:
    def __init__(self, chunk: np.ndarray) -> None:
        self.tail = chunk.copy()

    def pending(self) -> np.ndarray:
        return self.tail.copy()


def validate(windows: np.ndarray) -> np.ndarray:
    if windows.ndim != 3:
        raise DataShapeError(f"expected 3-D, got {windows.ndim}-D")
    return windows


async def tick(engine, windows):
    await asyncio.sleep(0)
    return engine.infer_windows(validate(windows))
