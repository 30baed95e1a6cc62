"""Fixture: a Butterworth low-pass that re-derives its design per call.  Never
imported; parsed by reprolint in tests *as*
``src/repro/preprocessing/denoise.py``.  ``apply_batch`` is the zero-phase
filter as it used to be written (``filtfilt`` re-solves ``lfilter_zi``
on every call).  Expected: 4x per-call-design; the design solved in
``__init__``, at module scope and in a class body is legal."""

import numpy as np
from scipy import signal as _signal
from scipy.signal import lfilter_zi

UNIT_BA = _signal.butter(2, 0.25)  # fine: module scope runs once


class ButterworthLowpass:
    def __init__(self, cutoff_hz=30.0, sampling_hz=120.0, order=4):
        self._ba = _signal.butter(order, cutoff_hz, fs=sampling_hz)  # fine

        def pole_radius():
            return np.max(np.abs(np.roots(self._ba[1])))  # per-call-design: runs per call

        self._radius = pole_radius

    def apply_batch(self, windows):
        b, a = self._ba
        min_len = 3 * max(len(a), len(b))
        if windows.shape[1] <= min_len:
            return windows.copy()
        return _signal.filtfilt(b, a, windows, axis=1)  # per-call-design: re-solves zi

    def make_stream(self):
        return lfilter_zi(*self._ba)  # per-call-design: imported name


class Stream:
    ZI = lfilter_zi(*UNIT_BA)  # fine: class body runs once

    def reset(self, a):
        self.rho = max(abs(r) for r in np.roots(a))  # per-call-design: re-roots a
