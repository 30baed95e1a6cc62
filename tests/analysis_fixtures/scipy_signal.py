"""Fixture: a library module that imports the ``scipy.signal`` package.
Never imported; parsed by reprolint in tests *as*
``src/repro/preprocessing/denoise.py``.  Expected: 7x scipy-signal, at
every scope; other scipy submodules and a bare ``import scipy`` are not
this rule's business."""

import numpy as np
import scipy  # fine: loads no submodule
import scipy.signal  # scipy-signal: dotted import
from scipy import ndimage, signal  # scipy-signal: from-import among others
from scipy.signal import lfilter  # scipy-signal: from the package
from scipy.ndimage import median_filter  # fine here: another submodule


class Lowpass:
    from scipy.signal import butter  # scipy-signal: a class body

    def apply(self, x):
        import scipy.signal as sig  # scipy-signal: inside a function

        return sig.filtfilt(*self.butter(2, 0.25), np.asarray(x))


def _kernel():
    from scipy.signal._sigtools import _linear_filter  # scipy-signal: a submodule

    return _linear_filter


def smooth(x):
    try:
        from scipy import signal as _signal  # scipy-signal: lazily, still the package
    except ImportError:
        return median_filter(x, 3)
    return _signal.medfilt(x, 3)


VERSION = scipy.__version__
