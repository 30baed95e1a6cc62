"""Fixture: a library module that imports scipy submodules at import time.
Never imported; parsed by reprolint in tests *as*
``src/repro/preprocessing/denoise.py``.  Expected: 6x eager-scipy; a bare
``import scipy`` and imports inside functions are legal."""

import numpy as np
import scipy  # fine: loads no submodule
import scipy.signal  # eager-scipy: dotted import
import scipy.ndimage as ndi  # eager-scipy: aliased
from scipy import signal as _signal  # eager-scipy: from-import of a submodule
from scipy.ndimage import median_filter  # eager-scipy: from a submodule

try:
    from scipy.special import erf  # eager-scipy: a try block runs at import
except ImportError:
    erf = None


class Spectrum:
    from scipy import fft  # eager-scipy: a class body runs at import

    def apply(self, x):
        import scipy.signal  # fine: paid by the first call

        return scipy.signal.detrend(np.asarray(x))


def smooth(x):
    from scipy.ndimage import uniform_filter1d  # fine: inside a function

    return uniform_filter1d(x, 3)


VERSION = scipy.__version__
