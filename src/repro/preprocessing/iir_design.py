"""The Butterworth design in numpy, bit for bit scipy 1.17's.

``scipy.signal`` costs 0.8-1.0 s and 75 MB to import, and the
preprocessing needs one routine of it after the design: the compiled
``lfilter`` kernel, which :mod:`~repro.preprocessing.denoise` loads on
its own.  This module computes the design with numpy alone, so no
process imports ``scipy.signal``, at any stride:

- :func:`butter` — the low-pass ``scipy.signal.butter(order, cutoff_hz,
  fs=sampling_hz)``: ``buttap``, ``lp2lp_zpk``, ``bilinear_zpk`` and
  ``zpk2tf``;
- :func:`lfilter_zi` — ``scipy.signal.lfilter_zi(b, a)``;
- :func:`design_lfilter` — ``scipy.signal.lfilter(b, a, x, axis=0,
  zi=zi)`` for 2-D ``x``, as a Python loop over the samples.

Each ports scipy's operations in scipy's order, so its result is scipy's,
bit for bit (``tests/test_preprocessing_design.py`` pins it over a grid of
orders, rates and cutoffs).  :func:`design_lfilter` steps one sample per
Python iteration: 10x slower than ``lfilter`` on a window operator's 120
columns and 60-90x on a tick's 15 (2-vCPU VM, one BLAS thread).  It
builds window operators at design time and nothing else (reprolint
``per-call-design`` flags it anywhere but a constructor or
``window_operator``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _poly(zeros: np.ndarray) -> np.ndarray:
    """scipy's ``_polyutils.poly``: the monic polynomial with these roots,
    real when the roots come in conjugate pairs."""
    a = np.ones((1,), dtype=zeros.dtype)
    one = np.ones_like(zeros[0])
    for zero in zeros:
        a = np.convolve(a, np.stack((one, -zero)), mode="full")
    if np.iscomplexobj(a):
        roots = np.asarray(zeros, dtype=np.complex128)
        if np.all(np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))):
            a = np.real(a).copy()
    return a


def butter(
    order: int, cutoff_hz: float, fs: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.butter(order, cutoff_hz, btype="low", fs=fs)``.

    Returns the transfer-function coefficients ``(b, a)``.  The caller
    checks that ``0 < cutoff_hz < fs / 2`` and ``order >= 1``.
    """
    fs = float(fs)
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (fs / 2)
    # buttap: the analog prototype, cutoff 1 rad/s
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    z = np.asarray([], dtype=np.float64)
    k = 1.0
    # pre-warp for the bilinear transform at fs = 2
    fs = 2.0
    warped = 2 * fs * np.tan(np.pi * wn / fs)
    # lp2lp_zpk
    wo = float(warped)
    degree = p.shape[0] - z.shape[0]
    z = wo * z
    p = wo * p
    k = k * wo**degree
    # bilinear_zpk
    fs2 = 2.0 * fs
    z_z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree)))
    p_z = (fs2 + p) / (fs2 - p)
    k_z = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    # zpk2tf
    k_z = np.asarray(k_z, dtype=np.result_type(np.real(z_z), np.real(p_z), k_z))
    b = np.multiply(np.atleast_1d(k_z), _poly(z_z))
    a = np.atleast_1d(_poly(p_z))
    return b, a


def lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``scipy.signal.lfilter_zi(b, a)`` for 1-D ``b`` and monic ``a``
    (``a[0] == 1``, as :func:`butter` returns it): the filter state of the
    unit step response's steady state, solved from the companion matrix."""
    n = max(a.shape[0], b.shape[0])
    if a.shape[0] < n:
        a = np.concatenate((a, np.zeros(n - a.shape[0], dtype=a.dtype)))
    elif b.shape[0] < n:
        b = np.concatenate((b, np.zeros(n - b.shape[0], dtype=b.dtype)))
    companion = np.zeros((n - 1, n - 1))
    companion[0, :] = -a[1:] / (1.0 * a[0:1])
    companion[np.arange(1, n - 1), np.arange(0, n - 2)] = 1
    return np.linalg.solve(np.eye(n - 1) - companion.T, b[1:] - a[1:] * b[0])


def design_lfilter(
    b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.lfilter(b, a, x, axis=0, zi=zi)`` for 2-D ``x``.

    The direct form II transposed recursion in the order of scipy's C
    loop, every column at once: per sample, ``y = z[0] + b[0]*x``, then
    ``z[i] = (z[i+1] + x*b[i+1]) - y*a[i+1]`` and ``z[-1] = x*b[-1] -
    y*a[-1]``.  ``b`` and ``a`` have one length and ``a`` is monic (scipy
    divides both by ``a[0]`` first, exact for 1); ``zi`` is ``(len(a) -
    1, columns)``.  Returns ``(y, zf)``, ``y`` C-ordered like
    ``lfilter``'s.
    """
    state = [row.copy() for row in zi]
    last = len(state) - 1
    y = np.empty(x.shape)
    for k in range(x.shape[0]):
        xk = x[k]
        yk = state[0] + b[0] * xk
        for i in range(last):
            state[i] = (state[i + 1] + xk * b[i + 1]) - yk * a[i + 1]
        state[last] = xk * b[last + 1] - yk * a[last + 1]
        y[k] = yk
    return y, np.stack(state)
