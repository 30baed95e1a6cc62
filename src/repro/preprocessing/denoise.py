"""Denoising filters for raw multichannel sensor data.

The paper's pre-processing begins with denoising.  Three classic streaming
filters are provided, all linear-time in the number of samples and cheap
enough for edge deployment:

- :class:`MovingAverageFilter` — box smoothing, kills white noise,
- :class:`MedianFilter` — robust to spikes/glitches,
- :class:`ButterworthLowpass` — IIR low-pass for band-limited motion.

Each filter operates column-wise on ``(n_samples, n_channels)`` arrays,
carries its configuration in plain attributes and round-trips through
``to_dict``/``from_dict`` so it can ship inside the Cloud-to-Edge transfer
package.  Column-wise is the denoiser interface contract, not a detail:
output column ``j`` depends on input column ``j`` only, in ``apply``,
``apply_batch`` and every ``make_stream()``.  The serving pipeline relies
on it to filter only the channels its features read (15 of 22 for the
default feature grid).  ``apply`` and the streams give the same bits
whether the other columns are there or not.  The Butterworth window kernel
is a matrix product, column-wise in arithmetic, but BLAS may block a
product differently for another column count, so its bits can depend on
how many columns it is handed (within the 1e-9 contract either way).

Filters whose output at sample ``i`` depends only on a bounded neighborhood
``[i - L, i + L]`` expose ``make_stream()`` returning a
:class:`LocalDenoiserStream`: a chunked applicator that emits, across *any*
split of the signal into chunks, exactly the samples ``apply(whole_signal)``
would produce (delayed by the ``L``-sample lookahead, flushed by
``finish()``).  :class:`ButterworthLowpass` — whose zero-phase backward
pass formally depends on every future sample — streams through
:class:`ZeroPhaseIIRStream` instead: the forward pass carries its
``lfilter`` state (``zi`` handoff, bit-exact), and the backward pass is
emitted in fixed sample-index-aligned blocks, each warm-started a
truncation window ``T`` past the block so the start-up transient has
decayed below 1e-15 relative (the backward recursion is exponentially
stable; see the class docstring for the error bound).  Emission depends
only on absolute sample indices, so chunked output is *identical for every
chunking*, and matches monolithic ``apply`` to well under the pipeline's
1e-9 parity budget (the final ``finish()`` flush is bit-exact).

Everything about the Butterworth filter that depends only on its
configuration — coefficients, pad length, ``lfilter_zi``, pole radius and
the stream's truncation/block sizes — is one :class:`ZeroPhaseDesign`,
built by the first ``ButterworthLowpass`` of that ``(order, cutoff_hz,
sampling_hz)`` in the process and shared by every later one (every
cohort, every package reload); ``apply``, ``apply_batch`` and every
stream opened by ``make_stream`` share it.  For one window length the
zero-phase pass is a linear map, so the design also derives, once per
length, the ``(n, n)`` matrix of that map
(:meth:`ZeroPhaseDesign.window_operator`): a window kernel up to
``_MAX_OPERATOR_LEN`` samples is one matrix product per window instead of
two ``lfilter`` passes, equal to ``filtfilt`` within 1e-9 relative.

The design and the window operators are computed in numpy
(:mod:`~repro.preprocessing.iir_design`, scipy's operations in scipy's
order, so the same bits).  The ``lfilter`` passes — ``apply``, a window
longer than ``_MAX_OPERATOR_LEN``, a :class:`ZeroPhaseIIRStream` (serving
at a stride below the window) — call scipy's compiled kernel
``scipy/signal/_sigtools``, loaded on its own by the first of them, so
filtering imports no ``scipy.signal`` package, at any stride.
``scipy.ndimage`` is imported by the first :meth:`MedianFilter.apply`.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from typing import Callable, Dict, Optional, Tuple, Type

import numpy as np

from ..exceptions import ConfigurationError, DataShapeError, SerializationError
from ..utils import check_3d
from .iir_design import butter, design_lfilter, lfilter_zi

#: scipy's compiled extension ``scipy/signal/_sigtools`` once the first
#: :func:`_lfilter` has run, ``None`` before.  It is loaded from its file
#: alone (about 5 ms and under 1 MB with the bare ``import scipy``, 2-vCPU
#: VM): importing the ``scipy.signal`` package for it would load every
#: signal submodule, 0.8-1.0 s and 75 MB.
_sigtools = None

#: ``scipy.ndimage`` once the first :meth:`MedianFilter.apply` has run.
_ndimage = None


def _load_sigtools():
    """The ``_sigtools`` extension module from scipy's ``signal`` folder,
    executed without importing the ``scipy.signal`` package."""
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "signal")
    spec = importlib.machinery.PathFinder.find_spec("_sigtools", [folder])
    if spec is None:
        raise ConfigurationError(
            f"scipy's compiled lfilter kernel _sigtools is not in {folder}"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lfilter(b, a, x, zi, axis):
    """``scipy.signal.lfilter(b, a, x, axis=axis, zi=zi)`` for ``len(a) >
    1``, bit for bit: the one call scipy makes for it, to the compiled
    kernel, which the first call loads."""
    global _sigtools
    if _sigtools is None:
        _sigtools = _load_sigtools()
    return _sigtools._linear_filter(b, a, x, axis, zi)


class LocalDenoiserStream:
    """Exact chunked application of a finite-context denoiser.

    For a centered filter whose output ``i`` depends only on inputs
    ``[i - lookahead, i + lookahead]`` (with edge padding at the true
    signal boundaries), the last ``lookahead`` outputs of any prefix are
    not yet final — they still await future samples.  The stream therefore
    holds the raw context ``[n_out - lookahead, n_in)`` and, on every
    :meth:`push`, re-applies the filter over that small buffer to emit the
    newly-finalized samples.  Interior outputs of ``apply`` depend only on
    their own input neighborhood, so the emitted samples are bit-identical
    to ``apply`` over the whole signal regardless of how it was chunked;
    :meth:`finish` flushes the final ``lookahead`` samples using the true
    right-edge padding.
    """

    def __init__(self, denoiser, lookahead: int) -> None:
        if lookahead < 0:
            raise ConfigurationError(
                f"lookahead must be >= 0, got {lookahead}"
            )
        self.denoiser = denoiser
        self.lookahead = int(lookahead)
        self._buffer: np.ndarray = None  # raw samples [base, n_in)
        self._base = 0  # global index of _buffer[0]; max(0, n_out - L)
        self._n_in = 0
        self._n_out = 0
        self._finished = False

    @property
    def samples_in(self) -> int:
        return self._n_in

    @property
    def samples_out(self) -> int:
        return self._n_out

    def _empty(self) -> np.ndarray:
        channels = self._buffer.shape[1] if self._buffer is not None else 0
        return np.empty((0, channels))

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Feed raw samples; returns the newly-finalized denoised samples."""
        if self._finished:
            raise ConfigurationError("denoiser stream is finished")
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"chunk must be 2-D (samples, channels), got {arr.shape}"
            )
        if self._buffer is None:
            # Copy: the buffer outlives this call and callers may reuse
            # their chunk arrays (e.g. a preallocated ring buffer).
            self._buffer = arr.copy()
        elif arr.shape[1] != self._buffer.shape[1]:
            raise DataShapeError(
                f"chunk has {arr.shape[1]} channels, stream started with "
                f"{self._buffer.shape[1]}"
            )
        elif arr.shape[0]:
            self._buffer = np.concatenate([self._buffer, arr], axis=0)
        self._n_in += arr.shape[0]
        emit_hi = self._n_in - self.lookahead
        if emit_hi <= self._n_out:
            return self._empty()
        out = self.denoiser.apply(self._buffer)
        # Copy so the emitted block doesn't pin the filtered buffer alive.
        emitted = out[self._n_out - self._base : emit_hi - self._base].copy()
        self._n_out = emit_hi
        keep_from = max(0, self._n_out - self.lookahead)
        if keep_from > self._base:
            self._buffer = self._buffer[keep_from - self._base :].copy()
            self._base = keep_from
        return emitted

    def finish(self) -> np.ndarray:
        """Flush the pending ``lookahead`` samples with true end padding."""
        if self._finished:
            raise ConfigurationError("denoiser stream is finished")
        self._finished = True
        if self._buffer is None or self._n_out >= self._n_in:
            return self._empty()
        out = self.denoiser.apply(self._buffer)
        emitted = out[self._n_out - self._base :].copy()
        self._n_out = self._n_in
        return emitted


#: Relative magnitude the truncated backward warm-start transient must decay
#: below before a block is emitted; drives :class:`ZeroPhaseIIRStream`'s
#: truncation window ``T`` via ``rho**T <= _TRUNCATION_TARGET``.
_TRUNCATION_TARGET = 1e-16

#: Upper bound on the truncation window, guarding near-unstable filters
#: (pole radius ~1) from unbounded lookahead.
_MAX_TRUNCATION = 4096

#: Longest window filtered by a dense :meth:`ZeroPhaseDesign.window_operator`.
#: The operator costs O(n) per sample against ``lfilter``'s O(1), so it
#: wins only on short windows.  Measured on a 2-vCPU VM with 15 columns
#: and one BLAS thread: 2.8x faster at 120 samples for 1 window and 1.7x
#: for 8; 1.1-1.7x at 160; slower from 180 samples at 8 windows and from
#: 240 at 1 window.
_MAX_OPERATOR_LEN = 160


def _along(ndim: int, axis: int, index) -> tuple:
    """The index tuple of ``x[..., index, ...]``, ``index`` on ``axis``."""
    full = [slice(None)] * ndim
    full[axis] = index
    return tuple(full)


class ZeroPhaseDesign:
    """A zero-phase IIR filter's configuration-only constants, solved once.

    ``b``/``a`` are the transfer-function coefficients; ``padlen`` is
    ``scipy.signal.filtfilt``'s default odd-extension length (``3 *
    max(len(a), len(b))``, also the identity-fallback threshold of
    :meth:`ButterworthLowpass.apply`); ``zi`` is ``lfilter_zi(b, a)``, the
    unit step-response steady state both filter passes start from; and the
    slowest pole's radius fixes :class:`ZeroPhaseIIRStream`'s truncation
    window, emission block and lookahead.
    """

    def __init__(self, b, a) -> None:
        self.b = np.asarray(b, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.padlen = 3 * max(self.b.shape[0], self.a.shape[0])
        self.zi = lfilter_zi(self.b, self.a)
        poles = np.roots(self.a)
        rho = float(np.max(np.abs(poles))) if poles.size else 0.0
        if 0.0 < rho < 1.0:
            t = int(np.ceil(np.log(_TRUNCATION_TARGET) / np.log(rho)))
        else:
            t = _MAX_TRUNCATION
        #: Backward warm-start distance: transient decay factor rho**T.
        self.truncation = int(min(max(t, self.padlen), _MAX_TRUNCATION))
        #: Emission block size (absolute-index aligned).
        self.block = 2 * self.truncation
        #: Worst-case samples held back awaiting future context.
        self.lookahead = self.block + self.truncation
        #: Relative error bound of pushed (non-flush) emissions vs ``apply``.
        self.error_bound = rho ** self.truncation
        # (ndim, axis) -> zero_phase's index tuples and shaped zi
        self._plans: Dict[Tuple[int, int], tuple] = {}
        # window length -> window_operator, derived on first use
        self._operators: Dict[int, np.ndarray] = {}

    def _plan(self, ndim: int, axis: int) -> tuple:
        """``zero_phase``'s index tuples and shaped ``zi`` for arrays of
        ``ndim`` dimensions filtered along ``axis``, built once."""
        plan = self._plans.get((ndim, axis))
        if plan is None:
            p = self.padlen
            zi_shape = [1] * ndim
            zi_shape[axis] = self.zi.size
            plan = (
                _along(ndim, axis, slice(0, 1)),
                _along(ndim, axis, slice(p, 0, -1)),
                _along(ndim, axis, slice(-1, None)),
                _along(ndim, axis, slice(-2, -(p + 2), -1)),
                _along(ndim, axis, slice(None, None, -1)),
                _along(ndim, axis, slice(-1 - p, p - 1, -1)),
                self.zi.reshape(zi_shape),
            )
            self._plans[(ndim, axis)] = plan
        return plan

    def _two_passes(self, x: np.ndarray, axis: int, lfilter) -> np.ndarray:
        """``filtfilt``'s recipe along ``axis`` with ``lfilter(b, a, x,
        zi)`` for both passes: odd extension by ``padlen``, a forward pass
        from ``zi * x[0]``, a backward pass over the reversed output from
        ``zi * y[-1]``, trim."""
        first, head, last, tail, reverse, trim, zi = self._plan(x.ndim, axis)
        ext = np.concatenate(
            (2 * x[first] - x[head], x, 2 * x[last] - x[tail]), axis=axis
        )
        y, _ = lfilter(self.b, self.a, ext, zi * ext[first])
        y, _ = lfilter(self.b, self.a, y[reverse], zi * y[last])
        return y[trim]

    def zero_phase(self, x: np.ndarray, axis: int) -> np.ndarray:
        """``scipy.signal.filtfilt(b, a, x, axis=axis)``, bit for bit.

        The same recipe through ``lfilter`` with the same operations in the
        same order, against the cached ``zi`` instead of re-solving it per
        call.  ``x`` must be longer than ``padlen`` along ``axis``.
        """
        return self._two_passes(x, axis, functools.partial(_lfilter, axis=axis))

    def window_operator(self, n: int) -> np.ndarray:
        """The ``(n, n)`` matrix ``M`` with ``M @ x == zero_phase(x, 0)``
        for length-``n`` signals ``x``, up to rounding.

        Column ``j`` is the filter's response to the unit sample at ``j``:
        ``zero_phase``'s recipe run on ``np.eye(n)`` through numpy's
        :func:`~repro.preprocessing.iir_design.design_lfilter`, the same
        bits as ``zero_phase(np.eye(n), axis=0)`` without importing
        ``scipy.signal``.  The loop takes a few ms per operator, so the
        operator is built on first use and cached per ``n``: every kernel
        of this design (and every filter sharing it) shares one read-only
        array.  ``n`` must exceed ``padlen``.
        """
        operator = self._operators.get(n)
        if operator is None:
            operator = self._two_passes(np.eye(n), 0, design_lfilter)
            operator.flags.writeable = False
            self._operators[n] = operator
        return operator


class ZeroPhaseIIRStream:
    """Chunk-exact streaming twin of zero-phase ``filtfilt`` application.

    ``filtfilt`` runs the IIR filter forward then backward over the
    odd-extended signal.  The forward half streams exactly: ``lfilter`` is
    a sequential recurrence, so carrying its final state ``zf`` across
    chunk boundaries reproduces the monolithic forward output *bit for
    bit*.  The backward half formally needs every future sample, but the
    backward recursion is exponentially stable — a state error decays by
    the largest pole magnitude ``rho < 1`` per sample.  The stream
    therefore emits backward-filtered output in fixed blocks of ``B``
    samples aligned to absolute sample indices: block ``[k*B, (k+1)*B)``
    is released once ``(k+1)*B + T`` forward outputs exist, by running the
    backward filter over the trailing ``T`` lookahead samples first (warm
    start ``lfilter_zi * y`` at the fixed index ``(k+1)*B + T - 1``) so
    its transient has decayed by ``rho**T <= 1e-15`` relative before the
    block is reached.

    Consequences, pinned by ``tests/test_chunked_stream.py``:

    - the emitted samples depend only on *absolute* indices, never on how
      the signal was split into chunks — any two chunkings of the same
      signal produce bit-identical streams;
    - ``finish()`` rebuilds the true right odd extension from the last raw
      samples and back-filters from the genuine signal end, so the flushed
      tail is bit-identical to ``apply``; earlier blocks differ from
      monolithic ``apply`` by at most ``O(max|y| * rho**T)`` — around
      1e-15 relative, orders of magnitude inside the 1e-9 parity budget;
    - signals short enough that ``apply`` falls back to the identity copy
      (``n <= 3 * max(len(a), len(b))``) are returned unfiltered by
      ``finish()``, matching ``apply`` exactly.

    Worst-case emission delay is ``lookahead = B + T`` samples (``B = 2T``
    keeps the recompute overhead at 1.5x while bounding the delay).  ``B``,
    ``T``, the pad length and ``zi`` come from the :class:`ZeroPhaseDesign`
    the stream is opened with, shared by every stream of one filter.
    """

    def __init__(self, design: ZeroPhaseDesign) -> None:
        self._b, self._a = design.b, design.a
        # filtfilt's default pad length; also ``apply``'s identity-fallback
        # threshold, so streaming and monolithic short-signal behavior agree.
        self._pad = design.padlen
        self._zi_unit = design.zi
        self.truncation = design.truncation
        self.block = design.block
        self.lookahead = design.lookahead
        self.error_bound = design.error_bound
        self._raw_head: Optional[np.ndarray] = None  # raw samples pre-start
        self._raw_tail: Optional[np.ndarray] = None  # last pad+1 raw samples
        self._zf: Optional[np.ndarray] = None  # carried forward filter state
        self._yf: Optional[np.ndarray] = None  # forward outputs [n_out, n_in)
        self._channels: Optional[int] = None
        self._n_in = 0
        self._n_out = 0
        self._finished = False

    @property
    def samples_in(self) -> int:
        return self._n_in

    @property
    def samples_out(self) -> int:
        return self._n_out

    def _empty(self) -> np.ndarray:
        return np.empty((0, self._channels if self._channels else 0))

    def _start(self, raw: np.ndarray) -> None:
        """Prime the forward filter exactly as ``filtfilt`` does.

        Builds the left odd extension, runs the forward filter over it with
        ``filtfilt``'s initial state (``lfilter_zi * ext[0]``), and keeps
        only the carried state — from here on the forward pass is bit-exact
        versus the monolithic run no matter how chunks arrive.
        """
        p = self._pad
        ext = 2.0 * raw[0] - raw[p:0:-1]
        zi = self._zi_unit[:, None] * ext[0]
        _, zf = _lfilter(self._b, self._a, ext, zi, axis=0)
        self._yf, self._zf = _lfilter(self._b, self._a, raw, zf, axis=0)

    def _backward_tail(self, segment: np.ndarray, keep: int) -> np.ndarray:
        """Backward-filter ``segment`` reversed; return last ``keep`` rows
        in forward order.  Warm start at the segment's (fixed) right edge."""
        rev = segment[::-1]
        zi = self._zi_unit[:, None] * rev[0]
        back, _ = _lfilter(self._b, self._a, rev, zi, axis=0)
        return np.ascontiguousarray(back[-keep:][::-1])

    def _emit_ready(self) -> np.ndarray:
        blocks = []
        b_len, span = self.block, self.block + self.truncation
        start = 0
        while self._n_in >= self._n_out + span:
            blocks.append(self._backward_tail(self._yf[start : start + span], b_len))
            start += b_len
            self._n_out += b_len
        if not blocks:
            return self._empty()
        # An owned copy of the pending rows (fewer than ``span``): a view
        # would pin the whole array ``push`` concatenated.
        self._yf = self._yf[start:].copy()
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Feed raw samples; returns the newly-released denoised blocks."""
        if self._finished:
            raise ConfigurationError("denoiser stream is finished")
        arr = np.asarray(chunk, dtype=np.float64)
        if arr.ndim != 2:
            raise DataShapeError(
                f"chunk must be 2-D (samples, channels), got {arr.shape}"
            )
        if self._channels is None:
            self._channels = int(arr.shape[1])
        elif arr.shape[1] != self._channels:
            raise DataShapeError(
                f"chunk has {arr.shape[1]} channels, stream started with "
                f"{self._channels}"
            )
        self._n_in += arr.shape[0]
        if arr.shape[0]:
            # Copies throughout: buffers outlive this call and callers may
            # reuse their chunk arrays (e.g. a preallocated ring buffer).
            # Only the last ``keep`` rows are ever copied, not the chunk.
            keep = self._pad + 1
            if self._raw_tail is None or arr.shape[0] >= keep:
                self._raw_tail = arr[-keep:].copy()
            else:
                self._raw_tail = np.concatenate(
                    [self._raw_tail[arr.shape[0] - keep :], arr], axis=0
                )
        if self._zf is None:
            if arr.shape[0]:
                self._raw_head = (
                    arr.copy()
                    if self._raw_head is None
                    else np.concatenate([self._raw_head, arr], axis=0)
                )
            if self._n_in <= self._pad:
                return self._empty()
            self._start(self._raw_head)
            self._raw_head = None
        elif arr.shape[0]:
            yf, self._zf = _lfilter(self._b, self._a, arr, self._zf, axis=0)
            self._yf = np.concatenate([self._yf, yf], axis=0)
        return self._emit_ready()

    def finish(self) -> np.ndarray:
        """Flush the held-back tail using the true right odd extension.

        The flush back-filters from the genuine signal end with exactly
        ``filtfilt``'s terminal state, so every flushed sample is
        bit-identical to monolithic ``apply``.
        """
        if self._finished:
            raise ConfigurationError("denoiser stream is finished")
        self._finished = True
        if self._n_in == 0:
            return self._empty()
        if self._zf is None:
            # apply() returns short signals unchanged; so do we.
            out, self._raw_head = self._raw_head, None
            self._n_out = self._n_in
            return out
        p = self._pad
        ext = 2.0 * self._raw_tail[-1] - self._raw_tail[-2::-1]
        yf_ext, _ = _lfilter(self._b, self._a, ext, self._zf, axis=0)
        rev = np.concatenate([self._yf, yf_ext], axis=0)[::-1]
        zi = self._zi_unit[:, None] * rev[0]
        back, _ = _lfilter(self._b, self._a, rev, zi, axis=0)
        pending = self._n_in - self._n_out
        out = np.ascontiguousarray(back[p : p + pending][::-1])
        self._yf = None
        self._raw_tail = None
        self._n_out = self._n_in
        return out


class IdentityFilter:
    """A no-op denoiser (useful as a baseline and for ablations)."""

    def apply(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=np.float64)

    def apply_batch(self, windows: np.ndarray) -> np.ndarray:
        """Batch-axis no-op over ``(k, window_len, channels)`` windows."""
        return check_3d("windows", windows)

    def make_stream(self) -> LocalDenoiserStream:
        """Chunked no-op: every pushed sample is final immediately."""
        return LocalDenoiserStream(self, 0)

    def to_dict(self) -> Dict:
        return {"kind": "identity"}

    @classmethod
    def from_dict(cls, payload: Dict) -> "IdentityFilter":
        return cls()

    def __eq__(self, other) -> bool:
        return isinstance(other, IdentityFilter)


class MovingAverageFilter:
    """Centered moving-average smoothing with window ``size`` (odd)."""

    def __init__(self, size: int = 5) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        if size % 2 == 0:
            raise ConfigurationError(f"size must be odd, got {size}")
        self.size = int(size)

    def apply(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data, dtype=np.float64)
        if self.size == 1 or arr.shape[0] == 0:
            return arr.copy()
        kernel = np.ones(self.size) / self.size
        if arr.ndim == 1:
            return np.convolve(np.pad(arr, self.size // 2, mode="edge"), kernel, "valid")
        half = self.size // 2
        padded = np.pad(arr, ((half, half), (0, 0)), mode="edge")
        out = np.empty_like(arr)
        for col in range(arr.shape[1]):
            out[:, col] = np.convolve(padded[:, col], kernel, "valid")
        return out

    def make_stream(self) -> LocalDenoiserStream:
        """Chunked applicator: output ``i`` needs inputs up to ``i + size//2``."""
        return LocalDenoiserStream(self, self.size // 2)

    def to_dict(self) -> Dict:
        return {"kind": "moving_average", "size": self.size}

    @classmethod
    def from_dict(cls, payload: Dict) -> "MovingAverageFilter":
        return cls(size=int(payload["size"]))

    def __eq__(self, other) -> bool:
        return isinstance(other, MovingAverageFilter) and other.size == self.size


class MedianFilter:
    """Column-wise median filtering with window ``size`` (odd), spike-robust."""

    def __init__(self, size: int = 5) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        if size % 2 == 0:
            raise ConfigurationError(f"size must be odd, got {size}")
        self.size = int(size)

    def apply(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data, dtype=np.float64)
        if self.size == 1 or arr.shape[0] == 0:
            return arr.copy()
        global _ndimage
        if _ndimage is None:
            import scipy.ndimage

            _ndimage = scipy.ndimage
        size = self.size if arr.ndim == 1 else (self.size, 1)
        return _ndimage.median_filter(arr, size=size, mode="nearest")

    def make_stream(self) -> LocalDenoiserStream:
        """Chunked applicator: output ``i`` needs inputs up to ``i + size//2``."""
        return LocalDenoiserStream(self, self.size // 2)

    def to_dict(self) -> Dict:
        return {"kind": "median", "size": self.size}

    @classmethod
    def from_dict(cls, payload: Dict) -> "MedianFilter":
        return cls(size=int(payload["size"]))

    def __eq__(self, other) -> bool:
        return isinstance(other, MedianFilter) and other.size == self.size


#: ``(order, cutoff_hz, sampling_hz)`` -> the one :class:`ZeroPhaseDesign`
#: of that configuration in this process.
_DESIGNS: Dict[Tuple[int, float, float], ZeroPhaseDesign] = {}


class ButterworthLowpass:
    """Zero-phase Butterworth low-pass (``scipy.signal.filtfilt`` semantics).

    ``cutoff_hz`` must be below the Nyquist frequency of ``sampling_hz``.
    The filter design is solved here, by the first filter of this
    configuration in the process; later ones, ``from_dict`` and pickle
    copies share it.  ``apply`` and the streams of :meth:`make_stream` run
    scipy's compiled ``lfilter`` kernel (never importing ``scipy.signal``)
    and return ``filtfilt``'s bits (see
    :meth:`ZeroPhaseDesign.zero_phase`); the window kernel
    (:meth:`batch_kernel`, :meth:`apply_batch`) multiplies by the design's
    window operator and equals ``filtfilt`` within 1e-9 relative.
    """

    def __init__(
        self, cutoff_hz: float = 30.0, sampling_hz: float = 120.0, order: int = 4
    ) -> None:
        if cutoff_hz <= 0:
            raise ConfigurationError(f"cutoff_hz must be > 0, got {cutoff_hz}")
        if sampling_hz <= 0:
            raise ConfigurationError(f"sampling_hz must be > 0, got {sampling_hz}")
        if cutoff_hz >= sampling_hz / 2.0:
            raise ConfigurationError(
                f"cutoff {cutoff_hz} Hz must be below Nyquist "
                f"({sampling_hz / 2.0} Hz)"
            )
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.cutoff_hz = float(cutoff_hz)
        self.sampling_hz = float(sampling_hz)
        self.order = int(order)
        key = (self.order, self.cutoff_hz, self.sampling_hz)
        design = _DESIGNS.get(key)
        if design is None:
            design = _DESIGNS[key] = ZeroPhaseDesign(
                *butter(self.order, self.cutoff_hz, fs=self.sampling_hz)
            )
        self._design = design

    def __reduce__(self):
        # A copy is rebuilt from the configuration, so it shares this
        # process's design and carries no window operator (~115 KB each).
        return type(self), (self.cutoff_hz, self.sampling_hz, self.order)

    def apply(self, data: np.ndarray) -> np.ndarray:
        arr = np.asarray(data, dtype=np.float64)
        # The odd extension needs more than ``padlen`` samples; fall back to
        # identity for very short inputs rather than erroring on edge cases.
        if arr.shape[0] <= self._design.padlen:
            return arr.copy()
        return self._design.zero_phase(arr, axis=0)

    def apply_batch(self, windows: np.ndarray) -> np.ndarray:
        """Filter a whole ``(k, window_len, channels)`` batch in one call:
        the checked stack through :meth:`batch_kernel`."""
        arr = check_3d("windows", windows)
        return self.batch_kernel(arr.shape[1])(arr)

    def batch_kernel(self, window_len: int) -> Callable[[np.ndarray], np.ndarray]:
        """:meth:`apply_batch` resolved for one window length.

        The returned callable filters a checked ``(k, window_len,
        channels)`` float64 stack window by window:

        - windows too short to extend (at most ``padlen``) are copied;
        - up to ``_MAX_OPERATOR_LEN`` samples, each window is multiplied by
          the design's :meth:`~ZeroPhaseDesign.window_operator`, equal to
          ``filtfilt`` within 1e-9 relative;
        - longer windows run the zero-phase ``lfilter`` pass along the
          sample axis, ``filtfilt``'s bits.

        ``np.matmul`` broadcasts the operator over the stack, one product
        per window, so a window's bits do not depend on the other windows
        of the call.  (One product over the stack folded into columns
        would change them.)  The pipeline's window kernel holds the
        callable, so a tick pays for the product and nothing else.
        """
        if window_len <= self._design.padlen:
            return np.copy
        if window_len <= _MAX_OPERATOR_LEN:
            return functools.partial(
                np.matmul, self._design.window_operator(window_len)
            )
        return functools.partial(self._design.zero_phase, axis=1)

    def make_stream(self) -> ZeroPhaseIIRStream:
        """Chunked applicator with zi carry-over; see
        :class:`ZeroPhaseIIRStream` for the exactness contract."""
        return ZeroPhaseIIRStream(self._design)

    def to_dict(self) -> Dict:
        return {
            "kind": "butterworth",
            "cutoff_hz": self.cutoff_hz,
            "sampling_hz": self.sampling_hz,
            "order": self.order,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ButterworthLowpass":
        return cls(
            cutoff_hz=float(payload["cutoff_hz"]),
            sampling_hz=float(payload["sampling_hz"]),
            order=int(payload["order"]),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ButterworthLowpass)
            and other.cutoff_hz == self.cutoff_hz
            and other.sampling_hz == self.sampling_hz
            and other.order == self.order
        )


_FILTER_KINDS: Dict[str, Type] = {
    "identity": IdentityFilter,
    "moving_average": MovingAverageFilter,
    "median": MedianFilter,
    "butterworth": ButterworthLowpass,
}


def denoiser_from_dict(payload: Dict):
    """Rebuild any denoiser from its ``to_dict`` payload."""
    try:
        kind = payload["kind"]
    except (KeyError, TypeError):
        raise SerializationError(f"invalid denoiser payload: {payload!r}") from None
    try:
        cls = _FILTER_KINDS[kind]
    except KeyError:
        raise SerializationError(f"unknown denoiser kind {kind!r}") from None
    return cls.from_dict(payload)
