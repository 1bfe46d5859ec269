"""Discrete Fourier / time-shift kernels on Z_d and the line-mode embedding.

Conventions, used everywhere downstream:

* forward transform is unnormalized, ``out[l] = sum_j v[j] e^(-2 pi i j l / d)``;
  the inverse carries the 1/d factor,
* the windowed transform is ``V(k, l) = sum_j f_j conj(g_{j-k}) e^(-2 pi i j l / d)``
  with all indices mod d (row k is the spectrum of ``f * conj(roll(g, k))``),
* measurements store squared magnitudes ``|V(k, l)|^2`` (the quantity whose 2-D
  spectrum factors into signal and window ambiguity products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport


def _as_complex_vector(values, d: int | None = None) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise DimensionMismatch(f"expected length {d}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class CyclicSignal:
    """A length-d complex signal on Z_d.

    The signal owns a read-only copy of its entries, so it never changes
    after it is built and the caller's array stays as it was.
    ``origin_offset`` is set only for signals produced by :func:`embed_line`
    and records which line index was mapped to cyclic index 0.
    """

    d: int
    entries: np.ndarray
    origin_offset: int | None = None

    def __post_init__(self):
        if self.d < 2:
            raise DimensionMismatch(f"dimension must be >= 2, got {self.d}")
        v = _as_complex_vector(self.entries, self.d).copy()
        v.setflags(write=False)
        object.__setattr__(self, "entries", v)

    @classmethod
    def from_values(cls, values, origin_offset: int | None = None) -> "CyclicSignal":
        v = _as_complex_vector(values)
        return cls(d=v.shape[0], entries=v, origin_offset=origin_offset)

    @classmethod
    def zeros(cls, d: int) -> "CyclicSignal":
        return cls(d=d, entries=np.zeros(d, dtype=np.complex128))

    @classmethod
    def delta(cls, d: int, j: int = 0) -> "CyclicSignal":
        v = np.zeros(d, dtype=np.complex128)
        v[j % d] = 1.0
        return cls(d=d, entries=v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def support(self, tau_rel: float = 1e-10) -> tuple[int, ...]:
        """Indices whose magnitude exceeds ``tau_rel`` times the peak magnitude."""
        mags = np.abs(self.entries)
        peak = mags.max()
        if peak == 0.0:
            return ()
        return tuple(np.flatnonzero(mags > tau_rel * peak).tolist())

    def shifted(self, y: int) -> "CyclicSignal":
        """Time shift: entry j of the result is entry j - y of the input."""
        return CyclicSignal(self.d, np.roll(self.entries, y % self.d))


@dataclass(frozen=True)
class ComplexTable:
    """A d x d complex matrix indexed (time shift k, frequency l), with read-only bytes of its own as a measurement has."""

    d: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        v = v.copy() if v.flags.writeable or not v.flags.owndata else v
        if v.shape != (self.d, self.d):
            raise DimensionMismatch(f"expected shape ({self.d},{self.d}), got {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectrogramMeasurement:
    """Squared transform magnitudes ``sq_mag[k, l] = |V(k, l)|^2``, read-only bytes of its own: an array
    handed in is copied unless it is read-only and owns its bytes, as those ``measure`` and the CSV
    loader make are, so a measurement never changes and the caller's array stays as it was."""

    d: int
    sq_mag: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.sq_mag, dtype=np.float64)
        m = m.copy() if m.flags.writeable or not m.flags.owndata else m
        if m.shape != (self.d, self.d):
            raise DimensionMismatch(f"expected shape ({self.d},{self.d}), got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("squared magnitudes must be finite")
        if m.size and m.min() < 0.0:
            raise ValueError("squared magnitudes must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "sq_mag", m)

    def total_mass(self) -> float:
        return float(self.sq_mag.sum())


def dft(v) -> np.ndarray:
    """Unnormalized forward transform of a length-d vector, d >= 2."""
    vec = _as_complex_vector(v)
    if vec.shape[0] < 2:
        raise DimensionMismatch("dft requires length >= 2")
    return np.fft.fft(vec)


def inverse_dft(v) -> np.ndarray:
    """Inverse of :func:`dft` (carries the 1/d normalization)."""
    vec = _as_complex_vector(v)
    if vec.shape[0] < 2:
        raise DimensionMismatch("inverse_dft requires length >= 2")
    return np.fft.ifft(vec)


def meeting_shifts(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Shifts k = j - i with a[j] and b[i] set (b = a when omitted), from one indicator correlation."""
    fa = np.fft.rfft(a)
    fb = fa if b is None else np.fft.rfft(b)
    return np.flatnonzero(np.fft.irfft(fa * np.conj(fb), a.shape[0]) > 0.5)


def _row_blocks(f: CyclicSignal, g: CyclicSignal, step: int, half: bool = False):
    """The rows k of :func:`stft_rows`, ``step`` at a time, each with its values in one buffer that the next reuses."""
    if f.d != g.d:
        raise DimensionMismatch(f"signal has d={f.d}, window has d={g.d}")
    d, fv, gv = f.d, f.entries, g.entries
    # at most nnz(f) * nnz(g) rows meet: below d, find them and skip the others
    if np.count_nonzero(fv) * np.count_nonzero(gv) < d and np.isfinite(fv.sum() + gv.sum()):
        rows = meeting_shifts(fv != 0, None if g is f else gv != 0)
    else:
        rows = np.arange(d)
    rows = rows[2 * rows <= d] if half else rows
    shifted = np.ndarray((d + 1, d), np.complex128, np.concatenate((gv, gv)), 0, (16, 16))  # row d - k: roll(g, k)
    buf = np.empty((min(step, rows.size), d), dtype=np.complex128)
    for k in (rows[i : i + step] for i in range(0, max(rows.size, 1), step)):
        # row k holds f[j] * conj(g[(j - k) mod d]); sorted rows without gaps are a reversed slice of the view
        src = shifted[d - k[-1] : d - k[0] + 1][::-1] if k.size and k[-1] - k[0] < k.size else shifted[d - k]
        block = np.conjugate(src, out=buf if k.size == len(buf) else buf[: k.size])
        yield k, np.fft.fft(np.multiply(fv, block, out=block), axis=1, out=block)


def stft_rows(f: CyclicSignal, g: CyclicSignal, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows k of :func:`stft` where exact nonzeros of f and ``roll(g, k)`` meet, and their
    values; every other row is exactly zero.  A non-finite entry meets every row (inf * 0 is NaN).
    With ``half``, only the rows k <= d/2 among them."""
    return next(_row_blocks(f, g, f.d, half))


def stft(f: CyclicSignal, g: CyclicSignal) -> ComplexTable:
    """Windowed transform table ``V(k, l) = sum_j f_j conj(g_{j-k}) e^(-2 pi i j l / d)``.

    Computed row-wise: row k is the forward transform of ``f * conj(shift(g, k))``.
    """
    rows, table = stft_rows(f, g)
    if rows.size < f.d:
        table, values = np.zeros((f.d, f.d), dtype=np.complex128), table
        table[rows] = values
    table.setflags(write=False)  # handed over, not copied
    return ComplexTable(f.d, table)


def measure(f: CyclicSignal, g: CyclicSignal) -> SpectrogramMeasurement:
    """Squared-magnitude measurement of the windowed transform, 512 KiB of meeting rows at a time."""
    sq_mag = np.zeros((f.d, f.d))
    for k, spectra in _row_blocks(f, g, max(1, 2**15 // f.d)):  # 2**15 complex entries: cache-sized
        if k.size and k[-1] - k[0] < k.size:  # rows are sorted: a block without gaps is a slice of the output
            np.abs(spectra, out=sq_mag[k[0] : k[-1] + 1])
        else:
            sq_mag[k] = np.abs(spectra)
    np.square(sq_mag, out=sq_mag).setflags(write=False)  # handed over, not copied
    return SpectrogramMeasurement(f.d, sq_mag)


def ambiguity(g: CyclicSignal) -> ComplexTable:
    """Transform of the window against itself; its support governs recoverability."""
    return stft(g, g)


def relation_transform(X: SpectrogramMeasurement, rows=None) -> ComplexTable | np.ndarray:
    """Demodulate a measurement into signal-times-window ambiguity products.

    Returns R with ``R[k, l] = (1/d) sum_{k', l'} X[k', l'] e^(-2 pi i k' l / d)
    e^(+2 pi i l' k / d)``.  Whenever ``X = measure(f, g)`` this equals
    ``V_ff(k, l) * conj(V_gg(k, l))`` entrywise.

    With ``rows`` (shifts k, taken mod d) only those rows are returned, as an
    array of shape ``(len(rows), d)``.  Up to d/2 + 1 rows are transformed
    alone, within roundoff of the table: each needs one frequency column of X's
    transform, column min(k, d-k) of its real FFT, so the m distinct columns
    come from one real matrix product with m twiddle columns while m is at
    most 2 * bit_length(d), else from one real FFT over the frequency axis, and
    then each row takes one FFT.  From d/2 + 2 rows on, the table is built and
    sliced, so the values are its exact bits.
    """
    d = X.d
    k = None if rows is None else np.asarray(rows, dtype=np.intp) % d
    if k is not None and k.size <= d // 2 + 1:
        # row k needs column k of the inverse-sign frequency transform, the conjugate
        # of the forward one; X is real, so forward column d-k is conj(column k)
        fold = np.minimum(k, d - k)
        c, back = np.unique(fold, return_inverse=True)
        # the product's cost grows with m, the FFT's with log d: timed at d = 64..2048 on
        # a 2-vCPU Xeon with one BLAS thread, they cross at m of 2 to 3.5 bit_length(d)
        if c.size <= 2 * d.bit_length():
            # forward column c is X @ w[(l * c) mod d]; the complex twiddles viewed as
            # interleaved reals make it one real product
            w = np.exp(-2j * np.pi * np.arange(d) / d)
            spectrum = (X.sq_mag @ w[np.outer(np.arange(d), c) % d].view(np.float64)).view(np.complex128)
        else:
            spectrum, back = np.fft.rfft(X.sq_mag, axis=1), fold
        cols = spectrum.T[back]  # a fresh (len(rows), d) block: conjugate it in place
        np.conjugate(cols, out=cols, where=(k <= d // 2)[:, None])
        return np.fft.fft(cols, axis=1, norm="forward")
    # forward over the shift axis, then inverse-sign over the frequency axis in the same buffer;
    # the d and 1/d factors cancel against ifft's normalization
    table = np.fft.ifft(spectrum := np.fft.fft(X.sq_mag, axis=0), axis=1, out=spectrum).T
    return ComplexTable(d, table) if k is None else table[k]  # the table copies the transposed view


def embed_line(
    f_support: dict[int, complex], g_support: dict[int, complex]
) -> tuple[CyclicSignal, CyclicSignal, int]:
    """Embed two finitely supported line signals into a common Z_d without wraparound.

    Supports are shifted to start at index 0 (the original start index is kept in
    ``origin_offset``) and d is chosen large enough that cyclic correlations agree
    with line correlations for every relative shift up to the combined extent.
    """
    f_items = {int(j): complex(v) for j, v in f_support.items() if v != 0}
    g_items = {int(j): complex(v) for j, v in g_support.items() if v != 0}
    if not f_items or not g_items:
        raise EmptySupport("embed_line requires two nonempty supports")

    def span(items):
        lo, hi = min(items), max(items)
        return lo, hi - lo + 1

    f_lo, f_span = span(f_items)
    g_lo, g_span = span(g_items)
    # +3 is deliberate slack beyond the no-wrap minimum; see package README
    d = 2 * (f_span + g_span) + 3

    def fill(items, lo):
        v = np.zeros(d, dtype=np.complex128)
        for j, val in items.items():
            v[j - lo] = val
        return v

    f = CyclicSignal(d, fill(f_items, f_lo), origin_offset=f_lo)
    g = CyclicSignal(d, fill(g_items, g_lo), origin_offset=g_lo)
    return f, g, d
