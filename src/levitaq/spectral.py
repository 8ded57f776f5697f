"""Spectral peak extraction from simulated time series."""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError


def _fast_length(n: int) -> int:
    """The least integer >= n whose prime factors are all at most 7."""
    best = 1 << (n - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


def dominant_frequency(t: np.ndarray, x: np.ndarray, f_max: float) -> float:
    """Angular frequency (rad/s) of the dominant spectral peak below ``f_max`` Hz.

    Applies a Hann window, zero-pads the series to the least length >= its
    own whose prime factors are all at most 7 (an FFT of a length with a
    large prime factor takes several times longer), and refines the FFT
    peak with parabolic interpolation of log magnitude, so the result is far
    more accurate than one frequency bin.  Raises SolverError when no peak below
    ``f_max`` exceeds five times the median in-band magnitude.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.size != x.size or t.size < 16:
        raise ValueError("need equal-length series of at least 16 samples")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("time grid must be uniform")
    dt = float(dt[0])

    xs = x - x.mean()
    win = np.hanning(xs.size)
    size = _fast_length(xs.size)
    amp = np.abs(np.fft.rfft(xs * win, size))
    freqs = np.fft.rfftfreq(size, dt)
    band = (freqs > 0.0) & (freqs < f_max)
    if not band.any():
        raise SolverError("no spectral bins below the requested cutoff")

    med = float(np.median(amp[band]))
    i = int(np.flatnonzero(band)[np.argmax(amp[band])])
    if amp[i] == 0.0 or amp[i] < 5.0 * med:
        raise SolverError("no dominant spectral peak below the requested cutoff")

    # parabolic refinement in log magnitude; guard the array edges
    if 0 < i < amp.size - 1 and amp[i - 1] > 0.0 and amp[i + 1] > 0.0:
        la, lb, lc = math.log(amp[i - 1]), math.log(amp[i]), math.log(amp[i + 1])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0.0 else 0.0
        shift = min(max(shift, -0.5), 0.5)
    else:
        shift = 0.0
    df = freqs[1] - freqs[0]
    return 2.0 * math.pi * (freqs[i] + shift * df)
