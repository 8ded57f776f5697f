import math

import numpy as np
import pytest

from levitaq.spectral import _fast_length, dominant_frequency


def smooth_length(n):
    """The least integer >= n whose prime factors are all at most 7, by trial division."""
    m = n
    while True:
        rest = m
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return m
        m += 1


def test_fast_length_matches_a_brute_force_search():
    lengths = range(16, 5001)  # primes and prime powers included
    assert [_fast_length(n) for n in lengths] == [smooth_length(n) for n in lengths]


def unpadded_estimate(t, x, f_max):
    """dominant_frequency's Hann window and parabolic peak refinement at the series' own length."""
    xs = x - x.mean()
    amp = np.abs(np.fft.rfft(xs * np.hanning(xs.size)))
    freqs = np.fft.rfftfreq(xs.size, t[1] - t[0])
    band = (freqs > 0.0) & (freqs < f_max)
    i = int(np.flatnonzero(band)[np.argmax(amp[band])])
    la, lb, lc = np.log(amp[i - 1:i + 2])
    shift = 0.5 * (la - lc) / (la - 2.0 * lb + lc)
    return 2.0 * math.pi * (freqs[i] + shift * (freqs[1] - freqs[0]))


@pytest.mark.parametrize("n", [4999, 7919, 40009])  # primes: the FFT length grows
def test_padding_moves_a_sinusoid_estimate_by_under_2e_3(n):
    rng = np.random.default_rng(n)
    dt = 1e-5
    t = np.arange(n) * dt
    for cycles in rng.uniform(20.0, 60.0, 10):
        f0 = cycles / (n * dt)
        x = np.sin(2.0 * math.pi * f0 * t + rng.uniform(0.0, 2.0 * math.pi))
        padded = dominant_frequency(t, x, f_max=0.5 / dt)
        assert _fast_length(n) > n
        assert padded == pytest.approx(unpadded_estimate(t, x, 0.5 / dt), rel=2e-3)
        assert padded == pytest.approx(2.0 * math.pi * f0, rel=2e-3)


def test_the_fft_of_a_prime_length_series_runs_at_the_next_smooth_length(monkeypatch):
    lengths = []
    rfft = np.fft.rfft

    def recorded(a, n=None):
        lengths.append(n)
        return rfft(a, n)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    t = np.arange(4999) * 1e-5
    dominant_frequency(t, np.sin(2.0 * math.pi * 500.0 * t), f_max=5e4)
    assert lengths == [5000]  # 2^3 5^4
