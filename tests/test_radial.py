"""Oracle checks for the radial quadrature and Fourier machinery.

Every tolerance here was chosen against a closed form, not against the
implementation's own output.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from gpregime import radial
from gpregime.radial import (
    filon_sin,
    filon_cos,
    radial_fourier,
    radial_fourier_inverse,
)
from gpregime.errors import InvalidParameterError


def test_filon_exact_on_linear_integrand():
    # int_0^X (a + b r) sin(w r) dr has a closed form; piecewise-linear Filon
    # must reproduce it to roundoff at every frequency, including w >> 1/h.
    X, a, b = 3.0, 0.7, -1.3
    r = np.linspace(0.0, X, 301)
    h = r[1]
    f = a + b * r
    omega = np.array([0.05, 1.0, 17.3, 250.0, 4000.0])
    got = filon_sin(f, h, omega)
    want = a * (1 - np.cos(omega * X)) / omega + b * (
        np.sin(omega * X) / omega ** 2 - X * np.cos(omega * X) / omega
    )
    assert_allclose(got, want, rtol=0, atol=5e-13)


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(min_value=0.02, max_value=80.0),
    a=st.floats(min_value=-2, max_value=2),
    b=st.floats(min_value=-2, max_value=2),
)
def test_filon_exact_on_linear_integrand_property(omega, a, b):
    X = 2.5
    r = np.linspace(0.0, X, 129)
    h = r[1]
    got = filon_sin(a + b * r, h, omega)[0]
    want = a * (1 - np.cos(omega * X)) / omega + b * (
        np.sin(omega * X) / omega ** 2 - X * np.cos(omega * X) / omega
    )
    assert abs(got - want) < 1e-11, f"filon mismatch at omega={omega}: {got} vs {want}"


def test_filon_cos_matches_brute_force():
    r = np.linspace(0.0, 6.0, 6001)
    h = r[1]
    f = np.exp(-r) * (1 + r)
    omega = np.array([0.0, 0.4, 3.0, 11.0])
    got = filon_cos(f, h, omega)
    want = np.array([np.trapezoid(f * np.cos(w * r), dx=h) for w in omega])
    assert_allclose(got, want, rtol=0, atol=2e-7)


def test_filon_series_switch_is_seamless():
    # exactness on a linear integrand must hold on both sides of the
    # small-argument series switch (x = omega h / 2 crossing 1e-3)
    X, a, b = 4.0, 1.1, 0.4
    r = np.linspace(0.0, X, 513)
    h = r[1]
    switch_omega = 2e-3 / h
    omega = switch_omega * np.array([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0])
    got = filon_sin(a + b * r, h, omega)
    want = a * (1 - np.cos(omega * X)) / omega + b * (
        np.sin(omega * X) / omega ** 2 - X * np.cos(omega * X) / omega
    )
    assert_allclose(got, want, rtol=0, atol=1e-11)


def test_gaussian_transform_is_self_dual():
    # exp(-pi r^2) is a fixed point of the transform convention used here
    r = np.linspace(0.0, 8.0, 4097)
    h = r[1]
    w = np.exp(-np.pi * r ** 2)
    p = np.array([0.0, 0.3, 1.0, 1.7, 2.5])
    got = radial_fourier(w, h, p)
    assert_allclose(got, np.exp(-np.pi * p ** 2), rtol=0, atol=1e-10)


def test_ball_indicator_transform_closed_form():
    # the integrand r * 1_{r <= L} is linear on [0, L]: Filon is exact here
    L = 1.6
    r = np.linspace(0.0, L, 257)
    h = r[1]
    w = np.ones_like(r)
    p = np.array([0.11, 0.5, 2.2, 9.0])
    got = 2 / p * filon_sin(w * r, h, 2 * np.pi * p)
    x = 2 * np.pi * p * L
    want = (np.sin(x) - x * np.cos(x)) / (2 * np.pi ** 2 * p ** 3)
    assert_allclose(got, want, rtol=1e-12)
    vol = radial_fourier(w, h, np.array([0.0]))[0]
    assert_allclose(vol, 4 * np.pi * L ** 3 / 3, rtol=1e-10)


def test_transform_round_trip():
    r = np.linspace(0.0, 10.0, 4097)
    h = r[1]
    w = np.exp(-r ** 2) * (1 + 0.5 * r ** 2)
    p = np.linspace(0.0, 12.0, 4097)
    hp = p[1]
    what = radial_fourier(w, h, p)
    back = radial_fourier_inverse(what, hp, r[:: 64])
    assert_allclose(back, w[::64], rtol=0, atol=5e-8)


def test_domain_validation():
    r = np.linspace(0.0, 1.0, 11)
    h = r[1]
    for bad in (-0.5, np.nan, np.inf):
        # NaN fails both p < 0 and p > 0; it must not read as p = 0
        with pytest.raises(InvalidParameterError):
            radial_fourier(np.ones_like(r), h, np.array([0.3, bad]))


# ---------------------------------------------------------------------------
# chirp-z sums on uniform frequency grids
# ---------------------------------------------------------------------------


def _dense_filon(f, h, omega, kind, x0=0.0):
    """The direct node x frequency evaluation, written out in one block."""
    n = f.size - 1
    mid = x0 + (np.arange(n) + 0.5) * h
    c0 = 0.5 * (f[:-1] + f[1:])
    c1 = (f[1:] - f[:-1]) / h
    a, b = radial._filon_weights(omega, h)
    ph = omega[:, None] * mid[None, :]
    s, c = np.sin(ph), np.cos(ph)
    if kind == "sin":
        return a * (s @ c0) + b * (c @ c1)
    return a * (c @ c0) - b * (s @ c1)


_FILON = {"sin": filon_sin, "cos": filon_cos}


@pytest.mark.parametrize("kind", ["sin", "cos"])
@pytest.mark.parametrize("x0", [0.0, 0.7])
@pytest.mark.parametrize("omega0", [0.0, 3.1])
@pytest.mark.parametrize("n, m", [(400, 57), (64, 900)])
def test_chirp_matches_dense_on_uniform_grids(kind, x0, omega0, n, m):
    # omega0 = 0 puts the first frequencies on the series side of the
    # weight switch and below one radian of phase (split sums there).
    h = 0.01
    p = x0 + np.arange(n + 1) * h
    f = np.exp(-p) * np.cos(7.0 * p) + 0.3
    omega = omega0 + np.linspace(0.0, 60.0, m)
    assert radial._progression(omega) is not None
    got = _FILON[kind](f, h, omega, x0=x0)
    want = _dense_filon(f, h, omega, kind, x0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(f)) * h


@pytest.mark.parametrize("omega0", [0.0, 3.1])
@pytest.mark.parametrize("n, m", [(400, 57), (64, 900)])
def test_chirp_sums_match_direct_sums(omega0, n, m):
    # the chirp-z sums alone, including the low-phase frequencies that
    # filon_sin and filon_cos hand to the split sums
    h, x0 = 0.01, 0.7
    c = np.random.default_rng(n).normal(size=(2, n))
    step = 60.0 / (m - 1)
    got = radial._chirp_sums(c, h, x0, omega0, step, m)
    omega = omega0 + step * np.arange(m)
    mid = x0 + (np.arange(n) + 0.5) * h
    want = c @ np.exp(1j * mid[:, None] * omega[None, :])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(c))


def _long_double_filon(f, h, omega, x0):
    """(sin, cos) Filon sums with nodes and phases in long double."""
    ld = np.longdouble
    n = f.size - 1
    fl = f.astype(ld)
    c0 = (fl[:-1] + fl[1:]) / 2
    c1 = (fl[1:] - fl[:-1]) / ld(h)
    mid = ld(x0) + (np.arange(n, dtype=ld) + ld(0.5)) * ld(h)
    ph = omega.astype(ld)[:, None] * mid[None, :]
    s, c = np.sin(ph), np.cos(ph)
    a, b = (w.astype(ld) for w in radial._filon_weights(omega, h))
    return ((a * (s @ c0) + b * (c @ c1)).astype(float),
            (a * (c @ c0) - b * (s @ c1)).astype(float))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than double here")
def test_chirp_wide_phase_against_long_double():
    # A band of 32,768 intervals from the cutoff P = 4096 to 327,680,
    # transformed at radii r in [0, 8]: phases reach 1.6e7 radians. The
    # inputs are dyadic, so the long-double reference sees the exact
    # frequencies and nodes the program does; it is checked on a sample
    # of the 805 frequencies to keep the test short. Noise samples weigh
    # the far end of the band, where the phases are largest, as much as
    # the near end and leave no smooth cancellation: the sums land at
    # 2e-19 of sum |f| h, while phase coefficients rounded to double
    # precision put them near 2e-15.
    n, P, pmax = 32768, 4096.0, 327680.0
    h = (pmax - P) / n
    f = np.random.default_rng(1).normal(size=n + 1)
    omega = np.arange(805) / 16.0  # 2 pi r for r up to 7.998
    got = filon_sin(f, h, omega, x0=P)

    sample = np.r_[0:805:23, 804]
    want = _long_double_filon(f, h, omega[sample], P)[0]
    err = np.max(np.abs(got[sample] - want))
    assert err <= 1e-16 * np.sum(np.abs(f)) * h


# ---------------------------------------------------------------------------
# split sums on any other frequency grid
# ---------------------------------------------------------------------------


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("n", [512, 4096])
def test_geometric_grid_against_long_double(n):
    # What fourier_w transforms: w r on the well segment [0, R] and on the
    # outer segment [R, L], on a 241-point geometric momentum grid. With
    # L = 1025 the outer phases reach 7.7e4 radians. Spacings are dyadic,
    # so the reference sees the exact nodes the program does. Noise
    # samples leave no smooth cancellation: phase coefficients rounded to
    # double precision put them near 5e-15 of sum |f| h.
    omega = np.geomspace(0.01, 75.0, 241)
    assert radial._progression(omega) is None
    noise = np.random.default_rng(n).normal(size=n + 1)
    for x0, length in [(0.0, 1.0), (1.0, 1024.0)]:
        h = length / n
        r = x0 + np.arange(n + 1) * h
        smooth = (1.0 - (r / r[-1]) ** 2) ** 2 * (r if x0 == 0.0 else 0.7)
        for f in (smooth, noise):
            want = _long_double_filon(f, h, omega, x0)
            for kind, ref in zip(("sin", "cos"), want):
                got = _FILON[kind](f, h, omega, x0=x0)
                err = np.max(np.abs(got - ref))
                assert err <= 1e-15 * np.sum(np.abs(f)) * h

    # Below one radian of phase a sine sum is far smaller than sum |f| h;
    # a geometric grid and the low run of a progression both keep it to
    # relative accuracy. f > 0 fixes the sign of every term.
    h = 1.0 / n
    r = np.arange(n + 1) * h
    f = np.exp(-r) * (1.0 + r)
    for omega in (np.geomspace(1e-6, 0.9, 40), np.linspace(1e-3, 40.0, 200)):
        low = omega < 1.0
        want = _long_double_filon(f, h, omega[low], 0.0)
        for kind, ref in zip(("sin", "cos"), want):
            got = _FILON[kind](f, h, omega)[low]
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-14


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    x0=st.floats(min_value=0.0, max_value=1.0),
    omega=st.lists(st.floats(min_value=0.0, max_value=16.0),
                   min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    rows=st.sampled_from([2, 4]),  # one run, or a Richardson pair
)
@example(n=2, x0=0.0, omega=[3.0, 0.0, 1.5], seed=0, rows=2)
@example(n=3, x0=0.5, omega=[16.0, 2.0], seed=1, rows=4)  # B = 2, padded
@example(n=64, x0=0.2, omega=[9.0, 1.0, 5.0], seed=2, rows=2)  # n = B^2
@example(n=97, x0=1.0, omega=[0.1, 12.0, 7.7, 3.3], seed=3,
         rows=4)  # n % B != 0
def test_split_sums_match_direct_sums(n, x0, omega, seed, rows):
    h = 3.0 / n
    omega = np.array(omega)
    c = np.random.default_rng(seed).normal(size=(rows, n))
    got = radial._split_sums(c, h, x0, omega)
    mid = x0 + (np.arange(n) + 0.5) * h
    want = c @ np.exp(1j * mid[:, None] * omega[None, :])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(c))


@pytest.mark.parametrize("x0", [0.0, 0.7])
@pytest.mark.parametrize("grid", ["progression", "geometric", "low-phase"])
def test_filon_pair_matches_two_filon_sin_runs(grid, x0):
    # the fine half is filon_sin at h, the coarse half filon_sin on every
    # other sample at 2h; the low-phase grid is a progression whose first
    # 10 to 13 frequencies stay below one radian of phase, where f > 0 keeps
    # each sine sum to relative accuracy
    n = 512
    h = 2.0 / n
    r = x0 + np.arange(n + 1) * h
    f = np.exp(-r) * (1.0 + r)
    omega = {"progression": np.linspace(0.0, 60.0, 57),
             "geometric": np.geomspace(0.01, 75.0, 241),
             "low-phase": np.linspace(1e-3, 8.0, 200)}[grid]
    fine, coarse = radial._filon_pair(f, h, omega, x0)
    for got, want in ((fine, filon_sin(f, h, omega, x0=x0)),
                      (coarse, filon_sin(f[::2], 2 * h, omega, x0=x0))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        low = (omega > 0) & (omega * r[-1] < 1.0)
        assert np.all(np.abs(got[low] - want[low])
                      <= 1e-13 * np.abs(want[low]))


def test_geometric_grid_peak_memory():
    # Dense node x frequency sin/cos blocks for this call peak at 23.8 MB.
    n = 4096
    r = np.linspace(0.0, 800.0, n + 1)
    h = r[1]
    f = np.exp(-r / 100.0)
    omega = np.geomspace(0.01, 75.0, 241)
    filon_sin(f, h, omega, x0=1.0)  # warm any lazy set-up
    tracemalloc.start()
    try:
        filon_sin(f, h, omega, x0=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("ndim,axis", [(1, 0), (1, -1), (2, 0), (2, 1),
                                       (2, -1)])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=41),
       dx=st.floats(min_value=1e-4, max_value=1e3),
       scale=st.floats(min_value=-6.0, max_value=6.0),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@example(n=2, dx=0.5, scale=0.0, seed=0)  # two samples: the trapezoid
@example(n=3, dx=0.5, scale=0.0, seed=1)  # one Simpson panel
@example(n=4, dx=0.5, scale=0.0, seed=2)  # one panel plus Cartwright's
def test_simpson_matches_scipy(ndim, axis, n, dx, scale, seed):
    # the same uniform-grid arithmetic as scipy, so the sums agree bitwise
    from scipy.integrate import simpson as scipy_simpson
    shape = [n] if ndim == 1 else [3, 3]
    shape[axis] = n
    y = np.random.default_rng(seed).normal(size=shape) * 10.0 ** scale
    got = radial.simpson(y, dx=dx, axis=axis)
    want = scipy_simpson(y, dx=dx, axis=axis)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert [radial._fast_len(n) for n in range(1, 5000)] == [
        next_fast_len(n) for n in range(1, 5000)]
