"""Radial grids, oscillatory quadrature, and the 3D radial Fourier transform.

Everything downstream works with rotation-invariant functions sampled on
uniform radial grids, so this module concentrates the shared machinery:

- a Filon-type quadrature for integrals of the form  int f(r) sin(w r) dr
  and  int f(r) cos(w r) dr  whose cost and accuracy are independent of the
  oscillation frequency w (the integrand's smooth factor is interpolated
  piecewise linearly; the oscillation is integrated exactly). The runs at
  h and 2h of a Richardson pair share one pass of the sums over nodes, and
  the frequency grid picks how they are evaluated: an arithmetic
  progression (three or more) by a Bluestein chirp-z transform on
  numpy.fft, O((n + m) log(n + m)); any other grid, and a progression's
  run of phases below one radian, by an exact split of each node's
  exponential into block and in-block factors, O(m sqrt(n)); both reduce
  phases in cycles in long double,
- the unitary radial Fourier transform  F[w](p) = (2/p) int w(r) r sin(2 pi p r) dr
  with the convention  (-Delta) <-> 4 pi^2 p^2,  which is its own inverse,
- the composite Simpson rule.

Grids are r_j = j * h for j = 0..n; pass the number of intervals n, keep it
even so Simpson and Richardson halving both apply.
"""

import math

import numpy as np

from .errors import InvalidDomainError, InvalidParameterError

# Below this value of w*h/2 the closed-form Filon weights lose digits to
# cancellation, so a short Taylor series takes over.
_SERIES_SWITCH = 1e-3

# Cap on the split sums' blocks (about 8 sqrt(n) per frequency), in elements.
_CHUNK_ELEMS = 4_000_000

# 2 pi to long-double precision: phase coefficients are formed in cycles
# from it, so their own rounding stays far below one ulp of the phase.
_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")


def _filon_weights(omega, h):
    """Per-interval moment weights A(w) = int cos(w t) dt and
    B(w) = int t sin(w t) dt over [-h/2, h/2], series-switched near w = 0."""
    omega = np.asarray(omega, dtype=float)
    x = 0.5 * omega * h
    small = np.abs(x) < _SERIES_SWITCH
    xs = np.where(small, x, 1.0)  # safe dummy for the closed-form branch
    x2 = xs * xs
    a_series = h * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
    b_series = (omega * h ** 3 / 12.0) * (1.0 - x2 / 10.0 + x2 * x2 / 280.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_closed = 2.0 * np.sin(x) / omega
        b_closed = 2.0 * (np.sin(x) - x * np.cos(x)) / omega ** 2
    a = np.where(small, a_series, a_closed)
    b = np.where(small, b_series, b_closed)
    return a, b


def simpson(y, dx, axis=-1):
    """Composite Simpson along axis in scipy.integrate.simpson's uniform-grid
    arithmetic, term for term, with Cartwright's last interval if n is even."""
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    n = y.shape[-1]
    if n == 2:
        return 0.5 * dx * (y[..., -1] + y[..., -2])
    m = n - 1 + n % 2  # samples under the Simpson panels
    out = np.sum(y[..., 0:m - 2:2] + 4.0 * y[..., 1:m - 1:2]
                 + y[..., 2:m:2], axis=-1) * (dx / 3.0)
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = 1 * h ** 3 / (6 * h * (h + h))
        out = out + (alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3])
    return out


def _progression(omega):
    """(first, step) if omega is an arithmetic progression of >= 3 values."""
    if omega.ndim != 1 or omega.size < 3:
        return None
    first = omega[0]
    step = (omega[-1] - first) / (omega.size - 1)
    dev = np.max(np.abs(omega - (first + step * np.arange(omega.size))))
    # a few ulps of the largest frequency: what linspace and a scale leave
    if not dev <= 8.0 * np.finfo(float).eps * np.max(np.abs(omega)):
        return None
    return first, step


def _cycles(coef, k):
    """Fractional part of coef * k, in cycles, for integer-valued k >= 0.

    coef (long doubles) splits into a head with few enough bits that
    head * k is exact in double precision and a tail whose product errs
    far below one ulp of the phase; each part is reduced before the sum.
    """
    bits = 53 - max(int(np.max(k)).bit_length(), 1)
    mant, expo = np.frexp(np.asarray(coef, dtype=float))
    head = np.ldexp(np.round(np.ldexp(mant, bits)), expo - bits)
    tail = np.asarray(coef - head, dtype=float)
    big = head * k
    ph = (big - np.round(big)) + tail * k
    return ph - np.round(ph)


def _expi(cycles):
    return np.exp(2j * np.pi * cycles)


def _fast_len(n):
    """Smallest 11-smooth length >= n, scipy.fft.next_fast_len's choice for
    complex transforms; n < 2^64 is 11-smooth iff it divides 2310^64."""
    while 2310 ** 64 % n:
        n += 1
    return n


def _chirp_sums(c, h, x0, first, step, m):
    """Z[r, j] = sum_i c[r, i] exp(i w_j mid_i) by Bluestein's chirp-z.

    w_j = first + j step for j < m and mid_i = x0 + (i + 1/2) h. Writing
    j i = (j^2 + i^2 - (j - i)^2) / 2 turns the sum into one convolution
    with a chirp, done by FFT. Every phase is formed in cycles and reduced
    mod 1 before exp, so a phase of 1e7 radians keeps full accuracy.
    """
    n = c.shape[-1]
    x0, h = np.longdouble(x0), np.longdouble(h)
    nu0 = np.longdouble(first) / _TWO_PI
    dnu = np.longdouble(step) / _TWO_PI
    beta = dnu * h / 2
    i = np.arange(n, dtype=float)
    j = np.arange(m, dtype=float)
    lag = np.arange(1 - n, m, dtype=float)
    const = nu0 * x0
    const = float(const - np.round(const))
    pre = _expi(_cycles(nu0 * h / 2, 2.0 * i + 1.0) + _cycles(beta, i * i))
    post = _expi(const + _cycles(dnu * (x0 + h / 2), j) + _cycles(beta, j * j))
    size = _fast_len(n + m - 1)
    chirp = np.zeros(size, dtype=complex)
    chirp[lag.astype(int)] = _expi(-_cycles(beta, lag * lag))
    spec = np.fft.fft(c * pre, size, axis=-1) * np.fft.fft(chirp)
    return np.fft.ifft(spec, axis=-1)[:, :m] * post


def _split_sums(c, h, x0, omega):
    """Z[r, j] = sum_i c[r, i] exp(i w_j mid_i) for any frequencies w_j.

    Nodes i = q B + s in Q blocks of B = ceil(sqrt(n)) split each phase
    exactly, w mid_i = w (x0 + (q B + 1/2) h) + w s h: m (Q + B) cosines
    and sines, not m n. Phases are reduced in cycles at long-double
    precision; for x0, w >= 0 both parts share a sign, so low-phase sine
    sums keep relative accuracy.
    """
    rows, n = c.shape
    B = math.isqrt(n - 1) + 1
    Q = -(-n // B)
    blocks = np.pad(c, ((0, 0), (0, Q * B - n))).reshape(rows * Q, B).T
    nu = np.asarray(omega, dtype=np.longdouble)[:, None] / _TWO_PI
    x1 = 2 * np.pi * (_cycles(nu * x0 + nu * h / 2, 1.0)
                      + _cycles(nu * B * h, np.arange(Q, dtype=float)))
    x2 = 2 * np.pi * _cycles(nu * h, np.arange(B, dtype=float))
    e1 = np.stack([np.cos(x1), np.sin(x1)], axis=2)
    e2 = np.stack([np.cos(x2), np.sin(x2)], axis=1)
    # p[j, a, r, b] = sum_q (Re, Im)[a] of E2 @ C_r^T times (cos, sin)[b] of E1
    p = np.concatenate([  # two rows at a time: four would double the peak
        (e2.reshape(-1, B) @ blocks[:, r * Q:(r + 2) * Q]).reshape(
            -1, 2, 2, Q) @ e1[:, None] for r in range(0, rows, 2)], axis=2)
    return (p[:, 0, :, 0] - p[:, 1, :, 1] + 1j * (p[:, 0, :, 1] + p[:, 1, :, 0])).T


def _sums(c, h, x0, omega):
    """Z[r, j] = sum_i c[r, i] exp(i w_j (x0 + (i + 1/2) h)).

    An arithmetic progression of frequencies goes through the chirp-z sums;
    any other grid through the exact split sums. These also take the
    frequencies of a progression whose phase stays below one radian over
    the whole window: there a sine sum is far smaller than sum |f| h, and
    only a sum of the phases' own exponentials keeps it to relative
    accuracy (callers divide it by the frequency)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = c.shape[-1]
    z = np.empty((c.shape[0], omega.size), dtype=complex)
    todo = np.arange(omega.size)  # the frequencies for the split sums
    prog = _progression(omega)
    if prog is not None:
        low = np.abs(omega) * max(abs(x0), abs(x0 + n * h)) < 1.0
        if not low.all():
            z[:] = _chirp_sums(c, h, x0, *prog, omega.size)
            todo = np.nonzero(low)[0]
    step = max(1, _CHUNK_ELEMS // (8 * math.isqrt(n) + 8))
    for sel in (todo[lo:lo + step] for lo in range(0, todo.size, step)):
        z[:, sel] = _split_sums(c, h, x0, omega[sel])
    return z


def _coefficients(f, h):
    """Midpoint values and slopes of the samples f, on >= 2 intervals."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 3:
        raise InvalidDomainError("samples must be a 1D array on >= 2 intervals")
    return np.stack([0.5 * (f[:-1] + f[1:]), (f[1:] - f[:-1]) / h])


def _filon_core(f, h, omega, kind, x0=0.0):
    """Shared evaluation for filon_sin / filon_cos."""
    z = _sums(_coefficients(f, h), h, x0, omega)
    a, b = _filon_weights(omega, h)
    if kind == "sin":
        return a * z[0].imag + b * z[1].real
    return a * z[0].real - b * z[1].imag


def filon_sin(f, h, omega, x0=0.0):
    """int f(r) sin(omega r) dr over [x0, x0 + n h], vectorized over omega.

    Exact for piecewise-linear f at any frequency; O(h^2) for smooth f with
    an error constant that does not grow with omega.
    """
    return _filon_core(f, h, omega, "sin", x0=x0)


def filon_cos(f, h, omega, x0=0.0):
    """int f(r) cos(omega r) dr over [x0, x0 + n h], companion to filon_sin."""
    return _filon_core(f, h, omega, "cos", x0=x0)


def _filon_pair(f, h, omega, x0=0.0):
    """filon_sin at h and at 2h on every other sample, from one pass of
    sums: the coarse midpoints x0 + (2k + 1) h are the fine ones at even
    nodes shifted by h/2, so the coarse sums take the phase exp(i w h/2)."""
    coarse = _coefficients(f[::2], 2.0 * h)
    c = np.zeros((4, np.size(f) - 1))
    c[:2], c[2:, :2 * coarse.shape[1]:2] = _coefficients(f, h), coarse
    z = _sums(c, h, x0, omega)
    z[2:] *= _expi(_cycles(np.longdouble(omega) * h / _TWO_PI / 2, 1))
    (a, b), (a2, b2) = _filon_weights(omega, h), _filon_weights(omega, 2 * h)
    return a * z[0].imag + b * z[1].real, a2 * z[2].imag + b2 * z[3].real


def _filon_richardson(f, h, omega, x0=0.0):
    """_filon_pair Richardson extrapolated: midpoint-form interpolation has
    an even error expansion, so one halving upgrades O(h^2) to O(h^4)."""
    fine, coarse = _filon_pair(f, h, omega, x0)
    return (4.0 * fine - coarse) / 3.0


def radial_fourier(w, h, p):
    """Fourier transform of a radial function, sampled transform values.

    Convention: what(p) = int w(x) exp(-2 pi i p.x) d^3x, which for radial w
    reduces to (2/p) int_0^inf w(r) r sin(2 pi p r) dr and makes the map its
    own inverse (apply it again in p to come back to r).

    `w` holds samples on the uniform grid with spacing h starting at r = 0;
    the function is treated as zero beyond the last node, so the grid must
    already contain the support that matters. `p` may contain zeros; those
    entries use the moment formula what(0) = 4 pi int w r^2 dr.
    """
    w = np.asarray(w, dtype=float)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all((p >= 0) & (p < np.inf)):  # NaN fails both
        raise InvalidParameterError("momenta must be finite and nonnegative")
    r = np.arange(w.size) * h
    g = w * r
    out = np.empty(p.shape, dtype=float)
    nz = p > 0
    if np.any(nz):
        out[nz] = 2.0 / p[nz] * _filon_richardson(g, h, 2.0 * np.pi * p[nz])
    if np.any(~nz):
        out[~nz] = 4.0 * np.pi * simpson(w * r * r, dx=h)
    return out


def radial_fourier_inverse(what, hp, r):
    """Inverse transform; identical kernel by self-reciprocity."""
    return radial_fourier(what, hp, r)

