"""High-momentum correlation kernels built on the ball solution.

The microscopic pair correlation enters through G(x) = -N w_ell(N|x|),
whose transform is a rescaling of the Neumann problem's what. Everything
downstream is a factorized kernel: a radial factor obtained by restricting
Ghat to momenta above the cutoff ell^-alpha (or below, for the low-pass
side), times separable condensate weights. All Hilbert-Schmidt norms and
gradient norms of such kernels reduce to one-dimensional momentum
integrals through the identity

    int A(x) K(x - y) B(y) dx dy = 4 pi int Ahat(s) Khat(s) Bhat(s) s^2 ds,

where Khat is a weighted self-convolution of the band profile. Those
convolutions are computed from cumulative moment tables that start exactly
at the cutoff node, so the sharp indicator never crosses a quadrature
panel.

Convention: fhat(p) = int f(x) exp(-2 pi i p.x) dx, self-inverse on radial
profiles, with (-Delta)^ = 4 pi^2 p^2.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InvalidParameterError, InvalidRegimeError,
                     SolverFailureError)
from .gp import band_matvec, kinetic_band
from .radial import (_filon_richardson, radial_fourier,
                     radial_fourier_inverse, simpson)
from .scattering import _refined_transform, fourier_w_ode, solve_neumann

# Pair transforms of condensate weights are dead beyond s ~ 2 for the
# default traps; the window [0, 6] leaves two decades of slack.
_S_MAX = 6.0
_N_S = 301
# The band grid resolves the what oscillation (period N/R in p) with
# twelve nodes; the floor keeps short bands from under-sampling.
_OSC_NODES = 192.0
_RIPPLE_NODES = 12.0
_MIN_BAND_INTERVALS = 384
_MAX_BAND_INTERVALS = 32768
_DEFECT_TOL = 5e-3


# ---------------------------------------------------------------------------
# the microscopic kernel G
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrelationG:
    """Pair kernel G(x) = -N w_ell(N|x|) with its transform.

    Ghat(p) = -what_ell(p / N) / N^2, so the decay certificate
    sup_p p^2 |Ghat(p)| equals sup_q q^2 |what(q)| (sol.sup_p2)
    independently of N.
    """

    sol: object = field(repr=False)
    N: float

    def hat(self, p):
        """Ghat(p), elementwise for p >= 0.

        Momenta above the eigenvalue scale go through the equation-based
        transform; the few below it fall back to direct oscillatory
        quadrature, which is accurate there and refused nowhere.
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(p < 0):
            raise InvalidParameterError("momenta must be >= 0")
        q = p / self.N
        out = np.empty_like(q)
        lam = self.sol.lambda_ell
        split = 8.0 * np.sqrt(max(lam, 0.0)) / (2.0 * np.pi)
        hi = q > split
        lo = (~hi) & (q > 0.0)
        if np.any(hi):
            out[hi] = fourier_w_ode(self.sol, q[hi])
        if np.any(lo):
            out[lo] = _refined_transform(self.sol, q[lo])[0]
        out[q == 0.0] = self.sol.int_w
        return -out / self.N ** 2


def build_G(sol):
    """Assemble the pair kernel from a converged ball solution."""
    return CorrelationG(sol=sol, N=float(sol.N_param))


# ---------------------------------------------------------------------------
# the Gaussian low-pass
# ---------------------------------------------------------------------------

def _lowpass_norms(ell, beta):
    """(L^1, L^2) norms of the low-pass g_L(p) = exp(-(ell^beta p)^2).

    The position-space profile is an exact Gaussian, whose L^1 norm is 1
    and whose L^2 norm is pi^(3/4) 2^(-3/4) ell^(-3 beta / 2); the norms
    are quadratures of the sampled profile. The mass quadrature must
    reproduce 1 or the sampling is broken and the call fails.
    """
    sigma = ell ** beta
    r = np.linspace(0.0, 8.0 * sigma / np.pi, 4097)
    amp = (np.sqrt(np.pi) / sigma) ** 3
    vals = amp * np.exp(-(np.pi * r / sigma) ** 2)
    l1 = 4.0 * np.pi * simpson(vals * r * r, dx=r[1] - r[0])
    l2 = np.sqrt(4.0 * np.pi * simpson(vals ** 2 * r * r, dx=r[1] - r[0]))
    if abs(l1 - 1.0) > 1e-6:
        raise SolverFailureError(f"low-pass mass quadrature defect {l1 - 1.0:.3e}")
    return float(l1), float(l2)


# ---------------------------------------------------------------------------
# factorized kernels
# ---------------------------------------------------------------------------

def _factor_values(p_nodes, fhat, r):
    """Inverse transform of the band profile at radii r (Richardson Filon)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    h = p_nodes[1] - p_nodes[0]
    vals = _filon_richardson(fhat * p_nodes, h, 2.0 * np.pi * r,
                             x0=p_nodes[0])
    at_zero = 4.0 * np.pi * simpson(fhat * p_nodes ** 2, dx=h)
    safe = np.where(r > 1e-9, r, 1.0)
    return np.where(r > 1e-9, 2.0 / safe * vals, at_zero)


@dataclass(frozen=True, eq=False)
class FactorizedKernel:
    """Kernel u(x) F(x - y) v(y) with a band-limited radial factor.

    The factor is stored by its momentum samples on a uniform band whose
    first node is the cutoff; position values are synthesized on demand,
    so the sharp indicator is applied exactly in momentum space.
    """

    N: float
    p_nodes: np.ndarray = field(repr=False)
    fhat: np.ndarray = field(repr=False)

    @property
    def cutoff_momentum(self):
        return float(self.p_nodes[0])

    def factor(self, r):
        return _factor_values(self.p_nodes, self.fhat, r)


def _band_nodes(G, P):
    """Uniform momentum band [P, pmax] with the cutoff P as a node.

    The profile carries two oscillation scales: period N/R from the
    potential edge and period 1/(ell R) from the far end of the
    scattering tail. The tail ripple decays like the square of the
    cutoff fraction P/N, so it enters the node budget only when the
    cutoff sits deep below the envelope knee. Budgets beyond the hard
    cap fall back to the cap; the convergence certificate in the norm
    routines rejects any band that is still too coarse.
    """
    R = G.sol.potential.support_radius
    pmax = max(20.0 * G.N / R, 4.0 * P)
    spacing = G.N / (_OSC_NODES * R)
    if P / G.N < 0.2:
        spacing = min(spacing, 1.0 / (_RIPPLE_NODES * G.sol.ell * R))
    natural = int(np.ceil((pmax - P) / spacing))
    n_int = min(max(natural, _MIN_BAND_INTERVALS), _MAX_BAND_INTERVALS)
    n_int += n_int % 2  # even interval count so half resolution nests
    return np.linspace(P, pmax, n_int + 1)


def build_eta_H(G, cutoff):
    """High-momentum pair kernel phi(x) F(x-y) phi(y), F = (Ghat chi_H)^v
    with chi_H the indicator of |p| >= cutoff; the band's first node is
    the sharp cutoff, so chi_H is 1 on it."""
    p_nodes = _band_nodes(G, cutoff)
    return FactorizedKernel(N=float(G.N), p_nodes=p_nodes, fhat=G.hat(p_nodes))


def build_nu_H(eta):
    """High-momentum field kernel F(x-y) phi(y): eta_H's band, which the
    condensate weight phi enters only on the right."""
    return eta


# ---------------------------------------------------------------------------
# weighted band self-convolutions
# ---------------------------------------------------------------------------

def _horner(c, t):
    """sum_q c[q] t^q by Horner's rule."""
    acc = c[-1]
    for cq in c[-2::-1]:
        acc = acc * t + cq
    return acc


def _moment_table(p_nodes, vals, power):
    """Exact cumulative moment int u^power vals du of the sampled profile.

    The profile is taken piecewise linear between nodes and the moment is
    integrated in closed form, so the table is exact for that model at
    every point. A spline through node values of the cumulative would
    instead lose the intra-panel oscillation of the band profile, whose
    rectified residue converges only slowly; the closed form does not.
    On segment i, from u with value b and slope m, the moment from the
    cutoff to u + tau is a polynomial in tau whose tau^q coefficient is
    row q, column i + 1 of the returned array. Column 0 (below the band)
    is zero and column n + 1 (beyond it) holds the total, so a segment
    index clipped to [-1, n] reads the moment at the clipped point.
    """
    h = p_nodes[1] - p_nodes[0]
    u = p_nodes[:-1]
    b = vals[:-1]
    m = np.diff(vals) / h
    if power == 1:
        # b (u t + t^2/2) + m (u t^2/2 + t^3/3)
        coef = (b * u, 0.5 * (b + m * u), m / 3.0)
    elif power == 3:
        # b (u^3 t + 3/2 u^2 t^2 + u t^3 + t^4/4)
        #   + m (u^3 t^2/2 + u^2 t^3 + 3/4 u t^4 + t^5/5)
        u2 = u * u
        coef = (b * u2 * u, 1.5 * b * u2 + 0.5 * m * u2 * u,
                b * u + m * u2, 0.25 * b + 0.75 * m * u, 0.2 * m)
    else:
        raise InvalidParameterError(f"unsupported moment power {power}")
    table = np.zeros((len(coef) + 1, u.size + 2))
    table[1:, 1:-1] = coef
    table[0, 2:] = np.cumsum(_horner(table[:, 1:-1], h))
    return table


def _moment_lookup(p_nodes, table, x):
    """The moment of _moment_table at arbitrary points x."""
    h = p_nodes[1] - p_nodes[0]
    k = np.clip(np.floor((x - p_nodes[0]) / h), -1, p_nodes.size - 1)
    k = k.astype(int)
    return _horner(table[:, k + 1], x - (p_nodes[0] + k * h))


def _distinct(x):
    """np.unique(x, return_inverse=True) for a 1-D array, by one sort.

    numpy's unique imports numpy.ma on its first call, which nothing here
    reads; this returns the same sorted values and inverse indices.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.ones(xs.size, dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    inv = np.empty(x.size, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return xs[new], inv


def _simpson_weights(n, dx):
    """w with w @ y equal to radial.simpson(y, dx) for n >= 2 samples."""
    if n == 2:
        return np.full(2, 0.5 * dx)
    m = n - 1 + n % 2  # samples under the Simpson panels
    w = np.zeros(n)
    w[0:m:2], w[1:m:2], w[[0, m - 1]] = 2.0, 4.0, 1.0
    w *= dx / 3.0
    if n % 2 == 0:  # Cartwright's last interval
        w[-3:] += (-dx / 12.0, 2.0 * dx / 3.0, 5.0 * dx / 12.0)
    return w


def _node_rule(p_nodes, pairs, s, m):
    """Simpson sums over nodes j >= m of g_j [M(s + t_j) - M(t_j - s)].

    pairs holds (g, table): g sampled on the band nodes t_j = p0 + j h, M
    the moment of table. s > 0 and m are per row, with p0 + m h >= s, so
    t_j - s = |s - t_j| at every node summed. Both s + t_j and t_j - s sit
    at o + j h above p0, with o = s and -s, so each lies in segment
    floor(o/h) + j at the offset tau = o - h floor(o/h) for every j. A
    side's sum is thus a polynomial in its tau whose coefficients are
    Simpson sums of g against shifted table columns, one set per distinct
    (shift, m): dots of g times the Simpson weights with a window of the
    edge-padded table.
    """
    h = p_nodes[1] - p_nodes[0]
    n = p_nodes.size - 1
    w = {mk: _simpson_weights(n + 1 - mk, h) for mk in _distinct(m)[0]}
    wg = {(q, mk): w[mk] * g[mk:] for mk in w
          for q, (g, _) in enumerate(pairs)}
    out = np.zeros((len(pairs), s.size))
    for sign, o in ((1.0, s), (-1.0, -s)):
        shift = np.floor(o / h).astype(int)
        keys, inv = _distinct(shift * (n + 1) + m)
        k, m_keys = np.divmod(keys, n + 1)
        lo = k + 1 + m_keys  # first window column, k + j + 1 at j = m
        left, right = max(0, -lo.min()), max(0, (lo - m_keys).max() - 1)
        for q, (_, table) in enumerate(pairs):
            # a clipped segment reads the edge
            padded = np.pad(table, ((0, 0), (left, right)), "edge")
            sums = []
            for a, mk in zip(lo + left, m_keys):
                win = padded[:, a:a + n + 1 - mk]
                sums.append(win @ wg[q, mk])
                # cancel M(t_j), common to both sides, per node
                sums[-1][0] = (win[0] - table[0, mk + 1:]) @ wg[q, mk]
            out[q] += sign * _horner(np.array(sums)[inv].T, o - shift * h)
    return out


# kind -> terms (e, power), each int t^e a(t) [M(s + t) - M(|s - t|)] dt
# with M the power-th moment of b; how they combine at s > 0; the
# weight of the s = 0 value
_CONV_KINDS = {
    "plain": (((1, 1),), lambda s, d: d[0], lambda p: 1.0),
    "grad": (((1, 1), (3, 1), (1, 3)),
             lambda s, d: -2.0 * np.pi ** 2 * (s ** 2 * d[0] - d[1] - d[2]),
             lambda p: 4.0 * np.pi ** 2 * p ** 2),
    "lap": (((3, 3),), lambda s, d: 16.0 * np.pi ** 4 * d[0],
            lambda p: 16.0 * np.pi ** 4 * p ** 4),
}


def _band_convolve(p_nodes, a_vals, b_vals, s_grid, kind):
    """Weighted radial convolution (a * b)(s) of band profiles.

    kind "plain" gives the transform of F_a F_b, "grad" of
    grad F_a . grad F_b, and "lap" of (Delta F_a)(Delta F_b). All three
    come from the two-center reduction

        (a * b)(s) = (2 pi / s) int t a(t) [int_{|s-t|}^{s+t} u b(u)
                      W(s, t, u) du] dt

    with W = 1, -4 pi^2 (s^2 - t^2 - u^2)/2, and 16 pi^4 t^2 u^2, so the
    integrand is a sum of terms t^e a(t) [M(s + t) - M(|s - t|)] with M
    an exact cumulative moment of b (_moment_table).

    The integrand has kinks where the inner window |s - t| meets zero or
    the band's first node p0, all at t <= p0 + s; node quadrature smears
    that layer over a full panel, an O(h) bias. The outer nodes below
    p0 + s + 2 h are therefore integrated on a refined subgrid, whose
    points are not band nodes and so go through the general
    _moment_lookup. Beyond it the Simpson node rule is a weighted dot
    product per band shift on a padded table window (_node_rule). A band
    too short to leave two intervals beyond the refined layer of every s
    is refused.
    """
    if kind not in _CONV_KINDS:
        raise InvalidParameterError(f"unknown convolution weight {kind!r}")
    terms, combine, weight0 = _CONV_KINDS[kind]
    h = p_nodes[1] - p_nodes[0]
    p0 = p_nodes[0]
    tables = {power: _moment_table(p_nodes, b_vals, power)
              for _, power in terms}
    s_flat = np.asarray(s_grid, dtype=float)
    pos = s_flat > 0.0
    s = s_flat[pos]
    # m[i] outer nodes of row i go to the refined subgrid, an even count
    m = 2 * np.ceil((s + 2.0 * h) / (2.0 * h)).astype(int)
    if m.max() > p_nodes.size - 3:
        raise InvalidParameterError(
            f"band of {p_nodes.size - 1} intervals of {h:g} is too short "
            f"for separation {s.max():g}")
    pairs = [(p_nodes ** e * a_vals, tables[power]) for e, power in terms]
    conv = combine(s, _node_rule(p_nodes, pairs, s, m))
    for mk in _distinct(m)[0]:
        rows = m == mk
        n_fine = max(64, 8 * int(mk))
        t_f = np.linspace(p0, p0 + mk * h, n_fine + 1)
        a_f = np.interp(t_f, p_nodes, a_vals)
        s_rows = s[rows][:, None]
        diff = {power: _moment_lookup(p_nodes, table, s_rows + t_f)
                - _moment_lookup(p_nodes, table, np.abs(s_rows - t_f))
                for power, table in tables.items()}
        conv[rows] += simpson(combine(s_rows, [t_f ** e * a_f * diff[power]
                                               for e, power in terms]),
                              dx=mk * h / n_fine, axis=1)

    at_zero = 4.0 * np.pi * simpson(
        p_nodes ** 2 * a_vals * b_vals * weight0(p_nodes), dx=h)
    out = np.full(s_flat.shape, at_zero)
    out[pos] = 2.0 * np.pi / s * conv
    return out


def _pairing(K, ahat, bhat, s_grid):
    """4 pi int K(s) ahat(s) bhat(s) s^2 ds on the uniform s grid."""
    return 4.0 * np.pi * simpson(K * ahat * bhat * s_grid ** 2,
                                 dx=s_grid[1] - s_grid[0])


# ---------------------------------------------------------------------------
# eta and nu norms
# ---------------------------------------------------------------------------

def _laplacian_phi(state):
    """Delta phi on the full grid from the minimizer's own stencil."""
    n_int = state.u.size
    kin = kinetic_band(n_int, state.h)
    lap = np.zeros_like(state.grid)
    lap[1:-1] = -band_matvec(kin, state.u) / state.grid[1:-1]
    lap[0] = 1.5 * lap[1] - 0.6 * lap[2] + 0.1 * lap[3]
    return lap


class _Spectra:
    """Pair transforms of phi^2, |phi'|^2 and (Delta phi)^2 on the s grid.

    Each is built on first use. They depend on the condensate only, so
    sweep_kernels builds one instance for all its rows.
    """

    def __init__(self, state):
        self.state = state
        self.s_grid = np.linspace(0.0, _S_MAX, _N_S)

    def _transform(self, vals):
        return radial_fourier(vals, self.state.h, self.s_grid)

    @cached_property
    def phi2hat(self):
        return self._transform(self.state.phi ** 2)

    @cached_property
    def g2hat(self):
        return self._transform(
            np.gradient(self.state.phi, self.state.h, edge_order=2) ** 2)

    @cached_property
    def lap2hat(self):
        return self._transform(_laplacian_phi(self.state) ** 2)


class _BandWork:
    """Objects of one band profile on the s grid, each built on first use.

    These are the self-convolutions K0, K2, K4 ("plain", "grad", "lap")
    at full and half resolution, and the row supremum. eta_H and nu_H of
    one sweep row share their band, so one instance serves eta_norms,
    nu_norms and hyperbolic of that row.
    """

    def __init__(self, k, spectra):
        self.p_nodes, self.fhat = k.p_nodes, k.fhat
        self.spectra = spectra
        self._convs = {}

    def conv(self, kind, half=False):
        """Band self-convolution; half takes every other band and s node."""
        if (kind, half) not in self._convs:
            sl = slice(None, None, 2 if half else 1)
            f = self.fhat[sl]
            self._convs[kind, half] = _band_convolve(
                self.p_nodes[sl], f, f, self.spectra.s_grid[sl], kind)
        return self._convs[kind, half]

    @cached_property
    def row_sup(self):
        """sup_x of the row norm sqrt((F^2 conv phi^2)(x))."""
        sp = self.spectra
        conv = radial_fourier_inverse(self.conv("plain") * sp.phi2hat,
                                      sp.s_grid[1] - sp.s_grid[0],
                                      sp.state.grid)
        return float(np.sqrt(np.clip(conv, 0.0, None).max()))


def _factor_sup(k):
    """sup_r |F(r)| over a window resolving the cutoff oscillation.

    F is evaluated on each of two uniform radius grids, a fine one over
    thirty cutoff wavelengths and a coarse one over [0, 8]; the larger
    maximum wins.
    """
    P = k.cutoff_momentum
    return max(float(np.max(np.abs(k.factor(r))))
               for r in (np.linspace(0.0, min(30.0 / P, 8.0), 4097),
                         np.linspace(0.0, 8.0, 801)))


def _eta_quadratures(work, half):
    sl = slice(None, None, 2 if half else 1)
    sp = work.spectra
    s_grid, phi2hat, g2hat = sp.s_grid[sl], sp.phi2hat[sl], sp.g2hat[sl]
    K0 = work.conv("plain", half)
    K2 = work.conv("grad", half)
    l2sq = _pairing(K0, phi2hat, phi2hat, s_grid)
    t_a = _pairing(K0, g2hat, phi2hat, s_grid)
    t_b = 0.5 * _pairing(4.0 * np.pi ** 2 * s_grid ** 2 * K0,
                         phi2hat, phi2hat, s_grid)
    t_c = _pairing(K2, phi2hat, phi2hat, s_grid)
    return l2sq, (t_a, t_b, t_c)


def eta_norms(k, work):
    """The pair kernel's entries of a sweep row, by one-dimensional
    momentum quadrature on the row's _BandWork.

    eta_l2 is the Hilbert-Schmidt norm and eta_grad_l2 the HS norm of the
    one-slot gradient. The gradient norm splits by the product rule into
    a weight-gradient term, an exact cross term (both inner gradients
    collapse onto gradients of squares), and a factor-gradient term.
    eta_row_sup is the supremum over x of ||eta_x|| / |phi(x)| (the
    weight cancels, leaving the convolution root), and
    eta_pointwise_ratio the supremum of |eta| / (N phi phi) = max |F| / N.
    A half-resolution rerun of every quadrature serves as the convergence
    certificate, eta_defect; the call fails rather than returning an
    uncertified number.
    """
    if not np.any(k.fhat):
        return dict.fromkeys(("eta_l2", "eta_grad_l2", "eta_row_sup",
                              "eta_pointwise_ratio", "eta_defect"), 0.0)
    l2sq, parts = _eta_quadratures(work, half=False)
    gradsq = sum(parts)

    l2sq_c, parts_c = _eta_quadratures(work, half=True)
    defect = max(abs(l2sq - l2sq_c) / l2sq, abs(gradsq - sum(parts_c)) / gradsq)
    if not np.isfinite(defect) or defect > _DEFECT_TOL:
        raise SolverFailureError(
            f"kernel quadrature not converged: defect {defect:.3e}")

    return {"eta_l2": float(np.sqrt(l2sq)),
            "eta_grad_l2": float(np.sqrt(gradsq)),
            "eta_row_sup": work.row_sup,
            "eta_pointwise_ratio": float(_factor_sup(k) / k.N),
            "eta_defect": float(defect)}


def nu_norms(k, work):
    """The field kernel's entries of a sweep row; the factor norm is a
    plain band integral.

    nu_l2 is the factor's L^2 norm, which also equals sup_y ||nu_y|| /
    |phi(y)| because the right weight cancels; nu_row_sup is the row
    supremum of the row's _BandWork. nu_sup_p2 is the largest
    per-momentum slice norm p^2 |Ghat(p)| chi_H(p) over the band nodes,
    and nu_defect the half-resolution certificate of the L^2 norm.
    """
    h = k.p_nodes[1] - k.p_nodes[0]
    if not np.any(k.fhat):
        return dict.fromkeys(("nu_l2", "nu_row_sup", "nu_sup_p2",
                              "nu_defect"), 0.0)
    fsq = 4.0 * np.pi * simpson(k.fhat ** 2 * k.p_nodes ** 2, dx=h)
    fsq_c = 4.0 * np.pi * simpson(k.fhat[::2] ** 2 * k.p_nodes[::2] ** 2,
                                  dx=2.0 * h)
    defect = abs(fsq - fsq_c) / fsq
    if not np.isfinite(defect) or defect > _DEFECT_TOL:
        raise SolverFailureError(
            f"kernel quadrature not converged: defect {defect:.3e}")
    return {"nu_l2": float(np.sqrt(fsq)), "nu_row_sup": work.row_sup,
            "nu_sup_p2": float(np.max(k.p_nodes ** 2 * np.abs(k.fhat))),
            "nu_defect": float(defect)}


# ---------------------------------------------------------------------------
# the cubic-term kernel
# ---------------------------------------------------------------------------

def build_hN(sol, state, spectra):
    """The cubic-term kernel's entries of a sweep row, from the ball
    solution, the minimizer and the sweep's _Spectra.

    h_N(x) = phi(x) (k_N conv phi^2)(x) with k_N(z) = N^3 (V w_ell)(N z),
    which concentrates as N grows, so h_N approaches (int V w_ell) phi^3.
    hn_l2 and hn_sup are the L^2 and sup norms of h_N, and hn_limit_gap
    the L^2 distance to that limit. The convolution is carried out in
    momentum space: the transform of k_N is the well-supported transform
    of V w evaluated at p / N, which is smooth there, so no oscillatory
    quadrature is needed.
    """
    N = sol.N_param
    fvals, h_well, r0 = sol.segments[0]
    r_well = r0 + np.arange(fvals.size) * h_well
    vw = sol.potential(r_well) * (1.0 - fvals)
    int_vw = 4.0 * np.pi * simpson(vw * r_well ** 2, dx=h_well)

    s_grid = spectra.s_grid
    q = s_grid / N
    pos = q > 0.0
    safe = np.where(pos, q, 1.0)
    khat = np.where(pos, 2.0 / safe * _filon_richardson(
        vw * r_well, h_well, 2.0 * np.pi * q), int_vw)

    h_s = s_grid[1] - s_grid[0]
    conv = radial_fourier_inverse(khat * spectra.phi2hat, h_s, state.grid)
    values = conv * state.phi
    limit = int_vw * state.phi ** 3
    r = state.grid
    l2 = np.sqrt(4.0 * np.pi * simpson(values ** 2 * r * r, dx=state.h))
    gap = np.sqrt(4.0 * np.pi * simpson((values - limit) ** 2 * r * r,
                                        dx=state.h))
    return {"hn_l2": float(l2), "hn_sup": float(np.max(np.abs(values))),
            "hn_limit_gap": float(gap)}


# ---------------------------------------------------------------------------
# hyperbolic remainders
# ---------------------------------------------------------------------------

def _lap_eta_bound(work):
    """Triangle bound on the one-slot Laplacian's HS norm.

    Delta_1 [phi F phi] = (Delta phi) F phi + 2 grad phi . grad F phi
    + phi (Delta F) phi; the outer terms are exact pairings and the cross
    term is dominated by the product of moduli.
    """
    sp = work.spectra
    t_weight = _pairing(work.conv("plain"), sp.lap2hat, sp.phi2hat, sp.s_grid)
    t_cross = 4.0 * _pairing(work.conv("grad"), sp.g2hat, sp.phi2hat,
                             sp.s_grid)
    t_factor = _pairing(work.conv("lap"), sp.phi2hat, sp.phi2hat, sp.s_grid)
    return sum(float(np.sqrt(max(t, 0.0)))
               for t in (t_weight, t_cross, t_factor))


def hyperbolic(norms, work, tol):
    """The sinh / cosh remainders' entries of a sweep row: certified norm
    bounds of p_k = sinh(eta) - eta and r_eta = cosh(eta) - id.

    norms are the row's eta_norms entries and work its _BandWork. Both
    series are power series in eta; p_norm and r_norm are their
    submultiplicative Hilbert-Schmidt bounds, and grad_p_norm and
    lap_p_norm chain one slot derivative through ||D eta|| ||eta||^(m-1).
    Requires the HS norm of the base kernel below 1; series_depth is the
    smallest d with eta_l2^(2d) / (2d)! < tol, and tail_bound that value,
    which dominates the whole dropped tail since the series is
    submultiplicative.
    """
    l2 = norms["eta_l2"]
    if l2 == 0.0:
        return dict.fromkeys(("p_norm", "r_norm", "grad_p_norm",
                              "lap_p_norm", "series_depth", "tail_bound"),
                             0.0)
    if l2 >= 1.0:
        raise InvalidRegimeError(
            f"pair kernel HS norm {l2:.4f} >= 1: hyperbolic series "
            "diverges; raise the cutoff or shrink the box scale")
    if tol <= 0.0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")

    log_l2 = math.log(l2)
    depth = 1
    while 2 * depth * log_l2 - math.lgamma(2 * depth + 1) >= math.log(tol):
        depth += 1
        if depth > 200:
            raise SolverFailureError("series depth runaway; tolerance too small")
    tail = math.exp(2 * depth * log_l2 - math.lgamma(2 * depth + 1))

    ks = np.arange(1, depth + 1)
    odd_c = np.array([1.0 / math.factorial(2 * j + 1) for j in ks])
    even_c = np.array([1.0 / math.factorial(2 * j) for j in ks])
    chain_odd = float(np.sum(l2 ** (2 * ks) * odd_c))
    return {"p_norm": float(np.sum(l2 ** (2 * ks + 1) * odd_c)),
            "r_norm": float(np.sum(l2 ** (2 * ks) * even_c)),
            "grad_p_norm": float(norms["eta_grad_l2"] * chain_odd),
            "lap_p_norm": float(_lap_eta_bound(work) * chain_odd),
            "series_depth": float(depth), "tail_bound": float(tail)}


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

# The cutoff as a fraction of the interaction's momentum scale N / R.
_CUTOFF_FRACTION = 0.25


def default_sweep_tuples(alpha, ells=(0.5, 0.25, 0.125), support_radius=1.0):
    """(ell, N) pairs holding the cutoff at a fixed fraction of N / R.

    The box-scale laws are uniform in N only while the cutoff stays well
    inside the interaction's momentum envelope; pinning
    cutoff = _CUTOFF_FRACTION * N / R keeps every sweep point in that
    regime, so fitted slopes measure the exponent and not the envelope's
    knee.
    """
    return tuple(
        (float(ell),
         int(np.ceil(ell ** -alpha * support_radius / _CUTOFF_FRACTION)))
        for ell in ells)


def sweep_kernels(potential, state, alpha=4.0, beta=2.0,
                  ells=(0.5, 0.25, 0.125), tol=1e-12, n_pts=4096,
                  solved=None):
    """Solve, build, and measure every kernel across a box-scale sweep.

    Returns one row per (ell, N) of default_sweep_tuples: the high band
    starts at the cutoff momentum ell^-alpha, the Gaussian low-pass has
    width ell^beta (gauss_l1, gauss_l2 are its norms), g_sup_p2 is the
    decay certificate of Ghat and g_hat_zero its value at 0, and the
    routines eta_norms, nu_norms, hyperbolic and build_hN give the rest.
    solved is an optional NeumannSolution computed earlier, such as the
    scatter stage's; a row whose potential, (ell, N) and n_pts it matches
    uses it instead of solving again. N is compared as a float.
    """
    if not 0.0 < beta < alpha:
        raise InvalidParameterError(
            f"low-pass exponent {beta} must lie in (0, alpha = {alpha})")
    rows = []
    # One set of condensate transforms for the sweep; per row one band,
    # shared by eta_H and nu_H (they differ only in the left weight), and
    # one set of its convolutions.
    spectra = _Spectra(state)
    for ell, N in default_sweep_tuples(alpha, ells, potential.support_radius):
        if solved is not None and solved.potential is potential and (
                solved.ell, solved.N_param, solved.n_pts) == (ell, N, n_pts):
            sol = solved
        else:
            sol = solve_neumann(potential, ell, N, n_pts)
        cutoff = float(ell ** -alpha)
        eta = build_eta_H(build_G(sol), cutoff)
        work = _BandWork(eta, spectra)
        en = eta_norms(eta, work)
        gauss_l1, gauss_l2 = _lowpass_norms(ell, beta)
        rows.append({
            "ell": float(ell), "N": float(N), "big_ell": float(ell * N),
            "alpha": float(alpha), "beta": float(beta),
            "cutoff_momentum": cutoff, "g_sup_p2": sol.sup_p2,
            "g_hat_zero": float(-sol.int_w / sol.N_param ** 2),
            "gauss_l1": gauss_l1, "gauss_l2": gauss_l2,
            **en, **nu_norms(build_nu_H(eta), work),
            **hyperbolic(en, work, tol),
            **build_hN(sol, state, spectra),
        })
    return rows
