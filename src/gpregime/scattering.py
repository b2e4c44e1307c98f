"""Zero-energy scattering and the Neumann ball problem for short-range pairs.

Both problems reduce, for radial potentials, to the half-line equation
u'' = (V/2 - lam) u with u = r f and u(0) = 0. The interaction is compactly
supported, so the integrator only works inside the support; outside, the
equation has an exact propagator (linear for lam = 0, a rotation for lam > 0)
that carries the state to any radius without discretization error. This keeps
large Neumann balls cheap: the cost is set by the well, not by the domain.

Inside the well the equation is linear, so each fixed RK4 step is a 2x2
matrix and crossing the well is their ordered product, evaluated as a tree
reduction; the sampled trajectory is the prefix scan of the same matrices.
Both run as a few vectorized passes rather than a loop over steps, which
makes a single mismatch evaluation cheap enough for the Neumann eigenvalue
to be bracketed by bisection on a fixed probe grid, where min-max allows
one sign change, and found by Brent's method (`_brentq`).

Normalizations: the zero-energy solution has f -> 1 at infinity, so its tail
is u = r - a0 and a0 is the scattering length. The Neumann minimizer on the
ball of radius L = N * ell is normalized to f(L) = 1, with eigenvalue lam
fixed by the boundary condition f'(L) = 0. w = 1 - f is the correlation hole,
extended by zero outside the ball.

The checks return what the scatter report writes: verify_lemma_scattering
one sweep row of plain floats, and fourier_w the number sup p^2 |what(p)|,
which each solution computes once as NeumannSolution.sup_p2.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDomainError,
    InvalidParameterError,
    SolverFailureError,
)
from .potentials import InteractionPotential
from .radial import _filon_pair, _filon_richardson, simpson

_MIN_PTS = 512
_RICHARDSON_TOL = 1e-9
_BRACKET_RTOL = 1e-12


# ---------------------------------------------------------------------------
# integration core
# ---------------------------------------------------------------------------

def _well_tables(potential, n_steps):
    """V on the uniform well grid [0, R] at n_steps and 2 n_steps steps.

    Returns (coarse, fine), each (h, V at the nodes, V at the midpoints).
    One evaluation serves both: the fine grid's even nodes are the coarse
    nodes and its odd nodes the coarse midpoints.
    """
    hf = potential.support_radius / (2 * n_steps)
    nodes = potential(np.arange(2 * n_steps + 1) * hf)
    mids = potential((np.arange(2 * n_steps) + 0.5) * hf)
    return (2.0 * hf, nodes[::2], nodes[1::2]), (hf, nodes, mids)


def _step_matrices(v_nodes, v_mids, h, lam):
    """Each RK4 step of u'' = (V/2 - lam) u as a 2x2 map, shape (n, m, 2, 2).

    On y = (u, u'), y' = A y with A = [[0, 1], [q, 0]] and q = V/2 - lam.
    With a, b, c the values of q at the step's left node, midpoint and
    right node, RK4's stages are linear in y:
        K1 = A(a),  K2 = A(b) (I + h/2 K1),  K3 = A(b) (I + h/2 K2),
        K4 = A(c) (I + h K3),
    and one step is y -> (I + h/6 (K1 + 2 K2 + 2 K3 + K4)) y, written out
    entry by entry below.
    """
    a = 0.5 * v_nodes[:-1, None] - lam
    b = 0.5 * v_mids[:, None] - lam
    c = 0.5 * v_nodes[1:, None] - lam
    half = 0.5 * h
    ha = 1.0 + half * half * a
    hb = 1.0 + half * half * b
    hhb = 1.0 + h * half * b
    s = h / 6.0
    M = np.empty(a.shape + (2, 2))
    M[..., 0, 0] = 1.0 + s * h * (a + b + b * ha)
    M[..., 0, 1] = s * (3.0 + 2.0 * hb + hhb)
    M[..., 1, 0] = s * (a + 2.0 * b * (1.0 + ha) + c * hhb)
    M[..., 1, 1] = 1.0 + s * h * (2.0 * b + c * hb)
    return M


def _integrate_well(v_nodes, v_mids, h, lam, store=False):
    """RK4 for u'' = (V/2 - lam) u from u(0)=0, u'(0)=1, batched over lam.

    lam has shape (m,); returns (uR, vR) of shape (m,), plus the full node
    trajectories (n+1, m) when store is set. The fixed step is exact-grid
    aligned with the potential tables, so no interpolation happens inside
    the stepper.

    The equation is linear, so the n steps are n 2x2 matrices and the
    state at R is their ordered product applied to (0, 1). The product is
    taken as a tree reduction, pairing neighbouring matrices in
    ceil(log2 n) vectorized passes; the stored trajectory is the
    inclusive prefix scan of the same matrices (Hillis-Steele, log2 n
    passes). Both agree with stepping the state one step at a time up to
    the order in which rounding falls.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    M = _step_matrices(v_nodes, v_mids, h, lam)
    if store:
        d = 1
        while d < M.shape[0]:
            M[d:] = M[d:] @ M[:-d]
            d *= 2
        # column 1 of each prefix product is the image of (u, u') = (0, 1)
        traj_u = np.concatenate([np.zeros((1, lam.size)), M[..., 0, 1]])
        traj_v = np.concatenate([np.ones((1, lam.size)), M[..., 1, 1]])
        return traj_u[-1], traj_v[-1], traj_u, traj_v
    while M.shape[0] > 1:
        odd = M[-1:] if M.shape[0] % 2 else M[:0]
        M = np.concatenate([M[1::2] @ M[0:-1:2], odd])
    return M[0, :, 0, 1], M[0, :, 1, 1]


def _certified_well(tables, lam):
    """(u, u') at eigenvalue lam on the coarse nodes of _well_tables.

    RK4 crosses the well on both grids. The relative defect of u(R)
    between them must stay below _RICHARDSON_TOL; the coarse nodes then
    take the Richardson value. Returns u, u' and the defect.
    """
    (h, vn, vm), (hf, vnf, vmf) = tables
    lam = np.array([lam])
    _, _, u_c, v_c = _integrate_well(vn, vm, h, lam, store=True)
    _, _, u_f, v_f = _integrate_well(vnf, vmf, hf, lam, store=True)
    defect = abs(u_f[-1, 0] - u_c[-1, 0]) / max(abs(u_f[-1, 0]), 1e-300)
    if not np.isfinite(defect) or defect > _RICHARDSON_TOL:
        raise SolverFailureError(
            f"well integration did not converge: boundary defect {defect:.3e}")
    u_well = u_f[::2, 0] + (u_f[::2, 0] - u_c[:, 0]) / 15.0
    v_well = v_f[::2, 0] + (v_f[::2, 0] - v_c[:, 0]) / 15.0
    return u_well, v_well, float(defect)


def _free_tail(uR, vR, lam, dr):
    """Exact propagation of (u, u') across a potential-free stretch dr."""
    lam = np.asarray(lam, dtype=float)
    dr = np.asarray(dr, dtype=float)
    omega = np.sqrt(np.maximum(lam, 0.0))
    phase = omega * dr
    small = phase < 1e-8
    # sin(x)/x and friends are regular at lam -> 0; splice the linear limit.
    sin_over = np.where(small, dr * (1.0 - phase ** 2 / 6.0),
                        np.sin(phase) / np.where(omega > 0, omega, 1.0))
    cos_p = np.cos(phase)
    u = uR * cos_p + vR * sin_over
    v = -uR * omega * np.sin(phase) + vR * cos_p
    return u, v


def _neumann_mismatch(v_nodes, v_mids, h, lam, R, L):
    """f'(L) residual in u-variables: u'(L) - u(L)/L, batched over lam."""
    uR, vR = _integrate_well(v_nodes, v_mids, h, lam)
    uL, vL = _free_tail(uR, vR, lam, L - R)
    return vL - uL / L


def _same_potential(p1, p2):
    probe = np.linspace(0.0, p1.support_radius, 257)
    return ((p1.kind, p1.params) == (p2.kind, p2.params)
            and bool(np.isclose(p1.support_radius, p2.support_radius,
                                rtol=1e-12))
            and bool(np.allclose(p1(probe), p2(probe), rtol=1e-10,
                                 atol=1e-12)))


# ---------------------------------------------------------------------------
# zero-energy problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """Scattering length of the zero-energy problem and the integral of V f."""

    potential: InteractionPotential
    a0: float
    int_Vf: float
    richardson_defect: float

    @property
    def a0_from_integral(self):
        """Second route to a0 via the identity int V f d^3x = 8 pi a0."""
        return self.int_Vf / (8.0 * np.pi)


def solve_zero_energy(potential, n_pts=4096):
    """Integrate u'' = (V/2) u across the well and read off a0.

    The well [0, R] is stepped with RK4 at two resolutions and Richardson
    extrapolated. Beyond R the solution is exactly u(R) + u'(R) (r - R),
    and f -> 1 makes it r - a0 after scaling by 1/u'(R), so
    a0 = R - u(R)/u'(R). The volume integral of V f is reported for the
    8 pi a0 cross-check.
    """
    if n_pts < _MIN_PTS:
        raise InvalidParameterError(f"n_pts must be >= {_MIN_PTS}")
    if potential.zero:
        # V vanishes identically, so f = 1 and u = r solve the problem
        # exactly; report zeros instead of integrator noise.
        return ScatteringSolution(potential, 0.0, 0.0, 0.0)

    R = potential.support_radius
    n_well = max(1024, (n_pts // 4) & ~1)
    tables = _well_tables(potential, n_well)
    h, vn, _ = tables[0]
    u_well, v_well, defect = _certified_well(tables, 0.0)
    slope = v_well[-1]
    if slope <= 0:
        raise SolverFailureError(
            f"tail slope {slope:.3e} <= 0; scattering length undefined")
    a0 = R - u_well[-1] / slope
    r_well = np.arange(n_well + 1) * h
    int_Vf = 4.0 * np.pi * simpson(vn * u_well * r_well, dx=h) / slope
    return ScatteringSolution(potential, float(a0), float(int_Vf), defect)


# ---------------------------------------------------------------------------
# Neumann ball problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NeumannSolution:
    """Ground state of the pair problem on the ball of radius N * ell.

    The sampled data lives on two uniform segments: a fine one across the
    interaction well [0, R] and an exactly propagated tail (R, L]. r_grid,
    w and wp assemble both; outside the ball w is 0.
    """

    potential: InteractionPotential
    ell: float
    N_param: float
    n_pts: int
    radius: float
    lambda_ell: float
    r_grid: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    int_Vf: float
    int_w: float
    segments: tuple = field(repr=False)

    @cached_property
    def sup_p2(self):
        """fourier_w of this solution, computed on first use and shared by
        every reader."""
        return fourier_w(self)


def _assemble_neumann(potential, ell, N_param, n_pts, lam, u_well, v_well,
                      h_well, vn, n_tail):
    R = potential.support_radius
    L = ell * N_param
    h_tail = (L - R) / n_tail
    r_tail = R + np.arange(1, n_tail + 1) * h_tail
    u_tail, v_tail = _free_tail(u_well[-1], v_well[-1],
                                np.full(r_tail.shape, lam), r_tail - R)

    r_well = np.arange(u_well.size) * h_well
    r_grid = np.concatenate([r_well, r_tail])
    u_all = np.concatenate([u_well, u_tail])
    v_all = np.concatenate([v_well, v_tail])

    if np.any(u_all[1:] <= 0):
        raise SolverFailureError("interior zero crossing: not the ground state")

    scale = u_all[-1] / L
    u_n = u_all / scale
    v_n = v_all / scale

    f = np.empty_like(u_n)
    f[1:] = u_n[1:] / r_grid[1:]
    f[0] = v_n[0]
    f[-1] = 1.0  # normalization f(L) = 1 is exact by construction
    wp = np.zeros_like(f)
    wp[1:] = (u_n[1:] - v_n[1:] * r_grid[1:]) / r_grid[1:] ** 2
    w = 1.0 - f

    n_well = u_well.size - 1

    int_Vf = 4.0 * np.pi * simpson(vn * u_n[:n_well + 1] * r_well, dx=h_well)
    int_w = 4.0 * np.pi * (
        simpson(w[:n_well + 1] * r_well ** 2, dx=h_well)
        + simpson(np.concatenate([[w[n_well]], w[n_well + 1:]])
                  * np.concatenate([[R], r_tail]) ** 2, dx=h_tail))

    segments = (
        (f[:n_well + 1].copy(), h_well, 0.0),
        (np.concatenate([[f[n_well]], f[n_well + 1:]]), h_tail, float(R)),
    )
    return NeumannSolution(
        potential=potential, ell=float(ell), N_param=float(N_param),
        n_pts=int(n_pts), radius=float(L), lambda_ell=float(lam),
        r_grid=r_grid, w=w, wp=wp,
        int_Vf=float(int_Vf), int_w=float(int_w), segments=segments)


def _brentq(f, xa, xb, fa, fb, xtol, rtol):
    """Root of f in [xa, xb] by Brent's method: scipy's brentq.c, step for
    step. fa and fb are f(xa) and f(xb), which the caller already has."""
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(fa), float(fb)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverFailureError(f"no sign change on [{xa}, {xb}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # scipy's maxiter
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = np.inf  # a bisection, unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # 0 by underflow: C's inf
                if den:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise SolverFailureError("Brent's method did not converge in 100 steps")


def solve_neumann(potential, ell, N_param, n_pts=4096):
    """Lowest Neumann state on the ball of radius N * ell, via shooting.

    The boundary mismatch u'(L) - u(L)/L changes sign once on a grid of
    56 probe eigenvalues below the second Neumann mode (min-max, V >= 0),
    so bisection on the grid index brackets it in 8 single-lam
    evaluations, and Brent's method narrows that bracket to 1e-12 relative
    width; every mismatch evaluation integrates only the well and crosses
    the free region with the exact propagator.
    The well state at the eigenvalue is then integrated at two resolutions
    and Richardson extrapolated, under the same certificate as the
    zero-energy problem. The returned state has no interior zeros and
    satisfies f(L) = 1 exactly. The zero interaction skips the search:
    lam = 0 and u = r on the same grids.
    """
    if not (0.0 < ell < 1.0):
        raise InvalidParameterError(f"ell must lie in (0, 1), got {ell}")
    if N_param <= 0:
        raise InvalidParameterError("N must be positive")
    if n_pts < _MIN_PTS:
        raise InvalidParameterError(f"n_pts must be >= {_MIN_PTS}")
    R = potential.support_radius
    L = ell * N_param
    if L <= R:
        raise InvalidDomainError(
            f"ball radius {L} must exceed the interaction range {R}")

    n_well = max(1024, (n_pts // 4) & ~1)
    tables = _well_tables(potential, n_well)
    h, vn, vm = tables[0]
    n_tail = max(n_pts & ~1, 512)
    if potential.zero:
        # f = 1 solves the problem at lam = 0, so u = r and u' = 1
        r_well = np.arange(n_well + 1) * h
        return _assemble_neumann(potential, ell, N_param, n_pts, 0.0, r_well,
                                 np.ones(n_well + 1), h, vn, n_tail)

    # Probe eigenvalues parametrized by the scattering length they would
    # imply (lam ~ 3 a / L^3, a <= R for nonnegative V), below the second
    # Neumann mode, at or above (4.49 / L)^2 by min-max.
    a_probe = R * np.geomspace(1e-8, 1.5, 56)
    lam_probe = 3.0 * a_probe / L ** 3

    def mismatch(x):
        return _neumann_mismatch(vn, vm, h, x, R, L)[0]

    lo, hi = 0, lam_probe.size - 1
    f_lo, f_hi = mismatch(lam_probe[lo]), mismatch(lam_probe[hi])
    if not f_lo > 0.0 >= f_hi:
        raise SolverFailureError(
            "no sign change of the Neumann mismatch in the probe range; "
            f"residual range [{np.min((f_lo, f_hi)):.3e}, "
            f"{np.max((f_lo, f_hi)):.3e}]")
    while hi - lo > 1:  # f_lo = mismatch(lam_probe[lo]) > 0 >= f_hi
        mid = (lo + hi) // 2
        f_mid = mismatch(lam_probe[mid])
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    lam = _brentq(mismatch, lam_probe[lo], lam_probe[hi], f_lo, f_hi, 1e-300,
                  _BRACKET_RTOL)

    u_well, v_well, _ = _certified_well(tables, lam)
    return _assemble_neumann(potential, ell, N_param, n_pts, lam, u_well,
                             v_well, h, vn, n_tail)


# ---------------------------------------------------------------------------
# Fourier side
# ---------------------------------------------------------------------------

def _refined_transform(sol, p):
    """what(p) = (2/p) sum over the uniform segments of int w r
    sin(2 pi p r) dr, at full and half resolution by one _filon_pair each.

    Returns the extrapolation (4 fine - coarse) / 3 and the relative
    defect max |fine - coarse| / max |fine| between the two runs.
    """
    p = np.asarray(p, dtype=float)
    fine, coarse = 2.0 / p * sum(
        np.array(_filon_pair((1.0 - f) * (r0 + np.arange(f.size) * h), h,
                             2.0 * np.pi * p, x0=r0))
        for f, h, r0 in sol.segments)
    defect = float(np.max(np.abs(fine - coarse))
                   / (np.max(np.abs(fine)) + 1e-300))
    return (4.0 * fine - coarse) / 3.0, defect


def default_momentum_grid(sol):
    """241 geometric momenta spanning at least two decades across the well
    scale."""
    L = sol.radius
    R = sol.potential.support_radius
    p_lo = 2.0 / L
    p_hi = max(12.0 / R, 150.0 * p_lo)
    return np.geomspace(p_lo, p_hi, 241)


def fourier_w(sol):
    """sup_p p^2 |what(p)| of the extended-by-zero w on
    default_momentum_grid.

    Uses oscillation-safe piecewise-linear quadrature per uniform segment,
    with a half-resolution rerun as convergence certificate: the two runs
    must agree or the call fails rather than returning garbage.
    """
    p_grid = default_momentum_grid(sol)
    vals, defect = _refined_transform(sol, p_grid)
    if not np.isfinite(defect) or defect > 5e-3:
        raise SolverFailureError(
            f"oscillatory quadrature not converged: defect {defect:.3e}")

    return float(np.max(p_grid ** 2 * np.abs(vals)))


def ball_indicator_hat(p, L):
    """Transform of the indicator of the ball of radius L (radial closed form)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    x = 2.0 * np.pi * p * L
    small = np.abs(x) < 1e-4
    p_safe = np.where(small, 1.0, p)
    x_safe = np.where(small, 1.0, x)
    main = (np.sin(x_safe) - x_safe * np.cos(x_safe)) / (2.0 * np.pi ** 2 * p_safe ** 3)
    vol = 4.0 * np.pi * L ** 3 / 3.0
    series = vol * (1.0 - x ** 2 / 10.0)
    return np.where(small, series, main)


def fourier_w_ode(sol, p):
    """Transform of w through the equation it solves, stable at large p.

    From -Delta w = (V f)/2 - lam f chi_B and f chi_B = chi_B - w one gets
    what(p) = [ (V f)^(p) / 2 - lam chihat_B(p) ] / (4 pi^2 p^2 - lam),
    which trades the oscillatory integral over the whole ball for one over
    the well plus closed forms. Valid away from the eigenvalue momentum
    sqrt(lam) / (2 pi); calls below 4x that scale are refused.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    lam = sol.lambda_ell
    p_pole = np.sqrt(max(lam, 0.0)) / (2.0 * np.pi)
    if np.any(p <= 4.0 * p_pole) or np.any(p <= 0):
        raise InvalidParameterError(
            f"momenta must exceed 4x the eigenvalue scale {p_pole:.3e}")
    fvals, h, r0 = sol.segments[0]
    r = r0 + np.arange(fvals.size) * h
    vf = sol.potential(r) * fvals
    vf_hat = 2.0 / p * _filon_richardson(vf * r, h, 2.0 * np.pi * p, x0=r0)
    return (0.5 * vf_hat - lam * ball_indicator_hat(p, sol.radius)) \
        / (4.0 * np.pi ** 2 * p ** 2 - lam)


# ---------------------------------------------------------------------------
# the verification bundle
# ---------------------------------------------------------------------------

def verify_lemma_scattering(sol, ref):
    """Check the Neumann state against its zero-energy reference.

    Both solutions must come from the same interaction. Returns the sweep
    row of the scattering lemma:

    i   : eigenvalue rate        i_ratio = lam (N ell)^3 / (3 a0) -> 1,
                                 i_deviation = |i_ratio - 1|
    ii  : potential integral     ii_weighted = (N ell) |int V f - 8 pi a0| / a0
    iii : iii_sup_w and iii_sup_wp bound w by C/(r+1) and w' by C/(r^2+1);
          iii_moment is the w volume over (N ell)^2, compared with
          (2/5) pi a0 in iii_moment_weighted
    iv  : iv_sup_p2 certifies the 1/p^2 envelope of what

    with a0, lambda_ell, radius, int_Vf and int_w. The zero interaction has
    a0 = 0 and w = 0, and its row is 0 in every entry but the radius.
    """
    if not _same_potential(sol.potential, ref.potential):
        raise InvalidParameterError(
            "solutions come from different interactions")
    a0 = ref.a0
    L = sol.radius
    if sol.potential.zero:
        return {**dict.fromkeys(
            ("a0", "lambda_ell", "i_ratio", "i_deviation", "ii_weighted",
             "iii_sup_w", "iii_sup_wp", "iii_moment", "iii_moment_weighted",
             "iv_sup_p2", "int_Vf", "int_w"), 0.0), "radius": float(L)}
    lam = sol.lambda_ell

    ratio = lam * L ** 3 / (3.0 * a0)
    ii = L * abs(sol.int_Vf - 8.0 * np.pi * a0) / a0

    r = sol.r_grid
    sup_w = float(np.max(sol.w * (r + 1.0)))
    sup_wp = float(np.max(np.abs(sol.wp) * (r ** 2 + 1.0)))
    moment = sol.int_w / L ** 2
    moment_w = abs(moment - 0.4 * np.pi * a0) * L / a0 ** 2

    return {"a0": float(a0), "lambda_ell": float(lam), "radius": float(L),
            "i_ratio": float(ratio), "i_deviation": float(abs(ratio - 1.0)),
            "ii_weighted": float(ii), "iii_sup_w": sup_w,
            "iii_sup_wp": sup_wp, "iii_moment": float(moment),
            "iii_moment_weighted": float(moment_w), "iv_sup_p2": sol.sup_p2,
            "int_Vf": float(sol.int_Vf), "int_w": float(sol.int_w)}
