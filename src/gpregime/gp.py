"""Gross-Pitaevskii ground state in a trap and its linearization.

The radial problem is solved in the variable u = r phi on a uniform grid,
where the 3D Laplacian reduces to -u'' with u(0) = 0. One symmetric
pentadiagonal fourth-order stencil plays the Laplacian everywhere: the
gradient flow, the Euler-Lagrange residual, and the linearized operator all
share it. That self-consistency is the point: the minimizer is then an
eigenvector of the linearization up to solver tolerance, not up to
discretization error, which is what the zero-mode checks require. Flow steps
and the shift-invert Lanczos spectrum share a pentadiagonal LDL^T solver.

Conventions: minimization of E[phi] = int |grad phi|^2 + V phi^2
+ 4 pi a0 phi^4 over unit-mass radial phi, so the Euler-Lagrange equation is
-Delta phi + V phi + 8 pi a0 phi^3 = eps phi with eps = E + 4 pi a0 ||phi||_4^4,
and the linearized operator is h = -Delta + V + 8 pi a0 phi^2 - eps, which
annihilates phi exactly.

hgp_spectrum, verify_decay and fourier_decay return the dicts of plain
numbers that the gp report writes as they are.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SolverFailureError
from .radial import radial_fourier

_DEFAULT_GRIDS = {"harmonic": (8.0, 800), "quartic": (5.0, 500)}
# Lanczos stops at Ritz residual estimates <= _LANCZOS_TOL * max Ritz value of
# (h + s)^-1; ||h x - lambda x|| <= _RITZ_RESIDUAL_TOL * ||h||_1 certifies
_LANCZOS_TOL, _RITZ_RESIDUAL_TOL = 1e-14, 1e-10
# a flow whose residual has not fallen by _STALL_FACTOR over its last
# _STALL_WINDOW accepted steps has stalled; converging flows fall far faster;
# one still running after _MAX_ITER steps fails
_STALL_WINDOW, _STALL_FACTOR, _MAX_ITER = 100, 1.25, 5000
# hgp_spectrum's eigenpairs: the zero mode and the gap above it
_N_PAIRS = 2


# ---------------------------------------------------------------------------
# the shared discrete Laplacian
# ---------------------------------------------------------------------------

def kinetic_band(n_interior, h):
    """Upper banded form of the fourth-order -d^2/dr^2 on u_1..u_{n-1}.

    Interior stencil (1, -16, 30, -16, 1) / (12 h^2). The first row uses the
    antisymmetric ghost u(-h) = -u(h), valid because u = r phi is odd for
    smooth even phi; that keeps the operator symmetric and fourth-order up to
    the origin. Its periodic symbol is (c - 1)(c - 7)/(3 h^2) >= 0 for
    c = cos(theta) in [-1, 1], so the matrix is positive definite.
    """
    m = n_interior
    band = np.zeros((3, m))
    band[2, :] = 30.0
    band[2, 0] = 29.0  # ghost fold-back at the origin
    band[1, 1:] = -16.0
    band[0, 2:] = 1.0
    return band / (12.0 * h * h)


def band_matvec(band, u):
    """Apply the symmetric banded operator stored in upper form."""
    out = band[2] * u
    out[:-1] += band[1, 1:] * u[1:]
    out[1:] += band[1, 1:] * u[:-1]
    out[:-2] += band[0, 2:] * u[2:]
    out[2:] += band[0, 2:] * u[:-2]
    return out


def _ldl_factor(band):
    """LDL^T of a positive definite band laid out as kinetic_band's (zero
    corners): per row, L's two subdiagonal entries and the positive pivot."""
    e, b, a = band[0].tolist(), band[1].tolist(), band[2].tolist()
    rows, l1, d_prev2, d_prev = [], 0.0, 1.0, 1.0
    for a_i, b_i, e_i in zip(a, b, e):
        c = b_i - e_i * l1
        l1, l2 = c / d_prev, e_i / d_prev2
        d_i = a_i - l1 * c - l2 * e_i
        if not d_i > 0.0:
            raise SolverFailureError(f"banded matrix not positive definite: "
                                     f"pivot {d_i!r} at row {len(rows)}")
        rows.append((l1, l2, d_i))
        d_prev2, d_prev = d_prev, d_i
    return rows


def _ldl_solve(rows, rhs):
    """Solve L D L^T x = rhs for the rows of _ldl_factor."""
    z, y1, y2 = [], 0.0, 0.0
    for r, (l1, l2, d) in zip(rhs.tolist(), rows):
        y1, y2 = r - l1 * y1 - l2 * y2, y1
        z.append(y1 / d)
    x, x1, x2, la, lb, lc = [], 0.0, 0.0, 0.0, 0.0, 0.0
    # row i reads x_{i+1}, x_{i+2}, l1_{i+1} (la) and l2_{i+2} (lb)
    for z_i, (l1, l2, _) in zip(reversed(z), reversed(rows)):
        x1, x2 = z_i - la * x1 - lb * x2, x1
        x.append(x1)
        la, lb, lc = l1, lc, l2
    return np.array(x[::-1])


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GpState:
    """Converged minimizer with its energy decomposition.

    phi is sampled on the full node set including r = 0 (even-symmetric
    extrapolation) and r_max (where it vanishes). Energies are reported so
    that total is exactly the sum of the three parts; eps_gp equals
    total + 4 pi a0 ||phi||_4^4 by construction of the shared quadrature.
    tol_applied is the residual tolerance the flow stopped at: the
    requested tol, raised to the stencil's roundoff floor 5e-15 / h^2.
    """

    grid: np.ndarray
    phi: np.ndarray
    a0: float
    energy: dict
    eps_gp: float
    residual: float
    tol_applied: float
    iterations: int
    u: np.ndarray          # u = r phi on interior nodes 1..n-1
    h: float
    v_nodes: np.ndarray    # trap samples on interior nodes
    energy_trace: tuple    # accepted-step energies, first to last

    @property
    def quartic_norm(self):
        """||phi||_4^4 with the energy quadrature."""
        r = self.grid[1:-1]
        return 4.0 * np.pi * self.h * float(np.sum(self.u ** 4 / r ** 2))


def _phi_from_u(u, r_grid):
    """Assemble phi on all nodes; even-symmetric O(h^6) value at the origin."""
    phi = np.zeros(r_grid.size)
    phi[1:-1] = u / r_grid[1:-1]
    phi[0] = 1.5 * phi[1] - 0.6 * phi[2] + 0.1 * phi[3]
    return phi


def _energy_parts(u, v_nodes, r_int, h, a0):
    # u.Ku as 16 |first differences|^2 - |second differences|^2 - u_1^2
    # (the fold-back): u @ Ku would carry eps ||K|| rounding, which on fine
    # grids exceeds the flow's 1e-13 energy acceptance and stalls the step
    w = 4.0 * np.pi * h
    p = np.concatenate(([0.0, 0.0], u, [0.0, 0.0]))
    kinetic = w * (16.0 * float(np.sum(np.diff(p) ** 2))
                   - float(np.sum((p[2:] - p[:-2]) ** 2))
                   - float(u[0]) ** 2) / (12.0 * h * h)
    trap = w * float(np.sum(v_nodes * u * u))
    quart = w * float(np.sum(u ** 4 / r_int ** 2))
    interaction = 4.0 * np.pi * a0 * quart
    return kinetic, trap, interaction, quart


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def minimize_gp(trap, a0, r_max=None, n_pts=None, tol=1e-11):
    """Ground state by a normalized semi-implicit gradient flow.

    The flow starts from the Gaussian r exp(-r^2/2). Each step solves
    (I + tau (K + V + 8 pi a0 u^2/r^2)) u* = u with the cubic term frozen
    at the current iterate, then renormalizes; the fixed point of that map
    satisfies the discrete Euler-Lagrange equation exactly.
    Steps that fail to decrease the energy are retried with a smaller tau.
    Convergence is declared on the Euler-Lagrange residual in L^2(d^3x);
    a flow whose residual stalls, or runs past _MAX_ITER steps, fails.
    """
    if a0 < 0:
        raise InvalidParameterError(f"scattering length must be >= 0, got {a0}")
    if r_max is None or n_pts is None:
        d_rmax, d_n = _DEFAULT_GRIDS.get(trap.kind, (8.0, 800))
        r_max = d_rmax if r_max is None else r_max
        n_pts = d_n if n_pts is None else n_pts
    n = int(n_pts)
    if n < 64:
        raise InvalidParameterError("need at least 64 grid intervals")
    h = r_max / n
    r_grid = np.arange(n + 1) * h
    r_int = r_grid[1:-1]
    v_nodes = trap(r_int)
    kin = kinetic_band(n - 1, h)
    c = 8.0 * np.pi * a0
    w_norm = 4.0 * np.pi * h

    u = r_int * np.exp(-r_int ** 2 / 2.0)
    u = u / np.sqrt(w_norm * np.sum(u * u))

    # roundoff floor of the residual: applying the stencil loses ~1/h^2 ulps
    eff_tol = max(tol, 5e-15 / (h * h))

    def el_pieces(u):
        hu = band_matvec(kin, u) + v_nodes * u + c * u ** 3 / r_int ** 2
        eps = w_norm * float(u @ hu)
        res = hu - eps * u
        return eps, np.sqrt(w_norm * float(res @ res))

    kinetic, trap_e, inter, _ = _energy_parts(u, v_nodes, r_int, h, a0)
    energy = kinetic + trap_e + inter
    trace = [energy]
    tau = 0.05
    iterations = 0
    residuals = []
    for iterations in range(_MAX_ITER + 1):
        eps, res = el_pieces(u)
        if res <= eff_tol:
            break
        if iterations == _MAX_ITER:
            raise SolverFailureError(
                f"no convergence after {_MAX_ITER} steps; residual {res:.3e}")
        residuals.append(res)
        if iterations >= _STALL_WINDOW \
                and res * _STALL_FACTOR > residuals[-1 - _STALL_WINDOW]:
            raise SolverFailureError(
                f"flow stalled after {iterations} steps; residual {res:.3e}")
        for _ in range(60):
            band = kin * tau
            band[2] += 1.0 + tau * (v_nodes + c * u ** 2 / r_int ** 2)
            u_new = _ldl_solve(_ldl_factor(band), u)
            u_new /= np.sqrt(w_norm * np.sum(u_new * u_new))
            k2, t2, i2, _ = _energy_parts(u_new, v_nodes, r_int, h, a0)
            e_new = k2 + t2 + i2
            if e_new <= energy + 1e-13 * max(abs(energy), 1.0):
                u = u_new
                kinetic, trap_e, inter = k2, t2, i2
                energy = e_new
                trace.append(energy)
                tau = min(tau * 1.2, 2.0)
                break
            tau *= 0.5
        else:
            raise SolverFailureError("step size collapsed without progress")

    eps, res = el_pieces(u)
    phi = _phi_from_u(u, r_grid)
    return GpState(
        grid=r_grid, phi=phi, a0=float(a0),
        energy={"kinetic": kinetic, "trap": trap_e, "interaction": inter,
                "total": kinetic + trap_e + inter},
        eps_gp=kinetic + trap_e + 2.0 * inter,
        residual=float(res), tol_applied=float(eff_tol),
        iterations=iterations, u=u, h=float(h), v_nodes=v_nodes,
        energy_trace=tuple(trace))


# ---------------------------------------------------------------------------
# linearization spectrum
# ---------------------------------------------------------------------------

def hgp_spectrum(state):
    """Lowest two s-wave eigenvalues of the linearization around the
    minimizer, h = -Delta + V + 8 pi a0 phi^2 - eps.

    Returns lambda0, lambda1, their gap and the ground eigenvector's
    overlap with u. The operator reuses the minimizer's stencil and grid,
    so the minimizer itself is its zero mode up to the solver residual:
    lambda0 is small compared to lambda1 and the overlap is 1 to roundoff.

    Shift-invert Lanczos, fully reorthogonalized, on h + s >= K + 1 (s =
    1 - min(0, min w), w the diagonal added to K). It starts from a constant,
    not from u, which would hold the higher modes only through rounding.
    Values are Rayleigh quotients on h, each certified by its residual.
    """
    n, k = state.u.size, _N_PAIRS
    band = kinetic_band(n, state.h)
    w = state.v_nodes + 8.0 * np.pi * state.a0 * state.u ** 2 \
        / state.grid[1:-1] ** 2 - state.eps_gp
    band[2] += w
    factor = _ldl_factor(band + [[0.0], [0.0], [1.0 - min(0.0, w.min())]])
    basis, alpha, beta = [np.full(n, n ** -0.5)], [], []
    while True:
        y = _ldl_solve(factor, basis[-1])
        alpha.append(float(basis[-1] @ y))
        q = np.array(basis)
        for _ in range(2):  # classical Gram-Schmidt, twice
            y -= (q @ y) @ q
        beta.append(float(np.linalg.norm(y)))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1)
                                  + np.diag(beta[:-1], -1))
        done = np.all(beta[-1] * abs(s[-1, -k:]) <= _LANCZOS_TOL * theta[-1])
        if len(q) == n or len(q) >= k and done:
            break
        basis.append(y / beta[-1])
    x = q.T @ s[:, :-k - 1:-1]
    x /= np.linalg.norm(x, axis=0)
    hx = np.column_stack([band_matvec(band, col) for col in x.T])
    vals = np.einsum("ij,ij->j", x, hx)
    order = np.argsort(vals)
    vals, x, hx = vals[order], x[:, order], hx[:, order]
    res = np.linalg.norm(hx - x * vals, axis=0)
    h_norm = float(np.abs(band).max(axis=1) @ (2.0, 2.0, 1.0))
    if not np.all(res <= _RITZ_RESIDUAL_TOL * h_norm):
        raise SolverFailureError(f"Lanczos eigenpair residuals {res} exceed "
                                 f"{_RITZ_RESIDUAL_TOL * h_norm:.2e}")
    overlap = abs(float(x[:, 0] @ state.u)) / np.linalg.norm(state.u)
    return {"lambda0": float(vals[0]), "lambda1": float(vals[1]),
            "gap": float(vals[1] - vals[0]), "ground_overlap": float(overlap)}


# ---------------------------------------------------------------------------
# decay certificates
# ---------------------------------------------------------------------------

def _window_growth(weighted):
    """True when the maxima of six tail windows keep growing toward the
    edge."""
    if weighted.size < 24:
        return False
    blocks = np.array_split(weighted[weighted.size // 2:], 6)
    maxima = np.array([b.max() for b in blocks])
    return bool(np.all(np.diff(maxima) > 0)
                and maxima[-1] > 1.05 * maxima[0])


def verify_decay(state, nu):
    """Exponential-envelope constants for phi and its first two derivatives:
    c_phi, c_dphi and c_lap, each sup |g| e^{nu r} over the resolvable grid
    for g = phi, phi', lap phi, and whether the weighted phi is divergent.

    Nodes where |phi| has fallen below 1e-13 of its peak are excluded: there
    the second difference is roundoff noise amplified by 1/h^2 and would
    report a spurious envelope. A non-decaying injected profile (for example
    a constant) keeps all its nodes and is flagged as divergent instead of
    being assigned a constant.
    """
    if nu <= 0:
        raise InvalidParameterError("decay rate nu must be positive")
    r, h, phi = state.grid, state.h, state.phi
    u = phi[1:-1] * r[1:-1]
    r_int = r[1:-1]

    keep = np.abs(phi) >= 1e-13 * np.max(np.abs(phi))
    keep_int = keep[1:-1]

    kin = kinetic_band(u.size, h)
    lap_phi = -band_matvec(kin, u) / r_int

    # 4th-order centered du/dr; the two edge nodes per side have no centered
    # stencil and are dropped from the derivative sup altogether
    du = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    dphi = (du * r_int[2:-2] - u[2:-2]) / r_int[2:-2] ** 2
    keep_d = keep_int[2:-2]

    wphi = np.abs(phi[keep]) * np.exp(nu * r[keep])
    wdphi = np.abs(dphi[keep_d]) * np.exp(nu * r_int[2:-2][keep_d])
    wlap = np.abs(lap_phi[keep_int]) * np.exp(nu * r_int[keep_int])

    return {"c_phi": float(np.max(wphi)), "c_dphi": float(np.max(wdphi)),
            "c_lap": float(np.max(wlap)), "divergent": _window_growth(wphi)}


def fourier_decay(state):
    """Transform of phi on 241 geometric momenta in [0.02, 6]: the sup of
    (1+p)^4 |phat| (sup_weighted) and the momentum where it sits (argmax_p).

    The sup sits at moderate p where the transform is far above roundoff,
    so it is refinement-stable.
    """
    p_grid = np.geomspace(0.02, 6.0, 241)
    phat = radial_fourier(state.phi, state.h, p_grid)
    weighted = (1.0 + p_grid) ** 4 * np.abs(phat)
    k = int(np.argmax(weighted))
    return {"sup_weighted": float(weighted[k]), "argmax_p": float(p_grid[k])}
