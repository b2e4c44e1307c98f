"""Scattering and Neumann-ball checks against square-well closed forms.

The square well V0 on [0, R] is fully solvable: with kappa = sqrt(V0/2) the
zero-energy solution is proportional to sinh(kappa r) inside the well,
a0 = R - tanh(kappa R)/kappa, and the Neumann eigenvalue solves an explicit
transcendental equation. Those closed forms are the oracles here; nothing
below trusts the solver to certify itself.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from gpregime import scattering
from gpregime.errors import (
    InvalidDomainError,
    InvalidParameterError,
    SolverFailureError,
)
from gpregime.potentials import InteractionPotential, make_square_well
from gpregime.scattering import (
    _BRACKET_RTOL,
    _brentq,
    _certified_well,
    _integrate_well,
    _neumann_mismatch,
    _well_tables,
    ball_indicator_hat,
    fourier_w,
    fourier_w_ode,
    solve_neumann,
    solve_zero_energy,
    verify_lemma_scattering,
)

A0_EXACT = 1.0 - np.tanh(1.0)  # square well V0 = 2, R = 1


@pytest.fixture(scope="module")
def well():
    return make_square_well(2.0, 1.0, 2048)


@pytest.fixture(scope="module")
def ref(well):
    return solve_zero_energy(well)


@pytest.fixture(scope="module")
def neu100(well):
    return solve_neumann(well, 0.5, 100)


@pytest.fixture(scope="module")
def neu_sweep(well):
    return {N: solve_neumann(well, 0.5, N) for N in (50, 100, 200)}


def exact_neumann_lambda(V0, R, L):
    """Root of the square-well Neumann condition, independent of the solver."""

    def mismatch(lam):
        kt = np.sqrt(V0 / 2.0 - lam)
        uR, vR = np.sinh(kt * R), kt * np.cosh(kt * R)
        om = np.sqrt(lam)
        d = L - R
        uL = uR * np.cos(om * d) + vR * np.sin(om * d) / om
        vL = -uR * om * np.sin(om * d) + vR * np.cos(om * d)
        return vL - uL / L

    a0 = R - np.tanh(np.sqrt(V0 / 2.0) * R) / np.sqrt(V0 / 2.0)
    guess = 3.0 * a0 / L ** 3
    return brentq(mismatch, 0.2 * guess, 5.0 * guess, xtol=1e-300, rtol=1e-15)


def sequential_rk4(v_nodes, v_mids, h, lam):
    """RK4 for u'' = (V/2 - lam) u stepped one step at a time.

    The reference for the integrator's matrix product and scan: same
    nodes, midpoints and stages. Returns the node trajectories of u and
    u', shape (n+1, m).
    """
    u = np.zeros_like(lam)
    v = np.ones_like(lam)
    traj_u, traj_v = [u], [v]
    half = 0.5 * h
    for i in range(v_mids.size):
        q1 = 0.5 * v_nodes[i] - lam
        q2 = 0.5 * v_mids[i] - lam
        q4 = 0.5 * v_nodes[i + 1] - lam
        k1u = v
        k1v = q1 * u
        k2u = v + half * k1v
        k2v = q2 * (u + half * k1u)
        k3u = v + half * k2v
        k3v = q2 * (u + half * k2u)
        k4u = v + h * k3v
        k4v = q4 * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * (k2u + k3u) + k4u)
        v = v + (h / 6.0) * (k1v + 2.0 * (k2v + k3v) + k4v)
        traj_u.append(u)
        traj_v.append(v)
    return np.array(traj_u), np.array(traj_v)


class TestWellIntegrator:
    # Step counts: odd, even, powers of two and not; lam batches hold 0,
    # values above max V/2 = v0/2 (oscillating u) and single entries.
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(1, 300),
                       st.sampled_from([1023, 1024, 1025, 2048, 3000])),
           v0=st.floats(0.0, 10.0),
           lam=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                        min_size=1, max_size=6))
    @example(n=1024, v0=2.0, lam=[0.0])
    @example(n=1025, v0=6.0, lam=[0.0, 0.5, 7.5])
    @example(n=1, v0=3.0, lam=[4.0])
    def test_product_and_scan_match_sequential_steps(self, n, v0, lam):
        R = 1.5
        h = R / n
        V = lambda r: v0 * (1.0 - (r / R) ** 2) ** 2
        vn = V(np.arange(n + 1) * h)
        vm = V((np.arange(n) + 0.5) * h)
        lam = np.array(lam)
        ref_u, ref_v = sequential_rk4(vn, vm, h, lam)
        # relative to each lam's trajectory scale: u crosses zero when
        # lam > max V/2, where a pointwise relative error means nothing
        su = np.max(np.abs(ref_u), axis=0)
        sv = np.max(np.abs(ref_v), axis=0)
        uR, vR = _integrate_well(vn, vm, h, lam)
        assert np.all(np.abs(uR - ref_u[-1]) <= 1e-12 * su)
        assert np.all(np.abs(vR - ref_v[-1]) <= 1e-12 * sv)
        uR, vR, tu, tv = _integrate_well(vn, vm, h, lam, store=True)
        assert tu.shape == tv.shape == (n + 1, lam.size)
        assert np.all(np.abs(tu - ref_u) <= 1e-12 * su)
        assert np.all(np.abs(tv - ref_v) <= 1e-12 * sv)
        assert np.array_equal(uR, tu[-1]) and np.array_equal(vR, tv[-1])

    def test_eigenvalue_sits_on_a_sign_change(self, well, neu_sweep):
        # solve_neumann's well grid at its default n_pts = 4096
        h, vn, vm = _well_tables(well, 1024)[0]
        for sol in neu_sweep.values():
            lam = sol.lambda_ell * (1.0 + np.array([-1e-10, 1e-10]))
            m = _neumann_mismatch(vn, vm, h, lam, 1.0, sol.radius)
            assert m[0] > 0.0 >= m[1]


class TestZeroEnergy:
    def test_scattering_length_closed_form(self, ref):
        assert abs(ref.a0 - A0_EXACT) / A0_EXACT < 1e-13

    def test_integral_identity_8pi_a0(self, ref):
        assert abs(ref.a0_from_integral - ref.a0) / ref.a0 < 1e-8

    def test_interior_profile_closed_form(self, well):
        # u = sinh(r) from u'(0) = 1; over u'(R) it is the f -> 1 solution
        u, v, _ = _certified_well(_well_tables(well, 1024), 0.0)
        r = np.arange(u.size) / 1024.0
        exact = np.sinh(r) / np.cosh(1.0)
        assert np.max(np.abs(u / v[-1] - exact)) < 1e-9

    def test_zero_potential_is_trivial(self):
        sol = solve_zero_energy(make_square_well(0.0, 1.0, 64))
        assert (sol.a0, sol.int_Vf, sol.richardson_defect) == (0.0, 0.0, 0.0)

    def test_domain_validation(self, well):
        with pytest.raises(InvalidParameterError):
            solve_zero_energy(well, n_pts=100)

    @settings(max_examples=10, deadline=None)
    @given(v0=st.floats(0.1, 30.0), radius=st.floats(0.3, 2.0))
    def test_closed_form_scattering_length_family(self, v0, radius):
        kappa = np.sqrt(v0 / 2.0)
        expected = radius - np.tanh(kappa * radius) / kappa
        sol = solve_zero_energy(make_square_well(v0, radius, 512), n_pts=2048)
        assert abs(sol.a0 - expected) <= 1e-8 * max(expected, 1e-6)
        assert sol.a0 < radius


class TestNeumann:
    def test_eigenvalue_against_transcendental_root(self, neu100):
        exact = exact_neumann_lambda(2.0, 1.0, 50.0)
        assert abs(neu100.lambda_ell - exact) / exact < 1e-8

    def test_eigenvalue_rate(self, neu_sweep):
        # lam L^3 / (3 a0) -> 1 from above like 1 + C a0 / L
        devs = {}
        for N, sol in neu_sweep.items():
            ratio = sol.lambda_ell * sol.radius ** 3 / (3.0 * A0_EXACT)
            devs[N] = ratio - 1.0
            assert 0.0 < devs[N] < 0.05
        slope = np.polyfit(np.log([25.0, 50.0, 100.0]),
                           np.log([devs[50], devs[100], devs[200]]), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_lambda_monotone_in_radius(self, neu_sweep):
        lams = [neu_sweep[N].lambda_ell for N in (50, 100, 200)]
        assert lams[0] > lams[1] > lams[2] > 0

    def test_ground_state_profile(self, neu100):
        f = 1.0 - neu100.w
        assert f[-1] == 1.0
        assert np.all(f >= -1e-12) and np.all(f <= 1.0 + 1e-12)
        assert np.all(np.diff(f) >= -1e-10)
        assert np.all(neu100.w >= -1e-12) and np.all(neu100.w <= 1.0 + 1e-12)

    def test_grid_convergence_is_cauchy(self, well, neu100):
        finer = solve_neumann(well, 0.5, 100, n_pts=8192)
        assert abs(finer.lambda_ell - neu100.lambda_ell) / neu100.lambda_ell < 1e-6
        ref_a = solve_zero_energy(well, n_pts=4096).a0
        fin_a = solve_zero_energy(well, n_pts=8192).a0
        assert abs(fin_a - ref_a) / ref_a < 1e-6

    def test_zero_potential_neumann(self, well):
        # V = 0 runs on the nonzero well's grids, with lam = 0 and f = 1
        zero = make_square_well(0.0, 1.0, 64)
        sol = solve_neumann(zero, 0.5, 40, n_pts=4096)
        nonzero = solve_neumann(well, 0.5, 40, n_pts=4096)
        assert sol.r_grid.size == nonzero.r_grid.size == 5121
        assert sol.segments[0][0].size == nonzero.segments[0][0].size == 1025
        assert np.array_equal(sol.r_grid, nonzero.r_grid)
        assert sol.lambda_ell == 0.0 and sol.int_w == 0.0
        assert not np.any(sol.w) and not np.any(sol.wp)
        rep = verify_lemma_scattering(sol, solve_zero_energy(zero))
        assert set(rep) == set(verify_lemma_scattering(nonzero,
                                                       solve_zero_energy(well)))
        assert rep["radius"] == sol.radius == 20.0
        assert all(v == 0.0 for k, v in rep.items() if k != "radius")

    def test_parameter_validation(self, well):
        with pytest.raises(InvalidParameterError):
            solve_neumann(well, 1.2, 100)
        with pytest.raises(InvalidParameterError):
            solve_neumann(well, 0.5, 100, n_pts=64)
        with pytest.raises(InvalidDomainError):
            solve_neumann(well, 0.5, 1)


class TestFourier:
    def test_ball_indicator_closed_form_limits(self):
        L = 2.0
        vol = 4.0 * np.pi * L ** 3 / 3.0
        assert ball_indicator_hat(np.array([1e-9]), L)[0] == pytest.approx(vol)
        p = np.array([0.37, 1.3])
        x = 2 * np.pi * p * L
        expected = (np.sin(x) - x * np.cos(x)) / (2 * np.pi ** 2 * p ** 3)
        assert np.allclose(ball_indicator_hat(p, L), expected, rtol=1e-13)

    def test_report_consistency(self, neu100):
        sup_p2 = fourier_w(neu100)
        assert sup_p2 > 0 and np.isfinite(sup_p2)
        assert neu100.sup_p2 == sup_p2
        p = scattering.default_momentum_grid(neu100)
        values, defect = scattering._refined_transform(neu100, p)
        assert sup_p2 == np.max(p ** 2 * np.abs(values))
        assert defect < 1e-5
        # the transform of a nonnegative integrable w starts positive
        assert values[0] > 0

    def test_direct_and_equation_routes_agree(self, neu100):
        p = np.geomspace(0.05, 5.0, 48)
        direct = scattering._refined_transform(neu100, p)[0]
        via_ode = fourier_w_ode(neu100, p)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - via_ode)) < 1e-6 * scale

    @pytest.mark.parametrize("amp, fails", [(0.01, False), (0.1, True)])
    def test_under_sampled_segment_fails_the_certificate(self, neu100, amp,
                                                         fails):
        # a component at the well grid's Nyquist frequency: the fine run
        # integrates it, while the half-resolution run, on every other
        # sample, sees a constant shift; the runs part by about 0.086 amp
        (f, h, r0), tail = neu100.segments
        alt = amp * (-1.0) ** np.arange(f.size)
        bad = dataclasses.replace(neu100, segments=((f + alt, h, r0), tail))
        if fails:
            with pytest.raises(SolverFailureError, match="not converged"):
                fourier_w(bad)
        else:
            assert np.isfinite(fourier_w(bad))

    def test_momentum_grid_validation(self, neu100):
        with pytest.raises(InvalidParameterError):
            fourier_w_ode(neu100, np.array([1e-5]))


class TestLemmaReport:
    def test_items_within_expected_ranges(self, ref, neu_sweep):
        rep = verify_lemma_scattering(neu_sweep[100], ref)
        assert rep["i_deviation"] < 0.02
        assert 0.0 < rep["ii_weighted"] < 50.0
        assert rep["iii_sup_w"] < 2.0
        assert rep["iii_sup_wp"] < 2.0
        assert rep["iii_moment_weighted"] < 5.0
        assert np.isfinite(rep["iv_sup_p2"]) and rep["iv_sup_p2"] > 0

    def test_volume_moment_approaches_limit(self, ref, neu_sweep):
        vals = [abs(neu_sweep[N].int_w / neu_sweep[N].radius ** 2
                    - 0.4 * np.pi * A0_EXACT) for N in (50, 200)]
        assert vals[1] < vals[0] / 2.0

    def test_weighted_potential_integral_is_stable(self, ref, neu_sweep):
        vals = [verify_lemma_scattering(neu_sweep[N], ref)["ii_weighted"]
                for N in (50, 100, 200)]
        assert max(vals) / min(vals) < 3.0

    def test_mixed_potentials_rejected(self, ref):
        other = solve_neumann(make_square_well(3.0, 1.0, 512), 0.5, 40)
        with pytest.raises(InvalidParameterError):
            verify_lemma_scattering(other, ref)

    def test_report_serializes(self, ref, neu100):
        # the row is the scatter artifact's sweep entry: plain floats
        row = verify_lemma_scattering(neu100, ref)
        assert sorted(row) == sorted((
            "a0", "lambda_ell", "radius", "i_ratio", "i_deviation",
            "ii_weighted", "iii_sup_w", "iii_sup_wp", "iii_moment",
            "iii_moment_weighted", "iv_sup_p2", "int_Vf", "int_w"))
        assert all(type(v) is float for v in row.values())
        assert json.loads(json.dumps(row)) == row


def _smooth_well():
    grid = np.linspace(0.0, 1.5, 4097)
    samples = 3.0 * (1.0 - (grid / 1.5) ** 2) ** 2
    return InteractionPotential.from_dict({
        "kind": "custom", "parameters": {},
        "profile": {"grid": grid.tolist(), "samples": samples.tolist(),
                    "tail": {"kind": "zero", "radius": 1.5}}})


@pytest.mark.parametrize("potential", [make_square_well(2.0, 1.0, 2048),
                                       _smooth_well()],
                         ids=["square_well", "smooth"])
def test_brent_matches_scipy_on_neumann_mismatch(monkeypatch, potential):
    # the port follows scipy's brentq.c, so on the solver's own mismatch
    # and bracket both return the same root to the bit
    calls = []

    def compared(f, xa, xb, fa, fb, xtol, rtol):
        root = _brentq(f, xa, xb, fa, fb, xtol, rtol)
        calls.append((root, brentq(f, xa, xb, xtol=xtol, rtol=rtol)))
        # the end values handed over are the ones scipy computes
        assert (fa, fb) == (f(xa), f(xb))
        return root

    monkeypatch.setattr(scattering, "_brentq", compared)
    sol = solve_neumann(potential, 0.5, 64)
    ((got, want),) = calls
    assert got == want == sol.lambda_ell


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.floats(min_value=-10.0, max_value=10.0),
                      min_size=3, max_size=3),
       lead=st.floats(min_value=0.01, max_value=100.0),
       a=st.floats(min_value=-20.0, max_value=20.0),
       b=st.floats(min_value=-20.0, max_value=20.0))
@example(roots=[0.0, 1.0, 2.0], lead=1.0, a=-0.5, b=0.5)
@example(roots=[0.0, -1.0, -6.042635933271865e-93], lead=1.0,
         a=1.9812679050835403e-128, b=-2.0)  # an interpolation underflows
def test_brent_matches_scipy_on_cubics(roots, lead, a, b):
    def f(x):
        return lead * (x - roots[0]) * (x - roots[1]) * (x - roots[2])

    def root(solve, xtol, rtol):
        try:
            return solve(f, a, b, xtol=xtol, rtol=rtol)
        except RuntimeError as exc:  # both give up near a triple root
            return type(exc)

    def ours(f, a, b, xtol, rtol):
        return _brentq(f, a, b, f(a), f(b), xtol, rtol)

    assume(f(a) * f(b) < 0)
    for xtol, rtol in ((1e-300, _BRACKET_RTOL),
                       (2e-12, 4 * np.finfo(float).eps)):
        got = root(ours, xtol, rtol)
        want = root(brentq, xtol, rtol)
        assert got == want or (got, want) == (SolverFailureError, RuntimeError)


def test_brent_failure_is_a_solver_failure():
    # a jump at 0 gives Brent only bisection steps, and the bracket must
    # shrink to 1e-300 there: far more than 100 halvings
    def step(x):
        return -1.0 if x < 0.0 else 1.0

    with pytest.raises(SolverFailureError, match="did not converge"):
        _brentq(step, -1.0, 2.0, -1.0, 1.0, 1e-300, _BRACKET_RTOL)
    with pytest.raises(SolverFailureError, match="no sign change"):
        _brentq(step, 1.0, 2.0, 1.0, 1.0, 1e-300, _BRACKET_RTOL)


# ---------------------------------------------------------------------------
# the Neumann bracket: bisection on the probe grid
# ---------------------------------------------------------------------------

# the interactions the bracket is checked on, and every ball the workloads
# solve: the base ball and the sweep at ell = 0.5 (big_ell 25 to 1600) and
# the kernel rows (0.25, 1024) and (0.125, 16384)
POTENTIALS = {"square_well_0.05": lambda: make_square_well(0.05, 1.0, 512),
              "square_well_2": lambda: make_square_well(2.0, 1.0, 512),
              "square_well_100": lambda: make_square_well(100.0, 1.0, 512),
              "smooth": _smooth_well}
BALLS = [(0.5, N) for N in (50, 64, 100, 200, 400, 800, 1600, 3200)] + [
    (0.25, 1024), (0.125, 16384)]


def batched_probe(potential, ell, N, n_pts=4096):
    """The 56-lam probe as one batch, and the first index where the
    mismatch flips from > 0 to <= 0: the bracket solve_neumann took before
    it bisected on the grid."""
    R, L = potential.support_radius, ell * N
    h, vn, vm = _well_tables(potential, max(1024, (n_pts // 4) & ~1))[0]
    a_probe = R * np.geomspace(1e-8, 1.5, 56)
    lam_probe = 3.0 * a_probe / L ** 3
    mism = _neumann_mismatch(vn, vm, h, lam_probe, R, L)
    flips = np.flatnonzero((mism[:-1] > 0) & (mism[1:] <= 0))
    return lam_probe, mism, flips[0], (h, vn, vm)


@pytest.mark.parametrize("ell, N", BALLS)
@pytest.mark.parametrize("name", POTENTIALS)
def test_bisection_keeps_the_batched_bracket(name, ell, N):
    potential = POTENTIALS[name]()
    R, L = potential.support_radius, ell * N
    lam_probe, mism, i, (h, vn, vm) = batched_probe(potential, ell, N)
    # the premise of the bisection: one sign change, from > 0 to <= 0
    assert mism[0] > 0.0 and np.count_nonzero(np.diff(mism > 0.0)) == 1

    def single(x):  # one lam per crossing, as the solver evaluates it
        return _neumann_mismatch(vn, vm, h, x, R, L)[0]

    lo, hi = lam_probe[i], lam_probe[i + 1]
    want = _brentq(single, lo, hi, single(lo), single(hi), 1e-300,
                   _BRACKET_RTOL)
    assert solve_neumann(potential, ell, N).lambda_ell == want


@pytest.mark.parametrize("name", ["square_well_2", "smooth"])
def test_bracket_takes_eight_single_lambda_crossings(monkeypatch, name):
    # the two probe ends, then at most ceil(log2 55) = 6 bisection steps,
    # each one lam wide; Brent and the certified well follow
    sizes, before_brent = [], []
    integrate, brent = scattering._integrate_well, scattering._brentq

    def counted(v_nodes, v_mids, h, lam, store=False):
        sizes.append(np.size(lam))
        return integrate(v_nodes, v_mids, h, lam, store)

    def marked(*args):
        before_brent.append(len(sizes))
        return brent(*args)

    monkeypatch.setattr(scattering, "_integrate_well", counted)
    monkeypatch.setattr(scattering, "_brentq", marked)
    solve_neumann(POTENTIALS[name](), 0.5, 64)
    assert max(sizes) == 1
    assert len(before_brent) == 1 and before_brent[0] <= 8


@pytest.mark.parametrize("name", ["square_well_2", "smooth"])
def test_no_two_crossings_of_a_solve_share_a_lambda(monkeypatch, name):
    # Brent starts from the end values the bisection already has, so no
    # mismatch is evaluated twice; the certified well (store=True) follows
    lams = []
    integrate = scattering._integrate_well

    def recorded(v_nodes, v_mids, h, lam, store=False):
        if not store:
            lams.extend(np.atleast_1d(lam).tolist())
        return integrate(v_nodes, v_mids, h, lam, store)

    monkeypatch.setattr(scattering, "_integrate_well", recorded)
    solve_neumann(POTENTIALS[name](), 0.5, 64)
    assert lams and len(set(lams)) == len(lams)


def test_tiny_interaction_has_no_bracket():
    # a0 ~ V0 R^3 / 6 lies far below the smallest scattering length the
    # probe grid implies, R * 1e-8, so no probe eigenvalue brackets lam
    with pytest.raises(SolverFailureError, match="no sign change of the "
                       "Neumann mismatch in the probe range"):
        solve_neumann(make_square_well(1e-20, 1.0, 512), 0.5, 64)
