"""Correlation-kernel checks built around closed-form convolution oracles.

The weighted band convolutions have exact Gaussian references: with
a = exp(-p^2) the plain, gradient, and bilaplacian weights produce
(pi/2)^{3/2} e^{-s^2/2} times 1, pi^2 (3 - s^2), and
pi^4 (s^4 + 2 s^2 + 15). The factorized kernels are cross-checked
against the Fourier-split identity F(r) = G(r) - lowpass(G)(r) and a
Plancherel balance between the momentum band and the position tail.
Scaling laws in the box scale are measured on the fixed-cutoff-fraction
sweep.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson

from gpregime import cli, kernels, radial, scattering
from gpregime.errors import (
    InvalidParameterError,
    InvalidRegimeError,
    SolverFailureError,
)
from gpregime.gp import minimize_gp
from gpregime.kernels import (
    _BandWork,
    _Spectra,
    _band_convolve,
    _lowpass_norms,
    _moment_lookup,
    _moment_table,
    _node_rule,
    _simpson_weights,
    build_G,
    build_eta_H,
    build_hN,
    build_nu_H,
    default_sweep_tuples,
    eta_norms,
    hyperbolic,
    nu_norms,
    sweep_kernels,
)
from gpregime.potentials import make_square_well, make_trap
from gpregime.radial import radial_fourier_inverse
from gpregime.scattering import solve_neumann

# the high-band cutoff ell^-alpha at (ell, alpha) = (0.5, 4)
CUTOFF = 0.5 ** -4.0

# every entry of a sweep row, and those the sweep sets itself rather
# than taking from eta_norms, nu_norms, hyperbolic and build_hN
ROW_KEYS = {
    "ell", "N", "big_ell", "alpha", "beta", "cutoff_momentum", "g_sup_p2",
    "g_hat_zero", "gauss_l1", "gauss_l2", "eta_l2", "eta_grad_l2",
    "eta_row_sup", "eta_pointwise_ratio", "eta_defect", "nu_l2",
    "nu_row_sup", "nu_sup_p2", "nu_defect", "p_norm", "r_norm",
    "grad_p_norm", "lap_p_norm", "series_depth", "tail_bound", "hn_l2",
    "hn_sup", "hn_limit_gap"}
SWEEP_KEYS = {"ell", "N", "big_ell", "alpha", "beta", "cutoff_momentum",
              "g_sup_p2", "g_hat_zero", "gauss_l1", "gauss_l2"}


@pytest.fixture(scope="module")
def well():
    return make_square_well(6.0, 1.0, 512)


@pytest.fixture(scope="module")
def zero_well():
    return make_square_well(0.0, 1.0, 512)


@pytest.fixture(scope="module")
def state():
    return minimize_gp(make_trap("harmonic", 800, 8.0), 0.0)


@pytest.fixture(scope="module")
def sol64(well):
    return solve_neumann(well, 0.5, 64)


@pytest.fixture(scope="module")
def G64(sol64):
    return build_G(sol64)


@pytest.fixture(scope="module")
def spectra(state):
    return _Spectra(state)


@pytest.fixture(scope="module")
def eta64(G64):
    return build_eta_H(G64, CUTOFF)


@pytest.fixture(scope="module")
def work64(eta64, spectra):
    return _BandWork(eta64, spectra)


@pytest.fixture(scope="module")
def eta64_report(eta64, work64):
    return eta_norms(eta64, work64)


@pytest.fixture(scope="module")
def sol_zero(zero_well):
    return solve_neumann(zero_well, 0.5, 64)


@pytest.fixture(scope="module")
def eta_zero(sol_zero):
    return build_eta_H(build_G(sol_zero), CUTOFF)


@pytest.fixture(scope="module")
def sweep(well, state):
    return sweep_kernels(well, state, alpha=4.0, beta=2.0)


def loglog_slope(ells, vals):
    return np.polyfit(np.log(np.asarray(ells)), np.log(np.asarray(vals)), 1)[0]


def slope_of(rows, key):
    return loglog_slope([r["ell"] for r in rows], [r[key] for r in rows])


def well_mass(sol, weight):
    """4 pi int weight(V w) r^2 dr over the ball solution's well."""
    fvals, h_well, r0 = sol.segments[0]
    r = r0 + np.arange(fvals.size) * h_well
    vw = sol.potential(r) * (1.0 - fvals)
    return 4.0 * np.pi * radial.simpson(weight(vw) * r ** 2, dx=h_well)


class TestCutoffs:
    def test_cutoff_momentum_scale(self, sweep, eta64):
        assert eta64.cutoff_momentum == CUTOFF
        for row in sweep:
            assert row["cutoff_momentum"] == pytest.approx(
                row["ell"] ** -4.0, rel=1e-12)

    def test_lowpass_mass_is_one(self):
        l1, _ = _lowpass_norms(0.5, 2.0)
        assert abs(l1 - 1.0) < 1e-8

    def test_lowpass_l2_matches_closed_form(self):
        sigma = 0.5 ** 2.0
        _, l2 = _lowpass_norms(0.5, 2.0)
        assert l2 == pytest.approx(
            np.pi ** 0.75 * 2.0 ** -0.75 * sigma ** -1.5, rel=1e-6)

    def test_lowpass_l2_scaling_in_box_scale(self):
        ells = (0.5, 0.25, 0.125)
        vals = [_lowpass_norms(ell, 2.0)[1] for ell in ells]
        assert loglog_slope(ells, vals) == pytest.approx(-3.0, abs=0.05)

    def test_invalid_parameters_raise(self, well, state):
        with pytest.raises(InvalidParameterError):
            sweep_kernels(well, state, ells=(1.2,))
        with pytest.raises(InvalidParameterError):
            sweep_kernels(well, state, alpha=4.0, beta=0.0)
        with pytest.raises(InvalidParameterError):
            sweep_kernels(well, state, alpha=2.0, beta=3.0)


class TestCorrelationG:
    def test_hat_at_zero_is_scaled_mass(self, G64, sol64, sweep):
        want = -sol64.int_w / 64.0 ** 2
        assert G64.hat(0.0)[0] == pytest.approx(want, rel=1e-12)
        assert sweep[0]["g_hat_zero"] == pytest.approx(want, rel=1e-12)

    def test_quadratic_sup_is_scale_free(self, well, sol64):
        other = solve_neumann(well, 0.5, 128)
        assert other.sup_p2 == pytest.approx(sol64.sup_p2, rel=0.01)

    def test_transform_certificate(self, sol64):
        p = scattering.default_momentum_grid(sol64)
        assert scattering._refined_transform(sol64, p)[1] < 5e-3

    def test_zero_potential_vanishes(self, sol_zero):
        Gz = build_G(sol_zero)
        assert Gz.hat(0.0)[0] == 0.0
        r = np.linspace(0.0, 1.0, 11)
        assert np.all(-Gz.N * np.interp(Gz.N * r, Gz.sol.r_grid, Gz.sol.w,
                                         right=0.0) == 0.0)


class TestBandConvolve:
    def test_gaussian_closed_forms(self):
        p = np.linspace(0.0, 8.0, 1601)
        a = np.exp(-p ** 2)
        s = np.linspace(0.0, 5.0, 201)
        g = (np.pi / 2.0) ** 1.5 * np.exp(-s ** 2 / 2.0)
        refs = {
            "K0": g,
            "K2": np.pi ** 2 * (3.0 - s ** 2) * g,
            "K4": np.pi ** 4 * (s ** 4 + 2.0 * s ** 2 + 15.0) * g,
        }
        for (name, ref), got in zip(refs.items(), _band_convolve(p, a, s)):
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err < 1e-4, f"{name}: {err:.2e}"

    def test_sharp_band_is_continuous_at_zero_separation(self, eta64):
        # the clipped edge layer once produced an O(h) jump here
        s = np.array([0.0, 1e-3, 2e-3, 5e-3])
        vals = _band_convolve(eta64.p_nodes, eta64.fhat, s)[0]
        assert np.max(np.abs(vals[1:] - vals[0])) < 2e-3 * abs(vals[0])

    def test_band_too_short_for_the_separation_refused(self):
        # s = 1 puts 22 of the 20 intervals' outer nodes in the refined
        # layer, leaving none to the node rule
        p = np.linspace(0.0, 1.0, 21)
        with pytest.raises(InvalidParameterError, match="too short"):
            _band_convolve(p, np.exp(-p), np.array([0.5, 1.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        power=st.sampled_from([1, 3]),
    )
    def test_moment_lookup_matches_dense_quadrature(self, seed, power):
        rng = np.random.default_rng(seed)
        nodes = np.linspace(0.3, 2.7, 25)
        vals = rng.normal(size=nodes.size)
        table = _moment_table(nodes, vals, power)
        x = rng.uniform(0.3, 2.7, size=5)
        # the reference grid holds every node, so the trapezoid sees no kink
        # and its error (~3e-8 for power 3) stays well below the tolerance
        fine = np.linspace(nodes[0], nodes[-1], (nodes.size - 1) * 10000 + 1)
        dense = np.interp(fine, nodes, vals) * fine ** power
        mass = np.cumsum(np.concatenate([[0.0], np.diff(fine) *
                                         (dense[1:] + dense[:-1]) / 2.0]))
        want = np.interp(x, fine, mass)
        assert np.allclose(_moment_lookup(nodes, table, x), want, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.just(2), st.integers(1, 200).map(lambda k: 2 * k + 1),
                    st.integers(2, 200).map(lambda k: 2 * k)),
        dx=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_simpson_weights_reproduce_simpson(self, n, dx, seed):
        # n = 2, odd n (Simpson panels only) and even n (Cartwright's
        # last interval), to a few ulps of the sum of |w_i y_i|
        y = np.random.default_rng(seed).normal(size=n)
        w = _simpson_weights(n, dx)
        scale = np.sum(np.abs(w * y))
        assert abs(w @ y - radial.simpson(y, dx)) <= 8 * np.spacing(scale)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        n_int=st.integers(4, 30).map(lambda k: 2 * k),
        start=st.sampled_from(["zero", "below", "above"]),
        half=st.booleans(),
    )
    # a draw on which per-shift Simpson calls missed the bound (1.5e-17
    # against 1e-12 times a 1.1e-5 scale)
    @example(seed=518, n_int=8, start="below", half=True)
    def test_node_rule_matches_general_lookup(self, seed, n_int, start, half):
        # Rows cover random offsets, exact multiples of h and, with
        # s + t_j, points beyond the band end; "above" starts the band past
        # every s. Each row sums from a drawn m with p0 + m h >= s, the
        # rule's precondition, and keeps at least two intervals; rows
        # whose s leaves none are dropped. Nodes are dyadic, so p0 + j h
        # is exact and both rules read the same piecewise-linear model.
        rng = np.random.default_rng(seed)
        h = rng.integers(3, 32) / 64.0
        p0 = {"zero": 0.0, "below": rng.integers(1, 128) / 64.0,
              "above": rng.integers(30 * 64, 60 * 64) / 64.0}[start]
        p = p0 + h * np.arange(n_int + 1)
        width = p[-1] - p0
        s = np.concatenate([
            rng.uniform(0.0, 1.3 * width + 2.0 * p0, 8),
            h * rng.integers(1, n_int + 1, 4),
            [width, width + 0.5 * h, p[-1], 2.0 * p0 + 3.0 * h]])
        a, b = rng.normal(size=(2, p.size))
        if half:
            p, a, b, s = p[::2], a[::2], b[::2], s[::2]
        hh = p[1] - p[0]
        m_lo = np.maximum(0, np.ceil((s - p[0]) / hh)).astype(int)
        keep = m_lo < p.size - 2
        assume(keep.any())
        s = s[keep]
        m = rng.integers(m_lo[keep], p.size - 2)
        pairs = [(p ** e * a, _moment_table(p, b, power))
                 for e in (1, 3) for power in (1, 3)]
        got = _node_rule(p, pairs, s, m)
        for (g, table), row in zip(pairs, got):
            hi = _moment_lookup(p, table, s[:, None] + p)
            lo = _moment_lookup(p, table, np.abs(s[:, None] - p))
            for i, mi in enumerate(m):
                want = simpson((g * (hi[i] - lo[i]))[mi:], dx=hh)
                scale = simpson((np.abs(g) * (np.abs(hi[i]) + np.abs(lo[i])))
                                [mi:], dx=hh)
                assert abs(row[i] - want) <= 1e-12 * scale, (i, s[i], m[i])


class TestFactorized:
    def test_split_identity_recovers_position_values(self, G64, eta64):
        # highpass factor plus lowpass remainder must reproduce G
        p = np.linspace(0.0, CUTOFF, 4097)
        r = np.array([0.05, 0.1, 0.2, 0.3, 0.45])
        low = radial_fourier_inverse(G64.hat(p), p[1] - p[0], r)
        split = eta64.factor(r) + low
        direct = -G64.N * np.interp(G64.N * r, G64.sol.r_grid, G64.sol.w,
                                   right=0.0)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(split - direct)) < 1e-5 * scale

    def test_plancherel_balance(self, eta64):
        h = eta64.p_nodes[1] - eta64.p_nodes[0]
        band = 4.0 * np.pi * simpson(eta64.fhat ** 2 * eta64.p_nodes ** 2,
                                     dx=h)
        r = np.linspace(0.0, 3.0, 6001)
        F = eta64.factor(r)
        pos = 4.0 * np.pi * simpson(F ** 2 * r ** 2, dx=r[1] - r[0])
        assert pos == pytest.approx(band, rel=5e-2)

    def test_band_vanishes_below_cutoff(self, eta64, G64):
        # the band starts at the cutoff and holds Ghat at its nodes
        assert eta64.p_nodes[0] == CUTOFF
        assert np.all(np.diff(eta64.p_nodes) > 0.0)
        idx = [0, 10, 200]
        assert np.allclose(eta64.fhat[idx], G64.hat(eta64.p_nodes[idx]),
                           rtol=1e-12)


class TestEtaNorms:
    def test_zero_potential_gives_zero_kernel(self, eta_zero, spectra):
        rep = eta_norms(eta_zero, _BandWork(eta_zero, spectra))
        assert rep["eta_l2"] == 0.0
        assert rep["eta_grad_l2"] == 0.0
        assert rep["eta_row_sup"] == 0.0
        assert rep["eta_pointwise_ratio"] == 0.0

    def test_l2_scaling_in_box_scale(self, sweep):
        assert slope_of(sweep, "eta_l2") == pytest.approx(2.0, abs=0.2)

    def test_gradient_norm_tracks_sqrt_density(self, sweep):
        vals = np.array([row["eta_grad_l2"] / np.sqrt(row["N"])
                         for row in sweep])
        assert vals.max() / vals.min() < 1.2

    def test_gradient_stability_at_fixed_box_scale(self, well, spectra):
        vals = []
        for N in (50, 100):
            sol = solve_neumann(well, 0.7, N)
            eta = build_eta_H(build_G(sol), 0.7 ** -4.0)
            rep = eta_norms(eta, _BandWork(eta, spectra))
            vals.append(rep["eta_grad_l2"] / np.sqrt(N))
        assert max(vals) / min(vals) < 1.2

    def test_l2_below_row_sup(self, eta64_report):
        assert eta64_report["eta_l2"] <= (eta64_report["eta_row_sup"]
                                          * (1.0 + 1e-9))

    def test_certificate_rejects_coarse_band(self, G64, spectra,
                                             monkeypatch):
        # a band of 64 intervals, far below the natural estimate
        monkeypatch.setattr(kernels, "_MIN_BAND_INTERVALS", 64)
        monkeypatch.setattr(kernels, "_MAX_BAND_INTERVALS", 64)
        coarse = build_eta_H(G64, CUTOFF)
        assert coarse.p_nodes.size == 65
        with pytest.raises(SolverFailureError):
            eta_norms(coarse, _BandWork(coarse, spectra))

    def test_certificate_within_tolerance(self, eta64_report):
        assert eta64_report["eta_defect"] < 5e-3


class TestNuNorms:
    def test_slice_sup_sits_in_the_band(self, eta64, G64, work64):
        rep = nu_norms(build_nu_H(eta64), work64)
        p = eta64.p_nodes
        assert rep["nu_sup_p2"] == pytest.approx(
            np.max(p ** 2 * np.abs(G64.hat(p))), rel=1e-12)
        assert rep["nu_sup_p2"] > 0.0
        assert rep["nu_l2"] > 0.0

    def test_l2_scaling_in_box_scale(self, sweep):
        assert slope_of(sweep, "nu_l2") == pytest.approx(2.0, abs=0.2)

    def test_zero_potential_gives_zero_kernel(self, eta_zero, spectra):
        rep = nu_norms(build_nu_H(eta_zero), _BandWork(eta_zero, spectra))
        assert rep["nu_l2"] == 0.0
        assert rep["nu_row_sup"] == 0.0


class TestSharedBand:
    """sweep_kernels builds each band object once per row; every routine
    must return what it returns on a band object of its own."""

    def test_shared_work_gives_the_standalone_reports(self, G64, state,
                                                      eta64):
        nu = build_nu_H(eta64)
        assert nu.p_nodes is eta64.p_nodes and nu.fhat is eta64.fhat

        def fresh():
            return _BandWork(eta64, _Spectra(state))
        shared = fresh()
        en = eta_norms(eta64, shared)
        nn = nu_norms(nu, shared)
        assert en == eta_norms(eta64, fresh())
        assert nn == nu_norms(nu, fresh())
        assert nn["nu_row_sup"] == en["eta_row_sup"]
        assert hyperbolic(en, shared, 1e-12) == hyperbolic(en, fresh(),
                                                           1e-12)
        assert (build_hN(G64.sol, state, shared.spectra)
                == build_hN(G64.sol, state, _Spectra(state)))

    def test_sweep_calls_each_public_routine_once_per_row(
            self, well, state, sol64, monkeypatch):
        names = ("eta_norms", "nu_norms", "hyperbolic", "build_hN",
                 "build_nu_H")
        calls = {name: 0 for name in names}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in names:
            monkeypatch.setattr(kernels, name,
                                counted(name, getattr(kernels, name)))
        rows = sweep_kernels(well, state, ells=(0.5, 0.7), solved=sol64)
        assert [(r["ell"], r["N"]) for r in rows] == [(0.5, 64.0),
                                                      (0.7, 17.0)]
        assert calls == {name: 2 for name in names}

    def test_each_band_object_is_formed_once(self, eta64, state,
                                             monkeypatch):
        # one convolution per resolution, each with one moment table per
        # power and one node-rule pass, whatever the routines read
        names = ("_band_convolve", "_moment_table", "_node_rule")
        calls = {name: 0 for name in names}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        for name in names:
            monkeypatch.setattr(kernels, name,
                                counted(name, getattr(kernels, name)))
        work = _BandWork(eta64, _Spectra(state))
        en = eta_norms(eta64, work)
        nu_norms(build_nu_H(eta64), work)
        hyperbolic(en, work, 1e-12)
        assert calls == {"_band_convolve": 2, "_moment_table": 4,
                         "_node_rule": 2}


class TestSweepReuse:
    def test_matching_solution_is_reused(self, well, state, sol64, sweep,
                                         monkeypatch):
        calls = []
        real = solve_neumann
        monkeypatch.setattr("gpregime.kernels.solve_neumann",
                            lambda *a: calls.append(a) or real(*a))
        rows = sweep_kernels(well, state, ells=(0.5,), solved=sol64)
        assert calls == []
        assert rows[0] == sweep[0]
        # another resolution is another solve
        finer = solve_neumann(well, 0.5, 64, n_pts=8192)
        sweep_kernels(well, state, ells=(0.5,), solved=finer)
        assert calls == [(well, 0.5, 64, 4096)]

    def test_scatter_solution_is_transformed_once(self, well, state,
                                                  monkeypatch):
        # the scatter stage and build_G share the solution's transform
        calls = []
        real = scattering.fourier_w
        monkeypatch.setattr(scattering, "fourier_w",
                            lambda sol, *a: calls.append(sol) or real(sol, *a))
        inputs = cli._parse_stage("scatter",
                                  {"sweep_nl": [25.0, 50.0, 100.0]})
        _, base = cli.scatter_stage(inputs._replace(potential=well))
        assert len(calls) == 4 and base in calls
        sweep_kernels(well, state, ells=(0.5,), solved=base)
        assert len(calls) == 4


class TestCubicKernel:
    def test_concentration_limit(self, well, state, spectra):
        gaps = [build_hN(solve_neumann(well, 0.5, N), state,
                         spectra)["hn_limit_gap"] for N in (50, 100, 200)]
        assert gaps[1] < 0.5 * gaps[0]
        assert gaps[2] < 0.5 * gaps[1]

    def test_sup_below_product_bound(self, sol64, state, spectra):
        # Young: sup |h_N| <= int |V w| max |phi|^3
        rep = build_hN(sol64, state, spectra)
        bound = well_mass(sol64, np.abs) * np.max(np.abs(state.phi)) ** 3
        assert rep["hn_sup"] <= bound * (1.0 + 1e-9)

    def test_nonnegative_interaction_mass(self, sol64):
        # V >= 0 and w >= 0 make the signed and absolute masses agree
        assert well_mass(sol64, lambda vw: vw) == pytest.approx(
            well_mass(sol64, np.abs), rel=1e-12)

    def test_zero_potential_vanishes(self, sol_zero, state, spectra):
        rep = build_hN(sol_zero, state, spectra)
        assert rep["hn_l2"] == 0.0
        assert rep["hn_sup"] == 0.0


class TestHyperbolic:
    def test_series_norm_recomputes(self, eta64_report, work64):
        hk = hyperbolic(eta64_report, work64, 1e-12)
        l2 = eta64_report["eta_l2"]
        k = np.arange(1, int(hk["series_depth"]) + 1)
        from scipy.special import factorial
        want_p = np.sum(l2 ** (2 * k + 1) / factorial(2 * k + 1))
        want_r = np.sum(l2 ** (2 * k) / factorial(2 * k))
        assert hk["p_norm"] == pytest.approx(want_p, rel=1e-12)
        assert hk["r_norm"] == pytest.approx(want_r, rel=1e-12)

    def test_depth_shrinks_with_loose_tolerance(self, eta64_report, work64):
        tight = hyperbolic(eta64_report, work64, 1e-14)
        loose = hyperbolic(eta64_report, work64, 1e-4)
        assert loose["series_depth"] <= tight["series_depth"]
        assert tight["tail_bound"] < 1e-14

    def test_remainder_scaling_exceeds_base(self, sweep):
        # cubic-and-higher tails fall at least as fast as the base norm
        assert slope_of(sweep, "p_norm") >= 4.0 - 0.3
        assert slope_of(sweep, "r_norm") >= 4.0 - 0.3
        assert slope_of(sweep, "p_norm") == pytest.approx(6.0, abs=0.2)
        assert slope_of(sweep, "r_norm") == pytest.approx(4.0, abs=0.2)

    def test_gradient_chain_is_contractive(self, eta64_report, work64):
        hk = hyperbolic(eta64_report, work64, 1e-12)
        assert 0.0 < hk["grad_p_norm"] < eta64_report["eta_grad_l2"]
        assert np.isfinite(hk["lap_p_norm"])
        assert hk["lap_p_norm"] > 0.0

    def test_divergent_series_refused(self, eta64, spectra):
        big = dataclasses.replace(eta64, fhat=eta64.fhat * 100.0)
        work = _BandWork(big, spectra)
        with pytest.raises(InvalidRegimeError):
            hyperbolic(eta_norms(big, work), work, 1e-12)

    def test_zero_kernel_trivial(self, eta_zero, spectra):
        work = _BandWork(eta_zero, spectra)
        hk = hyperbolic(eta_norms(eta_zero, work), work, 1e-12)
        assert hk["p_norm"] == 0.0
        assert hk["r_norm"] == 0.0
        assert hk["series_depth"] == 0


class TestSweep:
    def test_default_tuples_pin_the_cutoff_fraction(self):
        tuples = default_sweep_tuples(4.0)
        assert tuples == ((0.5, 64), (0.25, 1024), (0.125, 16384))
        for ell, N in tuples:
            qc = ell ** -4.0 / N
            assert 0.2 <= qc <= 0.3

    def test_rows_carry_the_norm_inventory(self, sweep, eta64, eta64_report,
                                           work64, sol64, state, spectra,
                                           eta_zero, sol_zero):
        assert len(ROW_KEYS) == 28
        for row in sweep:
            assert set(row) == ROW_KEYS
        # the sweep merges the routines' entries with **, so a key two of
        # them shared would be overwritten without a trace; the zero
        # kernel's entries are the same keys
        zero_work = _BandWork(eta_zero, spectra)
        zero_eta = eta_norms(eta_zero, zero_work)
        sets = [
            (set(eta64_report), set(zero_eta)),
            (set(nu_norms(build_nu_H(eta64), work64)),
             set(nu_norms(build_nu_H(eta_zero), zero_work))),
            (set(hyperbolic(eta64_report, work64, 1e-12)),
             set(hyperbolic(zero_eta, zero_work, 1e-12))),
            (set(build_hN(sol64, state, spectra)),
             set(build_hN(sol_zero, state, spectra)))]
        for keys, zero_keys in sets:
            assert keys == zero_keys
        owners = [SWEEP_KEYS] + [keys for keys, _ in sets]
        assert sum(map(len, owners)) == len(set().union(*owners))
        assert set().union(*owners) == ROW_KEYS

    def test_certificates_hold_across_the_sweep(self, sweep):
        for row in sweep:
            assert row["eta_defect"] < 5e-3
            assert row["nu_defect"] < 5e-3
            assert abs(row["gauss_l1"] - 1.0) < 1e-8

    def test_lowpass_l2_scaling(self, sweep):
        assert slope_of(sweep, "gauss_l2") == pytest.approx(-3.0, abs=0.05)


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=60))
@example(x=[])
@example(x=[3, 1, 3, 3, -2, 1])
def test_distinct_matches_numpy_unique(x):
    x = np.array(x, dtype=np.int64)
    keys, inv = kernels._distinct(x)
    want_keys, want_inv = np.unique(x, return_inverse=True)
    assert keys.dtype == want_keys.dtype and inv.dtype == want_inv.dtype
    assert np.array_equal(keys, want_keys) and np.array_equal(inv, want_inv)


def test_kernel_sweep_leaves_numpy_ma_unloaded():
    # numpy's unique imports numpy.ma on its first call, 1.7 MB of peak
    # RSS in a fresh process; nothing in the package reads masked arrays
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from gpregime import cli; "
            "raw = cli.default_config(); "
            "raw['pipeline'] = ['scatter', 'gp', 'kernels']; "
            "assert cli.run(raw).all_pass; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
