"""Minimizer checks against the exactly solvable noninteracting trap.

With a harmonic trap and a0 = 0 the minimizer is the Gaussian
phi = pi^{-3/4} exp(-r^2/2) with energy 3, chemical potential 3, transform
pi^{-3/4} (2 pi)^{3/2} exp(-2 pi^2 p^2), and s-wave linearization spectrum
{0, 4, 8, ...}. Interacting runs are checked through structural identities
instead: the virial balance, the chemical-potential identity, energy
monotonicity, and the zero mode of the linearization.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eig_banded, solveh_banded

from gpregime import cli, gp
from gpregime.errors import InvalidParameterError, SolverFailureError
from gpregime.gp import (
    fourier_decay,
    hgp_spectrum,
    minimize_gp,
    verify_decay,
)
from gpregime.potentials import make_trap
from gpregime.radial import radial_fourier

A0 = 1.0 - np.tanh(1.0)


@pytest.fixture(scope="module")
def trap():
    return make_trap("harmonic", 64, 10.0)


@pytest.fixture(scope="module")
def free_state(trap):
    return minimize_gp(trap, 0.0)


@pytest.fixture(scope="module")
def int_state(trap):
    return minimize_gp(trap, A0)


def gaussian_phi(r):
    return np.pi ** -0.75 * np.exp(-r ** 2 / 2.0)


class TestNoninteracting:
    def test_ground_energy_is_three(self, free_state):
        assert abs(free_state.energy["total"] - 3.0) < 1e-8
        assert abs(free_state.energy["kinetic"] - 1.5) < 1e-7
        assert abs(free_state.energy["trap"] - 1.5) < 1e-7
        assert free_state.energy["interaction"] == 0.0

    def test_profile_matches_gaussian_in_l2(self, free_state):
        r = free_state.grid
        diff = free_state.phi - gaussian_phi(r)
        dist2 = 4.0 * np.pi * free_state.h * np.sum((diff * r) ** 2)
        assert np.sqrt(dist2) < 1e-6

    def test_chemical_potential_is_three(self, free_state):
        assert abs(free_state.eps_gp - 3.0) < 1e-8

    def test_spectrum_ladder(self, free_state):
        spec = hgp_spectrum(free_state)
        assert abs(spec["lambda0"]) < 1e-9
        assert abs(spec["gap"] - 4.0) < 1e-3
        assert spec["ground_overlap"] > 1.0 - 1e-8


class TestInteracting:
    def test_converged_residual(self, int_state):
        assert int_state.residual < 1e-10

    def test_energy_decomposition_sums(self, int_state):
        e = int_state.energy
        assert e["total"] == e["kinetic"] + e["trap"] + e["interaction"]
        assert e["total"] > 3.0  # repulsion raises the ground energy
        assert min(e["kinetic"], e["trap"], e["interaction"]) > 0

    def test_chemical_potential_identity(self, int_state):
        lhs = int_state.eps_gp
        rhs = int_state.energy["total"] \
            + 4.0 * np.pi * int_state.a0 * int_state.quartic_norm
        assert abs(lhs - rhs) < 1e-12

    def test_virial_balance(self, int_state):
        e = int_state.energy
        virial = 2.0 * e["kinetic"] - 2.0 * e["trap"] + 3.0 * e["interaction"]
        assert abs(virial) < 1e-5 * e["total"]

    def test_energy_monotone_along_flow(self, int_state):
        trace = np.array(int_state.energy_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))

    def test_linearization_zero_mode(self, int_state):
        spec = hgp_spectrum(int_state)
        assert spec["lambda1"] > 0
        assert abs(spec["lambda0"]) <= 1e-6 * spec["lambda1"]
        assert spec["ground_overlap"] > 1.0 - 1e-8

    def test_negative_a0_rejected(self, trap):
        with pytest.raises(InvalidParameterError):
            minimize_gp(trap, -0.1)
        with pytest.raises(InvalidParameterError):
            minimize_gp(trap, 0.1, n_pts=16)

    def test_a_flow_that_cannot_converge_stalls(self, capsys):
        # at a0 = 1e30 the residual never falls; the flow gives up after
        # one window of accepted steps, not after max_iter
        with pytest.raises(SolverFailureError, match="stalled") as err:
            minimize_gp(make_trap("harmonic", 800, 8.0), 1e30)
        steps = int(re.search(r"after (\d+) steps", str(err.value))[1])
        assert gp._STALL_WINDOW <= steps < 2 * gp._STALL_WINDOW
        assert cli.main(["gp", "--a0", "1e30"]) == 2
        assert "stalled" in capsys.readouterr().err

    def test_a_slow_flow_is_not_a_stall(self):
        # the harmonic flow at a0 = 1000 takes 180 steps, past the window
        state = minimize_gp(make_trap("harmonic", 800, 8.0), 1000.0)
        assert state.iterations > gp._STALL_WINDOW
        assert state.residual <= state.tol_applied


class TestQuartic:
    def test_quartic_trap_converges(self):
        trap = make_trap("quartic", 64, 5.0)
        state = minimize_gp(trap, 0.1)
        assert state.residual < 1e-10
        spec = hgp_spectrum(state)
        assert abs(spec["lambda0"]) <= 1e-6 * spec["lambda1"]
        assert spec["gap"] > 0


class TestDecay:
    @pytest.mark.parametrize("nu", [1.0, 2.0, 4.0])
    def test_envelopes_finite(self, int_state, nu):
        rep = verify_decay(int_state, nu)
        assert np.isfinite(rep["c_phi"]) and rep["c_phi"] > 0
        assert np.isfinite(rep["c_dphi"]) and np.isfinite(rep["c_lap"])
        assert rep["divergent"] is False

    def test_constant_injection_flagged(self, int_state):
        flat = dataclasses.replace(int_state,
                                   phi=np.full(int_state.grid.size, 0.5))
        rep = verify_decay(flat, 2.0)
        assert rep["divergent"] is True

    def test_bad_rate_rejected(self, int_state):
        with pytest.raises(InvalidParameterError):
            verify_decay(int_state, 0.0)


class TestFourierDecay:
    def test_transform_matches_gaussian_closed_form(self, free_state):
        # the transform fourier_decay weighs, on its band of momenta
        p = np.geomspace(0.02, 6.0, 241)
        p = p[(p > 0.05) & (p < 0.8)]
        phat = radial_fourier(free_state.phi, free_state.h, p)
        exact = np.pi ** -0.75 * (2.0 * np.pi) ** 1.5 \
            * np.exp(-2.0 * np.pi ** 2 * p ** 2)
        assert np.max(np.abs(phat - exact) / exact) < 1e-6

    def test_weighted_sup_well_resolved(self, free_state):
        rep = fourier_decay(free_state)
        assert 0.02 < rep["argmax_p"] < 1.0
        assert rep["sup_weighted"] > 0

    def test_weighted_sup_refinement_stable(self, trap, free_state):
        finer = minimize_gp(trap, 0.0, r_max=10.0, n_pts=1600)
        a = fourier_decay(free_state)["sup_weighted"]
        b = fourier_decay(finer)["sup_weighted"]
        assert abs(a - b) / b < 0.01


class TestBandedSolve:
    @given(n=st.integers(64, 1000), r_max=st.floats(4.0, 12.0),
           log_tau=st.floats(-3.0, np.log10(2.0)), a0=st.floats(0.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flow_step_matches_scipy(self, n, r_max, log_tau, a0, seed):
        # I + tau (K + V + 8 pi a0 u^2/r^2), the gradient-flow matrix
        rng = np.random.default_rng(seed)
        h = r_max / (n + 1)
        r = h * np.arange(1, n + 1)
        u = rng.random(n) * r * np.exp(-r ** 2 / 2.0)
        tau = 10.0 ** log_tau
        band = gp.kinetic_band(n, h) * tau
        band[2] += 1.0 + tau * (r ** 2 + 8.0 * np.pi * a0 * u ** 2 / r ** 2)
        rhs = rng.standard_normal(n)
        got = gp._ldl_solve(gp._ldl_factor(band), rhs)
        want = solveh_banded(band, rhs, lower=False)
        # both solves are backward stable and the matrix is >= I, so they
        # differ by at most a few eps * ||A|| relative
        norm = np.abs(band).max(axis=1) @ (2.0, 2.0, 1.0)
        assert np.abs(got - want).max() \
            <= 10.0 * np.finfo(float).eps * norm * np.abs(want).max()

    @pytest.mark.parametrize("pivot", [-1.0, 0.0, np.nan])
    def test_nonpositive_pivot_raises(self, pivot):
        band = gp.kinetic_band(80, 0.1)
        band[2] += 1.0
        band[2, 40] = pivot
        with pytest.raises(SolverFailureError, match="pivot"):
            gp._ldl_factor(band)

    def test_nan_trap_sample_fails_the_flow(self):
        harmonic = make_trap("harmonic", 64, 8.0)

        class Spoiled:
            kind = "harmonic"

            def __call__(self, r):
                v = harmonic(r)
                v[100] = np.nan
                return v

        with pytest.raises(SolverFailureError, match="pivot"):
            minimize_gp(Spoiled(), 0.1)


class TestLanczosSpectrum:
    @pytest.fixture(scope="class", params=[("harmonic", 0.0),
                                           ("harmonic", A0),
                                           ("quartic", 0.1)])
    def state_and_reference(self, request):
        kind, a0 = request.param
        state = minimize_gp(make_trap(kind, 64, 8.0), a0)
        band = gp.kinetic_band(state.u.size, state.h)
        band[2] += state.v_nodes + 8.0 * np.pi * a0 * state.u ** 2 \
            / state.grid[1:-1] ** 2 - state.eps_gp
        vals, vecs = eig_banded(band, lower=False, select="i",
                                select_range=(0, 1))
        overlap = abs(vecs[:, 0] @ state.u) / np.linalg.norm(state.u)
        return state, vals, overlap

    def test_matches_eig_banded(self, state_and_reference):
        state, vals, overlap = state_and_reference
        spec = hgp_spectrum(state)
        assert set(spec) == {"lambda0", "lambda1", "gap", "ground_overlap"}
        assert np.abs([spec["lambda0"], spec["lambda1"]] - vals).max() <= 1e-9
        assert abs(spec["ground_overlap"] - overlap) <= 1e-12
        assert spec["gap"] == spec["lambda1"] - spec["lambda0"]

    def test_uncertified_pair_exits_2(self, monkeypatch, tmp_path, capsys):
        # stopped after k steps, the Ritz pairs fail their residual bound
        monkeypatch.setattr(gp, "_LANCZOS_TOL", 1.0)
        assert cli.main(["gp", "--a0", "0.1",
                         "--out", str(tmp_path / "gp")]) == 2
        err = capsys.readouterr().err
        assert "Lanczos" in err and "Traceback" not in err
