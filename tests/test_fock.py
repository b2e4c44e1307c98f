"""Tests for the truncated ladder algebra and the excitation map.

Oracles are structural rather than numeric: the commutator identities,
the relabeling conjugations, and the quadratic-form decomposition are
exact operator statements, so the float checks freeze machine-epsilon
tolerances and the radical-ring suite asserts literal zero. The pure
condensate energy N h00 + N(N-1) v0000 / 2 and the diagonal free case
give closed-form expectation values. Conjugation remainders are pinned
by their cubic small-generator scaling, with the ratio 8 per halving
measured before freezing.
"""

import gc

import numpy as np
import pytest
from fractions import Fraction
from math import gcd
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from gpregime import cli, fock, fockexact
from gpregime.errors import (
    InvalidParameterError,
    ResourceLimitError,
    SolverFailureError,
)


@pytest.fixture(scope="module")
def sp23():
    return fock.build_fock_space(2, 3)


@pytest.fixture(scope="module")
def sp34():
    return fock.build_fock_space(3, 4)


@pytest.fixture(scope="module")
def eta3():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(3, 3))
    eta = (e + e.T) / 2
    return eta / np.linalg.norm(eta)


@pytest.fixture(scope="module")
def nug():
    rng = np.random.default_rng(8)
    return 0.3 * rng.normal(size=(3, 3)), 0.5 * rng.normal(size=(3, 3))


@pytest.fixture(scope="module")
def fvec():
    return np.array([0.7, -0.4, 0.2])


def dense(mat):
    return np.asarray(mat.toarray()
                      if isinstance(mat, fock.DisplacementMatrix) else mat)


def dense_exp(blocks):
    """The dense matrix of exp_generator's (states, block) pairs."""
    dim = sum(len(i) for i, _ in blocks)
    out = np.zeros((dim, dim))
    for i, q in blocks:
        out[np.ix_(i, i)] = q
    return out


class TestSpace:
    def test_dimension_is_binomial(self):
        from math import comb
        for M, cap in [(1, 1), (2, 3), (3, 4), (4, 2), (5, 5)]:
            sp = fock.build_fock_space(M, cap)
            assert sp.dim == comb(M + cap, M)
            assert len(sp.basis) == sp.dim

    def test_basis_round_trip(self, sp34):
        for k, n in enumerate(sp34.basis):
            assert sp34.index[n] == k

    def test_basis_unique_and_bounded(self, sp34):
        assert len(set(sp34.basis)) == sp34.dim
        assert all(sum(n) <= sp34.N_cap for n in sp34.basis)
        assert all(min(n) >= 0 for n in sp34.basis)

    def test_basis_graded_by_total(self, sp34):
        totals = [sum(n) for n in sp34.basis]
        assert totals == sorted(totals)
        assert sp34.basis[0] == (0, 0, 0)

    def test_sector_and_excitation_indices(self, sp23):
        top = sp23.sector_indices(3)
        assert all(sum(sp23.basis[k]) == 3 for k in top)
        assert top.size == 4
        # the excitation sub-basis is the image of the relabeling map
        exc = np.flatnonzero(dense(fock.build_UN(sp23)).any(axis=1))
        assert all(sp23.basis[k][0] == 0 for k in exc)
        assert exc.size == 4

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            fock.build_fock_space(0, 3)
        with pytest.raises(InvalidParameterError):
            fock.build_fock_space(2, -1)

    @given(M=st.integers(1, 4), cap=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_properties(self, M, cap):
        from math import comb
        sp = fock.build_fock_space(M, cap)
        assert sp.dim == comb(M + cap, M)
        assert all(sp.index[n] == k for k, n in enumerate(sp.basis))


class TestLadders:
    def test_single_mode_closed_form(self):
        # one mode is the truncated harmonic ladder
        sp = fock.build_fock_space(1, 4)
        lad = fock.build_ladder(sp, 0)
        a = dense(lad.a)
        expect = np.diag(np.sqrt(np.arange(1.0, 5.0)), k=1)
        np.testing.assert_allclose(a, expect, rtol=0, atol=0)

    def test_vacuum_action(self, sp23):
        lad = fock.build_ladder(sp23, 1)
        vac = np.zeros(sp23.dim)
        vac[0] = 1.0
        assert np.all(dense(lad.a) @ vac == 0.0)
        one = dense(lad.a_dag) @ vac
        assert one[sp23.index[(0, 1)]] == 1.0
        assert np.sum(one != 0.0) == 1

    def test_ccr_on_low_block(self, sp34):
        lads = [fock.build_ladder(sp34, i) for i in range(3)]
        low = sp34.number_diag() <= sp34.N_cap - 1
        for i in range(3):
            for j in range(3):
                c = dense(lads[i].a @ lads[j].a_dag
                          - lads[j].a_dag @ lads[i].a)
                want = np.eye(sp34.dim) if i == j else 0.0
                np.testing.assert_allclose((c - want)[:, low], 0.0,
                                           atol=1e-13)

    def test_b_dag_kills_top_sector(self, sp23):
        lad = fock.build_ladder(sp23, 1)
        for k in sp23.sector_indices(3):
            e = np.zeros(sp23.dim)
            e[k] = 1.0
            assert np.all(dense(lad.b_dag) @ e == 0.0)

    def test_b_is_depleted_lowering(self, sp23):
        lad = fock.build_ladder(sp23, 0)
        dep = np.sqrt((sp23.N_cap - sp23.number_diag()) / sp23.N_cap)
        np.testing.assert_allclose(dense(lad.b),
                                   np.diag(dep) @ dense(lad.a),
                                   rtol=0, atol=1e-15)

    def test_number_offsets(self, sp23):
        # the displacement keys are n_row - n_col, whose sum is the
        # change in total number
        lad = fock.build_ladder(sp23, 0)

        def keys(mat):
            return {d for d, w in mat.weights.items() if w.any()}

        assert keys(lad.a) == keys(lad.b) == {(-1, 0)}
        assert keys(lad.a_dag) == {(1, 0)}
        assert keys(lad.b_dag @ lad.b) == {(0, 0)}

    def test_invalid_mode_and_empty_cap(self, sp23):
        with pytest.raises(InvalidParameterError):
            fock.build_ladder(sp23, 5)
        with pytest.raises(InvalidParameterError):
            fock.build_ladder(fock.build_fock_space(2, 0), 0)

    def test_dgamma_identity_is_number(self, sp34):
        # the one-body part of H_N with h = 1 is the number operator
        coeff = fock.CoefficientSet(h=np.eye(3), v=np.zeros((3,) * 4),
                                    eta=np.zeros((3, 3)), nu=np.zeros((3, 3)),
                                    g=np.zeros((3, 3)))
        num = dense(fock.build_HN(coeff, sp34))
        np.testing.assert_allclose(num, np.diag(sp34.number_diag()),
                                   atol=1e-14)

    def test_b_commutator_identities(self, sp23):
        assert fock.verify_b_commutators(sp23) < 1e-13

    def test_b_commutators_smallest_space(self):
        sp = fock.build_fock_space(1, 1)
        assert fock.verify_b_commutators(sp) < 1e-15

    def test_b_commutators_wider(self, sp34):
        assert fock.verify_b_commutators(sp34) < 1e-13


class TestExcitationMap:
    def test_conjugation_relations(self, sp23, sp34):
        assert fock.verify_un(sp23) < 1e-12
        assert fock.verify_un(sp34) < 1e-12

    def test_isometry_and_range(self, sp23):
        # U is square and vanishes off the top sector: U*U is its projector
        U = dense(fock.build_UN(sp23))
        top = np.diag(np.isin(np.arange(sp23.dim),
                              sp23.sector_indices(3)).astype(float))
        np.testing.assert_allclose(U.T @ U, top, atol=1e-15)
        gam = dense(fock.gamma_projector(sp23))
        np.testing.assert_allclose(U @ U.T, gam, atol=1e-15)

    def test_pure_condensate_to_vacuum(self, sp23):
        pure_full = sp23.index[(3, 0)]
        assert pure_full in sp23.sector_indices(3)
        psi = np.zeros(sp23.dim)
        psi[pure_full] = 1.0
        out = dense(fock.build_UN(sp23)) @ psi
        assert out[0] == 1.0 and np.sum(out != 0.0) == 1

    def test_gamma_is_projector(self, sp34):
        g = dense(fock.gamma_projector(sp34))
        np.testing.assert_allclose(g @ g, g, atol=0)
        n = np.diag(sp34.number_diag())
        np.testing.assert_allclose(g @ n - n @ g, 0.0, atol=0)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            fock.build_UN(fock.build_fock_space(2, 0))


class TestCoefficients:
    def test_random_set_validates(self):
        coeff = fock.make_random_coefficients(3, seed=2)
        fock.validate_coefficients(coeff, 3)

    def test_symmetry_violations_rejected(self):
        import dataclasses
        coeff = fock.make_random_coefficients(3, seed=2)
        bad_v = coeff.v.copy()
        bad_v[0, 1, 2, 0] += 0.1
        with pytest.raises(InvalidParameterError):
            fock.validate_coefficients(
                dataclasses.replace(coeff, v=bad_v), 3)
        bad_h = coeff.h.copy()
        bad_h[0, 1] += 0.5
        with pytest.raises(InvalidParameterError):
            fock.validate_coefficients(
                dataclasses.replace(coeff, h=bad_h), 3)
        bad_e = coeff.eta.copy()
        bad_e[2, 0] -= 0.3
        with pytest.raises(InvalidParameterError):
            fock.validate_coefficients(
                dataclasses.replace(coeff, eta=bad_e), 3)

    def test_seed_determinism(self):
        c1 = fock.make_random_coefficients(3, seed=9)
        c2 = fock.make_random_coefficients(3, seed=9)
        np.testing.assert_array_equal(c1.v, c2.v)
        np.testing.assert_array_equal(c1.h, c2.h)


class TestEnergyIdentity:
    @pytest.mark.parametrize("M,cap", [(2, 3), (3, 3), (3, 4)])
    def test_random_coefficients(self, M, cap):
        sp = fock.build_fock_space(M, cap)
        coeff = fock.make_random_coefficients(M, seed=11)
        assert fock.verify_energy_identity(coeff, sp, seed=3) < 1e-10

    def test_free_case_is_diagonal(self):
        # v = 0 with diagonal h keeps the occupation basis as eigenbasis
        sp = fock.build_fock_space(3, 3)
        h = np.diag([0.5, 1.5, 2.5])
        coeff = fock.CoefficientSet(h=h, v=np.zeros((3,) * 4),
                                    eta=np.zeros((3, 3)),
                                    nu=np.zeros((3, 3)),
                                    g=np.zeros((3, 3)))
        H = dense(fock.build_HN(coeff, sp))
        expect = np.diag([sum(h[i, i] * n[i] for i in range(3))
                          for n in sp.basis])
        np.testing.assert_allclose(H, expect, atol=1e-14)
        assert fock.verify_energy_identity(coeff, sp) < 1e-14

    def test_vacuum_expectation_is_condensate_energy(self, sp23):
        coeff = fock.make_random_coefficients(2, seed=4)
        pieces = fock.build_LN(coeff, sp23)
        N = sp23.N_cap
        expect = N * coeff.h[0, 0] + 0.5 * N * (N - 1) * coeff.v[0, 0, 0, 0]
        vac = np.zeros(sp23.dim)
        vac[0] = 1.0
        got = sum(float(vac @ (dense(p) @ vac))
                  for p in pieces.values())
        assert got == pytest.approx(expect, rel=1e-12)
        zero_only = float(vac @ (dense(pieces["L0"]) @ vac))
        assert zero_only == pytest.approx(expect, rel=1e-12)

    def test_pieces_are_hermitian(self, sp34):
        coeff = fock.make_random_coefficients(3, seed=6)
        ops = [*fock.build_LN(coeff, sp34).values(),
               fock.build_HN(coeff, sp34)]
        for op in ops:
            assert fock._max_abs(op - op.T) < 1e-12

    def test_invalid_tensor_rejected(self, sp34):
        import dataclasses
        coeff = fock.make_random_coefficients(3, seed=6)
        bad = coeff.v.copy()
        bad[1, 2, 0, 1] += 1.0
        with pytest.raises(InvalidParameterError):
            fock.build_HN(dataclasses.replace(coeff, v=bad), sp34)


class TestPairGenerator:
    def test_antisymmetry_is_exact(self, sp34, eta3):
        B = fock.build_B(sp34, 0.3 * eta3)
        assert fock._max_abs(B + B.T) == 0.0

    def test_pair_steps_only(self, sp34, eta3):
        B = fock.build_B(sp34, eta3)
        steps = {abs(sum(d)) for d, w in B.weights.items() if w.any()}
        assert steps == {2}

    def test_exponential_is_unitary(self, sp34, eta3):
        Q = dense_exp(fock.exp_generator(fock.build_B(sp34, 0.4 * eta3)))
        assert np.max(np.abs(Q.T @ Q - np.eye(sp34.dim))) < 1e-12

    def test_zero_eta_exact_identity(self, sp34):
        Q = fock.exp_generator(fock.build_B(sp34, np.zeros((3, 3))))
        assert np.array_equal(dense_exp(Q), np.eye(sp34.dim))

    def test_identity_test_agrees_with_dense_comparison(self, sp34, eta3):
        # the allocation-free test gives np.array_equal(Q, I)'s verdict,
        # also on signed zeros, NaN and rounding-level entries
        cases = [np.eye(4), np.eye(4)[::-1], np.zeros((4, 4)),
                 np.diag([1.0, 1.0, 1.0, 1.0 + 2 ** -52]),
                 dense_exp(fock.exp_generator(
                     fock.build_B(sp34, 0.3 * eta3)))]
        for i, j, value in [(1, 0, -0.0), (0, 3, 5e-324), (0, 3, np.nan),
                            (2, 2, np.nan), (2, 2, -1.0)]:
            Q = np.eye(4)
            Q[i, j] = value
            cases.append(Q)
        for Q in cases:
            assert fock._is_identity(Q) == np.array_equal(Q, np.eye(len(Q)))

    def test_returned_matrix_keeps_its_space(self, eta3):
        # a builder's matrix holds the space itself, not the float
        # algebra's weak proxy, so it outlives a temporary space
        B = fock.build_B(fock.build_fock_space(3, 2), 0.3 * eta3)
        gc.collect()
        assert dense_exp(fock.exp_generator(B)).shape == (10, 10)

    def test_asymmetric_eta_rejected(self, sp34):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(InvalidParameterError):
            fock.build_B(sp34, bad)

    def test_conjugation_preserves_spectrum(self, sp34, eta3):
        coeff = fock.make_random_coefficients(3, seed=6)
        H = dense(fock.build_HN(coeff, sp34))
        Q = dense_exp(fock.exp_generator(fock.build_B(sp34, 0.3 * eta3)))
        before = np.linalg.eigvalsh(H)
        after = np.linalg.eigvalsh(Q.T @ H @ Q)
        np.testing.assert_allclose(after, before, atol=1e-10)

    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
    def test_growth_bounded_over_caps(self, eta3, n):
        rep = fock.verify_B_number_growth(3, eta3, 0.3, (n,),
                                          caps=(2, 3, 4, 5, 6))[f"n={n}"]
        assert rep["caps"] == [2, 3, 4, 5, 6]
        assert rep["sup"] == max(rep["ratios"]) <= np.exp(4 * 0.3)
        assert max(rep["ratios"]) / min(rep["ratios"]) < 1.5
        if n == 0:
            # unitarity probe: the conjugated identity stays the identity
            assert rep["ratios"] == pytest.approx([1.0] * 5, abs=1e-12)

    def test_growth_trivial_at_zero_eta(self):
        rep = fock.verify_B_number_growth(3, np.zeros((3, 3)), 1.0, (2,))
        assert rep["n=2"]["ratios"] == [1.0] * 5

    def test_growth_power_range(self, eta3):
        with pytest.raises(InvalidParameterError):
            fock.verify_B_number_growth(3, eta3, 0.3, (0, 5))

    def test_generator_built_once_per_cap(self, eta3, monkeypatch):
        # one B and one exponential per cap, read by every power; each
        # (power, cap) ratio equals a single-power, single-cap sweep's
        powers, caps = (-2, 0, 1, 2), (2, 3, 4)
        calls = []
        build = fock.build_B

        def counted(*args, **kwargs):
            calls.append(args[0].N_cap)
            return build(*args, **kwargs)

        monkeypatch.setattr(fock, "build_B", counted)
        reps = fock.verify_B_number_growth(3, eta3, 0.3, powers, caps=caps)
        assert calls == list(caps)
        assert list(reps) == [f"n={n}" for n in powers]
        for n in powers:
            ref = [fock.verify_B_number_growth(3, eta3, 0.3, (n,), caps=(c,))
                   [f"n={n}"]["ratios"][0] for c in caps]
            assert reps[f"n={n}"]["ratios"] == ref

    @given(scales=st.tuples(st.floats(0.05, 0.5), st.floats(0.05, 0.5)))
    @settings(max_examples=10, deadline=None)
    def test_growth_monotone_in_generator_norm(self, eta3, scales):
        lo, hi = sorted(scales)
        rep_lo = fock.verify_B_number_growth(3, eta3, lo, (2,),
                                             caps=(2, 3, 4))["n=2"]
        rep_hi = fock.verify_B_number_growth(3, eta3, hi, (2,),
                                             caps=(2, 3, 4))["n=2"]
        assert rep_hi["sup"] >= rep_lo["sup"] - 1e-12


class TestCubicGenerator:
    def test_antisymmetry_is_exact(self, sp34, nug):
        A = fock.build_A(sp34, *nug)
        assert fock._max_abs(A + A.T) == 0.0

    def test_zero_nu_trivial(self, sp34):
        A = fock.build_A(sp34, np.zeros((3, 3)), np.ones((3, 3)))
        assert A.weights == {}
        assert np.array_equal(dense_exp(fock.exp_generator(A)),
                              np.eye(sp34.dim))

    def test_exponential_is_unitary(self, sp34, nug):
        Q = dense_exp(fock.exp_generator(fock.build_A(sp34, *nug)))
        assert np.max(np.abs(Q.T @ Q - np.eye(sp34.dim))) < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_growth_bounded_over_caps(self, nug, k):
        (reps,) = fock.verify_A_number_growth(3, *nug, (k,),
                                              t_grid=(-1.0, 0.5, 1.0)).values()
        for rep in reps:
            assert np.isfinite(rep["sup"])
            assert max(rep["ratios"]) / min(rep["ratios"]) < 1.6

    def test_generator_built_once_per_cap(self, nug, monkeypatch):
        # A depends on neither t nor k: one build per cap, and each
        # (k, t, cap) ratio equals the one a single-power, single-t,
        # single-cap sweep gives
        powers, t_grid, caps = (-2, 1, 2), (-1.0, 0.0, 0.5), (2, 3)
        calls = []
        build = fock.build_A

        def counted(*args, **kwargs):
            calls.append(args[0].N_cap)
            return build(*args, **kwargs)

        monkeypatch.setattr(fock, "build_A", counted)
        reps = fock.verify_A_number_growth(3, *nug, powers, t_grid=t_grid,
                                           caps=caps)
        assert calls == list(caps)
        assert list(reps) == [f"k={k}" for k in powers]
        norm = np.linalg.norm(nug[0]) * np.linalg.norm(nug[1])
        for k in powers:
            row = reps[f"k={k}"]
            for rep, t in zip(row, t_grid):
                ref = [fock.verify_A_number_growth(
                    3, *nug, (k,), t_grid=(t,), caps=(c,))[f"k={k}"][0]
                    ["ratios"][0] for c in caps]
                assert rep["ratios"] == ref
                assert rep["t_norm"] == pytest.approx(abs(t) * norm)
            assert row[1]["ratios"] == [1.0, 1.0]

    def test_growth_trivial_at_zero_scaling(self, nug):
        ((rep,),) = fock.verify_A_number_growth(3, *nug, (1,),
                                                t_grid=(0.0,)).values()
        assert rep["ratios"] == [1.0] * 5 and rep["t_norm"] == 0.0

    def test_growth_grows_with_t(self, nug):
        ((half, full),) = fock.verify_A_number_growth(
            3, *nug, (1,), t_grid=(0.5, 1.0), caps=(2, 3, 4)).values()
        assert half["sup"] <= full["sup"] + 1e-12

    def test_negative_powers(self, nug):
        (reps,) = fock.verify_A_number_growth(3, *nug, (-1,), t_grid=(1.0,),
                                              caps=(2, 3)).values()
        assert all(np.isfinite(r["sup"]) for r in reps)
        with pytest.raises(InvalidParameterError):
            fock.verify_A_number_growth(3, *nug, (1, 3))

    def test_bad_shapes_rejected(self, sp34):
        with pytest.raises(InvalidParameterError):
            fock.build_A(sp34, np.zeros((2, 2)), np.zeros((3, 3)))


class TestRemainder:
    def test_zero_eta_exact_zero(self, fvec):
        sp = fock.build_fock_space(3, 3)
        Q = fock.exp_generator(fock.build_B(sp, np.zeros((3, 3))))
        d, (ratio,) = fock.compute_d_eta(sp, np.zeros((3, 3)), fvec, Q)
        assert not d.any() and np.linalg.norm(d, 2) == 0.0
        assert ratio == 0.0

    def test_second_order_agreement(self, sp34, eta3, fvec):
        # remainder minus its two-term expansion decays cubically
        lads = [fock.build_ladder(sp34, i) for i in range(3)]

        def bvec(v, dag=False):
            key = "b_dag" if dag else "b"
            terms = [float(v[i]) * getattr(lads[i], key) for i in range(3)]
            return sum(terms[1:], terms[0])

        gaps = []
        for s in (0.2, 0.1, 0.05):
            et = s * eta3
            B = fock.build_B(sp34, et)
            Q = fock.exp_generator(B)
            d, _ = fock.compute_d_eta(sp34, et, fvec, Q)
            bf = bvec(fvec)
            c1 = bf @ B - B @ bf
            d2 = (c1 - bvec(et @ fvec, dag=True)) + 0.5 * (
                (c1 @ B - B @ c1) - bvec(et @ et @ fvec))
            gaps.append(np.linalg.norm(d - dense(d2), 2))
        assert gaps[0] / gaps[1] > 6.0
        assert gaps[1] / gaps[2] > 6.0

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_ratio_times_cap_bounded(self, eta3, fvec, n):
        rep = fock.sweep_d_eta(3, eta3, 0.3, fvec, (n,),
                               caps=(2, 3, 4, 5, 6))[f"n={n}"]
        assert rep["caps"] == [2, 3, 4, 5, 6]
        vals = rep["ratio_times_cap"]
        assert all(np.isfinite(v) and v > 0 for v in vals)
        assert max(vals) / min(vals) < 3.0

    def test_zero_vector_rejected(self, sp34, eta3):
        Q = fock.exp_generator(fock.build_B(sp34, eta3))
        with pytest.raises(InvalidParameterError):
            fock.compute_d_eta(sp34, eta3, np.zeros(3), Q)

    def test_ratio_scales_with_f(self, sp34, eta3, fvec):
        Q = fock.exp_generator(fock.build_B(sp34, 0.3 * eta3))
        _, (r1,) = fock.compute_d_eta(sp34, 0.3 * eta3, fvec, Q)
        _, (r2,) = fock.compute_d_eta(sp34, 0.3 * eta3, 2.0 * fvec, Q)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_powers_share_one_exponential(self, eta3, fvec, monkeypatch):
        # one exponential per cap, read by every power; each (n, cap)
        # report equals a single-power, single-cap sweep's
        powers, caps = (-1, 0, 1), (2, 3, 4)
        calls = []
        exp = fock.exp_generator

        def counted(mat):
            calls.append(mat.space.N_cap)
            return exp(mat)

        monkeypatch.setattr(fock, "exp_generator", counted)
        reps = fock.sweep_d_eta(3, eta3, 0.3, fvec, powers, caps=caps)
        assert calls == list(caps)
        assert list(reps) == [f"n={n}" for n in powers]
        for n in powers:
            assert reps[f"n={n}"]["ratio_times_cap"] == [
                fock.sweep_d_eta(3, eta3, 0.3, fvec, (n,), caps=(c,))
                [f"n={n}"]["ratio_times_cap"][0] for c in caps]


def dense_ladders(space):
    """[a_i], [a*_i], [b_i], [b*_i] as dense arrays, from the basis alone."""
    N = space.N_cap
    a = np.zeros((space.M, space.dim, space.dim))
    b = np.zeros_like(a)
    for i in range(space.M):
        for col, n in enumerate(space.basis):
            if n[i]:
                row = space.index[n[:i] + (n[i] - 1,) + n[i + 1:]]
                a[i, row, col] = np.sqrt(n[i])
                b[i, row, col] = np.sqrt(n[i] * (N - sum(n) + 1) / N)
    return [*a, *a.transpose(0, 2, 1), *b, *b.transpose(0, 2, 1)]



def stage_draws(M, seed):
    """eta_unit, nu, g and f, drawn from the seed as cli.fock_stage draws
    them."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(M, M))
    eta_unit = (e + e.T) / 2.0
    eta_unit /= np.linalg.norm(eta_unit)
    nu = cli._GENERATOR_SCALE * rng.normal(size=(M, M))
    g = 0.5 * rng.normal(size=(M, M))
    return eta_unit, nu, g, rng.normal(size=M)


def dense_ratio(space, Q, n):
    """The (NUM+1)^n growth ratio of a dense Q on the whole space."""
    s = space.number_diag() + 1.0
    w = s ** (-n / 2.0)
    r = w[:, None] * ((Q.T * s ** n) @ Q) * w
    return np.linalg.eigvalsh((r + r.T) / 2.0)[-1]


def dense_remainder(space, eta, f, Q):
    """d = Q^T b(f) Q - b(cosh(eta) f) - b*(sinh(eta) f), dense."""
    from scipy.linalg import coshm, sinhm
    M, lads = space.M, dense_ladders(space)

    def bvec(v, first):
        return sum(v[i] * lads[first + i] for i in range(M))
    return (Q.T @ bvec(f, 2 * M) @ Q - bvec(coshm(eta) @ f, 2 * M)
            - bvec(sinhm(eta) @ f, 3 * M))


class TestGeneratorSymmetries:
    """The exact structure the sweeps run on: A steps NUM by one and B by
    two, so (-1)^NUM flips A, B keeps the NUM parity, (-1)^floor(NUM/2)
    flips B, and the remainder maps each parity to the other."""

    @pytest.mark.parametrize("M", [3, 4])
    def test_exact_zeros(self, M):
        eta_unit, nu, g, f = stage_draws(M, 7)
        for cap in range(2, 7):
            sp = fock.build_fock_space(M, cap)
            num = sp.number_diag()
            parity, half = num % 2, num // 2 % 2
            same = parity[:, None] == parity
            A = fock.build_A(sp, nu, g).toarray()
            B = fock.build_B(sp, 0.3 * eta_unit).toarray()
            d = dense_remainder(sp, 0.3 * eta_unit, f, expm(B))
            assert A.any() and B.any() and d.any()
            assert not A[same].any()
            assert not B[~same].any()
            assert not B[half[:, None] == half].any()
            assert not d[same].any()

    @pytest.mark.parametrize("seed", [7, 11])
    def test_stage_matches_dense_reference(self, seed):
        # the parent route on the whole space: one expm per (t, cap),
        # eigvalsh for every signed power, full-matrix norms of d
        M, caps = 4, (2, 3, 4, 5, 6)
        rep = cli.fock_stage(cli._parse_stage("fock", {
            "modes": M, "ncap": 2, "suites": ["bgrowth", "agrowth", "deta"]}),
            cli._DEFAULT_THRESHOLDS, seed)
        pair, cubic, rem = (rep["growth"][key]["table"]
                            for key in ("pair", "cubic", "remainder"))
        eta_unit, nu, g, f = stage_draws(M, seed)
        eta = cli._GENERATOR_SCALE * eta_unit
        for j, cap in enumerate(caps):
            sp = fock.build_fock_space(M, cap)
            s = sp.number_diag() + 1.0
            QB = expm(fock.build_B(sp, eta).toarray())
            for n in (-2, -1, 0, 1, 2):
                assert pair[f"n={n}"]["ratios"][j] == pytest.approx(
                    dense_ratio(sp, QB, n), rel=1e-13, abs=0)
            A = fock.build_A(sp, nu, g).toarray()
            for i, t in enumerate((-1.0, -0.5, 0.5, 1.0)):
                QA = expm(t * A)
                for k in (-2, -1, 1, 2):
                    assert cubic[f"k={k}"][i]["ratios"][j] == pytest.approx(
                        dense_ratio(sp, QA, k), rel=1e-13, abs=0)
            d = dense_remainder(sp, eta, f, QB)
            d_blocks, _ = fock.compute_d_eta(
                sp, eta, f, fock.exp_generator(fock.build_B(sp, eta)))
            assert np.linalg.norm(d_blocks, 2) == pytest.approx(
                np.linalg.norm(d, 2), rel=1e-13, abs=0)
            for n in (-1, 0, 1):
                weighted = (s ** (n / 2.0))[:, None] * d * s ** (-(n + 3) / 2)
                ratio = np.linalg.norm(weighted / np.linalg.norm(f), 2)
                assert rem[f"n={n}"]["ratio_times_cap"][j] == pytest.approx(
                    ratio * cap, rel=1e-13, abs=0)

    def test_each_distinct_ratio_solved_once(self, nug, eta3, monkeypatch):
        # per cap: A at three distinct |t| (0 among them) times two
        # distinct |k|; B at three distinct |n|
        solved = []
        real = fock._growth_ratio

        def recorded(space, Q, n):
            solved.append((space.N_cap, n))
            return real(space, Q, n)

        monkeypatch.setattr(fock, "_growth_ratio", recorded)
        fock.verify_A_number_growth(3, *nug, (-2, -1, 1, 2),
                                    t_grid=(-1.0, -0.5, 0.5, 1.0, 0.0),
                                    caps=(2, 3))
        assert sorted(solved) == sorted(
            (c, k) for c in (2, 3) for _ in range(3) for k in (2, 1))
        solved.clear()
        fock.verify_B_number_growth(3, eta3, 0.3, (-2, -1, 0, 1, 2),
                                    caps=(2, 3))
        assert sorted(solved) == [(c, n) for c in (2, 3) for n in (0, 1, 2)]

    # (builder, suite, NUM of the two states the spoiling entry joins):
    # one case per sign class, and each entry keeps the NUM parity
    SPOILED = [("build_A", "agrowth", 2), ("build_A", "agrowth", 1),
               ("build_B", "bgrowth", 1), ("build_B", "bgrowth", 2),
               ("build_B", "deta", 1)]

    @staticmethod
    def _spoil(monkeypatch, builder, total):
        """builder plus x at (i, j) and -x at (j, i), for the first two
        states i, j with NUM = total."""
        real = getattr(fock, builder)

        def spoiled(space, *args, **kwargs):
            i, j = space.sector_indices(total)[:2]
            extra = fock.DisplacementMatrix.build([0.25, -0.25], [i, j],
                                                  [j, i], space)
            return real(space, *args, **kwargs) + extra

        monkeypatch.setattr(fock, builder, spoiled)

    @pytest.mark.parametrize("builder,suite,total", SPOILED)
    def test_entry_inside_a_sign_class_fails_the_sweep(
            self, nug, eta3, fvec, monkeypatch, builder, suite, total):
        self._spoil(monkeypatch, builder, total)
        sweep = {"agrowth": lambda: fock.verify_A_number_growth(
                     3, *nug, (1,), caps=(2, 3)),
                 "bgrowth": lambda: fock.verify_B_number_growth(
                     3, eta3, 0.3, (1,), caps=(2, 3)),
                 "deta": lambda: fock.sweep_d_eta(
                     3, eta3, 0.3, fvec, caps=(2, 3))}[suite]
        with pytest.raises(SolverFailureError, match="sign class"):
            sweep()

    @pytest.mark.parametrize("builder,suite,total", SPOILED)
    def test_entry_inside_a_sign_class_exits_2(
            self, tmp_path, capsys, monkeypatch, builder, suite, total):
        import json
        self._spoil(monkeypatch, builder, total)
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"] = {"modes": 3, "ncap": 3, "caps": [2, 3],
                                 "suites": [suite]}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "sign class" in err and "Traceback" not in err

    @pytest.mark.parametrize("spoil", [0, 1])
    def test_non_orthogonal_block_fails_the_certificate(
            self, sp34, eta3, monkeypatch, spoil):
        # B's exponential is two blocks, and the certificate holds each
        calls = []
        real = fock.expm

        def spoiled(A):
            calls.append(len(A))
            Q = real(A)
            return Q * (1.0 + 1e-6) if len(calls) == spoil + 1 else Q

        monkeypatch.setattr(fock, "expm", spoiled)
        with pytest.raises(SolverFailureError, match="unitarity"):
            fock.exp_generator(fock.build_B(sp34, 0.3 * eta3))
        assert sorted(calls) == [13, 22]

class TestDisplacementMatrix:
    @given(M=st.integers(1, 3), cap=st.integers(1, 4),
           start=st.integers(0, 99), seed=st.integers(0, 2**16),
           ops=st.lists(st.tuples(
               st.sampled_from(["@", "+", "-", "*", "/", "T"]),
               st.integers(0, 99), st.floats(0.25, 4.0)),
               min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_words_match_dense_reference(self, M, cap, start, seed, ops):
        """@, +, -, scalar * and /, .T and @ vector on random ladder
        words agree with dense arrays built from the basis; every weight
        off a column's shifted state stays 0, and the largest weight is
        the largest entry."""
        space = fock.build_fock_space(M, cap)
        alg = fock.algebra(space, fock.FLOAT)
        atoms = [*alg.a, *alg.a_dag, *alg.b, *alg.b_dag, alg.num, alg.eye]
        refs = [*dense_ladders(space), np.diag(space.number_diag()),
                np.eye(space.dim)]
        x, ref = atoms[start % len(atoms)], refs[start % len(refs)]
        for op, k, q in ops:
            y, y_ref = atoms[k % len(atoms)], refs[k % len(refs)]
            if op == "@":
                x, ref = x @ y, ref @ y_ref
            elif op == "+":
                x, ref = x + y * q, ref + y_ref * q
            elif op == "-":
                x, ref = x - y, ref - y_ref
            elif op == "*":
                x, ref = q * x, q * ref
            elif op == "/":
                x, ref = x / q, ref / q
            else:
                x, ref = x.T, ref.T
            atol = 1e-13 * max(1.0, np.max(np.abs(ref)))
            np.testing.assert_allclose(x.toarray(), ref, rtol=0, atol=atol)
            assert all(not w[space.shift(d) < 0].any()
                       for d, w in x.weights.items())
            assert fock._max_abs(x) == pytest.approx(np.max(np.abs(ref)),
                                                     abs=atol)
        v = np.random.default_rng(seed).normal(size=space.dim)
        np.testing.assert_allclose(x @ v, ref @ v, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(ref))))

    def test_shift_maps_columns_to_shifted_states(self, sp23):
        t = sp23.shift((1, -1))
        for col, n in enumerate(sp23.basis):
            m = (n[0] + 1, n[1] - 1)
            assert t[col] == sp23.index.get(m, -1)

    def test_zero_has_no_weights(self, sp34):
        alg = sp34.float_algebra
        assert alg.zero.weights == {}
        assert fock._max_abs(alg.zero) == 0.0
        # a @ a* - a* @ a - 1 vanishes below the cap, not on the top sector
        low = fock._comm(alg.a[0], alg.a_dag[0]) - alg.eye
        assert fock._max_abs(low) > 0.0
        assert (alg.a[0] @ alg.a[0] @ alg.a[0] @ alg.a[0]
                @ alg.a[0]).weights == {}


class TestExpmAgainstScipy:
    def test_stage_generators(self, monkeypatch):
        # the 20 exponentials of a (4, 5) stage, dimensions 4 to 210
        gens = []
        real = fock.expm

        def recorded(A):
            gens.append(A.copy())
            return real(A)

        monkeypatch.setattr(fock, "expm", recorded)
        cli.fock_stage(cli._parse_stage("fock", {"modes": 4, "ncap": 5}),
                       cli._DEFAULT_THRESHOLDS, 7)
        assert len(gens) == 20
        for A in gens:
            assert np.abs(real(A) - expm(A)).max() <= 1e-13

    # one 1-norm band per Pade degree 3, 5, 7, 9, 13, then the squaring
    # branch above theta_13
    EDGES = [1e-4, *fock._THETA.values(), 200.0]
    BANDS = list(zip(EDGES[:-1], EDGES[1:]))

    @pytest.mark.parametrize("band", range(len(BANDS)))
    @given(dim=st.integers(1, 40), frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_antisymmetric_by_norm_band(self, band, dim, frac, seed):
        lo, hi = self.BANDS[band]
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))
        A -= A.T
        norm = np.abs(A).sum(axis=0).max()
        if norm == 0.0:
            return
        A *= lo * (hi / lo) ** frac / norm
        Q = fock.expm(A)
        # both are unitary to roundoff; squaring compounds it per halving
        assert np.abs(Q - expm(A)).max() <= 1e-13 * max(1.0, hi)
        assert np.abs(Q.T @ Q - np.eye(dim)).max() <= 1e-13 * max(1.0, hi)

    # the degree-13 branch on A, then on A / 2^s with s = 1 or 2
    @pytest.mark.parametrize("band", [(fock._THETA[9], fock._THETA[13]),
                                      (fock._THETA[13], 4 * fock._THETA[13])],
                             ids=["unscaled", "scaled"])
    @given(dim=st.integers(1, 40), frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_degree_13_on_general_matrices(self, band, dim, frac, seed):
        # no symmetry, so no unitarity: the bound is relative to the
        # largest entry (600 draws per band reached 1.6e-12)
        lo, hi = band
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((dim, dim))
        A *= lo * (hi / lo) ** frac / np.abs(A).sum(axis=0).max()
        want = expm(A)
        assert np.abs(fock.expm(A) - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("norm, products", [
        (2.0, 5),    # degree 9: A^2, A^4, A^6, A^8 and A U
        (4.0, 6),    # degree 13: A^2, A^4, A^6, two by A^6 and A U
        (20.0, 8)])  # degree 13 on A / 4, squared twice
    def test_matrix_products_per_degree(self, norm, products):
        count = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                count.append(1)
                return super().__matmul__(other)

        A = np.random.default_rng(1).standard_normal((6, 6))
        A -= A.T
        A *= norm / np.abs(A).sum(axis=0).max()
        Q = fock.expm(A.view(Counted))
        assert len(count) == products
        assert np.abs(np.asarray(Q) - expm(A)).max() <= 1e-13


class TestExponentialGuards:
    def test_dimension_cap(self):
        sp = fock.build_fock_space(7, 8)
        assert sp.dim > 5000
        with pytest.raises(ResourceLimitError):
            fock.exp_generator(fock.DisplacementMatrix(sp, {}))

    def test_non_antisymmetric_rejected(self, sp23):
        with pytest.raises(InvalidParameterError):
            fock.exp_generator(sp23.float_algebra.num)


class RefRad(fockexact.Rad):
    """fockexact.Rad with per-entry ring arithmetic, for the reference."""

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, 0) + c
        return RefRad(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefRad({d: c * other for d, c in self.terms.items()})
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                s, d = fockexact._split_square(d1 * d2)
                out[d] = out.get(d, 0) + c1 * c2 * s
        return RefRad(out)

    def __eq__(self, other):
        return (self - other).is_zero

    def __float__(self):
        return float(sum(float(c) * d ** 0.5 for d, c in self.terms.items()))


class RefMatrix:
    """Per-entry reference over RefRad: dict (row, col) -> RefRad, every
    entry held as its own Fraction coefficients, no shared scale."""

    def __init__(self, entries):
        self.entries = {k: v for k, v in entries.items() if not v.is_zero}

    @classmethod
    def build(cls, vals, rows, cols, shape):
        return cls({(r, c): v if isinstance(v, RefRad) else RefRad.of(v)
                    for v, r, c in zip(vals, rows, cols)})

    @property
    def T(self):
        return RefMatrix({(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out[k] + v if k in out else v
        return RefMatrix(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, c):
        return RefMatrix({k: v * c for k, v in self.entries.items()})

    def __matmul__(self, other):
        out = {}
        for (r, k), va in self.entries.items():
            for (k2, c), vb in other.entries.items():
                if k2 == k:
                    prod = va * vb
                    out[r, c] = out[r, c] + prod if (r, c) in out else prod
        return RefMatrix(out)


REF = fock.NumberSystem(sqrt=RefRad.sqrt, matrix=RefMatrix.build)


def rad_terms(mat):
    """(row, col, d) -> Fraction coefficient of sqrt(d), from either a
    RadMatrix (scale times its int numerators) or a RefMatrix."""
    if isinstance(mat, RefMatrix):
        return {(r, c, d): q for (r, c), v in mat.entries.items()
                for d, q in v.terms.items()}
    return {k: Fraction(mat.num, mat.den) * v for k, v in mat.entries.items()}


def rad_entries(mat):
    """(row, col) -> RefRad of a RadMatrix."""
    out = {}
    for (r, c, d), q in rad_terms(mat).items():
        out[r, c] = out.get((r, c), RefRad()) + RefRad({d: q})
    return out


# every fock suite with an exact-mode zero test
EXACT_SUITES = list(cli._EXACT_IDS)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


class TestExactArithmetic:
    def test_radical_normalization(self):
        r = RefRad.sqrt(8)
        assert r.terms == {2: Fraction(2)}
        assert RefRad.sqrt(Fraction(1, 2)).terms == {
            2: Fraction(1, 2)}
        prod = RefRad.sqrt(2) * RefRad.sqrt(3)
        assert prod.terms == {6: Fraction(1)}
        sq = RefRad.sqrt(2) * RefRad.sqrt(2)
        assert sq == RefRad.of(2)

    def test_cancellation_is_exact(self):
        a = RefRad.sqrt(12)
        b = RefRad.sqrt(3) * 2
        assert (a - b).is_zero

    def test_float_view_matches(self):
        assert float(RefRad.sqrt(2)) == pytest.approx(np.sqrt(2))

    @given(M=st.integers(1, 3), cap=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_exact_ladders_match_float(self, M, cap):
        space = fock.build_fock_space(M, cap)
        exact = fock.algebra(space, fockexact.EXACT)
        for i in range(M):
            lad = fock.build_ladder(space, i)
            for name in ("a", "a_dag", "b", "b_dag"):
                want = dense(getattr(lad, name))
                got = np.zeros_like(want)
                for (r, c), v in rad_entries(
                        getattr(exact, name)[i]).items():
                    got[r, c] = float(v)
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @given(M=st.integers(1, 2), cap=st.integers(1, 5),
           start=st.integers(0, 9),
           ops=st.lists(st.tuples(
               st.sampled_from(["@", "+", "-", "T", "q", "r"]),
               st.integers(0, 9), small_fractions,
               st.fractions(min_value=0, max_value=8, max_denominator=5),
               small_fractions), min_size=1, max_size=7))
    # b_0 b_0 at cap 5 multiplies sqrt(10) by sqrt(5), radicands with a
    # common factor
    @example(M=2, cap=5, start=4, ops=[("@", 4, Fraction(1), Fraction(1),
                                        Fraction(0))])
    @settings(max_examples=60, deadline=None)
    def test_ring_matches_per_entry_reference(self, M, cap, start, ops):
        """@, +, -, .T and * by a Fraction or a Rad on random ladder
        words agree exactly with the per-entry Fraction/Rad reference,
        and every result is in normal form. At cap 5, b has the radicands
        5, 10, 15 and 30, so products meet a common factor."""
        space = fock.build_fock_space(M, cap)
        atoms = []
        for ns in (fockexact.EXACT, REF):
            alg = fock.algebra(space, ns)
            atoms.append([*alg.a, *alg.a_dag, *alg.b, *alg.b_dag,
                          alg.num, alg.eye])
        x, ref = (a[start % len(a)] for a in atoms)
        for op, k, q, radicand, q2 in ops:
            y, y_ref = (a[k % len(a)] for a in atoms)
            rad = RefRad.sqrt(radicand) * q + RefRad.of(q2)
            if op == "@":
                x, ref = x @ y, ref @ y_ref
            elif op == "+":
                x, ref = x + y * q, ref + y_ref * q
            elif op == "-":
                x, ref = x - y * rad, ref - y_ref * rad
            elif op == "T":
                x, ref = x.T, ref.T
            elif op == "q":
                x, ref = x * q, ref * q
            else:
                x, ref = x * rad, ref * rad
            assert rad_terms(x) == rad_terms(ref)
            assert x.is_zero == (not ref.entries)
            assert all(type(v) is int and v for v in x.entries.values())
            assert gcd(*x.entries.values()) == (1 if x.entries else 0)
            assert x.den > 0 and gcd(x.num, x.den) == 1
            assert x.num or not x.entries

    @pytest.mark.parametrize("M,cap", [(2, 2), (3, 3)])
    def test_builders_match_per_entry_reference(self, M, cap):
        space = fock.build_fock_space(M, cap)
        # no coupling rounds to zero, so no piece is empty
        coeff = fockexact.make_exact_coefficients(M, seed=4)
        exact = fock.algebra(space, fockexact.EXACT)
        ref = fock.algebra(space, REF)
        got = {"H": fock._hn(exact, coeff), **fock._ln(exact, coeff)}
        want = {"H": fock._hn(ref, coeff), **fock._ln(ref, coeff)}
        for name in want:
            assert want[name].entries, name
            assert rad_terms(got[name]) == rad_terms(want[name]), name

    def test_small_coupling_keeps_its_piece(self):
        # at M = 2, seed 3, the only cubic coupling v[1,1,1,0] lies below
        # 1/12, which limit_denominator(6) alone rounds to 0
        coeff = fockexact.make_exact_coefficients(2, seed=3)
        alg = fock.algebra(fock.build_fock_space(2, 2), fockexact.EXACT)
        assert not fock._ln(alg, coeff)["L3"].is_zero

    @pytest.mark.parametrize("seed", [7, 11])
    def test_exact_coefficient_zero_where_float_is(self, seed):
        floats = fock.make_random_coefficients(4, seed=seed)
        exact = fockexact.make_exact_coefficients(4, seed=seed)
        for name in ("h", "v", "eta", "nu", "g"):
            x, q = getattr(floats, name), getattr(exact, name)
            assert np.array_equal(x == 0, q == 0), name
            assert np.array_equal(np.sign(x), np.sign(q.astype(float))), name

    def test_non_identities_are_not_zero(self):
        space = fock.build_fock_space(2, 3)
        alg = fock.algebra(space, fockexact.EXACT)
        # [a_0, a*_0] = 1 fails on the top sector of the truncation
        assert not (fock._comm(alg.a[0], alg.a_dag[0]) - alg.eye).is_zero
        lhs = fock._comm(alg.b[0], alg.num)
        assert (lhs - alg.b[0]).is_zero
        for key, v in lhs.entries.items():
            bumped = fockexact.RadMatrix({**lhs.entries, key: v + 1},
                                         lhs.num, lhs.den)
            assert not (bumped - alg.b[0]).is_zero, key

    def test_float_scalars_rejected(self):
        alg = fock.algebra(fock.build_fock_space(1, 2), fockexact.EXACT)
        with pytest.raises(TypeError):
            alg.eye * 0.5

    @given(M=st.integers(1, 3), cap=st.integers(1, 4), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_one_identity_list_for_both_number_systems(self, M, cap, seed):
        space = fock.build_fock_space(M, cap)
        floats = fock.identity_defects(
            fock.algebra(space, fock.FLOAT),
            fock.make_random_coefficients(M, seed=seed))
        exacts = fock.identity_defects(
            fock.algebra(space, fockexact.EXACT),
            fockexact.make_exact_coefficients(M, seed=seed))
        assert list(floats) == list(exacts)
        for suite in floats:
            float_defects, exact_defects = (list(floats[suite]),
                                            list(exacts[suite]))
            assert len(float_defects) == len(exact_defects), suite
            for d in float_defects:
                assert fock._max_abs(d) <= 1e-12, suite
            for d in exact_defects:
                assert d.is_zero, suite

    @pytest.mark.parametrize("M,cap", [(1, 1), (2, 3), (3, 3), (3, 4)])
    def test_all_identities_exactly_zero(self, M, cap):
        res = fockexact.verify_exact_identities(
            fock.build_fock_space(M, cap), 7, EXACT_SUITES)
        assert res == dict.fromkeys(EXACT_SUITES, True), res

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            fockexact.verify_exact_identities(
                fock.build_fock_space(6, 6), 0, EXACT_SUITES)

    def test_exact_suites_are_the_identity_suites(self):
        # the fock stage runs exact mode for the suites whose entry has an
        # -exact identity, and those are the suites identity_defects keys
        alg = fock.algebra(fock.build_fock_space(1, 1), fock.FLOAT)
        suites = fock.identity_defects(alg, fock.make_random_coefficients(1))
        assert EXACT_SUITES == list(suites)

    def test_each_suite_runs_its_group_alone(self, monkeypatch):
        # a suite's defect generator starts only when read, so exact mode
        # on one suite forms that suite's defects and no other's
        groups = {"ccr": "ladder_defects", "un": "un_defects",
                  "ln": "_energy_defects", "bgrowth": "generator_defects"}
        ran = []
        for name in groups.values():
            def recording(*args, real=getattr(fock, name), name=name):
                ran.append(name)
                yield from real(*args)
            monkeypatch.setattr(fock, name, recording)
        space = fock.build_fock_space(2, 3)
        for suite, name in groups.items():
            ran.clear()
            assert fockexact.verify_exact_identities(space, 7, [suite]) == {
                suite: True}
            assert ran == [name], suite

    def test_l4_forms_only_the_pairs_it_reads(self, monkeypatch):
        """L4's v has its condensate entries zeroed, so no coefficient
        reads the 4 annihilation pairs that hold mode 0: at 4 modes _ln
        forms 6 of the 10 pair products."""
        alg = fock.algebra(fock.build_fock_space(4, 2), fock.FLOAT)
        annihilators, pairs = {id(x) for x in alg.a}, []
        matmul = fock.DisplacementMatrix.__matmul__

        def counted(x, y):
            if id(x) in annihilators and id(y) in annihilators:
                pairs.append((x, y))
            return matmul(x, y)

        monkeypatch.setattr(fock.DisplacementMatrix, "__matmul__", counted)
        fock._ln(alg, fock.make_random_coefficients(4, seed=7))
        assert len(pairs) == 6

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_two_body_over_unordered_pairs(self, M, monkeypatch):
        """For a v with no symmetry, _two_body equals the ordered sum
        (1/2) sum v_ijkl a*_i a*_j a_l a_k: exactly in the radical ring,
        to 1e-13 in floats, from M(M+1)/2 annihilation-pair products."""
        space = fock.build_fock_space(M, 3 if M < 4 else 2)
        ints = np.random.default_rng(M).integers(-6, 7, size=(M,) * 4)
        v = np.vectorize(lambda n: Fraction(int(n), 5), otypes=[object])(ints)
        ref = fock.algebra(space, REF)
        want = sum(((ref.a_dag[i] @ ref.a_dag[j] @ ref.a[l] @ ref.a[k])
                    * (v[i, j, k, l] / 2)
                    for i, j, k, l in np.ndindex(v.shape)), ref.zero)
        alg = fock.algebra(space, fockexact.EXACT)
        annihilators, pairs = {id(x) for x in alg.a}, []
        matmul = fockexact.RadMatrix.__matmul__

        def counted(x, y):
            if id(x) in annihilators and id(y) in annihilators:
                pairs.append((x, y))
            return matmul(x, y)

        monkeypatch.setattr(fockexact.RadMatrix, "__matmul__", counted)
        assert rad_terms(fock._two_body(alg, v)) == rad_terms(want)
        assert len(pairs) == M * (M + 1) // 2
        a = [dense(fock.build_ladder(space, i).a) for i in range(M)]
        dense_ref = sum(float(v[i, j, k, l]) / 2
                        * (a[i].T @ a[j].T @ a[l] @ a[k])
                        for i, j, k, l in np.ndindex(v.shape))
        got = dense(fock._two_body(space.float_algebra, v.astype(float)))
        assert np.max(np.abs(got - dense_ref)) <= 1e-13 * np.max(
            np.abs(dense_ref))
