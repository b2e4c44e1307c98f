"""End-to-end acceptance: eleven numbered criteria, one test each.

Each test prints one [PASS]/[FAIL] line naming its criterion (visible
with -s; under plain -v the test name itself is the per-criterion line).
Shared fixtures carry their own wall-clock timings so the runtime
budgets are asserted where the work happens. Tolerances are stated
inline and match the module-level suites; nothing here is loosened
relative to them.
"""

import json
import time

import numpy as np
import pytest

from gpregime import cli, fockexact
from gpregime import fock as fk
from gpregime import kernels as kn
from gpregime.gp import fourier_decay, hgp_spectrum, minimize_gp, verify_decay
from gpregime.potentials import make_square_well, make_trap
from gpregime.scattering import (
    fourier_w,
    solve_neumann,
    solve_zero_energy,
    verify_lemma_scattering,
)

A0_EXACT = 1.0 - np.tanh(1.0)
SWEEP_NL = (25.0, 50.0, 100.0, 200.0, 400.0)
ELL = 0.5


def _verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _loglog_slope(x, y):
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)),
                            1)[0])


@pytest.fixture(scope="module")
def well():
    return make_square_well(2.0, 1.0, 512)


@pytest.fixture(scope="module")
def ref(well):
    return solve_zero_energy(well)


@pytest.fixture(scope="module")
def neumann_sweep(well, ref):
    t0 = time.perf_counter()
    sols = [solve_neumann(well, ELL, nl / ELL) for nl in SWEEP_NL]
    reps = [verify_lemma_scattering(s, ref) for s in sols]
    return sols, reps, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gp_states():
    trap = make_trap("harmonic", 800, 8.0)
    t0 = time.perf_counter()
    free = minimize_gp(trap, 0.0)
    inter = minimize_gp(trap, A0_EXACT)
    return free, inter, time.perf_counter() - t0


@pytest.fixture(scope="module")
def kernel_sweep(well, gp_states):
    _, inter, _ = gp_states
    t0 = time.perf_counter()
    sweep = kn.sweep_kernels(well, inter, alpha=4.0, beta=2.0,
                             ells=(0.5, 0.25, 0.125))
    return sweep, time.perf_counter() - t0


def test_criterion_01_scattering_length_oracle(well):
    t0 = time.perf_counter()
    sol = solve_zero_energy(well)
    elapsed = time.perf_counter() - t0
    rel_a0 = abs(sol.a0 - A0_EXACT) / A0_EXACT
    rel_id = abs(sol.a0_from_integral - sol.a0) / sol.a0
    ok = rel_a0 <= 1e-6 and rel_id <= 1e-6 and elapsed < 1.0
    _verdict(1, ok,
             f"a0 rel err {rel_a0:.2e}, integral identity rel err "
             f"{rel_id:.2e}, {elapsed:.2f} s")


def test_criterion_02_eigenvalue_rate(ref, neumann_sweep):
    sols, _, elapsed = neumann_sweep
    big_l = [s.radius for s in sols]
    dev = [abs(s.lambda_ell * s.radius ** 3 / (3.0 * ref.a0) - 1.0)
           for s in sols]
    slope = _loglog_slope(big_l, dev)
    ok = abs(slope - (-1.0)) <= 0.15 and elapsed < 2.5
    _verdict(2, ok, f"deviation slope {slope:.3f} (want -1.0 +- 0.15), "
                    f"sweep {elapsed:.1f} s")


def test_criterion_03_uniformity_dip_and_fourier(well, ref, neumann_sweep):
    sols, reps, _ = neumann_sweep
    weighted = [r["ii_weighted"] for r in reps]
    ratio = max(weighted) / min(weighted)
    dip_ok = all(
        abs(s.int_w / s.radius ** 2 - 0.4 * np.pi * ref.a0)
        <= 5.0 * ref.a0 ** 2 / s.radius for s in sols)
    mid = solve_neumann(well, ELL, 100.0 / ELL, n_pts=4096)
    fine = solve_neumann(well, ELL, 100.0 / ELL, n_pts=8192)
    s_mid = fourier_w(mid)
    s_fine = fourier_w(fine)
    stab = abs(s_fine / s_mid - 1.0)
    ok = ratio < 3.0 and dip_ok and stab <= 0.10
    _verdict(3, ok,
             f"integral uniformity max/min {ratio:.3f} (< 3), dip moment "
             f"bound {'holds' if dip_ok else 'violated'}, sup p^2|w_hat| "
             f"refinement shift {stab:.2%} (<= 10%)")


def test_criterion_04_gp_oracle(gp_states):
    free, inter, elapsed = gp_states
    e_err = abs(free.energy["total"] - 3.0)
    r = free.grid
    gauss = np.pi ** -0.75 * np.exp(-r ** 2 / 2.0)
    diff2 = (free.phi - gauss) ** 2 * r ** 2
    l2_err = np.sqrt(4.0 * np.pi * np.trapezoid(diff2, r))
    mult = abs(inter.eps_gp - (inter.energy["total"]
                               + 4.0 * np.pi * inter.a0 * inter.quartic_norm))
    ok = (e_err <= 1e-4 and l2_err <= 1e-4 and inter.residual <= 1e-8
          and mult <= 1e-10 and elapsed < 30.0)
    _verdict(4, ok,
             f"free energy err {e_err:.2e}, Gaussian L2 err {l2_err:.2e}, "
             f"residual {inter.residual:.2e}, multiplier defect {mult:.2e}, "
             f"{elapsed:.1f} s")


def test_criterion_05_spectral_gap(gp_states):
    free, inter, _ = gp_states
    spec = hgp_spectrum(inter)
    zero_ok = abs(spec["lambda0"]) <= 1e-6 * spec["lambda1"]
    overlap_ok = spec["ground_overlap"] >= 1.0 - 1e-8
    gap_ok = spec["lambda1"] > 0.0
    free_gap = hgp_spectrum(free)["gap"]
    osc_ok = abs(free_gap - 4.0) <= 1e-3
    ok = zero_ok and overlap_ok and gap_ok and osc_ok
    _verdict(5, ok,
             f"zero mode {spec['lambda0']:.2e} vs gap {spec['lambda1']:.4f}, "
             f"overlap defect {1.0 - spec['ground_overlap']:.2e}, "
             f"free s-wave gap {free_gap:.5f} (want 4 +- 1e-3)")


def test_criterion_06_decay_constants(gp_states):
    _, inter, _ = gp_states
    finite = True
    for nu in (1.0, 2.0, 4.0):
        rep = verify_decay(inter, nu)
        finite = finite and not rep["divergent"] and all(
            np.isfinite(rep[c]) for c in ("c_phi", "c_dphi", "c_lap"))
    fd = fourier_decay(inter)["sup_weighted"]
    fine = minimize_gp(make_trap("harmonic", 1600, 8.0), A0_EXACT)
    stab = abs(fourier_decay(fine)["sup_weighted"] / fd - 1.0)
    ok = finite and np.isfinite(fd) and stab <= 0.10
    _verdict(6, ok,
             f"decay constants finite for nu in (1, 2, 4): {finite}, "
             f"sup |phi_hat|(1+|p|)^4 = {fd:.4f}, refinement "
             f"shift {stab:.2%} (<= 10%)")


def test_criterion_07_kernel_scaling(kernel_sweep):
    sweep, elapsed = kernel_sweep

    def series(key):
        return [r[key] for r in sweep]

    ells = series("ell")
    eta_slope = _loglog_slope(ells, series("eta_l2"))
    nu_slope = _loglog_slope(ells, series("nu_l2"))
    p_slope = _loglog_slope(ells, series("p_norm"))
    r_slope = _loglog_slope(ells, series("r_norm"))
    grads = [g / np.sqrt(row["N"]) for g, row in
             zip(series("eta_grad_l2"), sweep)]
    grad_spread = max(grads) / min(grads) - 1.0
    l1_defect = max(abs(v - 1.0) for v in series("gauss_l1"))
    l2_slope = _loglog_slope(ells, series("gauss_l2"))
    ok = (abs(eta_slope - 2.0) <= 0.2 and abs(nu_slope - 2.0) <= 0.2
          and p_slope >= 4.0 - 0.3 and r_slope >= 4.0 - 0.3
          and grad_spread <= 0.2 and l1_defect <= 1e-8
          and abs(l2_slope - (-3.0)) <= 0.05 and elapsed < 10.0)
    _verdict(7, ok,
             f"slopes eta {eta_slope:.3f}, nu {nu_slope:.3f}, p {p_slope:.2f},"
             f" r {r_slope:.2f}, grad spread {grad_spread:.2%}, lowpass L1 "
             f"defect {l1_defect:.1e}, L2 slope {l2_slope:.3f}, "
             f"{elapsed:.1f} s")


def test_criterion_08_fock_exact_identities():
    worst = 0.0
    for m, cap in ((2, 3), (3, 4)):
        space = fk.build_fock_space(m, cap)
        lads = [fk.build_ladder(space, i) for i in range(m)]
        low = [j for j, occ in enumerate(space.basis) if sum(occ) < cap]
        eye = np.eye(space.dim)
        for i in range(m):
            for j in range(m):
                comm = (lads[i].a @ lads[j].a_dag
                        - lads[j].a_dag @ lads[i].a).toarray()
                delta = eye if i == j else 0.0 * eye
                worst = max(worst, np.max(np.abs((comm - delta)[:, low])))
        worst = max(worst, fk.verify_b_commutators(space))
        worst = max(worst, fk.verify_un(space))
        P = fk.gamma_projector(space)
        worst = max(worst, np.max(np.abs((P @ P - P).toarray())))
    exact_all = True
    for m, cap in ((2, 3), (3, 3), (3, 4)):
        res = fockexact.verify_exact_identities(
            fk.build_fock_space(m, cap), 0, list(cli._EXACT_IDS))
        exact_all = exact_all and all(res.values())
    ok = worst <= 1e-12 and exact_all
    _verdict(8, ok, f"float-mode max deviation {worst:.2e} (<= 1e-12), "
                    f"exact-rational identities all zero: {exact_all}")


def test_criterion_09_excitation_energy_identity():
    worst = 0.0
    for m, cap in ((2, 3), (3, 3), (3, 4)):
        space = fk.build_fock_space(m, cap)
        coeff = fk.make_random_coefficients(m, seed=0)
        worst = max(worst, fk.verify_energy_identity(coeff, space, seed=0))
    ok = worst <= 1e-10
    _verdict(9, ok, f"max relative defect {worst:.2e} over 20 states "
                    f"at (2,3), (3,3), (3,4)")


def test_criterion_10_growth_and_remainder():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(3, 3))
    eta_unit = (e + e.T) / 2.0
    eta_unit /= np.linalg.norm(eta_unit)
    nu = 0.3 * rng.normal(size=(3, 3))
    g = 0.5 * rng.normal(size=(3, 3))
    fvec = np.array([0.7, -0.4, 0.2])

    pair_sup = max(rep["sup"] for rep in fk.verify_B_number_growth(
        3, eta_unit, 0.3, (-2, -1, 0, 1, 2)).values())
    cubic_sup = max(rep["sup"] for row in fk.verify_A_number_growth(
        3, nu, g, (1, 2)).values() for rep in row)
    common_ok = pair_sup <= 2.5 and cubic_sup <= 2.5

    scaled = [x for row in fk.sweep_d_eta(
        3, eta_unit, 0.3, fvec, (-1, 0, 1)).values()
        for x in row["ratio_times_cap"]]
    rem_ok = max(scaled) <= 1.0

    zero_growth = fk.verify_B_number_growth(3, np.zeros((3, 3)), 1.0, (2,))
    space = fk.build_fock_space(3, 4)
    zero_Q = fk.exp_generator(fk.build_B(space, np.zeros((3, 3))))
    d, (d_ratio,) = fk.compute_d_eta(space, np.zeros((3, 3)), fvec, zero_Q)
    trivial_ok = (zero_growth["n=2"]["ratios"] == [1.0] * 5
                  and not d.any() and d_ratio == 0.0)

    ok = common_ok and rem_ok and trivial_ok
    _verdict(10, ok,
             f"growth sup {max(pair_sup, cubic_sup):.3f} (<= 2.5 across "
             f"caps 2..6), d ratio x cap sup {max(scaled):.3f} (<= 1), "
             f"eta = 0 exact: {trivial_ok}")


def test_criterion_11_determinism(tmp_path):
    raw = cli.default_config()
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(raw))
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfgp),
                         "--out", str(out)]) == 0
        outs.append(out)
    a = json.loads((outs[0] / "bundle.json").read_text())
    b = json.loads((outs[1] / "bundle.json").read_text())
    a.pop("timestamp"), b.pop("timestamp")
    bundles_equal = json.dumps(a, sort_keys=True) == json.dumps(
        b, sort_keys=True)
    artifacts_equal = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("scatter.json", "gp.json", "kernels.json", "fock.json",
                  "bundle.csv", "scatter.csv", "kernels.csv", "fock.csv"))
    ok = bundles_equal and artifacts_equal
    _verdict(11, ok,
             f"bundle identical modulo timestamp: {bundles_equal}, "
             f"all sibling artifacts byte-identical: {artifacts_equal}")
