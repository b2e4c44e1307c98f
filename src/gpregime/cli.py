"""Batch driver: stage subcommands, pipeline runs, slope fits, reports.

Each stage of the pipeline (scatter, gp, kernels, fock) can run as its
own subcommand against JSON inputs, or chained by `run` under a single
config with a fixed seed. Reports are JSON with sorted keys plus CSV
tables, so identical configs produce byte-identical artifacts apart
from the bundle timestamp. Pass/fail thresholds live in the config
with the documented defaults below, never in the assembly code.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np

from . import fock, fockexact, kernels
from .errors import (
    ConfigError,
    GPRegimeError,
    InvalidParameterError,
)
from .gp import fourier_decay, hgp_spectrum, minimize_gp, verify_decay
from .potentials import (
    InteractionPotential,
    TrapPotential,
    make_square_well,
    make_trap,
)
from .scattering import (
    LemmaScatteringReport,
    solve_neumann,
    solve_zero_energy,
    verify_lemma_scattering,
)

_SCHEMA_VERSION = 1
_STAGES = ("scatter", "gp", "kernels", "fock")
_FOCK_SUITES = ("ccr", "un", "ln", "bgrowth", "agrowth", "deta")

# Documented defaults; every threshold can be overridden in the config.
_DEFAULT_THRESHOLDS = {
    "a0_identity_rtol": 1e-6,
    "eigenvalue_rate_slope": -1.0,
    "eigenvalue_rate_tol": 0.15,
    "integral_uniformity_ratio": 3.0,
    "dip_volume_margin": 5.0,
    "fourier_stability": 0.10,
    "gp_residual": 1e-8,
    "multiplier_identity": 1e-10,
    "gap_zero_mode": 1e-6,
    "gap_overlap_defect": 1e-8,
    "decay_orders": [1, 2, 4],
    "pair_slope_tol": 0.2,
    "remainder_slope_slack": 0.3,
    "grad_stability": 0.2,
    "lowpass_l1_tol": 1e-8,
    "lowpass_l2_slope_tol": 0.05,
    "fock_float_tol": 1e-12,
    "energy_identity_tol": 1e-10,
    "growth_spread": 1.5,
    "remainder_spread": 3.0,
}

_STAGE_KEYS = {
    "scatter": {"potential", "ell", "n", "sweep_nl", "n_pts"},
    "gp": {"trap", "a0", "tol"},
    "kernels": {"alpha", "beta", "ells", "tol"},
    "fock": {"modes", "ncap", "suites", "caps"},
}
_TOP_KEYS = {"schema_version", "seed", "pipeline", "stages", "thresholds"}


def thread_count():
    """Worker cap from GPREGIME_THREADS, defaulting to sequential."""
    raw = os.environ.get("GPREGIME_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"GPREGIME_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ConfigError(f"GPREGIME_THREADS must be positive, got {n}")
    return n


def _pooled_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

def fit_slope(series, expected, tol):
    """Least-squares slope of log y on log x with a trivial-pass escape.

    series is an iterable of (x, y) pairs with positive x. A series
    whose y values are identically zero cannot carry a scaling law, so
    it returns the expected slope with pass and a trivial flag instead
    of failing on log(0).
    """
    pts = [(float(x), float(y)) for x, y in series]
    if len(pts) < 3:
        raise InvalidParameterError(
            f"slope fit needs at least 3 points, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.abs(np.array([p[1] for p in pts]))
    if np.any(x <= 0.0):
        raise InvalidParameterError("slope fit needs positive abscissae")
    if np.all(y == 0.0):
        return {"slope": float(expected), "pass": True, "trivial": True}
    if np.any(y == 0.0):
        raise InvalidParameterError(
            "series mixes zero and nonzero values; no common power law")
    slope = float(np.polyfit(np.log(x), np.log(y), 1)[0])
    return {"slope": slope, "pass": bool(abs(slope - expected) <= tol),
            "trivial": False}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration; raw holds the exact input."""

    raw: dict = field(repr=False)

    @property
    def seed(self):
        return int(self.raw["seed"])

    @property
    def pipeline(self):
        return tuple(self.raw["pipeline"])

    def stage_params(self, stage):
        return deepcopy(self.raw.get("stages", {}).get(stage, {}))

    @property
    def thresholds(self):
        out = deepcopy(_DEFAULT_THRESHOLDS)
        out.update(self.raw.get("thresholds", {}))
        return out


def default_config():
    """Full-pipeline config: canonical well, harmonic trap, default sweep."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "seed": 7,
        "pipeline": ["scatter", "gp", "kernels", "fock"],
        "stages": {
            "scatter": {
                "potential": {"kind": "square_well",
                              "parameters": {"V0": 2.0, "R": 1.0},
                              "grid": {"n_pts": 512}},
                "ell": 0.5,
                "n": 64,
                "sweep_nl": [25.0, 50.0, 100.0, 200.0, 400.0],
            },
            "gp": {
                "trap": {"kind": "harmonic",
                         "parameters": {"r_max": 8.0},
                         "grid": {"n_pts": 800}},
                "a0": "from:scatter",
                "tol": 1e-11,
            },
            "kernels": {"alpha": 4.0, "beta": 2.0,
                        "ells": [0.5, 0.25, 0.125]},
            "fock": {"modes": 3, "ncap": 4,
                     "suites": list(_FOCK_SUITES)},
        },
        "thresholds": deepcopy(_DEFAULT_THRESHOLDS),
    }


def parse_config(data):
    """Validate a config dict; unknown keys and DAG gaps are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if data.get("schema_version") != _SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {_SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}")
    seed = data.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    pipeline = data.get("pipeline")
    if not isinstance(pipeline, list) or not pipeline:
        raise ConfigError("pipeline must be a non-empty list of stages")
    for stage in pipeline:
        if stage not in _STAGES:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
    if len(set(pipeline)) != len(pipeline):
        raise ConfigError("pipeline stages must be unique")
    stages = data.get("stages", {})
    if not isinstance(stages, dict):
        raise ConfigError("stages must be an object")
    for stage, params in stages.items():
        if stage not in _STAGES:
            raise ConfigError(f"unknown stage {stage!r} in stages")
        if not isinstance(params, dict):
            raise ConfigError(f"stage {stage!r} parameters must be an object")
        for key in params:
            if key not in _STAGE_KEYS[stage]:
                raise ConfigError(
                    f"unknown key {key!r} in stage {stage!r}")
    if "fock" in stages:
        _fock_params(stages["fock"])
    thresholds = data.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError("thresholds must be an object")
    for key in thresholds:
        if key not in _DEFAULT_THRESHOLDS:
            raise ConfigError(f"unknown threshold {key!r}")
    # DAG: every stage must find its upstream outputs earlier in the list
    seen = set()
    for stage in pipeline:
        if stage == "kernels":
            for need in ("scatter", "gp"):
                if need not in seen:
                    raise ConfigError(
                        f"stage 'kernels' references '{need}' which does "
                        "not run before it")
        if stage == "gp":
            a0 = stages.get("gp", {}).get("a0", "from:scatter")
            if a0 == "from:scatter" and "scatter" not in seen:
                raise ConfigError(
                    "stage 'gp' references 'scatter' which does not run "
                    "before it; give an explicit a0 or reorder")
        seen.add(stage)
    return RunConfig(raw=data)


def serialize_config(cfg):
    """Inverse of parse_config: returns the exact dict that was parsed."""
    return deepcopy(cfg.raw)


# ---------------------------------------------------------------------------
# stage executors
# ---------------------------------------------------------------------------

def _scatter_row(rep, ell):
    row = dataclasses.asdict(rep)
    row["ell"] = float(ell)
    row["N"] = float(rep.radius / ell)
    row["big_ell"] = float(rep.radius)
    return row


def _trivial_scatter_row(sol, ell):
    keys = [f.name for f in dataclasses.fields(LemmaScatteringReport)]
    row = {k: 0.0 for k in keys}
    row.update({"radius": float(sol.radius), "ell": float(ell),
                "N": float(sol.N_param), "big_ell": float(sol.radius)})
    return row


def scatter_stage(potential, params, threads=1):
    """Zero-energy reference plus the ball-problem sweep."""
    ell = float(params.get("ell", 0.5))
    n = float(params.get("n", 64))
    n_pts = int(params.get("n_pts", 4096))
    sweep_nl = [float(v) for v in
                params.get("sweep_nl", [25.0, 50.0, 100.0, 200.0, 400.0])]
    ref = solve_zero_energy(potential)
    trivial = ref.a0 == 0.0
    base = solve_neumann(potential, ell, n, n_pts)

    def one(nl):
        sol = solve_neumann(potential, ell, nl / ell, n_pts)
        return _trivial_scatter_row(sol, ell) if trivial \
            else _scatter_row(verify_lemma_scattering(sol, ref), ell)

    rows = _pooled_map(one, sweep_nl, threads)
    if trivial:
        lemma = {"i": {"ratio": 0.0, "deviation": 0.0},
                 "ii": {"weighted_defect": 0.0},
                 "iii": {"sup_w_weighted": 0.0, "sup_wp_weighted": 0.0,
                         "volume_moment": 0.0,
                         "volume_moment_weighted": 0.0},
                 "iv": {"sup_p2_what": 0.0}}
    else:
        lemma = verify_lemma_scattering(base, ref).to_dict()
        lemma.pop("a0", None)
        lemma.pop("lambda_ell", None)
        lemma.pop("radius", None)
    report = {
        "potential": potential.to_dict(),
        "a0": float(ref.a0),
        "a0_integral_route": float(ref.a0_from_integral),
        "richardson_defect": float(ref.richardson_defect),
        "lambda_ell": float(base.lambda_ell),
        "lemma30": lemma,
        "grids": {"ell": ell, "n": n, "n_pts": n_pts,
                  "reference_r_max": float(ref.r_grid[-1]),
                  "ball_radius": float(base.radius)},
        "sweep": rows,
        "trivial": trivial,
    }
    return report


def scatter_entries(report, thr):
    a0 = report["a0"]
    trivial = report.get("trivial", False)
    defect = abs(a0 - report["a0_integral_route"])
    rel = defect / abs(a0) if a0 != 0.0 else defect
    entries = [{
        "id": "scattering-length-oracle",
        "quantities": {"a0": a0,
                       "a0_integral_route": report["a0_integral_route"],
                       "identity_rel_defect": rel},
        "pass": bool(rel <= thr["a0_identity_rtol"]),
        "trivial": trivial,
    }]
    rows = report["sweep"]
    big = [r["big_ell"] for r in rows]
    fit = fit_slope(zip(big, [r["i_deviation"] for r in rows]),
                    thr["eigenvalue_rate_slope"], thr["eigenvalue_rate_tol"])
    entries.append({
        "id": "neumann-eigenvalue-rate",
        "quantities": {"deviations": [r["i_deviation"] for r in rows],
                       "big_ell": big},
        "slopes": {"deviation": fit},
        "pass": fit["pass"],
        "trivial": fit["trivial"],
    })
    weighted = [r["ii_weighted"] for r in rows]
    if all(w == 0.0 for w in weighted):
        uni_pass, uni_ratio, uni_trivial = True, 0.0, True
    else:
        uni_ratio = max(weighted) / min(weighted)
        uni_pass = uni_ratio < thr["integral_uniformity_ratio"]
        uni_trivial = False
    entries.append({
        "id": "potential-integral-uniformity",
        "quantities": {"weighted_defects": weighted,
                       "max_over_min": uni_ratio},
        "pass": bool(uni_pass),
        "trivial": uni_trivial,
    })
    moments = [r["iii_moment_weighted"] for r in rows]
    sups = [max(r["iii_sup_w"], r["iii_sup_wp"]) for r in rows]
    entries.append({
        "id": "dip-volume-and-decay",
        "quantities": {"volume_moment_weighted": moments,
                       "pointwise_sups": sups},
        "pass": bool(max(moments) <= thr["dip_volume_margin"]
                     and all(np.isfinite(s) for s in sups)),
        "trivial": trivial,
    })
    tails = [r["iv_sup_p2"] for r in rows[-2:]]
    if 0.0 in tails:
        stab, stab_pass = 0.0, all(t == 0.0 for t in tails)
    else:
        stab = abs(tails[-1] / tails[0] - 1.0)
        stab_pass = stab <= thr["fourier_stability"]
    entries.append({
        "id": "dip-fourier-p2-bound",
        "quantities": {"sup_p2": [r["iv_sup_p2"] for r in rows],
                       "stability": stab},
        "pass": bool(stab_pass),
        "trivial": trivial,
    })
    return entries


def gp_stage(trap, a0, params, thr):
    tol = float(params.get("tol", 1e-11))
    state = minimize_gp(trap, float(a0), tol=tol)
    spec = hgp_spectrum(state)
    decay = {}
    for nu in thr["decay_orders"]:
        rep = verify_decay(state, float(nu))
        decay[f"nu={nu}"] = {"c_phi": rep.c_phi, "c_dphi": rep.c_dphi,
                             "c_lap": rep.c_lap,
                             "divergent": bool(rep.divergent)}
    fd = fourier_decay(state)
    multiplier_defect = abs(
        state.eps_gp - (state.energy["total"]
                        + 4.0 * np.pi * state.a0 * state.quartic_norm))
    report = {
        "trap": trap.to_dict(),
        "a0": float(a0),
        "tol": tol,
        "energies": {k: float(v) for k, v in state.energy.items()},
        "eps_gp": float(state.eps_gp),
        "residual": float(state.residual),
        "iterations": int(state.iterations),
        "multiplier_defect": float(multiplier_defect),
        "spectrum": {"lambda0": float(spec.values[0]),
                     "lambda1": float(spec.values[1]),
                     "gap": float(spec.gap),
                     "ground_overlap": float(spec.ground_overlap)},
        "decay_constants": decay,
        "fourier": {"sup_weighted": float(fd.sup_weighted),
                    "argmax_p": float(fd.argmax_p)},
    }
    return report, state


def gp_entries(report, thr):
    entries = [{
        "id": "gp-energy-oracle",
        "quantities": {"energies": report["energies"],
                       "residual": report["residual"],
                       "iterations": report["iterations"]},
        "pass": bool(report["residual"] <= thr["gp_residual"]),
        "trivial": False,
    }, {
        "id": "gp-multiplier-identity",
        "quantities": {"eps_gp": report["eps_gp"],
                       "defect": report["multiplier_defect"]},
        "pass": bool(report["multiplier_defect"]
                     <= thr["multiplier_identity"]),
        "trivial": False,
    }]
    spec = report["spectrum"]
    entries.append({
        "id": "linearization-spectral-gap",
        "quantities": spec,
        "pass": bool(abs(spec["lambda0"])
                     <= thr["gap_zero_mode"] * abs(spec["lambda1"])
                     and spec["lambda1"] > 0.0
                     and spec["ground_overlap"]
                     >= 1.0 - thr["gap_overlap_defect"]),
        "trivial": False,
    })
    finite = all(
        not d["divergent"] and np.isfinite(d["c_phi"])
        and np.isfinite(d["c_dphi"]) and np.isfinite(d["c_lap"])
        for d in report["decay_constants"].values())
    entries.append({
        "id": "minimizer-decay-constants",
        "quantities": {"decay_constants": report["decay_constants"],
                       "fourier_sup": report["fourier"]["sup_weighted"]},
        "pass": bool(finite
                     and np.isfinite(report["fourier"]["sup_weighted"])),
        "trivial": False,
    })
    return entries


def kernels_stage(potential, state, params):
    alpha = float(params.get("alpha", 4.0))
    beta = float(params.get("beta", 2.0))
    ells = [float(v) for v in params.get("ells", [0.5, 0.25, 0.125])]
    tol = float(params.get("tol", 1e-12))
    rep = kernels.sweep_kernels(potential, state, alpha=alpha, beta=beta,
                                ells=ells, tol=tol)
    return {"alpha": alpha, "beta": beta,
            "tuples": [[float(ell), float(n)] for ell, n in rep.tuples],
            "rows": [dict(r) for r in rep.rows]}


def kernels_entries(report, thr):
    rows = report["rows"]
    alpha, beta = report["alpha"], report["beta"]
    ells = [r["ell"] for r in rows]

    def series(key):
        return [r[key] for r in rows]

    eta_fit = fit_slope(zip(ells, series("eta_l2")), alpha / 2.0,
                        thr["pair_slope_tol"])
    grads = [g / np.sqrt(r["N"]) for g, r in zip(series("eta_grad_l2"), rows)]
    if all(g == 0.0 for g in grads):
        grad_spread, grad_pass = 0.0, True
    else:
        grad_spread = max(grads) / min(grads) - 1.0
        grad_pass = grad_spread <= thr["grad_stability"]
    entries = [{
        "id": "pair-kernel-scaling",
        "quantities": {"eta_l2": series("eta_l2"),
                       "grad_over_sqrt_n": grads,
                       "grad_spread": grad_spread,
                       "row_sup": series("eta_row_sup")},
        "slopes": {"eta_l2": eta_fit},
        "pass": bool(eta_fit["pass"] and grad_pass),
        "trivial": eta_fit["trivial"],
    }]
    nu_fit = fit_slope(zip(ells, series("nu_l2")), alpha / 2.0,
                       thr["pair_slope_tol"])
    l1_defects = [abs(v - 1.0) for v in series("gauss_l1")]
    l2_fit = fit_slope(zip(ells, series("gauss_l2")), -1.5 * beta,
                       thr["lowpass_l2_slope_tol"])
    entries.append({
        "id": "cubic-kernel-scaling",
        "quantities": {"nu_l2": series("nu_l2"),
                       "gauss_l1_defects": l1_defects,
                       "gauss_l2": series("gauss_l2")},
        "slopes": {"nu_l2": nu_fit, "gauss_l2": l2_fit},
        "pass": bool(nu_fit["pass"] and l2_fit["pass"]
                     and max(l1_defects) <= thr["lowpass_l1_tol"]),
        "trivial": nu_fit["trivial"],
    })
    p_fit = fit_slope(zip(ells, series("p_norm")), alpha, float("inf"))
    r_fit = fit_slope(zip(ells, series("r_norm")), alpha, float("inf"))
    floor = alpha - thr["remainder_slope_slack"]
    rem_pass = ((p_fit["trivial"] or p_fit["slope"] >= floor)
                and (r_fit["trivial"] or r_fit["slope"] >= floor))
    entries.append({
        "id": "hyperbolic-remainder-scaling",
        "quantities": {"p_norm": series("p_norm"),
                       "r_norm": series("r_norm"),
                       "slope_floor": floor},
        "slopes": {"p_norm": p_fit, "r_norm": r_fit},
        "pass": bool(rem_pass),
        "trivial": p_fit["trivial"],
    })
    return entries


def _fock_params(params):
    """(modes, ncap, caps, suites) of a fock stage; bad values raise."""
    def positive(name, value):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                f"fock {name} must be a positive integer, got {value!r}")
        return value

    caps = params.get("caps", [2, 3, 4, 5, 6])
    if not isinstance(caps, list) or not caps:
        raise ConfigError(
            f"fock caps must be a non-empty list of integers, got {caps!r}")
    suites = params.get("suites", list(_FOCK_SUITES))
    if not isinstance(suites, list):
        raise ConfigError(f"fock suites must be a list, got {suites!r}")
    for s in suites:
        if s not in _FOCK_SUITES:
            raise ConfigError(f"unknown fock suite {s!r}")
    return (positive("modes", params.get("modes", 3)),
            positive("ncap", params.get("ncap", 4)),
            tuple(positive("caps entry", c) for c in caps), list(suites))


def fock_stage(params, thr, seed):
    """Identity and growth suites on the truncated space."""
    M, cap, caps, suites = _fock_params(params)
    space = fock.build_fock_space(M, cap)
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(M, M))
    eta_unit = (e + e.T) / 2.0
    eta_unit /= np.linalg.norm(eta_unit)
    nu = 0.3 * rng.normal(size=(M, M))
    g = 0.5 * rng.normal(size=(M, M))
    fvec = rng.normal(size=M)
    exact_ok = None
    if space.dim <= fockexact._EXACT_DIM_CAP:
        exact_ok = fockexact.verify_exact_identities(M, cap, seed=seed)

    identities = []
    growth = {}

    def add(name, deviation, tol, trivial=False):
        identities.append({"id": name, "max_deviation": float(deviation),
                           "tolerance": float(tol),
                           "pass": bool(deviation <= tol),
                           "trivial": trivial})

    if "ccr" in suites:
        add("modified-commutators-float",
            fock.verify_b_commutators(space, seed=seed),
            thr["fock_float_tol"])
        if exact_ok is not None:
            add("modified-commutators-exact",
                0.0 if (exact_ok["ccr_low_sector"]
                        and exact_ok["b_commutators"]) else 1.0, 0.0)
    if "un" in suites:
        add("excitation-map-conjugations-float", fock.verify_un(space, 0),
            thr["fock_float_tol"])
        if exact_ok is not None:
            add("excitation-map-conjugations-exact",
                0.0 if (exact_ok["un_isometry"]
                        and exact_ok["un_range_projector"]
                        and exact_ok["un_conjugations"]
                        and exact_ok["gamma_idempotent"]
                        and exact_ok["gamma_number_commute"]) else 1.0, 0.0)
    if "ln" in suites:
        worst = 0.0
        tuples = [(2, 3), (3, 3), (3, 4)]
        if (M, cap) not in tuples:
            tuples.append((M, cap))
        for (m, c) in tuples:
            sp = fock.build_fock_space(m, c)
            coeff = fock.make_random_coefficients(m, seed=seed)
            worst = max(worst, fock.verify_energy_identity(
                coeff, sp, n_states=20, seed=seed))
        add("excitation-energy-identity", worst,
            thr["energy_identity_tol"])
        if exact_ok is not None:
            add("excitation-energy-identity-exact",
                0.0 if exact_ok["energy_identity"] else 1.0, 0.0)
    if "bgrowth" in suites:
        table = {}
        spread_ok, sups = True, []
        for n in (-2, -1, 0, 1, 2):
            rep = fock.verify_B_number_growth(M, eta_unit, 0.3, n, caps=caps)
            table[f"n={n}"] = {"caps": list(rep.caps),
                               "ratios": list(rep.ratios),
                               "sup": rep.sup}
            sups.append(rep.sup)
            spread_ok = spread_ok and (max(rep.ratios) / min(rep.ratios)
                                       < thr["growth_spread"])
        zero = fock.verify_B_number_growth(M, np.zeros((M, M)), 1.0, 2,
                                           caps=caps)
        growth["pair"] = {"table": table,
                          "generator_norm": 0.3,
                          "trivial_ratios": list(zero.ratios)}
        add("quadratic-growth",
            0.0 if (spread_ok and all(np.isfinite(s) for s in sups)) else 1.0,
            0.0)
        add("quadratic-growth-trivial",
            max(abs(r - 1.0) for r in zero.ratios), 0.0, trivial=True)
    if "agrowth" in suites:
        table = {}
        spread_ok = True
        for k in (-2, -1, 1, 2):
            reps = fock.verify_A_number_growth(
                M, nu, g, k, t_grid=(-1.0, -0.5, 0.5, 1.0), caps=caps)
            table[f"k={k}"] = [{"t_norm": rep.generator_norm,
                                "ratios": list(rep.ratios),
                                "sup": rep.sup} for rep in reps]
            for rep in reps:
                spread_ok = spread_ok and (
                    max(rep.ratios) / min(rep.ratios) < 2.0)
        zero = fock.verify_A_number_growth(M, nu, g, 1, t_grid=(0.0,),
                                           caps=caps)[0]
        growth["cubic"] = {"table": table,
                           "trivial_ratios": list(zero.ratios)}
        add("cubic-growth", 0.0 if spread_ok else 1.0, 0.0)
        add("cubic-growth-trivial",
            max(abs(r - 1.0) for r in zero.ratios), 0.0, trivial=True)
    if "deta" in suites:
        table = {}
        ok = True
        for n in (-1, 0, 1):
            reps = fock.sweep_d_eta(M, eta_unit, 0.3, fvec, n=n, caps=caps)
            vals = [r.ratio * r.cap for r in reps]
            table[f"n={n}"] = {"caps": [r.cap for r in reps],
                               "ratio_times_cap": vals}
            ok = ok and max(vals) / min(vals) < thr["remainder_spread"]
        _, zrep = fock.compute_d_eta(space, np.zeros((M, M)), fvec)
        growth["remainder"] = {"table": table, "trivial_ratio": zrep.ratio}
        add("field-remainder-scaling", 0.0 if ok else 1.0, 0.0)
        add("field-remainder-trivial", zrep.ratio, 0.0, trivial=True)

    return {"space": {"modes": M, "ncap": cap, "dim": space.dim},
            "seed": int(seed), "suites": suites,
            "caps": list(caps),
            "exact_mode": exact_ok is not None,
            "identities": identities, "growth": growth}


def fock_entries(report, thr):
    by_id = {i["id"]: i for i in report["identities"]}

    def merged(name, *ids):
        present = [by_id[i] for i in ids if i in by_id]
        if not present:
            return None
        return {
            "id": name,
            "quantities": {i["id"]: i["max_deviation"] for i in present},
            "pass": bool(all(i["pass"] for i in present)),
            "trivial": bool(all(i["trivial"] for i in present)),
        }

    out = [merged("modified-commutators", "modified-commutators-float",
                  "modified-commutators-exact"),
           merged("excitation-map-conjugations",
                  "excitation-map-conjugations-float",
                  "excitation-map-conjugations-exact"),
           merged("excitation-energy-identity", "excitation-energy-identity",
                  "excitation-energy-identity-exact"),
           merged("quadratic-growth", "quadratic-growth",
                  "quadratic-growth-trivial"),
           merged("cubic-growth", "cubic-growth", "cubic-growth-trivial"),
           merged("field-remainder-scaling", "field-remainder-scaling",
                  "field-remainder-trivial")]
    return [e for e in out if e is not None]


# ---------------------------------------------------------------------------
# pipeline runner and bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReportBundle:
    """Per-lemma pass/fail entries plus the stage reports behind them."""

    entries: tuple
    stage_reports: dict = field(repr=False)
    seed: int

    @property
    def all_pass(self):
        return all(e["pass"] for e in self.entries)

    def entry(self, entry_id):
        for e in self.entries:
            if e["id"] == entry_id:
                return e
        raise InvalidParameterError(f"no bundle entry {entry_id!r}")

    def to_dict(self, timestamp=None):
        out = {"schema_version": _SCHEMA_VERSION,
               "seed": self.seed,
               "all_pass": self.all_pass,
               "entries": list(self.entries),
               "stages": self.stage_reports}
        if timestamp is not None:
            out["timestamp"] = timestamp
        return out


def run(config):
    """Execute the configured pipeline and assemble the lemma bundle."""
    cfg = config if isinstance(config, RunConfig) else parse_config(config)
    thr = cfg.thresholds
    threads = thread_count()
    reports, entries = {}, []
    ctx = {}
    for stage in cfg.pipeline:
        params = cfg.stage_params(stage)
        try:
            if stage == "scatter":
                pot = InteractionPotential.from_dict(params["potential"]) \
                    if "potential" in params else make_square_well(2.0, 1.0,
                                                                   512)
                rep = scatter_stage(pot, params, threads=threads)
                ctx["potential"] = pot
                entries.extend(scatter_entries(rep, thr))
            elif stage == "gp":
                trap = TrapPotential.from_dict(params["trap"]) \
                    if "trap" in params else make_trap("harmonic", 800, 8.0)
                a0 = params.get("a0", "from:scatter")
                if a0 == "from:scatter":
                    a0 = reports["scatter"]["a0"]
                rep, state = gp_stage(trap, float(a0), params, thr)
                ctx["state"] = state
                entries.extend(gp_entries(rep, thr))
            elif stage == "kernels":
                rep = kernels_stage(ctx["potential"], ctx["state"], params)
                entries.extend(kernels_entries(rep, thr))
            elif stage == "fock":
                rep = fock_stage(params, thr, cfg.seed)
                entries.extend(fock_entries(rep, thr))
        except GPRegimeError as exc:
            raise type(exc)(f"stage {stage!r} aborted: {exc}") from exc
        reports[stage] = rep
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate lemma entries in bundle")
    return LemmaReportBundle(entries=tuple(entries), stage_reports=reports,
                             seed=cfg.seed)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows, columns=None):
    if not rows:
        return
    columns = columns or sorted(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


def _csv_sibling(path):
    stem, _ = os.path.splitext(path)
    return stem + ".csv"


def _emit(report, out, fmt, table_rows=None, table_cols=None):
    """Write the JSON report and, when a table exists, its CSV sibling."""
    if out is None:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if fmt == "csv" and table_rows is not None:
        _write_csv(out, table_rows, table_cols)
        _write_json(_csv_sibling(out) if out.endswith(".json")
                    else os.path.splitext(out)[0] + ".json", report)
    else:
        _write_json(out, report)
        if table_rows is not None:
            _write_csv(_csv_sibling(out), table_rows, table_cols)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


def _parse_sweep_arg(text, allowed):
    name, sep, vals = text.partition("=")
    if not sep or name not in allowed:
        raise ConfigError(
            f"sweep must look like '{allowed[0]}=v1,v2,...', got {text!r}")
    try:
        return name, [float(v) for v in vals.split(",") if v]
    except ValueError:
        raise ConfigError(f"bad sweep values in {text!r}")


def cmd_scatter(args):
    pot = InteractionPotential.from_dict(
        _load_json(args.potential, "potential")) if args.potential \
        else make_square_well(2.0, 1.0, 512)
    params = {"ell": args.ell, "n": args.n}
    if args.sweep:
        _, vals = _parse_sweep_arg(args.sweep, ["nl"])
        params["sweep_nl"] = vals
    report = scatter_stage(pot, params, threads=thread_count())
    entries = scatter_entries(report, _DEFAULT_THRESHOLDS)
    report["entries"] = entries
    _emit(report, args.out, args.format, table_rows=report["sweep"])
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_gp(args):
    trap = TrapPotential.from_dict(_load_json(args.trap, "trap")) \
        if args.trap else make_trap("harmonic", 800, 8.0)
    report, state = gp_stage(trap, args.a0, {"tol": args.tol},
                             _DEFAULT_THRESHOLDS)
    entries = gp_entries(report, _DEFAULT_THRESHOLDS)
    report["entries"] = entries
    phi_rows = [{"r": float(r), "phi": float(p)}
                for r, p in zip(state.grid, state.phi)]
    _emit(report, args.out, args.format, table_rows=phi_rows,
          table_cols=["r", "phi"])
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_kernels(args):
    sc = _load_json(args.scatter, "scatter report")
    gr = _load_json(args.gp, "gp report")
    if "potential" not in sc:
        raise ConfigError("scatter report lacks 'potential'")
    if "trap" not in gr or "a0" not in gr:
        raise ConfigError("gp report lacks trap or a0")
    pot = InteractionPotential.from_dict(sc["potential"])
    trap = TrapPotential.from_dict(gr["trap"])
    state = minimize_gp(trap, float(gr["a0"]),
                        tol=float(gr.get("tol", 1e-11)))
    params = {"alpha": args.alpha, "beta": args.beta}
    if args.sweep:
        _, vals = _parse_sweep_arg(args.sweep, ["ell"])
        params["ells"] = vals
    report = kernels_stage(pot, state, params)
    entries = kernels_entries(report, _DEFAULT_THRESHOLDS)
    report["entries"] = entries
    _emit(report, args.out, args.format, table_rows=report["rows"])
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_fock(args):
    suites = []
    for chunk in args.suite or ["ccr,un,ln,bgrowth,agrowth,deta"]:
        suites.extend(s for s in chunk.split(",") if s)
    params = {"modes": args.modes, "ncap": args.ncap, "suites": suites}
    report = fock_stage(params, _DEFAULT_THRESHOLDS, args.seed)
    _emit(report, args.out, args.format, table_rows=report["identities"],
          table_cols=["id", "max_deviation", "tolerance", "pass", "trivial"])
    return 0 if all(i["pass"] for i in report["identities"]) else 1


def cmd_run(args):
    data = _load_json(args.config, "config") if args.config \
        else default_config()
    cfg = parse_config(data)
    bundle = run(cfg)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "bundle.json"),
                    bundle.to_dict(timestamp=stamp))
        _write_csv(os.path.join(out_dir, "bundle.csv"),
                   [{"id": e["id"], "pass": e["pass"],
                     "trivial": e.get("trivial", False)}
                    for e in bundle.entries],
                   columns=["id", "pass", "trivial"])
        for stage, rep in bundle.stage_reports.items():
            _write_json(os.path.join(out_dir, f"{stage}.json"), rep)
            if stage == "scatter":
                _write_csv(os.path.join(out_dir, "scatter.csv"),
                           rep["sweep"])
            elif stage == "kernels":
                _write_csv(os.path.join(out_dir, "kernels.csv"),
                           rep["rows"])
            elif stage == "fock":
                _write_csv(os.path.join(out_dir, "fock.csv"),
                           rep["identities"],
                           columns=["id", "max_deviation", "tolerance",
                                    "pass", "trivial"])
    else:
        print(json.dumps(bundle.to_dict(timestamp=stamp), indent=2,
                         sort_keys=True))
    for e in bundle.entries:
        flag = "PASS" if e["pass"] else "FAIL"
        extra = " (trivial)" if e.get("trivial") else ""
        print(f"{flag} {e['id']}{extra}")
    return 0 if bundle.all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpregime",
        description="Desk-scale checks for dilute-gas correlation numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scatter", help="zero-energy and ball-problem sweep")
    p.add_argument("--potential", help="potential JSON file")
    p.add_argument("--ell", type=float, default=0.5)
    p.add_argument("--n", type=float, default=64.0)
    p.add_argument("--sweep", help="nl=25,50,100,...")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("gp", help="minimizer, spectrum, decay constants")
    p.add_argument("--trap", help="trap JSON file")
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gp)

    p = sub.add_parser("kernels", help="cutoff kernel norms and slopes")
    p.add_argument("--scatter", required=True, help="scatter report JSON")
    p.add_argument("--gp", required=True, help="gp report JSON")
    p.add_argument("--alpha", type=float, default=4.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--sweep", help="ell=0.5,0.25,0.125")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("fock", help="truncated operator-algebra suites")
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--ncap", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", action="append",
                   help="comma list from ccr,un,ln,bgrowth,agrowth,deta")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("run", help="full pipeline under one config")
    p.add_argument("--config", help="config JSON (defaults when omitted)")
    p.add_argument("--out", help="artifact directory")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_count()
        return args.func(args)
    except GPRegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
