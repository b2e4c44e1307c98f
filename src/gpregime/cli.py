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
import json
import math
import os
import sys
import time
from collections import namedtuple
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
    _MIN_NODES,
    _TRAP_FORMS,
    INTERACTION_KINDS,
    InteractionPotential,
    make_trap,
)
from .scattering import (
    _MIN_PTS,
    solve_neumann,
    solve_zero_energy,
    verify_lemma_scattering,
)

_SCHEMA_VERSION = 1
_SCALARS = json.JSONEncoder(sort_keys=True)  # the C encoder, for _dumps

# Each fock suite -> its bundle entry and the fock.json identities that
# entry merges. An id ending in -exact is the suite's exact-mode zero
# test; those suites are the keys of fock.identity_defects.
_FOCK_SUITES = {
    "ccr": ("modified-commutators",
            ("modified-commutators-float", "modified-commutators-exact")),
    "un": ("excitation-map-conjugations",
           ("excitation-map-conjugations-float",
            "excitation-map-conjugations-exact")),
    "ln": ("excitation-energy-identity",
           ("excitation-energy-identity", "excitation-energy-identity-exact")),
    "bgrowth": ("quadratic-growth",
                ("quadratic-growth", "quadratic-growth-trivial",
                 "quadratic-growth-exact")),
    "agrowth": ("cubic-growth", ("cubic-growth", "cubic-growth-trivial")),
    "deta": ("field-remainder-scaling",
             ("field-remainder-scaling", "field-remainder-trivial")),
}
_EXACT_IDS = {suite: i for suite, (_, ids) in _FOCK_SUITES.items()
              for i in ids if i.endswith("-exact")}

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
    "cubic_growth_spread": 2.0,
    "remainder_spread": 3.0,
}

# Thresholds that a check compares with a strict "<", so 0 fails every run.
_STRICT_THRESHOLDS = {"integral_uniformity_ratio", "growth_spread",
                      "cubic_growth_spread", "remainder_spread"}

# Norm of the fock stage's pair generator (eta_unit has norm 1), scale of nu
_GENERATOR_SCALE = 0.3

_TOP_KEYS = {"schema_version", "seed", "pipeline", "stages", "thresholds"}

# The values each stage runs on, as its parser returns them; the gp
# stage's a0 is a number or "from:scatter".
ScatterInputs = namedtuple("ScatterInputs", "potential ell n n_pts sweep_nl")
GPInputs = namedtuple("GPInputs", "trap a0 tol")
KernelsInputs = namedtuple("KernelsInputs", "alpha beta ells tol")
FockInputs = namedtuple("FockInputs", "modes ncap caps suites")


# ---------------------------------------------------------------------------
# slope fits and bundle entries
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


def _entry(entry_id, quantities, ok, trivial=False, slopes=None):
    """One bundle entry: its quantities, the slope fits that decided it,
    if any, and pass and trivial as bools."""
    out = {"id": entry_id, "quantities": quantities, "pass": bool(ok),
           "trivial": bool(trivial)}
    if slopes is not None:
        out["slopes"] = slopes
    return out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: raw, the exact input, and its stage inputs."""

    raw: dict = field(repr=False)
    inputs: dict = field(repr=False)

    @property
    def seed(self):
        return int(self.raw["seed"])

    @property
    def pipeline(self):
        return tuple(self.raw["pipeline"])

    @property
    def thresholds(self):
        out = deepcopy(_DEFAULT_THRESHOLDS)
        out.update(self.raw.get("thresholds", {}))
        return out


def default_config():
    """Full-pipeline config with every stage key at its default."""
    return deepcopy({
        "schema_version": _SCHEMA_VERSION,
        "seed": 7,
        "pipeline": list(_STAGES),
        "stages": {name: stage.defaults for name, stage in _STAGES.items()},
        "thresholds": _DEFAULT_THRESHOLDS,
    })


def _seed(value):
    """value if it is a nonnegative integer, as numpy's generators take;
    else a ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {value!r}")
    return value


def _parse_stage(name, params):
    """The inputs of stage name: params over the stage's defaults, parsed
    once; a key without a default is unknown."""
    stage = _STAGES[name]
    if not isinstance(params, dict):
        raise ConfigError(f"stage {name!r} parameters must be an object")
    for key in params:
        if key not in stage.defaults:
            raise ConfigError(f"unknown key {key!r} in stage {name!r}")
    return stage.parse({**stage.defaults, **params})


def parse_config(data):
    """Parse a config dict, each stage it names once, before any stage
    runs; unknown keys and DAG gaps are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if data.get("schema_version") != _SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {_SCHEMA_VERSION}, "
            f"got {data.get('schema_version')!r}")
    _seed(data.get("seed"))
    pipeline = data.get("pipeline")
    if not isinstance(pipeline, list) or not pipeline:
        raise ConfigError("pipeline must be a non-empty list of stages")
    for stage in pipeline:
        if not isinstance(stage, str) or stage not in _STAGES:
            raise ConfigError(f"unknown pipeline stage {stage!r}")
    if len(set(pipeline)) != len(pipeline):
        raise ConfigError("pipeline stages must be unique")
    stages = data.get("stages", {})
    if not isinstance(stages, dict):
        raise ConfigError("stages must be an object")
    for stage in stages:
        if stage not in _STAGES:
            raise ConfigError(f"unknown stage {stage!r} in stages")
    inputs = {name: _parse_stage(name, stages.get(name, {}))
              for name in _STAGES if name in stages or name in pipeline}
    thresholds = data.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError("thresholds must be an object")
    for key, value in thresholds.items():
        if key not in _DEFAULT_THRESHOLDS:
            raise ConfigError(f"unknown threshold {key!r}")
        _check_threshold(key, value)
    # DAG: every stage must find its upstream outputs earlier in the list
    seen = set()
    for stage in pipeline:
        for need in _STAGES[stage].needs(inputs[stage]):
            if need not in seen:
                raise ConfigError(
                    f"stage {stage!r} references {need!r} which does not "
                    "run before it")
        seen.add(stage)
    return RunConfig(raw=data, inputs=inputs)


# ---------------------------------------------------------------------------
# stage executors
# ---------------------------------------------------------------------------

def _number(stage, name, value):
    """value if it is a finite, non-bool number; else a ConfigError."""
    # an int beyond the float range compares above the largest float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(
            f"{stage} {name} must be a finite number, got {value!r}")
    return value


def _numbers(stage, name, values):
    """values if it is a list of finite, non-bool numbers; else a
    ConfigError. Types are tested once per distinct type, so a long
    sample list costs one pass."""
    ok = isinstance(values, list) and all(
        issubclass(t, (int, float)) and t is not bool
        for t in {type(v) for v in values})
    try:
        ok = ok and np.isfinite(np.asarray(values, dtype=float)).all()
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{stage} {name} must be a list of finite numbers")
    return values


def _check_threshold(key, value):
    """A threshold override must be a finite number. decay_orders is a
    non-empty list of positive orders; eigenvalue_rate_slope, a target
    slope, takes either sign; every other threshold is >= 0, and > 0 in
    _STRICT_THRESHOLDS."""
    if key == "decay_orders":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"threshold decay_orders must be a non-empty "
                              f"list, got {value!r}")
        for nu in value:
            if _number("threshold", "decay_orders entry", nu) <= 0:
                raise ConfigError(f"threshold decay_orders entries must be "
                                  f"positive, got {nu!r}")
        return
    _number("threshold", key, value)
    strict = key in _STRICT_THRESHOLDS
    if key != "eigenvalue_rate_slope" and (value < 0 or strict and value == 0):
        raise ConfigError(f"threshold {key} must be "
                          f"{'positive' if strict else 'nonnegative'}, "
                          f"got {value!r}")


def _check_potential(pot):
    """A scatter potential, the dict InteractionPotential.from_dict reads:
    an object of a known kind with the fields its kind needs, each of
    the right type; bad values raise."""
    if not isinstance(pot, dict) or not isinstance(pot.get("kind"), str) \
            or pot["kind"] not in INTERACTION_KINDS:
        raise ConfigError(
            f"scatter potential must be an object with kind in "
            f"{list(INTERACTION_KINDS)}, got {pot!r}")
    for part, keys in INTERACTION_KINDS[pot["kind"]].items():
        if not isinstance(pot.get(part), dict) \
                or any(k not in pot[part] for k in keys):
            raise ConfigError(
                f"scatter potential {part} of a {pot['kind']} must be an "
                f"object with keys {list(keys)}, got {pot.get(part)!r}")
    if pot["kind"] == "square_well":
        for name in ("V0", "R"):
            _number("scatter", f"potential {name}", pot["parameters"][name])
        well_pts = _number("scatter", "potential n_pts",
                           pot["grid"]["n_pts"])
        if well_pts != int(well_pts):
            raise ConfigError(f"scatter potential n_pts must be an integer, "
                              f"got {well_pts!r}")
    if pot["kind"] == "custom":
        _check_profile(pot)


def _scatter_inputs(params):
    """ScatterInputs of a scatter stage, the potential built; bad values
    raise. Every ball, ell * n and each nl, must be larger than the
    interaction's support radius, by the comparison solve_neumann makes,
    and the rate entry fits a slope through the sweep, so it needs 3."""
    def number(name, value):
        return _number("scatter", name, value)

    _check_potential(params["potential"])
    potential = InteractionPotential.from_dict(params["potential"])
    R = potential.support_radius
    ell = number("ell", params["ell"])
    if not 0.0 < ell < 1.0:
        raise ConfigError(f"scatter ell must lie in (0, 1), got {ell!r}")
    n = number("n", params["n"])
    if ell * n <= R:
        raise ConfigError(f"scatter n must make the ball radius ell * n "
                          f"larger than the interaction range {R!r}, "
                          f"got {n!r}")
    n_pts = number("n_pts", params["n_pts"])
    if n_pts < _MIN_PTS or n_pts != int(n_pts):
        raise ConfigError(
            f"scatter n_pts must be an integer >= {_MIN_PTS}, got {n_pts!r}")
    sweep = params["sweep_nl"]
    if not isinstance(sweep, list) or len(sweep) < 3:
        raise ConfigError(
            f"scatter sweep_nl must be a list of at least 3 entries, "
            f"got {sweep!r}")
    for v in sweep:
        if ell * (number("sweep_nl entry", v) / ell) <= R:
            raise ConfigError(f"scatter sweep_nl entries must be larger than "
                              f"the interaction range {R!r}, got {v!r}")
    return ScatterInputs(potential, float(ell), float(n), int(n_pts),
                         tuple(float(v) for v in sweep))


def _check_profile(pot):
    """A custom interaction's parameters are an object; its profile tail
    is zero beyond a finite positive radius, so the interaction has
    compact support, and its grid and samples are lists of finite numbers
    of one length."""
    if not isinstance(pot.get("parameters", {}), dict):
        raise ConfigError(f"scatter potential parameters must be an object, "
                          f"got {pot['parameters']!r}")
    prof = pot["profile"]
    tail = prof["tail"]
    if not isinstance(tail, dict) or tail.get("kind") != "zero":
        raise ConfigError(f"scatter potential tail must be an object of "
                          f"kind 'zero' (compact support), got {tail!r}")
    if _number("scatter", "potential tail radius", tail.get("radius")) <= 0:
        raise ConfigError(f"scatter potential tail radius must be positive, "
                          f"got {tail['radius']!r}")
    grid = _numbers("scatter", "potential profile grid", prof["grid"])
    samples = _numbers("scatter", "potential profile samples",
                       prof["samples"])
    if len(grid) != len(samples):
        raise ConfigError(f"scatter potential profile has {len(grid)} grid "
                          f"nodes but {len(samples)} samples")


def scatter_stage(inputs):
    """Zero-energy reference plus the ball-problem sweep.

    Returns the report and the Neumann solution at (ell, n), which the
    kernels sweep can reuse.
    """
    potential, ell, n, n_pts, sweep_nl = inputs
    ref = solve_zero_energy(potential, n_pts=n_pts)
    base = solve_neumann(potential, ell, n, n_pts)

    def one(nl):
        sol = solve_neumann(potential, ell, nl / ell, n_pts)
        return {**verify_lemma_scattering(sol, ref),
                "ell": ell, "N": sol.N_param, "big_ell": sol.radius}

    rows = [one(nl) for nl in sweep_nl]
    r = verify_lemma_scattering(base, ref)
    lemma = {"i": {"ratio": r["i_ratio"], "deviation": r["i_deviation"]},
             "ii": {"weighted_defect": r["ii_weighted"]},
             "iii": {"sup_w_weighted": r["iii_sup_w"],
                     "sup_wp_weighted": r["iii_sup_wp"],
                     "volume_moment": r["iii_moment"],
                     "volume_moment_weighted": r["iii_moment_weighted"]},
             "iv": {"sup_p2_what": r["iv_sup_p2"]}}
    report = {
        "potential": potential.to_dict(),
        "a0": float(ref.a0),
        "a0_integral_route": float(ref.a0_from_integral),
        "richardson_defect": float(ref.richardson_defect),
        "lambda_ell": float(base.lambda_ell),
        "lemma30": lemma,
        "grids": {"ell": ell, "n": n, "n_pts": n_pts,
                  "ball_radius": float(base.radius)},
        "sweep": rows,
        "trivial": potential.zero,
    }
    return report, base


def scatter_entries(report, thr):
    a0, trivial = report["a0"], report["trivial"]
    defect = abs(a0 - report["a0_integral_route"])
    rel = defect / abs(a0) if a0 != 0.0 else defect
    rows = report["sweep"]
    big = [r["big_ell"] for r in rows]
    fit = fit_slope(zip(big, [r["i_deviation"] for r in rows]),
                    thr["eigenvalue_rate_slope"], thr["eigenvalue_rate_tol"])
    weighted = [r["ii_weighted"] for r in rows]
    uni_ratio = 0.0 if trivial else max(weighted) / min(weighted)
    moments = [r["iii_moment_weighted"] for r in rows]
    sups = [max(r["iii_sup_w"], r["iii_sup_wp"]) for r in rows]
    tails = [r["iv_sup_p2"] for r in rows[-2:]]
    if 0.0 in tails:
        stab, stab_pass = 0.0, all(t == 0.0 for t in tails)
    else:
        stab = abs(tails[-1] / tails[0] - 1.0)
        stab_pass = stab <= thr["fourier_stability"]
    return [
        _entry("scattering-length-oracle",
               {"a0": a0, "a0_integral_route": report["a0_integral_route"],
                "identity_rel_defect": rel},
               rel <= thr["a0_identity_rtol"], trivial),
        _entry("neumann-eigenvalue-rate",
               {"deviations": [r["i_deviation"] for r in rows],
                "big_ell": big},
               fit["pass"], trivial, slopes={"deviation": fit}),
        _entry("potential-integral-uniformity",
               {"weighted_defects": weighted, "max_over_min": uni_ratio},
               trivial or uni_ratio < thr["integral_uniformity_ratio"],
               trivial),
        _entry("dip-volume-and-decay",
               {"volume_moment_weighted": moments, "pointwise_sups": sups},
               max(moments) <= thr["dip_volume_margin"]
               and all(np.isfinite(s) for s in sups), trivial),
        _entry("dip-fourier-p2-bound",
               {"sup_p2": [r["iv_sup_p2"] for r in rows], "stability": stab},
               stab_pass, trivial),
    ]


def _gp_inputs(params):
    """GPInputs of a gp stage, the trap built; bad values raise."""
    tol = _number("gp", "tol", params["tol"])
    if tol <= 0.0:
        raise ConfigError(f"gp tol must be positive, got {tol!r}")
    a0 = params["a0"]
    if a0 != "from:scatter" and _number("gp", "a0", a0) < 0.0:
        raise ConfigError(f"gp a0 must be nonnegative, got {a0!r}")
    trap = params["trap"]
    if not isinstance(trap, dict) or not isinstance(trap.get("kind"), str) \
            or trap["kind"] not in _TRAP_FORMS \
            or not isinstance(trap.get("parameters"), dict) \
            or not isinstance(trap.get("grid"), dict):
        raise ConfigError(
            f"gp trap must be an object with kind in {list(_TRAP_FORMS)}, "
            f"parameters and grid, got {trap!r}")
    r_max = _number("gp", "trap r_max", trap["parameters"].get("r_max"))
    n_pts = _number("gp", "trap n_pts", trap["grid"].get("n_pts"))
    if r_max <= 0.0 or n_pts < _MIN_NODES or n_pts != int(n_pts):
        raise ConfigError(
            f"gp trap needs r_max > 0 and an integer n_pts >= {_MIN_NODES}, "
            f"got r_max {r_max!r}, n_pts {n_pts!r}")
    return GPInputs(make_trap(trap["kind"], int(n_pts), float(r_max)), a0,
                    float(tol))


def gp_stage(inputs, thr):
    trap, a0, tol = inputs
    state = minimize_gp(trap, float(a0), tol=tol)
    multiplier_defect = abs(
        state.eps_gp - (state.energy["total"]
                        + 4.0 * np.pi * state.a0 * state.quartic_norm))
    report = {
        "trap": trap.to_dict(),
        "a0": float(a0),
        "tol": tol,
        "tol_applied": state.tol_applied,
        "energies": {k: float(v) for k, v in state.energy.items()},
        "eps_gp": float(state.eps_gp),
        "residual": float(state.residual),
        "iterations": int(state.iterations),
        "multiplier_defect": float(multiplier_defect),
        "spectrum": hgp_spectrum(state),
        "decay_constants": {f"nu={nu}": verify_decay(state, float(nu))
                            for nu in thr["decay_orders"]},
        "fourier": fourier_decay(state),
    }
    return report, state


def gp_entries(report, thr):
    spec = report["spectrum"]
    finite = all(
        not d["divergent"] and np.isfinite(d["c_phi"])
        and np.isfinite(d["c_dphi"]) and np.isfinite(d["c_lap"])
        for d in report["decay_constants"].values())
    return [
        _entry("gp-energy-oracle",
               {"energies": report["energies"],
                "residual": report["residual"],
                "iterations": report["iterations"]},
               report["residual"] <= thr["gp_residual"]),
        _entry("gp-multiplier-identity",
               {"eps_gp": report["eps_gp"],
                "defect": report["multiplier_defect"]},
               report["multiplier_defect"] <= thr["multiplier_identity"]),
        _entry("linearization-spectral-gap", spec,
               abs(spec["lambda0"])
               <= thr["gap_zero_mode"] * abs(spec["lambda1"])
               and spec["lambda1"] > 0.0
               and spec["ground_overlap"] >= 1.0 - thr["gap_overlap_defect"]),
        _entry("minimizer-decay-constants",
               {"decay_constants": report["decay_constants"],
                "fourier_sup": report["fourier"]["sup_weighted"]},
               finite and np.isfinite(report["fourier"]["sup_weighted"])),
    ]


def _kernels_inputs(params):
    """KernelsInputs of a kernels stage; bad values raise."""
    alpha = _number("kernels", "alpha", params["alpha"])
    beta = _number("kernels", "beta", params["beta"])
    tol = _number("kernels", "tol", params["tol"])
    if not 0.0 < beta < alpha:
        raise ConfigError(
            f"kernels needs 0 < beta < alpha, got beta {beta!r}, "
            f"alpha {alpha!r}")
    if tol <= 0.0:
        raise ConfigError(f"kernels tol must be positive, got {tol!r}")
    # each kernels entry fits a slope through the ells, so at least three
    ells = params["ells"]
    if not isinstance(ells, list) or len(ells) < 3 or not all(
            0.0 < _number("kernels", "ells entry", v) < 1.0 for v in ells):
        raise ConfigError(
            f"kernels ells must be a list of at least 3 numbers in (0, 1), "
            f"got {ells!r}")
    return KernelsInputs(float(alpha), float(beta),
                         tuple(float(v) for v in ells), float(tol))


def kernels_stage(inputs, scatter, state, solved):
    """The kernel sweep on the scatter stage's potential at its n_pts; a
    row that matches solved, that stage's Neumann solution, reuses it."""
    alpha, beta, ells, tol = inputs
    rows = kernels.sweep_kernels(scatter.potential, state, alpha=alpha,
                                 beta=beta, ells=ells, tol=tol,
                                 n_pts=scatter.n_pts, solved=solved)
    return {"alpha": alpha, "beta": beta,
            "tuples": [[r["ell"], r["N"]] for r in rows], "rows": rows}


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
    nu_fit = fit_slope(zip(ells, series("nu_l2")), alpha / 2.0,
                       thr["pair_slope_tol"])
    l1_defects = [abs(v - 1.0) for v in series("gauss_l1")]
    l2_fit = fit_slope(zip(ells, series("gauss_l2")), -1.5 * beta,
                       thr["lowpass_l2_slope_tol"])
    p_fit = fit_slope(zip(ells, series("p_norm")), alpha, float("inf"))
    r_fit = fit_slope(zip(ells, series("r_norm")), alpha, float("inf"))
    floor = alpha - thr["remainder_slope_slack"]
    return [
        _entry("pair-kernel-scaling",
               {"eta_l2": series("eta_l2"), "grad_over_sqrt_n": grads,
                "grad_spread": grad_spread, "row_sup": series("eta_row_sup")},
               eta_fit["pass"] and grad_pass, eta_fit["trivial"],
               slopes={"eta_l2": eta_fit}),
        _entry("cubic-kernel-scaling",
               {"nu_l2": series("nu_l2"), "gauss_l1_defects": l1_defects,
                "gauss_l2": series("gauss_l2")},
               nu_fit["pass"] and l2_fit["pass"]
               and max(l1_defects) <= thr["lowpass_l1_tol"],
               nu_fit["trivial"],
               slopes={"nu_l2": nu_fit, "gauss_l2": l2_fit}),
        _entry("hyperbolic-remainder-scaling",
               {"p_norm": series("p_norm"), "r_norm": series("r_norm"),
                "slope_floor": floor},
               (p_fit["trivial"] or p_fit["slope"] >= floor)
               and (r_fit["trivial"] or r_fit["slope"] >= floor),
               p_fit["trivial"], slopes={"p_norm": p_fit, "r_norm": r_fit}),
    ]


def _fock_inputs(params):
    """FockInputs of a fock stage; bad values raise."""
    def positive(name, value):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(
                f"fock {name} must be a positive integer, got {value!r}")
        return value

    caps = params["caps"]
    if not isinstance(caps, list) or not caps:
        raise ConfigError(
            f"fock caps must be a non-empty list of integers, got {caps!r}")
    suites = params["suites"]
    if not isinstance(suites, list) or not suites:
        raise ConfigError(
            f"fock suites must be a non-empty list, got {suites!r}")
    for s in suites:
        if not isinstance(s, str) or s not in _FOCK_SUITES:
            raise ConfigError(f"unknown fock suite {s!r}")
    M = positive("modes", params["modes"])
    ncap = positive("ncap", params["ncap"])
    caps = tuple(positive("caps entry", c) for c in caps)
    if {"bgrowth", "agrowth", "deta"} & set(suites):
        # on at most one particle B and A vanish: every ratio is exactly
        # 1 and the remainder exactly 0, so such a cap measures nothing
        if min(caps) < 2:
            raise ConfigError(
                f"fock caps must be >= 2 for the growth suites, got {caps!r}")
        # deta also exponentiates the zero generator at ncap
        for c in caps + ((ncap,) if "deta" in suites else ()):
            if math.comb(M + c, M) > fock._EXPM_DIM_CAP:
                raise ConfigError(
                    f"fock cap {c} at {M} modes has dimension "
                    f"{math.comb(M + c, M)} > {fock._EXPM_DIM_CAP}, the "
                    "largest the growth suites exponentiate")
    return FockInputs(M, ncap, caps, tuple(suites))


def fock_stage(inputs, thr, seed):
    """Identity and growth suites on the truncated space."""
    M, cap, caps, suites = inputs
    ws = fock.Workspace()
    space = ws.space(M, cap)
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(M, M))
    eta_unit = (e + e.T) / 2.0
    eta_unit /= np.linalg.norm(eta_unit)
    nu = _GENERATOR_SCALE * rng.normal(size=(M, M))
    g = 0.5 * rng.normal(size=(M, M))
    fvec = rng.normal(size=M)
    exact_ok = None
    exact = [s for s in suites if s in _EXACT_IDS]
    if space.dim <= fockexact._EXACT_DIM_CAP and exact:
        exact_ok = fockexact.verify_exact_identities(space, seed, exact)

    identities = []
    growth = {}

    def add(name, deviation, tol, trivial=False):
        identities.append({"id": name, "max_deviation": float(deviation),
                           "tolerance": float(tol),
                           "pass": bool(deviation <= tol),
                           "trivial": trivial})

    def add_exact(suite):
        if exact_ok is not None:
            add(_EXACT_IDS[suite], 0.0 if exact_ok[suite] else 1.0, 0.0)

    if "ccr" in suites:
        add("modified-commutators-float",
            fock.verify_b_commutators(space, seed=seed),
            thr["fock_float_tol"])
        add_exact("ccr")
    if "un" in suites:
        add("excitation-map-conjugations-float", fock.verify_un(space),
            thr["fock_float_tol"])
        add_exact("un")
    if "ln" in suites:
        worst = max(fock.verify_energy_identity(
            fock.make_random_coefficients(m, seed=seed),
            ws.space(m, c), seed=seed)
            for m, c in dict.fromkeys([(2, 3), (3, 3), (3, 4), (M, cap)]))
        add("excitation-energy-identity", worst, thr["energy_identity_tol"])
        add_exact("ln")
    if "bgrowth" in suites:
        table = fock.verify_B_number_growth(
            M, eta_unit, _GENERATOR_SCALE, (-2, -1, 0, 1, 2), caps=caps,
            workspace=ws)
        zero = fock.verify_B_number_growth(
            M, np.zeros((M, M)), 1.0, (2,), caps=caps,
            workspace=ws)["n=2"]["ratios"]
        growth["pair"] = {"generator_norm": _GENERATOR_SCALE,
                          "trivial_ratios": zero, "table": table}
        ok = all(max(r["ratios"]) / min(r["ratios"]) < thr["growth_spread"]
                 and np.isfinite(r["sup"]) for r in table.values())
        add("quadratic-growth", 0.0 if ok else 1.0, 0.0)
        add("quadratic-growth-trivial",
            max(abs(r - 1.0) for r in zero), 0.0, trivial=True)
        add_exact("bgrowth")
    if "agrowth" in suites:
        # t = 0 comes last: the zero generator, whose ratios are exactly 1
        reps = fock.verify_A_number_growth(
            M, nu, g, (-2, -1, 1, 2), t_grid=(-1.0, -0.5, 0.5, 1.0, 0.0),
            caps=caps, workspace=ws)
        zero = reps["k=1"][-1]["ratios"]
        table = {k: row[:-1] for k, row in reps.items()}
        growth["cubic"] = {"trivial_ratios": zero, "table": table}
        ok = all(max(r["ratios"]) / min(r["ratios"])
                 < thr["cubic_growth_spread"]
                 for row in table.values() for r in row)
        add("cubic-growth", 0.0 if ok else 1.0, 0.0)
        add("cubic-growth-trivial",
            max(abs(r - 1.0) for r in zero), 0.0, trivial=True)
    if "deta" in suites:
        table = fock.sweep_d_eta(M, eta_unit, _GENERATOR_SCALE, fvec,
                                 (-1, 0, 1), caps=caps, workspace=ws)
        ok = all(max(t["ratio_times_cap"]) / min(t["ratio_times_cap"])
                 < thr["remainder_spread"] for t in table.values())
        eta0 = np.zeros((M, M))
        _, (trivial,) = fock.compute_d_eta(
            space, eta0, fvec, ws.pair_exponential(space, eta0))
        growth["remainder"] = {"table": table, "trivial_ratio": trivial}
        add("field-remainder-scaling", 0.0 if ok else 1.0, 0.0)
        add("field-remainder-trivial", trivial, 0.0, trivial=True)
    return {"space": {"modes": M, "ncap": cap, "dim": space.dim},
            "seed": int(seed), "suites": list(suites), "caps": list(caps),
            "exact_mode": exact_ok is not None,
            "identities": identities, "growth": growth}


def fock_entries(report, thr):
    """One entry per suite that ran, merging its identities."""
    by_id = {i["id"]: i for i in report["identities"]}
    entries = []
    for entry_id, ids in _FOCK_SUITES.values():
        present = [by_id[i] for i in ids if i in by_id]
        if present:
            entries.append(_entry(
                entry_id, {i["id"]: i["max_deviation"] for i in present},
                all(i["pass"] for i in present),
                all(i["trivial"] for i in present)))
    return entries


# ---------------------------------------------------------------------------
# stage registry
# ---------------------------------------------------------------------------

def _build_scatter(inputs, ctx):
    ctx["scatter"] = inputs
    report, ctx["neumann"] = scatter_stage(inputs)
    return report


def _build_gp(inputs, ctx):
    if inputs.a0 == "from:scatter":
        inputs = inputs._replace(a0=ctx["reports"]["scatter"]["a0"])
    report, ctx["state"] = gp_stage(inputs, ctx["thr"])
    return report


# A stage as `run` and its subcommand both see it:
#   defaults its config keys, each with the value an omitted key takes
#   parse    defaults overridden by the config -> the stage's inputs, a
#            namedtuple of the values it runs on; raises on bad values
#   needs    inputs -> the stages that must run before it
#   build    (inputs, ctx) -> report; ctx brings the thresholds, seed
#            and earlier reports, and takes out the scatter stage's
#            inputs, its Neumann solution at (ell, n) and the GP state
#   entries  (report, thresholds) -> bundle entries
#   table    report -> (rows, columns) of its CSV, or None
# Builders call the stage functions through this module's globals, so
# replacing one of those reaches every caller.
_Stage = namedtuple("_Stage", "defaults parse needs build entries table")

_STAGES = {
    "scatter": _Stage(
        {"potential": {"kind": "square_well",
                       "parameters": {"V0": 2.0, "R": 1.0},
                       "grid": {"n_pts": 512}},
         "ell": 0.5, "n": 64, "n_pts": 4096,
         "sweep_nl": [25.0, 50.0, 100.0, 200.0, 400.0]},
        _scatter_inputs, lambda inputs: (), _build_scatter, scatter_entries,
        lambda rep: (rep["sweep"], None)),
    "gp": _Stage(
        {"trap": {"kind": "harmonic", "parameters": {"r_max": 8.0},
                  "grid": {"n_pts": 800}},
         "a0": "from:scatter", "tol": 1e-11},
        _gp_inputs,
        lambda inputs: ("scatter",) if inputs.a0 == "from:scatter" else (),
        _build_gp, gp_entries, None),
    "kernels": _Stage(
        {"alpha": 4.0, "beta": 2.0, "ells": [0.5, 0.25, 0.125], "tol": 1e-12},
        _kernels_inputs, lambda inputs: ("scatter", "gp"),
        lambda inputs, ctx: kernels_stage(inputs, ctx["scatter"],
                                          ctx["state"], ctx.get("neumann")),
        kernels_entries, lambda rep: (rep["rows"], None)),
    "fock": _Stage(
        {"modes": 3, "ncap": 4, "suites": list(_FOCK_SUITES),
         "caps": [2, 3, 4, 5, 6]},
        _fock_inputs, lambda inputs: (),
        lambda inputs, ctx: fock_stage(inputs, ctx["thr"], ctx["seed"]),
        fock_entries,
        lambda rep: (rep["identities"],
                     ["id", "max_deviation", "tolerance", "pass", "trivial"])),
}


def _context(thr, seed, **objects):
    return {"thr": thr, "seed": seed, "reports": {}, **objects}


def _run_stage(name, inputs, ctx):
    """Build one stage in ctx; returns its report and bundle entries."""
    stage = _STAGES[name]
    report = stage.build(inputs, ctx)
    ctx["reports"][name] = report
    return report, stage.entries(report, ctx["thr"])


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
    ctx = _context(cfg.thresholds, cfg.seed)
    entries = []
    for name in cfg.pipeline:
        try:
            entries.extend(_run_stage(name, cfg.inputs[name], ctx)[1])
        except GPRegimeError as exc:
            raise type(exc)(f"stage {name!r} aborted: {exc}") from exc
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate lemma entries in bundle")
    return LemmaReportBundle(entries=tuple(entries),
                             stage_reports=ctx["reports"], seed=cfg.seed)


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

class _Json(str):
    """JSON text that _dumps writes as it is, indented to its place."""


def _dumps(obj, pad="\n"):
    """json.dumps(obj, indent=2, sort_keys=True) with pad starting each line,
    byte for byte: scalars and keys by the C encoder, a list of finite floats
    by one join of float.__repr__, _Json text re-indented (JSON holds no raw
    newline), and empty containers and non-string keys by json.dumps."""
    inner = pad + "  "
    if isinstance(obj, _Json):
        return obj.replace("\n", pad)
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        return "{" + inner + ("," + inner).join(
            _SCALARS.encode(k) + ": " + _dumps(obj[k], inner)
            for k in sorted(obj)) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        floats = all(type(v) is float for v in obj) and math.isfinite(sum(obj))
        return "[" + inner + ("," + inner).join(
            map(float.__repr__, obj) if floats
            else (_dumps(v, inner) for v in obj)) + pad + "]"
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    return _SCALARS.encode(obj)


def _emit(report, out, table):
    """Write the report's JSON text (_dumps) to out and its (rows, columns)
    table, if it has rows, to the .csv sibling, columns defaulting to the
    first row's keys sorted and floats written by repr; with no out, print
    the text."""
    text = _dumps(report)
    if out is None:
        print(text)
        return
    with open(out, "w") as fh:
        fh.write(text + "\n")
    if not table or not table[0]:
        return
    rows, columns = table
    with open(os.path.splitext(out)[0] + ".csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns or sorted(rows[0]),
                                lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except ValueError as exc:  # not UTF-8, or not JSON
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


def _stage_command(name, params, out, seed=0, profile=None, objects=dict):
    """Run one stage on params, its unset (None) ones dropped, and emit
    its report with the entries added; objects() gives what the stage
    takes from earlier stages, once params have parsed, and profile(ctx)
    the CSV of a stage without a table."""
    inputs = _parse_stage(name, {k: v for k, v in params.items()
                                 if v is not None})
    ctx = _context(_DEFAULT_THRESHOLDS, seed, **objects())
    report, entries = _run_stage(name, inputs, ctx)
    report["entries"] = entries
    table = _STAGES[name].table
    _emit(report, out, table(report) if table else profile and profile(ctx))
    return 0 if all(e["pass"] for e in entries) else 1


def cmd_scatter(args):
    return _stage_command("scatter", {
        "ell": args.ell, "n": args.n,
        "potential": args.potential and _load_json(args.potential,
                                                   "potential"),
        "sweep_nl": args.sweep and _parse_sweep_arg(args.sweep, ["nl"])[1],
    }, args.out)


def cmd_gp(args):
    params = {"a0": args.a0, "tol": args.tol,
              "trap": args.trap and _load_json(args.trap, "trap")}
    return _stage_command("gp", params, args.out, profile=lambda ctx: (
        [{"r": float(r), "phi": float(p)}
         for r, p in zip(ctx["state"].grid, ctx["state"].phi)], ["r", "phi"]))


def cmd_kernels(args):
    # a report's stage keys parse as that stage's config does; one that
    # lacks a key saying what ran is refused, not defaulted
    inputs = {}
    for name, keys in (("scatter", ("potential",)), ("gp", ("trap", "a0"))):
        report = _load_json(getattr(args, name), f"{name} report")
        if not isinstance(report, dict) or any(k not in report for k in keys):
            raise ConfigError(f"{name} report lacks {' or '.join(keys)}")
        params = {k: report[k] for k in report if k in _STAGES[name].defaults}
        # a scatter report keeps what it ran at: ell, n and n_pts under
        # grids, and each ball nl as a sweep row's big_ell
        grids = report.get("grids", {}) if name == "scatter" else {}
        rows = report.get("sweep", []) if name == "scatter" else []
        if not isinstance(grids, dict):
            raise ConfigError(f"{name} report grids must be an object")
        if not isinstance(rows, list) or not all(
                isinstance(r, dict) and "big_ell" in r for r in rows):
            raise ConfigError(f"{name} report sweep must be a list of rows "
                              f"with big_ell")
        params.update({k: grids[k] for k in ("ell", "n", "n_pts")
                       if k in grids})
        if rows:
            params["sweep_nl"] = [r["big_ell"] for r in rows]
        inputs[name] = _parse_stage(name, params)
    trap, a0, tol = inputs["gp"]
    if a0 == "from:scatter":
        raise ConfigError("gp report a0 must be a number")
    # the minimizer runs only once the kernels flags have parsed
    return _stage_command("kernels", {
        "alpha": args.alpha, "beta": args.beta,
        "ells": args.sweep and _parse_sweep_arg(args.sweep, ["ell"])[1],
    }, args.out, objects=lambda: {
        "scatter": inputs["scatter"],
        "state": minimize_gp(trap, float(a0), tol=tol)})


def cmd_fock(args):
    params = {"modes": args.modes, "ncap": args.ncap,
              "suites": args.suite and [s for chunk in args.suite
                                        for s in chunk.split(",") if s]}
    return _stage_command("fock", params, args.out, seed=_seed(args.seed))


def cmd_run(args):
    data = _load_json(args.config, "config") if args.config \
        else default_config()
    cfg = parse_config(data)
    bundle = run(cfg)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out_dir = args.out or None
    stages = {name: _Json(_dumps(rep))  # encoded once, for both files
              for name, rep in bundle.stage_reports.items()}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, rep in bundle.stage_reports.items():
            table = _STAGES[name].table
            _emit(stages[name], os.path.join(out_dir, f"{name}.json"),
                  table and table(rep))
    _emit({**bundle.to_dict(timestamp=stamp), "stages": stages},
          out_dir and os.path.join(out_dir, "bundle.json"),
          (bundle.entries, ["id", "pass", "trivial"]))
    for e in bundle.entries:
        flag = "PASS" if e["pass"] else "FAIL"
        extra = " (trivial)" if e["trivial"] else ""
        print(f"{flag} {e['id']}{extra}")
    return 0 if bundle.all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpregime",
        description="Desk-scale checks for dilute-gas correlation numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text, out=None):
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", help=out)
        p.set_defaults(func=func)
        return p

    p = command("scatter", cmd_scatter, "zero-energy and ball-problem sweep")
    p.add_argument("--potential", help="potential JSON file")
    p.add_argument("--ell", type=float)
    p.add_argument("--n", type=float)
    p.add_argument("--sweep", help="nl=25,50,100,...")

    p = command("gp", cmd_gp, "minimizer, spectrum, decay constants")
    p.add_argument("--trap", help="trap JSON file")
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--tol", type=float)

    p = command("kernels", cmd_kernels, "cutoff kernel norms and slopes")
    p.add_argument("--scatter", required=True, help="scatter report JSON")
    p.add_argument("--gp", required=True, help="gp report JSON")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sweep", help="ell=0.5,0.25,0.125")

    p = command("fock", cmd_fock, "truncated operator-algebra suites")
    p.add_argument("--modes", type=int)
    p.add_argument("--ncap", type=int)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", action="append",
                   help="comma list from " + ",".join(_FOCK_SUITES))

    p = command("run", cmd_run, "full pipeline under one config",
                out="artifact directory")
    p.add_argument("--config", help="config JSON (defaults when omitted)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GPRegimeError, OSError) as exc:  # OSError: unreadable, unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 2
