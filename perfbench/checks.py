"""Output checks for one `gpregime run` operation.

Every check compares an artifact with a number computed here, apart from
the program, or with a property the method must have: closed forms, the
virial identity of the GP minimizer, scaling slopes refitted by our own
least squares, exact zeros of the rational-arithmetic mode, and
determinism between operations. No check compares with a stored copy of
an earlier output.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp

import workloads

A0_RTOL = 1e-6
VIRIAL_RTOL = 1e-6
PAIR_SLOPE_TOL = 0.2
LOWPASS_L1_TOL = 1e-8
RATE_SLOPE, RATE_SLOPE_TOL = -1.0, 0.15
FOCK_FLOAT_TOL = 1e-12
ENERGY_IDENTITY_TOL = 1e-10
# p in the trap r^p: the virial identity of the minimizer is
# 2 T - p V_trap + 3 E_int = 0 (dilations x -> s x of a normalized state)
TRAP_POWER = {"pipeline_default": 2, "scatter_smooth": 4}
# the exponents of pipeline_default, as the built-in default config sets them
ALPHA = 4.0

ARTIFACTS = {
    "pipeline_default": ["bundle.json", "bundle.csv", "scatter.json",
                         "scatter.csv", "gp.json", "kernels.json",
                         "kernels.csv", "fock.json", "fock.csv"],
    "scatter_smooth": ["bundle.json", "bundle.csv", "scatter.json",
                       "scatter.csv", "gp.json"],
    "fock_m4c5": ["bundle.json", "bundle.csv", "fock.json", "fock.csv"],
}


def load_artifacts(out_dir, names):
    """Raw bytes of each named artifact file in `out_dir`."""
    out = {}
    for name in names:
        with open(f"{out_dir}/{name}", "rb") as fh:
            out[name] = fh.read()
    return out


def _strip_timestamp(raw):
    return b"\n".join(line for line in raw.split(b"\n")
                      if not line.lstrip().startswith(b'"timestamp"'))


def compare_bytes(first, other):
    """Failures where `other` differs from `first` apart from the timestamp."""
    fails = []
    if sorted(first) != sorted(other):
        fails.append(f"artifact sets differ: {sorted(first)} vs {sorted(other)}")
    for name in sorted(set(first) & set(other)):
        if _strip_timestamp(first[name]) != _strip_timestamp(other[name]):
            fails.append(f"{name} differs from the first operation's")
    return fails


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def smooth_a0_reference():
    """Scattering length of the scatter_smooth interaction by solve_ivp.

    Integrates u'' = (V/2) u with u(0) = 0, u'(0) = 1 over the support,
    V linearly interpolated between the same samples the program gets;
    beyond the support u is linear, so a0 = R - u(R)/u'(R).
    """
    grid, samples = workloads.smooth_profile()
    R = workloads.SMOOTH_RADIUS

    def rhs(r, y):
        return [y[1], 0.5 * float(np.interp(r, grid, samples)) * y[0]]

    sol = solve_ivp(rhs, (0.0, R), [0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, max_step=grid[1] - grid[0])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    u, du = sol.y[0, -1], sol.y[1, -1]
    return R - u / du


def reference(workload):
    """Numbers the checks of `workload` compare with, computed here."""
    if workload == "pipeline_default":
        # square well V0 = 2, R = 1 under u'' = (V/2) u: a0 = 1 - tanh(1)
        return {"a0": 1.0 - math.tanh(1.0)}
    if workload == "scatter_smooth":
        return {"a0": smooth_a0_reference()}
    return {}


def _rel(a, b):
    return abs(a - b) / abs(b)


def _check_bundle(bundle, fails):
    if bundle.get("all_pass") is not True:
        fails.append("bundle all_pass is not true")
    for e in bundle["entries"]:
        if e.get("pass") is not True:
            fails.append(f"bundle entry {e['id']} does not pass")


def _check_a0(scatter, ref, fails):
    if not _rel(scatter["a0"], ref["a0"]) <= A0_RTOL:
        fails.append(f"a0 {scatter['a0']!r} is not within {A0_RTOL} "
                     f"of the reference {ref['a0']!r}")


def _check_virial(gp, power, fails):
    e = gp["energies"]
    defect = 2.0 * e["kinetic"] - power * e["trap"] + 3.0 * e["interaction"]
    if not abs(defect) <= VIRIAL_RTOL * abs(e["total"]):
        fails.append(f"virial identity 2T - {power}V + 3I = {defect:.3e} "
                     f"exceeds {VIRIAL_RTOL} of total {e['total']!r}")


def _check_fock(fock, fails):
    if fock.get("exact_mode") is not True:
        fails.append("fock exact mode did not run")
    for ident in fock["identities"]:
        name, dev = ident["id"], ident["max_deviation"]
        if ident.get("pass") is not True:
            fails.append(f"fock identity {name} does not pass")
        if name.endswith("-float"):
            limit = FOCK_FLOAT_TOL
        elif name == "excitation-energy-identity":
            limit = ENERGY_IDENTITY_TOL
        else:
            limit = 0.0  # exact-mode zero tests and growth verdicts
        if not dev <= limit:
            fails.append(f"fock identity {name} deviates by {dev!r} > {limit}")
    growth = fock["growth"]
    for key in ("pair", "cubic"):
        if key in growth and any(r != 1.0 for r in growth[key]["trivial_ratios"]):
            fails.append(f"zero {key} generator ratios are not exactly 1: "
                         f"{growth[key]['trivial_ratios']}")
    if "remainder" in growth and growth["remainder"]["trivial_ratio"] != 0.0:
        fails.append("zero-generator remainder ratio is not exactly 0: "
                     f"{growth['remainder']['trivial_ratio']!r}")


def check_artifacts(workload, out_dir, ref, first=None):
    """(failures, artifacts) of one operation that exited 0.

    `first` holds the artifacts of the run's first operation, which every
    later one must match byte for byte apart from the timestamp.
    """
    try:
        arts = load_artifacts(out_dir, ARTIFACTS[workload])
        fails = check_operation(workload, arts, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"artifacts unreadable: {exc!r}"], None
    if first is not None:
        fails += compare_bytes(first, arts)
    return fails, arts


def check_operation(workload, artifacts, ref):
    """Failures of one operation's artifacts; an empty list means correct."""
    data = {name: json.loads(raw) for name, raw in artifacts.items()
            if name.endswith(".json")}
    fails = []
    _check_bundle(data["bundle.json"], fails)
    if workload in ("pipeline_default", "scatter_smooth"):
        _check_a0(data["scatter.json"], ref, fails)
        _check_virial(data["gp.json"], TRAP_POWER[workload], fails)
    if workload == "pipeline_default":
        rows = data["kernels.json"]["rows"]
        slope = loglog_slope([r["ell"] for r in rows],
                             [r["eta_l2"] for r in rows])
        if not abs(slope - ALPHA / 2.0) <= PAIR_SLOPE_TOL:
            fails.append(f"eta_l2 slope {slope:.4f} is not within "
                         f"{PAIR_SLOPE_TOL} of {ALPHA / 2.0}")
        for r in rows:
            if not abs(r["gauss_l1"] - 1.0) <= LOWPASS_L1_TOL:
                fails.append(f"gauss_l1 {r['gauss_l1']!r} at ell {r['ell']} "
                             f"is not within {LOWPASS_L1_TOL} of 1")
        _check_fock(data["fock.json"], fails)
    if workload == "scatter_smooth":
        rows = data["scatter.json"]["sweep"]
        slope = loglog_slope([r["big_ell"] for r in rows],
                             [r["i_deviation"] for r in rows])
        if not abs(slope - RATE_SLOPE) <= RATE_SLOPE_TOL:
            fails.append(f"i_deviation slope {slope:.4f} is not within "
                         f"{RATE_SLOPE_TOL} of {RATE_SLOPE}")
    if workload == "fock_m4c5":
        space = data["fock.json"]["space"]
        if space["dim"] != math.comb(4 + 5, 4):
            fails.append(f"fock space dim {space['dim']} != C(9, 4) = 126")
        _check_fock(data["fock.json"], fails)
    return fails

