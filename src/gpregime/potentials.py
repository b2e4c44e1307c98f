"""Interaction and trap potentials with their standing-assumption checks.

Everything is radial and dimensionless in units where hbar = 2m = 1, so the
kinetic operator is exactly -Delta. Interactions are nonnegative with compact
support; traps are even polynomials growing at infinity. The validator
re-checks those assumptions on sampled data and reports witnesses instead of
raising, so deliberately broken inputs can be inspected.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidDomainError
from .radial import radial_moment

_MIN_NODES = 16


@dataclass(frozen=True)
class RadialProfile:
    """A radial function: samples on a strictly increasing grid plus tail info.

    tail is one of
      {"kind": "zero", "radius": R}            exactly zero for r > R
      {"kind": "constant", "value": c, "radius": R}   equal to c for r > R
      {"kind": "monomial", "coeff": c, "power": k}   c * r**k for all r
    A monomial tail doubles as a closed form valid on the whole axis, which
    keeps trap evaluation exact between nodes.
    """

    grid: np.ndarray
    samples: np.ndarray
    tail: dict = field(default_factory=lambda: {"kind": "zero", "radius": 0.0})

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)
        if grid.ndim != 1 or grid.size < _MIN_NODES:
            raise InvalidDomainError(f"need >= {_MIN_NODES} grid nodes, got {grid.size}")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise InvalidDomainError("grid must be strictly increasing with r0 >= 0")
        if samples.shape != grid.shape:
            raise InvalidDomainError("samples and grid shapes differ")
        if self.tail.get("kind") not in ("zero", "constant", "monomial"):
            raise InvalidParameterError(f"unknown tail kind {self.tail.get('kind')!r}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.tail["kind"] == "monomial":
            return self.tail["coeff"] * r ** self.tail["power"]
        vals = np.interp(r, self.grid, self.samples, left=self.samples[0], right=0.0)
        outside = self.tail["value"] if self.tail["kind"] == "constant" else 0.0
        return np.where(r > self.tail["radius"], outside, vals)

    @property
    def support_radius(self):
        if self.tail["kind"] == "zero":
            return float(self.tail["radius"])
        return np.inf

    def to_dict(self):
        return {
            "grid": self.grid.tolist(),
            "samples": self.samples.tolist(),
            "tail": dict(self.tail),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["grid"]), np.asarray(d["samples"]), dict(d["tail"]))


def _monomial_profile(coeff, power, r_max, n_pts):
    grid = np.linspace(0.0, r_max, n_pts)
    return RadialProfile(grid, coeff * grid ** power,
                         {"kind": "monomial", "coeff": float(coeff), "power": int(power)})


# the kinds InteractionPotential.from_dict reads, each with the objects it
# reads from the dict and the keys it reads from each of them
INTERACTION_KINDS = {
    "square_well": {"parameters": ("V0", "R"), "grid": ("n_pts",)},
    "custom": {"profile": ("grid", "samples", "tail")},
}


@dataclass(frozen=True)
class InteractionPotential:
    """Compactly supported nonnegative radial pair interaction."""

    profile: RadialProfile
    support_radius: float
    l3_norm: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, r):
        return self.profile(r)

    def to_dict(self):
        d = {"kind": self.kind, "parameters": dict(self.params),
             "grid": {"n_pts": int(self.profile.grid.size)}}
        if self.kind == "custom":
            d["profile"] = self.profile.to_dict()
        return d

    @classmethod
    def from_dict(cls, d):
        if d["kind"] not in INTERACTION_KINDS:
            raise InvalidParameterError(
                f"unknown interaction kind {d['kind']!r}")
        if d["kind"] == "square_well":
            return make_square_well(d["parameters"]["V0"], d["parameters"]["R"],
                                    d["grid"]["n_pts"])
        profile = RadialProfile.from_dict(d["profile"])
        return _wrap_interaction(profile, kind="custom", params=d.get("parameters", {}))


def _wrap_interaction(profile, kind, params):
    bad = np.flatnonzero(~(profile.samples >= 0.0))
    if bad.size:
        i = int(bad[0])
        raise InvalidParameterError(
            f"interaction must be nonnegative: sample {i} at r = "
            f"{profile.grid[i]:g} is {profile.samples[i]:g}")
    R = profile.support_radius
    h = profile.grid[1] - profile.grid[0] if profile.grid.size > 1 else 1.0
    l3 = (4.0 * np.pi * radial_moment(profile.samples ** 3, h, 2)) ** (1.0 / 3.0)
    return InteractionPotential(profile, R, l3, kind=kind, params=params)


def make_square_well(V0, R, n_pts):
    """Constant repulsion V0 on the ball of radius R, zero outside.

    The grid covers exactly [0, R]; the profile's zero tail carries the rest,
    so the compact-support invariant is structural rather than sampled.
    """
    if R <= 0:
        raise InvalidParameterError(f"support radius must be positive, got {R}")
    if V0 < 0:
        raise InvalidParameterError(f"well depth must be nonnegative, got {V0}")
    if n_pts < _MIN_NODES:
        raise InvalidParameterError(f"need >= {_MIN_NODES} nodes, got {n_pts}")
    grid = np.linspace(0.0, float(R), int(n_pts))
    samples = np.full(grid.shape, float(V0))
    profile = RadialProfile(grid, samples, {"kind": "zero", "radius": float(R)})
    # constant on a ball: ||V||_3 = V0 * (4 pi R^3 / 3)^(1/3), kept in closed
    # form so the value is independent of n_pts
    l3 = float(V0) * (4.0 * np.pi * R ** 3 / 3.0) ** (1.0 / 3.0)
    return InteractionPotential(profile, float(R), l3, kind="square_well",
                                params={"V0": float(V0), "R": float(R)})


_TRAP_FORMS = {
    # kind -> (power, gradient coeff/power, laplacian coeff/power, C_sub)
    "harmonic": {"power": 2, "grad": (2.0, 1), "lap": (6.0, 0), "C_sub": 2.0},
    "quartic": {"power": 4, "grad": (4.0, 3), "lap": (20.0, 2), "C_sub": 8.0},
}


@dataclass(frozen=True)
class TrapPotential:
    """Polynomial confining potential r**(2k) with closed-form derivatives."""

    profile: RadialProfile
    gradient: RadialProfile
    laplacian: RadialProfile
    growth_constant: float
    kind: str
    params: dict = field(default_factory=dict)

    def __call__(self, r):
        return self.profile(r)

    def to_dict(self):
        return {"kind": self.kind, "parameters": dict(self.params),
                "grid": {"n_pts": int(self.profile.grid.size)}}

    @classmethod
    def from_dict(cls, d):
        return make_trap(d["kind"], d["grid"]["n_pts"], d["parameters"]["r_max"])


def make_trap(kind, n_pts, r_max):
    """Harmonic (r^2) or quartic (r^4) trap on [0, r_max]."""
    if r_max <= 0:
        raise InvalidDomainError(f"r_max must be positive, got {r_max}")
    if kind not in _TRAP_FORMS:
        raise InvalidParameterError(f"unknown trap kind {kind!r}")
    spec = _TRAP_FORMS[kind]
    profile = _monomial_profile(1.0, spec["power"], r_max, n_pts)
    grad = _monomial_profile(*spec["grad"], r_max, n_pts)
    lap = _monomial_profile(*spec["lap"], r_max, n_pts)
    return TrapPotential(profile, grad, lap, spec["C_sub"], kind,
                         params={"r_max": float(r_max)})


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple  # of (name, passed: bool, witness: dict)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def __getitem__(self, name):
        for n, ok, witness in self.checks:
            if n == name:
                return ok, witness
        raise KeyError(name)

    def to_dict(self):
        return {n: {"passed": bool(ok), **w} for n, ok, w in self.checks}


def _lattice_radii(extent=5):
    """Radii |x|, |y|, |x+y| over the integer cube {-extent..extent}^3."""
    axis = np.arange(-extent, extent + 1, dtype=float)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts


def _check_submultiplicative(trap, extent=5):
    pts = _lattice_radii(extent)
    r = np.linalg.norm(pts, axis=1)
    v = trap(r)
    C = trap.growth_constant
    worst = 0.0
    # pairwise |x+y| in chunks; 1331^2 pairs at extent 5
    for lo in range(0, pts.shape[0], 128):
        block = pts[lo:lo + 128]
        rsum = np.linalg.norm(block[:, None, :] + pts[None, :, :], axis=-1)
        lhs = trap(rsum)
        rhs = C * (v[lo:lo + 128, None] + C) * (v[None, :] + C)
        worst = max(worst, float(np.max(lhs / rhs)))
    return worst  # <= 1 means the inequality holds on the lattice


def _fit_log_growth_rate(profile):
    """Largest local rate d/dr log(1 + |g|) on the sampled tail.

    Polynomial derivatives grow subexponentially so this stays modest; it is
    recorded as a witness, not gated.
    """
    r = profile.grid
    g = np.log1p(np.abs(profile.samples))
    rates = np.diff(g) / np.diff(r)
    return float(np.max(rates)) if rates.size else 0.0


def validate(p):
    """Check the standing assumptions for an interaction or trap potential.

    Failures become report entries with witness values; nothing raises, so
    intentionally broken profiles can be examined.
    """
    checks = []
    if isinstance(p, InteractionPotential):
        vmin = float(np.min(p.profile.samples))
        idx = int(np.argmin(p.profile.samples))
        checks.append(("nonnegative", vmin >= 0.0,
                       {"min_value": vmin, "node_index": idx}))
        compact = p.profile.tail["kind"] == "zero"
        if compact:
            beyond = p.profile.samples[p.profile.grid > p.profile.tail["radius"]]
            compact = beyond.size == 0 or not np.any(beyond)
        checks.append(("compact_support", compact,
                       {"support_radius": float(p.support_radius)}))
        checks.append(("l3_finite", np.isfinite(p.l3_norm),
                       {"l3_norm": float(p.l3_norm)}))
        checks.append(("radial_symmetry", True, {"representation": "radial"}))
    elif isinstance(p, TrapPotential):
        samples = p.profile.samples
        n = samples.size
        tail = samples[n // 2:]
        monotone = bool(np.all(np.diff(tail) >= 0))
        checks.append(("grows_monotonically", monotone,
                       {"tail_start": float(p.profile.grid[n // 2])}))
        # any even monomial gives ratio >= 4 between r_max and r_max/2;
        # bounded tails give ratio -> 1
        diverges = samples[-1] > 1.5 * max(samples[n // 2], 1e-300)
        checks.append(("diverges", bool(diverges),
                       {"value_at_rmax": float(samples[-1])}))
        worst = _check_submultiplicative(p)
        checks.append(("submultiplicative", worst <= 1.0 + 1e-12,
                       {"C_sub": float(p.growth_constant), "max_ratio": worst}))
        checks.append(("gradient_growth_rate", True,
                       {"fitted_rate": _fit_log_growth_rate(p.gradient)}))
        checks.append(("laplacian_growth_rate", True,
                       {"fitted_rate": _fit_log_growth_rate(p.laplacian)}))
    else:
        raise InvalidParameterError(f"cannot validate object of type {type(p).__name__}")
    return ValidationReport(tuple(checks))
