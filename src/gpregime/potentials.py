"""Interaction and trap potentials with their standing-assumption checks.

Everything is radial and dimensionless in units where hbar = 2m = 1, so the
kinetic operator is exactly -Delta. Interactions are nonnegative with compact
support; traps are even polynomials growing at infinity. Construction
enforces these assumptions: an interaction with a negative sample is
rejected, a square well's zero tail is structural, and traps are the fixed
monomials r^2 and r^4. A custom profile without a zero tail has no finite
support radius, and the scattering solvers refuse it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidDomainError
from .radial import radial_moment

_MIN_NODES = 16
_TAIL_KINDS = ("zero", "constant", "monomial")


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
        if self.tail.get("kind") not in _TAIL_KINDS:
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


_TRAP_FORMS = {"harmonic": 2, "quartic": 4}  # kind -> power of r


@dataclass(frozen=True)
class TrapPotential:
    """Polynomial confining potential r**(2k), exact between nodes."""

    profile: RadialProfile
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
    profile = _monomial_profile(1.0, _TRAP_FORMS[kind], r_max, n_pts)
    return TrapPotential(profile, kind, params={"r_max": float(r_max)})
