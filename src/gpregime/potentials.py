"""Interaction and trap potentials with their standing-assumption checks.

Everything is radial and dimensionless in units where hbar = 2m = 1, so the
kinetic operator is exactly -Delta. An interaction is nonnegative with
compact support: samples on a grid, linear between nodes and zero beyond its
support radius, so it vanishes identically exactly when no sample it reads
is nonzero (`InteractionPotential.zero`). Construction rejects a negative
sample, and a square well's zero tail is structural. Traps are the fixed
monomials r^2 and r^4, evaluated in closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidDomainError

_MIN_NODES = 16

# the kinds InteractionPotential.from_dict reads, each with the objects it
# reads from the dict and the keys it reads from each of them
INTERACTION_KINDS = {
    "square_well": {"parameters": ("V0", "R"), "grid": ("n_pts",)},
    "custom": {"profile": ("grid", "samples", "tail")},
}


@dataclass(frozen=True)
class InteractionPotential:
    """Compactly supported nonnegative radial pair interaction.

    Samples on a strictly increasing grid from r >= 0, linear between
    nodes, equal to the first sample below the grid and zero beyond the
    last node and beyond support_radius.
    """

    grid: np.ndarray
    samples: np.ndarray
    support_radius: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "support_radius", float(self.support_radius))
        if grid.ndim != 1 or grid.size < _MIN_NODES:
            raise InvalidDomainError(f"need >= {_MIN_NODES} grid nodes, got {grid.size}")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise InvalidDomainError("grid must be strictly increasing with r0 >= 0")
        if samples.shape != grid.shape:
            raise InvalidDomainError("samples and grid shapes differ")
        if not 0.0 < self.support_radius < np.inf:
            raise InvalidDomainError("potential must have compact support")
        bad = np.flatnonzero(~(samples >= 0.0))
        if bad.size:
            i = int(bad[0])
            raise InvalidParameterError(
                f"interaction must be nonnegative: sample {i} at r = "
                f"{grid[i]:g} is {samples[i]:g}")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        vals = np.interp(r, self.grid, self.samples, left=self.samples[0], right=0.0)
        return np.where(r > self.support_radius, 0.0, vals)

    @property
    def zero(self):
        """V vanishes identically: no sample it reads, at the nodes up to R
        and the first past it, is nonzero."""
        last = np.searchsorted(self.grid, self.support_radius) + 1
        return not np.any(self.samples[:last])

    def to_dict(self):
        d = {"kind": self.kind, "parameters": dict(self.params),
             "grid": {"n_pts": int(self.grid.size)}}
        if self.kind == "custom":
            d["profile"] = {"grid": self.grid.tolist(),
                            "samples": self.samples.tolist(),
                            "tail": {"kind": "zero",
                                     "radius": self.support_radius}}
        return d

    @classmethod
    def from_dict(cls, d):
        if d["kind"] not in INTERACTION_KINDS:
            raise InvalidParameterError(
                f"unknown interaction kind {d['kind']!r}")
        if d["kind"] == "square_well":
            return make_square_well(d["parameters"]["V0"], d["parameters"]["R"],
                                    d["grid"]["n_pts"])
        prof = d["profile"]
        return cls(prof["grid"], prof["samples"], prof["tail"]["radius"],
                   params=d.get("parameters", {}))


def make_square_well(V0, R, n_pts):
    """Constant repulsion V0 on the ball of radius R, zero outside.

    The grid covers exactly [0, R]; the zero tail carries the rest, so the
    compact-support invariant is structural rather than sampled.
    """
    if R <= 0:
        raise InvalidParameterError(f"support radius must be positive, got {R}")
    if n_pts < _MIN_NODES:
        raise InvalidParameterError(f"need >= {_MIN_NODES} nodes, got {n_pts}")
    grid = np.linspace(0.0, float(R), int(n_pts))
    return InteractionPotential(grid, np.full(grid.shape, float(V0)), R,
                                kind="square_well",
                                params={"V0": float(V0), "R": float(R)})


_TRAP_FORMS = {"harmonic": 2, "quartic": 4}  # kind -> power of r


@dataclass(frozen=True)
class TrapPotential:
    """Confining potential r^2 (harmonic) or r^4 (quartic) in closed form,
    with the grid [0, r_max] of n_pts nodes that it names."""

    kind: str
    r_max: float
    n_pts: int

    def __call__(self, r):
        return np.asarray(r, dtype=float) ** _TRAP_FORMS[self.kind]

    def to_dict(self):
        return {"kind": self.kind, "parameters": {"r_max": self.r_max},
                "grid": {"n_pts": self.n_pts}}


def make_trap(kind, n_pts, r_max):
    """Harmonic (r^2) or quartic (r^4) trap on [0, r_max]."""
    if r_max <= 0:
        raise InvalidDomainError(f"r_max must be positive, got {r_max}")
    if kind not in _TRAP_FORMS:
        raise InvalidParameterError(f"unknown trap kind {kind!r}")
    return TrapPotential(kind, float(r_max), int(n_pts))
