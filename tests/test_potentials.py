"""Construction and assumption checks for interaction and trap potentials."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpregime.potentials import (
    RadialProfile,
    InteractionPotential,
    make_square_well,
    make_trap,
)
from gpregime.radial import radial_moment
from gpregime.errors import InvalidParameterError, InvalidDomainError


def test_zero_well_is_trivial():
    v = make_square_well(0.0, 1.0, 64)
    assert v.l3_norm == 0.0
    assert np.all(v.profile.samples == 0.0)
    assert v(np.array([0.5, 2.0])).tolist() == [0.0, 0.0]


def test_square_well_profile_and_volume_integral():
    v = make_square_well(2.0, 1.0, 256)
    assert np.all(v.profile.samples == 2.0)
    assert v(0.999) == 2.0 and v(1.001) == 0.0
    # int V d^3x = V0 * 4 pi / 3 for R = 1
    vol = 4 * np.pi * radial_moment(v.profile.samples, v.profile.grid[1], 2)
    assert_allclose(vol, 2 * 4 * np.pi / 3, rtol=1e-10)
    assert_allclose(v.l3_norm, 2.0 * (4 * np.pi / 3) ** (1 / 3), rtol=1e-12)


def test_square_well_parameter_validation():
    with pytest.raises(InvalidParameterError):
        make_square_well(2.0, -1.0, 64)
    with pytest.raises(InvalidParameterError):
        make_square_well(2.0, 0.0, 64)
    with pytest.raises(InvalidParameterError):
        make_square_well(-0.1, 1.0, 64)
    with pytest.raises(InvalidParameterError):
        make_square_well(1.0, 1.0, 8)


def test_trap_values_and_derivatives():
    harm = make_trap("harmonic", 128, 10.0)
    quart = make_trap("quartic", 128, 10.0)
    assert harm(2.0) == 4.0
    assert quart(2.0) == 16.0
    with pytest.raises(InvalidParameterError):
        make_trap("octic", 128, 10.0)
    with pytest.raises(InvalidDomainError):
        make_trap("harmonic", 128, -1.0)


def test_json_round_trip():
    well = make_square_well(2.0, 1.0, 256)
    again = InteractionPotential.from_dict(well.to_dict())
    assert np.array_equal(again.profile.grid, well.profile.grid)
    assert np.array_equal(again.profile.samples, well.profile.samples)
    assert again.l3_norm == well.l3_norm
    with pytest.raises(InvalidParameterError, match="interaction kind"):
        InteractionPotential.from_dict(dict(well.to_dict(), kind="abc"))

    trap = make_trap("quartic", 128, 9.0)
    t2 = type(trap).from_dict(trap.to_dict())
    assert t2.kind == "quartic"
    assert np.array_equal(t2.profile.grid, trap.profile.grid)


def test_custom_interaction_rejects_negative_samples():
    grid = np.linspace(0.0, 1.5, 32)
    samples = np.ones_like(grid)
    samples[5] = -1e-3
    d = {"kind": "custom", "parameters": {},
         "profile": {"grid": grid.tolist(), "samples": samples.tolist(),
                     "tail": {"kind": "zero", "radius": 1.5}}}
    with pytest.raises(InvalidParameterError, match="sample 5"):
        InteractionPotential.from_dict(d)
    d["profile"]["samples"] = np.abs(samples).tolist()
    assert InteractionPotential.from_dict(d).l3_norm > 0.0


def test_profile_rejects_bad_grids():
    with pytest.raises(InvalidDomainError):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    grid = np.linspace(0, 1, 20)
    bad = grid.copy()
    bad[5] = bad[4]
    with pytest.raises(InvalidDomainError):
        RadialProfile(bad, np.ones_like(bad))
    with pytest.raises(InvalidDomainError):
        RadialProfile(grid - 0.5, np.ones_like(grid))
