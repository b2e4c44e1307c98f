"""Construction and assumption checks for interaction and trap potentials."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gpregime.potentials import (
    InteractionPotential,
    make_square_well,
    make_trap,
)
from gpregime.radial import simpson
from gpregime.errors import InvalidParameterError, InvalidDomainError


def _custom(samples, radius=1.0):
    grid = np.linspace(0.0, 1.0, len(samples))
    return InteractionPotential.from_dict(
        {"kind": "custom", "parameters": {},
         "profile": {"grid": grid.tolist(), "samples": list(samples),
                     "tail": {"kind": "zero", "radius": radius}}})


def test_zero_well_is_trivial():
    v = make_square_well(0.0, 1.0, 64)
    assert v.zero
    assert np.all(v.samples == 0.0)
    assert v(np.array([0.5, 2.0])).tolist() == [0.0, 0.0]


def test_zero_is_decided_by_the_samples():
    assert _custom([0.0] * 17).zero
    assert not make_square_well(1e-300, 1.0, 64).zero
    # a second sample whose cube underflows is still a nonzero interaction
    assert not _custom([0.0, 1e-300] + [0.0] * 15).zero
    # a spike at the origin: V(0.03) = 26 on a 17-node grid over [0, 1]
    spike = _custom([50.0] + [0.0] * 16)
    assert not spike.zero
    assert_allclose(spike(0.03), 26.0, rtol=1e-12)
    # samples past the radius are never read, but the segment from the
    # last node below it to the first node past it is
    past = [0.0] * 16 + [1.0]
    assert _custom(past, radius=0.9).zero
    assert _custom(past, radius=0.9)(np.linspace(0.0, 2.0, 101)).max() == 0.0
    assert not _custom(past, radius=0.99).zero
    assert _custom(past, radius=0.99)(0.99) > 0.0


def test_square_well_profile_and_volume_integral():
    v = make_square_well(2.0, 1.0, 256)
    assert np.all(v.samples == 2.0)
    assert v(0.999) == 2.0 and v(1.001) == 0.0
    # int V d^3x = V0 * 4 pi / 3 for R = 1
    vol = 4 * np.pi * simpson(v.samples * v.grid ** 2, dx=v.grid[1])
    assert_allclose(vol, 2 * 4 * np.pi / 3, rtol=1e-10)


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
    # closed forms between the nodes and past r_max
    r = np.array([0.123, 7.7, 12.5])
    assert np.array_equal(harm(r), r ** 2)
    assert np.array_equal(quart(r), r ** 4)
    with pytest.raises(InvalidParameterError):
        make_trap("octic", 128, 10.0)
    with pytest.raises(InvalidDomainError):
        make_trap("harmonic", 128, -1.0)


def test_json_round_trip():
    well = make_square_well(2.0, 1.0, 256)
    again = InteractionPotential.from_dict(well.to_dict())
    assert np.array_equal(again.grid, well.grid)
    assert np.array_equal(again.samples, well.samples)
    assert again.support_radius == well.support_radius
    with pytest.raises(InvalidParameterError, match="interaction kind"):
        InteractionPotential.from_dict(dict(well.to_dict(), kind="abc"))

    custom = _custom(np.linspace(1.0, 0.0, 20), radius=1.0).to_dict()
    assert custom["profile"]["tail"] == {"kind": "zero", "radius": 1.0}
    assert InteractionPotential.from_dict(custom).to_dict() == custom

    trap = make_trap("quartic", 128, 9.0)
    d = trap.to_dict()
    assert d == {"kind": "quartic", "parameters": {"r_max": 9.0},
                 "grid": {"n_pts": 128}}
    assert make_trap(d["kind"], d["grid"]["n_pts"],
                     d["parameters"]["r_max"]) == trap


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
    assert not InteractionPotential.from_dict(d).zero


def test_profile_rejects_bad_grids():
    with pytest.raises(InvalidDomainError):
        InteractionPotential(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    grid = np.linspace(0, 1, 20)
    bad = grid.copy()
    bad[5] = bad[4]
    with pytest.raises(InvalidDomainError):
        InteractionPotential(bad, np.ones_like(bad), 1.0)
    with pytest.raises(InvalidDomainError):
        InteractionPotential(grid - 0.5, np.ones_like(grid), 1.0)
    with pytest.raises(InvalidDomainError):
        InteractionPotential(grid, np.ones(19), 1.0)
    for radius in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidDomainError, match="compact support"):
            InteractionPotential(grid, np.ones_like(grid), radius)
