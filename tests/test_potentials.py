"""Construction and assumption checks for interaction and trap potentials."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from gpregime.potentials import (
    RadialProfile,
    InteractionPotential,
    make_square_well,
    make_trap,
    validate,
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
    assert harm.gradient(3.0) == 6.0
    assert harm.laplacian(7.7) == 6.0
    assert quart.gradient(2.0) == 32.0
    assert quart.laplacian(2.0) == 80.0
    with pytest.raises(InvalidParameterError):
        make_trap("octic", 128, 10.0)
    with pytest.raises(InvalidDomainError):
        make_trap("harmonic", 128, -1.0)


def test_trap_submultiplicativity_on_lattice():
    harm = make_trap("harmonic", 128, 10.0)
    rep = validate(harm)
    ok, witness = rep["submultiplicative"]
    assert ok, witness
    assert witness["C_sub"] == 2.0
    quart = make_trap("quartic", 128, 10.0)
    ok_q, witness_q = validate(quart)["submultiplicative"]
    assert ok_q and witness_q["C_sub"] == 8.0


def test_submultiplicativity_witness_stable_under_refinement():
    coarse = validate(make_trap("harmonic", 64, 10.0))["submultiplicative"][1]
    fine = validate(make_trap("harmonic", 1024, 10.0))["submultiplicative"][1]
    # trap evaluation is closed-form so the lattice witness cannot drift
    assert abs(coarse["max_ratio"] - fine["max_ratio"]) < 0.01 * coarse["max_ratio"]


def test_validate_passes_for_reference_inputs():
    assert validate(make_square_well(2.0, 1.0, 256)).passed
    assert validate(make_trap("harmonic", 128, 10.0)).passed
    assert validate(make_trap("quartic", 128, 10.0)).passed


def test_validate_reports_negative_node():
    grid = np.linspace(0.0, 1.0, 32)
    samples = np.ones_like(grid)
    samples[7] = -0.25
    profile = RadialProfile(grid, samples, {"kind": "zero", "radius": 1.0})
    bad = InteractionPotential(profile, 1.0, 1.0)
    rep = validate(bad)
    ok, witness = rep["nonnegative"]
    assert not ok
    assert witness["node_index"] == 7
    assert not rep.passed


@settings(max_examples=40, deadline=None)
@given(
    v0=st.floats(min_value=0.0, max_value=50.0),
    R=st.floats(min_value=0.05, max_value=4.0),
    n=st.integers(min_value=16, max_value=400),
)
def test_validate_accepts_all_square_wells(v0, R, n):
    rep = validate(make_square_well(v0, R, n))
    assert rep.passed, rep.to_dict()


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
