"""Pipeline driver tests: config validation, slope fits, bundle assembly.

The full default pipeline runs once as a module fixture (~10 s) and most
bundle assertions read from it. Error paths use hand-built configs and
never touch the solvers. Subcommand tests call main() in-process with
artifact files under tmp_path, checking exit codes and emitted formats.
"""

import contextlib
import copy
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpregime import cli
from gpregime.errors import ConfigError, GPRegimeError, InvalidParameterError
from gpregime.potentials import make_square_well, make_trap


EXPECTED_IDS = [
    "scattering-length-oracle",
    "neumann-eigenvalue-rate",
    "potential-integral-uniformity",
    "dip-volume-and-decay",
    "dip-fourier-p2-bound",
    "gp-energy-oracle",
    "gp-multiplier-identity",
    "linearization-spectral-gap",
    "minimizer-decay-constants",
    "pair-kernel-scaling",
    "cubic-kernel-scaling",
    "hyperbolic-remainder-scaling",
    "modified-commutators",
    "excitation-map-conjugations",
    "excitation-energy-identity",
    "quadratic-growth",
    "cubic-growth",
    "field-remainder-scaling",
]


def _custom_potential(**profile):
    """A small valid custom interaction with profile entries replaced."""
    grid = np.linspace(0.0, 1.5, 64)
    prof = {"grid": grid.tolist(), "samples": (1.0 - grid / 1.5).tolist(),
            "tail": {"kind": "zero", "radius": 1.5}}
    prof.update(profile)
    return {"kind": "custom", "parameters": {}, "profile": prof}


# custom potentials that InteractionPotential.from_dict cannot read, or
# (a constant tail) whose support is not compact
BAD_PROFILES = [
    _custom_potential(tail={"kind": "zero"}),
    _custom_potential(tail={"kind": "zero", "radius": "abc"}),
    _custom_potential(tail=[{"kind": "zero", "radius": 1.5}]),
    _custom_potential(samples="abc"),
    {**_custom_potential(), "parameters": "abc"},
    _custom_potential(tail={"kind": "constant", "value": 0.5,
                            "radius": 1.5}),
]


def _comparable(inputs):
    """Stage inputs with the potential and the trap as their dicts."""
    return {name: tuple(v.to_dict() if hasattr(v, "to_dict") else v
                        for v in values)
            for name, values in inputs.items()}


@pytest.fixture(scope="module")
def default_bundle():
    return cli.run(cli.default_config())


def _stub_stages(mp, reports, ran):
    """Replace the four stage functions with fast ones that record their
    name in ran: scatter, gp and kernels hand back copies of reports (the
    stage reports of a real run), and fock runs the real stage on a small
    space, so the run's seed still reaches numpy."""
    small = cli.FockInputs(modes=2, ncap=2, caps=(2,), suites=("ccr",))
    fock_stage = cli.fock_stage
    stubs = {
        "scatter_stage": lambda inputs: (dict(reports["scatter"]), None),
        "gp_stage": lambda inputs, thr: (dict(reports["gp"]), None),
        "kernels_stage": lambda inputs, *objects: dict(reports["kernels"]),
        "fock_stage": lambda inputs, thr, seed: fock_stage(small, thr, seed),
    }
    for name, stub in stubs.items():
        mp.setattr(cli, name, lambda *a, name=name, stub=stub: (
            ran.append(name), stub(*a))[1])


def _key_paths(node, path=()):
    """The path of every dict value and list entry inside node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _leaf_paths(node, path=""):
    """Dotted path of every leaf inside a JSON value; a list entry is []."""
    if isinstance(node, dict):
        return {p for k, v in node.items()
                for p in _leaf_paths(v, f"{path}.{k}" if path else k)}
    if isinstance(node, list):
        return {p for v in node for p in _leaf_paths(v, path + "[]")}
    return {path}


# the leaf paths of each stage artifact of the default config; the
# computing modules fill these tables, so a change to one shows here
REPORT_LAYOUT = {
    "scatter": """
        a0 a0_integral_route grids.ball_radius grids.ell grids.n
        grids.n_pts lambda_ell lemma30.i.deviation lemma30.i.ratio
        lemma30.ii.weighted_defect lemma30.iii.sup_w_weighted
        lemma30.iii.sup_wp_weighted lemma30.iii.volume_moment
        lemma30.iii.volume_moment_weighted lemma30.iv.sup_p2_what
        potential.grid.n_pts potential.kind potential.parameters.R
        potential.parameters.V0 richardson_defect sweep[].N sweep[].a0
        sweep[].big_ell sweep[].ell sweep[].i_deviation
        sweep[].i_ratio sweep[].ii_weighted sweep[].iii_moment
        sweep[].iii_moment_weighted sweep[].iii_sup_w
        sweep[].iii_sup_wp sweep[].int_Vf sweep[].int_w
        sweep[].iv_sup_p2 sweep[].lambda_ell sweep[].radius trivial""".split(),
    "gp": """
        a0 decay_constants.nu=1.c_dphi decay_constants.nu=1.c_lap
        decay_constants.nu=1.c_phi decay_constants.nu=1.divergent
        decay_constants.nu=2.c_dphi decay_constants.nu=2.c_lap
        decay_constants.nu=2.c_phi decay_constants.nu=2.divergent
        decay_constants.nu=4.c_dphi decay_constants.nu=4.c_lap
        decay_constants.nu=4.c_phi decay_constants.nu=4.divergent
        energies.interaction energies.kinetic energies.total
        energies.trap eps_gp fourier.argmax_p fourier.sup_weighted
        iterations multiplier_defect residual spectrum.gap
        spectrum.ground_overlap spectrum.lambda0 spectrum.lambda1 tol
        tol_applied trap.grid.n_pts trap.kind trap.parameters.r_max""".split(),
    "kernels": """
        alpha beta rows[].N rows[].alpha rows[].beta rows[].big_ell
        rows[].cutoff_momentum rows[].ell rows[].eta_defect
        rows[].eta_grad_l2 rows[].eta_l2 rows[].eta_pointwise_ratio
        rows[].eta_row_sup rows[].g_hat_zero rows[].g_sup_p2
        rows[].gauss_l1 rows[].gauss_l2 rows[].grad_p_norm
        rows[].hn_l2 rows[].hn_limit_gap rows[].hn_sup
        rows[].lap_p_norm rows[].nu_defect rows[].nu_l2
        rows[].nu_row_sup rows[].nu_sup_p2 rows[].p_norm rows[].r_norm
        rows[].series_depth rows[].tail_bound tuples[][]""".split(),
    "fock": """
        caps[] exact_mode growth.cubic.table.k=-1[].ratios[]
        growth.cubic.table.k=-1[].sup growth.cubic.table.k=-1[].t_norm
        growth.cubic.table.k=-2[].ratios[]
        growth.cubic.table.k=-2[].sup growth.cubic.table.k=-2[].t_norm
        growth.cubic.table.k=1[].ratios[] growth.cubic.table.k=1[].sup
        growth.cubic.table.k=1[].t_norm
        growth.cubic.table.k=2[].ratios[] growth.cubic.table.k=2[].sup
        growth.cubic.table.k=2[].t_norm growth.cubic.trivial_ratios[]
        growth.pair.generator_norm growth.pair.table.n=-1.caps[]
        growth.pair.table.n=-1.ratios[] growth.pair.table.n=-1.sup
        growth.pair.table.n=-2.caps[] growth.pair.table.n=-2.ratios[]
        growth.pair.table.n=-2.sup growth.pair.table.n=0.caps[]
        growth.pair.table.n=0.ratios[] growth.pair.table.n=0.sup
        growth.pair.table.n=1.caps[] growth.pair.table.n=1.ratios[]
        growth.pair.table.n=1.sup growth.pair.table.n=2.caps[]
        growth.pair.table.n=2.ratios[] growth.pair.table.n=2.sup
        growth.pair.trivial_ratios[]
        growth.remainder.table.n=-1.caps[]
        growth.remainder.table.n=-1.ratio_times_cap[]
        growth.remainder.table.n=0.caps[]
        growth.remainder.table.n=0.ratio_times_cap[]
        growth.remainder.table.n=1.caps[]
        growth.remainder.table.n=1.ratio_times_cap[]
        growth.remainder.trivial_ratio identities[].id
        identities[].max_deviation identities[].pass
        identities[].tolerance identities[].trivial seed space.dim
        space.modes space.ncap suites[]""".split(),
}

# the leaf paths of each bundle entry of the default config, by id, apart
# from id, pass and trivial, which every entry has, pass and trivial as
# bools; the entry functions fill these, so a change to one shows here
ENTRY_LAYOUT = {
    "scattering-length-oracle": """
        quantities.a0 quantities.a0_integral_route
        quantities.identity_rel_defect""".split(),
    "neumann-eigenvalue-rate": """
        quantities.big_ell[] quantities.deviations[]
        slopes.deviation.pass slopes.deviation.slope
        slopes.deviation.trivial""".split(),
    "potential-integral-uniformity": """
        quantities.max_over_min quantities.weighted_defects[]""".split(),
    "dip-volume-and-decay": """
        quantities.pointwise_sups[]
        quantities.volume_moment_weighted[]""".split(),
    "dip-fourier-p2-bound": """
        quantities.stability quantities.sup_p2[]""".split(),
    "gp-energy-oracle": """
        quantities.energies.interaction
        quantities.energies.kinetic quantities.energies.total
        quantities.energies.trap quantities.iterations
        quantities.residual""".split(),
    "gp-multiplier-identity": """
        quantities.defect quantities.eps_gp""".split(),
    "linearization-spectral-gap": """
        quantities.gap quantities.ground_overlap
        quantities.lambda0 quantities.lambda1""".split(),
    "minimizer-decay-constants": """
        quantities.decay_constants.nu=1.c_dphi
        quantities.decay_constants.nu=1.c_lap
        quantities.decay_constants.nu=1.c_phi
        quantities.decay_constants.nu=1.divergent
        quantities.decay_constants.nu=2.c_dphi
        quantities.decay_constants.nu=2.c_lap
        quantities.decay_constants.nu=2.c_phi
        quantities.decay_constants.nu=2.divergent
        quantities.decay_constants.nu=4.c_dphi
        quantities.decay_constants.nu=4.c_lap
        quantities.decay_constants.nu=4.c_phi
        quantities.decay_constants.nu=4.divergent
        quantities.fourier_sup""".split(),
    "pair-kernel-scaling": """
        quantities.eta_l2[] quantities.grad_over_sqrt_n[]
        quantities.grad_spread quantities.row_sup[]
        slopes.eta_l2.pass slopes.eta_l2.slope
        slopes.eta_l2.trivial""".split(),
    "cubic-kernel-scaling": """
        quantities.gauss_l1_defects[] quantities.gauss_l2[]
        quantities.nu_l2[] slopes.gauss_l2.pass
        slopes.gauss_l2.slope slopes.gauss_l2.trivial
        slopes.nu_l2.pass slopes.nu_l2.slope
        slopes.nu_l2.trivial""".split(),
    "hyperbolic-remainder-scaling": """
        quantities.p_norm[] quantities.r_norm[]
        quantities.slope_floor slopes.p_norm.pass
        slopes.p_norm.slope slopes.p_norm.trivial
        slopes.r_norm.pass slopes.r_norm.slope
        slopes.r_norm.trivial""".split(),
    "modified-commutators": """
        quantities.modified-commutators-exact
        quantities.modified-commutators-float""".split(),
    "excitation-map-conjugations": """
        quantities.excitation-map-conjugations-exact
        quantities.excitation-map-conjugations-float""".split(),
    "excitation-energy-identity": """
        quantities.excitation-energy-identity
        quantities.excitation-energy-identity-exact""".split(),
    "quadratic-growth": """
        quantities.quadratic-growth
        quantities.quadratic-growth-exact
        quantities.quadratic-growth-trivial""".split(),
    "cubic-growth": """
        quantities.cubic-growth quantities.cubic-growth-trivial""".split(),
    "field-remainder-scaling": """
        quantities.field-remainder-scaling
        quantities.field-remainder-trivial""".split(),
}


# the default config, and one shaped like the scatter_smooth workload: a
# custom profile of 64 samples and a quartic trap
MUTATED_CONFIGS = {
    "default": cli.default_config(),
    "custom": {
        "schema_version": 1, "seed": 7, "pipeline": ["scatter", "gp"],
        "stages": {"scatter": {"potential": _custom_potential(), "ell": 0.5,
                               "n": 64, "sweep_nl": [25.0, 50.0, 100.0]},
                   "gp": {"trap": {"kind": "quartic",
                                   "parameters": {"r_max": 6.0},
                                   "grid": {"n_pts": 1600}},
                          "a0": "from:scatter", "tol": 1e-11}}},
}
LEAVES = [(name, path) for name, raw in MUTATED_CONFIGS.items()
          for path in _key_paths(raw)]
LEAF_MUTATIONS = {"abc": "abc", "nan": float("nan"), "-1": -1, "0": 0}


def _mutated(raw, path, how):
    """A copy of raw with the value at path dropped, replaced by one of
    LEAF_MUTATIONS, or wrapped in the wrong container."""
    raw = copy.deepcopy(raw)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "container":
        parent[key] = {} if isinstance(parent[key], list) else [parent[key]]
    else:
        parent[key] = LEAF_MUTATIONS[how]
    return raw


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------

class TestFitSlope:
    def test_power_law_recovered(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        fit = cli.fit_slope([(x, 3.0 * x ** 2) for x in xs], 2.0, 0.01)
        assert fit["pass"] and not fit["trivial"]
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_wrong_expected_fails(self):
        xs = [1.0, 2.0, 4.0]
        fit = cli.fit_slope([(x, x ** 2) for x in xs], -1.0, 0.5)
        assert not fit["pass"]
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_all_zero_is_trivial_pass(self):
        fit = cli.fit_slope([(1.0, 0.0), (2.0, 0.0), (4.0, 0.0)], -1.5, 0.1)
        assert fit == {"slope": -1.5, "pass": True, "trivial": True}

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            cli.fit_slope([(1.0, 1.0), (2.0, 4.0)], 2.0, 0.1)

    def test_nonpositive_abscissa(self):
        with pytest.raises(InvalidParameterError):
            cli.fit_slope([(1.0, 1.0), (-2.0, 4.0), (4.0, 16.0)], 2.0, 0.1)

    def test_mixed_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            cli.fit_slope([(1.0, 0.0), (2.0, 4.0), (4.0, 16.0)], 2.0, 0.1)

    def test_sign_of_y_ignored(self):
        xs = [1.0, 2.0, 4.0]
        fit = cli.fit_slope([(x, -(x ** 3)) for x in xs], 3.0, 1e-9)
        assert fit["pass"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestConfig:
    def test_default_parses_and_round_trips(self):
        raw = cli.default_config()
        cfg = cli.parse_config(raw)
        assert cfg.raw == raw
        assert cfg.seed == 7
        assert cfg.pipeline == ("scatter", "gp", "kernels", "fock")

    def test_unknown_top_key(self):
        raw = cli.default_config()
        raw["banana"] = 1
        with pytest.raises(ConfigError, match="banana"):
            cli.parse_config(raw)

    def test_schema_version_checked(self):
        raw = cli.default_config()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            cli.parse_config(raw)

    def test_seed_must_be_int(self):
        raw = cli.default_config()
        raw["seed"] = "7"
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(raw)
        raw["seed"] = True
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(raw)
        # numpy's generators take no negative seed
        raw["seed"] = -1
        with pytest.raises(ConfigError, match="seed"):
            cli.parse_config(raw)

    def test_pipeline_nonempty_unique_known(self):
        raw = cli.default_config()
        raw["pipeline"] = []
        with pytest.raises(ConfigError):
            cli.parse_config(raw)
        raw["pipeline"] = ["scatter", "scatter"]
        with pytest.raises(ConfigError, match="unique"):
            cli.parse_config(raw)
        raw["pipeline"] = ["scatter", "warp"]
        with pytest.raises(ConfigError, match="warp"):
            cli.parse_config(raw)

    def test_unknown_stage_key_named(self):
        raw = cli.default_config()
        raw["stages"]["gp"]["shimmer"] = 1.0
        with pytest.raises(ConfigError, match="shimmer.*gp"):
            cli.parse_config(raw)

    def test_unknown_threshold_named(self):
        raw = cli.default_config()
        raw["thresholds"]["nope"] = 0.5
        with pytest.raises(ConfigError, match="nope"):
            cli.parse_config(raw)

    def test_kernels_needs_upstream(self):
        raw = cli.default_config()
        raw["pipeline"] = ["kernels"]
        with pytest.raises(ConfigError, match="kernels.*scatter"):
            cli.parse_config(raw)
        raw["pipeline"] = ["scatter", "kernels", "gp"]
        with pytest.raises(ConfigError, match="kernels.*gp"):
            cli.parse_config(raw)

    def test_gp_from_scatter_needs_scatter(self):
        raw = cli.default_config()
        raw["pipeline"] = ["gp"]
        with pytest.raises(ConfigError, match="scatter"):
            cli.parse_config(raw)

    def test_gp_alone_with_explicit_a0(self):
        raw = cli.default_config()
        raw["pipeline"] = ["gp"]
        raw["stages"]["gp"]["a0"] = 0.1
        cfg = cli.parse_config(raw)
        assert cfg.pipeline == ("gp",)

    def test_threshold_overrides_merge(self):
        raw = cli.default_config()
        raw["thresholds"] = {"gp_residual": 1e-3}
        cfg = cli.parse_config(raw)
        thr = cfg.thresholds
        assert thr["gp_residual"] == 1e-3
        assert thr["a0_identity_rtol"] == 1e-6

    def test_empty_stage_objects_parse_to_the_defaults(self):
        raw = cli.default_config()
        empty = dict(raw, stages={name: {} for name in raw["stages"]})
        assert (_comparable(cli.parse_config(empty).inputs)
                == _comparable(cli.parse_config(raw).inputs))

    @pytest.mark.parametrize("stage", list(cli._STAGES))
    def test_stage_accepts_exactly_the_keys_of_its_defaults(self, stage):
        keys = set(cli._STAGES[stage].defaults)
        assert keys == set(cli.default_config()["stages"][stage])
        for key in keys:
            cli._parse_stage(stage, {key: cli._STAGES[stage].defaults[key]})
        with pytest.raises(ConfigError, match=f"'bogus' in stage '{stage}'"):
            cli._parse_stage(stage, {"bogus": 1})


# ---------------------------------------------------------------------------
# bundle assembly
# ---------------------------------------------------------------------------

class TestBundle:
    def test_every_lemma_exactly_once(self, default_bundle):
        ids = [e["id"] for e in default_bundle.entries]
        assert sorted(ids) == sorted(EXPECTED_IDS)
        assert len(ids) == len(set(ids))

    def test_default_config_all_pass(self, default_bundle):
        failing = [e["id"] for e in default_bundle.entries if not e["pass"]]
        assert failing == []
        assert default_bundle.all_pass

    def test_entry_accessor(self, default_bundle):
        e = default_bundle.entry("gp-energy-oracle")
        assert e["pass"]
        with pytest.raises(InvalidParameterError):
            default_bundle.entry("no-such-lemma")

    def test_slopes_recorded_where_fitted(self, default_bundle):
        rate = default_bundle.entry("neumann-eigenvalue-rate")
        assert rate["slopes"]["deviation"]["slope"] == pytest.approx(
            -1.0, abs=0.15)
        pair = default_bundle.entry("pair-kernel-scaling")
        assert pair["slopes"]["eta_l2"]["slope"] == pytest.approx(2.0,
                                                                  abs=0.2)

    def test_to_dict_timestamp_optional(self, default_bundle):
        plain = default_bundle.to_dict()
        stamped = default_bundle.to_dict(timestamp="2026-01-01T00:00:00Z")
        assert "timestamp" not in plain
        assert stamped["timestamp"] == "2026-01-01T00:00:00Z"
        stamped.pop("timestamp")
        assert plain == stamped

    def test_stage_reports_follow_pipeline(self, default_bundle):
        assert sorted(default_bundle.stage_reports) == [
            "fock", "gp", "kernels", "scatter"]

    def test_stage_report_layout(self, default_bundle):
        for name, layout in REPORT_LAYOUT.items():
            report = json.loads(json.dumps(default_bundle.stage_reports[name]))
            assert sorted(_leaf_paths(report)) == layout, name

    def test_bundle_entry_layout(self, default_bundle):
        entries = json.loads(json.dumps(default_bundle.to_dict()))["entries"]
        assert [e["id"] for e in entries] == list(ENTRY_LAYOUT)
        for entry in entries:
            assert sorted(_leaf_paths(entry)) == sorted(
                ["id", "pass", "trivial", *ENTRY_LAYOUT[entry["id"]]])
            assert type(entry["pass"]) is bool, entry["id"]
            assert type(entry["trivial"]) is bool, entry["id"]

    def test_json_serializable(self, default_bundle):
        text = json.dumps(default_bundle.to_dict(), sort_keys=True)
        assert "NaN" not in text


class TestPipelineSubsets:
    def test_fock_only(self):
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        bundle = cli.run(raw)
        ids = [e["id"] for e in bundle.entries]
        assert ids == EXPECTED_IDS[12:]
        assert bundle.all_pass

    def test_scatter_then_gp(self):
        raw = cli.default_config()
        raw["pipeline"] = ["scatter", "gp"]
        bundle = cli.run(raw)
        ids = [e["id"] for e in bundle.entries]
        assert ids == EXPECTED_IDS[:9]
        assert bundle.all_pass

    def test_unknown_fock_suite_aborts_with_stage(self):
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"]["suites"] = ["ccr", "warp"]
        with pytest.raises(ConfigError, match="fock"):
            cli.run(raw)

    def test_determinism_across_runs(self):
        raw = cli.default_config()
        raw["pipeline"] = ["scatter", "fock"]
        raw["stages"]["fock"] = {"modes": 2, "ncap": 3,
                                 "suites": ["ccr", "un", "bgrowth"]}
        a = cli.run(raw).to_dict()
        b = cli.run(copy.deepcopy(raw)).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_fock_report(self):
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"] = {"modes": 2, "ncap": 3, "suites": ["ccr"]}
        a = cli.run(raw)
        raw2 = copy.deepcopy(raw)
        raw2["seed"] = 8
        b = cli.run(raw2)
        assert a.seed != b.seed


class TestZeroPotential:
    def test_trivially_zero_passes(self):
        raw = cli.default_config()
        raw["stages"]["scatter"]["potential"]["parameters"]["V0"] = 0.0
        raw["stages"]["gp"]["a0"] = 0.0
        bundle = cli.run(raw)
        assert bundle.all_pass
        for eid in EXPECTED_IDS[:5] + EXPECTED_IDS[9:12]:
            entry = bundle.entry(eid)
            assert entry["pass"], eid
            assert entry["trivial"], eid
        # the free trap problem is a real computation, not a trivial pass
        assert not bundle.entry("gp-energy-oracle")["trivial"]

    @staticmethod
    def _scatter(tmp_path, samples):
        """gpregime scatter on a custom interaction, samples on [0, 1]
        with a zero tail at 1; returns the exit code and the report."""
        grid = np.linspace(0.0, 1.0, len(samples))
        pot = {"kind": "custom", "parameters": {},
               "profile": {"grid": grid.tolist(), "samples": samples,
                           "tail": {"kind": "zero", "radius": 1.0}}}
        path, out = tmp_path / "potential.json", tmp_path / "scatter.json"
        path.write_text(json.dumps(pot))
        code = cli.main(["scatter", "--potential", str(path),
                         "--out", str(out)])
        return code, json.loads(out.read_text()) if code == 0 else None

    def test_an_all_zero_profile_is_trivial(self, tmp_path):
        code, rep = self._scatter(tmp_path, [0.0] * 17)
        assert code == 0
        assert rep["trivial"] and rep["a0"] == 0.0
        assert all(e["trivial"] for e in rep["entries"])

    def test_a_spike_is_not_trivial(self, tmp_path):
        # V = 50 at r = 0 and 0 from r = 1/16 on, so V(0.03) = 26: its L^3
        # norm by Simpson on the nodes is 0, but it scatters
        from scipy.integrate import solve_ivp
        samples = [50.0] + [0.0] * 16
        code, rep = self._scatter(tmp_path, samples)
        assert code == 0
        assert rep["trivial"] is False
        assert all(e["pass"] and not e["trivial"] for e in rep["entries"])
        grid = np.linspace(0.0, 1.0, 17)
        sol = solve_ivp(
            lambda r, y: [y[1], 0.5 * float(np.interp(r, grid, samples))
                          * y[0]],
            (0.0, 1.0), [0.0, 1.0], method="DOP853", rtol=1e-12,
            atol=1e-14, max_step=grid[1])
        a0 = 1.0 - sol.y[0, -1] / sol.y[1, -1]
        assert rep["a0"] == pytest.approx(a0, rel=1e-6)

    def test_a_16_node_spike_fails_the_richardson_certificate(
            self, tmp_path, capsys):
        # its kinks at j/15 fall between the well grid's nodes, so the
        # coarse and fine RK4 crossings disagree (ROADMAP item 1)
        assert self._scatter(tmp_path, [50.0] + [0.0] * 15)[0] == 2
        assert "boundary defect" in capsys.readouterr().err

    def test_a_tiny_interaction_is_a_solver_failure(self, tmp_path, capsys):
        # V0 = 1e-20 is not zero, but its a0 lies below every scattering
        # length the Neumann probe grid implies, so lam has no bracket
        raw = cli.default_config()
        raw["pipeline"] = ["scatter"]
        raw["stages"]["scatter"]["potential"]["parameters"]["V0"] = 1e-20
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(cfgp),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "no sign change of the Neumann mismatch" in err


# ---------------------------------------------------------------------------
# stage-level checks against the solver modules
# ---------------------------------------------------------------------------

class TestScatterStage:
    def test_report_shape(self):
        rep, base = cli.scatter_stage(cli._parse_stage(
            "scatter", {"ell": 0.5, "n": 64, "sweep_nl": [25.0, 50.0, 100.0]}))
        assert (base.ell, base.N_param) == (0.5, 64.0)
        assert rep["lambda_ell"] == base.lambda_ell
        assert rep["a0"] == pytest.approx(1.0 - np.tanh(1.0), rel=1e-6)
        assert {"i", "ii", "iii", "iv"} <= set(rep["lemma30"])
        assert len(rep["sweep"]) == 3
        assert all(r["big_ell"] == r["N"] * r["ell"] for r in rep["sweep"])

    def test_reference_solve_runs_at_the_stage_n_pts(self, monkeypatch):
        # the zero-energy reference, a0 included, at the Neumann solves'
        # n_pts, not at solve_zero_energy's default
        seen = []
        real = cli.solve_zero_energy

        def reference(potential, **kwargs):
            seen.append(kwargs.get("n_pts"))
            return real(potential, **kwargs)
        monkeypatch.setattr(cli, "solve_zero_energy", reference)
        inputs = cli._parse_stage("scatter", {
            "n_pts": 8192, "sweep_nl": [25.0, 50.0, 100.0]})
        rep, _ = cli.scatter_stage(inputs)
        assert seen == [8192]
        assert rep["grids"]["n_pts"] == 8192
        assert rep["a0"] == real(inputs.potential, n_pts=8192).a0


class TestGpStage:
    def test_multiplier_identity_to_roundoff(self):
        rep, state = cli.gp_stage(cli._parse_stage("gp", {"a0": 0.2}),
                                  cli._DEFAULT_THRESHOLDS)
        assert rep["multiplier_defect"] < 1e-12
        assert rep["spectrum"]["lambda1"] > 0.0
        assert state.a0 == 0.2

    def test_reports_the_tolerance_that_applied(self, default_bundle):
        # the default trap grid has h = 8 / 800, so the residual's roundoff
        # floor 5e-15 / h^2 = 5e-11 overrides the requested tol of 1e-11
        rep = default_bundle.stage_reports["gp"]
        assert rep["tol"] == 1e-11
        assert rep["tol_applied"] == pytest.approx(5e-11, rel=1e-12)
        assert rep["residual"] <= rep["tol_applied"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class TestCommandLine:
    def test_scatter_writes_json_and_csv(self, tmp_path):
        out = tmp_path / "scatter.json"
        code = cli.main(["scatter", "--ell", "0.5", "--n", "64",
                         "--sweep", "nl=25,50,100",
                         "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["a0"] == pytest.approx(1.0 - np.tanh(1.0), rel=1e-6)
        csv_path = tmp_path / "scatter.csv"
        header = csv_path.read_text().splitlines()[0].split(",")
        assert {"ell", "N", "i_ratio"} <= set(header)

    def test_gp_csv_profile_round_trips(self, tmp_path):
        out = tmp_path / "gp.json"
        code = cli.main(["gp", "--a0", "0.2", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "gp.csv").read_text().splitlines()
        assert lines[0] == "r,phi"
        r0, phi0 = lines[1].split(",")
        assert float(r0) == 0.0
        assert float(phi0) > 0.0

    def test_chained_artifacts(self, tmp_path):
        sc = tmp_path / "s.json"
        gp = tmp_path / "g.json"
        kr = tmp_path / "k.json"
        assert cli.main(["scatter", "--out", str(sc)]) == 0
        assert cli.main(["gp", "--a0", "0.2384058440442371",
                         "--out", str(gp)]) == 0
        code = cli.main(["kernels", "--scatter", str(sc), "--gp", str(gp),
                         "--alpha", "4", "--beta", "2",
                         "--sweep", "ell=0.5,0.25,0.125",
                         "--out", str(kr)])
        assert code == 0
        rep = json.loads(kr.read_text())
        slopes = {e["id"]: e for e in rep["entries"]}
        assert slopes["pair-kernel-scaling"]["pass"]

    @staticmethod
    def _kernels_reports(tmp_path, **scatter):
        """scatter and gp report files for `gpregime kernels`."""
        sc, gp = tmp_path / "scatter.json", tmp_path / "gp.json"
        sc.write_text(json.dumps(
            {"potential": make_square_well(2.0, 1.0, 512).to_dict(),
             **scatter}))
        gp.write_text(json.dumps({
            "trap": make_trap("harmonic", 800, 8.0).to_dict(), "a0": 0.2}))
        return ["kernels", "--scatter", str(sc), "--gp", str(gp)]

    @pytest.mark.parametrize("flags", [
        ["--alpha", "1", "--beta", "2"], ["--sweep", "ell=0.5,0.25"],
        ["--sweep", "nl=1,2,3"]])
    def test_kernels_flags_are_checked_before_the_gp_solve(
            self, tmp_path, capsys, monkeypatch, flags):
        ran = []
        monkeypatch.setattr(cli, "minimize_gp",
                            lambda *a, **k: ran.append("minimize_gp"))
        assert cli.main(self._kernels_reports(tmp_path) + flags) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert ran == []

    @staticmethod
    def _record_sweeps(monkeypatch, report):
        """Replace the kernel sweep by one that records its n_pts and
        returns report's rows."""
        swept = []

        def sweep(*args, n_pts, **kwargs):
            swept.append(n_pts)
            return report["rows"]

        monkeypatch.setattr(cli.kernels, "sweep_kernels", sweep)
        return swept

    @pytest.mark.parametrize("grids,code,n_pts", [
        (None, 0, 4096), ({"n_pts": 8192, "ell": 0.5}, 0, 8192),
        ({"n_pts": 100}, 2, None), ("abc", 2, None)])
    def test_kernels_rows_run_at_the_scatter_report_n_pts(
            self, tmp_path, monkeypatch, default_bundle, grids, code, n_pts):
        swept = self._record_sweeps(
            monkeypatch, default_bundle.stage_reports["kernels"])
        monkeypatch.setattr(cli, "minimize_gp", lambda *a, **k: None)
        argv = self._kernels_reports(
            tmp_path, **({} if grids is None else {"grids": grids}))
        assert cli.main(argv + ["--out", str(tmp_path / "k.json")]) == code
        assert swept == ([] if n_pts is None else [n_pts])

    @pytest.mark.parametrize("sweep,code", [
        ([{"big_ell": 50.0}, {"big_ell": 100.0}, {"big_ell": 200.0}], 0),
        ([{"big_ell": 50.0}, {"big_ell": 100.0}, {"big_ell": 20.0}], 2),
        ([{"N": 100.0}], 2), (None, 2)])
    def test_kernels_read_the_balls_a_scatter_report_ran_at(
            self, tmp_path, monkeypatch, default_bundle, sweep, code):
        # R = 30 exceeds the default sweep's first ball, 25, so only the
        # report's own balls (ell * n = 64 and each big_ell) parse
        swept = self._record_sweeps(
            monkeypatch, default_bundle.stage_reports["kernels"])
        monkeypatch.setattr(cli, "minimize_gp", lambda *a, **k: None)
        argv = self._kernels_reports(
            tmp_path, potential=make_square_well(0.002, 30.0, 512).to_dict(),
            grids={"ell": 0.5, "n": 128, "n_pts": 4096},
            **({} if sweep is None else {"sweep": sweep}))
        assert cli.main(argv + ["--out", str(tmp_path / "k.json")]) == code
        assert swept == ([4096] if code == 0 else [])

    def test_run_kernels_rows_run_at_the_scatter_n_pts(
            self, monkeypatch, default_bundle):
        reports = default_bundle.stage_reports
        swept = self._record_sweeps(monkeypatch, reports["kernels"])
        monkeypatch.setattr(cli, "scatter_stage", lambda inputs: (
            dict(reports["scatter"]), None))
        monkeypatch.setattr(cli, "gp_stage", lambda inputs, thr: (
            dict(reports["gp"]), None))
        raw = cli.default_config()
        raw["pipeline"] = ["scatter", "gp", "kernels"]
        raw["stages"]["scatter"]["n_pts"] = 8192
        cli.run(raw)
        assert swept == [8192]

    def test_fock_suite_selection(self, tmp_path):
        out = tmp_path / "fock.json"
        code = cli.main(["fock", "--modes", "2", "--ncap", "3",
                         "--seed", "7", "--suite", "ccr,un",
                         "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        names = {i["id"] for i in rep["identities"]}
        assert "modified-commutators-float" in names
        assert not any("growth" in n for n in names)

    def test_run_artifacts_and_exit(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"] = {"modes": 2, "ncap": 3, "suites": ["ccr"]}
        cfgp.write_text(json.dumps(raw))
        outdir = tmp_path / "arts"
        code = cli.main(["run", "--config", str(cfgp), "--out", str(outdir)])
        assert code == 0
        bundle = json.loads((outdir / "bundle.json").read_text())
        assert bundle["all_pass"] is True
        assert "timestamp" in bundle
        assert (outdir / "bundle.csv").exists()
        assert (outdir / "fock.json").exists()
        assert "PASS modified-commutators" in capsys.readouterr().out

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--potential", "--trap",
                                      "--scatter", "--gp"])
    @pytest.mark.parametrize("bad", ["directory", "latin-1"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys,
                                           monkeypatch, flag, bad):
        path = tmp_path / "input.json"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"a0": "café"}'.encode("latin-1"))
        ran = []
        monkeypatch.setattr(cli, "_run_stage", lambda *a: ran.append(a))
        monkeypatch.setattr(cli, "run", lambda *a: ran.append(a))
        argv = {"--config": ["run"], "--potential": ["scatter"],
                "--trap": ["gp", "--a0", "0.2"]}.get(flag)
        # a repeated flag takes its last value
        argv = argv or self._kernels_reports(tmp_path)
        assert cli.main(argv + [flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        assert ran == []

    @pytest.mark.parametrize("command", ["fock", "run"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "schema_version": 1, "seed": 7, "pipeline": ["fock"],
            "stages": {"fock": {"modes": 2, "ncap": 3, "suites": ["ccr"]}}}))
        # a directory that is missing, and one that is a file
        out = {"fock": tmp_path / "missing" / "x.json",
               "run": tmp_path / "file"}[command]
        (tmp_path / "file").write_text("")
        argv = {"fock": ["fock", "--modes", "2", "--ncap", "3", "--suite",
                         "ccr"],
                "run": ["run", "--config", str(cfgp)]}[command]
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_config_error_names_gap(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        raw = cli.default_config()
        raw["pipeline"] = ["kernels"]
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        assert "scatter" in capsys.readouterr().err

    def test_negative_interaction_exits_2(self, tmp_path, capsys):
        # V = -1 on [0, 1.5] once clamped to the zero potential and passed
        # every scatter entry as trivial; it breaks a standing assumption.
        grid = np.linspace(0.0, 1.5, 64)
        raw = cli.default_config()
        raw["pipeline"] = ["scatter"]
        raw["stages"] = {"scatter": {"potential": {
            "kind": "custom", "parameters": {},
            "profile": {"grid": grid.tolist(),
                        "samples": [-1.0] * grid.size,
                        "tail": {"kind": "zero", "radius": 1.5}}}}}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(cfgp),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("route", ["run", "fock"])
    def test_negative_seed_exits_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, route):
        # it once ended in a ValueError traceback from the fock stage,
        # after every earlier stage ran
        ran = []
        for name in ("scatter_stage", "gp_stage", "kernels_stage",
                     "fock_stage"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name: ran.append(name))
        if route == "run":
            raw = cli.default_config()
            raw["seed"] = -1
            cfgp = tmp_path / "cfg.json"
            cfgp.write_text(json.dumps(raw))
            argv = ["run", "--config", str(cfgp)]
        else:
            argv = ["fock", "--seed", "-1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert ran == []

    def test_negative_interaction_exits_2_before_an_earlier_stage(
            self, tmp_path, capsys, monkeypatch):
        # the potential is built while the config is parsed, so a broken
        # standing assumption stops the run before the fock stage ahead of
        # scatter
        ran = []
        for name in ("scatter_stage", "fock_stage"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name: ran.append(name))
        raw = cli.default_config()
        raw["pipeline"] = ["fock", "scatter"]
        samples = [1.0] * 64
        samples[10] = -1.0
        raw["stages"]["scatter"]["potential"] = _custom_potential(
            samples=samples)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert "nonnegative" in err and "Traceback" not in err
        assert ran == []

    @settings(max_examples=200, deadline=None)
    @given(leaf=st.sampled_from(LEAVES),
           how=st.sampled_from(["drop", "container", *LEAF_MUTATIONS]))
    @example(leaf=("default", ("seed",)), how="-1")
    @example(leaf=("custom", ("stages", "scatter", "potential", "profile",
                              "samples", 3)), how="-1")
    @example(leaf=("default", ("pipeline", 0)), how="container")
    def test_leaf_mutation_exits_2_exactly_when_parsing_raises(
            self, default_bundle, tmp_path_factory, leaf, how):
        # parsing returns or raises a GPRegimeError; run exits 2, before
        # any stage and without a traceback, exactly when it raised
        raw = _mutated(MUTATED_CONFIGS[leaf[0]], leaf[1], how)
        try:
            cli.parse_config(copy.deepcopy(raw))
            raised = False
        except GPRegimeError:
            raised = True
        cfgp = tmp_path_factory.getbasetemp() / "mutated.json"
        cfgp.write_text(json.dumps(raw))
        ran, err = [], io.StringIO()
        with pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            _stub_stages(mp, default_bundle.stage_reports, ran)
            code = cli.main(["run", "--config", str(cfgp)])
        assert (code == 2) == raised, err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
        assert ran == [] if raised else ran

    def test_each_stage_input_is_parsed_once(self, default_bundle, tmp_path,
                                             monkeypatch):
        parsed = []
        for name, stage in cli._STAGES.items():
            monkeypatch.setitem(cli._STAGES, name, stage._replace(
                parse=lambda params, name=name, parse=stage.parse: (
                    parsed.append(name), parse(params))[1]))
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cli.default_config()))
        with pytest.MonkeyPatch.context() as mp:
            _stub_stages(mp, default_bundle.stage_reports, [])
            assert cli.main(["run", "--config", str(cfgp)]) == 0
        assert sorted(parsed) == sorted(cli._STAGES)
        # each subcommand parses the inputs it runs on once; kernels also
        # parses the two reports it reads
        sc, gp = tmp_path / "scatter.json", tmp_path / "gp.json"
        sc.write_text(json.dumps(
            {"potential": make_square_well(2.0, 1.0, 512).to_dict()}))
        gp.write_text(json.dumps({
            "trap": make_trap("harmonic", 800, 8.0).to_dict(), "a0": 0.2}))
        for argv, want in [
                (["scatter", "--sweep", "nl=25,50,100"], ["scatter"]),
                (["gp", "--a0", "0.2"], ["gp"]),
                (["fock", "--modes", "2", "--ncap", "2", "--suite", "ccr"],
                 ["fock"]),
                (["kernels", "--scatter", str(sc), "--gp", str(gp)],
                 ["scatter", "gp", "kernels"])]:
            if argv[0] == "kernels":
                monkeypatch.setattr(cli, "minimize_gp", lambda *a, **k: None)
                monkeypatch.setattr(cli, "kernels_stage", lambda *a: dict(
                    default_bundle.stage_reports["kernels"]))
            parsed.clear()
            assert cli.main(argv + ["--out", str(tmp_path / "o.json")]) == 0
            assert parsed == want, argv

    def test_boolean_seed_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        raw = cli.default_config()
        raw["seed"] = True
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("caps", []), ("caps", [2, "3"]), ("caps", 4), ("modes", "x"),
        ("modes", True), ("modes", 0), ("ncap", -1), ("ncap", 2.5),
        ("suites", "ccr"), ("suites", ["ccr", "warp"]), ("suites", [])])
    def test_bad_fock_params_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(cli, "gp_stage", lambda *a: ran.append("gp"))
        raw = cli.default_config()
        raw["pipeline"] = ["gp", "fock"]
        raw["stages"]["gp"]["a0"] = 0.2
        raw["stages"]["fock"][key] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert "fock" in err and "Traceback" not in err
        assert ran == []

    def test_empty_fock_suite_flag_exits_2(self, capsys, monkeypatch):
        # "--suite ," once ran no suite and exited 0 with all_pass true
        ran = []
        monkeypatch.setattr(cli, "fock_stage", lambda *a: ran.append("fock"))
        assert cli.main(["fock", "--suite", ","]) == 2
        err = capsys.readouterr().err
        assert "fock suites" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        ("growth_spread", "abc"), ("fock_float_tol", "abc"),
        ("fock_float_tol", float("nan")), ("fock_float_tol", -1),
        ("fock_float_tol", True), ("energy_identity_tol", float("inf")),
        ("growth_spread", 0.0), ("remainder_spread", -1.0),
        ("eigenvalue_rate_slope", "abc"), ("decay_orders", "abc"),
        ("decay_orders", []), ("decay_orders", [1, -2]),
        ("decay_orders", [1, float("nan")]), ("decay_orders", [True]),
        ("cubic_growth_spread", 0.0)])
    def test_bad_thresholds_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(cli, "fock_stage", lambda *a: ran.append("fock"))
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["thresholds"] = {key: value}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        ("eigenvalue_rate_slope", -2.5), ("eigenvalue_rate_slope", 0.5),
        ("fock_float_tol", 0), ("gp_residual", 0.0), ("growth_spread", 1e-3),
        ("decay_orders", [0.5, 3])])
    def test_threshold_overrides_of_the_default_kind_accepted(self, key,
                                                              value):
        raw = cli.default_config()
        raw["thresholds"] = {key: value}
        assert cli.parse_config(raw).thresholds[key] == value

    @pytest.mark.parametrize("key,value", [
        ("ell", "abc"), ("ell", True), ("ell", 1.0), ("n", float("nan")),
        ("n", -64), ("n_pts", 100), ("n_pts", 4096.5), ("sweep_nl", 0),
        ("sweep_nl", []), ("sweep_nl", [25.0, 50.0, float("inf")]),
        ("sweep_nl", [25.0, 50.0, -50.0]), ("potential", {"kind": "abc"}),
        ("potential", "square_well"),
        ("potential", {"kind": "square_well", "parameters": {"R": 1.0}}),
        ("potential", {"kind": "custom", "parameters": {}}),
        ("potential", {"kind": ["square_well"]}),
        ("potential", {"kind": "square_well",
                       "parameters": {"V0": "abc", "R": 1.0},
                       "grid": {"n_pts": 512}}),
        ("potential", {"kind": "square_well",
                       "parameters": {"V0": 2.0, "R": float("nan")},
                       "grid": {"n_pts": 512}}),
        ("potential", {"kind": "square_well",
                       "parameters": {"V0": 2.0, "R": 1.0},
                       "grid": {"n_pts": "abc"}}),
        *[("potential", pot) for pot in BAD_PROFILES],
        # the rate slope needs 3 balls, and each must exceed R = 1
        ("sweep_nl", [25.0, 50.0]), ("sweep_nl", [0.5, 50.0, 100.0]),
        ("n", 1.5)])
    def test_bad_scatter_params_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(cli, "gp_stage", lambda *a: ran.append("gp"))
        raw = cli.default_config()
        raw["pipeline"] = ["gp", "scatter"]
        raw["stages"]["gp"]["a0"] = 0.2
        raw["stages"]["scatter"][key] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert f"scatter {key}" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("command", ["scatter", "kernels"])
    @pytest.mark.parametrize("pot", BAD_PROFILES)
    def test_bad_custom_profile_exits_2_through_the_subcommands(
            self, tmp_path, capsys, monkeypatch, pot, command):
        ran = []
        for name in ("scatter_stage", "kernels_stage", "minimize_gp"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name, **k: ran.append(name))
        if command == "scatter":
            path = tmp_path / "potential.json"
            path.write_text(json.dumps(pot))
            argv = ["scatter", "--potential", str(path)]
        else:
            sc, gp = tmp_path / "scatter.json", tmp_path / "gp.json"
            sc.write_text(json.dumps({"potential": pot}))
            gp.write_text(json.dumps({
                "trap": make_trap("harmonic", 800, 8.0).to_dict(),
                "a0": 0.2}))
            argv = ["kernels", "--scatter", str(sc), "--gp", str(gp)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "scatter potential" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        pytest.param("n", 10 ** 400, id="n"),
        pytest.param("potential",
                     _custom_potential(samples=[10 ** 400] + [0.0] * 63),
                     id="profile-sample")])
    def test_integer_beyond_float_range_exits_2(
            self, tmp_path, capsys, monkeypatch, key, value):
        # JSON integers have no size limit; this one overflows a float
        ran = []
        monkeypatch.setattr(cli, "scatter_stage",
                            lambda *a: ran.append("scatter"))
        raw = cli.default_config()
        raw["pipeline"] = ["scatter"]
        raw["stages"]["scatter"][key] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert f"scatter {key}" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        ("trap", {"kind": "harmonic", "parameters": {"r_max": 8.0}}),
        ("trap", {"kind": "harmonic", "parameters": {},
                  "grid": {"n_pts": 800}}),
        ("a0", "abc"), ("a0", "from:scatter"), ("tol", -1.0)])
    def test_bad_gp_report_exits_2_through_kernels(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        for name in ("kernels_stage", "minimize_gp"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name, **k: ran.append(name))
        report = {"trap": make_trap("harmonic", 800, 8.0).to_dict(),
                  "a0": 0.2, "tol": 1e-11, key: value}
        sc, gp = tmp_path / "scatter.json", tmp_path / "gp.json"
        sc.write_text(json.dumps(
            {"potential": make_square_well(2.0, 1.0, 512).to_dict()}))
        gp.write_text(json.dumps(report))
        argv = ["kernels", "--scatter", str(sc), "--gp", str(gp)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "gp" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        ("ells", "abc"), ("ells", []), ("ells", [0.5, 0.25]),
        ("ells", [0.5, 0.25, 2.0]), ("ells", [0.5, 0.25, "x"]),
        ("alpha", float("nan")), ("alpha", True), ("beta", 5.0),
        ("beta", 0.0), ("tol", 0.0), ("tol", "abc")])
    def test_bad_kernels_params_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(cli, "scatter_stage",
                            lambda *a: ran.append("scatter"))
        monkeypatch.setattr(cli, "gp_stage", lambda *a: ran.append("gp"))
        raw = cli.default_config()
        raw["pipeline"] = ["scatter", "gp", "kernels"]
        raw["stages"]["kernels"][key] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert "kernels" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.parametrize("key,value", [
        ("tol", "abc"), ("tol", -1), ("a0", "abc"),
        ("trap", {"kind": "harmonic", "parameters": {"r_max": 8.0}}),
        ("trap", {"kind": "harmonic", "parameters": {"r_max": float("nan")},
                  "grid": {"n_pts": 800}}),
        ("trap", {"kind": "abc", "parameters": {"r_max": 8.0},
                  "grid": {"n_pts": 800}})])
    def test_bad_gp_params_exit_2_before_any_stage(
            self, tmp_path, capsys, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(cli, "scatter_stage",
                            lambda *a: ran.append("scatter"))
        monkeypatch.setattr(cli, "gp_stage", lambda *a: ran.append("gp"))
        raw = cli.default_config()
        raw["pipeline"] = ["scatter", "gp"]
        raw["stages"]["gp"][key] = value
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert f"gp {key}" in err and "Traceback" not in err
        assert ran == []

    def test_oversized_growth_cap_exits_2_before_any_space(
            self, tmp_path, capsys, monkeypatch):
        # C(7 + 8, 7) = 6435 exceeds the exponential's dimension cap
        built = []
        monkeypatch.setattr(cli.fock, "build_fock_space",
                            lambda *a: built.append(a))
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"].update(modes=7, caps=[8])
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp)]) == 2
        err = capsys.readouterr().err
        assert "6435" in err and "Traceback" not in err
        assert built == []

    @pytest.mark.parametrize("suites", [None, ["bgrowth", "agrowth"]])
    def test_cap_below_two_exits_2_for_the_growth_suites(
            self, tmp_path, capsys, suites):
        # on one particle B and A vanish: the default suites ended in a
        # ZeroDivisionError from the deta spread, bgrowth and agrowth in
        # a failing quadratic-growth entry (exit 1)
        raw = cli.default_config()
        raw["pipeline"] = ["fock"]
        raw["stages"]["fock"] = {"modes": 2, "ncap": 2, "caps": [1, 2, 3]}
        if suites:
            raw["stages"]["fock"]["suites"] = suites
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "fock caps" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_one_exponential_per_generator_and_cap(self, monkeypatch):
        # every power reads one exponential per (generator, |t|, cap): at
        # caps 2..6, the cubic one at |t| = 0.5 and 1 on the whole space,
        # and the pair one on its two NUM-parity blocks; the zero
        # generators take none
        calls = []
        expm = cli.fock.expm

        def counted(mat):
            calls.append(mat.shape[0])
            return expm(mat)

        monkeypatch.setattr(cli.fock, "expm", counted)
        cli.fock_stage(cli._parse_stage("fock", {"modes": 4, "ncap": 5}),
                       cli._DEFAULT_THRESHOLDS, 7)
        # the remainder sweep reads the pair sweep's exponentials
        def states(parity, cap):  # C(n + 3, 3) states with NUM = n
            return sum(math.comb(n + 3, 3) for n in range(parity, cap + 1, 2))
        assert len(calls) == 20
        assert sorted(calls) == sorted(
            [math.comb(4 + c, 4) for c in range(2, 7)] * 2
            + [states(p, c) for c in range(2, 7) for p in (0, 1)])

    def test_one_float_algebra_per_space(self, monkeypatch):
        # ccr, un and ln at (4, 5); ln also at (2, 3), (3, 3) and (3, 4);
        # the growth and remainder sweeps at (4, 2..6)
        built = []
        algebra = cli.fock.algebra

        def counted(space, ns):
            if ns is cli.fock.FLOAT:
                built.append((space.M, space.N_cap))
            return algebra(space, ns)

        monkeypatch.setattr(cli.fock, "algebra", counted)
        cli.fock_stage(cli._parse_stage("fock", {"modes": 4, "ncap": 5}),
                       cli._DEFAULT_THRESHOLDS, 7)
        assert sorted(built) == sorted(
            [(4, c) for c in range(2, 7)] + [(2, 3), (3, 3), (3, 4)])

    def test_one_stage_builds_each_space_once(self, monkeypatch):
        # the exact mode runs on the stage's own (M, cap) space
        built = []
        space = cli.fock.FockSpace

        def counted(**fields):
            built.append((fields["M"], fields["N_cap"]))
            return space(**fields)

        monkeypatch.setattr(cli.fock, "FockSpace", counted)
        rep = cli.fock_stage(cli._parse_stage("fock", {"modes": 3, "ncap": 4}),
                             cli._DEFAULT_THRESHOLDS, 7)
        assert rep["exact_mode"] and (3, 4) in built
        assert len(built) == len(set(built))

    def test_exact_mode_only_for_suites_that_read_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.fockexact, "verify_exact_identities",
                            lambda *a, **k: calls.append(a))
        rep = cli.fock_stage(cli._parse_stage(
            "fock", {"modes": 2, "ncap": 2, "suites": ["agrowth"]}),
            cli._DEFAULT_THRESHOLDS, 7)
        assert calls == [] and rep["exact_mode"] is False

    def test_un_suite_forms_no_two_body_operator(self, tmp_path, monkeypatch):
        # --suite un reads the U_N and Gamma identities alone, so exact
        # mode skips the energy identity and with it H's two-body part;
        # the un entries match a run that also builds ln's
        calls = []
        two_body = cli.fock._two_body
        monkeypatch.setattr(cli.fock, "_two_body",
                            lambda *a: calls.append(a) or two_body(*a))

        def identities(suite):
            out = tmp_path / f"{suite}.json"
            assert cli.main(["fock", "--modes", "4", "--ncap", "5",
                             "--suite", suite, "--out", str(out)]) == 0
            return json.loads(out.read_text())["identities"]

        un = identities("un")
        assert calls == []
        assert [(i["id"], i["pass"]) for i in un] == [
            ("excitation-map-conjugations-float", True),
            ("excitation-map-conjugations-exact", True)]
        both = identities("un,ln")
        assert calls
        assert un == [i for i in both if i["id"].startswith("excitation-map")]

    def test_cubic_growth_spread_decides_cubic_growth(self):
        # a spread max/min is >= 1, so a bound of 1 fails every sweep
        def cubic_pass(bound):
            thr = dict(cli._DEFAULT_THRESHOLDS, cubic_growth_spread=bound)
            rep = cli.fock_stage(cli._parse_stage(
                "fock", {"modes": 2, "ncap": 2, "suites": ["agrowth"]}),
                thr, 7)
            (entry,) = [i for i in rep["identities"]
                        if i["id"] == "cubic-growth"]
            return entry["pass"]

        assert cubic_pass(2.0) and not cubic_pass(1.0)

    @pytest.mark.parametrize("argv", [
        ["run"], ["scatter"], ["gp", "--a0", "0.1"],
        ["kernels", "--scatter", "s.json", "--gp", "g.json"], ["fock"]],
        ids=lambda argv: argv[0])
    def test_run_has_no_format_option(self, capsys, argv):
        # --out names the JSON report; the table is always its .csv sibling
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,argv,params", [
        ("fock", ["--modes", "2", "--ncap", "2"], {"modes": 2, "ncap": 2}),
        ("scatter", ["--sweep", "nl=25,50,100"],
         {"sweep_nl": [25.0, 50.0, 100.0]})], ids=["fock", "scatter"])
    def test_subcommand_and_run_write_one_table(self, tmp_path, stage, argv,
                                                params):
        sub = tmp_path / "sub.json"
        assert cli.main([stage] + argv + ["--out", str(sub)]) == 0
        raw = cli.default_config()
        raw["pipeline"] = [stage]
        raw["stages"] = {stage: params}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfgp),
                         "--out", str(tmp_path / "arts")]) == 0
        assert ((tmp_path / "sub.csv").read_bytes()
                == (tmp_path / "arts" / f"{stage}.csv").read_bytes())

    def test_fock_stage_reads_every_exact_identity(self, monkeypatch):
        read, returned = set(), set()
        real = cli.fockexact.verify_exact_identities

        class Recorder(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            returned.update(out)
            return Recorder(out)

        monkeypatch.setattr(cli.fockexact, "verify_exact_identities",
                            recording)
        rep = cli.fock_stage(cli._parse_stage("fock",
                                              {"modes": 2, "ncap": 2}),
                             cli._DEFAULT_THRESHOLDS, 7)
        assert rep["exact_mode"] and returned
        assert read == returned

    @pytest.mark.parametrize("suite,entry_id", [
        ("ccr", "modified-commutators"),
        ("un", "excitation-map-conjugations"),
        ("ln", "excitation-energy-identity"),
        ("bgrowth", "quadratic-growth")])
    def test_failing_exact_suite_fails_its_entry(self, tmp_path, monkeypatch,
                                                 suite, entry_id):
        real = cli.fockexact.verify_exact_identities

        def broken(*args, **kwargs):
            return dict(real(*args, **kwargs), **{suite: False})

        monkeypatch.setattr(cli.fockexact, "verify_exact_identities", broken)
        out = tmp_path / "fock.json"
        assert cli.main(["fock", "--modes", "2", "--ncap", "2", "--suite",
                         "ccr,un,ln,bgrowth", "--out", str(out)]) == 1
        entries = json.loads(out.read_text())["entries"]
        assert len(entries) == 4
        assert [e["id"] for e in entries if not e["pass"]] == [entry_id]

    def test_import_loads_no_scipy(self):
        # start-up budget: the package's Simpson, Brent, FFT, banded solve,
        # Lanczos spectrum and matrix exponential all live on numpy
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, gpregime.cli; "
                "bad = sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'); "
                "assert not bad, bad")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_no_module_imports_scipy(self):
        # a lazy import inside a function would only move the cost into
        # the first operation, so none is allowed anywhere
        import ast
        from pathlib import Path
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert not found, found

    def test_import_loads_no_numpy(self):
        # the console entry sets its thread defaults before numpy loads
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, gpregime, gpregime.main; "
                "assert 'numpy' not in sys.modules, 'numpy'; "
                "assert gpregime.run is gpregime.cli.run")
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_console_entry_defaults_one_blas_thread(self, monkeypatch,
                                                    capsys, preset):
        from gpregime import main
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        for var in names:
            # setenv first, so monkeypatch restores the caller's value
            # (or its absence) after main sets the default
            monkeypatch.setenv(var, preset or "unset")
            if preset is None:
                monkeypatch.delenv(var)
        assert main.main(["scatter", "--sweep", "bogus"]) == 2
        assert [os.environ[v] for v in names] == [preset or "1"] * 2

    def test_bad_sweep_exits_2(self, capsys):
        assert cli.main(["scatter", "--sweep", "bogus"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "s.json"
        cli.main(["scatter", "--sweep", "nl=25,50,100", "--out", str(out)])
        rep = json.loads(out.read_text())
        lines = (tmp_path / "s.csv").read_text().splitlines()
        header = lines[0].split(",")
        a0_col = header.index("a0")
        assert float(lines[1].split(",")[a0_col]) == rep["sweep"][0]["a0"]


# JSON values of every kind a report can hold, floats at the edges of
# their range, strings with the characters JSON escapes
_FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.8e308])
_TEXT = st.text(alphabet=st.characters() | st.sampled_from('\n"\\'))
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_VALUES = st.recursive(
    _SCALARS | st.lists(_FLOATS),
    lambda kids: (st.lists(kids) | st.tuples(kids, kids)
                  | st.dictionaries(_TEXT, kids)),
    max_leaves=40)


class TestArtifactText:
    @settings(max_examples=300, deadline=None)
    @given(obj=_VALUES)
    @example(obj={"a\n\"": [1.0, -0.0, 5e-324, 1.8e308], "b": [], "c": {},
                  "d": (True, None, -3), "e": [1.8e308, 1.8e308]})
    @example(obj=[math.nan, math.inf, -math.inf, 0.5])
    def test_dumps_is_json_dumps(self, obj):
        want = json.dumps(obj, indent=2, sort_keys=True)
        assert cli._dumps(obj) == want
        # encoded text set into a document is written as the value it holds
        assert cli._dumps({"k": [cli._Json(cli._dumps(obj))]}) == json.dumps(
            {"k": [obj]}, indent=2, sort_keys=True)

    def test_bundle_stages_are_the_stage_files(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "schema_version": 1, "seed": 7, "pipeline": ["fock"],
            "stages": {"fock": {"modes": 2, "ncap": 3, "suites": ["ccr"]}}}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", str(cfgp), "--out",
                             str(tmp_path)]) == 0
        bundle = (tmp_path / "bundle.json").read_text()
        doc = json.loads(bundle)
        assert bundle == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert doc["stages"]["fock"] == json.loads(
            (tmp_path / "fock.json").read_text())
