"""Tests of the benchmark itself: its output checks and its tracer.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The output-check tests run one real operation of each workload (about
half a minute in all) and then corrupt copies of its artifacts.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (pins thread pools before numpy is imported)
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CLI = worker.import_program()


def _run(tmp, config, name="op"):
    cfg_path = tmp / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    outcome, wall, _ = worker.operation(CLI, cfg_path, tmp / name)
    assert outcome == 0
    return wall


@pytest.fixture(scope="module")
def real_artifacts(tmp_path_factory):
    """{workload: (artifact bytes, reference)} from one operation each."""
    out = {}
    for wl in workloads.WORKLOADS:
        tmp = tmp_path_factory.mktemp(wl)
        _run(tmp, workloads.make_config(wl, workloads.PROGRAM_SEED[wl]))
        out[wl] = (checks.load_artifacts(tmp / "op", checks.ARTIFACTS[wl]),
                   checks.reference(wl))
    return out


def _edit(arts, name, fn):
    """Copy of `arts` with the JSON artifact `name` passed through fn."""
    data = json.loads(arts[name])
    fn(data)
    out = dict(arts)
    out[name] = json.dumps(data, indent=2, sort_keys=True).encode()
    return out


def _set(path, change):
    """Mutator applying change(old) -> new at a key path inside the data."""
    def fn(data):
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = change(obj[path[-1]])
    return fn


def _fock_identity(ident_id, key, change):
    def fn(data):
        for ident in data["identities"]:
            if ident["id"] == ident_id:
                ident[key] = change(ident[key])
    return fn


CORRUPTIONS = [
    ("pipeline_default", "scatter.json", _set(["a0"], lambda v: v + 1e-5),
     "a0 shifted by 1e-5"),
    ("pipeline_default", "gp.json",
     _set(["energies", "trap"], lambda v: v * (1 + 1e-5)),
     "virial term perturbed"),
    ("pipeline_default", "bundle.json",
     _set(["entries", 3, "pass"], lambda v: not v), "flipped pass flag"),
    ("pipeline_default", "bundle.json", _set(["all_pass"], lambda v: not v),
     "flipped all_pass"),
    ("pipeline_default", "kernels.json",
     _set(["rows", 0, "eta_l2"], lambda v: v * 3.0), "pair slope broken"),
    ("pipeline_default", "kernels.json",
     _set(["rows", 2, "gauss_l1"], lambda v: v + 1e-7), "low-pass L1 off"),
    ("pipeline_default", "fock.json",
     _fock_identity("modified-commutators-exact", "max_deviation",
                    lambda v: 1e-300), "exact deviation not zero"),
    ("pipeline_default", "fock.json",
     _set(["growth", "pair", "trivial_ratios", 1],
          lambda v: math.nextafter(v, 2.0)), "trivial ratio not exactly 1"),
    ("pipeline_default", "fock.json",
     _set(["growth", "remainder", "trivial_ratio"], lambda v: 5e-324),
     "trivial remainder not exactly 0"),
    ("scatter_smooth", "scatter.json", _set(["a0"], lambda v: v + 1e-5),
     "a0 shifted by 1e-5"),
    ("scatter_smooth", "gp.json",
     _set(["energies", "kinetic"], lambda v: v * (1 + 1e-5)),
     "virial term perturbed"),
    ("scatter_smooth", "scatter.json",
     _set(["sweep", 6, "i_deviation"], lambda v: v * 20.0),
     "eigenvalue rate broken"),
    ("scatter_smooth", "bundle.json",
     _set(["entries", 0, "pass"], lambda v: not v), "flipped pass flag"),
    ("fock_m4c5", "fock.json", _set(["space", "dim"], lambda v: v - 1),
     "wrong dimension"),
    ("fock_m4c5", "fock.json", _set(["exact_mode"], lambda v: False),
     "exact mode off"),
    ("fock_m4c5", "fock.json",
     _fock_identity("excitation-map-conjugations-float", "max_deviation",
                    lambda v: 2e-12), "float identity over tolerance"),
    ("fock_m4c5", "fock.json",
     _fock_identity("cubic-growth", "pass", lambda v: not v),
     "flipped pass flag"),
    ("fock_m4c5", "fock.json",
     _set(["growth", "cubic", "trivial_ratios", 0], lambda v: 1.0 + 1e-15),
     "trivial ratio not exactly 1"),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_artifacts_pass(real_artifacts, workload):
    arts, ref = real_artifacts[workload]
    assert checks.check_operation(workload, arts, ref) == []


@pytest.mark.parametrize("workload,name,mutate,what", CORRUPTIONS,
                         ids=[f"{c[0]}:{c[3]}" for c in CORRUPTIONS])
def test_corrupted_artifact_fails(real_artifacts, workload, name, mutate,
                                  what):
    arts, ref = real_artifacts[workload]
    bad = _edit(arts, name, mutate)
    assert checks.check_operation(workload, bad, ref), what


def test_byte_comparison(real_artifacts):
    arts, _ = real_artifacts["fock_m4c5"]
    restamped = dict(arts)
    restamped["bundle.json"] = arts["bundle.json"].replace(
        b'"timestamp": "', b'"timestamp": "1999')
    assert checks.compare_bytes(arts, restamped) == []
    changed = dict(arts)
    changed["fock.csv"] = arts["fock.csv"].replace(b"True", b"Frue", 1)
    assert checks.compare_bytes(arts, changed)
    missing = dict(arts)
    del missing["fock.csv"]
    assert checks.compare_bytes(arts, missing)


def test_smooth_reference_scattering_length():
    grid, samples = workloads.smooth_profile()
    assert grid.size == 4097 and samples[-1] == 0.0
    assert 0.27 < checks.smooth_a0_reference() < 0.28


SHORT = {
    "schema_version": 1,
    "seed": 3,
    "pipeline": ["gp", "fock"],
    "stages": {
        "gp": {"trap": {"kind": "harmonic", "parameters": {"r_max": 8.0},
                        "grid": {"n_pts": 200}},
               "a0": 0.2, "tol": 1e-9},
        "fock": {"modes": 2, "ncap": 2, "suites": ["ccr", "un", "bgrowth"]},
    },
}


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    _run(tmp, SHORT, "plain")
    tr = tracing.Tracer()
    tr.begin_operation(0)
    tr.install()
    try:
        wall = _run(tmp, SHORT, "traced")
    finally:
        tr.uninstall()
    return tmp, tr, wall


def test_child_self_time_within_parent(short_trace):
    _, tr, _ = short_trace
    spans = tr.spans
    own = tracing.self_times(spans)
    children = [i for i, s in enumerate(spans) if s.parent >= 0]
    assert children, "the short run should nest spans"
    for i in children:
        parent = spans[spans[i].parent]
        assert parent.start <= spans[i].start <= spans[i].end <= parent.end
        assert own[i] <= parent.end - parent.start
    assert min(own) > -1e-6


def test_trace_metrics(short_trace):
    tmp, tr, wall = short_trace
    (spans,) = tracing.split_by_operation(tr.spans).values()
    m = tracing.operation_metrics(spans, wall)
    assert m["cli.run.calls"] == 1 and m["cli.fock_stage.calls"] == 1
    assert m["gp.minimize_gp.calls"] == 1
    assert m["gp.minimize_gp.iterations"] > 0
    # the stage's space, exact mode's copy of it, and caps 2..6 for five
    # powers plus the zero generator: 32 builds of 5 distinct spaces
    assert m["fock.build_fock_space.calls"] == 32
    assert m["fock.build_fock_space.repeats"] == 27
    assert m["fock.build_A.calls"] == 0
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.0 < layer_self <= wall
    assert m["cli.run.s"] <= wall and m["cli.artifacts.s"] >= 0.0
    assert checks.compare_bytes(
        checks.load_artifacts(tmp / "plain", ["bundle.json", "fock.json"]),
        checks.load_artifacts(tmp / "traced", ["bundle.json", "fock.json"])) == []


def test_uninstall_restores_program():
    import gpregime.cli as cli_mod
    import gpregime.fock as fock_mod
    before = (cli_mod.run, fock_mod.build_A, cli_mod.minimize_gp)
    tr = tracing.Tracer()
    tr.install()
    assert cli_mod.minimize_gp is not before[2]
    tr.uninstall()
    assert (cli_mod.run, fock_mod.build_A, cli_mod.minimize_gp) == before


def test_value_digest_compares_by_value():
    import numpy as np
    a = np.arange(5.0)
    space = CLI.fock.build_fock_space(2, 3)
    same = tracing.value_digest((a.copy(), CLI.fock.build_fock_space(2, 3)),
                                {})
    assert tracing.value_digest((a, space), {}) == same
    nudged = a + np.array([0.0, 0.0, 0.0, 0.0, 1e-12])
    assert tracing.value_digest((nudged, space), {}) != same
    assert tracing.value_digest((a,), {"k": 1}) != tracing.value_digest(
        (a,), {"k": 2})
