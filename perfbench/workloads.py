"""Workload definitions: the `gpregime run` config each workload feeds in.

Every workload fixes the program seed it passes in the config. The cost of
the fock stage depends on that seed (the generator norms it draws change
the matrix-exponential work), so letting the benchmark's --seed reach the
program would turn run-to-run spread into seed-to-seed spread. A held-out
seed for checking a claim is passed explicitly with --program-seed.

run.py imports this module too, so numpy is imported only where used.
"""

WORKLOADS = ("pipeline_default", "scatter_smooth", "fock_m4c5")

PROGRAM_SEED = {"pipeline_default": 7, "scatter_smooth": 7, "fock_m4c5": 7}
HELD_OUT_SEED = 11

FOCK_SUITES = ["ccr", "un", "ln", "bgrowth", "agrowth", "deta"]

# Smooth interaction of scatter_smooth: V(r) = 3 (1 - (r/1.5)^2)^2 on
# [0, 1.5]. 4097 samples: at 1024, 1025 and 2049 the program's Richardson
# certificate rejects the well integration (see CHANGES.md).
SMOOTH_AMPLITUDE = 3.0
SMOOTH_RADIUS = 1.5
SMOOTH_NODES = 4097


def smooth_profile():
    """(grid, samples) of the scatter_smooth interaction."""
    import numpy as np
    grid = np.linspace(0.0, SMOOTH_RADIUS, SMOOTH_NODES)
    samples = SMOOTH_AMPLITUDE * (1.0 - (grid / SMOOTH_RADIUS) ** 2) ** 2
    return grid, samples


def make_config(workload, seed):
    """The config dict one operation of `workload` passes to the program."""
    if workload == "pipeline_default":
        from gpregime.cli import default_config
        cfg = default_config()
        cfg["seed"] = seed
        return cfg
    if workload == "scatter_smooth":
        grid, samples = smooth_profile()
        return {
            "schema_version": 1,
            "seed": seed,
            "pipeline": ["scatter", "gp"],
            "stages": {
                "scatter": {
                    "potential": {
                        "kind": "custom",
                        "parameters": {},
                        "profile": {"grid": grid.tolist(),
                                    "samples": samples.tolist(),
                                    "tail": {"kind": "zero",
                                             "radius": SMOOTH_RADIUS}}},
                    "ell": 0.5,
                    "n": 64,
                    "sweep_nl": [25.0, 50.0, 100.0, 200.0, 400.0, 800.0,
                                 1600.0],
                },
                "gp": {"trap": {"kind": "quartic",
                                "parameters": {"r_max": 6.0},
                                "grid": {"n_pts": 1600}},
                       "a0": "from:scatter",
                       "tol": 1e-11},
            },
        }
    if workload == "fock_m4c5":
        return {
            "schema_version": 1,
            "seed": seed,
            "pipeline": ["fock"],
            "stages": {"fock": {"modes": 4, "ncap": 5,
                                "suites": list(FOCK_SUITES)}},
        }
    raise ValueError(f"unknown workload {workload!r}")
