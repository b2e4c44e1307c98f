"""The benchmark's output checks pass on the program's own artifacts.

perfbench/checks.py judges every benchmark operation by the artifacts it
writes: the bundle verdicts, closed-form references, refitted slopes and
the fock identities by id. A change that renames a fock identity or
drops an artifact field would otherwise first show as a benchmark
operation with incorrect outputs. This runs those checks on one
operation of each workload at its program seed, written in-process. The
benchmark's modules are imported without writing any file beside them.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gpregime import cli

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import checks
    import workloads
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = _bytecode


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_checks_pass(tmp_path, workload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        workloads.make_config(workload, workloads.PROGRAM_SEED[workload])))
    out = tmp_path / "op"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(config),
                         "--out", str(out)]) == 0
    ref = checks.reference(workload)
    assert checks.check_artifacts(workload, out, ref)[0] == []
