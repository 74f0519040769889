"""The benchmark's workloads still run against this checkout.

For op 0 of each workload in perfbench/ at seed 401, run the op through
`anflat.cli.main`, pass its output to the workload's check, and replay it
stage by stage through anflat's public functions. A renamed function,
option or attribute that the benchmark reads fails here, not in the
benchmark run. perfbench/ is imported, never written to.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from anflat import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from tracing import NULL_TRACER  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_op_runs_checks_and_replays(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    op = workload.prepare(401, tmp_path, NULL_TRACER)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv)
    assert workload.check(op, rc, out.getvalue()) > 0
    workload.replay(op, NULL_TRACER)
