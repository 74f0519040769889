"""One sha256 per benchmark workload over every op's exit code and stdout.

Builds the fixed op lists of perfbench's workloads for each seed in a
temporary directory, runs every op through `anflat.cli.main` in this
process and hashes the exit codes and stdout, in op order. Two checkouts
print the same lines exactly when their outputs agree byte for byte on
all those ops, which is the identity gate for refactors:

    python3 tools/stdout_hashes.py --seed 401 --seed 502
    python3 tools/stdout_hashes.py --seed 401 --src ../other/src
    python3 tools/stdout_hashes.py --seed 401 --workload disperser-k3

perfbench is imported, never written to. stderr (the experiment's wall
clock) is not hashed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed; repeat for several")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the anflat package (default: this checkout's)")
    parser.add_argument("--workload", action="append", default=None,
                        help="hash only this workload; repeat for several (default: all)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from tracing import NULL_TRACER
    from anflat import cli

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    for name in names:
        workload = workloads.WORKLOADS[name]
        digest = hashlib.sha256()
        ops = 0
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                for op in workload.prepare(seed, Path(tmp), NULL_TRACER):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        rc = cli.main(op.argv)
                    digest.update(f"{op.id} {rc}\n".encode())
                    digest.update(out.getvalue().encode())
                    ops += 1
        print(f"{name} ops={ops} sha256={digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
