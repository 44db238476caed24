"""Runs ``python -m pupilcover.cli ARGS`` under the host-speed sampler.

    python3 bench/cli_child.py ARGS...

The CLI workload starts each invocation through this file, so that the
host's speed is sampled inside the process that does the work (a sampler in
the waiting parent would run on the other CPU and compete with the child).
After the CLI returns, the mean speed scale and the seconds spent sampling
are written to the file named by ``PUPILCOVER_BENCH_SPEED``; the exit code
is the CLI's.
"""

import os
import runpy
import sys

import hostspeed

if __name__ == "__main__":
    sampler = hostspeed.Sampler()
    code = 0
    sys.argv = ["pupilcover.cli", *sys.argv[1:]]
    try:
        with sampler:
            runpy.run_module("pupilcover.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(os.environ["PUPILCOVER_BENCH_SPEED"], "w") as f:
            f.write(f"{sampler.scale(0)!r} {sampler.spent!r}\n")
    sys.exit(code)
