"""Times the benchmark's set-up in a fresh process, at the reference host
speed.

    python3 bench/setup_probe.py WORKLOAD SEED

bench/run.py starts this several times per run for ``setup_s``.  The
host-speed sampler (bench/hostspeed.py) starts before the benchmark and the
program are imported, so it covers the import and making the inputs; the
warm-up call of the first op is then timed as every op of a run is.  Prints
the corrected seconds, the raw seconds they cover and the set-up's mean speed
scale, which bench/run.py applies to the rest of the process's life.
"""

import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed


def main(workload: str, seed: int) -> None:
    started = perf_counter()
    with hostspeed.Sampler() as sampler:
        import run
        run.RUNS.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=run.RUNS))
        try:
            make_round, first_ops = run.setup(workload, seed, workdir)
        except BaseException:
            shutil.rmtree(workdir, ignore_errors=True)
            raise
    prepared = perf_counter() - started - sampler.spent
    scale = sampler.scale(0)
    try:
        with hostspeed.Sampler(periodic=workload != "cli") as op_sampler:
            _, op_time, op_scale = run.timed(first_ops[0], run.execute, op_sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(prepared * scale + op_time * op_scale, perf_counter() - started, scale)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
