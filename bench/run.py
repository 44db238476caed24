"""pupilcover benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The run makes its inputs from the seed, runs whole rounds of the workload's
operations for about ``S`` seconds, checks every output with the
independent checker (bench/checker.py), and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
wall_norm_s, op_p50_norm_s, peak_rss_mb); the two times are corrected to the
reference host speed with the kernel of bench/hostspeed.py, sampled while
the ops run.  With ``--trace 1`` the run alternates untraced and
traced passes over each round, requires equal outputs, and reports the
per-layer metrics of bench/tracer.py.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

#: Fresh processes timed for setup_s; the metric is their median.
SETUP_PROBES = 5

#: Each probe must end within this many seconds.
PROBE_TIMEOUT_S = 120


def load_program():
    """Import pupilcover from the checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "pupilcover"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no pupilcover source tree at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import pupilcover
    if Path(pupilcover.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported pupilcover from {pupilcover.__file__}, not {pkg}")
    return pupilcover


def prepare(workload: str, seed: int, workdir: Path):
    """Everything before the first timed op except the warm-up: import the
    program and make the inputs.  Returns round number -> list of ops."""
    if workload == "cli":
        if not (ROOT / "src" / "pupilcover" / "cli.py").is_file():
            raise SystemExit("error: no pupilcover source tree under src/")
        configs = workloads.write_cli_inputs(workdir, seed)
        runner = workloads.CliRunner(ROOT, workdir)
        return lambda rnd: workloads.cli_round(runner, configs, seed, rnd)
    pc = load_program()
    make = {"decide-random": workloads.random_round, "lattice": workloads.lattice_round,
            "optimize": workloads.optimize_round}[workload]
    return lambda rnd: make(pc, seed, rnd)


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed op except the warm-up call.
    Returns the round maker and the first round's ops."""
    make_round = prepare(workload, seed, workdir)
    return make_round, make_round(0)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process (bench/setup_probe.py) that imports the
    program, makes the inputs and runs the first op once, from spawn to exit,
    at the reference host speed.  The probe corrects what it samples; the
    rest (interpreter start and exit) is scaled by its set-up's speed."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    started = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.decode(errors='replace')}")
    corrected, covered, scale = (float(x) for x in proc.stdout.split())
    return corrected + (elapsed - covered) * scale


def execute(op, run=None):
    """Run one op; an exception is the op's output and marks it failed."""
    try:
        return (run or op.run)()
    except Exception as exc:  # the benchmark reports any failing op and goes on
        return exc


def timed(op, run_op, sampler):
    """Run one op; returns its output, its time without the sampler's share,
    and its host-speed scale.  A CLI op is sampled in its child process."""
    first, spent = len(sampler.speeds), sampler.spent
    o0 = perf_counter()
    out = run_op(op)
    elapsed = perf_counter() - o0 - (sampler.spent - spent)
    if isinstance(out, workloads.CliResult):
        return out, elapsed - out.sampling_s, out.scale
    return out, elapsed, sampler.scale(first)


def run_rounds(make_round, first_ops, seconds: float, passes, sampler):
    """Whole rounds until about ``seconds`` have passed: another round
    starts only if half of the last one still fits.  ``passes`` maps a name
    to a function running one op; each round runs every pass over its ops
    in turn.  Returns per round: the ops and, per pass, outputs, op times
    without the sampler's share, their sum (the pass's wall time), and each
    op's host-speed scale from ``sampler``."""
    rounds = []
    started = perf_counter()
    rnd = 0
    while True:
        ops = first_ops if rnd == 0 else make_round(rnd)
        rec = {"ops": ops}
        for name, run_op in passes.items():
            outs, times, scales = [], [], []
            for op in ops:
                out, elapsed, scale = timed(op, run_op, sampler)
                outs.append(out)
                times.append(elapsed)
                scales.append(scale)
            rec[name] = {"outs": outs, "times": times, "wall": sum(times), "scales": scales}
        rounds.append(rec)
        rnd += 1
        if perf_counter() - started + 0.5 * rec[next(iter(passes))]["wall"] > seconds:
            return rounds


def check_outputs(rounds, name: str) -> tuple[int, int, list[str]]:
    """Independent check of every output of pass ``name``.  Returns
    (attempted, failed, errors).  An op fails when it raised, or when the
    only property it violates is the known max_objective fault; any other
    violation is an error that makes the run incorrect."""
    attempted = failed = 0
    errors = []
    for rec in rounds:
        for op, out in zip(rec["ops"], rec[name]["outs"]):
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                print(f"failed: {op.kind}: {type(out).__name__}: {out}", file=sys.stderr)
                continue
            problems = op.check(out)
            props = {p for p, _ in problems}
            if props and props <= {checker.R_STAR_COVERS_R}:
                failed += 1
            elif problems:
                errors += [f"{op.kind}: {p}: {msg}" for p, msg in problems]
    return attempted, failed, errors


def peak_rss_mb(rounds, name: str) -> float:
    """Peak resident set of the process that ran the ops: this one, or for
    CLI ops the largest child."""
    child = [out.maxrss_kb for rec in rounds for out in rec[name]["outs"]
             if isinstance(out, workloads.CliResult)]
    kb = max(child) if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def summarize(rounds, name: str) -> None:
    times = sorted(t for rec in rounds for t in rec[name]["times"])
    kinds: dict[str, list[float]] = {}
    for rec in rounds:
        for op, t in zip(rec["ops"], rec[name]["times"]):
            kinds.setdefault(op.kind, []).append(t)
    print(f"{name}: {len(rounds)} rounds, {len(times)} ops, round walls "
          + " ".join(f"{rec[name]['wall']:.3f}" for rec in rounds), file=sys.stderr)
    scales = [sc for rec in rounds for sc in rec[name]["scales"]]
    print(f"{name}: raw op p50 {statistics.median(times):.4f} s, host speed scale median "
          f"{statistics.median(scales):.4f} [{min(scales):.4f}, {max(scales):.4f}]",
          file=sys.stderr)
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"{name}: op p90 {p90:.4f} s over {len(times)} ops", file=sys.stderr)
    for kind, ts in kinds.items():
        print(f"  {kind}: median {statistics.median(ts):.4f} s x{len(ts)}", file=sys.stderr)


def corrected(rec) -> list[float]:
    """Op times of one round pass at the reference host speed."""
    return [t * sc for t, sc in zip(rec["times"], rec["scales"])]


def end_to_end(args, make_round, first_ops) -> dict:
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    with hostspeed.Sampler(periodic=args.workload != "cli") as sampler:
        rounds = run_rounds(make_round, first_ops, args.seconds, {"plain": execute}, sampler)
    print(f"host speed: {len(sampler.speeds)} samples, {sampler.spent:.3f} s", file=sys.stderr)
    rss = peak_rss_mb(rounds, "plain")
    summarize(rounds, "plain")
    print("setup probes (corrected) " + " ".join(f"{t:.3f}" for t in probes), file=sys.stderr)
    attempted, failed, errors = check_outputs(rounds, "plain")
    norm = [corrected(rec["plain"]) for rec in rounds]
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_norm_s": (statistics.median(sum(ts) for ts in norm), "s"),
        "op_p50_norm_s": (statistics.median(t for ts in norm for t in ts), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result(errors, attempted, failed, metrics)


def traced(args, make_round, first_ops) -> dict:
    tracer = Tracer()

    def run_traced(op):
        tracer.install()
        try:
            return execute(op, lambda: tracer.call(f"op.{op.kind.split()[0]}", op.run))
        finally:
            tracer.uninstall()

    with hostspeed.Sampler(periodic=args.workload != "cli") as sampler:
        rounds = run_rounds(make_round, first_ops, args.seconds,
                            {"plain": execute, "traced": run_traced}, sampler)
    summarize(rounds, "plain")
    summarize(rounds, "traced")
    attempted, failed, errors = check_outputs(rounds, "plain")
    for rec in rounds:
        for op, a, b in zip(rec["ops"], rec["plain"]["outs"], rec["traced"]["outs"]):
            if isinstance(a, Exception) or isinstance(b, Exception):
                same = type(a) is type(b) and str(a) == str(b)
            else:
                same = op.key(a) == op.key(b)
            if not same:
                errors.append(f"{op.kind}: traced output differs from the untraced one")
    cli = [o for rec in rounds for o in rec["traced"]["outs"]
           if isinstance(o, workloads.CliResult)]
    cli_walls = [t for rec in rounds for t, o in zip(rec["traced"]["times"], rec["traced"]["outs"])
                 if isinstance(o, workloads.CliResult)]
    extra = {
        "cli.runtime_s": sum(o.runtime_s for o in cli),
        "cli.overhead_s": sum(w - o.runtime_s for w, o in zip(cli_walls, cli)),
        "cli.report_bytes": sum(len(b) for o in cli for b in o.outputs),
        "trace.overhead_s": statistics.median(sum(corrected(rec["traced"])) for rec in rounds)
        - statistics.median(sum(corrected(rec["plain"])) for rec in rounds),
    }
    traced_ops = sum(len(rec["ops"]) for rec in rounds)
    values = layer_metrics(tracer, traced_ops, extra)
    unit_of = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer.write(RUNS / f"trace-{args.workload}-{args.seed}.tsv.gz")
    return result(errors, attempted, failed, {k: (v, unit_of[k]) for k, v in values.items()})


def result(errors, attempted, failed, metrics) -> dict:
    for line in errors[:20]:
        print(f"incorrect: {line}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        make_round, first_ops = setup(args.workload, args.seed, workdir)
        execute(first_ops[0])  # warm-up, untimed
        checker.selftest()
        out = (traced if args.trace else end_to_end)(args, make_round, first_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
