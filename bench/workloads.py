"""The four benchmark workloads: their inputs, made from the seed, and the
independent check of every output.

A workload yields rounds.  Every round has the same operations in the same
order (same kinds, same sizes), so that a run made of whole rounds attempts
the same mix whatever its length.  The random configurations and the
optimizer starts' angles change with the seed and the round; the lattices
are fixed, and the CLI configurations are made once per run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checker
from checker import Sample

#: Objective radius of the random and optimizer configurations.
R = 1.0

#: (op, pupil count) of the random configurations of one decide round.  The
#: cheap n = 5 op comes first because it is the warm-up call.
RANDOM_OPS = (("decide", 5), ("analyze", 7), ("decide", 9), ("decide", 7),
              ("analyze", 6), ("analyze", 7), ("analyze", 8), ("decide", 7))

#: The acceptance-10 starts: all go through the radius loops, these through
#: the relocation pipeline too (one with a short and one with a long final
#: area loop; all ten would take a minute per round).
OPTIMIZE_STARTS = range(10)
RELOCATED_STARTS = (0, 3)

#: (kind, covering radius, objective radius) of the g = 4 lattices; each
#: objective lies inside the lattice's difference patch.
LATTICES = (
    ("square", math.sqrt(2.0) / 2.0, 2.5),
    ("triangular", 1.0 / math.sqrt(3.0), 2.3),
)
LATTICE_GRID = 4
LATTICE_RHO_FACTORS = (0.9, 1.0, 1.1)

#: CLI configurations per run; each gives ten invocations.
CLI_SLOTS = 10


@dataclass
class Op:
    """One timed call.  ``run`` returns the output; ``check`` returns the
    problems the independent checker finds in it; ``key`` maps the output
    to the part that must repeat exactly between two runs on one input."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    key: Callable[[Any], Any] = field(default=lambda out: out)


def _as_array(cfg) -> np.ndarray:
    return np.array([[p.center.x, p.center.y, p.radius] for p in cfg.pupils])


def _config(pc, arr: np.ndarray, radius: float):
    return pc.PupilConfig([pc.Pupil(pc.Point(float(x), float(y)), float(r)) for x, y, r in arr],
                          radius)


def _sample_seed(seed: int, *parts: int) -> int:
    return int(np.random.default_rng([seed, *parts]).integers(2**31))


def random_uncovered(rng: np.random.Generator, n: int, max_radius: float) -> np.ndarray:
    """Centers uniform in the [-R, R] square and radii uniform in
    [0, max_radius]; drawn again until a coarse sample shows an uncovered
    point, so the configuration is certainly not covered."""
    while True:
        arr = np.column_stack([rng.uniform(-R, R, (n, 2)), rng.uniform(0.0, max_radius, n)])
        if checker.additive_min(arr, checker.polar_sample(R, 0, rings=16, angles=64)).max() > 0:
            return arr


# -------------------------------------------------------------- decide-random

def random_round(pc, seed: int, rnd: int) -> list[Op]:
    """Fresh uncovered configurations with radii <= 0.15 R, half decided and
    half analysed, so no configuration is seen twice.  The four n = 7 ops
    hold the median op time."""
    rng = np.random.default_rng([seed, rnd])
    ops = []
    for idx, (kind, n) in enumerate(RANDOM_OPS):
        arr = random_uncovered(rng, n, 0.15 * R)
        cfg = _config(pc, arr, R)
        s_seed = _sample_seed(seed, rnd, idx)
        if kind == "decide":
            ops.append(Op(f"decide n={n}", lambda cfg=cfg: pc.decide(cfg),
                          lambda out, a=arr, ss=s_seed: _check_decide(Sample(a, R, ss), out)))
        else:
            ops.append(Op(f"analyze n={n}", lambda cfg=cfg: pc.analyze(cfg),
                          lambda out, a=arr, ss=s_seed: _check_analyze(Sample(a, R, ss), out)))
    return ops


def _witness(pt):
    return None if pt is None else (pt.x, pt.y)


def _check_decide(s: Sample, out) -> list:
    covered, witness = out
    return checker.check_verdict(s, covered, _witness(witness))


def _check_analyze(s: Sample, rep) -> list:
    return checker.check_report(s, rep.covered, _witness(rep.witness), rep.alpha_star, rep.r_star)


# ------------------------------------------------------------------- optimize

def acceptance10_start(start: int) -> np.ndarray:
    """The near-collinear 5-pupil start number ``start`` of acceptance
    criterion 10 (tests/test_acceptance.py), for R = 1."""
    rng = np.random.default_rng(start)
    angle = rng.uniform(0, np.pi)
    u = np.array([np.cos(angle), np.sin(angle)])
    rows = []
    for _ in range(5):
        t = rng.uniform(-0.8, 0.8)
        jitter = rng.normal(0, 0.03, 2)
        cx, cy = t * u + jitter
        rows.append((float(cx), float(cy), float(rng.uniform(0.1, 0.3))))
    return np.array(rows)


def turned(arr: np.ndarray, theta: float) -> np.ndarray:
    """Pupils rotated about the origin by ``theta``."""
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    out = arr.copy()
    out[:, :2] = arr[:, :2] @ rot.T
    return out


def optimize_round(pc, seed: int, rnd: int) -> list[Op]:
    """Each start, turned by a seeded angle (the optimizers are rotation
    equivariant, so every round does the same work on new numbers), runs
    minimize_sum_radii then minimize_area as one op; the RELOCATED_STARTS
    also run move_pupils followed by minimize_area as a second op.  The ten
    radius-loop ops outnumber the two pipelines, so the median op falls
    among them; the pipelines split them into three groups spread over the
    round."""
    opts = pc.OptimizerConfig(epsilon=1e-6, relocation_iterations=15)
    theta = float(np.random.default_rng([seed, rnd]).uniform(0.0, 2.0 * math.pi))
    short, long = [], []
    for start in OPTIMIZE_STARTS:
        arr = turned(acceptance10_start(start), theta)
        cfg = _config(pc, arr, 1.0)
        s_seed = _sample_seed(seed, rnd, start)

        def radius_loops(cfg=cfg):
            return pc.minimize_sum_radii(cfg, opts), pc.minimize_area(cfg, opts)

        short.append(Op(f"minsum+minarea start={start}", radius_loops,
                        lambda out, ss=s_seed: (_check_radius_trace(out[0], ss)
                                                + _check_radius_trace(out[1], ss))))
        if start not in RELOCATED_STARTS:
            continue

        def pipeline(cfg=cfg):
            moved = pc.move_pupils(cfg, opts)
            return moved, pc.minimize_area(moved.final_config, opts)

        long.append(Op(f"move+minarea start={start}", pipeline,
                       lambda out, a=arr, ss=s_seed: (
                           checker.check_move(a, _as_array(out[0].final_config))
                           + _check_radius_trace(out[1], ss))))
    return short[:4] + long[:1] + short[4:7] + long[1:] + short[7:]


def _check_radius_trace(trace, s_seed: int) -> list:
    final = trace.final_config
    s = Sample(_as_array(final), final.objective_radius, s_seed)
    return checker.check_radius_trace(s, [e.sum_of_radii for e in trace.iterations],
                                      trace.iterations[-1].covered)


# -------------------------------------------------------------------- lattice

def lattice_pupils(kind: str, g: int, rho: float) -> np.ndarray:
    """g x g patch of the unit square or triangular lattice."""
    pts = []
    for j in range(g):
        for i in range(g):
            if kind == "square":
                pts.append((float(i), float(j), rho))
            else:
                pts.append((i + 0.5 * j, j * math.sqrt(3.0) / 2.0, rho))
    return np.array(pts)


def lattice_round(pc, seed: int, rnd: int) -> list[Op]:
    """Equal-radius lattices with 2 rho below, exactly at and above the
    covering radius, each decided and analysed.  The inputs do not depend on
    the seed or the round; the seed seeds only the checker's sample.  Both
    lattices have m = 49 difference disks, so the twelve ops are one block
    of same-size ops."""
    ops = []
    for kind, cover, radius in LATTICES:
        for factor in LATTICE_RHO_FACTORS:
            # At factor 1.0 this is exactly half the covering radius.
            rho = 0.5 * cover * factor
            arr = lattice_pupils(kind, LATTICE_GRID, rho)
            cfg = _config(pc, arr, radius)
            s_seed = _sample_seed(seed, LATTICES.index((kind, cover, radius)), int(factor * 10))
            label = f"{kind} g={LATTICE_GRID} 2rho/cov={factor}"

            def check_decide(out, a=arr, rad=radius, ss=s_seed, cov=cover, rho=rho):
                return (_check_decide(Sample(a, rad, ss), out)
                        + checker.check_lattice(out[0], None, cov, rho))

            def check_analyze(rep, a=arr, rad=radius, ss=s_seed, cov=cover, rho=rho):
                return (_check_analyze(Sample(a, rad, ss), rep)
                        + checker.check_lattice(rep.covered, rep.alpha_star, cov, rho))

            ops.append(Op(f"decide {label}", lambda cfg=cfg: pc.decide(cfg), check_decide))
            ops.append(Op(f"analyze {label}", lambda cfg=cfg: pc.analyze(cfg), check_analyze))
    return ops


# ------------------------------------------------------------------------ cli

@dataclass
class CliResult:
    """One CLI invocation: exit code, the bytes it wrote, the report's
    runtime_seconds, the child's peak resident set (KiB), and the child's
    own host-speed scale and seconds spent sampling (bench/cli_child.py)."""

    code: int
    outputs: tuple[bytes, ...]
    runtime_s: float
    maxrss_kb: int
    stderr: bytes
    scale: float
    sampling_s: float


def _cli_key(res: CliResult):
    docs = []
    for raw in res.outputs:
        if raw.startswith(b"{"):
            doc = json.loads(raw)
            doc.pop("runtime_seconds", None)
            docs.append(doc)
        else:
            docs.append(raw)
    return res.code, docs


class CliRunner:
    """Runs ``python -m pupilcover.cli`` on the checkout's source tree,
    through bench/cli_child.py, and collects the rusage of each child."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.speed_file = workdir / "host-speed.txt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PUPILCOVER_BENCH_SPEED"] = str(self.speed_file)
        self.env = env

    def invoke(self, args: list[str], outs: list[Path]) -> CliResult:
        for path in [*outs, self.speed_file]:
            if path.exists():
                path.unlink()
        child = Path(__file__).resolve().parent / "cli_child.py"
        proc = subprocess.Popen([sys.executable, str(child), *args],
                                cwd=self.workdir, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = tuple(p.read_bytes() if p.exists() else b"" for p in outs)
        runtime = 0.0
        if outputs and outputs[0].startswith(b"{"):
            runtime = float(json.loads(outputs[0]).get("runtime_seconds", 0.0))
        scale, sampling = (float(x) for x in self.speed_file.read_text().split())
        return CliResult(proc.returncode, outputs, runtime, usage.ru_maxrss, stderr,
                         scale, sampling)


def cli_configs(seed: int) -> list[dict[str, np.ndarray]]:
    """Per slot an uncovered configuration U (n = 3, 4 or 5 pupils, radii
    <= 0.2 R), a covered one C, and an optimizer start O.

    C is U with every radius grown by half of (sampled alpha + 0.05 R).  The
    sample's spacing is below 0.015 R and the additive distance is
    1-Lipschitz, so C covers with margin.  O is acceptance-10 start number
    ``slot`` turned by a seeded angle: the radius loop converges on it in a
    few passes, which it does not on every random start (see CHANGES.md)."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for slot in range(CLI_SLOTS):
        u = random_uncovered(rng, 3 + slot % 3, 0.2 * R)
        worst = checker.additive_min(u, checker.polar_sample(R, slot)).max()
        c = u.copy()
        c[:, 2] += 0.5 * (worst + 0.05 * R)
        o = turned(acceptance10_start(slot), float(rng.uniform(0.0, 2.0 * math.pi)))
        out.append({"u": u, "c": c, "o": o})
    return out


def write_cli_inputs(workdir: Path, seed: int) -> list[dict[str, tuple[np.ndarray, bytes]]]:
    """Write each slot's configurations as u<slot>.json, c<slot>.json and
    o<slot>.json; returns per slot the pupil arrays and the bytes written."""
    slots = []
    for slot, configs in enumerate(cli_configs(seed)):
        files = {}
        for tag, arr in configs.items():
            doc = {"objective_radius": R,
                   "pupils": [{"x": float(x), "y": float(y), "r": float(r)} for x, y, r in arr]}
            raw = json.dumps(doc).encode("utf-8")
            (workdir / f"{tag}{slot}.json").write_bytes(raw)
            files[tag] = (arr, raw)
        slots.append(files)
    return slots


def cli_round(runner: CliRunner, slots, seed: int, rnd: int) -> list[Op]:
    """Ten invocations per slot: decide and alpha on U and on C, maxobj and
    a one-pass move on C, minsum on O, C rendered twice, and a
    difference-cover design."""
    ops = []
    for slot, files in enumerate(slots):
        ops += _cli_slot_ops(runner, slot, files, _sample_seed(seed, rnd, slot))
    return ops


def _cli_slot_ops(runner: CliRunner, slot: int, files, s_seed: int) -> list[Op]:
    wd = runner.workdir
    ops = []

    def add(kind: str, args: list[str], out: str, check, after=None):
        def run():
            res = runner.invoke(args, [wd / out])
            if after is not None:
                after(res)
            return res
        ops.append(Op(f"cli {kind}", run, check, _cli_key))

    for tag in "uc":
        arr, raw = files[tag]
        name = f"{tag}{slot}.json"
        add("decide", ["decide", name, "--out", f"d{name}"], f"d{name}",
            lambda res, arr=arr, raw=raw: _check_cli_decide(res, arr, raw, s_seed))
        add("alpha", ["alpha", name, "--out", f"a{name}"], f"a{name}",
            lambda res, arr=arr, raw=raw: _check_cli_alpha(res, arr, raw, s_seed))
    c, c_raw = files["c"]
    add("maxobj", ["maxobj", f"c{slot}.json", "--out", f"x{slot}.json"], f"x{slot}.json",
        lambda res: _check_cli_maxobj(res, c, c_raw, s_seed))
    add("minsum", ["minsum", f"o{slot}.json", "--out", f"s{slot}.json"], f"s{slot}.json",
        lambda res: _check_cli_minsum(res, files["o"][1], s_seed))
    add("move", ["move", f"c{slot}.json", "--iterations", "1", "--out", f"m{slot}.json"],
        f"m{slot}.json", lambda res: _check_cli_move(res, c, c_raw))
    # Two renderings of one configuration, compared byte for byte.
    first: dict[str, bytes] = {}
    add("render", ["render", f"c{slot}.json", "--out", f"r{slot}a.svg"], f"r{slot}a.svg",
        lambda res: _check_cli_code(res, 0), after=lambda res: first.update(svg=res.outputs[0]))
    add("render", ["render", f"c{slot}.json", "--out", f"r{slot}b.svg"], f"r{slot}b.svg",
        lambda res: _check_cli_code(res, 0) + checker.check_svg(first["svg"], res.outputs[0]))
    prime_r = 1.0 + 0.1 * slot
    add("design-prime", ["design-prime", "--objective-radius", repr(prime_r),
                         "--pupil-radius", "0.35", "--out", f"p{slot}.json"], f"p{slot}.json",
        lambda res: _check_cli_prime(res, prime_r, 0.35, s_seed))
    return ops


def _check_cli_code(res: CliResult, code: int) -> list:
    if res.code != code:
        return [("exit_code", f"exit code {res.code}, expected {code}; "
                              f"stderr {res.stderr[-300:]!r}")]
    return []


def _cli_doc(res: CliResult, raw: bytes | None) -> tuple[dict, list]:
    try:
        doc = json.loads(res.outputs[0])
    except ValueError as exc:
        return {}, [("report_json", f"report does not parse: {exc}")]
    return doc, checker.check_cli_report(doc, raw)


def _check_cli_decide(res, arr, raw, s_seed) -> list:
    doc, problems = _cli_doc(res, raw)
    result = doc.get("result", {})
    covered = result.get("covered")
    problems += _check_cli_code(res, 0 if covered else 1)
    return problems + checker.check_verdict(Sample(arr, R, s_seed), bool(covered),
                                            result.get("witness"))


def _check_cli_alpha(res, arr, raw, s_seed) -> list:
    doc, problems = _cli_doc(res, raw)
    r = doc.get("result", {})
    problems += _check_cli_code(res, 0)
    return problems + checker.check_report(Sample(arr, R, s_seed), bool(r.get("covered")),
                                           r.get("witness"), r.get("alpha_star", math.nan),
                                           r.get("r_star", math.inf))


def _check_cli_maxobj(res, arr, raw, s_seed) -> list:
    doc, problems = _cli_doc(res, raw)
    problems += _check_cli_code(res, 0)
    return problems + checker.check_r_star(Sample(arr, R, s_seed),
                                           doc.get("result", {}).get("r_star", math.inf))


def _pupil_array(doc_cfg: dict) -> np.ndarray:
    return np.array([[p["x"], p["y"], p["r"]] for p in doc_cfg["pupils"]], dtype=float)


def _check_cli_minsum(res, raw, s_seed) -> list:
    doc, problems = _cli_doc(res, raw)
    problems += _check_cli_code(res, 0)
    if problems:
        return problems
    trace = doc["result"]["trace"]
    final = _pupil_array(trace["final_config"])
    s = Sample(final, trace["final_config"]["objective_radius"], s_seed)
    return checker.check_radius_trace(s, [e["sum_of_radii"] for e in trace["iterations"]],
                                      bool(doc["result"]["covered"]))


def _check_cli_move(res, arr, raw) -> list:
    doc, problems = _cli_doc(res, raw)
    problems += _check_cli_code(res, 0)
    if problems:
        return problems
    return checker.check_move(arr, _pupil_array(doc["result"]["trace"]["final_config"]))


def _check_cli_prime(res, radius: float, rho: float, s_seed: int) -> list:
    doc, problems = _cli_doc(res, None)
    problems += _check_cli_code(res, 0)
    if problems:
        return problems
    r = doc["result"]
    arr = _pupil_array(r["design"])
    if len(arr) != r["count"] or r["count"] != 16 * r["p"] ** 2:
        problems.append(("prime_count", f"{len(arr)} pupils, count {r['count']}, p {r['p']}"))
    if not np.all(arr[:, 2] == rho):
        problems.append(("prime_radius", "pupil radii differ from the requested radius"))
    s = Sample(arr, radius, s_seed, rings=16, angles=64)
    if s.worst > checker.TOL:
        problems.append(("prime_covers", f"design leaves a sample uncovered by {s.worst:.3e}"))
    return problems


WORKLOADS = ("decide-random", "lattice", "optimize", "cli")
