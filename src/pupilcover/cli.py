"""Command-line front end.

Config files are UTF-8 JSON:

    {"objective_radius": R,
     "pupils": [{"x": ..., "y": ..., "r": ...}, ...],
     "options": {...}}            # optional, mirrors OptimizerConfig fields,
                                  # checked by every command that reads a file

Reports are UTF-8 JSON with a "schema": 1 field, echoing the command, the
SHA-256 digest of the input, the result payload and the runtime.  Exit codes:
0 success/covered, 1 not covered (decide only), 2 input error, 3 solver
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import reprlib
import sys
import time

from . import coverage, design, optimize
from .geom import Point, Pupil, PupilConfig
from .optimize import OptimizerConfig, OptimizerTrace
from .solver import Infeasible, NumericalError
from .svg import LAYERS, render_svg


class ConfigError(ValueError):
    """Malformed or invalid input configuration."""


#: The keys accepted under "options": the fields of OptimizerConfig.
_OPTION_FIELDS = tuple(f.name for f in dataclasses.fields(OptimizerConfig))


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number, not a boolean, that a float holds finitely."""
    # abs(v) <= max is false for NaN, infinities and integers too large for a float.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _require_number(obj, key: str, context: str) -> float:
    v = obj.get(key)
    if not _is_number(v):
        raise ConfigError(f"{context}.{key} must be a finite number")
    return float(v)


def parse_config(raw: bytes) -> tuple[PupilConfig, dict]:
    """Parse and validate a config document; unknown keys are rejected."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past the digit limit
        raise ConfigError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    allowed = {"objective_radius", "pupils", "options", "objective_center"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {reprlib.repr(sorted(unknown))}")
    if "objective_center" in doc:
        oc = doc["objective_center"]
        if not (isinstance(oc, list) and len(oc) == 2 and all(_is_number(v) and v == 0 for v in oc)):
            raise ConfigError("objective_center must be [0, 0]; shifted objectives are rejected")
    radius = _require_number(doc, "objective_radius", "config")
    if radius <= 0:
        raise ConfigError("config.objective_radius must be positive")
    pupils_doc = doc.get("pupils")
    if not isinstance(pupils_doc, list) or not pupils_doc:
        raise ConfigError("config.pupils must be a non-empty list")
    pupils = []
    for idx, p in enumerate(pupils_doc):
        if not isinstance(p, dict):
            raise ConfigError(f"config.pupils[{idx}] must be an object")
        unknown = set(p) - {"x", "y", "r"}
        if unknown:
            raise ConfigError(
                f"config.pupils[{idx}] has unknown keys: {reprlib.repr(sorted(unknown))}")
        x = _require_number(p, "x", f"config.pupils[{idx}]")
        y = _require_number(p, "y", f"config.pupils[{idx}]")
        r = _require_number(p, "r", f"config.pupils[{idx}]")
        if r < 0:
            raise ConfigError(f"config.pupils[{idx}].r must be nonnegative")
        pupils.append(Pupil(Point(x, y), r))
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("config.options must be an object")
    unknown = set(options) - set(_OPTION_FIELDS)
    if unknown:
        raise ConfigError(f"config.options has unknown keys: {reprlib.repr(sorted(unknown))}")
    _optimizer_config(options)
    try:
        cfg = PupilConfig(pupils, radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, dict(options)


def serialize_config(cfg: PupilConfig) -> dict:
    return {
        "objective_radius": cfg.objective_radius,
        "pupils": [{"x": p.center.x, "y": p.center.y, "r": p.radius} for p in cfg.pupils],
    }


def _optimizer_config(options: dict) -> OptimizerConfig:
    try:
        return OptimizerConfig(**options)
    except ValueError as exc:
        raise ConfigError(f"invalid optimizer options: {exc}") from exc


def _options_from(args, base: dict) -> OptimizerConfig:
    merged = dict(base)
    for key in _OPTION_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return _optimizer_config(merged)


def _finite_or_none(v: float) -> float | None:
    # JSON has no infinity: an overflowing sum or area is written as null.
    return v if math.isfinite(v) else None


def _trace_payload(trace: OptimizerTrace) -> dict:
    return {
        "iterations": [
            {"sum_of_radii": _finite_or_none(e.sum_of_radii),
             "total_area": _finite_or_none(e.total_area), "covered": e.covered}
            for e in trace.iterations
        ],
        "final_config": serialize_config(trace.final_config),
        "warning": trace.warning,
    }


def _witness_payload(witness) -> list[float] | None:
    return None if witness is None else [witness.x, witness.y]


def _alpha_payload(alphas: dict) -> dict:
    return {f"{i},{j}": v for (i, j), v in sorted(alphas.items())}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(argv_echo, digest: str, result: dict, started: float) -> dict:
    return {
        "schema": 1,
        "command": argv_echo,
        "input_digest": digest,
        "result": result,
        "runtime_seconds": time.perf_counter() - started,
    }


def _read_config(path: str) -> tuple[PupilConfig, dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg, options = parse_config(raw)
    return cfg, options, hashlib.sha256(raw).hexdigest()


def _digest_params(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def cmd_decide(args, argv_echo) -> int:
    started = time.perf_counter()
    cfg, _, digest = _read_config(args.config)
    covered, witness = coverage.decide(cfg)
    result = {"covered": covered, "witness": _witness_payload(witness)}
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0 if covered else 1


def cmd_alpha(args, argv_echo) -> int:
    started = time.perf_counter()
    cfg, _, digest = _read_config(args.config)
    report = coverage.analyze(cfg)
    result = {
        "covered": report.covered,
        "witness": _witness_payload(report.witness),
        "alpha_star": report.alpha_star,
        "per_disk_alpha": _alpha_payload(report.per_disk_alpha),
        "r_star": report.r_star,
    }
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0


def _cmd_radius_opt(args, argv_echo, runner) -> int:
    started = time.perf_counter()
    cfg, options, digest = _read_config(args.config)
    opts = _options_from(args, options)
    trace = runner(cfg, opts)
    result = {"trace": _trace_payload(trace), "covered": trace.iterations[-1].covered}
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0


def cmd_minsum(args, argv_echo) -> int:
    return _cmd_radius_opt(args, argv_echo, optimize.minimize_sum_radii)


def cmd_minarea(args, argv_echo) -> int:
    return _cmd_radius_opt(args, argv_echo, optimize.minimize_area)


def cmd_move(args, argv_echo) -> int:
    return _cmd_radius_opt(args, argv_echo, optimize.move_pupils)


def cmd_exhaustive(args, argv_echo) -> int:
    started = time.perf_counter()
    cfg, options, digest = _read_config(args.config)
    opts = _options_from(args, options)
    try:
        best = optimize.exhaustive_search(list(cfg.centers), cfg.objective_radius, opts)
    except ValueError as exc:  # a grid radius theta whose difference disks overflow
        raise ConfigError(str(exc)) from exc
    result = {
        "config": serialize_config(best),
        "sum_of_radii": float(sum(best.radii)),
        "theta": opts.theta,
    }
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0


def cmd_maxobj(args, argv_echo) -> int:
    started = time.perf_counter()
    cfg, _, digest = _read_config(args.config)
    r_star = coverage.max_objective(cfg)
    _emit(_report(argv_echo, digest, {"r_star": r_star}, started), args.out)
    return 0


def cmd_design_three(args, argv_echo) -> int:
    started = time.perf_counter()
    cfg = design.three_pupil_optimal(args.objective_radius)
    digest = _digest_params("design-three", args.objective_radius)
    result = {"design": serialize_config(cfg), "sum_of_radii": float(sum(cfg.radii))}
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0


def cmd_design_prime(args, argv_echo) -> int:
    started = time.perf_counter()
    pd = design.prime_design(args.objective_radius, args.pupil_radius)
    digest = _digest_params("design-prime", args.objective_radius, args.pupil_radius)
    result = {
        "design": serialize_config(pd.config),
        "p": pd.p,
        "scale": pd.scale,
        "count": pd.count,
        "approximation_ratio": pd.approximation_ratio,
    }
    _emit(_report(argv_echo, digest, result, started), args.out)
    return 0


def cmd_render(args, argv_echo) -> int:
    cfg, _, _ = _read_config(args.config)
    layers = [l.strip() for l in args.layers.split(",") if l.strip()]
    try:
        doc = render_svg(cfg, layers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pupilcover",
        description="Design and analyze pupil sets whose difference disks cover an objective disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True, out=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("config", help="path to a JSON configuration file")
        if out:
            p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("decide", cmd_decide, "decide whether the objective is covered")
    add("alpha", cmd_alpha, "coverage report with enlargement quantities")

    def add_opt_flags(p, relocation=False):
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
        p.add_argument("--min-radius", dest="min_radius", type=float, default=None)
        p.add_argument("--max-radius", dest="max_radius", type=float, default=None)
        p.add_argument("--forbid-overlap", dest="forbid_overlap",
                       action="store_const", const=True, default=None)
        if relocation:
            p.add_argument("--iterations", dest="relocation_iterations", type=int, default=None)

    add_opt_flags(add("minsum", cmd_minsum, "minimize the summed pupil radii, centers fixed"))
    add_opt_flags(add("minarea", cmd_minarea, "minimize the total pupil area, centers fixed"))
    add_opt_flags(add("move", cmd_move, "relocate pupils toward witness capture, radii fixed"),
                  relocation=True)
    p_ex = add("exhaustive", cmd_exhaustive, "grid search over radii that are multiples of theta")
    p_ex.add_argument("--theta", type=float, default=None)
    add("maxobj", cmd_maxobj, "largest objective radius the configuration covers")

    p_three = add("design-three", cmd_design_three, "optimal three-pupil design", config=False)
    p_three.add_argument("--objective-radius", dest="objective_radius", type=float, required=True)
    p_prime = add("design-prime", cmd_design_prime,
                  "equal-radius difference-cover design", config=False)
    p_prime.add_argument("--objective-radius", dest="objective_radius", type=float, required=True)
    p_prime.add_argument("--pupil-radius", dest="pupil_radius", type=float, required=True)

    p_render = sub.add_parser("render", help="render a configuration to SVG")
    p_render.add_argument("config")
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--layers", default=",".join(LAYERS),
                          help="comma-separated subset of: " + ", ".join(LAYERS))
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ConfigError, design.InvalidRadius, design.NotPrime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Infeasible, NumericalError, optimize.IterationLimit,
            optimize.SearchSpaceTooLarge, coverage.NoCoverage) as exc:
        _emit(
            {
                "schema": 1,
                "command": argv,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            },
            getattr(args, "out", None),
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
