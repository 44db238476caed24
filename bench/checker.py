"""Independent correctness checks for benchmark outputs.

Uses numpy only and never imports pupilcover.  Every check starts from the
raw pupil list, an (n, 3) array of x, y and radius, builds all n^2
difference disks itself (no merging of concentric disks) and evaluates the
smallest additive distance on a seeded dense polar sample of the objective
that includes the rim.  The checks are one-sided where sampling is: a
sample can refute a claim of coverage or of a tight ``alpha_star``, and an
exhibited witness is checked exactly.

Each check returns a list of problems, one ``(property, message)`` pair per
violated property; an empty list means the output passed.

Run ``python3 bench/checker.py`` for the self-test.
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np

#: Absolute tolerance for "covered" and equalities (length units), the
#: program's own boundary tolerance.
TOL = 1e-9

#: Property name of the known ``max_objective`` fault: a configuration that
#: the decision calls covered at radius R must report ``r_star >= R``.
R_STAR_COVERS_R = "r_star_covers_R"


def difference_disks(pupils: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All n^2 difference disks: centers c_i - c_j and radii rho_i + rho_j."""
    centers = (pupils[:, None, :2] - pupils[None, :, :2]).reshape(-1, 2)
    radii = (pupils[:, None, 2] + pupils[None, :, 2]).reshape(-1)
    return centers, radii


def additive_min(pupils: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Smallest additive distance |p - c| - r over all difference disks, for
    each row of ``pts``; positive means uncovered."""
    centers, radii = difference_disks(pupils)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.full(len(pts), np.inf)
    for (cx, cy), r in zip(centers, radii):
        np.minimum(out, np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) - r, out=out)
    return out


def polar_sample(radius: float, seed: int, rings: int = 64, angles: int = 256) -> np.ndarray:
    """The origin plus ``rings`` circles at radius k/rings * R (the last one
    is the rim), each with ``angles`` points at a seeded angular offset."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 1.0, rings)
    ring_r = radius * np.arange(1, rings + 1) / rings
    theta = 2.0 * math.pi * (np.arange(angles)[None, :] + offsets[:, None]) / angles
    xs = (ring_r[:, None] * np.cos(theta)).ravel()
    ys = (ring_r[:, None] * np.sin(theta)).ravel()
    return np.vstack([[0.0, 0.0], np.column_stack([xs, ys])])


class Sample:
    """Polar sample of one configuration's objective with its smallest
    additive distances, computed once and shared by every check on it."""

    def __init__(self, pupils, radius: float, seed: int, rings: int = 64, angles: int = 256):
        self.pupils = np.asarray(pupils, dtype=float)
        self.radius = float(radius)
        self.pts = polar_sample(self.radius, seed, rings, angles)
        self.values = additive_min(self.pupils, self.pts)
        self.norms = np.hypot(self.pts[:, 0], self.pts[:, 1])

    @property
    def worst(self) -> float:
        """Largest smallest-additive-distance over the sample (a lower bound
        on alpha_star)."""
        return float(self.values.max())


def check_verdict(s: Sample, covered: bool, witness) -> list[tuple[str, str]]:
    """A decision: an uncovered verdict needs a witness inside the objective
    and outside every disk; a covered verdict must leave no sample uncovered."""
    problems = []
    if covered:
        if witness is not None:
            problems.append(("witness_none_when_covered", f"covered but witness {witness}"))
        if s.worst > TOL:
            k = int(np.argmax(s.values))
            problems.append(("covered_verdict", f"sample {s.pts[k].tolist()} is uncovered "
                                                f"by {s.worst:.3e}"))
        return problems
    if witness is None:
        return [("witness_present", "uncovered verdict without a witness")]
    w = np.asarray(witness, dtype=float)
    if math.hypot(w[0], w[1]) > s.radius + TOL:
        problems.append(("witness_in_objective", f"witness {w.tolist()} lies outside the objective"))
    gap = float(additive_min(s.pupils, w)[0])
    if gap <= 0.0:
        problems.append(("witness_uncovered", f"witness {w.tolist()} is covered ({gap:.3e})"))
    return problems


def check_report(s: Sample, covered: bool, witness, alpha: float,
                 r_star: float) -> list[tuple[str, str]]:
    """A full analysis: the verdict as above, ``alpha`` equal to the additive
    distance at the witness and at least the value at every sample, the
    verdict consistent with ``alpha``, every sample within ``r_star``
    covered, and ``r_star >= R`` whenever the verdict is covered."""
    problems = check_verdict(s, covered, witness)
    if covered != (alpha <= TOL):
        problems.append(("verdict_matches_alpha", f"covered={covered} with alpha_star {alpha!r}"))
    if witness is not None:
        at_witness = float(additive_min(s.pupils, np.asarray(witness, dtype=float))[0])
        if abs(at_witness - alpha) > TOL:
            problems.append(("alpha_at_witness", f"alpha_star {alpha!r} but the witness "
                                                 f"has additive distance {at_witness!r}"))
    if alpha < s.worst - TOL:
        problems.append(("alpha_upper_bound", f"alpha_star {alpha!r} below sample value {s.worst!r}"))
    problems += check_r_star(s, r_star)
    if covered and r_star < s.radius - TOL:
        problems.append((R_STAR_COVERS_R, f"covered at R={s.radius!r} but r_star={r_star!r}"))
    return problems


def check_r_star(s: Sample, r_star: float) -> list[tuple[str, str]]:
    """Every sample within ``r_star`` of the origin is covered."""
    inside = s.norms <= r_star
    if inside.any() and s.values[inside].max() > TOL:
        k = int(np.flatnonzero(inside)[np.argmax(s.values[inside])])
        return [("r_star_covered", f"r_star {r_star!r} but sample {s.pts[k].tolist()} "
                                   f"at norm {s.norms[k]:.6f} is uncovered")]
    return []


def check_lattice(covered: bool, alpha, covering_radius: float,
                  rho: float) -> list[tuple[str, str]]:
    """Equal-radius lattice whose objective lies in the lattice patch:
    alpha_star is the covering radius minus 2 rho (when known), and the
    verdict is covered exactly when 2 rho reaches the covering radius."""
    problems = []
    expect = covering_radius - 2.0 * rho
    if alpha is not None and abs(alpha - expect) > TOL:
        problems.append(("lattice_alpha", f"alpha_star {alpha!r}, closed form {expect!r}"))
    if covered != (2.0 * rho >= covering_radius):
        problems.append(("lattice_verdict", f"covered={covered} with 2 rho={2 * rho!r}, "
                                            f"covering radius {covering_radius!r}"))
    return problems


#: Relative slack on "the radius sum never increases": the programs' last
#: pass may move an optimal sum by rounding only (a few ulps).
SUM_RTOL = 1e-12


def check_radius_trace(s_final: Sample, sums, final_covered: bool) -> list[tuple[str, str]]:
    """Radius optimizer: the final configuration covers, and the radius sum
    never increases after the first trace entry (beyond SUM_RTOL)."""
    problems = []
    if not final_covered:
        problems.append(("final_covered_flag", "the trace's last entry is not covered"))
    if s_final.worst > TOL:
        problems.append(("final_covers", f"final configuration leaves a sample uncovered "
                                         f"by {s_final.worst:.3e}"))
    for k in range(1, len(sums) - 1):
        if sums[k + 1] > sums[k] * (1.0 + SUM_RTOL):
            problems.append(("sums_nonincreasing", f"sum of radii rose from {sums[k]!r} to "
                                                   f"{sums[k + 1]!r} at entry {k + 1}"))
            break
    return problems


def check_move(start: np.ndarray, final: np.ndarray) -> list[tuple[str, str]]:
    """Relocation keeps every radius unchanged."""
    if not np.array_equal(start[:, 2], final[:, 2]):
        return [("move_keeps_radii", f"radii changed from {start[:, 2].tolist()} "
                                     f"to {final[:, 2].tolist()}")]
    return []


def check_cli_report(report: dict, input_bytes: bytes | None) -> list[tuple[str, str]]:
    """Envelope of a CLI JSON report: schema 1 and, for commands that read a
    configuration file, the SHA-256 of its bytes as ``input_digest``."""
    problems = []
    if report.get("schema") != 1:
        problems.append(("schema", f"schema is {report.get('schema')!r}"))
    if input_bytes is not None and report.get("input_digest") != hashlib.sha256(input_bytes).hexdigest():
        problems.append(("input_digest", "input_digest is not the SHA-256 of the input file"))
    if "error" in report:
        problems.append(("no_error", f"report carries an error: {report['error']}"))
    return problems


def check_svg(first: bytes, second: bytes) -> list[tuple[str, str]]:
    """Rendered SVG parses as XML with an <svg> root and is byte-identical
    when rendered twice."""
    problems = []
    try:
        root = ET.fromstring(first)
    except ET.ParseError as exc:
        return [("svg_parses", str(exc))]
    if not root.tag.endswith("svg"):
        problems.append(("svg_root", f"root element is {root.tag}"))
    if first != second:
        problems.append(("svg_deterministic", "two renderings differ"))
    return problems


def selftest() -> None:
    """The checks accept a known-correct analysis and reject a perturbed
    alpha_star, a covered witness and an r_star that is too large.

    Two pupils (0, 0, 0.3) and (1, 0, 0.2) with R = 1 give the disks
    (0, 0; 0.6) and (+-1, 0; 0.5).  The point (0, 1) is at additive
    distance 0.4 from both the origin disk and the others are farther, so
    alpha_star = 0.4 there; the union boundary around the origin is the
    origin disk's circle, so r_star = 0.6."""
    pupils = np.array([[0.0, 0.0, 0.3], [1.0, 0.0, 0.2]])
    s = Sample(pupils, 1.0, seed=0)
    good = dict(covered=False, witness=(0.0, 1.0), alpha=0.4, r_star=0.6)
    assert check_report(s, **good) == [], check_report(s, **good)
    cases = {
        "alpha_at_witness": dict(good, alpha=0.4 + 1e-6),
        "alpha_upper_bound": dict(good, witness=(0.0, 0.95), alpha=0.35),
        "witness_uncovered": dict(good, witness=(0.2, 0.0), alpha=-0.4),
        "r_star_covered": dict(good, r_star=0.7),
        "covered_verdict": dict(good, covered=True, witness=None, alpha=0.0),
    }
    for prop, bad in cases.items():
        found = {p for p, _ in check_report(s, **bad)}
        assert prop in found, (prop, found)
    lattice_rho = math.sqrt(2.0) / 4.0
    assert check_lattice(True, 0.0, math.sqrt(2.0) / 2.0, lattice_rho) == []
    assert check_lattice(False, 1e-6, math.sqrt(2.0) / 2.0, lattice_rho)
    assert check_svg(b"<svg/>", b"<svg/>") == []
    assert check_svg(b"<svg/>", b"<svg />")
    assert check_svg(b"<svg", b"<svg")


if __name__ == "__main__":
    selftest()
    print("checker self-test passed")
