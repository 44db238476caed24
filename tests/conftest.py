import math
import sys

import numpy as np
import pytest

from pupilcover import Acs, Disk, Point, Pupil, PupilConfig


def random_config(rng: np.random.Generator, n: int, radius: float = 1.0) -> PupilConfig:
    """Random configuration: centers uniform in the [-R, R] square, radii
    uniform in [0, R/2]."""
    pupils = [
        Pupil(
            Point(float(rng.uniform(-radius, radius)), float(rng.uniform(-radius, radius))),
            float(rng.uniform(0.0, radius / 2.0)),
        )
        for _ in range(n)
    ]
    return PupilConfig(pupils, radius)


def near_collinear_start(seed: int) -> PupilConfig:
    """Five pupils jittered about a random line through the origin, radii in
    [0.1, 0.3], R = 1: the starts of acceptance criterion 10."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0, np.pi)
    u = np.array([np.cos(angle), np.sin(angle)])
    pupils = []
    for _ in range(5):
        t = rng.uniform(-0.8, 0.8)
        jitter = rng.normal(0, 0.03, 2)
        cx, cy = t * u + jitter
        pupils.append(Pupil(Point(float(cx), float(cy)), float(rng.uniform(0.1, 0.3))))
    return PupilConfig(pupils, 1.0)


def g4_lattice(kind: str, rho: float, radius: float) -> PupilConfig:
    """The 4 x 4 patch of the unit square or triangular lattice, all radii rho."""
    pts = []
    for j in range(4):
        for i in range(4):
            if kind == "square":
                pts.append(Point(float(i), float(j)))
            else:
                pts.append(Point(i + 0.5 * j, j * math.sqrt(3.0) / 2.0))
    return PupilConfig([Pupil(p, rho) for p in pts], radius)


def acs_of_disks(disks) -> Acs:
    """Raw disks as an Acs with no pupil pairs, bypassing pupil construction."""
    centers = np.array([(d.center.x, d.center.y) for d in disks], dtype=float).reshape(-1, 2)
    radii = np.array([d.radius for d in disks], dtype=float)
    return Acs(centers, radii, np.zeros((0, 0), dtype=np.int32))


def acs_disks(acs: Acs) -> list[Disk]:
    """The ACS disks as Disk objects, for the scalar reference code."""
    return [Disk(Point(x, y), r) for (x, y), r in zip(acs.centers.tolist(), acs.radii.tolist())]


def count_calls(monkeypatch, home: str, name: str) -> list:
    """Wrap ``pupilcover.<home>.<name>`` in every pupilcover module that
    binds it, so calls from any module are seen; returns the list that
    grows by one entry per call."""
    orig = getattr(sys.modules[f"pupilcover.{home}"], name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.startswith("pupilcover") and mod.__dict__.get(name) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
