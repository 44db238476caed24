"""Constructive designs: the three-pupil optimum and the prime-based
difference-cover construction for equal-radius pupils.

The difference cover takes a prime p and builds 4p integers whose pairwise
differences hit every integer of absolute value below p^2:

    x_k      = k*p + (k*(k+1)/2 mod p)    for k = 0..2p-1
    x_(k+2p) = x_k + p

Laying pupils on the 2D grid of these values makes the center differences
cover the integer lattice square of half-width p^2, and disks of radius
sqrt(2) * lattice step centered there cover the full square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Point, Pupil, PupilConfig


class NotPrime(ValueError):
    """The construction needs a prime modulus."""


class InvalidRadius(ValueError):
    """The requested pupil radius is out of range for the construction."""


def _safe_ceil(v: float) -> int:
    # Guards ceil against values sitting an ulp above an exact integer.
    return math.ceil(v - 1e-9)


def is_prime(k: int) -> bool:
    """Trial-division primality test."""
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    f = 3
    while f * f <= k:
        if k % f == 0:
            return False
        f += 2
    return True


def next_prime(k: int) -> int:
    """Smallest prime >= k (k >= 2)."""
    if k < 2:
        raise ValueError("next_prime requires k >= 2")
    while not is_prime(k):
        k += 1
    return k


@dataclass(frozen=True)
class DifferenceCoverSequence:
    """4p integers whose pairwise differences cover (-p^2, p^2)."""

    p: int
    values: tuple[int, ...]


def difference_cover_sequence(p: int) -> DifferenceCoverSequence:
    """The 4p-term difference cover for prime p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    first = [k * p + (k * (k + 1) // 2) % p for k in range(2 * p)]
    values = first + [v + p for v in first]
    return DifferenceCoverSequence(p, tuple(values))


def verify_difference_cover(seq: DifferenceCoverSequence) -> bool:
    """Brute-force check that every integer of absolute value below p^2
    appears among the pairwise differences."""
    diffs = {a - b for a in seq.values for b in seq.values}
    return all(x in diffs for x in range(-(seq.p**2) + 1, seq.p**2))


def three_pupil_optimal(objective_radius: float) -> PupilConfig:
    """Minimal-sum three-pupil cover: one pupil of half the objective radius
    and two point pupils.  The large pupil's self-difference disk covers the
    objective on its own, so the centers are free; the defaults are the
    origin and (+-R, 0)."""
    if objective_radius <= 0:
        raise ValueError("objective radius must be positive")
    r = objective_radius
    return PupilConfig(
        [
            Pupil(Point(0.0, 0.0), r / 2.0),
            Pupil(Point(r, 0.0), 0.0),
            Pupil(Point(-r, 0.0), 0.0),
        ],
        r,
    )


@dataclass(frozen=True)
class PrimeDesign:
    """Equal-radius design from the difference cover: 16 p^2 pupils whose
    scaled center differences cover the lattice square, hence the objective."""

    p: int
    scale: float
    pupils: tuple[Pupil, ...]
    pupil_radius: float
    objective_radius: float

    @property
    def count(self) -> int:
        return len(self.pupils)

    @property
    def config(self) -> PupilConfig:
        return PupilConfig(self.pupils, self.objective_radius)

    @property
    def approximation_ratio(self) -> float:
        """Pupil count over the area lower bound for pupils of radius rho.
        Their difference disks have radius 2 rho and the n diagonal ones are
        the origin disk, so at most n^2 - n + 1 distinct disks cover the
        objective: (n^2 - n + 1) 4 rho^2 >= R^2, that is
        n >= (1 + sqrt(R^2 / rho^2 - 3)) / 2."""
        ratio = self.objective_radius / self.pupil_radius
        return self.count / _safe_ceil((1.0 + math.sqrt(ratio * ratio - 3.0)) / 2.0)


def prime_design(objective_radius: float, rho: float) -> PrimeDesign:
    """Equal-radius covering design with 16 p^2 pupils of radius rho.

    The lattice step is s = rho * sqrt(2): a difference disk of radius 2*rho
    then covers the side-2s square around its center.  p is the smallest
    prime with p^2 >= R / s; when R / s is exactly the square of a prime the
    count meets the ceil(8 * sqrt(2) * R / rho) bound, otherwise the prime
    rounding overshoot is reported through ``approximation_ratio``."""
    if objective_radius <= 0:
        raise ValueError("objective radius must be positive")
    if rho <= 0 or rho > objective_radius / 2.0:
        raise InvalidRadius(
            f"pupil radius must lie in (0, {objective_radius / 2.0}], got {rho}"
        )
    scale = rho * math.sqrt(2.0)
    p = next_prime(max(2, _safe_ceil(math.sqrt(objective_radius / scale))))
    seq = difference_cover_sequence(p)
    side = 4 * p
    pupils = [
        Pupil(Point(scale * seq.values[i // side], scale * seq.values[i % side]), rho)
        for i in range(16 * p * p)
    ]
    return PrimeDesign(p, scale, tuple(pupils), rho, objective_radius)
