import math

import pytest

from pupilcover import (
    InvalidRadius,
    NotPrime,
    Point,
    PrimeDesign,
    Pupil,
    PupilConfig,
    coverage_oracle,
    decide,
    difference_cover_sequence,
    is_prime,
    next_prime,
    prime_design,
    three_pupil_optimal,
    verify_difference_cover,
)


def test_three_pupil_optimal_covers_with_half_radius_sum():
    cfg = three_pupil_optimal(1.0)
    assert sum(cfg.radii) == 0.5
    assert decide(cfg)[0]
    cfg2 = three_pupil_optimal(2.0)
    assert sorted(cfg2.radii) == [0.0, 0.0, 1.0]
    assert decide(cfg2)[0]


def test_three_pupil_below_half_radius_never_covers(rng):
    for _ in range(50):
        weights = rng.dirichlet([1.0, 1.0, 1.0])
        radii = 0.49 * weights
        pupils = [
            Pupil(
                Point(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), float(r)
            )
            for r in radii
        ]
        assert not decide(PupilConfig(pupils, 1.0))[0]


@pytest.mark.parametrize(
    "k,expected",
    [(0, False), (1, False), (2, True), (3, True), (4, False), (9, False), (13, True), (25, False), (97, True)],
)
def test_is_prime(k, expected):
    assert is_prime(k) is expected


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(8) == 11
    assert next_prime(14) == 17


def test_difference_cover_sequence_p2():
    seq = difference_cover_sequence(2)
    assert list(seq.values) == [0, 3, 5, 6, 2, 5, 7, 8]
    assert verify_difference_cover(seq)


def test_difference_cover_sequence_p3():
    seq = difference_cover_sequence(3)
    assert list(seq.values) == [0, 4, 6, 9, 13, 15, 3, 7, 9, 12, 16, 18]
    assert verify_difference_cover(seq)


def test_difference_cover_rejects_composite():
    with pytest.raises(NotPrime):
        difference_cover_sequence(4)


def test_difference_cover_second_half_shifts_by_p():
    for p in (2, 3, 5, 7):
        seq = difference_cover_sequence(p)
        for k in range(2 * p):
            assert seq.values[k + 2 * p] == seq.values[k] + p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_difference_cover_verified(p):
    assert verify_difference_cover(difference_cover_sequence(p))


def test_verify_difference_cover_counterexample():
    from pupilcover import DifferenceCoverSequence

    assert not verify_difference_cover(DifferenceCoverSequence(2, (0, 1)))


def test_prime_design_canonical_p2():
    rho = 1.0 / math.sqrt(2.0)
    pd = prime_design(4.0, rho)
    assert pd.p == 2
    assert pd.count == 64
    assert all(p.radius == rho for p in pd.pupils)
    assert pd.scale == pytest.approx(1.0, abs=1e-12)


def test_prime_design_rejects_oversized_radius():
    with pytest.raises(InvalidRadius):
        prime_design(1.0, 0.6)
    with pytest.raises(InvalidRadius):
        prime_design(1.0, 0.0)


def test_prime_design_lattice_cover_2d():
    """The center differences of the design contain the full integer lattice
    square of half-width p^2 (checked in exact integer arithmetic)."""
    for p in (2, 3):
        seq = difference_cover_sequence(p)
        coords = list(seq.values)
        diffs = {a - b for a in coords for b in coords}
        needed = set(range(-(p * p) + 1, p * p))
        assert needed <= diffs  # each axis independently covers the range


def test_prime_design_covers_oracle():
    rho = 1.0 / math.sqrt(2.0)
    pd = prime_design(4.0, rho)
    ok, sample = coverage_oracle(pd.config, 256)
    assert ok, f"uncovered sample {sample}"


def test_prime_design_ratio_reported():
    """At the canonical scale the area bound is 4 pupils for p = 2
    (R / rho = 4 sqrt 2) and 7 for p = 3."""
    rho = 1.0 / math.sqrt(2.0)
    assert prime_design(4.0, rho).approximation_ratio == 64 / 4
    assert prime_design(9.0, rho).approximation_ratio == 144 / 7


def test_ratio_bound_is_met_by_three_pupils_of_quarter_radius():
    """Three pupils of radius R/4, 120 degrees apart on the circle of radius
    R/2, cover the objective and stop covering when they shrink, so no
    lower bound on the count of radius-R/4 pupils exceeds 3: ceil(R / rho)
    = 4 is none.  The area bound is 3, and their ratio is 1."""
    R = 1.0
    angles = [2.0 * math.pi * k / 3.0 for k in range(3)]

    def triangle(rho):
        return [Pupil(Point(0.5 * R * math.cos(t), 0.5 * R * math.sin(t)), rho) for t in angles]

    assert decide(PupilConfig(triangle(R / 4.0), R))[0]
    assert not decide(PupilConfig(triangle(0.999 * R / 4.0), R))[0]
    design = PrimeDesign(2, 0.0, tuple(triangle(R / 4.0)), R / 4.0, R)
    assert design.approximation_ratio == 1.0


def test_prime_design_general_radius_still_covers():
    pd = prime_design(2.0, 0.45)
    assert pd.count == 16 * pd.p * pd.p
    ok, _ = coverage_oracle(pd.config, 256)
    assert ok
