"""Property tests of ``decide`` and ``alpha_star``.

- Frame and order: rotating or reflecting every pupil center about the
  origin rotates or reflects the objective onto itself and every difference
  disk with it, and permuting the pupils permutes the pairs, so alpha* must
  agree to 1e-9.  The verdict is compared only where |alpha*| > 1e-6, away
  from tangency, where rounding may legitimately tip it.
- Scale: scaling every length by s scales alpha* by s.
- Enlargement: growing every pupil by a grows every difference disk by 2a
  and leaves the diagram unchanged, so alpha* falls by exactly 2a; hence a
  covered configuration stays covered, and alpha*/2 is the tight growth.
- Degenerate inputs (duplicate pupils, equal radii on a line, cocircular
  lattices): ``decide`` never calls covered what the 512-grid oracle shows
  uncovered.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pupilcover import (  # noqa: E402
    Point, Pupil, PupilConfig, alpha_star, build_acs, coverage_oracle, decide, delta_min,
)
from tests.conftest import g4_lattice  # noqa: E402

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

pupil_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 0.45)),
    min_size=1, max_size=5,
)
angles = st.floats(0.0, 2.0 * math.pi)


def _config(pupils) -> PupilConfig:
    return PupilConfig([Pupil(Point(x, y), r) for x, y, r in pupils], 1.0)


def _assert_same_coverage(pupils, moved) -> None:
    cfg, other = _config(pupils), _config(moved)
    a, b = alpha_star(cfg), alpha_star(other)
    assert b == pytest.approx(a, abs=1e-9)
    if abs(a) > 1e-6:
        assert decide(cfg)[0] == decide(other)[0]


@PROPERTY
@given(pupil_lists, angles)
def test_rotation_invariance(pupils, theta):
    c, s = math.cos(theta), math.sin(theta)
    _assert_same_coverage(pupils, [(c * x - s * y, s * x + c * y, r) for x, y, r in pupils])


@PROPERTY
@given(pupil_lists, angles)
def test_reflection_invariance(pupils, phi):
    # Reflection across the line through the origin at angle phi.
    c, s = math.cos(2.0 * phi), math.sin(2.0 * phi)
    _assert_same_coverage(pupils, [(c * x + s * y, s * x - c * y, r) for x, y, r in pupils])


@PROPERTY
@given(pupil_lists, st.randoms(use_true_random=False))
def test_permutation_invariance(pupils, random):
    moved = list(pupils)
    random.shuffle(moved)
    _assert_same_coverage(pupils, moved)


@PROPERTY
@given(pupil_lists, st.floats(-3.0, 3.0))
def test_scaling_scales_alpha(pupils, exponent):
    s = 10.0 ** exponent
    scaled = PupilConfig([Pupil(Point(s * x, s * y), s * r) for x, y, r in pupils], s)
    assert alpha_star(scaled) == pytest.approx(s * alpha_star(_config(pupils)), rel=1e-9, abs=1e-9 * s)


def _near_threshold(cfg: PupilConfig, shift: float) -> PupilConfig:
    """``cfg`` grown to ``shift`` past the growth that just covers it
    (covered for shift > 0, not for shift < 0), or left as it is where that
    would shrink it."""
    return cfg.enlarged(max(alpha_star(cfg) / 2.0 + shift, 0.0))


shifts = st.floats(-0.02, 0.02)


@PROPERTY
@given(pupil_lists, shifts, st.floats(1e-6, 0.2))
def test_enlargement_is_monotone(pupils, shift, eps):
    cfg = _near_threshold(_config(pupils), shift)
    grown = cfg.enlarged(eps)
    assert alpha_star(grown) == pytest.approx(alpha_star(cfg) - 2.0 * eps, abs=1e-9)
    if decide(cfg)[0]:
        assert decide(grown)[0]


@PROPERTY
@given(pupil_lists)
def test_half_alpha_is_the_tight_enlargement(pupils):
    cfg = _config(pupils)
    a = alpha_star(cfg)
    if a <= 1e-6:
        return
    assert decide(cfg.enlarged(a / 2.0 + 1e-7))[0]
    assert not decide(cfg.enlarged(a / 2.0 - 1e-7))[0]


def _assert_agrees_with_oracle(cfg) -> None:
    """Where the 512-grid oracle finds an uncovered point, ``decide`` must
    answer uncovered, and its witness must be uncovered too."""
    covered, witness = decide(cfg)
    if not coverage_oracle(cfg, 512)[0]:
        assert not covered
    if not covered:
        assert delta_min(build_acs(cfg), witness)[0] > 0.0


@PROPERTY
@given(pupil_lists.filter(lambda ps: len(ps) <= 4), st.integers(0, 3), shifts)
def test_duplicate_pupils(pupils, which, shift):
    # A copy of a pupil adds only difference disks that are already there.
    moved = pupils + [pupils[which % len(pupils)]]
    assert alpha_star(_config(moved)) == pytest.approx(alpha_star(_config(pupils)), abs=1e-12)
    _assert_agrees_with_oracle(_near_threshold(_config(moved), shift))


@PROPERTY
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=5), st.floats(0.0, 0.45), angles,
       st.floats(-0.5, 0.5), shifts)
def test_equal_radii_on_a_line(ts, r, phi, offset, shift):
    c, s = math.cos(phi), math.sin(phi)
    cfg = PupilConfig([Pupil(Point(t * c - offset * s, t * s + offset * c), r) for t in ts], 1.0)
    _assert_agrees_with_oracle(_near_threshold(cfg, shift))


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.0, 1.1, 1.5])
@pytest.mark.parametrize("kind, cover, radius", [
    ("square", math.sqrt(2.0) / 2.0, 2.5),
    ("triangular", 1.0 / math.sqrt(3.0), 2.3),
])
def test_cocircular_lattices(kind, cover, radius, factor):
    _assert_agrees_with_oracle(g4_lattice(kind, 0.5 * cover * factor, radius))
