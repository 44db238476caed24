"""Property tests: ``decide`` and ``alpha_star`` do not depend on the frame
or on the order of the pupils.

Rotating or reflecting every pupil center about the origin rotates or
reflects the objective onto itself and every difference disk with it, and
permuting the pupils permutes the pairs, so alpha* must agree to 1e-9.  The
verdict is compared only where |alpha*| > 1e-6, away from tangency, where
rounding may legitimately tip it.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pupilcover import Point, Pupil, PupilConfig, alpha_star, decide  # noqa: E402

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
