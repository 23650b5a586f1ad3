import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ikann.errors import DegenerateAxis, UnreachableTarget
from ikann.kinematics import (ELBOW_A, ELBOW_B, RobotGeometry, _solve_rows,
                              forward_kinematics_batch, inverse_kinematics,
                              wrap_angle)

PI = math.pi


def fk(q, geom):
    """Tip position of one joint-angle triple."""
    return forward_kinematics_batch([q], geom)[0]


@pytest.mark.parametrize("q, expected", [
    ((PI / 2, 0.0, 0.0), (0.0, 140.0, 70.0)),      # fully extended along +y
    ((0.0, -PI / 2, 0.0), (0.0, 0.0, -70.0)),      # moving links straight down
    ((0.0, 0.0, -PI / 2), (70.0, 0.0, 0.0)),       # elbow bent 90 deg down
])
def test_forward_kinematics_examples(q, expected, geom):
    np.testing.assert_allclose(fk(q, geom), expected, atol=1e-12)


def test_inverse_kinematics_examples(geom):
    q = inverse_kinematics((70.0, 0.0, 0.0), geom)
    np.testing.assert_allclose(q, (0.0, 0.0, -PI / 2), atol=1e-12)
    np.testing.assert_allclose(fk(q, geom), (70.0, 0.0, 0.0), atol=1e-9)

    q = inverse_kinematics((0.0, 140.0, 70.0), geom)
    np.testing.assert_allclose(q, (PI / 2, 0.0, 0.0), atol=1e-7)

    with pytest.raises(UnreachableTarget):
        inverse_kinematics((300.0, 0.0, 0.0), geom)


def test_degenerate_axis(geom):
    with pytest.raises(DegenerateAxis):
        inverse_kinematics((0.0, 0.0, 120.0), geom)


def test_is_reachable_examples(geom):
    # both spheres of the workspace shell are in reach, just beyond them not;
    # with l2 = 70, l3 = 50 the inner sphere has radius 20 about the shoulder
    inner = RobotGeometry(l1=70.0, l2=70.0, l3=50.0)
    for x, g in (((70.0, 0.0, 0.0), geom), ((140.0, 0.0, 70.0), geom),
                 ((20.0, 0.0, 70.0), inner)):
        np.testing.assert_allclose(fk(inverse_kinematics(x, g), g), x, atol=1e-9)
    for x, g in (((300.0, 0.0, 0.0), geom), ((140.0 + 1e-6, 0.0, 70.0), geom),
                 ((20.0 - 1e-6, 0.0, 70.0), inner)):
        with pytest.raises(UnreachableTarget):
            inverse_kinematics(x, g)


@pytest.mark.parametrize("x", [
    (math.nan, 50.0, 30.0), (50.0, math.nan, 30.0), (50.0, 50.0, math.nan),
    (math.inf, 50.0, 30.0), (50.0, -math.inf, 30.0), (50.0, 50.0, math.inf),
    (50.0, 50.0, -math.inf), (math.inf, math.nan, 30.0),
])
def test_non_finite_target_unreachable(x, geom):
    with pytest.raises(UnreachableTarget):
        inverse_kinematics(x, geom)


def test_box_corners_reachable(box, geom):
    # independent oracle: evaluate the reach inequality directly per corner
    for c in itertools.product(*zip(box.lo, box.hi)):
        rho2 = c[0] ** 2 + c[1] ** 2 + (c[2] - geom.l1) ** 2
        assert rho2 <= (geom.l2 + geom.l3) ** 2
        np.testing.assert_allclose(fk(inverse_kinematics(c, geom), geom), c, atol=1e-9)


def test_round_trip_10k(box, geom):
    rng = np.random.default_rng(2024)
    pts = rng.uniform(box.lo, box.hi, size=(10000, 3))
    qs = np.array([inverse_kinematics(p, geom) for p in pts])
    err = np.linalg.norm(forward_kinematics_batch(qs, geom) - pts, axis=1)
    assert err.max() < 1e-9


def test_elbow_branch_signs(box):
    rng = np.random.default_rng(5)
    pts = rng.uniform(box.lo, box.hi, size=(2000, 3))
    geom_a = RobotGeometry()
    geom_b = RobotGeometry(elbow_branch=ELBOW_B)
    for p in pts[:200]:
        assert inverse_kinematics(p, geom_a)[2] <= 0.0
        qb = inverse_kinematics(p, geom_b)
        assert qb[2] >= 0.0
        np.testing.assert_allclose(fk(qb, geom_b), p, atol=1e-9)


def test_joint_angles_wrapped(box, geom):
    rng = np.random.default_rng(6)
    pts = rng.uniform(box.lo, box.hi, size=(2000, 3))
    qs = np.array([inverse_kinematics(p, geom) for p in pts])
    assert np.all(np.abs(qs) <= PI + 1e-12)


def _elbow_d(p, geom):
    r2 = p[0] ** 2 + p[1] ** 2
    s = p[2] - geom.l1
    return (r2 + s * s - geom.l2 ** 2 - geom.l3 ** 2) / (2 * geom.l2 * geom.l3)


def test_continuity_probe(box, geom):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 500:
        p = rng.uniform(box.lo, box.hi)
        delta = rng.normal(size=3)
        delta *= 1e-6 / np.linalg.norm(delta)
        p2 = p + delta
        if not max(abs(_elbow_d(p, geom)), abs(_elbow_d(p2, geom))) < 1.0 - 1e-3:
            continue
        dq = inverse_kinematics(p2, geom) - inverse_kinematics(p, geom)
        assert np.linalg.norm(dq) <= 1e-2
        checked += 1


def closed_form_ik(x1, x2, x3, geom):
    """The closed-form inverse written out with ``math``, operation by
    operation in the package's order: the independent copy that pins the bits
    of every IK label (numpy's arctan2 and hypot differ in the last bit for
    some inputs)."""
    r = math.hypot(x1, x2)
    if r < 1e-9:
        raise DegenerateAxis(f"({x1}, {x2}, {x3}) lies on the base axis")
    s = x3 - geom.l1
    d = (r * r + s * s - geom.l2 ** 2 - geom.l3 ** 2) / (2.0 * geom.l2 * geom.l3)
    if not abs(d) <= 1.0 + 1e-12:
        raise UnreachableTarget(f"({x1}, {x2}, {x3}) is outside the workspace (D={d:.6g})")
    d = min(1.0, max(-1.0, d))
    root = math.sqrt(1.0 - d * d)
    q3 = math.atan2(-root if geom.elbow_branch == ELBOW_A else root, d)
    q2 = math.atan2(s, r) - math.atan2(geom.l3 * math.sin(q3), geom.l2 + geom.l3 * math.cos(q3))
    return math.atan2(x2, x1), wrap_angle(q2), q3


@pytest.mark.parametrize("links", [(70.0, 70.0, 70.0), (70.0, 70.0, 50.0)])
@pytest.mark.parametrize("branch", [ELBOW_A, ELBOW_B])
def test_inverse_kinematics_is_the_closed_form_bitwise(links, branch):
    geom = RobotGeometry(*links, elbow_branch=branch)
    rng = np.random.default_rng(12)
    pts = rng.uniform((-150.0, -150.0, -80.0), (150.0, 150.0, 220.0), size=(3000, 3))
    # on the base axis, on both spheres of the shell and just beyond them
    pts[:6] = [(0.0, 0.0, 10.0), (0.0, 0.0, 70.0), (geom.l2 + geom.l3, 0.0, 70.0),
               (geom.l2 - geom.l3 or 1.0, 0.0, 70.0), (200.0, 0.0, 70.0), (math.nan, 1.0, 1.0)]
    outcomes = set()
    for p in pts:
        try:
            want = np.array(closed_form_ik(*p.tolist(), geom))
        except (DegenerateAxis, UnreachableTarget) as ref:
            with pytest.raises(type(ref)) as exc:
                inverse_kinematics(p, geom)
            assert str(exc.value) == str(ref)
            outcomes.add(type(ref))
            continue
        assert inverse_kinematics(p, geom).tobytes() == want.tobytes()
        outcomes.add(None)
    assert outcomes == {None, DegenerateAxis, UnreachableTarget}


def test_geometry_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for links in ((bad, 70.0, 70.0), (70.0, bad, 70.0), (70.0, 70.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                RobotGeometry(*links)
    # IK squares l2 and l3, which overflows, and divides by 2 * l2 * l3, which
    # underflows to 0
    for links in ((1e200, 1e200, 1e200), (70.0, 1e200, 70.0), (70.0, 70.0, 1e155),
                  (1e-200, 1e-200, 1e-200), (70.0, 1e-200, 1e-200)):
        with pytest.raises(ValueError, match="too large or too small"):
            RobotGeometry(*links)
    with pytest.raises(ValueError):
        RobotGeometry(elbow_branch="C")


def test_wrap_angle():
    assert wrap_angle(3 * PI) == pytest.approx(PI)
    assert wrap_angle(-3 * PI) == pytest.approx(PI)
    assert wrap_angle(0.5) == 0.5


@settings(max_examples=300, deadline=None)
@given(links=st.tuples(*[st.floats(5.0, 300.0)] * 3),
       branch=st.sampled_from([ELBOW_A, ELBOW_B]),
       q=st.tuples(*[st.floats(-PI, PI)] * 3))
def test_fk_ik_roundtrip_property(links, branch, q):
    # every tip position FK reaches is reachable; keep those off the base axis
    geom = RobotGeometry(*links, elbow_branch=branch)
    x = fk(q, geom)
    assume(math.hypot(x[0], x[1]) >= 1e-6)
    assert np.linalg.norm(fk(inverse_kinematics(x, geom), geom) - x) < 1e-9


@pytest.mark.parametrize("x", [
    [50.3, 40.1, 20.7], (50.3, 40.1, 20.7), np.array([50.3, 40.1, 20.7]),
    np.array([50.3, 40.1, 20.7], dtype=np.float32), np.array([50, 40, 20]),
])
def test_inverse_kinematics_of_each_row_type_is_the_closed_form(x, geom):
    want = np.array(closed_form_ik(float(x[0]), float(x[1]), float(x[2]), geom))
    assert inverse_kinematics(x, geom).tobytes() == want.tobytes()


def test_int_row_error_prints_floats(geom):
    with pytest.raises(DegenerateAxis) as exc:
        inverse_kinematics(np.array([0, 0, 10]), geom)
    assert str(exc.value) == "(0.0, 0.0, 10.0) lies on the base axis"


def planted(rng, geom, kind):
    """A point of ``kind`` that one-point IK rejects, or barely accepts."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    shoulder = np.array([0.0, 0.0, geom.l1])
    if kind == "base axis":
        return np.array([0.0, 0.0, rng.uniform(-100.0, 200.0)])
    if kind == "beyond the outer sphere":
        return shoulder + u * (geom.l2 + geom.l3) * (1.0 + 1e-9)
    if kind == "inside the inner sphere":
        return shoulder + u * abs(geom.l2 - geom.l3) * (1.0 - 1e-9)
    if kind == "on the outer sphere":
        return shoulder + u * (geom.l2 + geom.l3)
    bad = rng.choice([math.nan, math.inf, -math.inf])
    return np.where(np.arange(3) == rng.integers(3), bad, rng.uniform(10.0, 50.0, 3))


@settings(max_examples=150, deadline=None)
@given(links=st.tuples(*[st.floats(10.0, 150.0)] * 3),
       branch=st.sampled_from([ELBOW_A, ELBOW_B]),
       n=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1),
       plants=st.lists(st.sampled_from(["base axis", "beyond the outer sphere",
                                        "inside the inner sphere", "on the outer sphere",
                                        "non-finite"]), max_size=3))
def test_columns_form_is_one_point_ik_of_each_row(links, branch, n, seed, plants):
    # reachable points are FK of random joints, so that most sets label whole
    geom = RobotGeometry(*links, elbow_branch=branch)
    rng = np.random.default_rng(seed)
    pts = forward_kinematics_batch(rng.uniform(-PI, PI, (n, 3)), geom)
    for kind in plants:
        pts[rng.integers(n)] = planted(rng, geom, kind)
    first_error = None
    for i, p in enumerate(pts):
        try:
            inverse_kinematics(p, geom)
        except (DegenerateAxis, UnreachableTarget) as exc:
            first_error = i, exc
            break
    if first_error is None:
        want = np.array([inverse_kinematics(p, geom) for p in pts])
        assert _solve_rows(pts, geom).tobytes() == want.tobytes()
        return
    row, ref = first_error
    with pytest.raises(type(ref)) as exc:
        _solve_rows(pts, geom)
    assert str(exc.value) == str(ref)
    assert exc.value.row == row
