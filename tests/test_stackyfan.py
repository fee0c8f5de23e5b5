from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import valid_fans
from stackychow.lattice import AbGroup, solve_rational
from stackychow.stackyfan import StackyFan, weighted_projective_fan

F = Fraction


def el(fan, v):
  return fan.box_lookup(v)


# -- the order 6,4 weighted projective line ----------------------------------

def test_p64_validates(p64):
  assert p64.validate() == ()


def test_p64_box_of_cones(p64):
  assert {e.v for e in p64.box_of_cone((0,))} == {
      (0, 0), (0, 1), (1, 0), (1, 1)}
  assert {e.v for e in p64.box_of_cone((1,))} == {
      (0, 0), (0, 1), (-1, 0), (-1, 1), (-2, 0), (-2, 1)}
  assert {e.v for e in p64.box_of_cone(())} == {(0, 0), (0, 1)}


def test_p64_box_order(p64):
  assert [e.v for e in p64.box()] == [
      (0, 0), (0, 1), (1, 0), (1, 1), (-1, 0), (-1, 1), (-2, 0), (-2, 1)]


def test_p64_ages(p64):
  ages = {e.v: e.age for e in p64.box()}
  assert ages[(0, 0)] == 0
  assert ages[(0, 1)] == 0
  assert ages[(1, 0)] == F(1, 2) and ages[(1, 1)] == F(1, 2)
  assert ages[(-1, 0)] == F(1, 3) and ages[(-1, 1)] == F(1, 3)
  assert ages[(-2, 0)] == F(2, 3) and ages[(-2, 1)] == F(2, 3)


def test_p64_box_addition_table(p64):
  # inside the cone of the first ray: elements (1,1), (1,0), (0,1)
  a, b, c = el(p64, (1, 1)), el(p64, (1, 0)), el(p64, (0, 1))
  zero = el(p64, (0, 0))
  assert p64.box_add(a, a) == c
  assert p64.box_add(a, b) == zero
  assert p64.box_add(a, c) == b
  assert p64.box_add(b, b) == c
  assert p64.box_add(b, c) == a
  assert p64.box_add(c, c) == zero


def test_p64_box_add_needs_common_cone(p64):
  with pytest.raises(ValueError, match="no common cone"):
    p64.box_add(el(p64, (1, 0)), el(p64, (-1, 0)))


def test_p64_phases(p64):
  expected = {
      (0, 0): ((F(0), F(0)), (F(0),)),
      (1, 0): ((F(1, 2), F(0)), (F(1, 4),)),
      (1, 1): ((F(1, 2), F(0)), (F(3, 4),)),
      (0, 1): ((F(0), F(0)), (F(1, 2),)),
      (-1, 0): ((F(0), F(1, 3)), (F(0),)),
      (-1, 1): ((F(0), F(1, 3)), (F(1, 2),)),
      (-2, 0): ((F(0), F(2, 3)), (F(0),)),
      (-2, 1): ((F(0), F(2, 3)), (F(1, 2),)),
  }
  for e in p64.box():
    g = p64.group_element(e)
    assert (g.gamma_phases, g.s_phases) == expected[e.v]
    assert p64.box_from_group(g) == e


def test_p64_group_rejections(p64):
  from stackychow.stackyfan import GroupElement
  with pytest.raises(ValueError, match="does not fix a point of Z"):
    p64.box_from_group(GroupElement((F(1, 2), F(1, 3)), (F(0),)))
  with pytest.raises(ValueError, match="phase relations violated"):
    p64.box_from_group(GroupElement((F(1, 3), F(0)), (F(0),)))
  with pytest.raises(ValueError, match="phase relations violated"):
    p64.box_from_group(GroupElement((F(1, 2), F(0)), (F(1, 8),)))


def test_p64_double_box(p64):
  dbl = p64.double_box()
  assert len(dbl) == 48
  assert (el(p64, (1, 0)), el(p64, (1, 1))) in dbl
  assert (el(p64, (1, 0)), el(p64, (-1, 0))) not in dbl


# -- the order 6,5,4 weighted projective plane --------------------------------

def test_p654_validates(p654):
  assert p654.validate() == ()


def test_p654_box_order_and_data(p654):
  box = p654.box()
  expected = [
      ((0, 0), (F(0), F(0), F(0)), ()),
      ((1, 1), (F(1, 2), F(1, 4), F(0)), (0, 1)),
      ((1, 2), (F(1, 2), F(3, 4), F(0)), (0, 1)),
      ((-2, -3), (F(1, 5), F(0), F(4, 5)), (0, 2)),
      ((-1, -2), (F(2, 5), F(0), F(3, 5)), (0, 2)),
      ((0, -1), (F(3, 5), F(0), F(2, 5)), (0, 2)),
      ((1, 0), (F(4, 5), F(0), F(1, 5)), (0, 2)),
      ((0, 1), (F(0), F(1, 2), F(0)), (1,)),
      ((-1, -1), (F(0), F(1, 6), F(1, 3)), (1, 2)),
      ((-2, -2), (F(0), F(1, 3), F(2, 3)), (1, 2)),
      ((-1, 0), (F(0), F(2, 3), F(1, 3)), (1, 2)),
      ((-2, -1), (F(0), F(5, 6), F(2, 3)), (1, 2)),
  ]
  assert [(e.v, e.q, e.sigma_min) for e in box] == expected


def test_p654_box_of_cone_sizes(p654):
  assert len(p654.box_of_cone((0, 1))) == 4
  assert len(p654.box_of_cone((1, 2))) == 6
  assert len(p654.box_of_cone((0, 2))) == 5


def test_p654_box_add(p654):
  v1, v2, v3 = el(p654, (0, 1)), el(p654, (1, 1)), el(p654, (1, 2))
  zero = el(p654, (0, 0))
  assert p654.box_add(v1, v2) == v3
  assert p654.box_add(v2, v2) == v1
  assert p654.box_add(v2, v3) == zero
  v4, v7 = el(p654, (-1, 0)), el(p654, (-2, -2))
  assert p654.box_add(v4, v7) == zero
  assert p654.box_inverse(v4) == v7
  with pytest.raises(ValueError, match="no common cone"):
    p654.box_add(v2, v4)


def test_p654_minimal_cone(p654):
  assert p654.minimal_cone((2, 3)) == (0, 1)
  assert p654.minimal_cone((-3, -4)) == (2,)
  assert p654.minimal_cone((0, 0)) == ()
  assert p654.minimal_cone((2, 1)) == (0,)


def test_p654_box_realizes_local_groups(p654):
  for cone in p654.max_cones:
    grp = AbGroup(2, [p654.rays[i] for i in cone])
    box = p654.box_of_cone(cone)
    classes = {grp.element(e.v) for e in box}
    assert len(classes) == len(box) == grp.order()
    lookup = {e.v: e for e in box}
    for a in box:
      for b in box:
        sums = grp.element(a.v) + grp.element(b.v)
        total = p654.box_add(lookup[a.v], lookup[b.v])
        assert grp.element(total.v) == sums


# -- canonical weighted projective fans ---------------------------------------

def test_weighted_projective_line_64():
  fan = weighted_projective_fan((6, 4))
  assert fan.validate() == ()
  assert fan.d == 1 and fan.torsion == (2,)
  ages = sorted(e.age for e in fan.box())
  assert ages == sorted([F(0), F(0), F(1, 3), F(1, 3), F(1, 2), F(1, 2),
                         F(2, 3), F(2, 3)])


def test_weighted_projective_2456_box_count():
  fan = weighted_projective_fan((2, 4, 5, 6))
  assert fan.validate() == ()
  assert fan.d == 3 and fan.torsion == ()
  assert len(fan.box()) == 12


def test_weighted_projective_bad_weights():
  with pytest.raises(ValueError):
    weighted_projective_fan((3,))
  with pytest.raises(ValueError):
    weighted_projective_fan((2, 0))


# -- validation ----------------------------------------------------------------

def test_validate_torsion_not_generated():
  fan = StackyFan(1, (2,), ((2, 0), (-3, 0)), ((0,), (1,)))
  assert any("b_i do not generate N_tors" in e for e in fan.validate())


def test_validate_torsion_containment_not_just_projection():
  # the torsion parts of the rays generate Z/2, but the subgroup the rays
  # span meets the torsion subgroup trivially, so the hypothesis fails
  fan = StackyFan(1, (2,), ((1, 1),), ((0,),))
  assert any("b_i do not generate N_tors" in e for e in fan.validate())
  ok = StackyFan(1, (2,), ((2, 1), (-3, 0)), ((0,), (1,)))
  assert ok.validate() == ()


def test_validate_not_spanning():
  fan = StackyFan(2, (), ((1, 0), (-1, 0)), ((0,), (1,)))
  assert any("Sigma does not span N_R" in e for e in fan.validate())


def test_validate_parallel_rays():
  fan = StackyFan(1, (), ((1,), (2,)), ((0,), (1,)))
  assert any("positively parallel" in e for e in fan.validate())


def test_validate_opposite_rays_are_fine():
  fan = StackyFan(1, (), ((1,), (-2,)), ((0,), (1,)))
  assert fan.validate() == ()


def test_validate_zero_free_part():
  fan = StackyFan(1, (2,), ((0, 1), (-3, 0)), ((0,), (1,)))
  assert any("free part is zero" in e for e in fan.validate())


def test_validate_torsion_out_of_range():
  fan = StackyFan(1, (2,), ((2, 3), (-3, 0)), ((0,), (1,)))
  assert any("out of range" in e for e in fan.validate())


def test_validate_not_simplicial():
  fan = StackyFan(2, (), ((1, 0), (0, 1), (1, 1)), ((0, 1, 2),))
  assert any("not simplicial" in e for e in fan.validate())


def test_validate_unused_ray():
  fan = StackyFan(1, (), ((1,), (-1,)), ((0,),))
  assert any("not used" in e for e in fan.validate())


def test_validate_unknown_ray_index():
  fan = StackyFan(1, (), ((1,),), ((0, 5),))
  assert any("unknown ray index" in e for e in fan.validate())


def test_validate_overlapping_cones():
  fan = StackyFan(2, (), ((1, 0), (0, 1), (1, 1), (1, -1)), ((0, 1), (2, 3)))
  assert any("not a common face" in e for e in fan.validate())


def test_validate_shared_face_ok():
  fan = StackyFan(2, (), ((1, 0), (0, 1), (-1, 0), (0, -1)),
                  ((0, 1), (1, 2), (2, 3), (3, 0)))
  assert fan.validate() == ()


def test_require_valid_raises():
  fan = StackyFan(1, (2,), ((2, 0), (-3, 0)), ((0,), (1,)))
  with pytest.raises(ValueError, match="invalid stacky fan"):
    fan.require_valid()


def test_affine_fan_minimal_cone_outside():
  fan = StackyFan(1, (), ((2,),), ((0,),))
  assert fan.validate() == ()
  assert fan.minimal_cone((-1,)) is None
  assert fan.minimal_cone((3,)) == (0,)


# -- randomized invariants -----------------------------------------------------

def brute_parallelepiped(fan, cone):
  """{(point, full-length q)} over the lattice points B q with q in [0, 1)^k,
  found by solving at every point of the bounding box."""
  cols = [fan.free(i) for i in cone]
  lo = [sum(min(0, c[j]) for c in cols) for j in range(fan.d)]
  hi = [sum(max(0, c[j]) for c in cols) for j in range(fan.d)]
  points = [()]
  for j in range(fan.d):
    points = [p + (x,) for p in points for x in range(lo[j], hi[j] + 1)]
  out = set()
  for p in points:
    q = solve_rational(cols, p) if cols else ()
    if q is not None and all(0 <= x < 1 for x in q):
      full = [F(0)] * fan.n
      for i, x in zip(cone, q):
        full[i] = x
      out.add((p, tuple(full)))
  return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
def test_box_of_cone_size_matches_brute_force(fan):
  tors_order = 1
  for m in fan.torsion:
    tors_order *= m
  reference = {}
  for cone in fan.max_cones:
    expected = brute_parallelepiped(fan, cone)
    box = fan.box_of_cone(cone)
    assert len(box) == len(expected) * tors_order
    assert {(e.v[:fan.d], e.q) for e in box} == expected
    for e in box:
      assert e.sigma_min == tuple(i for i, c in enumerate(e.q) if c)
    reference.update(expected)
  for e in fan.box():
    assert e.q == reference[e.v[:fan.d]]
    assert e.sigma_min == tuple(i for i, c in enumerate(e.q) if c)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
def test_group_correspondence_roundtrip(fan):
  for e in fan.box():
    g = fan.group_element(e)
    assert all(0 <= c < 1 for c in g.gamma_phases + g.s_phases)
    assert fan.box_from_group(g) == e
    assert fan.minimal_cone(e.v[:fan.d]) == e.sigma_min


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
def test_box_add_group_laws(fan):
  zero = fan.box_lookup(fan.zero_element())
  box = fan.box()
  for a in box:
    assert fan.box_add(a, zero) == a
    assert fan.box_add(fan.box_inverse(a), a) == zero
    inv_age = fan.box_inverse(a).age
    assert a.age + inv_age == len(a.sigma_min)
  cone = max(fan.max_cones, key=len)
  sub = fan.box_of_cone(cone)[:12]
  lookup = {e.v: fan.box_lookup(e.v) for e in sub}
  for a in lookup.values():
    for b in lookup.values():
      assert fan.box_add(a, b) == fan.box_add(b, a)
