from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (box_inverse, box_of_cone, canonical_class, double_box,
                      holds_in_a_cone, solve_rational, valid_fans)
from stackychow import lattice, stackyfan
from stackychow.lattice import (
    AbGroup,
    IntMatrix,
    rational_rank,
    smith_normal_form,
)
from stackychow.stackyfan import StackyFan, weighted_projective_fan

F = Fraction


def el(fan, v):
  return fan.box_lookup(v)


# -- the order 6,4 weighted projective line ----------------------------------

def test_p64_validates(p64):
  assert p64.validate() == ()


def test_p64_box_of_cones(p64):
  assert {e.v for e in box_of_cone(p64, (0,))} == {
      (0, 0), (0, 1), (1, 0), (1, 1)}
  assert {e.v for e in box_of_cone(p64, (1,))} == {
      (0, 0), (0, 1), (-1, 0), (-1, 1), (-2, 0), (-2, 1)}
  assert {e.v for e in box_of_cone(p64, ())} == {(0, 0), (0, 1)}


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


def test_p64_double_box(p64):
  dbl = double_box(p64)
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
  assert len(box_of_cone(p654, (0, 1))) == 4
  assert len(box_of_cone(p654, (1, 2))) == 6
  assert len(box_of_cone(p654, (0, 2))) == 5


def test_p654_box_add(p654):
  v1, v2, v3 = el(p654, (0, 1)), el(p654, (1, 1)), el(p654, (1, 2))
  zero = el(p654, (0, 0))
  assert p654.box_add(v1, v2) == v3
  assert p654.box_add(v2, v2) == v1
  assert p654.box_add(v2, v3) == zero
  v4, v7 = el(p654, (-1, 0)), el(p654, (-2, -2))
  assert p654.box_add(v4, v7) == zero
  assert box_inverse(p654, v4) == v7
  with pytest.raises(ValueError, match="no common cone"):
    p654.box_add(v2, v4)


def test_p654_box_realizes_local_groups(p654):
  for cone in p654.max_cones:
    grp = AbGroup(2, [p654.rays[i] for i in cone])
    assert grp.free_rank == 0
    box = box_of_cone(p654, cone)
    classes = {canonical_class(grp, e.v) for e in box}
    assert len(classes) == len(box) == prod(grp.invariant_factors)
    lookup = {e.v: e for e in box}
    for a in box:
      for b in box:
        total = p654.box_add(lookup[a.v], lookup[b.v])
        assert canonical_class(grp, total.v) == canonical_class(
            grp, [x + y for x, y in zip(a.v, b.v)])


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
    box = box_of_cone(fan, cone)
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
  # the correspondence is injective on the box, and gamma is the q-vector
  seen = set()
  for e in fan.box():
    g = fan.group_element(e)
    assert all(0 <= c < 1 for c in g.gamma_phases + g.s_phases)
    assert g.gamma_phases == e.q
    seen.add((g.gamma_phases, g.s_phases))
    assert reference_minimal_cone(fan, e.v[:fan.d]) == e.sigma_min
  assert len(seen) == len(fan.box())


@settings(max_examples=30, deadline=None)
@given(fan=valid_fans(), data=st.data())
def test_has_common_cone_matches_set_oracle(fan, data):
  # every ray subset, then random lists with repeats, as a concatenation of
  # two minimal cones is
  subsets = [s for k in range(fan.n + 1) for s in combinations(range(fan.n), k)]
  subsets += [data.draw(st.lists(st.integers(0, fan.n - 1), max_size=6))
              for _ in range(10)]
  for rays in subsets:
    assert fan.has_common_cone(rays) == holds_in_a_cone(fan, rays)


def test_has_common_cone_without_max_cones():
  point = StackyFan(0, (), (), ())
  assert point.validate() == ()
  assert point.has_common_cone(()) and point.has_common_cone(set())
  # an invalid fan whose only ray lies in no cone, and one whose cone names
  # rays it does not have
  for fan in (StackyFan(1, (), ((1,), (-1,)), ()),
              StackyFan(1, (), ((1,), (-1,)), ((0, 5), (-1,)))):
    for rays in ((), (0,), (1,), (0, 1)):
      assert fan.has_common_cone(rays) == holds_in_a_cone(fan, rays)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
def test_box_add_group_laws(fan):
  zero = fan.box_lookup((0,) * (fan.d + fan.r))
  box = fan.box()
  for a in box:
    assert fan.box_add(a, zero) == a
    inv = box_inverse(fan, a)
    assert fan.box_add(inv, a) == zero
    # the inverse keeps the minimal cone: its phases are 1 - q there
    assert inv.sigma_min == a.sigma_min
    assert a.age + inv.age == len(a.sigma_min)
  cone = max(fan.max_cones, key=len)
  sub = box_of_cone(fan, cone)[:12]
  lookup = {e.v: fan.box_lookup(e.v) for e in sub}
  for a in lookup.values():
    for b in lookup.values():
      assert fan.box_add(a, b) == fan.box_add(b, a)


# -- the Fraction reference for validation and minimal cones -------------------
#
# An independent reference that shares no linear algebra with the integer
# functionals of StackyFan: Fourier-Motzkin on Fraction vectors, a
# nonnegative rational solve for each generator of an intersection and for
# each minimal-cone query, and one Smith form per torsion generator.

def nonneg_solution(columns, b):
  """The rational solution of sum_j q_j col_j = b if every q_j >= 0, else
  None; raises ValueError when the columns are dependent."""
  q = solve_rational(columns, b)
  if q is None or any(x < 0 for x in q):
    return None
  return q


def direction(vec):
  """A rational vector scaled by a positive constant to a primitive integer
  vector."""
  fracs = [F(x) for x in vec]
  denom = 1
  for x in fracs:
    denom = denom * x.denominator // gcd(denom, x.denominator)
  ints = [int(x * denom) for x in fracs]
  g = 0
  for x in ints:
    g = gcd(g, x)
  return tuple(x // g for x in ints) if g else tuple(ints)


def reference_functionals(fan, cone):
  """(equalities, inequalities) of the cone: the rows of the inverse of its
  ray matrix completed to a basis of Q^d with standard vectors."""
  cols = [fan.free(i) for i in cone]
  basis = list(cols)
  eye = [tuple(int(i == j) for i in range(fan.d)) for j in range(fan.d)]
  for e in eye:
    if rational_rank(basis + [e]) > len(basis):
      basis.append(e)
  inv = list(zip(*(solve_rational(basis, e) for e in eye)))
  return inv[len(cols):], inv[:len(cols)]


def reference_common_face(fan, s, t):
  common = sorted(set(s) & set(t))
  gens = [tuple(F(c) for c in fan.free(i)) for i in s]
  eqs, ineqs = reference_functionals(fan, t)
  for f, is_eq in [(f, True) for f in eqs] + [(f, False) for f in ineqs]:
    pos, neg, zero = [], [], []
    for g in gens:
      val = sum(a * b for a, b in zip(f, g))
      (zero if val == 0 else pos if val > 0 else neg).append((g, val))
    new = [g for g, _ in zero]
    if not is_eq:
      new += [g for g, _ in pos]
    for gp, vp in pos:
      for gn, vn in neg:
        combo = tuple(vp * a - vn * b for a, b in zip(gn, gp))
        if any(c != 0 for c in combo):
          new.append(combo)
    gens = list(dict.fromkeys(tuple(F(c) for c in direction(g)) for g in new))
  cols = [fan.free(i) for i in common]
  for g in gens:
    if not common:
      if any(c != 0 for c in g):
        return False
    elif nonneg_solution(cols, g) is None:
      return False
  return True


def reference_minimal_cone(fan, vbar):
  vbar = tuple(F(c) for c in vbar)
  if all(c == 0 for c in vbar):
    return ()
  for cone in fan.max_cones:
    q = nonneg_solution([fan.free(i) for i in cone], vbar)
    if q is not None:
      return tuple(i for i, c in zip(cone, q) if c > 0)
  return None


def reference_validate(fan):
  errors = []
  for m in fan.torsion:
    if m < 2:
      errors.append("torsion order %d is smaller than 2" % m)
  for i, b in enumerate(fan.rays):
    for c, m in zip(fan.tors(i), fan.torsion):
      if not 0 <= c < m:
        errors.append("ray %d: torsion coordinate %d out of range [0, %d)"
                      % (i + 1, c, m))
    if all(c == 0 for c in fan.free(i)):
      errors.append("ray %d: free part is zero" % (i + 1,))
  for i in range(fan.n):
    for j in range(i + 1, fan.n):
      bi, bj = fan.free(i), fan.free(j)
      if any(c != 0 for c in bi) and direction(bi) == direction(bj):
        errors.append("rays %d and %d are positively parallel"
                      % (i + 1, j + 1))
  name = stackyfan._cone_str
  for cone in fan.max_cones:
    for i in cone:
      if not 0 <= i < fan.n:
        errors.append("cone %s: unknown ray index %d" % (name(cone), i + 1))
  if any(not 0 <= i < fan.n for cone in fan.max_cones for i in cone):
    return tuple(errors)
  used = {i for cone in fan.max_cones for i in cone}
  for i in range(fan.n):
    if i not in used:
      errors.append("ray %d is not used by any maximal cone" % (i + 1,))
  for cone in fan.max_cones:
    vecs = [fan.free(i) for i in cone]
    if rational_rank(vecs) != len(vecs):
      errors.append("cone %s: rays are linearly dependent (not simplicial)"
                    % name(cone))
  if rational_rank([fan.free(i) for i in range(fan.n)]) != fan.d:
    errors.append("Sigma does not span N_R")
  if fan.r:
    width = fan.d + fan.r
    cols = [list(b) for b in fan.rays]
    cols += [[m if j == fan.d + l else 0 for j in range(width)]
             for l, m in enumerate(fan.torsion)]
    snf = smith_normal_form(
        IntMatrix([[col[j] for col in cols] for j in range(width)]))
    for l in range(fan.r):
      target = [int(j == fan.d + l) for j in range(width)]
      if snf.solve(target) is None:
        errors.append("b_i do not generate N_tors")
        break
  if not errors:
    cones = fan.max_cones
    for a in range(len(cones)):
      for b in range(a + 1, len(cones)):
        if not reference_common_face(fan, cones[a], cones[b]):
          errors.append("cones %s and %s: intersection is not a common face"
                        % (name(cones[a]), name(cones[b])))
  return tuple(errors)


def test_reference_nonneg_solution():
  cols = [(2, 0), (0, 4)]
  assert nonneg_solution(cols, (1, 1)) == (F(1, 2), F(1, 4))
  assert nonneg_solution(cols, (-1, 1)) is None
  assert nonneg_solution([(2,)], (1,)) == (F(1, 2),)
  assert nonneg_solution([(2, 3)], (1, 1)) is None  # off the line
  with pytest.raises(ValueError):
    nonneg_solution([(1, 0), (2, 0)], (1, 0))


def test_reference_agrees_on_the_fixed_fans(p64, p654):
  for fan in (p64, p654, weighted_projective_fan((2, 3, 5, 7))):
    assert reference_validate(fan) == fan.validate() == ()
  for vbar, cone in (((2, 3), (0, 1)), ((-3, -4), (2,)), ((0, 0), ()),
                     ((2, 1), (0,))):
    assert reference_minimal_cone(p654, vbar) == cone
  affine = StackyFan(1, (), ((2,),), ((0,),))
  assert affine.validate() == ()
  assert reference_minimal_cone(affine, (-1,)) is None
  assert reference_minimal_cone(affine, (3,)) == (0,)
  bad = StackyFan(2, (), ((1, 0), (0, 1), (1, 1), (1, -1)), ((0, 1), (2, 3)))
  assert reference_validate(bad) == bad.validate()


def _primitive_directions(d):
  return [v for v in product((-1, 0, 1), repeat=d) if any(v)]


@st.composite
def fan_documents(draw):
  """Small stacky fans of rank 1 to 3, valid or not.  Free parts are
  distinct primitive directions scaled by 1 or 2, or arbitrary small
  vectors (zero and parallel rays); cones are sets of d rays (overlapping
  cones) or arbitrary index lists (unknown, unused and dependent rays);
  torsion coordinates may reach m, and the rays need not generate N_tors."""
  d = draw(st.integers(1, 3))
  torsion = draw(st.sampled_from([(), (), (2,), (3,), (2, 2), (1,)]))
  if draw(st.booleans()):
    pool = _primitive_directions(d)
    frees = [tuple(draw(st.integers(1, 2)) * c for c in v) for v in draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))]
  else:
    frees = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1,
                          max_size=5))
  n = len(frees)
  top = draw(st.sampled_from([0, 0, 1]))  # 1 lets a coordinate reach m
  rays = [f + tuple(draw(st.integers(0, m - 1 + top)) for m in torsion)
          for f in frees]
  if n >= d and draw(st.booleans()):
    cones = draw(st.lists(st.sampled_from(list(combinations(range(n), d))),
                          min_size=1, max_size=6, unique=True))
  else:
    cones = draw(st.lists(st.lists(st.integers(0, n), min_size=1,
                                   max_size=d + 1), min_size=1, max_size=4))
  return StackyFan(d, torsion, rays, cones)


@settings(max_examples=300, deadline=None)
@given(fan_documents())
def test_validation_matches_the_reference(fan):
  assert fan.validate() == reference_validate(fan)
  if any(i >= fan.n for cone in fan.max_cones for i in cone):
    return
  simplicial = [c for c in fan.max_cones
                if rational_rank([fan.free(i) for i in c]) == len(c)]
  for s in simplicial:
    for t in simplicial:
      if all(any(fan.free(i)) for i in s):
        assert (fan._intersection_is_common_face(s, t)
                == reference_common_face(fan, s, t))


def test_validate_makes_no_smith_form_call(monkeypatch):
  fans = [StackyFan(1, (2,), ((2, 1), (-3, 0)), ((0,), (1,))),
          StackyFan(1, (2,), ((1, 1),), ((0,),)),
          weighted_projective_fan((6, 4)), weighted_projective_fan((2, 4, 6))]

  def refuse(*args):
    raise AssertionError("Smith form during validation")

  monkeypatch.setattr(stackyfan, "smith_normal_form", refuse)
  monkeypatch.setattr(lattice, "smith_normal_form", refuse)
  assert all(fan.r for fan in fans)
  assert [fan.validate() for fan in fans] == [
      (), ("b_i do not generate N_tors",), (), ()]
