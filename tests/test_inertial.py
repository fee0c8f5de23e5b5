from fractions import Fraction
from operator import add, sub
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stackychow import charring, gradedpoly, inertial
from stackychow.charring import character_data
from stackychow.gradedpoly import (
    Poly,
    RingPresentation,
    eliminate,
    hilbert_table,
    occurring_degrees,
)
from stackychow.inertial import (
    MINUS_INFINITY,
    ORBIFOLD,
    PLUS_INFINITY,
    VIRTUAL,
    Bundle,
    ProductKind,
    StarCalculator,
    associativity_witnesses,
    br_ideal,
    cr_ideal,
    inertial_presentation,
    star_exponents,
    star_product,
)
from stackychow.stackyfan import StackyFan, weighted_projective_fan

from tests.conftest import (box_inverse, double_box, log_restriction,
                            log_trace, random_valid_fans,
                            reference_presentation, share_a_cone, valid_fans)

F = Fraction


def el(fan, v):
  return fan.box_lookup(v)


def tilde(fan, i, *, power=1):
  return character_data(fan).tilde_poly(i).pow(power)


def pair_flags(fan, v, w):
  """(carry, minus) per ray of two sectors that share a cone: the orbifold
  star exponents, and the virtual ones less the carry."""
  _, carry = star_exponents(fan, ORBIFOLD, v, w)
  _, virtual = star_exponents(fan, VIRTUAL, v, w)
  return carry, tuple(map(sub, virtual, carry))


def index_sets(fan, v, w):
  """(B+, B-) as 0-based rays: the carry set, and the minus flags off the
  boundary, where both flags are set."""
  carry, minus = pair_flags(fan, v, w)
  return (tuple(i for i, c in enumerate(carry) if c),
          tuple(i for i, (c, m) in enumerate(zip(carry, minus)) if m > c))


def v_classes(fan, v, w, a):
  """(V+, V-) of a pair on the bundle a, as coefficient tuples: the v-plus
  star exponents less the carry, and the v-minus ones less the carry and
  off the boundary."""
  carry, minus = pair_flags(fan, v, w)
  _, plus_exps = star_exponents(fan, ProductKind.v_plus(Bundle(a)), v, w)
  _, minus_exps = star_exponents(fan, ProductKind.v_minus(Bundle(a)), v, w)
  return (tuple(map(sub, plus_exps, carry)),
          tuple(e - c - k * (c & m)
                for e, c, m, k in zip(minus_exps, carry, minus, a)))


def twist(fan, kind, v, w):
  """The twist class of a pair: the star exponents less the boundary rays,
  where the phase sum is one, as a polynomial in the x variables."""
  _, exps = star_exponents(fan, kind, v, w)
  return character_data(fan).tilde_monomial(tuple(
      e - (x + y == 1) for e, x, y in zip(exps, v.q, w.q)))


# -- bundles, classes, kinds ---------------------------------------------------

def test_bundle_validation():
  assert Bundle((1, 2, 3)).a == (1, 2, 3)
  with pytest.raises(ValueError):
    Bundle((1, -1))
  with pytest.raises(ValueError):
    Bundle((F(3, 2),))


def test_product_kind_construction():
  assert ORBIFOLD.twist_exponents(3) == (0, 0, 0)
  assert VIRTUAL.twist_exponents(2) == (1, 1)
  k = ProductKind.v_plus(Bundle((2, 0, 1)))
  assert k.twist_exponents(3) == (2, 0, 1)
  assert k.plus_sided and not k.is_asymptotic
  assert not ProductKind.v_minus(Bundle((1,))).plus_sided
  assert PLUS_INFINITY.is_asymptotic
  assert PLUS_INFINITY.default_domain == "q"
  assert ORBIFOLD.default_domain == "z"
  assert PLUS_INFINITY.twist_exponents(5) is None
  with pytest.raises(ValueError):
    ProductKind("cup")
  with pytest.raises(ValueError):
    ProductKind("v_plus")
  with pytest.raises(ValueError):
    ProductKind("orbifold", Bundle((1,)))
  with pytest.raises(ValueError):
    k.twist_exponents(2)
  assert ORBIFOLD == ProductKind("orbifold")
  assert k == ProductKind.v_plus(Bundle((2, 0, 1)))
  assert k != ProductKind.v_minus(Bundle((2, 0, 1)))


# -- q-vectors and ages ----------------------------------------------------

def test_q_vectors_and_ages(p654, p64):
  assert el(p654, (-1, -1)).q == (0, F(1, 6), F(1, 3))
  assert el(p654, (0, -1)).q == (F(3, 5), 0, F(2, 5))
  assert el(p654, (1, 1)).age == F(3, 4)
  ident = p654.box()[0]
  assert ident.q == (0, 0, 0)
  assert ident.age == 0
  assert el(p64, (1, 0)).q == (F(1, 2), 0)
  assert el(p64, (1, 0)).age == F(1, 2)
  # pure-torsion sector: trivial rotation, age zero
  assert el(p64, (0, 1)).q == (0, 0)
  assert el(p64, (0, 1)).age == 0


# -- logarithmic trace and restriction: the Fraction oracles -------------------

def test_log_trace_phases():
  got = log_trace((F(2, 3), F(1, 3), F(2, 3), 0), (1,) * 4)
  assert got == (F(2, 3), F(1, 3), F(2, 3), 0)
  assert log_trace((F(1, 2), F(1, 4)), (2, 4)) == (1, 1)


def test_log_trace_on_box_elements(p654):
  wpf = weighted_projective_fan((2, 4, 5, 6))
  v, = [e for e in wpf.box() if e.q == (F(2, 3), F(1, 3), F(2, 3), 0)]
  assert log_trace(v.q, (1,) * 4) == (F(2, 3), F(1, 3), F(2, 3), 0)
  assert not any(log_trace(wpf.box()[0].q, (1,) * 4))
  assert log_trace(el(p654, (1, 1)).q, (1,) * 3) == (F(1, 2), F(1, 4), 0)


def test_log_restriction_phases_concrete():
  # rotation numbers 1/6, 1/3, 1/2 acting with weights (2, 4, 5, 6)
  qs = [(F(1, 3), F(2, 3), F(5, 6), 0),
        (F(2, 3), F(1, 3), F(2, 3), 0),
        (0, 0, F(1, 2), 0)]
  assert log_restriction(qs, (1,) * 4) == (0, 0, 1, 0)
  assert log_restriction(qs, (2, 0, 3, 1)) == (0, 0, 3, 0)


def test_log_restriction_of_inverse_pairs(p654):
  a = (1, 2, 3)
  for v in p654.box():
    assert not any(log_restriction((v.q, box_inverse(p654, v).q), a))


def test_log_restriction_of_triples_matches_excess(p654):
  # for (v1, v2, inverse of their sum) the coefficient at ray i is a_i
  # exactly when q1_i + q2_i > 1: the v-plus exponents less the carry,
  # off the boundary
  a = (1, 2, 3)
  kind = ProductKind.v_plus(Bundle(a))
  for v1, v2 in double_box(p654):
    v3 = box_inverse(p654, p654.box_add(v1, v2))
    carry, minus = pair_flags(p654, v1, v2)
    _, exps = star_exponents(p654, kind, v1, v2)
    want = tuple(e - c - k * (c & m)
                 for e, c, m, k in zip(exps, carry, minus, a))
    assert log_restriction((v1.q, v2.q, v3.q), a) == want
    assert want == tuple(k if x + y > 1 else 0
                         for x, y, k in zip(v1.q, v2.q, a))


# -- index sets and obstruction classes ----------------------------------------

def test_b_plus_b_minus_table(p654):
  v1, v2, v3 = el(p654, (0, 1)), el(p654, (1, 1)), el(p654, (1, 2))
  assert index_sets(p654, v1, v2) == ((), (1,))
  assert index_sets(p654, v2, v2) == ((0,), (1,))
  assert index_sets(p654, v2, v3) == ((0, 1), ())
  ident = p654.box()[0]
  assert index_sets(p654, v2, ident) == ((), ())


def test_v_plus_v_minus(p654):
  v1, v2, v3 = el(p654, (0, 1)), el(p654, (1, 1)), el(p654, (1, 2))
  a = (1, 2, 3)
  assert v_classes(p654, v1, v2, a) == ((0, 0, 0), (0, 2, 0))
  assert v_classes(p654, v2, v2, a) == ((1, 0, 0), (0, 2, 0))
  assert v_classes(p654, v2, v3, a) == ((1, 2, 0), (0, 0, 0))


def test_index_set_trichotomy(p654):
  for va, vb in double_box(p654):
    bp, bm = map(set, index_sets(p654, va, vb))
    assert not bp & bm
    both = {i for i in range(3) if va.q[i] != 0 and vb.q[i] != 0}
    assert bp | bm == both


def test_v_minus_boundary_pairs(p654):
  # B- is strict, q1 + q2 < 1; the minus-side flags of star_exponents
  # also hold the boundary rays, q1 + q2 = 1.  The two differ on exactly
  # the ordered pairs with a boundary ray
  kind = ProductKind.v_minus(Bundle((1, 1, 1)))
  boundary, differ = set(), set()
  for va, vb in double_box(p654):
    sums = [x + y for x, y in zip(va.q, vb.q)]
    _, exps = star_exponents(p654, kind, va, vb)
    flags = tuple(i for i, (e, s) in enumerate(zip(exps, sums))
                  if e - (s >= 1))
    if 1 in sums:
      boundary.add((va.v, vb.v))
    strict = tuple(i for i, s in enumerate(sums)
                   if va.q[i] and vb.q[i] and s < 1)
    if flags != strict:
      differ.add((va.v, vb.v))
  assert len(boundary) == 17
  assert differ == boundary


def _defect(q1, q2, a):
  """L(g1) + L(g2) - L(g1 g2) for two elements with Fraction phases."""
  return tuple(x + y - z for x, y, z in zip(
      log_trace(q1, a), log_trace(q2, a),
      log_trace([(x + y) % 1 for x, y in zip(q1, q2)], a)))


def test_star_exponents_are_log_trace_defects():
  # less the carry [q1 + q2 >= 1], the v-plus star exponents are the log
  # trace defect of the pair and the v-minus ones that of the inverse
  # phases frac(-q); V- leaves out the boundary rays, so it differs from
  # the v-minus defect exactly on the pairs with a boundary ray
  differ = 0
  for fan in _suite() + [weighted_projective_fan(w)
                         for w in ((6, 4), (13, 17, 19))]:
    for a in ((1,) * fan.n, tuple(range(1, fan.n + 1))):
      bundle = Bundle(a)
      for v, w in double_box(fan):
        carry = [int(x + y >= 1) for x, y in zip(v.q, w.q)]
        _, exps = star_exponents(fan, ProductKind.v_plus(bundle), v, w)
        assert tuple(map(sub, exps, carry)) == _defect(v.q, w.q, a)
        minus = _defect([-x % 1 for x in v.q], [-x % 1 for x in w.q], a)
        _, exps = star_exponents(fan, ProductKind.v_minus(bundle), v, w)
        assert tuple(map(sub, exps, carry)) == minus
        boundary = any(x + y == 1 for x, y in zip(v.q, w.q))
        _, bm = index_sets(fan, v, w)
        strict = tuple(k if i in bm else 0 for i, k in enumerate(a))
        assert (strict != minus) == boundary
        differ += boundary
  assert differ == 1310  # (pair, bundle) cases with a boundary ray


# -- twists ------------------------------------------------------------------

def test_twist_anchors(p654):
  v1, v3 = el(p654, (0, 1)), el(p654, (1, 2))
  # the only ray with q-sum above one is the second
  assert twist(p654, ORBIFOLD, v1, v3) == tilde(p654, 1)
  assert twist(p654, VIRTUAL, v1, v3) == tilde(p654, 1)
  ident = p654.box()[0]
  assert twist(p654, ORBIFOLD, v1, ident) == Poly.constant(3, 1)


def test_twist_with_bundle(p654):
  v2 = el(p654, (1, 1))
  a = Bundle((1, 2, 3))
  # q-sums (1, 1/2, 0): ray 0 contributes a_0 without crossing, ray 1 is
  # shared below one
  assert twist(p654, ProductKind.v_plus(a), v2, v2) == tilde(p654, 0)
  assert twist(p654, ProductKind.v_minus(a), v2, v2) == (
      tilde(p654, 0) * tilde(p654, 1, power=2))
  v3 = el(p654, (1, 2))
  # q-sums (1, 1, 0): both rays land exactly on one, so no crossing factor;
  # the minus side still carries the bundle exponents on boundary rays
  assert twist(p654, ProductKind.v_plus(a), v2, v3) == (
      tilde(p654, 0) * tilde(p654, 1, power=2))
  assert twist(p654, ProductKind.v_minus(a), v2, v3) == (
      tilde(p654, 0) * tilde(p654, 1, power=2))
  v1 = el(p654, (0, 1))
  # q-sums (1/2, 5/4, 0): ray 1 crosses one and picks up the extra factor
  assert twist(p654, ProductKind.v_plus(a), v1, v3) == tilde(p654, 1, power=3)
  assert twist(p654, ProductKind.v_minus(a), v1, v3) == tilde(p654, 1)


# -- star products -------------------------------------------------------------

def test_star_product_anchors(p654):
  v1, v2 = el(p654, (0, 1)), el(p654, (1, 1))
  t, c = star_product(p654, ORBIFOLD, v1, v2)
  assert t == el(p654, (1, 2))
  assert c == Poly.constant(3, 1)

  a = Bundle((1, 2, 3))
  t, c = star_product(p654, ProductKind.v_plus(a), v2, v2)
  assert t == v1
  assert c == tilde(p654, 0, power=2)

  t, c = star_product(p654, ORBIFOLD, v1, el(p654, (-2, -3)))
  assert t is None and c.is_zero()

  t, c = star_product(p654, PLUS_INFINITY, v1, v1)
  assert t is not None and t.is_identity
  assert c.is_zero()

  t, c = star_product(p654, MINUS_INFINITY, el(p654, (-1, -1)),
                      el(p654, (-1, -1)))
  assert t == el(p654, (-2, -2))
  assert c.is_zero()

  # both nonzero rays sum to exactly one, which kills the minus-sided limit
  t, c = star_product(p654, MINUS_INFINITY, el(p654, (-2, -3)),
                      el(p654, (1, 0)))
  assert t is not None and t.is_identity
  assert c.is_zero()

  t, c = star_product(p654, MINUS_INFINITY, el(p654, (-2, -1)),
                      el(p654, (-2, -1)))
  assert t == el(p654, (-1, 0))
  assert c == tilde(p654, 1) * tilde(p654, 2)


def test_star_exponents_anchors(p654):
  v1, v2, v3 = el(p654, (0, 1)), el(p654, (1, 1)), el(p654, (1, 2))
  a = Bundle((1, 2, 3))
  # q-sums (1, 1/2, 0), both rays shared: ray 0 lands on one, so it takes
  # the crossing factor and, on either side, the bundle exponent
  assert star_exponents(p654, ProductKind.v_plus(a), v2, v2) == (v1, (2, 0, 0))
  assert star_exponents(p654, ProductKind.v_minus(a), v2, v2) == (
      v1, (2, 2, 0))
  assert star_exponents(p654, VIRTUAL, v2, v2) == (v1, (2, 1, 0))
  assert star_exponents(p654, ORBIFOLD, v2, v2) == (v1, (1, 0, 0))
  assert star_exponents(p654, MINUS_INFINITY, v2, v2) == (v1, None)
  assert star_exponents(p654, PLUS_INFINITY, v2, v2) == (v1, None)
  # q-sums (1/2, 5/4, 0): ray 1 crosses one on both sides
  t, e = star_exponents(p654, ProductKind.v_minus(a), v1, v3)
  assert e == (0, 1, 0)
  assert star_exponents(p654, ORBIFOLD, v1, el(p654, (-2, -3))) == (None,
                                                                   None)


@settings(max_examples=10, deadline=None)
@given(fan=valid_fans(max_box=10), data=st.data())
def test_star_exponents_expand_to_star_product(fan, data):
  a = Bundle(data.draw(st.lists(st.integers(0, 3), min_size=fan.n,
                                max_size=fan.n)))
  els = fan.box()
  for kind in (ORBIFOLD, VIRTUAL, PLUS_INFINITY, MINUS_INFINITY,
               ProductKind.v_plus(a), ProductKind.v_minus(a)):
    for v in els:
      for w in els:
        target, exps = star_exponents(fan, kind, v, w)
        assert star_exponents(fan, kind, w, v) == (target, exps)
        t, c = star_product(fan, kind, v, w)
        assert t == target
        if exps is None:
          assert c.is_zero()
          continue
        expected = Poly.constant(fan.n, 1)
        for i, k in enumerate(exps):
          expected = expected * tilde(fan, i, power=k)
        assert c == expected
        if not kind.is_asymptotic:
          # the twist leaves out one tilde_x_i on rays with q-sum one
          normal = Poly.constant(fan.n, 1)
          for i in range(fan.n):
            if v.q[i] + w.q[i] == 1:
              normal = normal * tilde(fan, i)
          assert twist(fan, kind, v, w) * normal == c


# -- a Fraction reference for the integer box phases ---------------------------

def _reference_box_add(fan, a, b):
  """v1 + v2 less the rays whose q-sum reaches one; its q is frac(q1 + q2)."""
  total = [x + y for x, y in zip(a.v, b.v)]
  for i in range(fan.n):
    if a.q[i] + b.q[i] >= 1:
      total = [t - c for t, c in zip(total, fan.rays[i])]
  total = tuple(total[:fan.d]) + tuple(
      c % m for c, m in zip(total[fan.d:], fan.torsion))
  out, = [e for e in fan.box() if e.v == total]
  assert out.q == tuple((x + y) % 1 for x, y in zip(a.q, b.q))
  return out


def _reference_star_exponents(fan, kind, a, b):
  if not share_a_cone(fan, a, b):
    return None, None
  target = _reference_box_add(fan, a, b)
  sums = [x + y for x, y in zip(a.q, b.q)]
  exps = [int(s >= 1) for s in sums]
  minus = [x != 0 and y != 0 and s <= 1 for x, y, s in zip(a.q, b.q, sums)]
  if kind.name == "plus_infinity":
    return target, None if any(exps) else tuple(exps)
  if kind.name == "minus_infinity":
    return target, None if any(minus) else tuple(exps)
  on = exps if kind.plus_sided else minus
  return target, tuple(e + c * k for e, c, k in
                       zip(exps, kind.twist_exponents(fan.n), on))


@settings(max_examples=25, deadline=None)
@given(fan=valid_fans(max_box=16), data=st.data())
def test_integer_phases_match_fraction_reference(fan, data):
  a = Bundle(data.draw(st.lists(st.integers(0, 3), min_size=fan.n,
                                max_size=fan.n)))
  for v, w in double_box(fan):
    assert fan.box_add(v, w) == _reference_box_add(fan, v, w)
    sums = [x + y for x, y in zip(v.q, w.q)]
    assert index_sets(fan, v, w) == (
        tuple(i for i, s in enumerate(sums) if s >= 1),
        tuple(i for i, s in enumerate(sums) if v.q[i] and w.q[i] and s < 1))
    # both flags are set exactly on the boundary, where the sum is one
    carry, minus = pair_flags(fan, v, w)
    assert minus == tuple(int(bool(x and y and s <= 1))
                          for x, y, s in zip(v.q, w.q, sums))
    assert [c & m for c, m in zip(carry, minus)] == [s == 1 for s in sums]
    for kind in _all_kinds(fan.n) + [ProductKind.v_plus(a),
                                     ProductKind.v_minus(a)]:
      target, exps = _reference_star_exponents(fan, kind, v, w)
      assert star_exponents(fan, kind, v, w) == (target, exps)
  for e in fan.box():
    assert fan.box_lookup(list(e.v)) is e
    shifted = e.v[:fan.d] + tuple(c + m for c, m in
                                  zip(e.v[fan.d:], fan.torsion))
    assert fan.box_lookup(shifted) is e
    with pytest.raises(ValueError, match="wrong length"):
      fan.box_lookup(e.v + (0,))


def test_star_product_unit_and_commutativity(p654, p64):
  for fan in (p654, p64):
    ident = fan.box()[0]
    for kind in (ORBIFOLD, VIRTUAL, PLUS_INFINITY, MINUS_INFINITY):
      for v in fan.box():
        t, c = star_product(fan, kind, v, ident)
        assert t == v and c == Poly.constant(fan.n, 1)
        t2, c2 = star_product(fan, kind, ident, v)
        assert t2 == v and c2 == c


def test_virtual_equals_v_minus_ones(p654, p64):
  for fan in (p654, p64):
    ones = ProductKind.v_minus(Bundle((1,) * fan.n))
    assert br_ideal(fan, VIRTUAL) == br_ideal(fan, ones)


def test_orbifold_equals_zero_twist(p654, p64):
  for fan in (p654, p64):
    zero = Bundle((0,) * fan.n)
    assert br_ideal(fan, ORBIFOLD) == br_ideal(fan, ProductKind.v_plus(zero))
    assert br_ideal(fan, ORBIFOLD) == br_ideal(fan, ProductKind.v_minus(zero))


# -- relation ideals ----------------------------------------------------------

# sectors of the weighted projective plane in box order, keyed by a stable
# nickname: sector k is the variable w<k>
P654_INDEX = {
    "w1": (1, 1), "w2": (1, 2), "w3": (-2, -3), "w4": (-1, -2),
    "w5": (0, -1), "w6": (1, 0), "w7": (0, 1), "w8": (-1, -1),
    "w9": (-2, -2), "w10": (-1, 0), "w11": (-2, -1),
}


def test_p654_box_order(p654):
  els = p654.box()
  assert len(els) == 12 and els[0].is_identity
  for name, v in P654_INDEX.items():
    assert els[int(name[1:])].v == v


def w_poly(fan, *names):
  n, k = fan.n, len(fan.box()) - 1
  out = Poly.constant(n + k, 1)
  for name in names:
    out = out * Poly.variable(n + k, n + int(name[1:]) - 1)
  return out


def x_poly(fan, factors):
  n, k = fan.n, len(fan.box()) - 1
  out = Poly.constant(fan.n, 1)
  for i, power in factors:
    out = out * tilde(fan, i, power=power)
  return out.map_vars(n + k, range(n))


def test_cr_ideal_p654(p654):
  pure = {"w7"}
  plane = {"w1", "w2"}
  left = {"w8", "w9", "w10", "w11"}
  right = {"w3", "w4", "w5", "w6"}
  expected = set()
  for group_a, group_b in ((pure, right), (plane, left | right),
                           (left, right)):
    for a in group_a:
      for b in group_b:
        expected.add(w_poly(p654, a, b))
  got = cr_ideal(p654)
  assert len(got) == 36
  assert set(got) == expected


def test_cr_ideal_p64(p64):
  els = p64.box()
  assert [e.v for e in els] == [(0, 0), (0, 1), (1, 0), (1, 1), (-1, 0),
                                (-1, 1), (-2, 0), (-2, 1)]
  got = cr_ideal(p64)
  expected = {w_poly(p64, "w%d" % i, "w%d" % j)
              for i in (2, 3) for j in (4, 5, 6, 7)}
  assert len(got) == 8
  assert set(got) == expected


def test_cr_ideal_affine_is_empty():
  fan = StackyFan(1, (), ((2,),), ((0,),))
  assert cr_ideal(fan) == []
  gens = br_ideal(fan, ORBIFOLD)
  assert gens == [w_poly(fan, "w1", "w1") - x_poly(fan, [(0, 1)])]


def p654_vplus_relations(fan, a):
  e = [c + 1 for c in a]
  rows = [
      ("w7", "w1", [("w2", ())]),
      ("w7", "w2", [("w1", ((1, e[1]),))]),
      ("w1", "w2", [(None, ((0, e[0]), (1, e[1])))]),
      ("w7", "w7", [(None, ((1, e[1]),))]),
      ("w1", "w1", [("w7", ((0, e[0]),))]),
      ("w2", "w2", [("w7", ((0, e[0]), (1, e[1])))]),
      ("w7", "w10", [("w8", ((1, e[1]),))]),
      ("w7", "w8", [("w10", ())]),
      ("w7", "w11", [("w9", ((1, e[1]),))]),
      ("w7", "w9", [("w11", ())]),
      ("w10", "w8", [("w11", ())]),
      ("w10", "w11", [("w7", ((1, e[1]), (2, e[2])))]),
      ("w10", "w9", [(None, ((1, e[1]), (2, e[2])))]),
      ("w8", "w11", [(None, ((1, e[1]), (2, e[2])))]),
      ("w8", "w9", [("w7", ((2, e[2]),))]),
      ("w11", "w9", [("w8", ((1, e[1]), (2, e[2])))]),
      ("w10", "w10", [("w9", ((1, e[1]),))]),
      ("w8", "w8", [("w9", ())]),
      ("w11", "w11", [("w10", ((1, e[1]), (2, e[2])))]),
      ("w9", "w9", [("w10", ((2, e[2]),))]),
      ("w3", "w4", [("w5", ((2, e[2]),))]),
      ("w3", "w5", [("w6", ((2, e[2]),))]),
      ("w3", "w6", [(None, ((0, e[0]), (2, e[2])))]),
      ("w4", "w5", [(None, ((0, e[0]), (2, e[2])))]),
      ("w4", "w6", [("w3", ((0, e[0]),))]),
      ("w5", "w6", [("w4", ((0, e[0]),))]),
      ("w3", "w3", [("w4", ((2, e[2]),))]),
      ("w4", "w4", [("w6", ((2, e[2]),))]),
      ("w5", "w5", [("w3", ((0, e[0]),))]),
      ("w6", "w6", [("w5", ((0, e[0]),))]),
  ]
  out = set()
  for wa, wb, ((target, factors),) in rows:
    tail = x_poly(fan, factors)
    if target is not None:
      tail = tail * w_poly(fan, target)
    out.add(w_poly(fan, wa, wb) - tail)
  return out


@pytest.mark.parametrize("a", [(0, 0, 0), (1, 2, 3)])
def test_br_ideal_p654_vplus(p654, a):
  got = br_ideal(p654, ProductKind.v_plus(Bundle(a)))
  assert len(got) == 30
  assert set(got) == p654_vplus_relations(p654, a)


def test_br_ideal_p654_plus_infinity(p654):
  got = br_ideal(p654, PLUS_INFINITY)
  assert len(got) == 30
  # every pair of the third cone dies, as does the self-pair of the index-two
  # sector
  assert w_poly(p654, "w7", "w7") in got
  for pair in (("w3", "w3"), ("w3", "w4"), ("w3", "w5"), ("w3", "w6"),
               ("w4", "w4"), ("w4", "w5"), ("w4", "w6"), ("w5", "w5"),
               ("w5", "w6"), ("w6", "w6")):
    assert w_poly(p654, *pair) in got
  # pairs below the crossing threshold keep their structure constants
  assert w_poly(p654, "w7", "w1") - w_poly(p654, "w2") in got


def test_br_ideal_trivial_box():
  line = StackyFan(1, (), ((1,), (-1,)), ((0,), (1,)))
  assert br_ideal(line, ORBIFOLD) == []
  assert cr_ideal(line) == []


# -- presentations ------------------------------------------------------------

def test_presentation_trivial_box_is_toric_ring():
  line = StackyFan(1, (), ((1,), (-1,)), ((0,), (1,)))
  pres = inertial_presentation(line, ORBIFOLD)
  assert pres.names == ("x1", "x2")
  assert set(pres.tags) == {"linear", "stanley_reisner"}
  assert pres.is_graded
  assert pres.graded_piece(1).free_rank == 1
  assert pres.graded_piece(2).free_rank == 0


def test_presentation_p654_shape(p654):
  a = Bundle((1, 2, 3))
  pres = inertial_presentation(p654, ProductKind.v_plus(a))
  assert pres.names[:3] == ("x1", "x2", "x3")
  assert pres.names[3:] == tuple("w%d" % k for k in range(1, 12))
  assert pres.degrees[:3] == (F(1),) * 3
  ages = [F(3, 4), F(5, 4), 1, 1, 1, 1, F(1, 2), F(1, 2), 1, 1, F(3, 2)]
  assert list(pres.degrees[3:]) == ages
  counts = {t: pres.tags.count(t) for t in set(pres.tags)}
  assert counts == {"linear": 2, "stanley_reisner": 1, "sector": 11,
                    "cone": 36, "box": 30}
  assert pres.domain == "z"
  # a nonzero twisting bundle breaks homogeneity of the product relations
  # and of nothing else
  assert {t for t, d in zip(pres.tags, pres.generator_degrees())
          if d is None} == {"box"}
  assert inertial_presentation(p654, ORBIFOLD).is_graded


def test_presentation_p64_age_zero_sector(p64):
  pres = inertial_presentation(p64, ORBIFOLD)
  assert pres.degrees[p64.n] == 0
  with pytest.raises(ValueError, match="nonpositive variable degree"):
    pres.graded_piece(1)


def test_presentation_custom_labels(p654):
  labels = ["s%d" % k for k in range(11)]
  pres = inertial_presentation(p654, ORBIFOLD, labels=labels)
  assert pres.names[3:] == tuple(labels)
  with pytest.raises(ValueError, match="sector labels"):
    inertial_presentation(p654, ORBIFOLD, labels=["a"])


def test_presentation_asymptotic_domain(p64):
  pres = inertial_presentation(p64, MINUS_INFINITY)
  assert pres.domain == "q"
  with pytest.raises(ValueError, match="rational coefficients"):
    inertial_presentation(p64, MINUS_INFINITY, domain="z")


def test_presentation_orbifold_graded_piece(p654):
  # the untwisted product is graded by age, so the graded pieces make sense;
  # no relation reaches degree 1/2, leaving the two age-1/2 sectors free
  pres = inertial_presentation(p654, ORBIFOLD)
  assert pres.is_graded
  piece = pres.graded_piece(F(1, 2))
  assert piece.free_rank == 2 and not piece.torsion
  empty = pres.graded_piece(F(1, 4))
  assert empty.free_rank == 0 and not empty.torsion


def test_hilbert_window_comes_from_the_eliminated_ring(monkeypatch):
  # P(7,9,11) orbifold over Q: the original degrees reach 19/11, the
  # eliminated ring's only 1, so the zero window closes sooner
  pres = inertial_presentation(weighted_projective_fan((7, 9, 11)), ORBIFOLD,
                               domain="q")
  asked = []
  piece = RingPresentation.graded_piece
  monkeypatch.setattr(RingPresentation, "graded_piece",
                      lambda self, deg: asked.append(deg) or piece(self, deg))
  table = hilbert_table(pres, 6)
  monkeypatch.undo()
  # 192 with the window of the original degrees
  assert len(asked) <= 136
  # unwindowed to 7/2, past the 136 computed rows; the rows above are zero
  ring = eliminate(pres).presentation
  top = F(7, 2)
  assert [p for p in table if p.degree <= top] == [
      ring.graded_piece(d) for d in occurring_degrees(pres.degrees, top)]
  assert len(table) == len(occurring_degrees(pres.degrees, 6))
  assert all(p.describe() == "0" for p in table if p.degree > top)


def test_hilbert_eliminates_only_generators_up_to_maxdeg(monkeypatch):
  # P(13,17,19) orbifold over Z has 1,130 generators, 31 of degree <= 1
  pres = inertial_presentation(weighted_projective_fan((13, 17, 19)),
                               ORBIFOLD)
  seen = []
  real = gradedpoly.eliminate
  monkeypatch.setattr(gradedpoly, "eliminate",
                      lambda low: seen.append(low) or real(low))
  table = hilbert_table(pres, 1)
  monkeypatch.undo()
  (low,) = seen
  kept = [k for k, e in enumerate(pres.generator_degrees()) if e <= 1]
  assert (len(kept), len(pres.generators)) == (31, 1130)
  assert low.generators == tuple(pres.generators[k] for k in kept)
  assert low.tags == tuple(pres.tags[k] for k in kept)
  assert (low.names, low.degrees, low.domain) == (
      pres.names, pres.degrees, pres.domain)
  assert table == [eliminate(pres).presentation.graded_piece(d)
                   for d in occurring_degrees(pres.degrees, 1)]


# -- pair relations up to maxdeg -----------------------------------------------

# the seeded acceptance suite and weighted projective fans, built once
_SUITE = []


def _suite():
  if not _SUITE:
    _SUITE.extend(random_valid_fans(25, seed=20240816))
    _SUITE.extend(weighted_projective_fan(w)
                  for w in ((6, 5, 4), (7, 9, 11), (2, 3, 5, 7)))
  return _SUITE


AGE_GRADED = ((ORBIFOLD, "z"), (ORBIFOLD, "q"), (PLUS_INFINITY, "q"),
              (MINUS_INFINITY, "q"))


def _refusal(build):
  """None when build() returns, else the message of its ValueError."""
  try:
    build()
  except ValueError as e:
    return str(e)
  return None


def test_age_graded_kinds():
  kinds = [k for k in _all_kinds(3) if k.age_graded]
  assert kinds == [ORBIFOLD, PLUS_INFINITY, MINUS_INFINITY]
  # their relations are homogeneous in the ages, on every fan of the suite
  assert all(inertial_presentation(fan, kind, domain="q").is_graded
             for fan in _suite() for kind in kinds)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pair_relations_up_to_maxdeg_keep_the_table(data):
  fan = data.draw(st.sampled_from(_suite()))
  kind, domain = data.draw(st.sampled_from(AGE_GRADED))
  els = fan.box()
  pair_degrees = sorted({a.age + b.age for a in els[1:] for b in els[1:]})
  # a pair degree up to 2 (the largest is often above it) or just below one
  maxdeg = data.draw(st.sampled_from(
      [F(0)] + [d for d in pair_degrees if d <= 2]))
  if data.draw(st.booleans()):
    maxdeg = max(F(0), maxdeg - F(1, 2 * els[0].den))
  full = inertial_presentation(fan, kind, domain=domain)
  low = inertial_presentation(fan, kind, domain=domain, maxdeg=maxdeg)
  # exactly the cone and box relations above maxdeg are left out
  assert low.generators == tuple(
      g for g, t, e in zip(full.generators, full.tags,
                           full.generator_degrees())
      if t not in ("cone", "box") or e <= maxdeg)
  assert (low.names, low.degrees, low.domain) == (
      full.names, full.degrees, full.domain)
  table = _refusal(lambda: hilbert_table(full, maxdeg)) or hilbert_table(
      full, maxdeg)
  assert (_refusal(lambda: hilbert_table(low, maxdeg))
          or hilbert_table(low, maxdeg)) == table


def test_a_bounded_build_expands_only_the_relations_it_keeps(monkeypatch):
  # with the expansion limit lowered, a bounded build can succeed where the
  # full build refuses, since a left-out pair's coefficient is never
  # expanded; its table up to maxdeg is then the full build's at the limit
  fans = [fan for fan in _suite() + random_valid_fans(30, seed=3) if fan.r]
  limit0 = charring.MAX_EXPANSION_TERMS

  def table(pres, maxdeg):
    return _refusal(lambda: hilbert_table(pres, maxdeg)) or hilbert_table(
        pres, maxdeg)

  succeeded = 0
  for fan in fans:
    for kind, domain in AGE_GRADED:
      for limit in range(1, 13):
        monkeypatch.setattr(charring, "MAX_EXPANSION_TERMS", limit)
        if _refusal(lambda: inertial_presentation(fan, kind, domain=domain)
                    ) is None:
          break
        for maxdeg in (F(0), F(1, 2), F(1), F(3, 2)):
          monkeypatch.setattr(charring, "MAX_EXPANSION_TERMS", limit)
          try:
            low = inertial_presentation(fan, kind, domain=domain,
                                        maxdeg=maxdeg)
          except ValueError:
            continue
          succeeded += 1
          monkeypatch.setattr(charring, "MAX_EXPANSION_TERMS", limit0)
          full = inertial_presentation(fan, kind, domain=domain)
          assert table(low, maxdeg) == table(full, maxdeg)
  assert succeeded


def test_bounded_walk_keeps_the_pairs_up_to_maxdeg():
  # the age-graded kinds keep exactly the pairs of age sum <= maxdeg, the
  # twisted kinds the whole walk
  left_out = 0
  for fan in [weighted_projective_fan((6, 5, 4))] + _suite()[:5]:
    els = fan.box()
    whole = inertial._sector_pairs(fan)
    for kind in _all_kinds(fan.n):
      for maxdeg in (None, F(0), F(1, 2), F(1), F(3, 2)):
        walk = inertial._sector_pairs(fan, kind, maxdeg)
        if maxdeg is None or not kind.age_graded:
          assert walk == whole
          continue
        assert walk == [(i, j, common) for i, j, common in whole
                        if els[i].age + els[j].age <= maxdeg]
        left_out += len(whole) - len(walk)
  assert left_out


def test_br_ideal_builds_the_change_matrix_only_for_a_coefficient(
    monkeypatch):
  # an unbounded br_ideal asks for the character data only when some star
  # product has a coefficient to expand, as star_product alone would
  def refuse(fan):
    raise ValueError("change matrix built")
  monkeypatch.setattr(inertial, "character_data", refuse)
  seen = set()
  for fan in _suite():
    for kind in (ORBIFOLD, PLUS_INFINITY, MINUS_INFINITY):
      els = fan.box()
      needs = any(star_exponents(fan, kind, els[i], els[j])[1] is not None
                  for i, j, _ in inertial._sector_pairs(fan))
      seen.add(needs)
      assert (_refusal(lambda: br_ideal(fan, kind)) is not None) == needs
  assert seen == {False, True}


def _built(build):
  """The names, degrees, generators, tags and domain of build(), or the
  message of its ValueError."""
  try:
    pres = build()
  except ValueError as e:
    return str(e)
  return pres.names, pres.degrees, pres.generators, pres.tags, pres.domain


def test_presentation_matches_the_reference_build(monkeypatch):
  # each relation written straight into the x+w ring and each distinct
  # coefficient expanded once give the presentation of reference_presentation,
  # which embeds every star_product as Poly objects; a bundle of 1000 on a
  # torsion fan of the suite costs that build up to a minute
  for fan in _suite():
    kinds = _all_kinds(fan.n)
    if not fan.r:
      kinds.append(ProductKind.v_plus(Bundle([1000] * fan.n)))
    for kind in kinds:
      for maxdeg in (None, F(1), F(3, 2)):
        got = _built(lambda: inertial_presentation(fan, kind, maxdeg=maxdeg))
        assert not isinstance(got, str)
        assert got == _built(
            lambda: reference_presentation(fan, kind, maxdeg=maxdeg))
  # nine box relations are built before the expansion bound refuses the
  # coefficient of a tenth
  monkeypatch.setattr(charring, "MAX_EXPANSION_TERMS", 30)
  fan = _suite()[0]
  kind = ProductKind.v_plus(Bundle([3] * fan.n))
  needle = ("coefficient tilde_x1^4 may expand to 35 terms, more than the "
            "limit of 30")
  assert _built(lambda: inertial_presentation(fan, kind)) == needle
  assert _built(lambda: reference_presentation(fan, kind)) == needle


def test_associativity_builds_the_change_matrix_only_for_a_reduction(
    monkeypatch):
  # a sweep asks for the character data only when the two bracketings of
  # some triple have different exponent vectors, so that their difference
  # has to be expanded and reduced
  def refuse(fan):
    raise ValueError("change matrix built")
  monkeypatch.setattr(inertial, "character_data", refuse)
  seen = set()
  for fan in _suite():
    if not fan.r:
      continue
    els = fan.box()
    for kind in _all_kinds(fan.n):
      star = {}
      for i, v in enumerate(els):
        for j, w in enumerate(els):
          target, exps = star_exponents(fan, kind, v, w)
          star[i, j] = (None if exps is None else fan.box_index(target), exps)

      def exponents(i, j, l, left):
        # of (v_i v_j) v_l when left, else of v_i (v_j v_l); None for zero
        t1, e1 = star[i, j] if left else star[j, l]
        if e1 is None:
          return None
        t2, e2 = star[t1, l] if left else star[i, t1]
        return None if e2 is None else tuple(map(add, e1, e2))

      k = len(els)
      needs = any(exponents(i, j, l, True) != exponents(i, j, l, False)
                  for i in range(k) for j in range(k) for l in range(k))
      seen.add(needs)
      assert (_refusal(lambda: associativity_witnesses(fan, kind))
              is not None) == needs
  assert seen == {False, True}


# -- associativity and stabilization --------------------------------------------

def test_associativity_fixture_fans(p654, p64):
  kinds = [ORBIFOLD, VIRTUAL, ProductKind.v_plus(Bundle((1, 2, 3))),
           ProductKind.v_minus(Bundle((2, 0, 1))), PLUS_INFINITY,
           MINUS_INFINITY]
  for kind in kinds:
    bundle = kind.bundle
    if bundle is not None and bundle.n != 3:
      continue
    assert associativity_witnesses(p654, kind) == []
  for kind in (ORBIFOLD, VIRTUAL, ProductKind.v_plus(Bundle((2, 1))),
               ProductKind.v_minus(Bundle((1, 3))), PLUS_INFINITY,
               MINUS_INFINITY):
    assert associativity_witnesses(p64, kind) == []


def stabilization_witnesses(fan, scale, plus):
  """Sector pairs where the product for scale * (sum of all L_i) still
  differs, over the rationals, from its asymptotic limit.  Empty once the
  scale exceeds the dimension of every sector the pairs land in."""
  bundle = Bundle((scale,) * fan.n)
  kind = ProductKind.v_plus(bundle) if plus else ProductKind.v_minus(bundle)
  scaled = StarCalculator(fan, kind, domain="q")
  asym = StarCalculator(fan, PLUS_INFINITY if plus else MINUS_INFINITY)
  out = []
  k = len(scaled.els)
  for i in range(k):
    for j in range(i, k):
      (t1, e1), (t2, e2) = scaled.table[i][j], asym.table[i][j]
      assert t1 == t2
      if t1 is None or scaled.exponents(e1) == asym.exponents(e2):
        continue
      if not scaled.reduces_to_zero(
          t1, scaled.coefficient(e1) - asym.coefficient(e2)):
        out.append((i, j))
  return out


def test_stabilization_fixture_fans(p654, p64):
  for fan in (p654, p64):
    scale = fan.d + 1
    assert stabilization_witnesses(fan, scale, plus=True) == []
    assert stabilization_witnesses(fan, scale, plus=False) == []


def test_star_calculator_reduces_in_sector(p654):
  # rationally the top power of a ray class dies in every sector of a
  # surface; integrally it survives as torsion in the untwisted sector
  heavy = tilde(p654, 0, power=3)
  rational = StarCalculator(p654, ORBIFOLD, domain="q")
  for i in range(len(p654.box())):
    assert rational.reduces_to_zero(i, heavy)
  integral = StarCalculator(p654, ORBIFOLD)
  assert not integral.reduces_to_zero(0, heavy)


@settings(max_examples=12, deadline=None)
@given(fan=valid_fans(max_box=10), data=st.data())
def test_associativity_random_fans(fan, data):
  name = data.draw(st.sampled_from(
      ["orbifold", "virtual", "v_plus", "v_minus", "plus_infinity",
       "minus_infinity"]))
  if name in ("v_plus", "v_minus"):
    a = data.draw(st.lists(st.integers(0, 3), min_size=fan.n,
                           max_size=fan.n))
    kind = ProductKind(name, Bundle(a))
  else:
    kind = ProductKind(name)
  assert associativity_witnesses(fan, kind) == []


def _perturbed(pair, ray):
  """Patch star_exponents so that the coefficient of one sector pair (box
  indices, smaller first) carries one more power of one ray's class; the
  product is then no longer associative."""
  real = inertial.star_exponents

  def star_exponents(fan, kind, v1, v2):
    target, exps = real(fan, kind, v1, v2)
    if exps is not None and (fan.box_index(v1), fan.box_index(v2)) == pair:
      exps = tuple(e + (r == ray) for r, e in enumerate(exps))
    return target, exps
  return mock.patch.object(inertial, "star_exponents", star_exponents)


def _star_rows(fan, kind):
  """rows[i][j] = (target index or None, exponent tuple or None) for every
  pair of sector indices, from inertial.star_exponents (looked up at call
  time, so _perturbed applies) with the smaller index first."""
  els = fan.box()
  k = len(els)
  rows = [[None] * k for _ in range(k)]
  for i in range(k):
    for j in range(i, k):
      target, exps = inertial.star_exponents(fan, kind, els[i], els[j])
      rows[i][j] = rows[j][i] = (
          None if target is None else fan.box_index(target), exps)
  return rows


def _bracketing(rows, i, j, l, left):
  """Target and exponent vector, both None for a zero product, of (i*j)*l
  (left) or i*(j*l): the exponent vectors of its two star products add."""
  t1, e1 = rows[i][j] if left else rows[j][l]
  if e1 is None:
    return None, None
  t2, e2 = rows[t1][l] if left else rows[i][t1]
  if e2 is None:
    return None, None
  return t2, tuple(a + b for a, b in zip(e1, e2))


def _comparisons(fan, kind):
  """{(i, j, l): the two bracketings} over every sector triple whose two
  exponent vectors differ."""
  rows = _star_rows(fan, kind)
  k = len(rows)
  out = {}
  for i in range(k):
    for j in range(k):
      for l in range(k):
        (lt, le), (rt, re) = (_bracketing(rows, i, j, l, True),
                              _bracketing(rows, i, j, l, False))
        if le != re:
          out[i, j, l] = (lt, le, rt, re)
  return out


def _brute_force_witnesses(fan, kind, calculator=StarCalculator):
  """The triples whose two bracketings differ in the target sector's ring,
  from exponent tuples and the calculator's reduction alone: one
  reduction per distinct (target sector, left, right)."""
  calc = calculator(fan, kind)
  cd = character_data(fan)

  def coefficient(exps):
    return Poly.zero(fan.n) if exps is None else cd.tilde_monomial(exps)
  verdicts = {}
  out = []
  for t, (lt, le, rt, re) in _comparisons(fan, kind).items():
    key = (rt if le is None else lt, le, re)
    if key not in verdicts:
      verdicts[key] = calc.reduces_to_zero(
          key[0], coefficient(le) - coefficient(re))
    if not verdicts[key]:
      out.append(t)
  return out


def _all_kinds(n):
  return [ORBIFOLD, VIRTUAL, PLUS_INFINITY, MINUS_INFINITY,
          ProductKind.v_plus(Bundle([1] * n)),
          ProductKind.v_minus(Bundle([2] * n))]


def test_witnesses_of_a_perturbed_product(p654, p64):
  total = 0
  for fan in (p654, p64, weighted_projective_fan((2, 3, 5, 7))):
    for kind in _all_kinds(fan.n):
      for pair in ((1, 2), (0, 1)):
        with _perturbed(pair, 0):
          witnesses = associativity_witnesses(fan, kind)
          assert witnesses == _brute_force_witnesses(fan, kind)
        total += len(witnesses)
  assert total > 0


def test_witnesses_match_brute_force_on_the_suite():
  # a v-plus coefficient of 1000 gives exponents up to 1001, so each packed
  # field must hold sums above 2000
  perturbed = 0
  for fan in _suite():
    wide = ProductKind.v_plus(Bundle([1000] + [1] * (fan.n - 1)))
    for kind in _all_kinds(fan.n) + [wide]:
      assert (associativity_witnesses(fan, kind)
              == _brute_force_witnesses(fan, kind))
      if len(fan.box()) > 2 and kind is not wide:
        with _perturbed((1, 2), 0):
          witnesses = associativity_witnesses(fan, kind)
          assert witnesses == _brute_force_witnesses(fan, kind)
        perturbed += bool(witnesses)
  assert perturbed


@settings(max_examples=15, deadline=None)
@given(fan=valid_fans(max_box=12), data=st.data())
def test_witnesses_of_a_perturbed_product_random_fans(fan, data):
  k = len(fan.box())
  i = data.draw(st.integers(0, k - 1))
  pair = (i, data.draw(st.integers(i, k - 1)))
  ray = data.draw(st.integers(0, fan.n - 1))
  kind = data.draw(st.sampled_from(_all_kinds(fan.n)))
  with _perturbed(pair, ray):
    assert (associativity_witnesses(fan, kind)
            == _brute_force_witnesses(fan, kind))


def _counting_eliminate(monkeypatch):
  """Wrap inertial.eliminate; the returned list grows by one per call."""
  calls = []
  real = inertial.eliminate
  monkeypatch.setattr(inertial, "eliminate",
                      lambda pres: calls.append(pres) or real(pres))
  return calls


def _counting_reductions(monkeypatch):
  """Wrap StarCalculator.reduces_to_zero; the returned list collects the
  sector index of every call."""
  calls = []
  reduce = StarCalculator.reduces_to_zero
  monkeypatch.setattr(StarCalculator, "reduces_to_zero",
                      lambda self, i, coeff: calls.append(i)
                      or reduce(self, i, coeff))
  return calls


def test_each_distinct_comparison_is_reduced_once_per_sector_ring(
    monkeypatch):
  fan = weighted_projective_fan((13, 17, 19))
  els = fan.box()
  # the sweep checks l >= i; (l, j, i) is the same comparison, swapped
  keys = {key for (i, j, l), key in _comparisons(fan, ORBIFOLD).items()
          if l >= i}
  # a comparison reduces in the ring of its target, one per minimal cone
  ring_keys = {(els[rt if le is None else lt].sigma_min, le, re)
               for lt, le, rt, re in keys}
  calls = _counting_reductions(monkeypatch)
  rings = _counting_eliminate(monkeypatch)
  assert associativity_witnesses(fan, ORBIFOLD) == []
  assert len(calls) == len(ring_keys) < len(keys)
  assert len(rings) == len({els[i].sigma_min for i in calls})


class _FreshSectorRings(StarCalculator):
  """A calculator that builds a fresh sector ring for every reduction, so
  no ring is shared between sectors."""

  def _sector_elim(self, i):
    self._sector = {}
    return super()._sector_elim(i)


def test_shared_sector_rings_keep_the_witnesses(monkeypatch):
  fan = weighted_projective_fan((13, 17, 19))
  els = fan.box()
  with _perturbed((1, 2), 0):
    want = _brute_force_witnesses(fan, ORBIFOLD, _FreshSectorRings)
    calls = _counting_reductions(monkeypatch)
    rings = _counting_eliminate(monkeypatch)
    assert associativity_witnesses(fan, ORBIFOLD) == want != []
  cones = {els[i].sigma_min for i in calls}
  assert len(rings) == len(cones) < len(set(calls))


@settings(max_examples=10, deadline=None)
@given(fan=valid_fans(max_box=10), plus=st.booleans())
def test_stabilization_random_fans(fan, plus):
  assert stabilization_witnesses(fan, fan.d + 1, plus=plus) == []


@settings(max_examples=15, deadline=None)
@given(fan=valid_fans(max_box=12))
def test_box_trichotomy_random_fans(fan):
  for va, vb in double_box(fan):
    bp, bm = map(set, index_sets(fan, va, vb))
    assert not bp & bm
    assert bp | bm == {i for i in range(fan.n)
                       if va.q[i] != 0 and vb.q[i] != 0}
