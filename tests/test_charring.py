import gc
import hashlib
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from conftest import valid_fans
from stackychow import charring, lattice
from stackychow.charring import (
    CharacterData,
    character_data,
    linear_ideal,
    nonface_monomials,
    sr_ring,
)
from stackychow.gradedpoly import Poly, hilbert_table
from stackychow.lattice import IntMatrix, ZReducer
from stackychow.stackyfan import StackyFan, weighted_projective_fan
from tests.conftest import brute_force_nonfaces, det
from tests.test_acceptance import random_valid_fans

F = Fraction


def test_p64_character_groups(p64):
  assert character_data(p64).f == IntMatrix([[2, 0], [0, 2]])


def test_no_smith_form_without_torsion(monkeypatch):
  def refuse(*args):
    raise AssertionError("character group built for a torsion-free fan")

  fans = [weighted_projective_fan(w) for w in ((6, 5, 4), (2, 3, 5, 7))]
  monkeypatch.setattr(charring, "AbGroup", refuse)
  monkeypatch.setattr(lattice, "smith_normal_form", refuse)
  for fan in fans:
    assert CharacterData(fan).f == IntMatrix.identity(fan.n)


def test_character_data_lives_on_its_fan():
  gc.collect()
  before = len(charring._character_cache)
  for k in range(50):
    fan = weighted_projective_fan((6 + k, 4))
    assert character_data(fan) is character_data(fan)
    del fan
  gc.collect()
  assert len(charring._character_cache) <= before


def test_invariant_factor_mismatch():
  # invalid (the rays miss N_tors), so character_data refuses it before
  # any group is built; the change matrix itself refuses the mismatch
  fan = StackyFan(1, (2,), ((2, 0), (-3, 0)), ((0,), (1,)))
  with pytest.raises(ValueError, match="b_i do not generate N_tors"):
    character_data(fan)
  with pytest.raises(ValueError, match="invariant-factor mismatch"):
    charring._change_matrix(fan)


def test_linear_ideal(p64, p654):
  assert linear_ideal(p64) == [Poly.linear([2, -3])]
  assert linear_ideal(p654) == [Poly.linear([2, 0, -3]),
                                Poly.linear([1, 2, -4])]


def test_sr_ideal_p64(p64):
  assert nonface_monomials(p64) == [Poly(2, {(1, 1): 4})]


def test_sr_ideal_p654(p654):
  assert nonface_monomials(p654) == [Poly(3, {(1, 1, 1): 1})]


def test_sr_ring_p64(p64):
  ring = sr_ring(p64)
  assert ring.names == ("x1", "x2")
  assert ring.tags == ("linear", "stanley_reisner")
  pieces = hilbert_table(ring, 3)
  assert [(p.free_rank, p.torsion) for p in pieces] == [
      (1, ()), (1, ()), (0, (24,)), (0, (24,))]


def test_sr_ring_p654(p654):
  ring = sr_ring(p654)
  assert list(ring.generators) == [
      Poly.linear([2, 0, -3]), Poly.linear([1, 2, -4]),
      Poly(3, {(1, 1, 1): 1})]
  assert ring.tags == ("linear", "linear", "stanley_reisner")


def test_sr_ring_smooth_projective_line():
  fan = StackyFan(1, (), ((1,), (-1,)), ((0,), (1,)))
  ring = sr_ring(fan)
  assert list(ring.generators) == [Poly.linear([1, -1]), Poly(2, {(1, 1): 1})]
  pieces = hilbert_table(ring, 2)
  assert [(p.free_rank, p.torsion) for p in pieces] == [
      (1, ()), (1, ()), (0, ())]


def test_sr_ring_affine_no_nonfaces():
  fan = StackyFan(1, (), ((2,),), ((0,),))
  assert fan.nonfaces() == ()
  ring = sr_ring(fan)
  assert list(ring.generators) == [Poly.linear([2])]


def test_sector_ideal_p654(p654):
  box = {e.v: e for e in p654.box()}
  assert nonface_monomials(p654, box[(0, 1)].sigma_min) == [
      Poly(3, {(1, 0, 1): 1})]
  assert nonface_monomials(p654, box[(1, 1)].sigma_min) == [
      Poly(3, {(0, 0, 1): 1})]
  assert nonface_monomials(p654, box[(0, 0)].sigma_min) == nonface_monomials(
      p654)


def test_sector_ideal_p64_torsion_sector(p64):
  box = {e.v: e for e in p64.box()}
  # the pure-torsion sector sees the whole fan
  assert nonface_monomials(p64, box[(0, 1)].sigma_min) == nonface_monomials(
      p64)
  # a sector inside one chart: the opposite coordinate class dies
  assert nonface_monomials(p64, box[(1, 0)].sigma_min) == [
      Poly(2, {(0, 1): 2})]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 9),
                        (5, 7), (5, 12), (7, 11), (11, 12)]))
def test_weighted_projective_line_chow(ab):
  a, b = ab
  ring = sr_ring(weighted_projective_fan((a, b)))
  pieces = hilbert_table(ring, 3)
  expected_torsion = () if a * b == 1 else (a * b,)
  assert (pieces[0].free_rank, pieces[0].torsion) == (1, ())
  assert (pieces[1].free_rank, pieces[1].torsion) == (1, ())
  for p in pieces[2:]:
    assert (p.free_rank, p.torsion) == (0, expected_torsion)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
@example(StackyFan(2, (), ((2, 0), (0, 1), (-1, 0), (0, -1)),
                   ((0, 1), (1, 2), (2, 3), (3, 0))))
def test_minimal_nonfaces_are_minimal(fan):
  # the fan's table, for the zero cone and every sector's minimal cone, is
  # the brute force of conftest in (size, lex) order, and each set in it is
  # a nonface whose every proper subset is a face
  for cone in {()} | {v.sigma_min for v in fan.box()}:
    table = [tuple(i for i in range(fan.n) if m >> i & 1)
             for m in fan.nonfaces(cone)]
    assert table == brute_force_nonfaces(fan, cone)
    for s in table:
      assert not fan.has_common_cone(set(s) | set(cone))
      for i in s:
        assert fan.has_common_cone(set(s) - {i} | set(cone))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans().filter(lambda fan: fan.r))
def test_character_data_consistency(fan):
  # tilde_x_i = sum_k f[k,i] x_k must carry each relation of the full group
  # to a relation of the rigidified one: a ray relation into the span of
  # the rigidified rows, a torsion relation into that span plus m_l Z^n
  f, n = character_data(fan).f, fan.n
  assert det(f.entries) != 0
  lam = [[fan.free(i)[j] for i in range(n)] for j in range(fan.d)]
  image = lambda coeffs: [sum(f[k, i] * coeffs[i] for i in range(n))
                          for k in range(n)]
  span = ZReducer(lam, n)
  for row in lam:
    assert span.contains(image(row))
  for l, m in enumerate(fan.torsion):
    span = ZReducer(lam + [[m * int(k == i) for k in range(n)]
                           for i in range(n)], n)
    assert span.contains(image([fan.tors(i)[l] for i in range(n)]))


def test_singular_correction_takes_one_smith_form(monkeypatch):
  # both fans take the singular-correction branch: besides the full and
  # the rigidified groups, one Smith form of the rigidified rows serves
  # every target (P(2,4,6,8) took five, P(12,18,30) four)
  fans = [weighted_projective_fan(w) for w in ((2, 4, 6, 8), (12, 18, 30))]
  calls = []
  snf = lattice.smith_normal_form

  def counting(m):
    calls.append((m.rows, m.cols))
    return snf(m)

  monkeypatch.setattr(lattice, "smith_normal_form", counting)
  monkeypatch.setattr(charring, "smith_normal_form", counting)
  for fan in fans:
    calls.clear()
    f = charring._change_matrix(fan)
    assert det(f.entries) != 0
    assert len(calls) == 3
    assert calls[-1] == (fan.d, fan.n)


# sha256 of f on the torsion fans of two seeded suites, then of the rays and
# f of weighted projective fans whose weights share factors; many of these
# take the singular-correction branch of _change_matrix
PINNED_F_DIGEST = (
    "6b613b8fd024a0f90a1b5826a8262acea93e2203e8cbb6dca8b2b320720a89d1")


def test_change_matrix_and_weighted_rays_pinned():
  h = hashlib.sha256()
  for seed in (20240816, 3):
    for fan in random_valid_fans(25, seed):
      if fan.r:
        h.update(repr(character_data(fan).f.entries).encode())
  for weights in ((2, 4, 6, 8), (6, 10, 15), (12, 18, 30), (4, 6, 10, 14),
                  (6, 4), (4, 6, 9)):
    fan = weighted_projective_fan(weights)
    h.update(repr((fan.d, fan.torsion, fan.rays,
                   character_data(fan).f.entries)).encode())
  assert h.hexdigest() == PINNED_F_DIGEST
