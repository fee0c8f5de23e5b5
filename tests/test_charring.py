import gc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import valid_fans
from stackychow import charring
from stackychow.charring import (
    character_data,
    linear_ideal,
    minimal_nonfaces,
    sector_ideal,
    sr_ideal,
    sr_ring,
)
from stackychow.gradedpoly import Poly, hilbert_table
from stackychow.lattice import IntMatrix
from stackychow.stackyfan import StackyFan, weighted_projective_fan

F = Fraction


def test_p64_character_groups(p64):
  cd = character_data(p64)
  assert cd.x_full.free_rank == 1 and cd.x_full.invariant_factors == ()
  assert cd.x_rig.free_rank == 1 and cd.x_rig.invariant_factors == ()
  assert [cd.x_full.reduced_coords(t)[1] for t in cd.tilde_x] == [(6,), (4,)]
  assert [cd.x_rig.reduced_coords(t)[1] for t in cd.x] == [(3,), (2,)]
  assert cd.f == IntMatrix([[2, 0], [0, 2]])


def test_p64_iota_star_sends_x_to_tilde(p64):
  cd = character_data(p64)
  for i in range(2):
    assert cd.iota_star(cd.x[i]) == cd.tilde_x[i]


def test_p654_character_groups(p654):
  cd = character_data(p654)
  assert cd.f == IntMatrix.identity(3)
  assert [cd.x_rig.reduced_coords(t)[1] for t in cd.x] == [(6,), (5,), (4,)]
  assert cd.tilde_x == cd.x


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
  fan = StackyFan(1, (2,), ((2, 0), (-3, 0)), ((0,), (1,)))
  with pytest.raises(ValueError, match="invariant-factor mismatch"):
    character_data(fan)


def test_linear_ideal(p64, p654):
  assert linear_ideal(p64) == [Poly.linear([2, -3])]
  assert linear_ideal(p654) == [Poly.linear([2, 0, -3]),
                                Poly.linear([1, 2, -4])]


def test_sr_ideal_p64(p64):
  assert sr_ideal(p64, character_data(p64)) == [Poly(2, {(1, 1): 4})]


def test_sr_ideal_p654(p654):
  assert sr_ideal(p654, character_data(p654)) == [Poly(3, {(1, 1, 1): 1})]


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
  assert minimal_nonfaces(fan) == []
  ring = sr_ring(fan)
  assert list(ring.generators) == [Poly.linear([2])]


def test_sector_ideal_p654(p654):
  box = {e.v: e for e in p654.box()}
  assert sector_ideal(p654, box[(0, 1)]) == [Poly(3, {(1, 0, 1): 1})]
  assert sector_ideal(p654, box[(1, 1)]) == [Poly(3, {(0, 0, 1): 1})]
  assert sector_ideal(p654, box[(0, 0)]) == sr_ideal(p654,
                                                     character_data(p654))


def test_sector_ideal_p64_torsion_sector(p64):
  box = {e.v: e for e in p64.box()}
  # the pure-torsion sector sees the whole fan
  cd = character_data(p64)
  assert sector_ideal(p64, box[(0, 1)]) == sr_ideal(p64, cd)
  # a sector inside one chart: the opposite coordinate class dies
  assert sector_ideal(p64, box[(1, 0)]) == [Poly(2, {(0, 1): 2})]


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
def test_minimal_nonfaces_are_minimal(fan):
  faces = lambda s: fan.has_common_cone(s)
  for s in minimal_nonfaces(fan):
    assert not faces(set(s))
    for i in s:
      assert faces(set(s) - {i})


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_fans())
def test_character_data_consistency(fan):
  cd = character_data(fan)
  for i in range(fan.n):
    assert cd.iota_star(cd.x[i]) == cd.tilde_x[i]
  if fan.r == 0:
    assert cd.f == IntMatrix.identity(fan.n)
  else:
    assert cd.f.det() != 0
