from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stackychow.lattice import (
    AbGroup,
    IntMatrix,
    QReducer,
    ZReducer,
    smith_normal_form,
)
from tests.conftest import canonical_class, dense, det, frac, solve_rational


def test_snf_diagonal_small():
  m = IntMatrix([[2, -3, 0], [1, 0, 2]])
  snf = smith_normal_form(m)
  assert snf.diagonal == (1, 1)
  assert snf.u.mul(m).mul(snf.v) == snf.d


def test_int_matrix_refuses_non_integral_entries():
  # int() alone would truncate 1/2 to 0 and 2.7 to 2
  for bad in (Fraction(1, 2), 2.7):
    with pytest.raises(ValueError, match="non-integral matrix entry"):
      IntMatrix([[1, 0], [bad, 3]])
  m = IntMatrix([[Fraction(4, 2), True], [3.0, -1]])
  assert m.entries == ((2, 1), (3, -1))
  assert all(type(a) is int for row in m.entries for a in row)
  with pytest.raises(ValueError, match="non-integral"):
    AbGroup(2, [[Fraction(1, 2), 1]])


def test_coker_rank_one_quotient():
  # Z^3 / <(2,-3,0), (1,0,2)> is infinite cyclic; the classes of the
  # standard generators land at 6, 4, -3.
  g = AbGroup(3, [[2, -3, 0], [1, 0, 2]])
  assert g.free_rank == 1
  assert g.invariant_factors == ()
  assert [g.coords(j) for j in range(3)] == [((), (6,)), ((), (4,)),
                                             ((), (-3,))]


def test_coker_single_relation():
  g = AbGroup(2, [[2, -3]])
  assert g.free_rank == 1
  assert [g.coords(j) for j in range(2)] == [((), (3,)), ((), (2,))]
  # 2*e1 - 3*e2 must die
  assert not any(canonical_class(g, (2, -3)))


def test_quotient_with_torsion():
  # (Z + Z/2) / <2*e1 + e2> is cyclic of order 4, generated by e1
  g = AbGroup(2, [[0, 2], [2, 1]])
  assert g.free_rank == 0
  assert g.invariant_factors == (4,)
  assert len({canonical_class(g, (k, 0)) for k in range(4)}) == 4


def test_solve_integer():
  snf = smith_normal_form(IntMatrix([[2, 0], [0, 2]]))
  assert snf.solve((1, 0)) is None
  sol = snf.solve((4, -6))
  assert sol == (2, -3)
  # underdetermined
  sol2 = smith_normal_form(IntMatrix([[1, 2, 3]])).solve((7,))
  assert sol2 is not None
  assert sum(c * x for c, x in zip((1, 2, 3), sol2)) == 7


def test_frac():
  assert frac(Fraction(7, 6)) == Fraction(1, 6)
  assert frac(Fraction(-1, 6)) == Fraction(5, 6)
  assert frac(3) == 0


def test_zreducer_membership():
  red = ZReducer([(2, 0, 1), (0, 3, 1)], 3)
  assert red.contains((2, 3, 2))
  assert not red.contains((1, 0, 0))
  assert dense(red.reduce((2, 3, 2)), 3) == (0, 0, 0)


def test_qreducer():
  red = QReducer([(1, 2), (2, 4)], 2)
  assert red.rank == 1
  assert red.contains((3, 6))
  assert not red.contains((1, 0))


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
  m = IntMatrix(rows)
  snf = smith_normal_form(m)
  assert snf.u.mul(m).mul(snf.v) == snf.d
  assert snf.u.mul(snf.u_inv) == IntMatrix.identity(m.rows)
  diag = snf.diagonal
  assert all(x >= 0 for x in diag)
  for a, b in zip(diag, diag[1:]):
    if a == 0:
      assert b == 0
    else:
      assert b % a == 0
  # off-diagonal zero
  for i in range(snf.d.rows):
    for j in range(snf.d.cols):
      if i != j:
        assert snf.d[i, j] == 0


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_snf_det_preserved(rows):
  m = IntMatrix(rows)
  if m.rows != m.cols:
    return
  snf = smith_normal_form(m)
  prod = 1
  for x in snf.diagonal:
    prod *= x
  assert abs(det(m.entries)) == prod


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_abgroup_roundtrip(rows):
  g = AbGroup(len(rows[0]), rows)
  span = smith_normal_form(IntMatrix(rows).transpose())
  for j in range(len(rows[0])):
    # the lift of generator j's coordinates differs from e_j by relations
    back = g.lift(*g.coords(j))
    diff = [x - int(k == j) for k, x in enumerate(back)]
    assert span.solve(diff) is not None
  # relations are zero in the quotient
  for rel in rows:
    assert not any(canonical_class(g, rel))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_hermite_span_stable(rows):
  width = len(rows[0])
  # sum of all the rows is in the span
  total = tuple(sum(c) for c in zip(*rows))
  red = ZReducer(rows, width)
  assert red.contains(total)


# -- the echelon kernel against independent oracles ----------------------------

small_fraction_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.fractions(-5, 5, max_denominator=4),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


def _q_rank(rows):
  """Rank over Q by dense Fraction elimination: a reference that shares no
  code with the integer kernel.  (smith_normal_form is no oracle for stacked
  rows: its entries can explode on some dense 5 x 4 integer matrices.)"""
  m = [[Fraction(x) for x in row] for row in rows]
  rank = 0
  for j in range(len(m[0]) if m else 0):
    p = next((i for i in range(rank, len(m)) if m[i][j]), None)
    if p is None:
      continue
    m[rank], m[p] = m[p], m[rank]
    for i in range(rank + 1, len(m)):
      c = m[i][j] / m[rank][j]
      m[i] = [x - c * y for x, y in zip(m[i], m[rank])]
    rank += 1
  return rank


def _pivots(red):
  """(column, pivot) of each kept row, checking the echelon shape."""
  out = []
  for row in red.rows:
    row = dense(row, red.width)
    j = next(k for k, x in enumerate(row) if x != 0)
    assert not out or j > out[-1][0]
    assert row[j] > 0
    out.append((j, row[j]))
  return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices, small_fraction_matrices))
def test_qreducer_rank_is_smith_rank(rows):
  width = len(rows[0])
  red = QReducer(rows, width)
  assert red.rank == len(red.rows) == _q_rank(rows)
  if all(type(x) is int for row in rows for x in row):
    assert red.rank == sum(
        1 for d in smith_normal_form(IntMatrix(rows)).diagonal if d)
  # the kept rows span the same Q-space as the input
  assert _q_rank(list(rows) + [dense(r, width) for r in red.rows]) == \
      red.rank
  assert all(red.contains(r) for r in rows)


# rows leading at increasing columns, so each is stored before the pivots
# of the rows after it and is not reduced there
echelon_matrices = st.integers(2, 5).flatmap(
    lambda c: st.lists(
        st.tuples(st.booleans(), st.sampled_from([1, 2, 4, 6]),
                  st.lists(st.integers(-3, 3), min_size=c, max_size=c)),
        min_size=c, max_size=c)).map(
    lambda specs: [[0] * j + [a] + tail[j + 1:]
                   for j, (used, a, tail) in enumerate(specs) if used]
).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices, small_fraction_matrices))
def test_reduced_rows(rows):
  # the same row span and pivots as the echelon basis, each row reduced at
  # the other pivot columns: zero there over Q, in [0, pivot) over Z
  width = len(rows[0])
  for cls in (QReducer, ZReducer):
    if cls is ZReducer and any(type(x) is not int for r in rows for x in r):
      continue
    red = cls(rows, width)
    out = red.reduced_rows()
    pivots = _pivots(red)
    assert [j for j, _ in pivots] == [j for j, _ in _pivots(cls(out, width))]
    assert all(red.contains(r) for r in out)
    assert all(cls(out, width).contains(r) for r in red.rows)
    for r, (j, _) in zip(out, pivots):
      r = dense(r, width)
      for k, p in pivots:
        if k != j:
          assert r[k] == 0 if cls is QReducer else 0 <= r[k] < p


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_matrices, echelon_matrices))
def test_zreducer_keeps_the_group(rows):
  width = len(rows[0])
  red = ZReducer(rows, width)
  kept = AbGroup(width, [dense(r, width) for r in red.rows])
  raw = AbGroup(width, rows)
  assert (kept.free_rank, kept.invariant_factors) == \
      (raw.free_rank, raw.invariant_factors)
  assert red.invariants() == (raw.free_rank, raw.invariant_factors)
  assert all(red.contains(r) for r in rows)


def test_zreducer_invariants_reduce_at_later_unit_pivots():
  # the stored row (2, 1, 0) predates the unit pivot of (0, 1, 3); reduced
  # there it is (2, 0, -3), so the quotient is Z, not Z + Z/2
  red = ZReducer([[2, 1, 0], [0, 1, 3]], 3)
  assert [dense(r, 3) for r in red.rows] == [(2, 1, 0), (0, 1, 3)]
  assert red.invariants() == (1, ())
  assert ZReducer([], 2).invariants() == (2, ())
  assert ZReducer([[1, 4], [0, 6]], 2).invariants() == (0, (6,))


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.data())
def test_zreducer_residue(rows, data):
  width = len(rows[0])
  red = ZReducer(rows, width)
  v = data.draw(st.lists(st.integers(-20, 20), min_size=width,
                         max_size=width))
  cs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                          max_size=len(rows)))
  shifted = list(v)
  for c, row in zip(cs, rows):
    shifted = [x + c * y for x, y in zip(shifted, row)]
  res = red.reduce(v)
  assert red.reduce(shifted) == res
  res = dense(res, width)
  for j, p in _pivots(red):
    assert 0 <= res[j] < p
  # v - res lies in the row lattice
  g = AbGroup(width, rows)
  assert not any(canonical_class(g, [a - b for a, b in zip(v, res)]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices, small_fraction_matrices), st.data())
def test_qreducer_residue(rows, data):
  width = len(rows[0])
  red = QReducer(rows, width)
  v = data.draw(st.lists(st.fractions(-9, 9, max_denominator=5),
                         min_size=width, max_size=width))
  cs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                          min_size=len(rows), max_size=len(rows)))
  shifted = list(v)
  for c, row in zip(cs, rows):
    shifted = [x + c * y for x, y in zip(shifted, row)]
  res = red.reduce(v)
  assert red.reduce(shifted) == res
  res = dense(res, width)
  for j, _ in _pivots(red):
    assert res[j] == 0
  # v - res lies in the row space
  diff = [a - b for a, b in zip(v, res)]
  assert _q_rank(list(rows) + [diff]) == red.rank


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.data())
def test_reducers_see_only_the_column_order(rows, data):
  # graded pieces key their columns by exponent tuples: under an
  # order-preserving relabelling of int columns by tuples every pivot,
  # residue, reduced row and invariant stays the same
  width = len(rows[0])
  labels = sorted(data.draw(st.sets(
      st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
      min_size=width, max_size=width)))

  def relabel(row):
    if not isinstance(row, dict):
      row = dict(enumerate(row))
    return {labels[k]: x for k, x in row.items()}

  v = data.draw(st.lists(st.integers(-20, 20), min_size=width,
                         max_size=width))
  halves = data.draw(st.lists(st.integers(-5, 5), min_size=width,
                              max_size=width))
  # over Q one more row with entries in 1/2 + Z
  q_rows = rows + [[Fraction(2 * x + 1, 2) for x in halves]]
  for cls, cls_rows in ((ZReducer, rows), (QReducer, q_rows)):
    by_int = cls(cls_rows, width)
    by_tuple = cls([relabel(r) for r in cls_rows], width)
    assert by_tuple.rank == by_int.rank
    assert by_tuple.rows == tuple(map(relabel, by_int.rows))
    assert by_tuple.reduced_rows() == tuple(
        map(relabel, by_int.reduced_rows()))
    for vec in (v, halves, cls_rows[-1]):
      assert by_tuple.reduce(relabel(vec)) == relabel(by_int.reduce(vec))
    if cls is ZReducer:
      assert by_tuple.invariants() == by_int.invariants()


# solve_rational is the Fraction oracle of tests/conftest.py, which the box
# and reference checks of test_stackyfan.py rely on; these two tests check it

@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices, small_fraction_matrices), st.data())
def test_solve_rational_oracle(cols, data):
  m, k = len(cols[0]), len(cols)
  b = data.draw(st.lists(st.fractions(-9, 9, max_denominator=3),
                         min_size=m, max_size=m))
  if _q_rank(cols) < k:
    try:
      solve_rational(cols, b)
      assert False, "expected ValueError"
    except ValueError:
      pass
    return
  q = solve_rational(cols, b)
  if _q_rank(list(cols) + [b]) > k:
    assert q is None
  else:
    assert len(q) == k
    assert [sum(qj * c[i] for qj, c in zip(q, cols)) for i in range(m)] == b
  # a combination of the columns is always solved, by its coefficients
  qs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=4),
                          min_size=k, max_size=k))
  b2 = [sum(qj * c[i] for qj, c in zip(qs, cols)) for i in range(m)]
  assert list(solve_rational(cols, b2)) == qs


def test_solve_rational_edges():
  assert solve_rational([], (0, 0)) == ()
  assert solve_rational([], (1, 0)) is None
  assert solve_rational([(0, 3)], (0, 1)) == (Fraction(1, 3),)
  for cols in ([(0, 0)], [(1, 2), (2, 4)]):
    try:
      solve_rational(cols, (1, 2))
      assert False, "expected ValueError"
    except ValueError:
      pass
