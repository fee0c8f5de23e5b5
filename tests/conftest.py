from fractions import Fraction

import pytest

from hypothesis import assume, strategies as st

from stackychow.stackyfan import StackyFan


@pytest.fixture
def p64():
  # weighted projective line with stabilizers of orders 6 and 4
  return StackyFan(1, (2,), ((2, 1), (-3, 0)), ((0,), (1,)))


@pytest.fixture
def p654():
  # weighted projective plane with stabilizers of orders 6, 5, 4
  return StackyFan(2, (), ((2, 1), (0, 2), (-3, -4)), ((0, 1), (1, 2), (0, 2)))


# distinct primitive directions in counterclockwise order, starting at (1,0)
_DIRECTIONS = ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0),
               (-1, -1), (0, -1), (1, -1))


@st.composite
def valid_fans(draw, max_box=30):
  """Random valid stacky fans, dimension at most 2, biased small.

  2d fans take consecutive pairs of counterclockwise-sorted directions, so
  cones share faces by construction; validity of torsion data is filtered.
  """
  d = draw(st.integers(1, 2))
  torsion = draw(st.sampled_from([(), (), (), (2,), (3,), (4,), (2, 2)]))
  if d == 1:
    frees = [(draw(st.integers(1, 3)),)]
    # a lone ray can never contain N_tors in its span, so torsion forces two
    if draw(st.booleans()) or torsion:
      frees.append((-draw(st.integers(1, 3)),))
    cones = [(i,) for i in range(len(frees))]
  else:
    k = draw(st.integers(2, 4))
    idx = sorted(draw(st.sets(st.integers(0, len(_DIRECTIONS) - 1),
                              min_size=k, max_size=k)))
    chosen = [_DIRECTIONS[i] for i in idx]
    frees = [(a * s, b * s)
             for (a, b), s in zip(chosen, [draw(st.integers(1, 2))
                                           for _ in chosen])]
    cones = [(i, i + 1) for i in range(len(frees) - 1)]
    last, first = frees[-1], frees[0]
    # wrap around only when the leftover sector is convex
    if draw(st.booleans()) and last[0] * first[1] - last[1] * first[0] > 0:
      cones.append((len(frees) - 1, 0))
  rays = [f + tuple(draw(st.integers(0, m - 1)) for m in torsion)
          for f in frees]
  fan = StackyFan(d, torsion, rays, cones)
  assume(not fan.validate())
  assume(len(fan.box()) <= max_box)
  return fan


def solve_rational(columns, b):
  """Solve sum_j q_j * col_j = b over Q for linearly independent columns.

  The test oracle for rational solves: Gauss-Jordan elimination on the
  Fraction matrix [columns | b], sharing no code with stackychow.lattice.
  Returns the unique coefficient tuple, or None if b is outside the column
  span; raises ValueError when the columns are dependent.
  """
  m, k = len(b), len(columns)
  rows = [[Fraction(c[i]) for c in columns] + [Fraction(b[i])]
          for i in range(m)]
  for j in range(k):
    p = next((i for i in range(j, m) if rows[i][j]), None)
    if p is None:
      raise ValueError("columns not linearly independent")
    rows[j], rows[p] = rows[p], rows[j]
    pivot = rows[j][j]
    rows[j] = [x / pivot for x in rows[j]]
    for i in range(m):
      if i != j and rows[i][j]:
        f = rows[i][j]
        rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
  if any(rows[i][k] for i in range(k, m)):
    return None
  return tuple(rows[j][k] for j in range(k))


def dense(row, width):
  """A reducer row or residue {column index: value} as a dense tuple."""
  out = [0] * width
  for k, x in row.items():
    out[k] = x
  return tuple(out)


def canonical_class(grp, x):
  """The class of x in an AbGroup: u * x with each coordinate reduced modulo
  its diagonal entry (kept as is where the entry is 0, a free coordinate)."""
  return tuple(c % d if d else c
               for c, d in zip(grp.u.mul_vec(x), grp.diagonal))
