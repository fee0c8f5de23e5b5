import random
from fractions import Fraction
from math import lcm

import pytest

from hypothesis import assume, strategies as st

from stackychow.gradedpoly import monomials_of_degree
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


# the seeded acceptance suite: a stream of fans over the same directions
_TORSION_CHOICES = ((), (), (), (2,), (3,), (4,), (2, 2))


def _random_candidate(rng):
  torsion = rng.choice(_TORSION_CHOICES)
  if rng.random() < 0.25:
    nrays = 2 if torsion else rng.choice((1, 2))
    rows = []
    for i in range(nrays):
      free = (1 if i == 0 else -1) * rng.randint(1, 4)
      rows.append((free,) + tuple(rng.randrange(m) for m in torsion))
    cones = tuple((i,) for i in range(nrays))
    try:
      return StackyFan(1, torsion, tuple(rows), cones)
    except ValueError:
      return None
  k = rng.randint(2, 4)
  start = rng.randrange(len(_DIRECTIONS))
  rows = []
  for j in range(k):
    dx, dy = _DIRECTIONS[(start + j) % len(_DIRECTIONS)]
    c = rng.randint(1, 3)
    rows.append((c * dx, c * dy) + tuple(rng.randrange(m) for m in torsion))
  cones = [(j, j + 1) for j in range(k - 1)]
  if k >= 3 and rng.random() < 0.5:
    cones.append((k - 1, 0))
  try:
    return StackyFan(2, torsion, tuple(rows), tuple(cones))
  except ValueError:
    return None


def random_valid_fans(count, seed, max_box=30):
  """The first count valid fans of a seeded stream, with 2 to max_box
  sectors; the acceptance suite takes 25 with seed 20240816."""
  rng = random.Random(seed)
  fans = []
  while len(fans) < count:
    fan = _random_candidate(rng)
    if fan is None or fan.validate():
      continue
    if not 1 < len(fan.box()) <= max_box:
      continue
    fans.append(fan)
  return fans


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


def det(rows):
  """Determinant of a square integer matrix by Laplace expansion along the
  first row; the test oracle for small matrices."""
  if not rows:
    return 1
  if len(rows) == 1:
    return rows[0][0]
  total = 0
  for j, lead in enumerate(rows[0]):
    if lead:
      minor = [r[:j] + r[j + 1:] for r in rows[1:]]
      total += (-1) ** j * lead * det(minor)
  return total


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


def holds_in_a_cone(fan, rays):
  """Whether one max cone holds every ray index in rays, by set inclusion;
  the empty set lies in the zero cone, also on a fan with no max cones."""
  rays = set(rays)
  return not rays or any(rays <= set(c) for c in fan.max_cones)


def share_a_cone(fan, v, w):
  """Whether one max cone holds the minimal cones of both box elements."""
  return holds_in_a_cone(fan, set(v.sigma_min) | set(w.sigma_min))


def double_box(fan):
  """The ordered pairs (v, w) of box elements that lie in a common cone."""
  box = fan.box()
  return [(v, w) for v in box for w in box if share_a_cone(fan, v, w)]


def box_of_cone(fan, cone):
  """The box elements of one cone: those whose minimal cone lies in it."""
  return [e for e in fan.box() if set(e.sigma_min) <= set(cone)]


def box_inverse(fan, v):
  """The box element w with box_add(v, w) the identity, found by search;
  there is exactly one."""
  found = [w for w in fan.box()
           if share_a_cone(fan, v, w) and fan.box_add(v, w).is_identity]
  assert len(found) == 1, found
  return found[0]


def rational_monomials(degrees, target):
  """The monomials of a rational degree under rational variable degrees:
  both are scaled by the lcm of the degree denominators, and a target off
  that grid has none."""
  degrees = [Fraction(d) for d in degrees]
  scale = lcm(*(d.denominator for d in degrees))
  t = Fraction(target) * scale
  if any(d <= 0 for d in degrees):
    raise ValueError("nonpositive variable degree")
  if t.denominator != 1:
    return []
  return monomials_of_degree([int(d * scale) for d in degrees], int(t))


def homogeneous_degree(poly, degrees):
  """The common Fraction degree of the terms of poly, None if they mix
  degrees, 0 for the zero polynomial."""
  degs = {sum((Fraction(d) * e for e, d in zip(exp, degrees)), Fraction(0))
          for exp in poly.terms}
  if len(degs) > 1:
    return None
  return degs.pop() if degs else Fraction(0)
