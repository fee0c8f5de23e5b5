"""Exact integer and rational linear algebra.

Everything here works over Z or Q with arbitrary precision (Python ints and
fractions.Fraction); no floating point anywhere.  The Smith form tracks its
unimodular transforms so callers can change bases, lift representatives and
solve integral systems exactly.  Row spans over Z and Q go through one
integer row-echelon kernel (`_echelon`) on sparse rows keyed by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _int_row(row):
  """A matrix row as a tuple of ints; a non-integral entry is refused, not
  truncated."""
  row = tuple(row)
  if all(type(a) is int for a in row):
    return row
  out = tuple(map(int, row))
  if out != row:
    raise ValueError("non-integral matrix entry in the row %r" % (row,))
  return out


class IntMatrix:
  """Immutable integer matrix, row-major."""

  __slots__ = ("rows", "cols", "entries")

  def __init__(self, entries):
    rows = tuple(map(_int_row, entries))
    if rows:
      width = len(rows[0])
      if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    else:
      width = 0
    object.__setattr__(self, "rows", len(rows))
    object.__setattr__(self, "cols", width)
    object.__setattr__(self, "entries", rows)

  @classmethod
  def _trusted(cls, rows):
    """From equal-length rows of ints, without checking them."""
    m = object.__new__(cls)
    object.__setattr__(m, "rows", len(rows))
    object.__setattr__(m, "cols", len(rows[0]) if rows else 0)
    object.__setattr__(m, "entries", tuple(map(tuple, rows)))
    return m

  def __setattr__(self, name, value):
    raise AttributeError("IntMatrix is immutable")

  @staticmethod
  def identity(n):
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

  def __getitem__(self, ij):
    i, j = ij
    return self.entries[i][j]

  def col(self, j):
    return tuple(r[j] for r in self.entries)

  def transpose(self):
    return IntMatrix._trusted(list(zip(*self.entries)))

  def mul(self, other):
    if self.cols != other.rows:
      raise ValueError("shape mismatch")
    ot = other.transpose().entries
    return IntMatrix(
        [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries])

  def mul_vec(self, v):
    if len(v) != self.cols:
      raise ValueError("shape mismatch")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

  def __eq__(self, other):
    return isinstance(other, IntMatrix) and self.entries == other.entries

  def __hash__(self):
    return hash(self.entries)

  def __repr__(self):
    return "IntMatrix(%r)" % (list(map(list, self.entries)),)


@dataclass(frozen=True)
class SnfDecomposition:
  """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

  u: IntMatrix
  d: IntMatrix
  v: IntMatrix
  u_inv: IntMatrix

  @property
  def diagonal(self):
    k = min(self.d.rows, self.d.cols)
    return tuple(self.d[i, i] for i in range(k))

  def solve(self, b):
    """One integer solution x of M*x = b, or None: the system becomes
    D y = U b, and x = V y.  Solving for several b takes one Smith form."""
    c = self.u.mul_vec(b)
    y = [0] * self.d.cols
    k = min(self.d.rows, self.d.cols)
    for i in range(self.d.rows):
      d = self.d[i, i] if i < k else 0
      if d == 0:
        if c[i] != 0:
          return None
      else:
        if c[i] % d != 0:
          return None
        y[i] = c[i] // d
    return self.v.mul_vec(y)


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
  """Smith normal form with tracked transforms.

  Pivot selection: smallest nonzero absolute value in the remaining block,
  first occurrence in row-major order.  Diagonal entries are made nonnegative.
  """
  a = [list(r) for r in m.entries]
  nr, nc = m.rows, m.cols
  u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
  ui = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
  v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

  def row_swap(i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]
    for r in ui:
      r[i], r[j] = r[j], r[i]

  def row_addmul(i, j, c):
    # row_i += c*row_j; inverse: col_j -= c*col_i
    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    for r in ui:
      r[j] -= c * r[i]

  def row_neg(i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]
    for r in ui:
      r[i] = -r[i]

  def col_swap(i, j):
    for r in a:
      r[i], r[j] = r[j], r[i]
    for r in v:
      r[i], r[j] = r[j], r[i]

  def col_addmul(j, i, c):
    # col_j += c*col_i
    for r in a:
      r[j] += c * r[i]
    for r in v:
      r[j] += c * r[i]

  def pivot_search(t):
    best = None
    for i in range(t, nr):
      for j in range(t, nc):
        x = a[i][j]
        if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
          best = (i, j)
    return best

  t = 0
  limit = min(nr, nc)
  while t < limit:
    pos = pivot_search(t)
    if pos is None:
      break
    pi, pj = pos
    if pi != t:
      row_swap(t, pi)
    if pj != t:
      col_swap(t, pj)
    while True:
      dirty = False
      for i in range(t + 1, nr):
        if a[i][t] != 0:
          q = a[i][t] // a[t][t]
          row_addmul(i, t, -q)
          if a[i][t] != 0:
            row_swap(t, i)
            dirty = True
      for j in range(t + 1, nc):
        if a[t][j] != 0:
          q = a[t][j] // a[t][t]
          col_addmul(j, t, -q)
          if a[t][j] != 0:
            col_swap(t, j)
            dirty = True
      if not dirty:
        break
    t += 1

  # Divisibility chain: fold offending later entries into earlier ones.
  while True:
    fixed = True
    for i in range(limit - 1):
      x, y = a[i][i], a[i + 1][i + 1]
      if x != 0 and y % x != 0:
        col_addmul(i, i + 1, 1)
        # re-clear the 2x2 block with euclidean steps
        while a[i + 1][i] != 0:
          if a[i][i] != 0:
            q = a[i + 1][i] // a[i][i]
            row_addmul(i + 1, i, -q)
          if a[i + 1][i] != 0:
            row_swap(i, i + 1)
        if a[i][i + 1] != 0:
          q = a[i][i + 1] // a[i][i]
          col_addmul(i + 1, i, -q)
        fixed = False
    if fixed:
      break

  for i in range(limit):
    if a[i][i] < 0:
      row_neg(i)

  return SnfDecomposition(IntMatrix._trusted(u), IntMatrix._trusted(a),
                          IntMatrix._trusted(v), IntMatrix._trusted(ui))


class _Echelon:
  """Echelon basis of the span of some rows, over Z (ZReducer) or Q (QReducer).

  Rows and vectors are dicts {column: nonzero value}, a sequence read as
  {k: x}.  Columns are keys of one ordered type (ints, or exponent tuples
  in lexicographic order), and a row leads at its least column.

  The two domains differ only in `_clear`, which cancels the leading entry
  of a row being inserted against the pivot row of its column, and in
  `_step`, the residue of a vector at one pivot column; see `_echelon`.
  `rows` holds the basis, sorted by pivot column.
  """

  def __init__(self, rows, width):
    self.width = width
    self._piv = _echelon(rows, self._clear, self._step)
    self.rows = tuple(self._piv.values())

  def reduce(self, vec):
    """The residue of vec as a dict {column: nonzero value}.

    At every pivot column it is zero (Q) or in [0, pivot) (Z), which makes
    it unique in its coset: it does not depend on which echelon basis is
    kept."""
    v, den = _integral(vec)
    v, scale = _residue(v, self._piv, self._step)
    scale *= den
    return v if scale == 1 else {k: Fraction(x) / scale for k, x in v.items()}

  def contains(self, vec):
    return not _residue(_integral(vec)[0], self._piv, self._step)[0]

  def reduced_rows(self):
    """The basis rows, each reduced at the pivot columns of the others (over
    Q it is zero there: a reduced row echelon form up to row scaling)."""
    done = {}
    for j, p in reversed(self._piv.items()):
      done[j] = _residue(p, done, self._step, j)[0]
    return tuple(done[j] for j in self._piv)

  @property
  def rank(self):
    return len(self._piv)


class ZReducer(_Echelon):
  """Reduce integer vectors to canonical residues modulo a Z-row span."""

  def invariants(self):
    """(free rank, invariant factors) of Z^width modulo the row span.

    A pivot 1 eliminates its column.  Each other row is reduced at the
    later unit-pivot columns (a stored row is reduced only at the pivots
    inserted before it), which zeroes it on every unit-pivot column.  The
    Smith form runs on the columns these rows touch; every other column
    without a unit pivot is free.
    """
    units = {j: p for j, p in self._piv.items() if p[j] == 1}
    rest = [_residue(p, units, self._step, j)[0]
            for j, p in self._piv.items() if p[j] != 1]
    cols = sorted({k for r in rest for k in r})
    grp = AbGroup(len(cols), [[r.get(k, 0) for k in cols] for r in rest])
    return (self.width - len(units) - len(cols) + grp.free_rank,
            grp.invariant_factors)

  @staticmethod
  def _clear(p, r, j):
    """p becomes the gcd row of column j, and r is cleared there."""
    a, c = p[j], r[j]
    if c % a == 0:
      return p, ZReducer._step(r, p, j)[0]
    g, s, t = _xgcd(a, c)
    return _combine(s, p, t, r), _combine(a // g, r, -(c // g), p)

  @staticmethod
  def _step(v, p, k):
    """v with its entry at column k brought into [0, p[k]), and 1."""
    q = v[k] // p[k]
    if not q:
      return v, 1
    return _combine(1, v, -q, p), 1


class QReducer(_Echelon):
  """Reduce rational vectors modulo a Q-row span."""

  @staticmethod
  def _clear(p, r, j):
    return p, QReducer._step(r, p, j)[0]

  @staticmethod
  def _step(v, p, k):
    """v with column k cancelled fraction-free and made primitive, and the
    factor by which it was scaled."""
    a, c = p[k], v[k]
    g = gcd(a, c)
    a, c = a // g, c // g
    v = _combine(a, v, -c, p)
    h = gcd(*v.values())
    if h > 1:
      return {k: x // h for k, x in v.items()}, Fraction(a, h)
    return v, a


def _echelon(rows, clear, step):
  """{pivot column: row} of an echelon basis of the row span, in column order.

  The basis rows are integer rows with positive pivots; rational rows have
  their denominators cleared on entry.  Rows are inserted one at a time:
  `clear` cancels the leading entry of the row with the pivot row of its
  column until the row vanishes or leads at a free column.  There it is
  stored after `step` has reduced it at every later pivot column, which
  keeps the entries small (Kannan-Bachem).
  """
  piv = {}
  for row in rows:
    r = _integral(row)[0]
    while r:
      j = min(r)
      p = piv.get(j)
      if p is None:
        if r[j] < 0:
          r = {k: -x for k, x in r.items()}
        piv[j] = _residue(r, piv, step, j)[0]
        break
      new_p, r = clear(p, r, j)
      if new_p is not p:
        piv[j] = _residue(new_p, piv, step, j)[0]
  return {j: piv[j] for j in sorted(piv)}


def _residue(v, piv, step, after=None):
  """v reduced at each pivot column of piv (past `after`, if given) where
  it is nonzero, in ascending column order, and the factor the result is
  scaled by (1 over Z).  A step at column k changes v only at the columns
  of its pivot row, all past k, so those are the columns to look at next."""
  todo = [k for k in v if k in piv and (after is None or k > after)]
  heapify(todo)
  scale, last = 1, None
  while todo:
    k = heappop(todo)
    if k == last or k not in v:
      continue
    last = k
    v, m = step(v, piv[k], k)
    scale *= m
    for c in piv[k]:
      if c > k and c in piv:
        heappush(todo, c)
  return v, scale


def _combine(a, u, b, w):
  """a*u + b*w for dict rows, with the zero entries dropped."""
  out = {k: a * x for k, x in u.items()} if a else {}
  for k, y in w.items():
    x = out.get(k, 0) + b * y
    if x:
      out[k] = x
    else:
      out.pop(k, None)
  return out


def _integral(row):
  """(m * row as a dict {column: nonzero int}, m) for the least m > 0
  clearing the denominators of row."""
  if not isinstance(row, dict):
    row = dict(enumerate(row))
  den = 1
  for x in row.values():
    if type(x) is not int:
      den = lcm(den, Fraction(x).denominator)
  return {k: int(x * den) for k, x in row.items() if x}, den


def _xgcd(a, b):
  """g, s, t with s*a + t*b = g = gcd(a, b), g >= 0."""
  old_r, r = a, b
  old_s, s = 1, 0
  old_t, t = 0, 1
  while r:
    q = old_r // r
    old_r, r = r, old_r - q * r
    old_s, s = s, old_s - q * s
    old_t, t = t, old_t - q * t
  if old_r < 0:
    old_r, old_s, old_t = -old_r, -old_s, -old_t
  return old_r, old_s, old_t


def rational_rank(rows):
  """Rank over Q of a list of rational row vectors."""
  if not rows:
    return 0
  return QReducer(rows, len(rows[0])).rank


class AbGroup:
  """Z^ngens modulo the span of some integer rows, as the Smith form of the
  rows taken as columns.

  `u` carries generator coordinates x to canonical ones c = u * x, in which
  the group is the product of the Z / diagonal[j] (Z where the entry is
  0); `u_inv` carries them back.  Each row of u on a free coordinate is
  made positive-leading, so canonical coordinates come out with a
  deterministic sign.
  """

  def __init__(self, ngens, relations=()):
    relations = IntMatrix(relations)
    if relations.rows and relations.cols != ngens:
      raise ValueError("relation width does not match generator count")
    if relations.rows:
      snf = smith_normal_form(relations.transpose())
      u = [list(r) for r in snf.u.entries]
      ui = [list(r) for r in snf.u_inv.entries]
      diag = snf.diagonal + (0,) * (ngens - len(snf.diagonal))
    else:
      u = [[int(i == j) for j in range(ngens)] for i in range(ngens)]
      ui = [row[:] for row in u]
      diag = (0,) * ngens
    for j, d in enumerate(diag):
      if d == 0:
        lead = next((x for x in u[j] if x != 0), None)
        if lead is not None and lead < 0:
          u[j] = [-x for x in u[j]]
          for r in ui:
            r[j] = -r[j]
    self.u = IntMatrix._trusted(u)
    self.u_inv = IntMatrix._trusted(ui)
    self.diagonal = diag
    self.invariant_factors = tuple(d for d in diag if d > 1)
    self.free_rank = diag.count(0)

  def __repr__(self):
    parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.invariant_factors]
    return "AbGroup(%s)" % (" + ".join(parts) if parts else "0",)

  def coords(self, j):
    """(torsion, free) canonical coordinates of generator j: column j of u,
    each torsion entry reduced modulo its invariant factor."""
    col = self.u.col(j)
    return (tuple(c % d for c, d in zip(col, self.diagonal) if d > 1),
            tuple(c for c, d in zip(col, self.diagonal) if d == 0))

  def lift(self, torsion, free):
    """u_inv * c: generator coordinates of the class whose canonical
    (torsion, free) coordinates are given."""
    torsion, free = iter(torsion), iter(free)
    return self.u_inv.mul_vec([next(torsion) if d > 1 else
                               next(free) if d == 0 else 0
                               for d in self.diagonal])
