import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import floor, lcm
from operator import add

import pytest

from hypothesis import assume, strategies as st

from stackychow.charring import character_data, linear_ideal
from stackychow.gradedpoly import (Elimination, Poly, RingPresentation,
                                   _fresh_names, _mul_terms,
                                   monomials_of_degree)
from stackychow.inertial import sector_labels, star_product
from stackychow.lattice import AbGroup, QReducer, ZReducer
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


def frac(x) -> Fraction:
  """Fractional part in [0, 1)."""
  x = Fraction(x)
  return x - floor(x)


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


def log_trace(q, a):
  """The logarithmic trace sum_i a_i q_i L_i of a group element with
  rotation phases q on the bundle sum_i a_i L_i, as Fraction coefficients."""
  return tuple(Fraction(qi) * ai for qi, ai in zip(q, a))


def log_restriction(qs, a):
  """The logarithmic restriction of a tuple of group elements multiplying
  to the identity, given by their rotation phases: their log traces summed,
  less a_i on every ray one of them moves."""
  sums = [sum(t) for t in zip(*(log_trace(q, a) for q in qs))]
  assert all(s.denominator == 1 for s in sums)
  return tuple(s - k if any(q[i] for q in qs) else 0
               for i, (s, k) in enumerate(zip(sums, a)))


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


def first_generator_outside(p1, p2, maxdeg):
  """The first generator of degree <= maxdeg, by (degree, side), of one of
  two graded presentations that the other's ideal does not contain, as
  (degree, side, generator) with side 0 for p1; None when the two ideals
  agree in every degree up to maxdeg."""
  sides = (p1, p2)
  checks = sorted((deg, s, k) for s, pres in enumerate(sides)
                  for k, deg in enumerate(pres.generator_degrees())
                  if deg <= maxdeg)
  for deg, s, k in checks:
    g = sides[s].generators[k]
    if not sides[1 - s].contains(g):
      return deg, s, g
  return None


# -- the full-basis reducer ---------------------------------------------------
#
# A degree's reducer as it was built before its columns became the standard
# monomials: every monomial of the degree is a column, and every nonzero
# generator times every monomial of the complementary degree is a row.

def full_basis_reducer(pres, deg):
  """The echelon reducer of degree deg on the full monomial basis of a
  graded presentation."""
  deg = Fraction(deg)
  rows = [{tuple(map(add, e, m)): c for e, c in g.terms.items()}
          for g, dg in zip(pres.generators, pres.generator_degrees())
          if g.terms and dg <= deg
          for m in rational_monomials(pres.degrees, deg - dg)]
  cls = ZReducer if pres.domain == "z" else QReducer
  return cls(rows, len(rational_monomials(pres.degrees, deg)))


def full_basis_piece(pres, deg):
  """(free rank, invariant factors) of degree deg from full_basis_reducer."""
  red = full_basis_reducer(pres, deg)
  if pres.domain == "z":
    return red.invariants()
  return red.width - red.rank, ()


def full_basis_reduce(pres, poly):
  """The normal form of poly, each degree part reduced by
  full_basis_reducer."""
  parts = {}
  for e, c in poly.terms.items():
    deg = sum((Fraction(d) * k for d, k in zip(pres.degrees, e)), Fraction(0))
    parts.setdefault(deg, {})[e] = c
  out = {}
  for deg, part in parts.items():
    out.update(full_basis_reducer(pres, deg).reduce(part))
  return Poly(poly.nvars, out)


# -- references for the presentation build and for eliminate -----------------
#
# The relation build and eliminate as they were before each relation was
# written straight into the x+w ring and step two indexed its generators:
# every presentation and elimination must come out the same.

class ReferencePowers:
  """poly^0, poly^1, ... as term dicts, each computed once on first use."""

  def __init__(self, poly):
    self._terms = poly.terms
    self._cache = [{(0,) * poly.nvars: 1}]

  def __getitem__(self, k):
    cache = self._cache
    while len(cache) <= k:
      cache.append(_mul_terms(cache[-1], self._terms))
    return cache[k]


def reference_map_vars(poly, new_nvars, images):
  """Substitute images[i] for variable i: an int moves the exponent to
  that variable of the new ring, a Poly in the new ring is expanded
  through its powers, each computed once per call."""
  if len(images) != poly.nvars:
    raise ValueError("one image per variable required")
  powers = {}
  out = {}
  for e, c in poly.terms.items():
    ne = [0] * new_nvars
    term = None
    for i, k in enumerate(e):
      if not k:
        continue
      img = images[i]
      if type(img) is int:
        ne[img] += k
        continue
      p = powers.get(i)
      if p is None:
        if img.nvars != new_nvars:
          raise ValueError("polynomials in different rings")
        p = powers[i] = ReferencePowers(img)
      term = p[k] if term is None else _mul_terms(term, p[k])
    ne = tuple(ne)
    if term is None:
      out[ne] = out.get(ne, 0) + c
      continue
    for te, v in term.items():
      te = tuple(map(add, te, ne))
      out[te] = out.get(te, 0) + c * v
  return Poly._trusted(new_nvars, out)


def _reference_substitute(poly, i, powers):
  """Replace variable i by the polynomial whose powers table is given,
  staying in the same ring."""
  out = {}
  for e, c in poly.terms.items():
    k = e[i]
    if not k:
      out[e] = out.get(e, 0) + c
      continue
    base = e[:i] + (0,) + e[i + 1:]
    for pe, pc in powers[k].items():
      ne = tuple(map(add, base, pe))
      out[ne] = out.get(ne, 0) + c * pc
  return Poly._trusted(poly.nvars, out)


def reference_eliminate(pres):
  """Step one maps every generator through its own powers tables; step two
  scans every generator for the least bare variable after each hit and
  tests every generator for it."""
  names = list(pres.names)
  degrees = list(pres.degrees)
  gens = list(pres.generators)
  tags = list(pres.tags)
  subs = {}

  linear_idx = [k for k, g in enumerate(gens) if g.is_linear_form()]
  involved = sorted({i for k in linear_idx for i in gens[k].vars_occurring()})
  if involved and len({degrees[i] for i in involved}) == 1:
    common_deg = degrees[involved[0]]
    pos = {i: p for p, i in enumerate(involved)}
    rel_rows = []
    for k in linear_idx:
      row = [0] * len(involved)
      for i in gens[k].vars_occurring():
        row[pos[i]] = gens[k].terms.get(
            tuple(int(t == i) for t in range(gens[k].nvars)), 0)
      den = lcm(*(c.denominator for c in row))
      rel_rows.append(row if den == 1 else [int(c * den) for c in row])
    grp = AbGroup(len(involved), rel_rows)
    surviving = [j for j, d in enumerate(grp.diagonal) if d != 1]
    tnames = _fresh_names(len(surviving), set(names))
    new_names, new_degrees = [], []
    images = [None] * len(names)
    tbase = 0
    for i in range(len(names)):
      if i == involved[0]:
        tbase = len(new_names)
        for tn in tnames:
          new_names.append(tn)
          new_degrees.append(common_deg)
      if i in pos:
        continue
      images[i] = len(new_names)
      new_names.append(names[i])
      new_degrees.append(degrees[i])
    nn = len(new_names)
    for i in involved:
      terms = {}
      for sk, j in enumerate(surviving):
        c = grp.u[j, pos[i]]
        if c:
          exp = [0] * nn
          exp[tbase + sk] = 1
          terms[tuple(exp)] = c
      images[i] = subs[names[i]] = Poly(nn, terms)
    new_gens, new_tags = [], []
    for sk, j in enumerate(surviving):
      d = grp.diagonal[j]
      if d > 1:
        new_gens.append(Poly.variable(nn, tbase + sk).scale(d))
        new_tags.append("linear")
    for k, (g, t) in enumerate(zip(gens, tags)):
      if k in linear_idx:
        continue
      new_gens.append(reference_map_vars(g, nn, images))
      new_tags.append(t)
    names, degrees, gens, tags = new_names, new_degrees, new_gens, new_tags

  n = len(names)
  first = [_reference_first_bare_variable(g) for g in gens]
  eliminated = set()
  while True:
    hits = [(v, k) for k, v in enumerate(first) if v is not None]
    if not hits:
      break
    w, gk = min(hits)
    rel = gens.pop(gk)
    del tags[gk], first[gk]
    unit = tuple(int(i == w) for i in range(n))
    c = rel.terms[unit]
    image = Poly._trusted(n, {e: -c * v for e, v in rel.terms.items()
                              if e != unit})
    powers = ReferencePowers(image)
    for k, g in enumerate(gens):
      if g.occurs(w):
        gens[k] = _reference_substitute(g, w, powers)
        first[k] = _reference_first_bare_variable(gens[k])
    for name, p in subs.items():
      if p.occurs(w):
        subs[name] = _reference_substitute(p, w, powers)
    subs[names[w]] = image
    eliminated.add(w)
  if eliminated:
    keep = [i for i in range(n) if i not in eliminated]

    def drop(p):
      return Poly._trusted(len(keep), {tuple(e[i] for i in keep): c
                                       for e, c in p.terms.items()})

    names = [names[i] for i in keep]
    degrees = [degrees[i] for i in keep]
    gens = [drop(g) for g in gens]
    subs = {name: drop(p) for name, p in subs.items()}

  out_gens, out_tags, seen = [], [], set()
  for g, t in zip(gens, tags):
    if g.is_zero() or g in seen:
      continue
    seen.add(g)
    out_gens.append(g)
    out_tags.append(t)
  index = {name: i for i, name in enumerate(names)}
  return Elimination(
      RingPresentation(names, degrees, out_gens, out_tags, pres.domain), subs,
      [subs[name] if name in subs else index[name] for name in pres.names])


def _reference_first_bare_variable(g):
  """The smallest variable w with g = +/-(w - P) and w absent from P."""
  best = None
  for e, c in g.terms.items():
    if c in (1, -1) and sum(e) == 1:
      w = e.index(1)
      if (best is None or w < best) and not any(
          f[w] for f in g.terms if f != e):
        best = w
  return best


def mul_monomial(poly, exp, c=1):
  """poly times the monomial c * x^exp."""
  return Poly._trusted(poly.nvars, {tuple(map(add, e, exp)): c * v
                                    for e, v in poly.terms.items()})


def brute_force_nonfaces(fan, cone=()):
  """The minimal nonfaces of the star of a cone as ray tuples, by size and
  then lexicographically, from the max cones alone: every ray set disjoint
  from the cone that lies in no max cone with it, kept if no other such set
  is a subset of it."""
  return _brute_force_nonfaces(fan.n, fan.max_cones, tuple(cone))


# cached by value: test_inertial._settled asks once per sector comparison
@lru_cache(maxsize=None)
def _brute_force_nonfaces(n, max_cones, cone):
  rest = [i for i in range(n) if i not in cone]
  nonfaces = [set(s) for size in range(1, len(rest) + 1)
              for s in combinations(rest, size)
              if not any(set(s) | set(cone) <= set(c) for c in max_cones)]
  minimal = [s for s in nonfaces if not any(t < s for t in nonfaces)]
  return sorted((tuple(sorted(s)) for s in minimal),
                key=lambda s: (len(s), s))


def _reference_nonfaces(fan, base=()):
  """The minimal nonfaces of the star of base as products of tilde x
  classes, each multiplied out from tilde_poly."""
  cd = character_data(fan)
  out = []
  for s in brute_force_nonfaces(fan, base):
    p = Poly.constant(fan.n, 1)
    for i in s:
      p = p * cd.tilde_poly(i)
    out.append(p)
  return out


def _reference_embed(poly, total):
  return reference_map_vars(poly, total, range(poly.nvars))


def _reference_w_exponent(n, k, indices):
  exp = [0] * (n + k)
  for i in indices:
    exp[n + i - 1] += 1
  return tuple(exp)


def _reference_w_monomial(n, k, indices):
  return Poly._trusted(n + k, {_reference_w_exponent(n, k, indices): 1})


def reference_presentation(fan, kind, labels=None, domain=None):
  """inertial_presentation with every relation built as Poly objects: each
  star_product coefficient embedded into the x+w ring, shifted by its
  target's w and subtracted from the pair monomial, and the sector
  relations rebuilt for every sector.  The sector pairs are walked here,
  split by has_common_cone."""
  fan.require_valid()
  if domain is None:
    domain = kind.default_domain
  if kind.is_asymptotic and domain != "q":
    raise ValueError("asymptotic products require rational coefficients")
  els = fan.box()
  n, k = fan.n, len(els) - 1
  total = n + k
  names = ["x%d" % (i + 1) for i in range(n)] + sector_labels(fan, labels)
  degrees = [Fraction(1)] * n + [v.age for v in els[1:]]
  gens, tags = [], []
  for g in linear_ideal(fan):
    gens.append(_reference_embed(g, total))
    tags.append("linear")
  for g in _reference_nonfaces(fan):
    gens.append(_reference_embed(g, total))
    tags.append("stanley_reisner")
  for j, v in enumerate(els[1:]):
    wexp = _reference_w_exponent(n, k, (j + 1,))
    for g in _reference_nonfaces(fan, v.sigma_min):
      gens.append(mul_monomial(_reference_embed(g, total), wexp))
      tags.append("sector")
  pairs = [(i, j, fan.has_common_cone(els[i].sigma_min + els[j].sigma_min))
           for i in range(1, k + 1) for j in range(i, k + 1)]
  for i, j, common in pairs:
    if not common:
      gens.append(_reference_w_monomial(n, k, (i, j)))
      tags.append("cone")
  for i, j, common in pairs:
    if not common:
      continue
    target, coeff = star_product(fan, kind, els[i], els[j])
    gen = _reference_w_monomial(n, k, (i, j))
    if not coeff.is_zero():
      tail = _reference_embed(coeff, n + k)
      if not target.is_identity:
        tail = mul_monomial(
            tail, _reference_w_exponent(n, k, (fan.box_index(target),)))
      gen = gen - tail
    gens.append(gen)
    tags.append("box")
  return RingPresentation(names, degrees, gens, tags, domain)
