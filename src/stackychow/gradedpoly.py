"""Graded polynomial presentations over Z and Q.

All ideal questions are answered degree by degree: the piece of a quotient
ring in one degree is finitely generated abelian group data obtained from the
standard monomials of that degree and the generator multiples landing there.
Row echelon bases and Smith forms take the place of Groebner bases; variable
degrees are positive rationals and every coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import floor, gcd, lcm
from operator import add, mul

from stackychow.lattice import AbGroup, QReducer, ZReducer


def _clean_coeff(c):
  if type(c) is int:
    return c
  if isinstance(c, Fraction):
    return int(c) if c.denominator == 1 else c
  return int(c)


def _mul_terms(a, b):
  """Product of two term dicts (exponent tuple -> coefficient)."""
  out = {}
  for e1, c1 in a.items():
    for e2, c2 in b.items():
      e = tuple(map(add, e1, e2))
      out[e] = out.get(e, 0) + c1 * c2
  return {e: c for e, c in out.items() if c}


class Poly:
  """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

  __slots__ = ("nvars", "terms", "_hash")

  def __init__(self, nvars, terms=None):
    self.nvars = int(nvars)
    clean = {}
    if terms:
      for exp, c in terms.items():
        exp = tuple(int(e) for e in exp)
        if len(exp) != self.nvars:
          raise ValueError("exponent length mismatch")
        c = _clean_coeff(c)
        if c:
          clean[exp] = c
    self.terms = clean
    self._hash = None

  @classmethod
  def _trusted(cls, nvars, terms):
    """Build from exponent tuples of length nvars without re-checking them;
    zero coefficients are dropped and integral Fractions become ints."""
    p = cls.__new__(cls)
    p.nvars = nvars
    p.terms = {e: c for e, c in zip(terms, map(_clean_coeff, terms.values()))
               if c}
    p._hash = None
    return p

  # -- constructors ----------------------------------------------------------

  @staticmethod
  def zero(nvars):
    return Poly(nvars)

  @staticmethod
  def constant(nvars, c):
    return Poly(nvars, {(0,) * nvars: c})

  @staticmethod
  def variable(nvars, i):
    exp = [0] * nvars
    exp[i] = 1
    return Poly(nvars, {tuple(exp): 1})

  @staticmethod
  def linear(coeffs):
    n = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
      if c:
        exp = [0] * n
        exp[i] = 1
        terms[tuple(exp)] = c
    return Poly(n, terms)

  # -- arithmetic ------------------------------------------------------------

  def __add__(self, other):
    self._chk(other)
    terms = dict(self.terms)
    for exp, c in other.terms.items():
      terms[exp] = terms.get(exp, 0) + c
    return Poly._trusted(self.nvars, terms)

  def __sub__(self, other):
    self._chk(other)
    terms = dict(self.terms)
    for exp, c in other.terms.items():
      terms[exp] = terms.get(exp, 0) - c
    return Poly._trusted(self.nvars, terms)

  def __neg__(self):
    return Poly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

  def __mul__(self, other):
    if isinstance(other, (int, Fraction)):
      return self.scale(other)
    self._chk(other)
    return Poly._trusted(self.nvars, _mul_terms(self.terms, other.terms))

  __rmul__ = __mul__

  def scale(self, c):
    return Poly._trusted(self.nvars,
                         {e: c * v for e, v in self.terms.items()})

  def pow(self, k):
    """self^k by the multinomial theorem, handing the k factors out to one
    term at a time; a state (factors left, monomial so far) keeps its
    coefficient, and states that meet are merged.  For a monomial or a
    linear form that is about one step per term of the result per term of
    self, where repeated multiplication takes about k."""
    if k < 0:
      raise ValueError("negative power")
    if not self.terms:
      return Poly.constant(self.nvars, 1) if k == 0 else self
    *rest, (last, c_last) = self.terms.items()
    states = {(k, (0,) * self.nvars): 1}
    for e, c in rest:
      nxt = {}
      for (left, exp), v in states.items():
        binom = power = 1  # C(left, a) and c^a
        for a in range(left + 1):
          key = (left - a, exp)
          nxt[key] = nxt.get(key, 0) + v * binom * power
          exp = tuple(map(add, exp, e))
          binom = binom * (left - a) // (a + 1)
          power *= c
      states = nxt
    out = {}
    for (left, exp), v in states.items():
      key = tuple(x + left * y for x, y in zip(exp, last))
      out[key] = out.get(key, 0) + v * c_last ** left
    return Poly._trusted(self.nvars, out)

  def mul_monomial(self, exp, c=1):
    return Poly._trusted(self.nvars, {tuple(map(add, e, exp)): c * v
                                      for e, v in self.terms.items()})

  def _chk(self, other):
    if self.nvars != other.nvars:
      raise ValueError("polynomials in different rings")

  # -- structure -------------------------------------------------------------

  def is_zero(self):
    return not self.terms

  def vars_occurring(self):
    out = set()
    for e in self.terms:
      for i, k in enumerate(e):
        if k:
          out.add(i)
    return out

  def occurs(self, i):
    return any(e[i] for e in self.terms)

  def is_linear_form(self):
    """Every term is a single variable to the first power (no constant)."""
    return bool(self.terms) and all(sum(e) == 1 for e in self.terms)

  def coeff_of_variable(self, i):
    exp = [0] * self.nvars
    exp[i] = 1
    return self.terms.get(tuple(exp), 0)

  def has_integer_coefficients(self):
    return all(not isinstance(c, Fraction) for c in self.terms.values())

  def map_vars(self, new_nvars, images, memo=None):
    """Substitute images[i] for variable i: an int moves the exponent to
    that variable of the new ring, a Poly in the new ring is expanded.
    memo, which callers mapping through one image list may share, maps a
    term's ((i, k), ...) on the Poly images to the product of their powers."""
    if len(images) != self.nvars:
      raise ValueError("one image per variable required")
    if memo is None:
      memo = {}
    out = {}
    for e, c in self.terms.items():
      ne = [0] * new_nvars
      key = []
      for i, k in enumerate(e):
        if k:
          img = images[i]
          if type(img) is int:
            ne[img] += k
          else:
            key.append((i, k))
      ne = tuple(ne)
      if not key:
        out[ne] = out.get(ne, 0) + c
        continue
      key = tuple(key)
      term = memo.get(key)
      if term is None:
        for i, k in key:
          if images[i].nvars != new_nvars:
            raise ValueError("polynomials in different rings")
          power = images[i].pow(k).terms
          term = power if term is None else _mul_terms(term, power)
        memo[key] = term
      for te, v in term.items():
        te = tuple(map(add, te, ne))
        out[te] = out.get(te, 0) + c * v
    return Poly._trusted(new_nvars, out)

  def substitute(self, i, image, memo=None):
    """Replace variable i by image, staying in the same ring; memo (which
    callers may share) maps k to image^k's terms."""
    if memo is None:
      memo = {}
    out = {}
    for e, c in self.terms.items():
      k = e[i]
      if not k:
        out[e] = out.get(e, 0) + c
        continue
      power = memo.get(k)
      if power is None:
        power = memo[k] = image.pow(k).terms
      base = e[:i] + (0,) + e[i + 1:]
      for pe, pc in power.items():
        ne = tuple(map(add, base, pe))
        out[ne] = out.get(ne, 0) + c * pc
    return Poly._trusted(self.nvars, out)

  def __eq__(self, other):
    return (isinstance(other, Poly) and self.nvars == other.nvars
            and self.terms == other.terms)

  def __hash__(self):
    if self._hash is None:
      self._hash = hash((self.nvars, frozenset(self.terms.items())))
    return self._hash

  def sorted_terms(self):
    """Terms ordered leading-first: lexicographically descending exponents."""
    return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

  def __repr__(self):
    return "Poly(%d, %r)" % (self.nvars, dict(self.sorted_terms()))


def monomials_of_degree(dd, t):
  """All exponent tuples of integer degree t under the integer variable
  degrees dd, in ascending lexicographic order.

  The reducers enumerate standard monomials instead, so nothing here calls
  it.  It stays as the tests' reference for the full monomial basis, and
  the benchmark's tracer patches it by this module's name."""
  if any(x <= 0 for x in dd):
    raise ValueError("nonpositive variable degree")
  if t < 0:
    return []
  n = len(dd)
  # a nonzero remainder left for variables i, i+1, ... must be a multiple
  # of g[i] and at least low[i]: their gcd and their least degree
  g, low = [0] * (n + 1), [t + 1] * (n + 1)
  for i in range(n - 1, -1, -1):
    g[i] = gcd(dd[i], g[i + 1])
    low[i] = min(dd[i], low[i + 1])
  zeros = (0,) * n
  out = []

  def rec(i, remaining, acc):
    if not remaining:
      out.append(acc + zeros[i:])
    elif i < n and remaining % g[i] == 0 and remaining >= low[i]:
      if i == n - 1:
        out.append(acc + (remaining // dd[i],))
        return
      for e in range(remaining // dd[i] + 1):
        rec(i + 1, remaining - e * dd[i], acc + (e,))

  rec(0, t, ())
  return out


def occurring_degrees(degrees, maxdeg):
  """Degrees of monomials up to maxdeg, sorted ascending (0 included)."""
  degrees = {Fraction(d) for d in degrees}
  if any(d <= 0 for d in degrees):
    raise ValueError("nonpositive variable degree")
  scale = lcm(*(d.denominator for d in degrees))
  steps = [int(d * scale) for d in degrees]
  top = floor(Fraction(maxdeg) * scale)
  seen = {0}
  frontier = [0]
  while frontier:
    t = frontier.pop()
    for step in steps:
      nt = t + step
      if nt <= top and nt not in seen:
        seen.add(nt)
        frontier.append(nt)
  return [Fraction(t, scale) for t in sorted(seen)]


@dataclass(frozen=True)
class GradedPieceReport:
  degree: Fraction
  free_rank: int
  torsion: tuple
  domain: str = "z"

  def describe(self):
    ring = "Z" if self.domain == "z" else "Q"
    parts = [ring] * self.free_rank + ["Z/%d" % d for d in self.torsion]
    return " + ".join(parts) if parts else "0"


class RingPresentation:
  """A graded polynomial ring with an ideal, over Z or Q.

  Generator tags record where each ideal generator came from.  Homogeneity is
  tracked per generator, not enforced: graded queries refuse to run when some
  generator mixes degrees.
  Graded queries split the generators once into M, the monomials (over Z
  those of coefficient +/-1, over Q any single term), and J, the rest.
  """

  def __init__(self, names, degrees, generators, tags=None, domain="z"):
    names = tuple(names)
    if len(set(names)) != len(names):
      raise ValueError("duplicate variable name")
    degrees = tuple(Fraction(d) for d in degrees)
    if len(degrees) != len(names):
      raise ValueError("one degree per variable required")
    # degree 0 is allowed here (pure-torsion sectors have age 0); graded
    # queries on such presentations raise "nonpositive variable degree"
    if domain not in ("z", "q"):
      raise ValueError("coefficient domain must be z or q")
    generators = tuple(generators)
    for g in generators:
      if g.nvars != len(names):
        raise ValueError("generator in wrong ring")
      if domain == "z" and not g.has_integer_coefficients():
        raise ValueError("non-integral generator over Z")
    if tags is None:
      tags = ("box",) * len(generators)
    tags = tuple(tags)
    if len(tags) != len(generators):
      raise ValueError("one tag per generator required")
    self.names = names
    self.degrees = degrees
    self.generators = generators
    self.tags = tags
    self.domain = domain
    # one integer grading: a monomial of exponent e has degree
    # (e . ideg) / scale, scale the lcm of the degree denominators
    self.scale = lcm(*(d.denominator for d in degrees))
    self.ideg = tuple(int(d * self.scale) for d in degrees)
    self._reducers = {}  # Fraction degree -> reducer
    self._std = None     # integer degree -> standard monomials, see _standard
    self._gen_degrees = None
    self._gen_idegs = None
    self._graded = None

  def generator_degrees(self):
    """Per-generator homogeneous degree, None where a generator mixes degrees."""
    if self._gen_degrees is None:
      ideg = self.ideg
      idegs = []
      for g in self.generators:
        degs = {sum(map(mul, e, ideg)) for e in g.terms} or {0}
        idegs.append(degs.pop() if len(degs) == 1 else None)
      self._gen_idegs = tuple(idegs)
      self._gen_degrees = tuple(None if t is None else Fraction(t, self.scale)
                                for t in idegs)
    return self._gen_degrees

  @property
  def is_graded(self):
    if self._graded is None:
      self._graded = all(d is not None for d in self.generator_degrees())
    return self._graded

  def _require_graded(self):
    if not self.is_graded:
      raise ValueError("presentation is not graded")

  def _standard(self, t):
    """The standard monomials of degree t in the integer grading, those no
    element of M divides, as a set (none off the grid).  Each reachable
    degree is built once, in ascending order, from a queue kept between
    calls: s + e_i, s standard and i its first variable, is standard unless
    it is in M or some s + e_i - e_j is not.  M (_mono) and J (_rel) are
    split off on the first call."""
    if self._std is None:
      if any(x <= 0 for x in self.ideg):
        raise ValueError("nonpositive variable degree")
      self._std, self._queue, self._mono, self._rel = {}, [0], set(), []
      for g, tg in zip(self.generators, self._gen_idegs):
        if len(g.terms) == 1 and (self.domain == "q"
                                  or abs(*g.terms.values()) == 1):
          self._mono.update(g.terms)
        elif g.terms:
          self._rel.append((tuple(g.terms.items()), tg))
    if t.denominator != 1 or t < 0:
      return ()
    t = t.numerator
    std, queue, ideg, mono = self._std, self._queue, self.ideg, self._mono
    n = len(ideg)
    while queue and queue[0] <= t:
      u = heappop(queue)
      if u in std:
        continue
      out = std[u] = set() if u or (0,) * n in mono else {(0,) * n}
      for d in set(ideg):
        heappush(queue, u + d)
      for i, d in enumerate(ideg):
        for s in std.get(u - d, ()):
          c = s[:i] + (s[i] + 1,) + s[i + 1:]
          if not any(s[:i]) and c not in mono and all(
              not c[j] or c[:j] + (c[j] - 1,) + c[j + 1:] in std[u - ideg[j]]
              for j in range(i + 1, n)):
            out.add(c)
    return std.get(t, ())

  def reducer(self, deg):
    """The echelon reducer of degree deg: its columns are the standard
    monomials, its rows g·m for g in J and m standard, nonstandard terms
    dropped, since (R/I)_t = (R/M)_t / (I/M)_t and g·m lies in M when m is
    not standard."""
    deg = Fraction(deg)
    red = self._reducers.get(deg)
    if red is None:
      self._require_graded()
      t = deg * self.scale
      std = self._standard(t)
      t, rows = int(t), []  # std is empty off the grid
      for terms, tg in self._rel if std else ():
        for m in self._std.get(t - tg, ()):
          row = {f: c for e, c in terms if (f := tuple(map(add, e, m))) in std}
          if row:
            rows.append(row)
      cls = ZReducer if self.domain == "z" else QReducer
      red = self._reducers[deg] = cls(rows, len(std))
    return red

  def graded_piece(self, deg):
    deg = Fraction(deg)
    red = self.reducer(deg)
    if self.domain == "z":
      free_rank, torsion = red.invariants()
      return GradedPieceReport(deg, free_rank, torsion, self.domain)
    return GradedPieceReport(deg, red.width - red.rank, (), self.domain)

  def reduce(self, poly):
    """Canonical normal form of a polynomial modulo the (graded) ideal."""
    if poly.nvars != len(self.names):
      raise ValueError("polynomial in wrong ring")
    parts = {}
    ideg = self.ideg
    for e, c in poly.terms.items():
      parts.setdefault(sum(map(mul, e, ideg)), {})[e] = c
    out = {}
    for t, part in sorted(parts.items()):
      red, std = self.reducer(Fraction(t, self.scale)), self._std[t]
      out.update(red.reduce({e: c for e, c in part.items() if e in std}))
    return Poly._trusted(poly.nvars, out)

  def contains(self, poly):
    return self.reduce(poly).is_zero()

  def __repr__(self):
    return "RingPresentation(vars=%r, %d generators, domain=%s)" % (
        list(self.names), len(self.generators), self.domain)


@dataclass
class Elimination:
  presentation: RingPresentation
  substitutions: dict  # eliminated variable name -> Poly in the new variables
  images: list  # per original variable: its substitution, or its new index


def _fresh_names(count, taken):
  """t, or t1..t<count>, under the first prefix t, t_, t__, ... that makes
  every name new."""
  prefix = "t"
  while True:
    names = [prefix] if count == 1 else [
        "%s%d" % (prefix, k + 1) for k in range(count)]
    if taken.isdisjoint(names):
      return names
    prefix += "_"


def eliminate(pres):
  """Shrink a presentation by a linear change of variables and substitutions.

  Step one rewrites the variables spanned by the linear-form generators
  (over Q each cleared of denominators first) in a Smith basis of the
  quotient lattice; unit coordinates disappear, surviving coordinates
  become fresh variables t (or t1, t2, ...; t_, t_1, ... when a name of the
  ring is taken), torsion coordinates keep a relation d*t_j.  Step two
  repeatedly substitutes P for w whenever some generator reads +/-(w - P)
  with w absent from P, scanning variables in ascending order and
  restarting after every hit.
  """
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
        row[pos[i]] = gens[k].coeff_of_variable(i)
      # over Q a row may hold fractions; clearing them keeps the ideal
      den = lcm(*(c.denominator for c in row))
      rel_rows.append(row if den == 1 else [int(c * den) for c in row])
    grp = AbGroup(len(involved), rel_rows)
    surviving = [j for j, d in enumerate(grp.diagonal) if d != 1]
    tnames = _fresh_names(len(surviving), set(names))
    # new variable order: walk the old order, splice the t-block where the
    # first involved variable sat
    new_names, new_degrees = [], []
    images = [None] * len(names)  # kept variables move to an index
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
    memo = {}
    for k, (g, t) in enumerate(zip(gens, tags)):
      if k in linear_idx:
        continue
      new_gens.append(g.map_vars(nn, images, memo))
      new_tags.append(t)
    names, degrees, gens, tags = new_names, new_degrees, new_gens, new_tags

  # step two: bare substitutions w := P, the least (w, position) first.  The
  # ring keeps all its variables until every substitution is made, and the
  # eliminated variables go at the end.  A hit rewrites only the generators
  # and substitutions that hold w; holders[v] is a superset of v's positions.
  n = len(names)
  first = [_first_bare_variable(g) for g in gens]
  hits = [(v, k) for k, v in enumerate(first) if v is not None]
  eliminated = set()
  if hits:
    heapify(hits)
    holders = [set() for _ in range(n)]
    for k, g in enumerate(gens):
      for i in g.vars_occurring():
        holders[i].add(k)
  while hits:
    w, gk = heappop(hits)
    if first[gk] != w:  # the generator was rewritten or used since
      continue
    rel = gens[gk]
    gens[gk] = first[gk] = None
    unit = tuple(int(i == w) for i in range(n))
    c = rel.terms[unit]
    image = Poly._trusted(n, {e: -c * v for e, v in rel.terms.items()
                              if e != unit})
    spread = image.vars_occurring()
    memo = {}
    for k in holders[w]:
      g = gens[k]
      if g is not None and g.occurs(w):
        g = gens[k] = g.substitute(w, image, memo)
        first[k] = _first_bare_variable(g)
        if first[k] is not None:
          heappush(hits, (first[k], k))
        for i in spread:
          holders[i].add(k)
    for name, p in subs.items():
      if p.occurs(w):
        subs[name] = p.substitute(w, image, memo)
    subs[names[w]] = image
    eliminated.add(w)
  if eliminated:
    tags = [t for g, t in zip(gens, tags) if g is not None]
    gens = [g for g in gens if g is not None]
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


def _first_bare_variable(g):
  """The smallest variable w with g = +/-(w - P) and w absent from P."""
  best = None
  for e, c in g.terms.items():
    if c in (1, -1) and sum(e) == 1:
      w = e.index(1)
      if (best is None or w < best) and not any(
          f[w] for f in g.terms if f != e):
        best = w
  return best


MAX_TABLE_ROWS = 10 ** 6


def hilbert_table(pres, maxdeg):
  """The graded pieces in every occurring degree up to maxdeg.

  The pieces are computed on eliminate(low).presentation, low the
  presentation of the generators of degree at most top, the largest degree
  the table reports.  The variables have positive degrees, so a generator
  of degree e adds rows only in degrees e and up: low has the same ideal as
  pres in every degree up to top, hence the same pieces, and eliminating it
  keeps them over Z and over Q while narrowing the reducers' columns.  The
  original presentation keeps the row limit, the degree grid (removing a
  variable can remove its degree from the grid, and no row may disappear)
  and the refusals, which run on every generator before any elimination.
  The pieces are built on the standard monomials of the eliminated ring,
  so its monomial relations add no rows or columns.

  pres may itself leave out generators above maxdeg: the inertial
  presentation of an age-graded kind (orbifold, plus_infinity,
  minus_infinity) built with the same maxdeg has no cone or box relation
  above it, and its table is the same.  The twisted kinds build every
  pair relation, so their mixed generators are still refused here.

  Once the piece of every occurring degree in a window [z, z + m) is zero,
  m the largest variable degree of the eliminated ring, every higher piece
  is zero too: dividing a monomial above the window by one variable at a
  time lands inside it, and every degree that ring reaches is on the
  original grid.  Those pieces are reported without building their
  reducers.
  """
  maxdeg = Fraction(maxdeg)
  if floor(maxdeg * pres.scale) + 1 > MAX_TABLE_ROWS:
    raise ValueError("the degree bound could give more than the limit of "
                     "%d table rows" % MAX_TABLE_ROWS)
  degrees = occurring_degrees(pres.degrees, maxdeg)
  pres._require_graded()
  top = degrees[-1]
  keep = [k for k, e in enumerate(pres.generator_degrees()) if e <= top]
  low = RingPresentation(pres.names, pres.degrees,
                         [pres.generators[k] for k in keep],
                         [pres.tags[k] for k in keep], pres.domain)
  ring = eliminate(low).presentation
  window = max(ring.degrees, default=0)
  table, zero_from = [], None
  for d in degrees:
    if zero_from is not None and d >= zero_from + window:
      table.append(GradedPieceReport(d, 0, (), pres.domain))
      continue
    piece = ring.graded_piece(d)
    if piece.free_rank or piece.torsion:
      zero_from = None
    elif zero_from is None:
      zero_from = d
    table.append(piece)
  return table


# the interpreter's default limit on the decimal digits of an int, which
# cli._as_int relies on too
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_LIMIT_BITS = (10 ** MAX_DECIMAL_EXPONENT).bit_length()


def format_coeff(c):
  """c in decimal, as a/b if it is not an integer.  Every coefficient
  written as text passes here, and one with a numerator or denominator of
  more than MAX_DECIMAL_EXPONENT digits is refused."""
  if isinstance(c, Fraction):
    if c.denominator != 1:
      return "%s/%s" % (format_coeff(c.numerator),
                        format_coeff(c.denominator))
    c = c.numerator
  if (c.bit_length() >= _DECIMAL_LIMIT_BITS
      and abs(c) >= 10 ** MAX_DECIMAL_EXPONENT):
    raise ValueError("a coefficient has more than %d decimal digits"
                     % MAX_DECIMAL_EXPONENT)
  return "%d" % c


def format_poly(poly, names):
  if poly.is_zero():
    return "0"
  pieces = []
  for exp, c in poly.sorted_terms():
    mono = "*".join(
        names[i] if e == 1 else "%s^%d" % (names[i], e)
        for i, e in enumerate(exp) if e)
    neg = c < 0
    ac = -c if neg else c
    body = format_coeff(ac)
    if mono:
      body = mono if ac == 1 else body + "*" + mono
    if not pieces:
      pieces.append("-" + body if neg else body)
    else:
      pieces.append(("- " if neg else "+ ") + body)
  return " ".join(pieces)
