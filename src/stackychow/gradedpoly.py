"""Graded polynomial presentations over Z and Q.

All ideal questions are answered degree by degree: the piece of a quotient
ring in one degree is finitely generated abelian group data obtained from the
monomials of that degree and the generator multiples landing there.  Row
echelon bases and Smith forms take the place of Groebner bases; variable
degrees are positive rationals and every coefficient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from stackychow.lattice import AbGroup, QReducer, ZReducer


def _clean_coeff(c):
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


class Powers:
  """poly^0, poly^1, ... as term dicts, each computed once on first use."""

  __slots__ = ("_terms", "_cache")

  def __init__(self, poly):
    self._terms = poly.terms
    self._cache = [{(0,) * poly.nvars: 1}]

  def __getitem__(self, k):
    cache = self._cache
    while len(cache) <= k:
      cache.append(_mul_terms(cache[-1], self._terms))
    return cache[k]


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

  def components(self, degrees):
    """Split into homogeneous parts, keyed by degree."""
    parts = {}
    for e, c in self.terms.items():
      d = monomial_degree(e, degrees)
      parts.setdefault(d, {})[e] = c
    return {d: Poly._trusted(self.nvars, t) for d, t in sorted(parts.items())}

  def homogeneous_degree(self, degrees):
    """The common degree of all terms, None if mixed, 0 for the zero poly."""
    degs = {monomial_degree(e, degrees) for e in self.terms}
    if not degs:
      return Fraction(0)
    if len(degs) > 1:
      return None
    return degs.pop()

  def vector(self, basis_index):
    v = [0] * len(basis_index)
    for e, c in self.terms.items():
      v[basis_index[e]] = c
    return tuple(v)

  def map_vars(self, new_nvars, images):
    """Substitute images[i] (a Poly in the new ring) for variable i."""
    if len(images) != self.nvars:
      raise ValueError("one image per variable required")
    # fast path: pure reindexing
    idx = []
    for img in images:
      if len(img.terms) == 1:
        (e, c), = img.terms.items()
        if c == 1 and sum(e) == 1:
          idx.append(e.index(1))
          continue
      idx = None
      break
    if idx is not None:
      terms = {}
      for e, c in self.terms.items():
        ne = [0] * new_nvars
        for i, k in enumerate(e):
          ne[idx[i]] += k
        ne = tuple(ne)
        terms[ne] = terms.get(ne, 0) + c
      return Poly._trusted(new_nvars, terms)
    powers = [None] * self.nvars
    one = (0,) * new_nvars
    out = {}
    for e, c in self.terms.items():
      term = {one: c}
      for i, k in enumerate(e):
        if k:
          if powers[i] is None:
            if images[i].nvars != new_nvars:
              raise ValueError("polynomials in different rings")
            powers[i] = Powers(images[i])
          term = _mul_terms(term, powers[i][k])
      for ne, v in term.items():
        out[ne] = out.get(ne, 0) + v
    return Poly._trusted(new_nvars, out)

  def substitute(self, i, powers):
    """Replace variable i by the polynomial whose Powers table is given,
    staying in the same ring."""
    out = {}
    for e, c in self.terms.items():
      k = e[i]
      if not k:
        out[e] = out.get(e, 0) + c
        continue
      base = e[:i] + (0,) + e[i + 1:]
      for pe, pc in powers[k].items():
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


def monomial_degree(exp, degrees):
  return sum((Fraction(d) * e for e, d in zip(exp, degrees)), Fraction(0))


def monomials_of_degree(degrees, target):
  """All exponent tuples of the given degree, ascending lexicographic order."""
  degrees = [Fraction(d) for d in degrees]
  if any(d <= 0 for d in degrees):
    raise ValueError("nonpositive variable degree")
  target = Fraction(target)
  if target < 0:
    return []
  scale = 1
  for d in degrees + [target]:
    scale = scale * d.denominator // _gcd(scale, d.denominator)
  dd = [int(d * scale) for d in degrees]
  t = int(target * scale)
  n = len(dd)
  out = []

  def rec(i, remaining, acc):
    if i == n:
      if remaining == 0:
        out.append(tuple(acc))
      return
    if i == n - 1:
      q, r = divmod(remaining, dd[i])
      if r == 0:
        out.append(tuple(acc + [q]))
      return
    for e in range(remaining // dd[i] + 1):
      rec(i + 1, remaining - e * dd[i], acc + [e])

  rec(0, t, [])
  return out


def occurring_degrees(degrees, maxdeg):
  """Degrees of monomials up to maxdeg, sorted ascending (0 included)."""
  degrees = sorted({Fraction(d) for d in degrees})
  if any(d <= 0 for d in degrees):
    raise ValueError("nonpositive variable degree")
  maxdeg = Fraction(maxdeg)
  seen = {Fraction(0)}
  frontier = [Fraction(0)]
  while frontier:
    d = frontier.pop()
    for step in degrees:
      nd = d + step
      if nd <= maxdeg and nd not in seen:
        seen.add(nd)
        frontier.append(nd)
  return sorted(seen)


def _gcd(a, b):
  while b:
    a, b = b, a % b
  return a


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
    self._reducers = {}
    self._gen_degrees = None

  def generator_degrees(self):
    """Per-generator homogeneous degree, None where a generator mixes degrees."""
    if self._gen_degrees is None:
      self._gen_degrees = tuple(
          g.homogeneous_degree(self.degrees) for g in self.generators)
    return self._gen_degrees

  @property
  def is_graded(self):
    return all(d is not None for d in self.generator_degrees())

  def nonhomogeneous_tags(self):
    return tuple(t for t, d in zip(self.tags, self.generator_degrees())
                 if d is None)

  def _require_graded(self):
    if not self.is_graded:
      raise ValueError("presentation is not graded")

  def basis(self, deg):
    return monomials_of_degree(self.degrees, deg)

  def _degree_rows(self, deg, basis_index):
    rows = []
    for g, dg in zip(self.generators, self.generator_degrees()):
      if g.is_zero():
        continue
      rem = Fraction(deg) - dg
      if rem < 0:
        continue
      for m in monomials_of_degree(self.degrees, rem):
        rows.append(g.mul_monomial(m).vector(basis_index))
    return rows

  def reducer(self, deg):
    deg = Fraction(deg)
    if deg not in self._reducers:
      self._require_graded()
      basis = self.basis(deg)
      basis_index = {e: k for k, e in enumerate(basis)}
      rows = self._degree_rows(deg, basis_index)
      if self.domain == "z":
        red = ZReducer(rows, len(basis))
      else:
        red = QReducer(rows, len(basis))
      self._reducers[deg] = (basis, red)
    return self._reducers[deg]

  def graded_piece(self, deg):
    deg = Fraction(deg)
    basis, red = self.reducer(deg)
    if not basis:
      return GradedPieceReport(deg, 0, (), self.domain)
    if self.domain == "z":
      grp = AbGroup(len(basis), red.rows)
      return GradedPieceReport(deg, grp.free_rank, grp.invariant_factors,
                               self.domain)
    return GradedPieceReport(deg, len(basis) - red.rank, (), self.domain)

  def reduce(self, poly):
    """Canonical normal form of a polynomial modulo the (graded) ideal."""
    if poly.nvars != len(self.names):
      raise ValueError("polynomial in wrong ring")
    out = Poly.zero(poly.nvars)
    for deg, part in poly.components(self.degrees).items():
      basis, red = self.reducer(deg)
      basis_index = {e: k for k, e in enumerate(basis)}
      vec = red.reduce(part.vector(basis_index))
      out = out + Poly(poly.nvars, dict(zip(basis, vec)))
    return out

  def contains(self, poly):
    return self.reduce(poly).is_zero()

  def var(self, name):
    return Poly.variable(len(self.names), self.names.index(name))

  def __repr__(self):
    return "RingPresentation(vars=%r, %d generators, domain=%s)" % (
        list(self.names), len(self.generators), self.domain)


@dataclass(frozen=True)
class EqualityWitness:
  degree: Fraction
  poly: Poly
  where: str  # "first_only" or "second_only"


def ideal_equal_up_to(p1, p2, maxdeg):
  """Degreewise ideal comparison up to maxdeg.  Returns (bool, witness)."""
  if p1.names != p2.names or p1.degrees != p2.degrees:
    raise ValueError("mismatched variables")
  if p1.domain != p2.domain:
    raise ValueError("mismatched coefficient domains")
  n = len(p1.names)
  for deg in occurring_degrees(p1.degrees, maxdeg):
    basis, red1 = p1.reducer(deg)
    _, red2 = p2.reducer(deg)
    for rows, other, where in ((red1.rows, red2, "first_only"),
                               (red2.rows, red1, "second_only")):
      for row in rows:
        if not other.contains(row):
          witness = Poly(n, dict(zip(basis, row)))
          return False, EqualityWitness(deg, witness, where)
  return True, None


@dataclass
class Elimination:
  presentation: RingPresentation
  substitutions: dict  # eliminated variable name -> Poly in the new variables


def eliminate(pres):
  """Shrink a presentation by a linear change of variables and substitutions.

  Step one rewrites the variables spanned by the linear-form generators in a
  Smith basis of the quotient lattice; unit coordinates disappear, surviving
  coordinates become fresh variables t (or t1, t2, ...), torsion coordinates
  keep a relation d*t_j.  Step two repeatedly substitutes P for w whenever
  some generator reads +/-(w - P) with w absent from P, scanning variables in
  ascending order and restarting after every hit.
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
      rel_rows.append(row)
    grp = AbGroup(len(involved), rel_rows)
    surviving = [j for j, d in enumerate(grp.diagonal) if d != 1]
    tnames = ["t"] if len(surviving) == 1 else [
        "t%d" % (k + 1) for k in range(len(surviving))]
    # new variable order: walk the old order, splice the t-block where the
    # first involved variable sat
    new_names, new_degrees = [], []
    old_to_new = {}
    tbase = 0
    for i in range(len(names)):
      if i == involved[0]:
        tbase = len(new_names)
        for tn in tnames:
          new_names.append(tn)
          new_degrees.append(common_deg)
      if i in pos:
        continue
      old_to_new[i] = len(new_names)
      new_names.append(names[i])
      new_degrees.append(degrees[i])
    nn = len(new_names)
    images = []
    for i in range(len(names)):
      if i in pos:
        u = grp.u
        terms = {}
        for sk, j in enumerate(surviving):
          c = u[j, pos[i]]
          if c:
            exp = [0] * nn
            exp[tbase + sk] = 1
            terms[tuple(exp)] = c
        images.append(Poly(nn, terms))
      else:
        images.append(Poly.variable(nn, old_to_new[i]))
    new_gens, new_tags = [], []
    for sk, j in enumerate(surviving):
      d = grp.diagonal[j]
      if d > 1:
        new_gens.append(Poly.variable(nn, tbase + sk).scale(d))
        new_tags.append("linear")
    for k, (g, t) in enumerate(zip(gens, tags)):
      if k in linear_idx:
        continue
      new_gens.append(g.map_vars(nn, images))
      new_tags.append(t)
    for i in involved:
      subs[names[i]] = images[i]
    names, degrees, gens, tags = new_names, new_degrees, new_gens, new_tags

  # step two: bare substitutions w := P.  The ring keeps all its variables
  # until every substitution is made; a hit rewrites only the generators and
  # substitutions that hold w, and the eliminated variables go at the end.
  n = len(names)
  first = [_first_bare_variable(g) for g in gens]
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
    powers = Powers(image)
    for k, g in enumerate(gens):
      if g.occurs(w):
        gens[k] = g.substitute(w, powers)
        first[k] = _first_bare_variable(gens[k])
    for name, p in subs.items():
      if p.occurs(w):
        subs[name] = p.substitute(w, powers)
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
  return Elimination(
      RingPresentation(names, degrees, out_gens, out_tags, pres.domain), subs)


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


def hilbert_table(pres, maxdeg):
  return [pres.graded_piece(d)
          for d in occurring_degrees(pres.degrees, maxdeg)]


def format_coeff(c):
  if isinstance(c, Fraction) and c.denominator != 1:
    return "%d/%d" % (c.numerator, c.denominator)
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
