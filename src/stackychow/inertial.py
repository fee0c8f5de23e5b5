"""Inertial products on the sectors of a toric Deligne-Mumford stack.

Sectors are indexed by box elements and everything reduces to integer
arithmetic on their phase numerators: one exponent rule (star_exponents)
gives the star product of a sector pair for every kind, and the cone/box
relation ideals built from it assemble into a presentation of the inertial
Chow ring for each product kind.  StarCalculator and
associativity_witnesses check the products sector triple by sector triple.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from stackychow.charring import (
    character_data,
    linear_ideal,
    sector_ideal,
    sr_ideal,
)
from stackychow.gradedpoly import Poly, RingPresentation, eliminate
from stackychow.stackyfan import StackyFan


class Bundle:
  """Nonnegative integer combination sum(a[i] * L_i) of the ray line bundles."""

  __slots__ = ("a",)

  def __init__(self, a):
    out = []
    for c in a:
      if c != int(c):
        raise ValueError("bundle coefficients must be integers")
      if c < 0:
        raise ValueError("bundle coefficients must be nonnegative")
      out.append(int(c))
    self.a = tuple(out)

  @property
  def n(self):
    return len(self.a)

  def __eq__(self, other):
    return isinstance(other, Bundle) and self.a == other.a

  def __hash__(self):
    return hash(("Bundle", self.a))

  def __repr__(self):
    return "Bundle(%r)" % (self.a,)


_KIND_NAMES = ("orbifold", "virtual", "v_plus", "v_minus",
               "plus_infinity", "minus_infinity")


class ProductKind:
  """Which inertial product to use.  The v_plus/v_minus families carry their
  twisting bundle; the asymptotic kinds only exist over the rationals."""

  __slots__ = ("name", "bundle")

  def __init__(self, name, bundle=None):
    if name not in _KIND_NAMES:
      raise ValueError("unknown product kind %r" % (name,))
    if name in ("v_plus", "v_minus"):
      if bundle is None:
        raise ValueError("product kind %s requires a bundle" % name)
    elif bundle is not None:
      raise ValueError("product kind %s does not take a bundle" % name)
    self.name = name
    self.bundle = bundle

  @staticmethod
  def v_plus(bundle):
    return ProductKind("v_plus", bundle)

  @staticmethod
  def v_minus(bundle):
    return ProductKind("v_minus", bundle)

  @property
  def is_asymptotic(self):
    return self.name in ("plus_infinity", "minus_infinity")

  @property
  def age_graded(self):
    """Whether every relation is homogeneous when each w has its sector's
    age as degree: true for the kinds whose star coefficients carry no
    bundle exponent."""
    return self.name in ("orbifold", "plus_infinity", "minus_infinity")

  @property
  def default_domain(self):
    return "q" if self.is_asymptotic else "z"

  @property
  def plus_sided(self):
    """Whether the bundle exponents sit on the carries (else on the minus
    flags); see star_exponents."""
    return self.name in ("orbifold", "v_plus")

  def twist_exponents(self, n):
    """Per-ray bundle coefficients entering the twist, None for asymptotics."""
    if self.is_asymptotic:
      return None
    if self.name == "orbifold":
      return (0,) * n
    if self.name == "virtual":
      return (1,) * n
    if self.bundle.n != n:
      raise ValueError("bundle has %d coefficients but the fan has %d rays"
                       % (self.bundle.n, n))
    return self.bundle.a

  def __eq__(self, other):
    return (isinstance(other, ProductKind) and self.name == other.name
            and self.bundle == other.bundle)

  def __hash__(self):
    return hash((self.name, self.bundle))

  def __repr__(self):
    if self.bundle is not None:
      return "ProductKind(%r, %r)" % (self.name, self.bundle)
    return "ProductKind(%r)" % (self.name,)


ORBIFOLD = ProductKind("orbifold")
VIRTUAL = ProductKind("virtual")
PLUS_INFINITY = ProductKind("plus_infinity")
MINUS_INFINITY = ProductKind("minus_infinity")


# -- pair data -----------------------------------------------------------------

def star_exponents(fan: StackyFan, kind: ProductKind, v1, v2):
  """(target sector, exponent vector e) of the star product of two sectors:
  the coefficient is prod_i tilde_x_i^e_i, and a None vector means it is
  zero.  The target is None when the pair shares no cone; the asymptotic
  kinds keep the box-sum target on their vanishing pairs.

  With s = q1 + q2 on a ray, the carry is [s >= 1] (StackyFan.carries) and
  the minus flag [q1, q2 != 0 and s <= 1]; both are set on the boundary
  s = 1.  e is the carry plus a_i on the kind's flags: the carries for the
  plus-sided kinds, the minus flags for the others.  So B+ is the carry set
  and V+ the sum of a_i L_i over it, B- the minus flags off the boundary,
  and the twist class is e less the boundary.  The minus flag is [q1 != 0] +
  [q2 != 0] - [s not an integer] - floor(s), so both bracketings of a
  triple add the same flags; leaving out the boundary would make v-minus
  (1,1,1) fail on 92 triples of P(6,5,4).  +infinity vanishes where some
  ray carries, -infinity where some minus flag is set (a closed set, or
  the limit of the scaled products would not exist)."""
  a = fan.box_lookup(v1.v)
  b = fan.box_lookup(v2.v)
  exps = fan.carries(a, b)
  if exps is None:
    return None, None
  target = fan.box_add(a, b, exps)
  if kind.name == "plus_infinity":
    return target, None if any(exps) else tuple(exps)
  if kind.plus_sided:
    on = exps
  else:
    den = a.den
    on = [bool(x and y and x + y <= den) for x, y in zip(a.p, b.p)]
    if kind.name == "minus_infinity":
      return target, None if any(on) else tuple(exps)
  return target, tuple(e + c * k for e, c, k in
                       zip(exps, kind.twist_exponents(fan.n), on))


def star_product(fan: StackyFan, kind: ProductKind, v1, v2):
  """(target sector, coefficient polynomial in the x variables): the
  expansion of star_exponents, with a zero coefficient for a None vector."""
  target, exps = star_exponents(fan, kind, v1, v2)
  if exps is None:
    return target, Poly.zero(fan.n)
  return target, character_data(fan).tilde_monomial(exps)


# -- relation ideals -----------------------------------------------------------
#
# A relation's exponents in the x+w ring: an x-part of n entries, a w-part of k.

def _w_part(k, indices):
  """The w-part of the product of w_i over 1-based sector indices."""
  exp = [0] * k
  for i in indices:
    exp[i - 1] += 1
  return tuple(exp)


def _sector_pairs(fan, kind=None, maxdeg=None):
  """The nonidentity sector pairs i <= j in order, as (i, j, common):
  common says whether the two share a cone.  For an age-graded kind a pair
  whose age sum is above maxdeg, compared as phase numerators over the
  box's shared denominator, is left out; the twisted kinds, whose relations
  are not homogeneous in the ages, keep every pair."""
  els = fan.box()
  bounded = maxdeg is not None and kind is not None and kind.age_graded
  if bounded:
    top = floor(Fraction(maxdeg) * els[0].den)
    sums = [sum(v.p) for v in els]
  out = []
  for i in range(1, len(els)):
    for j in range(i, len(els)):
      if bounded and sums[i] + sums[j] > top:
        continue
      out.append((i, j, fan.has_common_cone(els[i].sigma_min
                                            + els[j].sigma_min)))
  return out


def cr_ideal(fan: StackyFan, _pairs=None):
  """Monomials w_i w_j over the sector pairs sharing no cone; _pairs is the
  walk inertial_presentation shares with br_ideal."""
  n, k = fan.n, len(fan.box()) - 1
  if _pairs is None:
    _pairs = _sector_pairs(fan)
  xs = (0,) * n
  return [Poly._trusted(n + k, {xs + _w_part(k, (i, j)): 1})
          for i, j, common in _pairs if not common]


def br_ideal(fan: StackyFan, kind: ProductKind, _pairs=None):
  """One relation per unordered double-box sector pair: the pair monomial
  minus the closed form of its star product (see star_product), each
  distinct exponent vector expanded once.  Pair order is deterministic;
  _pairs is the walk inertial_presentation shares with cr_ideal."""
  els = fan.box()
  n, k = fan.n, len(els) - 1
  if _pairs is None:
    _pairs = _sector_pairs(fan)
  xs = (0,) * n
  coeffs = {}
  out = []
  for i, j, common in _pairs:
    if not common:
      continue
    target, exps = star_exponents(fan, kind, els[i], els[j])
    terms = {xs + _w_part(k, (i, j)): 1}
    if exps is not None:
      coeff = coeffs.get(exps)
      if coeff is None:
        coeff = coeffs[exps] = character_data(fan).tilde_monomial(exps).terms
      w = _w_part(k, () if target.is_identity else (fan.box_index(target),))
      for e, c in coeff.items():
        terms[e + w] = -c
    out.append(Poly._trusted(n + k, terms))
  return out


def sector_labels(fan: StackyFan, labels=None):
  """Names for the nonidentity sector variables, w1..wk unless overridden."""
  k = len(fan.box()) - 1
  if labels is None:
    return ["w%d" % (j + 1) for j in range(k)]
  labels = [str(s) for s in labels]
  if len(labels) != k:
    raise ValueError("expected %d sector labels, got %d" % (k, len(labels)))
  return labels


def inertial_presentation(fan: StackyFan, kind: ProductKind, labels=None,
                          domain=None, maxdeg=None) -> RingPresentation:
  """Generators and relations for the inertial Chow ring of the given kind.

  Variables: one x per ray (degree 1) and one w per nonidentity sector with
  degree its age (0 for pure-torsion sectors, which blocks graded queries but
  not construction).  The ideal stacks the ray relations (linear), nonface
  relations (stanley_reisner), each sector annihilator times its w (sector),
  the no-common-cone monomials (cone) and the product relations (box).

  For an age-graded kind, maxdeg leaves out the cone and box relations of
  degree above it, which no graded piece up to maxdeg can see; the twisted
  kinds, whose relations are not homogeneous in the ages, keep them all."""
  fan.require_valid()
  if domain is None:
    domain = kind.default_domain
  if kind.is_asymptotic and domain != "q":
    raise ValueError("asymptotic products require rational coefficients")
  cd = character_data(fan)
  els = fan.box()
  n, k = fan.n, len(els) - 1
  total = n + k
  names = ["x%d" % (i + 1) for i in range(n)] + sector_labels(fan, labels)
  degrees = [Fraction(1)] * n + [v.age for v in els[1:]]

  def lift(ideal, w):
    """x-polynomials times the w monomial of w-part w, in the x+w ring."""
    return [Poly._trusted(total, {e + w: c for e, c in g.terms.items()})
            for g in ideal]

  ws = (0,) * k
  parts = [("linear", lift(linear_ideal(fan), ws)),
           ("stanley_reisner", lift(sr_ideal(fan, cd), ws))]
  cones = {}  # a sector's relations depend only on its minimal cone
  for j, v in enumerate(els[1:]):
    if v.sigma_min not in cones:
      cones[v.sigma_min] = sector_ideal(fan, v)
    parts.append(("sector", lift(cones[v.sigma_min], _w_part(k, (j + 1,)))))
  pairs = _sector_pairs(fan, kind, maxdeg)
  parts += [("cone", cr_ideal(fan, _pairs=pairs)),
            ("box", br_ideal(fan, kind, _pairs=pairs))]
  gens = [g for _, ideal in parts for g in ideal]
  tags = [tag for tag, ideal in parts for _ in ideal]
  return RingPresentation(names, degrees, gens, tags, domain)


# -- star products of module classes -------------------------------------------

class StarCalculator:
  """Star products in the sector-module picture, with cached tables.

  A class is a sector index with an x-coefficient; products land in a single
  sector, and normal forms reduce the coefficient modulo that sector's
  x-ideal (linear + annihilator, which holds the nonface relations).
  The star table keeps each coefficient's exponent vector (see
  star_exponents) packed into one int, `width` bits per ray: a field is
  wider than the sum of two entries, so two packed vectors add and compare
  as ints.  A vector is unpacked and expanded only for a reduction, so the
  character data (the change matrix f) is built by the first reduction, and
  a sweep that reduces nothing never builds it.  Sector rings are handled in
  eliminated variables to keep the graded pieces small."""

  def __init__(self, fan: StackyFan, kind: ProductKind, domain=None):
    fan.require_valid()
    self.fan = fan
    self.kind = kind
    self.domain = kind.default_domain if domain is None else domain
    self.els = fan.box()
    self.width, self.table = self._star_table()
    self._sector = {}
    self._verdicts = {}

  def _star_table(self):
    """(width, table): table[i][j] = (target sector index or None, packed
    exponent vector or None for a zero coefficient) for every pair of
    sector indices, from star_exponents of the pair once for i <= j."""
    fan, els = self.fan, self.els
    k = len(els)
    entries = []
    for i in range(k):
      for j in range(i, k):
        target, exps = star_exponents(fan, self.kind, els[i], els[j])
        entries.append((i, j, None if target is None else fan.box_index(target),
                        exps))
    top = max((max(exps, default=0) for *_, exps in entries
               if exps is not None), default=0)
    width = (2 * top).bit_length()
    table = [[None] * k for _ in range(k)]
    for i, j, target, exps in entries:
      packed = None
      if exps is not None:
        packed = 0
        for e in reversed(exps):
          packed = packed << width | e
      table[i][j] = table[j][i] = (target, packed)
    return width, table

  def exponents(self, packed):
    """The exponent vector of a packed entry or sum of two, None for None."""
    if packed is None:
      return None
    width = self.width
    mask = (1 << width) - 1
    return tuple(packed >> (width * r) & mask for r in range(self.fan.n))

  def coefficient(self, packed):
    """The coefficient Poly of a packed exponent vector, zero for None."""
    if packed is None:
      return Poly.zero(self.fan.n)
    return character_data(self.fan).tilde_monomial(self.exponents(packed))

  def _sector_elim(self, i):
    """Sector i's x-ring after eliminate.  The ring depends only on the
    sector's minimal cone, so it is built once per cone.  Its nonface rows
    cover the Stanley-Reisner rows: a nonface T holds a minimal nonface S
    of the star, disjoint from the cone, and tilde_x^T is a multiple of
    tilde_x^S."""
    cone = self.els[i].sigma_min
    if cone not in self._sector:
      fan = self.fan
      lin = linear_ideal(fan)
      sec = sector_ideal(fan, self.els[i])
      self._sector[cone] = eliminate(RingPresentation(
          ["x%d" % (t + 1) for t in range(fan.n)], [Fraction(1)] * fan.n,
          lin + sec, ("linear",) * len(lin) + ("sector",) * len(sec),
          self.domain))
    return self._sector[cone]

  def reduces_to_zero(self, i, coeff):
    """Does the x-coefficient die in sector i's quotient ring?"""
    if coeff.is_zero():
      return True
    elim = self._sector_elim(i)
    pres = elim.presentation
    return pres.contains(coeff.map_vars(len(pres.names), elim.images))

  def associates(self, lt, le, rt, re):
    """Do the two bracketings of a sector triple agree in the quotient?
    Each is given as its target and packed exponent vector, both None for a
    zero product.  The difference reduces in the target's ring, which
    depends only on its minimal cone, so the verdict is keyed by that cone
    and the two vectors: each distinct comparison is reduced once per
    sector ring."""
    sector = rt if le is None else lt
    key = (self.els[sector].sigma_min, le, re)
    verdict = self._verdicts.get(key)
    if verdict is None:
      if le is None:
        verdict = self.reduces_to_zero(rt, self.coefficient(re))
      elif re is None:
        verdict = self.reduces_to_zero(lt, self.coefficient(le))
      else:
        assert lt == rt
        verdict = self.reduces_to_zero(
            lt, self.coefficient(le) - self.coefficient(re))
      self._verdicts[key] = verdict
    return verdict


def associativity_witnesses(fan: StackyFan, kind: ProductKind, domain=None):
  """Sector triples whose two bracketings disagree after sector reduction,
  sorted; an empty list means the product is associative on every triple.

  The star table is symmetric, so the bracketings of (l, j, i) are those of
  (i, j, l) swapped: only l >= i is checked, and a failure lists both
  triples.  A triple whose two packed exponent sums agree needs no
  reduction; every other one goes through associates."""
  calc = StarCalculator(fan, kind, domain)
  rows = calc.table
  k = len(rows)
  out = set()
  for i in range(k):
    row_i = rows[i]
    for j in range(k):
      t1, e1 = row_i[j]
      row_ij = None if e1 is None else rows[t1]
      row_j = rows[j]
      for l in range(i, k):
        lt = le = None
        if row_ij is not None:
          t2, e2 = row_ij[l]
          if e2 is not None:
            lt, le = t2, e1 + e2
        t3, e3 = row_j[l]
        rt = re = None
        if e3 is not None:
          t4, e4 = row_i[t3]
          if e4 is not None:
            rt, re = t4, e3 + e4
        if le != re and not calc.associates(lt, le, rt, re):
          out.update(((i, j, l), (l, j, i)))
  return sorted(out)
