"""Inertial products on the sectors of a toric Deligne-Mumford stack.

Sectors are indexed by box elements and everything reduces to integer
arithmetic on their phase numerators: one exponent rule (star_exponents)
gives the star product of a sector pair for every kind.  StarCalculator's
star table applies it once per pair; the presentation of the inertial Chow
ring reads its cone and box relations off that table, and StarCalculator
and associativity_witnesses check the products sector triple by sector
triple; inertial_hilbert_table reads the graded pieces off one small ring
per minimal cone, once StarCalculator.certify has shown that those rings
carry the product.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import floor

from stackychow.charring import (
    character_data,
    linear_ideal,
    nonface_monomials,
)
from stackychow.gradedpoly import (GradedPieceReport, Poly, RingPresentation,
                                   eliminate, graded_pieces, table_degrees)
from stackychow.lattice import AbGroup
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


def br_ideal(fan: StackyFan, kind: ProductKind, _calc=None):
  """One relation per unordered double-box sector pair: the pair monomial
  minus the closed form of its star product (see star_product), read off
  the star table of _calc (a StarCalculator of the fan and kind, built when
  None) in pair order, each distinct packed vector expanded once."""
  calc = StarCalculator(fan, kind) if _calc is None else _calc
  n, k = fan.n, len(calc.els) - 1
  xs = (0,) * n
  coeffs = {}
  out = []
  for i in range(1, k + 1):
    row = calc.table[i]
    for j in range(i, k + 1):
      target, packed = row[j]
      if target is None:
        continue
      terms = {xs + _w_part(k, (i, j)): 1}
      if packed is not None:
        coeff = coeffs.get(packed)
        if coeff is None:
          coeff = coeffs[packed] = calc.coefficient(packed).terms
        w = _w_part(k, (target,) if target else ())
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
                          domain=None) -> RingPresentation:
  """Generators and relations for the inertial Chow ring of the given kind.

  Variables: one x per ray (degree 1) and one w per nonidentity sector with
  degree its age (0 for pure-torsion sectors, which blocks graded queries but
  not construction).  The ideal stacks the ray relations (linear), nonface
  relations (stanley_reisner), each sector annihilator times its w (sector),
  the no-common-cone monomials (cone) and the product relations (box), in
  the pair order of one StarCalculator's star table."""
  calc = StarCalculator(fan, kind, domain)
  els = calc.els
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
           ("stanley_reisner", lift(nonface_monomials(fan), ws))]
  cones = {}  # a sector's relations depend only on its minimal cone
  for j, v in enumerate(els[1:]):
    if v.sigma_min not in cones:
      cones[v.sigma_min] = nonface_monomials(fan, v.sigma_min)
    parts.append(("sector", lift(cones[v.sigma_min], _w_part(k, (j + 1,)))))
  xs = (0,) * n
  parts += [("cone", [Poly._trusted(total, {xs + _w_part(k, (i, j)): 1})
                      for i in range(1, k + 1) for j in range(i, k + 1)
                      if calc.table[i][j][0] is None]),
            ("box", br_ideal(fan, kind, _calc=calc))]
  gens = [g for _, ideal in parts for g in ideal]
  tags = [tag for tag, ideal in parts for _ in ideal]
  return RingPresentation(names, degrees, gens, tags, calc.domain)


# -- star products of module classes -------------------------------------------

class StarCalculator:
  """Star products in the sector-module picture, with cached tables.

  A class is a sector index with an x-coefficient; products land in a single
  sector, and normal forms reduce the coefficient in that sector's ring
  (sector_ring).  The star table keeps each coefficient's exponent vector
  (see star_exponents) packed into one int, `width` bits per ray: a field
  is wider than the sum of two entries, so two packed vectors add and
  compare as ints.  A comparison is first settled by support (see
  associates), and a vector is unpacked and expanded only for one that
  support leaves open: the sector rings and the character data (the change
  matrix f) are built by the first reduction, and a sweep that reduces
  nothing never builds them.

  With a maxdeg, an age-graded kind leaves the pairs of age sum above it
  out of the table (None entries).  `sums` holds each sector's age as a
  phase numerator over the box's shared denominator.  The domain defaults
  to the kind's; the asymptotic kinds refuse Z."""

  def __init__(self, fan: StackyFan, kind: ProductKind, domain=None,
               maxdeg=None):
    fan.require_valid()
    self.fan = fan
    self.kind = kind
    self.domain = kind.default_domain if domain is None else domain
    if kind.is_asymptotic and self.domain != "q":
      raise ValueError("asymptotic products require rational coefficients")
    self.els = fan.box()
    self.sums = [sum(v.p) for v in self.els]
    top = None
    if maxdeg is not None and kind.age_graded:
      top = self._top(maxdeg)
    self.width, self.table = self._star_table(top)
    # single-ray nonfaces -> (Elimination, map_vars memo), see sector_ring
    self._linear = {}
    self._rings = {}  # minimal cone -> its sector ring
    self._verdicts = {}

  def _top(self, maxdeg):
    """maxdeg as a bound on phase-numerator sums."""
    return floor(Fraction(maxdeg) * self.els[0].den)

  def _star_table(self, top):
    """(width, table): table[i][j] = (target sector index or None, packed
    exponent vector or None for a zero coefficient) for every pair of
    sector indices of numerator sum at most top (all when None), from
    star_exponents of the pair once for i <= j."""
    fan, els, sums = self.fan, self.els, self.sums
    k = len(els)
    entries = []
    for i in range(k):
      for j in range(i, k):
        if top is not None and sums[i] + sums[j] > top:
          continue
        target, exps = star_exponents(fan, self.kind, els[i], els[j])
        entries.append((i, j, None if target is None else fan.box_index(target),
                        exps))
    top = max((max(exps, default=0) for *_, exps in entries
               if exps is not None), default=0)
    # room for two entries, or for an entry and a 0/1 vector
    width = (2 * top + 1).bit_length()
    table = [[None] * k for _ in range(k)]
    for i, j, target, exps in entries:
      table[i][j] = table[j][i] = (target, self._pack(exps, width))
    return width, table

  @staticmethod
  def _pack(exps, width):
    if exps is None:
      return None
    packed = 0
    for e in reversed(exps):
      packed = packed << width | e
    return packed

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

  def _dies(self, cone, packed):
    """Does the support of a packed vector hold a minimal nonface S of the
    cone's star?  Exponents are nonnegative, so a field is nonzero exactly
    when its ray occurs; then tilde_x^e is a multiple of tilde_x^S, a
    generator of the cone's ring, and dies there over Z as over Q."""
    width, field = self.width, (1 << self.width) - 1
    support = sum(1 << r for r in range(self.fan.n)
                  if packed >> width * r & field)
    return any(support & m == m for m in self.fan.nonfaces(cone))

  def sector_ring(self, cone):
    """(ring, images) of a minimal cone's sectors: Z[x]/I (Q[x] over Q) in
    eliminated variables, and each x_i's image.  I holds the linear forms
    and the nonface monomials of the cone's star (for the zero cone, the
    Stanley-Reisner ones), which cover the Stanley-Reisner monomials: a
    nonface T holds a minimal nonface S of the star, disjoint from the
    cone.  The linear forms and the single-ray nonface classes are
    eliminated once per set of those rays, so cones without one share the
    fan's linear elimination; the other monomials, of degree two and up,
    are mapped through its images."""
    entry = self._rings.get(cone)
    if entry is None:
      fan = self.fan
      nonfaces = list(zip(fan.nonfaces(cone), nonface_monomials(fan, cone)))
      singles = [(m, g) for m, g in nonfaces if m.bit_count() == 1]
      key = tuple(m for m, _ in singles)
      shared = self._linear.get(key)
      if shared is None:
        gens = linear_ideal(fan) + [g for _, g in singles]
        shared = self._linear[key] = eliminate(RingPresentation(
            ["x%d" % (t + 1) for t in range(fan.n)], [Fraction(1)] * fan.n,
            gens, ("linear",) * fan.d + ("sector",) * len(singles),
            self.domain)), {}
      elim, memo = shared
      base = elim.presentation
      mono = [g.map_vars(len(base.names), elim.images, memo)
              for m, g in nonfaces if m.bit_count() > 1]
      entry = self._rings[cone] = RingPresentation(
          base.names, base.degrees, base.generators + tuple(mono),
          base.tags + ("sector",) * len(mono), self.domain), elim.images
    return entry

  def reduces_to_zero(self, i, coeff):
    """Does the x-coefficient die in sector i's ring?"""
    if coeff.is_zero():
      return True
    ring, images = self.sector_ring(self.els[i].sigma_min)
    return ring.contains(coeff.map_vars(len(ring.names), images))

  def associates(self, lt, le, rt, re):
    """Do the two bracketings of a sector triple agree in the quotient?
    Each is given as its target and packed exponent vector, both None for a
    zero product.  Both agree in the target's ring, which depends only on
    its minimal cone, when every nonzero side dies there by support (see
    _dies); otherwise the difference is expanded and reduced in it.  The
    verdict is keyed by that cone and the two vectors, so each distinct
    comparison is settled once per sector ring."""
    target = rt if le is None else lt
    cone = self.els[target].sigma_min
    key = (cone, le, re)
    verdict = self._verdicts.get(key)
    if verdict is None:
      if all(self._dies(cone, e) for e in (le, re) if e is not None):
        verdict = True
      else:
        assert le is None or re is None or lt == rt
        verdict = self.reduces_to_zero(
            target, self.coefficient(le) - self.coefficient(re))
      self._verdicts[key] = verdict
    return verdict

  def witnesses(self, top=None):
    """Sector triples of numerator sum at most top (all when None) whose
    two bracketings disagree after sector reduction, sorted.  The star
    table is symmetric, so only l >= i is checked and a failure lists both
    (i, j, l) and (l, j, i).  A triple whose two packed exponent sums
    agree needs no reduction; every other one goes through associates.  A
    bounded triple reads only pairs within the bound, since a product's
    age is at most the sum of its factors' ages."""
    rows, sums = self.table, self.sums
    k = len(rows)
    out = set()
    for i in range(k):
      row_i = rows[i]
      tail = range(i, k)
      if top is not None:
        tail = sorted(tail, key=sums.__getitem__)
        tail_sums = [sums[l] for l in tail]
      for j in range(k):
        ls = tail
        if top is not None:
          rest = top - sums[i] - sums[j]
          if rest < 0:
            continue
          ls = islice(tail, bisect_right(tail_sums, rest))
        t1, e1 = row_i[j]
        row_ij = None if e1 is None else rows[t1]
        row_j = rows[j]
        for l in ls:
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
          if le != re and not self.associates(lt, le, rt, re):
            out.update(((i, j, l), (l, j, i)))
    return sorted(out)

  def certify(self, maxdeg):
    """Raise ValueError naming the failed check unless the sum of the
    sector rings, shifted by the ages, is a ring with the inertial ring's
    pieces up to maxdeg (Bergman's diamond lemma, bounded by degree):
    (a) deg c_uv = age u + age v - age(u + v) on every pair of the table,
        else "presentation is not graded";
    (b) c_uv * m dies in the ring of u + v for each nonface generator m of
        u's ring (the identity's are the Stanley-Reisner ones);
    (c) the triple sweep of witnesses finds nothing.
    (b) and (c) run up to total degree maxdeg, through associates, so a
    product whose support holds a nonface is settled without a reduction."""
    rows, sums, den = self.table, self.sums, self.els[0].den
    k = len(rows)
    degrees = {None: None}  # packed vector -> its degree over den
    for i in range(k):
      for j in range(i, k):
        entry = rows[i][j]
        if entry is None:
          continue
        deg = degrees.get(entry[1])
        if deg is None and entry[1] is not None:
          deg = degrees[entry[1]] = sum(self.exponents(entry[1])) * den
        if deg is not None and deg != sums[i] + sums[j] - sums[entry[0]]:
          raise ValueError("presentation is not graded")
    top = self._top(maxdeg)
    relations = {}  # minimal cone -> packed nonface vectors and degrees
    for u in range(k):
      cone = self.els[u].sigma_min
      gens = relations.get(cone)
      if gens is None:
        gens = relations[cone] = [
            (sum(1 << self.width * r for r in range(self.fan.n)
                 if m >> r & 1), m.bit_count() * den)
            for m in self.fan.nonfaces(cone)]
      for v in range(1, k):
        entry = rows[u][v]
        if entry is None or entry[1] is None:
          continue
        t, c = entry
        for m, deg in gens:
          if (sums[u] + sums[v] + deg <= top
              and not self.associates(t, c + m, None, None)):
            raise ValueError(
                "the sector rings do not carry the product (check b, "
                "well-definedness): sector %d times a relation of sector %d "
                "does not vanish in sector %d" % (v, u, t))
    bad = self.witnesses(top)
    if bad:
      raise ValueError("the sector rings do not carry the product (check c, "
                       "associativity): sectors %d, %d, %d" % bad[0])


def associativity_witnesses(fan: StackyFan, kind: ProductKind, domain=None):
  """Sector triples whose two bracketings disagree after sector reduction,
  sorted; an empty list means the product is associative on every triple
  (see StarCalculator.witnesses)."""
  return StarCalculator(fan, kind, domain).witnesses()


def inertial_hilbert_table(fan: StackyFan, kind: ProductKind, maxdeg,
                           domain=None):
  """hilbert_table of inertial_presentation up to maxdeg, without building
  it: the piece of degree t is the sum over sectors v of the pieces of
  degree t - age v of v's sector ring (Borisov-Chen-Smith), once
  StarCalculator.certify has passed.  Each minimal cone's ring is read
  once, up to maxdeg less the least age of its sectors.  The degree grid,
  the row limit and the refusals, in their order, are hilbert_table's."""
  calc = StarCalculator(fan, kind, domain, maxdeg)
  domain = calc.domain
  # the presentation would expand the coefficient of every pair in the
  # table, so its expansion limit comes before the other refusals
  cd, seen = character_data(fan), set()
  for i, row in enumerate(calc.table):
    for entry in row[i:]:
      if entry is not None and entry[1] not in seen:
        seen.add(entry[1])
        if entry[1] is not None:
          cd.require_expandable(calc.exponents(entry[1]))
  els = calc.els
  age = [v.age for v in els]
  grid = table_degrees([1] * fan.n + age[1:], maxdeg)
  calc.certify(maxdeg)
  ages = {}
  for v, a in zip(els, age):
    ages.setdefault(v.sigma_min, []).append(a)
  pieces = {}
  for cone, shifts in ages.items():
    top = maxdeg - min(shifts)
    if top < 0:
      continue
    if top < 1:  # every relation has positive degree
      table = [GradedPieceReport(Fraction(0), 1, (), domain)]
    else:
      table = graded_pieces(calc.sector_ring(cone)[0],
                            [Fraction(t) for t in range(floor(top) + 1)])
    for shift in shifts:
      for p in table:
        if shift + p.degree <= maxdeg:
          acc = pieces.setdefault(shift + p.degree, [0, []])
          acc[0] += p.free_rank
          acc[1] += p.torsion
  out = []
  for d in grid:
    free, orders = pieces.get(d, (0, ()))
    if len(orders) > 1:
      orders = AbGroup(len(orders), [[m if r == c else 0 for c in range(
          len(orders))] for r, m in enumerate(orders)]).invariant_factors
    out.append(GradedPieceReport(d, free, tuple(orders), domain))
  return out
