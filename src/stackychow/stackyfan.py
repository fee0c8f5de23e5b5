"""Stacky fans, their boxes, and the group elements of the box.

A stacky fan is a simplicial fan together with a distinguished integer point
on each ray, living in a finitely generated abelian group N = Z^d + torsion.
Elements of N are plain tuples: d free coordinates followed by one residue
per torsion factor.  The box of the fan indexes the twisted sectors of the
associated quotient stack; box addition realizes the local group law.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, sub

from stackychow.lattice import (
    AbGroup,
    IntMatrix,
    QReducer,
    ZReducer,
    rational_rank,
    smith_normal_form,
)


@dataclass(frozen=True)
class BoxElement:
  """An element v of N whose free part lies in the half-open parallelepiped
  of its minimal cone.  p holds the phase numerators of vbar on the rays over
  den, q_i = p_i / den; they are nonzero exactly on the rays of sigma_min.
  The elements of one box share den."""

  v: tuple
  p: tuple
  den: int
  sigma_min: tuple

  @property
  def q(self):
    return tuple(Fraction(c, self.den) for c in self.p)

  @property
  def age(self):
    return Fraction(sum(self.p), self.den)

  @property
  def is_identity(self):
    return all(c == 0 for c in self.v)

  def sort_key(self):
    return (self.sigma_min, self.p, self.v)

  def __repr__(self):
    return "BoxElement(v=%r)" % (self.v,)


@dataclass(frozen=True)
class GroupElement:
  """Phases of an element of G: gamma_i = exp(2 pi i gamma_phases[i]), and
  one phase per torsion factor for the s-coordinates."""

  gamma_phases: tuple
  s_phases: tuple


class StackyFan:
  """d free coordinates, torsion orders, distinguished ray points, max cones.

  Rays are half-open data: b[i] has length d + len(torsion) with the torsion
  coordinates already reduced into [0, m_l).  Cones are given by their
  maximal members only, as 0-based ray index tuples; faces are implicit.
  """

  def __init__(self, d, torsion, rays, max_cones):
    self.d = int(d)
    self.torsion = tuple(int(m) for m in torsion)
    self.rays = tuple(tuple(int(c) for c in b) for b in rays)
    self.max_cones = tuple(
        tuple(sorted(set(int(i) for i in cone))) for cone in max_cones)
    if self.d < 0:
      raise ValueError("negative rank")
    width = self.d + len(self.torsion)
    for b in self.rays:
      if len(b) != width:
        raise ValueError("ray of wrong length")
    self._validation = None
    self._functionals = {}  # max cone -> (equalities, inequalities)
    self._box = None
    self._box_by_v = None
    self._cone_masks = None  # one ray bitmask per max cone, on first use
    self._nonfaces = {}  # cone -> minimal nonfaces of its star
    self._characters = None  # CharacterData, set by charring.character_data

  @property
  def n(self):
    return len(self.rays)

  @property
  def r(self):
    return len(self.torsion)

  def free(self, i):
    return self.rays[i][:self.d]

  def tors(self, i):
    return self.rays[i][self.d:]

  def norm_element(self, v):
    """Canonical representative of an element of N."""
    v = tuple(int(c) for c in v)
    if len(v) != self.d + self.r:
      raise ValueError("element of wrong length")
    return v[:self.d] + tuple(
        c % m for c, m in zip(v[self.d:], self.torsion))

  # -- validation ------------------------------------------------------------

  def validate(self):
    """Check the stacky-fan hypotheses; returns a tuple of failure messages."""
    if self._validation is not None:
      return self._validation
    errors = []
    for m in self.torsion:
      if m < 2:
        errors.append("torsion order %d is smaller than 2" % m)
    for i, b in enumerate(self.rays):
      for l, (c, m) in enumerate(zip(self.tors(i), self.torsion)):
        if not 0 <= c < m:
          errors.append("ray %d: torsion coordinate %d out of range [0, %d)"
                        % (i + 1, c, m))
      if all(c == 0 for c in self.free(i)):
        errors.append("ray %d: free part is zero" % (i + 1,))
    # positively parallel means b_i = c * b_j with c > 0, so the sign of the
    # direction matters: opposite rays are fine
    prims = [_primitive(self.free(i)) for i in range(self.n)]
    for i in range(self.n):
      for j in range(i + 1, self.n):
        if any(prims[i]) and prims[i] == prims[j]:
          errors.append("rays %d and %d are positively parallel"
                        % (i + 1, j + 1))
    used = {i for cone in self.max_cones for i in cone}
    for cone in self.max_cones:
      for i in cone:
        if not 0 <= i < self.n:
          errors.append("cone %s: unknown ray index %d"
                        % (_cone_str(cone), i + 1))
    if any(not 0 <= i < self.n for cone in self.max_cones for i in cone):
      self._validation = tuple(errors)
      return self._validation
    for i in range(self.n):
      if i not in used:
        errors.append("ray %d is not used by any maximal cone" % (i + 1,))
    for cone in self.max_cones:
      try:
        self._cone_functionals(cone)
      except ValueError as exc:
        errors.append(str(exc))
    if rational_rank([self.free(i) for i in range(self.n)]) != self.d:
      errors.append("Sigma does not span N_R")
    if self.r:
      # the hypothesis is containment N_tors <= <b_1..b_n> inside N, which is
      # strictly stronger than the torsion parts generating N_tors: each
      # torsion generator must be hit with zero free part
      width = self.d + self.r
      units = [tuple(int(j == self.d + l) for j in range(width))
               for l in range(self.r)]
      span = ZReducer(list(self.rays) + [
          tuple(m * c for c in e) for m, e in zip(self.torsion, units)], width)
      if not all(span.contains(e) for e in units):
        errors.append("b_i do not generate N_tors")
    if not errors:
      errors.extend(self._fan_axiom_errors())
    self._validation = tuple(errors)
    return self._validation

  def require_valid(self):
    report = self.validate()
    if report:
      raise ValueError("invalid stacky fan: " + "; ".join(report))

  def _fan_axiom_errors(self):
    errors = []
    for a in range(len(self.max_cones)):
      for b in range(a + 1, len(self.max_cones)):
        s, t = self.max_cones[a], self.max_cones[b]
        if not self._intersection_is_common_face(s, t):
          errors.append("cones %s and %s: intersection is not a common face"
                        % (_cone_str(s), _cone_str(t)))
    return errors

  def _cone_functionals(self, cone):
    """Primitive integer functionals describing cone(b_i : i in cone) in Q^d.

    Returns (equalities, inequalities), built once per cone: x lies in the
    cone iff every equality vanishes on x and every inequality is >= 0 on
    x.  There is one inequality per ray, in cone order; on the span of the
    cone it is a positive multiple of that ray's coordinate.
    """
    out = self._functionals.get(cone)
    if out is None:
      # row c is (f(b_i) for i in cone | f) for f the c-th coordinate; the
      # reduced basis has a row (a e_j | f_j) per ray, f_j(b_i) = a delta_ij
      # with a > 0, and rows (0 | f) for the f vanishing on every ray
      k = len(cone)
      rows = QReducer([tuple(self.free(i)[c] for i in cone)
                       + tuple(int(c == j) for j in range(self.d))
                       for c in range(self.d)], k + self.d).reduced_rows()
      if sum(1 for r in rows if min(r) < k) < k:
        raise ValueError("cone %s: rays are linearly dependent (not "
                         "simplicial)" % _cone_str(cone))
      f = [_primitive([r.get(c, 0) for c in range(k, k + self.d)])
           for r in rows]
      out = (f[k:], f[:k])
      self._functionals[cone] = out
    return out

  def _intersection_is_common_face(self, s, t):
    """Fourier-Motzkin cuts the rays of s down to generators of the
    intersection with cone t.  It is the face on the common rays when no
    generator has a positive s-coordinate on a ray of s outside t."""
    gens = [_primitive(self.free(i)) for i in s]
    eqs, ineqs = self._cone_functionals(t)
    for f, is_eq in [(f, True) for f in eqs] + [(f, False) for f in ineqs]:
      pos, neg, zero = [], [], []
      for g in gens:
        val = _dot(f, g)
        (zero if val == 0 else pos if val > 0 else neg).append((g, val))
      new = [g for g, _ in zero]
      if not is_eq:
        new += [g for g, _ in pos]
      for gp, vp in pos:
        for gn, vn in neg:
          combo = tuple(vp * a - vn * b for a, b in zip(gn, gp))
          if any(combo):
            new.append(combo)
      gens = list(dict.fromkeys(map(_primitive, new)))
    outside = [f for i, f in zip(s, self._cone_functionals(s)[1])
               if i not in t]
    return not any(_dot(f, g) for f in outside for g in gens)

  # -- cones -----------------------------------------------------------------

  def has_common_cone(self, ray_set):
    """Whether one max cone holds every ray of ray_set; the empty set lies
    in the zero cone, also on a fan with no max cones.  Ray sets are tested
    as bitmasks against one mask per max cone (which leaves out the ray
    indices of an invalid fan that name no ray)."""
    masks = self._cone_masks
    if masks is None:
      masks = self._cone_masks = tuple(
          sum(1 << i for i in cone if 0 <= i < self.n)
          for cone in self.max_cones)
    mask = 0
    for i in ray_set:
      mask |= 1 << i
    if not mask:
      return True
    for cone in masks:
      if mask & cone == mask:
        return True
    return False

  def nonfaces(self, cone=()):
    """The minimal nonfaces of the star of a cone (a ray index tuple), as
    ray bitmasks (bit i for ray i): the minimal ray sets S disjoint from the
    cone with S + cone in no max cone, by size and then lexicographically,
    found once per cone.  For the zero cone they are the minimal nonfaces
    of the fan."""
    out = self._nonfaces.get(cone)
    if out is None:
      found = []
      rays = [i for i in range(self.n) if i not in cone]
      for size in range(1, len(rays) + 1):
        for s in combinations(rays, size):
          mask = sum(1 << i for i in s)
          if (not any(m & mask == m for m in found)
              and not self.has_common_cone(cone + s)):
            found.append(mask)
      out = self._nonfaces[cone] = tuple(found)
    return out

  # -- box -------------------------------------------------------------------

  def _smith(self, cone):
    """Diagonal d_1 | ... | d_k and column transform V of the Smith form
    U B V = diag(d) of the cone's d x k ray matrix B."""
    if not cone:
      return (), None
    mat = IntMatrix([[self.free(i)[j] for i in cone] for j in range(self.d)])
    snf = smith_normal_form(mat)
    return snf.diagonal, snf.v

  def _cone_box(self, cone, diag, vmat, den):
    """Box elements of a cone over den, a multiple of its exponent d_k.

    The parallelepiped point of y in prod [0, d_j) has phases q = V (y_j /
    d_j), reduced mod 1; its numerators over den are V (y_j den / d_j) mod
    den, and its free part is B p / den.  Distinct y are distinct points."""
    reps = [(0,) * len(cone)]
    for j, dj in enumerate(diag):
      col = [row[j] * (den // dj) for row in vmat.entries]
      reps = [tuple(a + y * c for a, c in zip(r, col))
              for r in reps for y in range(dj)]
    out = []
    for rep in reps:
      rep = [c % den for c in rep]
      point = tuple(sum(self.free(i)[j] * c for i, c in zip(cone, rep)) // den
                    for j in range(self.d))
      p = [0] * self.n
      for i, c in zip(cone, rep):
        p[i] = c
      sigma = tuple(i for i, c in zip(cone, rep) if c)
      for tors in _torsion_tuples(self.torsion):
        out.append(BoxElement(point + tors, tuple(p), den, sigma))
    return out

  def box(self):
    """All box elements, identity first, then sorted by (cone, q, torsion).

    Their phases share one denominator D, the lcm of the max cones'
    exponents: an element's order is the lcm of its q denominators."""
    if self._box is None:
      self.require_valid()
      cones = self.max_cones or ((),)
      smiths = [self._smith(cone) for cone in cones]
      den = lcm(*(diag[-1] for diag, _ in smiths if diag))
      by_v = {}
      for cone, (diag, vmat) in zip(cones, smiths):
        for el in self._cone_box(cone, diag, vmat, den):
          by_v.setdefault(el.v, el)
      els = sorted(by_v.values(), key=BoxElement.sort_key)
      identity = [e for e in els if e.is_identity]
      rest = [e for e in els if not e.is_identity]
      self._box = tuple(identity + rest)
      self._box_by_v = {e.v: k for k, e in enumerate(self._box)}
    return self._box

  def box_lookup(self, v):
    """The box element of an element of N; a canonical tuple (a key of the
    box table) is found without normalising."""
    if self._box is None:
      self.box()
    k = self._box_by_v.get(v) if type(v) is tuple else None
    if k is None:
      v = self.norm_element(v)
      k = self._box_by_v.get(v)
      if k is None:
        raise ValueError("%r is not a box element" % (v,))
    return self._box[k]

  def box_index(self, el):
    """Position of a box element in box order."""
    if self._box is None:
      self.box()
    return self._box_by_v[el.v]

  def carries(self, v1: BoxElement, v2: BoxElement):
    """The per-ray carries [q1 + q2 >= 1] of two elements of this box, as 0
    or 1, or None when they share no cone."""
    if not self.has_common_cone(v1.sigma_min + v2.sigma_min):
      return None
    den = v1.den
    # phase numerators lie in [0, den), so a sum's quotient is its carry
    return [(x + y) // den for x, y in zip(v1.p, v2.p)]

  def box_add(self, v1: BoxElement, v2: BoxElement, carries=None):
    """Box addition: the group law of N(sigma) on box representatives,
    v1 + v2 less the rays that carry.  Passing the carries of two elements
    of this box that share a cone skips the cone test and the lookups."""
    if carries is None:
      v1, v2 = self.box_lookup(v1.v), self.box_lookup(v2.v)
      carries = self.carries(v1, v2)
      if carries is None:
        raise ValueError("no common cone")
    den = v1.den
    total = list(map(add, v1.v, v2.v))
    for carry, ray in zip(carries, self.rays):
      if carry:
        total = list(map(sub, total, ray))
    # reduced torsion coordinates make total a key of the box table
    for l, m in enumerate(self.torsion, self.d):
      total[l] %= m
    out = self.box_lookup(tuple(total))
    assert out.p == tuple((x + y) % den for x, y in zip(v1.p, v2.p))
    return out

  # -- group correspondence ----------------------------------------------------

  def group_element(self, v: BoxElement):
    """s_l = ((-sum_i p_i t_il) mod D + v_l D) / (D m_l), t_il the torsion
    coordinates of the rays."""
    den = v.den
    s = []
    for l, m in enumerate(self.torsion):
      drift = -sum(c * self.tors(i)[l] for i, c in enumerate(v.p)) % den
      s.append(Fraction(drift + v.v[self.d + l] * den, den * m))
    return GroupElement(v.q, tuple(s))

  def __repr__(self):
    return "StackyFan(d=%d, torsion=%r, n=%d, max_cones=%r)" % (
        self.d, list(self.torsion), self.n, [list(c) for c in self.max_cones])


def _cone_str(cone):
  return "{" + ",".join(str(i + 1) for i in cone) + "}"


def _primitive(vec):
  """An integer vector divided by the gcd of its entries, signs kept."""
  g = gcd(*vec)
  return tuple(x // g for x in vec) if g > 1 else tuple(vec)


def _dot(f, x):
  return sum(a * b for a, b in zip(f, x))


def _torsion_tuples(torsion):
  out = [()]
  for m in torsion:
    out = [t + (x,) for t in out for x in range(m)]
  return out


def weighted_projective_fan(weights):
  """The standard stacky fan of a weighted projective stack P(w_1..w_k).

  N is Z^k modulo the single relation given by the weights; the rays are the
  images of the standard basis vectors and every (k-1)-subset spans a cone.
  """
  weights = [int(w) for w in weights]
  if len(weights) < 2 or any(w <= 0 for w in weights):
    raise ValueError("need at least two positive weights")
  k = len(weights)
  grp = AbGroup(k, [weights])
  rays = [f + t for t, f in map(grp.coords, range(k))]
  torsion = grp.invariant_factors
  cones = [tuple(j for j in range(k) if j != i) for i in range(k)]
  return StackyFan(grp.free_rank, torsion, rays, cones)
