"""Character groups of the quotient torus and the integral Chow presentation.

Two character groups appear: the full one, from ray lifts augmented by the
torsion orders, and the rigidified one, from the free parts of the rays
alone.  They are abstractly isomorphic whenever the fan hypotheses hold; a
fixed isomorphism turns the full-group classes (tilde x) into integer
combinations of the rigidified classes (x), recorded as the n x n matrix f.
Without torsion both groups are the same and f is the identity, so the groups
are built only for torsion fans.  The Chow ring of the stack is the
polynomial ring on the x classes modulo the linear relations of the rays and
the non-face monomials in tilde x.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb, prod

from stackychow.gradedpoly import Poly, RingPresentation
from stackychow.lattice import (
    AbGroup,
    IntMatrix,
    rational_rank,
    smith_normal_form,
)
from stackychow.stackyfan import StackyFan

# largest term count tilde_monomial may produce; a star coefficient with a
# large bundle over multi-term tilde classes would otherwise run for hours
MAX_EXPANSION_TERMS = 10 ** 6


class CharacterData:
  """The change matrix f of a valid fan and the expansions it gives.

  tilde_x_i = sum_k f[k,i] * x_k with det f != 0; f is the identity on a
  fan without torsion.
  """

  def __init__(self, fan: StackyFan):
    fan.require_valid()
    self.f = IntMatrix.identity(fan.n) if fan.r == 0 else _change_matrix(fan)
    self._term_counts = [len(self.tilde_poly(i).terms) for i in range(fan.n)]
    self._powers = {}

  def tilde_poly(self, i):
    """tilde_x_i as a degree-one polynomial in the x variables."""
    return Poly.linear(self.f.col(i))

  def tilde_monomial(self, exps):
    """prod_i tilde_x_i^exps[i] expanded in the x variables, from powers
    cached per (i, exps[i]), once require_expandable has passed."""
    self.require_expandable(exps)
    out = Poly.constant(self.f.rows, 1)
    for i, e in enumerate(exps):
      if e:
        power = self._powers.get((i, e))
        if power is None:
          power = self._powers[i, e] = self.tilde_poly(i).pow(e)
        out = out * power
    return out

  def require_expandable(self, exps):
    """Raise ValueError when prod_i tilde_x_i^exps[i] could expand to more
    than MAX_EXPANSION_TERMS terms or take more coefficient products than
    that: the sum, over the factors, of the term bounds of the partial
    product and the factor."""
    n = self.f.rows
    factors = [(e, comb(e + t - 1, t - 1))
               for e, t in zip(exps, self._term_counts) if e]
    # n = 0 has the one monomial 1
    bound = min(prod(f for _, f in factors),
                comb(sum(exps) + n - 1, n - 1) if n else 1)
    partial, degree, work = 1, 0, 0
    for e, f in factors:
      work += partial * f
      degree += e
      partial = min(partial * f, comb(degree + n - 1, n - 1))
    if max(bound, work) > MAX_EXPANSION_TERMS:
      text = "*".join("tilde_x%d^%d" % (i + 1, e)
                      for i, e in enumerate(exps) if e)
      cost = ("expand to %d terms" % bound if bound > MAX_EXPANSION_TERMS
              else "take %d coefficient products to expand" % work)
      raise ValueError("coefficient %s may %s, more than the limit of %d"
                       % (text, cost, MAX_EXPANSION_TERMS))


# written, never read: the live character data, counted by perfbench
_character_cache = weakref.WeakValueDictionary()


def character_data(fan: StackyFan) -> CharacterData:
  if fan._characters is None:
    fan._characters = _character_cache[id(fan)] = CharacterData(fan)
  return fan._characters


def linear_ideal(fan: StackyFan):
  """One linear form per free coordinate: sum_i bbar_i[j] * x_i."""
  return [Poly.linear([fan.free(i)[j] for i in range(fan.n)])
          for j in range(fan.d)]


def nonface_monomials(fan: StackyFan, cone=()):
  """The minimal nonfaces of the star of a cone (of the fan for the zero
  cone) as monomials in tilde x, written in the x variables via the matrix
  f, in StackyFan.nonfaces order: the Stanley-Reisner relations, and the
  relations cutting the closed substack of a sector with that minimal
  cone."""
  cd = character_data(fan)
  return [cd.tilde_monomial(tuple(m >> i & 1 for i in range(fan.n)))
          for m in fan.nonfaces(cone)]


def sr_ring(fan: StackyFan) -> RingPresentation:
  """Integral Chow ring of the toric stack: Z[x_1..x_n] modulo the linear
  forms of the rays and the non-face monomials."""
  fan.require_valid()
  linear, nonfaces = linear_ideal(fan), nonface_monomials(fan)
  return RingPresentation(["x%d" % (i + 1) for i in range(fan.n)],
                          [1] * fan.n, linear + nonfaces,
                          ["linear"] * len(linear)
                          + ["stanley_reisner"] * len(nonfaces), domain="z")


def _change_matrix(fan: StackyFan) -> IntMatrix:
  """f of a valid torsion fan.

  The isomorphism reads the canonical (torsion, free) coordinates of
  tilde_x_i in the full group, column i of its u, as coordinates in the
  rigidified one.  Column i is their lift to Z^n, reduced modulo the
  relation lattice: lam, the d rigidified rows, is a basis of it (a valid
  fan spans N_R), so the reduced column is the one representative in the
  half-open nearest-plane box, whichever preimage it starts from.
  """
  n, d, r = fan.n, fan.d, fan.r
  lam = [[fan.free(i)[j] for i in range(n)] for j in range(d)]
  aug = [row + [0] * r for row in lam]
  for l, m in enumerate(fan.torsion):
    aug.append([fan.tors(i)[l] for i in range(n)] +
               [m if k == l else 0 for k in range(r)])
  full, rig = AbGroup(n + r, aug), AbGroup(n, lam)
  if (full.invariant_factors != rig.invariant_factors
      or full.free_rank != rig.free_rank):
    raise ValueError("invariant-factor mismatch")
  reduce = _babai_reducer(lam)
  cols = [reduce(rig.lift(*full.coords(i))) for i in range(n)]
  f0 = IntMatrix([[cols[i][k] for i in range(n)] for k in range(n)])
  if rational_rank(f0.entries) == n:
    return f0
  # a preimage choice can be singular; correcting by relation-lattice
  # columns shifts the action on the lattice by e*k*identity, which is
  # nonsingular for all but finitely many k.  e, the product of the Smith
  # invariants of lam (those of its transpose), kills Z^d modulo its columns
  snf = smith_normal_form(IntMatrix(lam))
  e = prod(rig.invariant_factors)
  a_rows = []
  for j in range(len(lam)):
    target = [e if i == j else 0 for i in range(len(lam))]
    sol = snf.solve(target)
    assert sol is not None  # e kills the quotient by the column span
    a_rows.append(sol)
  corr = [[sum(lam[j][u] * a_rows[j][v] for j in range(len(lam)))
           for v in range(n)] for u in range(n)]
  for k in range(1, n + 2):
    cand = IntMatrix([[f0[u, v] + k * corr[u][v] for v in range(n)]
                      for u in range(n)])
    if rational_rank(cand.entries) == n:
      return cand
  raise AssertionError("no nonsingular associated matrix found")


def _babai_reducer(basis_rows):
  """A function reducing integer vectors modulo the row lattice,
  nearest-plane style: it keeps the coset and shrinks the representative.

  The Gram-Schmidt rows and their squared norms are computed once; exact
  rational arithmetic.
  """
  steps = []
  for row in basis_rows:
    u = [Fraction(c) for c in row]
    for _, g, nrm in steps:
      dot = sum(a * b for a, b in zip(u, g))
      u = [a - dot / nrm * b for a, b in zip(u, g)]
    if any(u):
      steps.append((row, u, sum(a * a for a in u)))
  steps.reverse()

  def reduce(vec):
    work = [Fraction(c) for c in vec]
    for row, g, nrm in steps:
      coef = sum(a * b for a, b in zip(work, g)) / nrm
      shift = (coef + Fraction(1, 2)).__floor__()
      work = [a - shift * b for a, b in zip(work, row)]
    assert all(a.denominator == 1 for a in work)
    return [int(a) for a in work]
  return reduce
