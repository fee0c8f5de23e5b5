import random
import time
from fractions import Fraction
from itertools import product
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from stackychow import gradedpoly
from stackychow.gradedpoly import (
    GradedPieceReport,
    Poly,
    RingPresentation,
    eliminate,
    format_coeff,
    format_poly,
    hilbert_table,
    monomials_of_degree,
    occurring_degrees,
)
from stackychow.lattice import AbGroup, QReducer, ZReducer
from tests.conftest import (dense, first_generator_outside, full_basis_piece,
                            full_basis_reduce, homogeneous_degree,
                            mul_monomial, rational_monomials,
                            reference_eliminate)


def P(nvars, terms):
  return Poly(nvars, terms)


def sr_p64_like():
  # Z[x1,x2] / (2x1 - 3x2, 4x1x2)
  gens = [Poly.linear([2, -3]), P(2, {(1, 1): 4})]
  return RingPresentation(["x1", "x2"], [1, 1], gens,
                          ["linear", "stanley_reisner"], "z")


def test_poly_arithmetic():
  x = Poly.variable(2, 0)
  y = Poly.variable(2, 1)
  p = (x + y) * (x - y)
  assert p == P(2, {(2, 0): 1, (0, 2): -1})
  assert (x + y).pow(2) == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
  assert (p - p).is_zero()
  assert p.scale(Fraction(1, 2)).terms[(2, 0)] == Fraction(1, 2)


def test_poly_homogeneity():
  p = P(2, {(2, 0): 1, (0, 1): 1})
  assert homogeneous_degree(p, [1, 1]) is None
  assert homogeneous_degree(p, [1, 2]) == 2
  assert homogeneous_degree(Poly.zero(2), [1, 2]) == 0


def test_monomials_of_degree():
  ms = monomials_of_degree([1, 1], 2)
  assert ms == [(0, 2), (1, 1), (2, 0)]
  assert monomials_of_degree([2], 1) == []
  assert monomials_of_degree([1], 0) == [(0,)]
  for degrees in ([0, 1], (1, 0)):
    with pytest.raises(ValueError, match="nonpositive variable degree"):
      monomials_of_degree(degrees, 1)
  # against a search of every exponent tuple up to target / degree
  for degrees in ([1, 1], [2, 3], (3, 1, 2), [5, 5, 2, 7]):
    for t in range(-1, 12):
      found = [e for e in product(*(range(t // d + 1) for d in degrees))
               if sum(map(mul, e, degrees)) == t]
      assert monomials_of_degree(degrees, t) == found
  assert monomials_of_degree((2, 3), 1) == []
  assert monomials_of_degree((2, 3), -2) == []
  with pytest.raises(ValueError, match="nonpositive variable degree"):
    monomials_of_degree((2, 0, 3), 4)
  with pytest.raises(ValueError, match="nonpositive variable degree"):
    monomials_of_degree((2, 0, 3), 1)


def test_basis_enumerates_on_the_integer_grading():
  pres = RingPresentation(["a", "b"], [Fraction(1, 2), 1], [], domain="q")
  assert (pres.scale, pres.ideg) == (2, (1, 2))
  # with no generator every monomial is standard: a^3 and a b in degree 3/2
  assert pres.reducer(Fraction(3, 2)).width == 2
  assert pres._std[3] == {(1, 1), (3, 0)}
  # off the grid of multiples of 1/2 there is no monomial
  assert pres.graded_piece(Fraction(1, 3)).describe() == "0"
  # the refusal of a degree-0 variable holds on the grid and off it
  for deg in (1, Fraction(1, 3)):
    flat = RingPresentation(["a", "b"], [Fraction(1, 2), 0], [], domain="q")
    with pytest.raises(ValueError, match="nonpositive variable degree"):
      flat.graded_piece(deg)


def test_occurring_degrees():
  assert occurring_degrees([1, Fraction(3, 2)], 3) == [
      0, 1, Fraction(3, 2), 2, Fraction(5, 2), 3]


def test_graded_piece_torsion():
  pres = sr_p64_like()
  piece = pres.graded_piece(2)
  assert piece.free_rank == 0
  assert piece.torsion == (24,)
  assert piece.describe() == "Z/24"
  assert pres.graded_piece(0).free_rank == 1
  assert pres.graded_piece(1).free_rank == 1
  assert pres.graded_piece(1).torsion == ()


def test_graded_piece_empty_degree():
  pres = RingPresentation(["y"], [2], [], [], "z")
  piece = pres.graded_piece(1)
  assert piece.free_rank == 0 and piece.torsion == ()


def test_hilbert_table():
  table = hilbert_table(sr_p64_like(), 3)
  assert [p.describe() for p in table] == ["Z", "Z", "Z/24", "Z/24"]


def test_describe_rational_pieces():
  pres = RingPresentation(["x", "y"], [1, 1], [], [], "q")
  assert [p.describe() for p in hilbert_table(pres, 2)] == [
      "Q", "Q + Q", "Q + Q + Q"]
  assert pres.graded_piece(Fraction(1, 2)).describe() == "0"


def test_hilbert_zero_ideal():
  pres = RingPresentation(["x"], [1], [], [], "z")
  assert [p.free_rank for p in hilbert_table(pres, 3)] == [1, 1, 1, 1]


def test_reduce_and_contains():
  pres = sr_p64_like()
  assert pres.contains(Poly.linear([4, -6]))
  assert not pres.contains(Poly.linear([1, 0]))
  x1sq = P(2, {(2, 0): 24})
  # 24 x1^2 is in the ideal: 24 = the degree-2 annihilator
  assert pres.contains(x1sq) == (pres.reduce(x1sq).is_zero())
  assert pres.contains(x1sq)
  assert not pres.contains(P(2, {(2, 0): 12}))


def test_not_graded_refuses():
  pres = RingPresentation(["x", "w"], [1, Fraction(3, 2)],
                          [P(2, {(1, 0): 1, (0, 1): 1})], ["box"], "z")
  assert not pres.is_graded
  try:
    pres.graded_piece(1)
    assert False
  except ValueError as e:
    assert "not graded" in str(e)


def test_ideal_equal_redundant_generator():
  p1 = RingPresentation(["x1", "x2"], [1, 1], [Poly.linear([2, -3])],
                        ["linear"], "z")
  p2 = RingPresentation(["x1", "x2"], [1, 1],
                        [Poly.linear([4, -6]), Poly.linear([2, -3])],
                        ["linear", "linear"], "z")
  assert first_generator_outside(p1, p2, 3) is None


def test_ideal_unequal_witness():
  p1 = RingPresentation(["x"], [1], [P(1, {(2,): 1})], ["box"], "z")
  p2 = RingPresentation(["x"], [1], [P(1, {(3,): 1})], ["box"], "z")
  assert first_generator_outside(p1, p2, 3) == (2, 0, P(1, {(2,): 1}))


def test_ideal_equal_depends_on_the_domain():
  # (2x) and (x) differ over Z, first in degree 1, and agree over Q
  x = Poly.variable(1, 0)
  pres = [[RingPresentation(["x"], [1], [g], ["box"], domain)
           for g in (x * 2, x)] for domain in ("z", "q")]
  assert first_generator_outside(*pres[0], 3) == (1, 1, x)
  assert first_generator_outside(*pres[1], 3) is None


def test_eliminate_single_linear():
  pres = RingPresentation(["x", "y"], [1, 1],
                          [P(2, {(1, 0): 1, (0, 1): -1})], ["linear"], "z")
  res = eliminate(pres)
  assert res.presentation.names == ("t",)
  assert res.presentation.generators == ()
  assert res.substitutions["x"] == Poly.variable(1, 0)
  assert res.substitutions["y"] == Poly.variable(1, 0)


def test_eliminate_weighted_line():
  res = eliminate(sr_p64_like())
  pres = res.presentation
  assert pres.names == ("t",)
  assert pres.generators == (P(1, {(2,): 24}),)
  assert res.substitutions["x1"] == P(1, {(1,): 3})
  assert res.substitutions["x2"] == P(1, {(1,): 2})
  # graded pieces preserved
  src = sr_p64_like()
  for d in range(5):
    a = src.graded_piece(d)
    b = pres.graded_piece(d)
    assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_eliminate_torsion_survivor():
  # Z[x,y]/(2x - 2y) leaves a torsion coordinate: Z[t1,t2]/(2 t2)-like shape
  pres = RingPresentation(["x", "y"], [1, 1], [Poly.linear([2, -2])],
                          ["linear"], "z")
  res = eliminate(pres)
  assert len(res.presentation.names) == 2
  gens = res.presentation.generators
  assert len(gens) == 1
  # the surviving relation is 2 * (a torsion variable)
  (g,) = gens
  assert sorted(g.terms.values()) == [2]


def test_eliminate_bare_substitution():
  # ascending scan hits the bare x in w^2 - x first, so x := w^2
  gens = [P(2, {(0, 1): 1, (2, 0): -1}),  # w - x^2
          P(2, {(0, 2): 1, (1, 0): -1})]  # w^2 - x
  pres = RingPresentation(["x", "w"], [1, 2], gens, ["box", "box"], "z")
  res = eliminate(pres)
  assert res.presentation.names == ("w",)
  assert res.presentation.generators == (P(1, {(1,): 1, (4,): -1}),)
  assert res.substitutions["x"] == P(1, {(2,): 1})


def test_eliminate_bare_substitution_w_only():
  # no generator exposes a bare x here, so the w goes
  gens = [P(2, {(0, 1): 1, (2, 0): -1}),  # w - x^2
          P(2, {(0, 2): 1, (3, 0): -1})]  # w^2 - x^3
  pres = RingPresentation(["x", "w"], [1, 2], gens, ["box", "box"], "z")
  res = eliminate(pres)
  assert res.presentation.names == ("x",)
  assert res.presentation.generators == (P(1, {(4,): 1, (3,): -1}),)
  assert res.substitutions["w"] == P(1, {(2,): 1})


def test_format_poly():
  p = P(2, {(2, 0): 1, (1, 1): -4, (0, 0): Fraction(1, 2)})
  assert format_poly(p, ["x", "y"]) == "x^2 - 4*x*y + 1/2"
  assert format_poly(Poly.zero(1), ["x"]) == "0"
  assert format_poly(P(1, {(1,): -1}), ["x"]) == "-x"


def test_format_coeff_refuses_past_the_digit_limit():
  limit = 10 ** gradedpoly.MAX_DECIMAL_EXPONENT
  assert format_coeff(limit - 1) == "9" * 4300
  assert format_coeff(Fraction(1 - limit, 7)) == "-%s/7" % ("9" * 4300)
  assert format_coeff(Fraction(6, 2)) == "3"
  for c in (limit, -limit, Fraction(1, limit), Fraction(-limit, 7)):
    with pytest.raises(ValueError, match="more than 4300 decimal digits"):
      format_coeff(c)
  with pytest.raises(ValueError, match="more than 4300 decimal digits"):
    format_poly(P(1, {(1,): 2 ** 999999}), ["x"])


# -- property tests ----------------------------------------------------------

def _random_homogeneous(rng, nvars, deg):
  ms = monomials_of_degree([1] * nvars, deg)
  terms = {m: rng.randint(-3, 3) for m in ms}
  return Poly(nvars, terms)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3))
def test_graded_piece_order_independent(seed, nvars, ngens):
  rng = random.Random(seed)
  gens = [_random_homogeneous(rng, nvars, rng.choice([1, 2]))
          for _ in range(ngens)]
  gens = [g for g in gens if not g.is_zero()]
  names = ["x%d" % (i + 1) for i in range(nvars)]
  p1 = RingPresentation(names, [1] * nvars, gens, ["box"] * len(gens), "z")
  shuffled = list(gens)
  rng.shuffle(shuffled)
  # also toss in a redundant generator: a monomial multiple stays in the ideal
  if shuffled:
    lift = [0] * nvars
    lift[rng.randrange(nvars)] = 1
    shuffled.append(mul_monomial(shuffled[0], tuple(lift), 2))
  p2 = RingPresentation(names, [1] * nvars, shuffled,
                        ["box"] * len(shuffled), "z")
  for d in range(4):
    a, b = p1.graded_piece(d), p2.graded_piece(d)
    assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def _elimination_case(seed, nvars, domain):
  """A random graded presentation for eliminate: a linear form over the
  variables of x1's degree (Fraction coefficients over Q), maybe a bare
  substitution x_k - c*m, and a random form; degrees are mixed."""
  rng = random.Random(seed)
  degrees = [rng.choice([1, 1, 2, Fraction(1, 2)]) for _ in range(nvars)]
  names = ["x%d" % (i + 1) for i in range(nvars)]
  coeffs = list(range(-3, 4))
  if domain == "q":
    coeffs += [Fraction(1, 2), Fraction(-2, 3)]
  gens = [Poly.linear([rng.choice(coeffs) if d == degrees[0] else 0
                       for d in degrees])]
  k = rng.randrange(nvars)
  # monomials of x_k's degree without x_k: give x_k a degree too large
  others = [d if i != k else 1000 for i, d in enumerate(degrees)]
  ms = rational_monomials(others, degrees[k])
  if ms and rng.random() < 0.5:
    unit = tuple(int(i == k) for i in range(nvars))
    gens.append(Poly(nvars, {unit: 1, rng.choice(ms): rng.choice(coeffs)}))
  ms = rational_monomials(degrees, rng.choice(
      occurring_degrees(degrees, 2)[1:]))
  gens.append(Poly(nvars, {m: rng.choice(coeffs) for m in ms}))
  gens = [g for g in gens if not g.is_zero()]
  return RingPresentation(names, degrees, gens, ["box"] * len(gens), domain)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from("zq"))
def test_eliminate_preserves_pieces(seed, nvars, domain):
  pres = _elimination_case(seed, nvars, domain)
  res = eliminate(pres)
  for d in occurring_degrees(pres.degrees, 3):
    a = pres.graded_piece(d)
    b = res.presentation.graded_piece(d)
    assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_eliminate_clears_linear_denominators_over_q():
  # Q[x] / (x/2) is Q: the relation must not be truncated to 0
  half = Poly.linear([Fraction(1, 2)])
  pres = RingPresentation(["x"], [1], [half], None, "q")
  res = eliminate(pres)
  assert res.presentation.names == ()
  assert res.substitutions == {"x": Poly.zero(0)}
  assert [p.describe() for p in hilbert_table(pres, 2)] == ["Q", "0", "0"]
  # a torsion-free mixture: Q[x, y] / (x/2 - 2y/3) is Q[t]
  mixed = Poly.linear([Fraction(1, 2), Fraction(-2, 3)])
  pres = RingPresentation(["x", "y"], [1, 1], [mixed], None, "q")
  res = eliminate(pres)
  assert res.presentation.names == ("t",)
  assert res.presentation.generators == ()
  assert [p.describe() for p in hilbert_table(pres, 2)] == ["Q"] * 3


def _original_images(res, names):
  """Each original variable as a polynomial in the eliminated ring."""
  pres = res.presentation
  nn = len(pres.names)
  return [res.substitutions[nm] if nm in res.substitutions
          else Poly.variable(nn, pres.names.index(nm)) for nm in names]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from("zq"))
def test_eliminate_substitutions_land_in_ideal(seed, nvars, domain):
  pres = _elimination_case(seed, nvars, domain)
  names, gens = pres.names, pres.generators
  res = eliminate(pres)
  out = res.presentation
  nn = len(out.names)
  # a kept variable's image is its new index
  for name, got, want in zip(names, res.images, _original_images(res, names)):
    if name in res.substitutions:
      assert got == want
    else:
      assert type(got) is int and Poly.variable(nn, got) == want
  for g in gens:
    mapped = g.map_vars(nn, res.images)
    assert homogeneous_degree(mapped, out.degrees) is not None
    assert out.contains(mapped)
    # and so do its multiples up to degree 3
    for m in rational_monomials(out.degrees, 1):
      assert out.contains(mul_monomial(mapped, m))


def test_eliminate_substitution_chain():
  # x2 := x1*x3 comes first; the later x3 := x1^2 rewrites that substitution
  gens = [P(3, {(0, 1, 0): 1, (1, 0, 1): -1}),   # x2 - x1*x3
          P(3, {(0, 0, 1): -1, (2, 0, 0): 1}),   # -x3 + x1^2
          P(3, {(0, 2, 0): 1, (0, 0, 3): 1})]    # x2^2 + x3^3
  pres = RingPresentation(["x1", "x2", "x3"], [1, 3, 2], gens, ["a", "b", "c"],
                          "z")
  res = eliminate(pres)
  assert res.presentation.names == ("x1",)
  assert res.presentation.degrees == (1,)
  assert res.presentation.tags == ("c",)
  assert res.presentation.generators == (P(1, {(6,): 2}),)
  assert list(res.substitutions) == ["x2", "x3"]
  assert res.substitutions["x2"] == P(1, {(3,): 1})
  assert res.substitutions["x3"] == P(1, {(2,): 1})


def _reference_case(rng):
  """A random presentation for eliminate and its reference: linear rows
  times a factor (torsion), a chain of bare substitutions x_a - c*m with m
  holding the next variable of the chain, random polynomials (Fraction
  coefficients over Q), and maybe a block where a substitution cancels a
  variable from a generator the holders index still lists under it.

  A chain monomial holds at most one variable besides the next one, and
  every exponent outside the stale block is at most 1: composed chains
  with larger monomials blow up, and one seed in a few hundred then ran
  eliminate for seconds on outputs of tens of thousands of terms."""
  domain = rng.choice("zq")
  stale = rng.random() < 0.5
  nvars = rng.randint(1, 5)
  total = nvars + 4 * stale
  coeffs = [-3, -2, -1, 1, 2, 3]
  if domain == "q":
    coeffs += [Fraction(1, 2), Fraction(-2, 3)]

  def unit(i):
    return tuple(int(j == i) for j in range(total))

  gens = []
  for _ in range(rng.randint(0, 3)):
    factor = rng.choice([1, 1, 2, 3])
    gens.append(Poly.linear([factor * rng.choice([0] + coeffs)
                             for _ in range(total)]))
  chain = rng.sample(range(total), rng.randint(0, total))
  for t, a in enumerate(chain):
    m = [0] * total
    if t + 1 < len(chain):
      m[chain[t + 1]] = 1
    other = rng.randrange(total)
    if other != a and not m[other]:
      m[other] = rng.randint(0, 1)
    gens.append(Poly(total, {unit(a): rng.choice([1, -1]),
                             tuple(m): rng.choice(coeffs)}))
  for _ in range(rng.randint(0, 3)):
    gens.append(Poly(total, {
        tuple(rng.randint(0, 1) for _ in range(total)): rng.choice(coeffs)
        for _ in range(rng.randint(1, 3))}))
  if stale:
    # a := v*y empties a*z - v*y*z + z^2 of v before v := z^2
    a, v, y, z = (unit(i) for i in range(nvars, total))
    vy, z2 = tuple(map(add, v, y)), tuple(2 * e for e in z)
    gens += [Poly(total, {a: 1, vy: -1}),
             Poly(total, {tuple(map(add, a, z)): 1,
                          tuple(map(add, vy, z)): -1, z2: 1}),
             Poly(total, {v: 1, z2: -1})]
  rng.shuffle(gens)
  degrees = ([1] * total if rng.random() < 0.5 else
             [rng.choice([1, 2, Fraction(1, 2)]) for _ in range(total)])
  return RingPresentation(["x%d" % (i + 1) for i in range(total)], degrees,
                          gens, [str(k) for k in range(len(gens))], domain)


def _elimination_record(res):
  pres = res.presentation
  return (pres.names, pres.degrees, pres.generators, pres.tags, pres.domain,
          list(res.substitutions.items()), res.images)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_eliminate_matches_reference(seed):
  pres = _reference_case(random.Random(seed))
  assert _elimination_record(eliminate(pres)) == _elimination_record(
      reference_eliminate(pres))


def test_eliminate_skips_a_holder_a_substitution_emptied():
  # a := v*y turns a*z - v*y*z + z^2 into z^2, which the index still lists
  # under v; v := z^2 then tests it and leaves it as it is
  gens = [P(4, {(1, 0, 0, 0): 1, (0, 1, 1, 0): -1}),
          P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 1): -1, (0, 0, 0, 2): 1}),
          P(4, {(0, 1, 0, 0): 1, (0, 0, 0, 2): -1})]
  pres = RingPresentation(["a", "v", "y", "z"], [1] * 4, gens,
                          ["r1", "g", "r2"], "z")
  res = eliminate(pres)
  assert res.presentation.names == ("y", "z")
  assert res.presentation.generators == (P(2, {(0, 2): 1}),)
  assert res.presentation.tags == ("g",)
  assert res.substitutions == {"a": P(2, {(1, 2): 1}), "v": P(2, {(0, 2): 1})}
  assert _elimination_record(res) == _elimination_record(
      reference_eliminate(pres))


def test_eliminate_every_variable():
  pres = RingPresentation(["x"], [1], [P(1, {(1,): 1, (0,): -2})], ["box"],
                          "q")
  res = eliminate(pres)
  assert res.presentation.names == ()
  assert res.presentation.generators == ()
  assert res.substitutions == {"x": Poly.constant(0, 2)}


def _naive_expand(poly, new_nvars, images):
  """Term by term: c * prod images[i]^k, by repeated multiplication."""
  out = Poly.zero(new_nvars)
  for e, c in poly.terms.items():
    term = Poly.constant(new_nvars, c)
    for i, k in enumerate(e):
      for _ in range(k):
        term = term * images[i]
    out = out + term
  return out


def _random_poly(rng, nvars, nterms, maxexp):
  terms = {}
  for _ in range(nterms):
    exp = tuple(rng.randint(0, maxexp) for _ in range(nvars))
    terms[exp] = rng.choice([rng.randint(-4, 4),
                             Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
  return Poly(nvars, terms)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 6),
       st.booleans())
def test_map_vars_matches_naive_expansion(seed, nvars, new_nvars, reindex):
  rng = random.Random(seed)
  poly = _random_poly(rng, nvars, rng.randint(0, 5), 3)
  images = []
  for _ in range(nvars):
    draw = 0 if reindex else rng.randrange(3)
    if draw == 0:
      images.append(rng.randrange(new_nvars))
    elif draw == 1:
      images.append(Poly.variable(new_nvars, rng.randrange(new_nvars)))
    else:
      images.append(_random_poly(rng, new_nvars, rng.randint(0, 3), 2))
  polys = [Poly.variable(new_nvars, img) if type(img) is int else img
           for img in images]
  assert poly.map_vars(new_nvars, images) == _naive_expand(poly, new_nvars,
                                                           polys)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_substitute_matches_naive_expansion(seed, nvars):
  rng = random.Random(seed)
  poly = _random_poly(rng, nvars, rng.randint(0, 5), 3)
  i = rng.randrange(nvars)
  image = _random_poly(rng, nvars, rng.randint(0, 3), 2)
  images = [Poly.variable(nvars, j) for j in range(nvars)]
  images[i] = image
  got = poly.substitute(i, image)
  assert got == _naive_expand(poly, nvars, images)
  assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def test_pow_of_monomial_is_one_term_and_fast():
  x = Poly.variable(3, 0)
  start = time.perf_counter()
  p = x.pow(10 ** 6)
  assert time.perf_counter() - start < 1
  assert p.terms == {(10 ** 6, 0, 0): 1}
  assert P(2, {(1, 2): -2}).pow(3) == P(2, {(3, 6): -8})
  assert Poly.zero(2).pow(0) == Poly.constant(2, 1)
  assert Poly.zero(2).pow(2).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 6))
def test_pow_matches_repeated_multiplication(seed, nvars, k):
  rng = random.Random(seed)
  poly = _random_poly(rng, nvars, rng.randint(0, 3), 2)
  expected = Poly.constant(nvars, 1)
  for _ in range(k):
    expected = expected * poly
  assert poly.pow(k) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ideal_equal_unimodular_invariance(seed):
  rng = random.Random(seed)
  names = ["x1", "x2"]
  g1 = _random_homogeneous(rng, 2, 2)
  g2 = _random_homogeneous(rng, 2, 2)
  p1 = RingPresentation(names, [1, 1], [g1] if not g1.is_zero() else [],
                        ["box"] if not g1.is_zero() else [], "z")
  p2 = RingPresentation(names, [1, 1], [g2] if not g2.is_zero() else [],
                        ["box"] if not g2.is_zero() else [], "z")
  ok = first_generator_outside(p1, p2, 3) is None
  assert ok == (first_generator_outside(p2, p1, 3) is None)
  assert first_generator_outside(p1, p1, 3) is None
  # shear x1 -> x1 + 2 x2 on both sides
  images = [P(2, {(1, 0): 1, (0, 1): 2}), Poly.variable(2, 1)]
  t1 = RingPresentation(names, [1, 1],
                        [g.map_vars(2, images) for g in p1.generators],
                        p1.tags, "z")
  t2 = RingPresentation(names, [1, 1],
                        [g.map_vars(2, images) for g in p2.generators],
                        p2.tags, "z")
  assert ok == (first_generator_outside(t1, t2, 3) is None)


def _fraction_piece(pres, deg):
  """The graded piece from Fraction degrees alone: every generator times
  every monomial of the complementary degree, their echelon rows, and over
  Z the Smith form of all those rows."""
  basis = rational_monomials(pres.degrees, deg)
  index = {e: k for k, e in enumerate(basis)}
  rows = [dense({index[e]: c for e, c in mul_monomial(g, m).terms.items()},
                len(basis)) for g in pres.generators
          if not g.is_zero()
          for m in rational_monomials(
              pres.degrees, deg - homogeneous_degree(g, pres.degrees))]
  if pres.domain == "q":
    return GradedPieceReport(deg, len(basis) - QReducer(rows, len(basis)).rank,
                             (), "q")
  grp = AbGroup(len(basis), [dense(r, len(basis))
                             for r in ZReducer(rows, len(basis)).rows])
  return GradedPieceReport(deg, grp.free_rank, grp.invariant_factors, "z")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from("zq"))
def test_integer_grading_matches_fraction_reference(seed, nvars, domain):
  rng = random.Random(seed)
  degrees = [Fraction(rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(nvars)]
  names = ["x%d" % (i + 1) for i in range(nvars)]
  gens = []
  for _ in range(rng.randint(0, 3)):
    ms = rational_monomials(degrees, rng.choice(
        occurring_degrees(degrees, 3)[1:]))
    coeffs = [-2, -1, 1, 3] + ([Fraction(1, 2)] if domain == "q" else [])
    gens.append(Poly(nvars, {m: rng.choice(coeffs)
                             for m in rng.sample(ms, min(len(ms), 3))}))
  if rng.random() < 0.6:
    # a power of every variable: the pieces vanish from some degree on
    for i in range(nvars):
      exp = [0] * nvars
      exp[i] = rng.randint(1, 3)
      gens.append(Poly(nvars, {tuple(exp): rng.choice([1, 2])}))
  one, x1 = (0,) * nvars, (1,) + (0,) * (nvars - 1)
  mixed = gens + [Poly.zero(nvars), Poly(nvars, {x1: 1, one: 1})]
  pres = RingPresentation(names, degrees, mixed, None, domain)
  assert pres.generator_degrees() == tuple(
      homogeneous_degree(g, degrees) for g in mixed)
  assert pres.generator_degrees()[-2:] == (0, None)
  step = Fraction(1, pres.scale)
  for deg in (-1, -step, 0, step / 2, Fraction(1, 7), step, 1, Fraction(5, 2),
              Fraction(5, 2) + step / 3):
    for m in rational_monomials(degrees, deg):
      assert Fraction(sum(map(mul, m, pres.ideg)), pres.scale) == deg
  # sometimes below x1's degree, where the linear form below is dropped
  maxdeg = rng.choice([Fraction(rng.randint(0, 8), 2), degrees[0] / 2])
  gens.append(Poly.linear([rng.choice([-2, 1, 3]) if d == degrees[0] else 0
                           for d in degrees]))
  # generators above maxdeg, which hilbert_table leaves out of its ring
  above = [d for d in occurring_degrees(degrees, maxdeg + 3) if d > maxdeg]
  for _ in range(2):
    ms = rational_monomials(degrees, rng.choice(above))
    gens.append(Poly(nvars, {m: rng.choice([-1, 1, 2])
                             for m in rng.sample(ms, min(len(ms), 3))}))
  graded = RingPresentation(names, degrees, gens, None, domain)
  assert max(graded.generator_degrees()) > maxdeg
  table = hilbert_table(graded, maxdeg)
  assert table == [graded.graded_piece(d)
                   for d in occurring_degrees(degrees, maxdeg)]
  assert table == [_fraction_piece(graded, d)
                   for d in occurring_degrees(degrees, maxdeg)]


def test_pieces_on_the_standard_monomials(monkeypatch):
  def enumerated(dd, t):
    raise AssertionError("a reducer enumerated a monomial basis")

  monkeypatch.setattr(gradedpoly, "monomials_of_degree", enumerated)
  # Z[x]/(2x^2) has Z/2 in degree 2: 2x^2 is not a monomial generator over
  # Z, so x^2 stays a column; over Q it is one, and x^2 is no column
  x2 = P(1, {(2,): 2})
  for domain, texts in (("z", ["Z", "Z", "Z/2", "Z/2"]),
                        ("q", ["Q", "Q", "0", "0"])):
    pres = RingPresentation(["x"], [1], [x2], None, domain)
    assert [p.describe() for p in hilbert_table(pres, 3)] == texts
    assert pres.reducer(2).width == (domain == "z")
  # a unit generator: -1 leaves no standard monomial; 3 is a monomial
  # generator over Q only
  for domain, c, text in (("z", -1, "0"), ("q", 3, "0"), ("z", 3, "Z/3")):
    pres = RingPresentation(["x"], [1], [Poly.constant(1, c)], None, domain)
    assert [p.describe() for p in hilbert_table(pres, 2)] == [text] * 3
  # Z[x, y]/(x^2, -y^3, 2xy): xy^2 is the one standard monomial of degree 3,
  # and of the rows 2xy * x and 2xy * y only 2xy^2 keeps a term
  pres = RingPresentation(["x", "y"], [1, 1], [
      P(2, {(2, 0): 1}), P(2, {(0, 3): -1}), P(2, {(1, 1): 2})], None, "z")
  red = pres.reducer(3)
  assert (red.width, red.rows) == (1, ({(1, 2): 2},))
  assert pres.graded_piece(3).describe() == "Z/2"
  # reduce drops the nonstandard terms before the reducer sees them
  assert pres.reduce(P(2, {(3, 0): 5, (1, 2): 3, (0, 3): 7, (0, 1): 4})) == P(
      2, {(1, 2): 1, (0, 1): 4})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from("zq"))
def test_standard_monomial_pieces_match_the_full_basis(seed, nvars, domain):
  rng = random.Random(seed)
  degrees = [Fraction(rng.randint(1, 3), rng.randint(1, 2))
             for _ in range(nvars)]
  coeffs = [-1, 1, 1, 2, -3] + ([Fraction(1, 2)] if domain == "q" else [])
  gens = []
  for _ in range(rng.randint(0, 4)):
    # one term often: the monomial generators over Q, and over Z where the
    # coefficient is +/-1
    ms = rational_monomials(degrees, rng.choice(
        occurring_degrees(degrees, 3)[1:]))
    gens.append(Poly(nvars, {m: rng.choice(coeffs) for m in rng.sample(
        ms, min(len(ms), rng.choice([1, 1, 2, 3])))}))
  if rng.random() < 0.5:
    gens.append(Poly(nvars, {(2,) + (0,) * (nvars - 1): 2}))
  if rng.random() < 0.15:
    gens.append(Poly.constant(nvars, rng.choice([1, -1, 3])))
  rng.shuffle(gens)
  pres = RingPresentation(["x%d" % (i + 1) for i in range(nvars)], degrees,
                          gens, None, domain)
  degs = occurring_degrees(degrees, 4)
  for deg in degs:
    piece = pres.graded_piece(deg)
    assert (piece.free_rank, piece.torsion) == full_basis_piece(pres, deg)
  for _ in range(4):
    ms = [m for d in rng.sample(degs, min(len(degs), 3))
          for m in rational_monomials(degrees, d)]
    poly = Poly(nvars, {m: rng.choice(coeffs + [7])
                        for m in rng.sample(ms, min(len(ms), 6))})
    assert pres.reduce(poly) == full_basis_reduce(pres, poly)


def test_hilbert_table_below_the_linear_forms():
  # Z[x, y, w] / (2x - 3y, w^2 - x, 5w^3), deg x = deg y = 1, deg w = 1/2:
  # at maxdeg 1/2 every generator is left out, the linear form included
  gens = [Poly.linear([2, -3, 0]), P(3, {(0, 0, 2): 1, (1, 0, 0): -1}),
          P(3, {(0, 0, 3): 5})]
  for domain in "zq":
    pres = RingPresentation(["x", "y", "w"], [1, 1, Fraction(1, 2)], gens,
                            None, domain)
    for maxdeg in (0, Fraction(1, 2), 1, Fraction(3, 2), 3):
      assert hilbert_table(pres, maxdeg) == [
          pres.graded_piece(d) for d in occurring_degrees(pres.degrees,
                                                          maxdeg)]
    assert [p.describe() for p in hilbert_table(pres, Fraction(1, 2))] == [
        domain.upper()] * 2


def test_hilbert_table_refuses_mixed_generators_above_maxdeg():
  # the only mixed generator, x^3 + y^2, has every term above maxdeg 1
  x, y = Poly.variable(2, 0), Poly.variable(2, 1)
  pres = RingPresentation(["x", "y"], [1, 1], [x, x.pow(3) + y.pow(2)],
                          None, "z")
  assert pres.generator_degrees() == (1, None)
  with pytest.raises(ValueError, match="presentation is not graded"):
    hilbert_table(pres, 1)


def test_hilbert_table_stops_past_a_zero_window(monkeypatch):
  # Z[x, y] / (x^2, y^2), deg x = 1, deg y = 2: zero from degree 4 on
  asked = []
  piece = RingPresentation.graded_piece

  def recording(self, deg):
    asked.append(deg)
    return piece(self, deg)

  monkeypatch.setattr(RingPresentation, "graded_piece", recording)
  x2, y2 = P(2, {(2, 0): 1}), P(2, {(0, 2): 1})
  pres = RingPresentation(["x", "y"], [1, 2], [x2, y2], None, "z")
  table = hilbert_table(pres, 9)
  assert [p.describe() for p in table] == ["Z", "Z", "Z", "Z"] + ["0"] * 6
  # the window is [4, 6); no piece is computed above it
  assert asked == list(range(6))


def test_hilbert_table_row_limit(monkeypatch):
  # degree 5/2 in steps of 1/2 could need 6 rows
  monkeypatch.setattr(gradedpoly, "MAX_TABLE_ROWS", 6)
  pres = RingPresentation(["x"], [Fraction(1, 2)], [], None, "q")
  assert len(hilbert_table(pres, Fraction(5, 2))) == 6
  with pytest.raises(ValueError, match="limit of 6 table rows"):
    hilbert_table(pres, 3)


def test_hilbert_table_refuses_before_eliminating(monkeypatch):
  def eliminated(pres):
    raise AssertionError("eliminate ran on a refused presentation")

  monkeypatch.setattr(gradedpoly, "eliminate", eliminated)
  mixed = RingPresentation(["x"], [1], [P(1, {(1,): 1, (0,): 1})], None, "q")
  with pytest.raises(ValueError, match="presentation is not graded"):
    hilbert_table(mixed, 2)
  weightless = RingPresentation(["x", "w"], [1, 0], [], None, "q")
  with pytest.raises(ValueError, match="nonpositive variable degree"):
    hilbert_table(weightless, 2)
