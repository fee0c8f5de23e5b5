"""End-to-end checks of the shipped behavior, one criterion per test.

Each test prints a single pass/fail line (visible with -v or -s) so the
whole list reads as a checklist.  The random fan suite is seeded, so every
run exercises the same 25 fans.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from stackychow.charring import sr_ring
from stackychow.cli import (main as cli_main, parse_presentation_document,
                            print_presentation_document)
from stackychow.gradedpoly import (Poly, RingPresentation, eliminate,
                                   hilbert_table)
from stackychow.inertial import (Bundle, MINUS_INFINITY, ORBIFOLD,
                                 PLUS_INFINITY, ProductKind, VIRTUAL,
                                 associativity_witnesses, br_ideal,
                                 inertial_presentation, star_product)
from stackychow.stackyfan import StackyFan, weighted_projective_fan

from tests.conftest import (det, first_generator_outside, log_restriction,
                            log_trace, random_valid_fans)
from tests.test_inertial import (P654_INDEX, index_sets, p654_vplus_relations,
                                 stabilization_witnesses, v_classes)

F = Fraction


def report(num, ok, detail):
  print("criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
  assert ok, detail


def _p64():
  return StackyFan(1, (2,), ((2, 1), (-3, 0)), ((0,), (1,)))


def _p654():
  return StackyFan(2, (), ((2, 1), (0, 2), (-3, -4)),
                   ((0, 1), (1, 2), (0, 2)))


# -- seeded random fan suite ------------------------------------------------

@pytest.fixture(scope="module")
def fan_suite():
  return [_p64(), _p654()] + random_valid_fans(25, seed=20240816)


# -- 1: box of the weighted projective line with gerbe ------------------------

P64_PHASES = {
    (0, 0): ((0, 0), (0,)),
    (1, 0): ((F(1, 2), 0), (F(1, 4),)),
    (1, 1): ((F(1, 2), 0), (F(3, 4),)),
    (0, 1): ((0, 0), (F(1, 2),)),
    (-1, 0): ((0, F(1, 3)), (0,)),
    (-1, 1): ((0, F(1, 3)), (F(1, 2),)),
    (-2, 0): ((0, F(2, 3)), (0,)),
    (-2, 1): ((0, F(2, 3)), (F(1, 2),)),
}


def test_criterion_01_box_and_phase_table():
  fan = _p64()
  els = fan.box()
  ok = len(els) == 8
  for el in els:
    g = fan.group_element(el)
    ok = ok and (g.gamma_phases, g.s_phases) == P64_PHASES[el.v]
  report(1, ok, "8 box elements with the exact group phases, all rows")


# -- 2: box addition table ----------------------------------------------------

P64_ADD = {
    ("0", "0"): "0", ("0", "v1"): "v1", ("0", "v2"): "v2", ("0", "v3"): "v3",
    ("v1", "0"): "v1", ("v1", "v1"): "v3", ("v1", "v2"): "0",
    ("v1", "v3"): "v2",
    ("v2", "0"): "v2", ("v2", "v1"): "0", ("v2", "v2"): "v3",
    ("v2", "v3"): "v1",
    ("v3", "0"): "v3", ("v3", "v1"): "v2", ("v3", "v2"): "v1",
    ("v3", "v3"): "0",
}
P64_NAMES = {"0": (0, 0), "v1": (1, 1), "v2": (1, 0), "v3": (0, 1)}


def test_criterion_02_box_addition_table():
  fan = _p64()
  coords = {name: fan.box_lookup(v) for name, v in P64_NAMES.items()}
  back = {v: name for name, v in P64_NAMES.items()}
  checked = 0
  for (na, nb), nc in P64_ADD.items():
    got = fan.box_add(coords[na], coords[nb])
    assert back[got.v] == nc, (na, nb, got.v)
    checked += 1
  report(2, checked == 16, "all 16 box sums inside the ray cone agree")


# -- 3: logarithmic trace and restriction --------------------------------------

def test_criterion_03_log_trace_and_restriction():
  weights = (2, 4, 5, 6)
  wpf = weighted_projective_fan(weights)
  ones = (1,) * 4
  found = [v for v in wpf.box() if v.q == (F(2, 3), F(1, 3), F(2, 3), 0)]
  ok = len(found) == 1
  ok = ok and log_trace(found[0].q, ones) == (F(2, 3), F(1, 3), F(2, 3), 0)
  qs = [tuple(F(lam * w) % 1 for w in weights)
        for lam in (F(1, 6), F(1, 3), F(1, 2))]
  ok = ok and set(qs) <= {v.q for v in wpf.box()}
  ok = ok and log_restriction(qs, ones) == (0, 0, 1, 0)
  report(3, ok, "trace is (2/3, 1/3, 2/3, 0) and the restriction is L3")


# -- 4: q-vectors and the two-sided index sets ---------------------------------

REF_Q = {
    "v1": (0, F(1, 2), 0), "v2": (F(1, 2), F(1, 4), 0),
    "v3": (F(1, 2), F(3, 4), 0), "v4": (0, F(2, 3), F(1, 3)),
    "v5": (0, F(1, 6), F(1, 3)), "v6": (0, F(5, 6), F(2, 3)),
    "v7": (0, F(1, 3), F(2, 3)), "v8": (F(1, 5), 0, F(4, 5)),
    "v9": (F(2, 5), 0, F(3, 5)), "v10": (F(3, 5), 0, F(2, 5)),
    "v11": (F(4, 5), 0, F(1, 5)),
}
LABEL_TO_REF = {"w1": "v2", "w2": "v3", "w3": "v8", "w4": "v9", "w5": "v10",
                "w6": "v11", "w7": "v1", "w8": "v5", "w9": "v7", "w10": "v4",
                "w11": "v6"}


def test_criterion_04_q_vectors_and_index_sets():
  fan = _p654()
  ok = len(fan.box()) == 12
  sectors = {}
  for ours, theirs in LABEL_TO_REF.items():
    el = fan.box_lookup(P654_INDEX[ours])
    sectors[theirs] = el
    ok = ok and el.q == REF_Q[theirs]
  a = (5, 7, 11)
  pairs = {
      ("v1", "v2"): ((), (1,), (0, 0, 0), (0, 7, 0)),
      ("v2", "v2"): ((0,), (1,), (5, 0, 0), (0, 7, 0)),
      ("v2", "v3"): ((0, 1), (), (5, 7, 0), (0, 0, 0)),
  }
  for (na, nb), (bp, bm, vp, vm) in pairs.items():
    va, vb = sectors[na], sectors[nb]
    # B+ is the carry set and B- the minus flags off the boundary, both
    # from the star exponents and from the phase sums s = q1 + q2
    sums = [x + y for x, y in zip(va.q, vb.q)]
    ok = ok and index_sets(fan, va, vb) == (bp, bm)
    ok = ok and bp == tuple(i for i, s in enumerate(sums) if s >= 1)
    ok = ok and bm == tuple(i for i, s in enumerate(sums)
                            if va.q[i] and vb.q[i] and s < 1)
    # V± from the star exponents, and as the a_i L_i over B±
    ok = ok and v_classes(fan, va, vb, a) == (vp, vm)
    ok = ok and vp == tuple(k if i in bp else 0 for i, k in enumerate(a))
    ok = ok and vm == tuple(k if i in bm else 0 for i, k in enumerate(a))
  report(4, ok, "12 exact q-vectors; B and V tables agree on all three pairs")


# -- 5: the twisted-product relation display -----------------------------------

def test_criterion_05_twisted_relation_display():
  fan = _p654()
  ok = True
  for a in ((0, 0, 0), (1, 2, 3)):
    kind = ProductKind.v_plus(Bundle(a))
    got = br_ideal(fan, kind)
    ok = ok and len(got) == 30 and set(got) == p654_vplus_relations(fan, a)
    # the eliminated form of these relations contains w5^3 = w1 x3^(a3+1)
    # (from w5^2 = w7 and w5 w7 = w1 x3^(a3+1)), sharper than a w5^4 row
    v5 = fan.box_lookup(P654_INDEX["w8"])
    v7 = fan.box_lookup(P654_INDEX["w9"])
    t1, c1 = star_product(fan, kind, v5, v5)
    t2, c2 = star_product(fan, kind, v5, t1)
    ok = ok and t1 == v7 and c1 == Poly.constant(3, 1)
    x3 = Poly.variable(3, 2)
    ok = ok and t2 == fan.box_lookup(P654_INDEX["w7"]) and c2 == x3.pow(
        a[2] + 1)
  report(5, ok,
         "all 30 transcribed relations match at both bundles; the cube of "
         "the age-1/2 point sector is w1 * x3^(a3+1), so a quartic relation "
         "for it is redundant (witnessed over Q in criterion 6)")


# -- 6: the asymptotic presentation over Q -------------------------------------

REF_LABELS = ["w2", "w3", "w8", "w9", "w10", "w11", "w1", "w5", "w7", "w4",
                "w6"]

INF_DISPLAY = [
    (("t", 3),), (("t", 2), ("w1", 1)), (("t", 1), ("w2", 1)),
    (("t", 1), ("w5", 1)), (("t", 1), ("w8", 1)), (("t", 1), ("w9", 1)),
    (("t", 1), ("w10", 1)), (("t", 1), ("w11", 1)),
    (("w1", 1), ("w8", 1)), (("w1", 1), ("w9", 1)), (("w1", 1), ("w10", 1)),
    (("w1", 1), ("w11", 1)), (("w2", 1), ("w5", 1)), (("w2", 1), ("w8", 1)),
    (("w2", 1), ("w9", 1)), (("w2", 1), ("w10", 1)), (("w2", 1), ("w11", 1)),
    (("w5", 1), ("w8", 1)), (("w5", 1), ("w9", 1)), (("w5", 1), ("w10", 1)),
    (("w5", 1), ("w11", 1)), (("w1", 2),), (("w2", 2),), None,
    (("w8", 2),), (("w8", 1), ("w9", 1)), (("w8", 1), ("w10", 1)),
    (("w8", 1), ("w11", 1)), (("w9", 2),), (("w9", 1), ("w10", 1)),
    (("w10", 2),), (("w9", 1), ("w11", 1)), (("w11", 2),),
    (("w10", 1), ("w11", 1)),
]


def _display_presentation(red, w5_power):
  idx = {nm: i for i, nm in enumerate(red.names)}
  gens = []
  for mono in INF_DISPLAY:
    if mono is None:
      mono = (("w5", w5_power),)
    exp = [0] * len(red.names)
    for nm, p in mono:
      exp[idx[nm]] += p
    gens.append(Poly(len(red.names), {tuple(exp): 1}))
  return RingPresentation(red.names, red.degrees, gens, domain="q")


def test_criterion_06_asymptotic_presentation():
  fan = _p654()
  red = eliminate(inertial_presentation(fan, PLUS_INFINITY,
                                        labels=REF_LABELS)).presentation
  ok = set(red.names) == {"t", "w1", "w2", "w5", "w8", "w9", "w10", "w11"}
  ok = ok and first_generator_outside(
      red, _display_presentation(red, 3), 4) is None
  witness = first_generator_outside(red, _display_presentation(red, 4), 4)
  ok = ok and witness is not None and witness[0] == F(3, 2)
  report(6, ok,
         "recomputed ideal equals the reference transcription up to degree "
         "4 once its w5^4 row is tightened to w5^3; the untightened version "
         "differs first in degree 3/2")


# -- 7: graded pieces against an independent elimination ------------------------

def oracle_invariants(rows, width):
  """Nontrivial invariant factors from gcds of k x k minors."""
  rows = [list(r) for r in rows if any(r)]
  factors = []
  prev = 1
  for k in range(1, min(len(rows), width) + 1):
    g = 0
    for ridx in itertools.combinations(range(len(rows)), k):
      for cidx in itertools.combinations(range(width), k):
        g = math.gcd(g, det([[rows[r][c] for c in cidx] for r in ridx]))
        if g == 1:
          break
      if g == 1:
        break
    if g == 0:
      break
    factors.append(g // prev)
    prev = g
  return factors


def _line_rows(a, b, s, deg):
  """Relation rows for Z[x,y]/(a x - b y, s xy) in the degree-deg basis."""
  basis = [(deg - i, i) for i in range(deg + 1)]
  pos = {m: i for i, m in enumerate(basis)}
  rows = []
  for i in range(deg):
    row = [0] * len(basis)
    row[pos[(deg - i, i)]] += a
    row[pos[(deg - i - 1, i + 1)]] -= b
    rows.append(row)
  for i in range(deg - 1):
    row = [0] * len(basis)
    row[pos[(deg - 1 - i, i + 1)]] += s
    rows.append(row)
  return rows, len(basis)


def _piece_matches_oracle(pres, deg, a, b, s):
  piece = pres.graded_piece(F(deg))
  rows, width = _line_rows(a, b, s, deg)
  factors = oracle_invariants(rows, width)
  free = width - len(factors)
  torsion = tuple(f for f in factors if f > 1)
  return piece.free_rank == free and piece.torsion == torsion


def test_criterion_07_chow_ring_pieces():
  gerbe = sr_ring(_p64())
  table = [p.describe() for p in hilbert_table(gerbe, 3)]
  ok = table == ["Z", "Z", "Z/24", "Z/24"]
  for deg in range(4):
    ok = ok and _piece_matches_oracle(gerbe, deg, 2, -3, 4)
  checked = 0
  for a in range(2, 9):
    for b in range(a + 1, 10):
      if math.gcd(a, b) != 1:
        continue
      line = sr_ring(StackyFan(1, (), ((a,), (-b,)), ((0,), (1,))))
      piece = line.graded_piece(F(2))
      ok = ok and piece.free_rank == 0 and piece.torsion == (a * b,)
      ok = ok and _piece_matches_oracle(line, 2, a, -b, 1)
      checked += 1
  report(7, ok, "gerbe pieces are (Z, Z, Z/24, Z/24) and %d coprime "
                "weighted lines have degree-2 piece Z/ab, all against the "
                "minor-gcd oracle" % checked)


# -- 8: associativity, commutativity, units ------------------------------------

def _kinds_for(fan, rng):
  return [
      ORBIFOLD, VIRTUAL, PLUS_INFINITY, MINUS_INFINITY,
      ProductKind.v_plus(Bundle([rng.randint(0, 3) for _ in range(fan.n)])),
      ProductKind.v_minus(Bundle([rng.randint(0, 3) for _ in range(fan.n)])),
  ]


def test_criterion_08_associativity_suite(fan_suite):
  rng = random.Random(8)
  failures = []
  for fan in fan_suite:
    els = fan.box()
    for kind in _kinds_for(fan, rng):
      witnesses = associativity_witnesses(fan, kind)
      if witnesses:
        failures.append((fan, kind.name, witnesses[:3]))
      for i in range(len(els)):
        t, c = star_product(fan, kind, els[0], els[i])
        assert t == els[i] and c == Poly.constant(fan.n, 1)
        for j in range(i, len(els)):
          left = star_product(fan, kind, els[i], els[j])
          right = star_product(fan, kind, els[j], els[i])
          assert left == right
  report(8, not failures,
         "0 failures over %d fans x 6 kinds, every triple compared by full "
         "normal-form reduction in its target sector (no degree cap); units "
         "and commutativity on every pair" % len(fan_suite))


# -- 9: zero twist degenerates to the orbifold product --------------------------

def test_criterion_09_zero_bundle(fan_suite):
  ok = True
  for fan in fan_suite:
    zero = Bundle((0,) * fan.n)
    base = br_ideal(fan, ORBIFOLD)
    ok = ok and base == br_ideal(fan, ProductKind.v_plus(zero))
    ok = ok and base == br_ideal(fan, ProductKind.v_minus(zero))
  report(9, ok, "orbifold, plus-twist(0) and minus-twist(0) generator lists "
                "are identical on all %d fans" % len(fan_suite))


# -- 10: stabilization of the scaled twists -------------------------------------

def test_criterion_10_asymptotic_stabilization(fan_suite):
  bad = []
  compared = 0
  for fan in fan_suite:
    scale = fan.d + 1
    if stabilization_witnesses(fan, scale, plus=True):
      bad.append((fan, "+"))
    if stabilization_witnesses(fan, scale, plus=False):
      bad.append((fan, "-"))
    # also check literal ideal containment: every scaled generator reduces
    # to zero against the graded asymptotic presentation (the scaled side
    # is inhomogeneous, so containment runs one way; the witness sweep
    # above certifies the converse through the sector quotients); a fan
    # with an age-zero sector has no graded asymptotic presentation
    if any(v.age == 0 for v in fan.box()[1:]):
      continue
    big = Bundle((scale,) * fan.n)
    for kind, limit in ((ProductKind.v_plus(big), PLUS_INFINITY),
                        (ProductKind.v_minus(big), MINUS_INFINITY)):
      asym = inertial_presentation(fan, limit)
      for g in br_ideal(fan, kind):
        # fractional variable degrees make high-degree bases explode, so
        # the literal reduction is limited to the generators whose terms
        # all have degree at most 4, reachable with moderate-sized linear
        # algebra
        terms = [Poly(g.nvars, {e: 1}) for e in g.terms]
        if max(RingPresentation(asym.names, asym.degrees, terms,
                                domain="q").generator_degrees()) > 4:
          continue
        if not asym.contains(g):
          bad.append((fan, kind.name))
        compared += 1
  report(10, not bad,
         "scaled twist products match the asymptotic products over Q on all "
         "%d fans at scale dim+1, generator by generator; %d scaled "
         "generators also shown inside the asymptotic ideals "
         "by degreewise reduction" % (len(fan_suite), compared))


# -- 11: round trips -------------------------------------------------------------

def test_criterion_11_round_trips(fan_suite, tmp_path, capsys):
  ok = True
  for fan in fan_suite:
    # the group element of a sector determines it, and its gamma is q
    phases = set()
    for el in fan.box():
      g = fan.group_element(el)
      ok = ok and g.gamma_phases == el.q
      phases.add((g.gamma_phases, g.s_phases))
    ok = ok and len(phases) == len(fan.box())
  doc = tmp_path / "fan.json"
  doc.write_text(json.dumps({
      "schema": "stacky-chow/1", "rank": 2, "torsion": [],
      "b": [[2, 1], [0, 2], [-3, -4]],
      "max_cones": [[1, 2], [2, 3], [1, 3]]}))
  outputs = []
  for _ in range(2):
    for argv in (["box", str(doc)], ["chow", str(doc)],
                 ["inertial", str(doc), "--product", "virtual"]):
      assert cli_main(argv) == 0
      outputs.append(capsys.readouterr().out)
  ok = ok and outputs[:3] == outputs[3:]
  pres, metadata = parse_presentation_document(json.loads(outputs[2]))
  reprint = json.dumps(print_presentation_document(pres, metadata),
                       sort_keys=True, indent=2) + "\n"
  ok = ok and reprint == outputs[2]
  report(11, ok, "group-element round trip on every box element of %d fans; "
                 "CLI output byte-stable and presentation documents "
                 "re-print identically" % len(fan_suite))
