import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from stackychow import charring, cli, inertial
from stackychow.charring import sr_ring
from stackychow.cli import (CliError, MAX_POWER, PRODUCT_NAMES, SCHEMA, main,
                            parse_fan_document, parse_presentation_document,
                            print_fan_document, print_presentation_document)
from stackychow.gradedpoly import Poly, RingPresentation
from stackychow.inertial import Bundle
from stackychow.lattice import AbGroup
from stackychow.stackyfan import StackyFan, weighted_projective_fan
from tests.conftest import dense, rational_monomials, valid_fans

P64_DOC = {
    "schema": "stacky-chow/1",
    "rank": 1,
    "torsion": [2],
    "b": [[2, 1], [-3, 0]],
    "max_cones": [[1], [2]],
}

# sector labels follow the display names of the weighted projective plane:
# our box order visits the plane sectors, then the two cones, so the labels
# permute accordingly
P654_DOC = {
    "schema": "stacky-chow/1",
    "rank": 2,
    "torsion": [],
    "b": [[2, 1], [0, 2], [-3, -4]],
    "max_cones": [[1, 2], [2, 3], [1, 3]],
    "bundle": [1, 2, 3],
    "labels": {"1": "w2", "2": "w3", "3": "w8", "4": "w9", "5": "w10",
               "6": "w11", "7": "w1", "8": "w5", "9": "w7", "10": "w4",
               "11": "w6"},
}


# a rank-2 fan with Z/3 torsion whose first tilde class has four terms in the
# x variables, so star coefficients expand into many terms
TORSION4_DOC = {
    "schema": "stacky-chow/1",
    "rank": 2,
    "torsion": [3],
    "b": [[-2, 0, 1], [-1, -1, 1], [0, -1, 0], [1, -1, 2]],
    "max_cones": [[1, 2], [2, 3], [3, 4]],
}


# four rays in the plane whose Chow ring over Z has torsion in every degree
# from 2 on; a row-echelon pass without entry control blew up on degree 6
BLOWUP_DOC = {
    "schema": "stacky-chow/1",
    "rank": 2,
    "torsion": [],
    "b": [[-1, 0], [-2, -2], [0, -3], [3, -3]],
    "max_cones": [[1, 2], [2, 3], [3, 4]],
}


# a rank-3 fan with Z/2 torsion whose Chow ring over Z is
# Z/2 + Z/2 + Z/288 in every degree from 2 on; reducing in the full ring,
# the default maxdeg 8 did not finish in 120 s
TORSION_CHOW_DOC = {
    "schema": "stacky-chow/1",
    "rank": 3,
    "torsion": [2],
    "b": [[-2, 1, 0, 1], [-3, 2, -3, 1], [3, 2, 2, 0], [-1, 2, -1, 0],
          [0, 3, 3, 0], [3, -2, 2, 0]],
    "max_cones": [[6], [3, 5], [1, 4], [1, 2, 4]],
}

@pytest.fixture(scope="session")
def docs(tmp_path_factory):
  root = tmp_path_factory.mktemp("docs")
  paths = {}
  p7911 = print_fan_document(weighted_projective_fan((7, 9, 11)),
                             Bundle((1, 0, 2)))
  for name, doc in (("p64", P64_DOC), ("p654", P654_DOC), ("p7911", p7911),
                    ("torsion4", TORSION4_DOC), ("blowup", BLOWUP_DOC),
                    ("torsion_chow", TORSION_CHOW_DOC)):
    p = root / (name + ".json")
    p.write_text(json.dumps(doc))
    paths[name] = str(p)
  return paths


def run(capsys, *argv):
  code = main(list(argv))
  captured = capsys.readouterr()
  return code, captured.out, captured.err


def run_json(capsys, *argv):
  code, out, err = run(capsys, *argv)
  assert code == 0, err
  return json.loads(out)


# -- parsing and exit codes -----------------------------------------------------

def test_validate_ok(docs, capsys):
  doc = run_json(capsys, "validate", docs["p64"])
  assert doc == {"schema": "stacky-chow/1", "valid": True, "errors": []}


def test_validate_reports_hypothesis_failure(tmp_path, capsys):
  bad = tmp_path / "flat.json"
  bad.write_text(json.dumps({
      "schema": "stacky-chow/1", "rank": 2, "torsion": [],
      "b": [[1, 0]], "max_cones": [[1]]}))
  code, out, err = run(capsys, "validate", str(bad))
  assert code == 2
  assert "Sigma does not span N_R" in json.loads(out)["errors"]
  code, out, err = run(capsys, "box", str(bad))
  assert code == 2 and "Sigma does not span N_R" in err


def schema_case(tmp_path, capsys, doc, needle, raw=None):
  p = tmp_path / "doc.json"
  p.write_text(raw if raw is not None else json.dumps(doc))
  code, out, err = run(capsys, "validate", str(p))
  assert code == 1 and needle in err


def test_schema_errors(tmp_path, capsys):
  schema_case(tmp_path, capsys, None, "line 1", raw="{not json")
  schema_case(tmp_path, capsys, None, "recursion",
              raw="[" * 100000 + "]" * 100000)
  schema_case(tmp_path, capsys, None, "5000 digits",
              raw=json.dumps({**P64_DOC, "rank": 0}).replace(
                  '"rank": 0', '"rank": ' + "1" * 5000))
  schema_case(tmp_path, capsys, {**P64_DOC, "schema": "v2"}, "field schema")
  schema_case(tmp_path, capsys, {**P64_DOC, "extra": 1}, "unknown field extra")
  schema_case(tmp_path, capsys, {**P64_DOC, "b": [[2, 1], [-3]]}, "b[1]")
  schema_case(tmp_path, capsys, {**P64_DOC, "rank": True}, "expected an integer")
  schema_case(tmp_path, capsys, {**P64_DOC, "max_cones": [[1], [3]]},
              "out of range")
  schema_case(tmp_path, capsys, {**P64_DOC, "torsion": [1]}, "at least 2")
  schema_case(tmp_path, capsys,
              {**P654_DOC, "labels": {"1": "a", "2": "a"}}, "not distinct")
  code, out, err = run(capsys, "box", str(tmp_path / "absent.json"))
  assert code == 1 and "cannot read" in err


def test_numbers_take_ascii_digits_only(tmp_path, capsys, docs):
  # int() and Fraction() also read the digits of other scripts, and "1_0"
  for doc in ({**P64_DOC, "rank": "\u0662"}, {**P64_DOC, "rank": "1_0"},
              {**P654_DOC, "labels": {"\u0661": "a"}}):
    schema_case(tmp_path, capsys, doc, "is not a decimal integer")
  v_plus = ("multiply", docs["p654"], "--product", "v-plus", "w1", "w2")
  code, out, err = run(capsys, *v_plus, "--bundle", "\u0663,1_0,+2")
  assert code == 3 and "--bundle: " in err and out == ""
  code, out, err = run(capsys, "hilbert", docs["p64"], "--maxdeg",
                       "\u0661/\u0662")
  assert code == 3 and "--maxdeg: " in err and out == ""
  # signs and the whitespace around a number are still read
  p = tmp_path / "signed.json"
  p.write_text(json.dumps({**P64_DOC, "rank": " +1", "torsion": ["+2"]}))
  assert run_json(capsys, "validate", str(p))["valid"]
  assert (run_json(capsys, *v_plus, "--bundle", "+1, 2,3")
          == run_json(capsys, *v_plus, "--bundle", "1,2,3"))
  assert (run_json(capsys, "hilbert", docs["p64"], "--maxdeg", " +3/1")
          == run_json(capsys, "hilbert", docs["p64"], "--maxdeg", "3"))


def _one_variable_document(name="x", degree="1", tag="box", coeff="1",
                           powers=((1, 1),)):
  return {"schema": SCHEMA, "coefficients": "q",
          "variables": [{"name": name, "degree": degree}],
          "generators": [{"tag": tag, "terms": [
              {"coeff": coeff, "powers": [list(p) for p in powers]}]}]}


def test_presentation_document_numbers_refused_fast():
  # Fraction alone builds a 3 * 10^7-digit integer for either exponent
  for bad, needle in (({"coeff": "1e30000000"}, "decimal exponent beyond"),
                      ({"degree": "1e-30000000"}, "decimal exponent beyond"),
                      ({"coeff": "\u0663"}, "is not a rational"),
                      ({"degree": "1_0"}, "is not a rational")):
    start = time.perf_counter()
    with pytest.raises(CliError, match=needle) as exc:
      parse_presentation_document(_one_variable_document(**bad))
    assert exc.value.code == 1 and "schema error" in str(exc.value)
    assert time.perf_counter() - start < 1
  pres, _ = parse_presentation_document(
      _one_variable_document(degree=" 1e-2", coeff="-3/2"))
  assert pres.degrees == (Fraction(1, 100),)
  assert pres.generators[0].terms == {(1,): Fraction(-3, 2)}


@pytest.mark.parametrize("field, bad, needle", [
    ("name", [1], "variables[0].name: expected a nonempty string"),
    ("name", 5, "variables[0].name: expected a nonempty string"),
    ("name", "", "variables[0].name: expected a nonempty string"),
    ("tag", [1], "generators[0].tag: expected a string"),
    ("degree", 0.1, "variables[0].degree: expected a string"),
    ("degree", True, "variables[0].degree: expected a string"),
], ids=["name-list", "name-number", "name-empty", "tag-list", "degree-number",
        "degree-bool"])
def test_presentation_document_fields_are_strings(field, bad, needle):
  with pytest.raises(CliError) as exc:
    parse_presentation_document(_one_variable_document(**{field: bad}))
  assert exc.value.code == 1
  assert str(exc.value) == "schema error: field " + needle


def test_presentation_document_refuses_a_negative_degree():
  for degree in ("-1", "-1/2"):
    with pytest.raises(CliError) as exc:
      parse_presentation_document(_one_variable_document(degree=degree))
    assert exc.value.code == 1
    assert str(exc.value) == ("schema error: field variables[0].degree: "
                              "must be nonnegative")
  pres, _ = parse_presentation_document(_one_variable_document(degree="0"))
  assert pres.degrees == (0,)


def test_presentation_document_refuses_a_power_above_the_limit():
  needle = ("schema error: field generators[0].terms[0].powers: power of "
            "variable 1 is above %d" % MAX_POWER)
  # a repeated variable counts with the sum of its powers
  for powers in (((1, 10 ** 30),), ((1, MAX_POWER + 1),),
                 ((1, MAX_POWER), (1, 1))):
    with pytest.raises(CliError) as exc:
      parse_presentation_document(_one_variable_document(powers=powers))
    assert exc.value.code == 1 and str(exc.value) == needle
  pres, _ = parse_presentation_document(
      _one_variable_document(powers=((1, MAX_POWER),)))
  assert pres.generators[0].terms == {(MAX_POWER,): 1}


@pytest.fixture(scope="module")
def printed_presentations(docs):
  """The presentation documents that inertial, inertial --simplify, chow
  and inertial --product minus-inf print."""
  out = []
  for argv in (("inertial", docs["p654"]),
               ("inertial", docs["p654"], "--simplify"),
               ("chow", docs["p64"]),
               ("inertial", docs["p654"], "--product", "minus-inf")):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
      assert main(list(argv)) == 0
    out.append(text.getvalue())
  return out


def _leaf_paths(node, path=()):
  """The key paths to the leaves of a JSON value: its scalars and its
  empty containers."""
  if isinstance(node, (dict, list)) and node:
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
      yield from _leaf_paths(child, path + (key,))
  else:
    yield path


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10 ** 7), st.just(0.5),
    st.text(max_size=6), st.just([]), st.just({}), st.just([1, 2]),
    st.sampled_from(["0", "-1", "1/0", "3/2", "1e30000000", "1e-30000000",
                     str(MAX_POWER + 1), "w1", "x1", "z", "q", "box"]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_presentation_document_mutations(printed_presentations, data):
  # a printed document with one to three leaves replaced reads back as a
  # presentation or is refused with the program's own errors, quickly
  doc = json.loads(data.draw(st.sampled_from(printed_presentations)))
  paths = list(_leaf_paths(doc))
  for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                 max_size=3)):
    node = doc
    for key in path[:-1]:
      node = node[key]
    node[path[-1]] = data.draw(_LEAVES)
  start = time.perf_counter()
  try:
    pres, _ = parse_presentation_document(doc)
  except (CliError, ValueError):
    pass
  else:
    assert isinstance(pres, RingPresentation)
  assert time.perf_counter() - start < 1


def test_bundle_above_the_limit_is_refused(tmp_path, capsys, docs):
  # a star exponent is a bundle coefficient plus one carry, and a printed
  # power above MAX_POWER would not read back
  code, out, err = run(capsys, "inertial", docs["p654"], "--product",
                       "v-plus", "--bundle", "2000000,0,0")
  assert (code, out) == (3, "")
  assert err == ("stacky-chow: --bundle: coefficient 2000000 is above the "
                 "limit of %d\n" % (MAX_POWER - 1))
  schema_case(tmp_path, capsys, {**P654_DOC, "bundle": ["0", str(MAX_POWER),
                                                        "0"]},
              "field bundle: coefficient %d is above the limit of %d"
              % (MAX_POWER, MAX_POWER - 1))


def test_simplify_memory_is_linear_in_the_bundle(docs):
  # eliminate kept every power of an image up to the largest, so its memory
  # grew with the square of the bundle: 200000 raised MemoryError.  A
  # coefficient past the interpreter's 4300-digit limit exits 3
  src = str(Path(__file__).resolve().parents[1] / "src")

  def cap():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

  done = subprocess.run(
      [sys.executable, "-m", "stackychow.cli", "inertial", docs["p654"],
       "--simplify", "--product", "v-plus", "--bundle", "200000,0,0"],
      capture_output=True, env={**os.environ, "PYTHONPATH": src},
      timeout=60, preexec_fn=cap)
  assert done.returncode == 0 or (done.returncode == 3 and
                                  done.stderr.startswith(b"stacky-chow: "))
  assert b"Traceback" not in done.stderr


def test_the_module_runs_as_a_process(tmp_path, capsys, docs):
  src = str(Path(__file__).resolve().parents[1] / "src")
  env = {**os.environ, "PYTHONPATH": src}

  def process(*argv):
    done = subprocess.run([sys.executable, "-m", "stackychow.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return done.returncode, done.stdout

  job = ("inertial", docs["p654"], "--product", "v-plus", "--simplify")
  code, out, _ = run(capsys, *job)
  assert process(*job) == (0, out.encode())
  bad = tmp_path / "bad.json"
  bad.write_text("{not json")
  flat = tmp_path / "flat.json"
  flat.write_text(json.dumps({"schema": SCHEMA, "rank": 2, "torsion": [],
                              "b": [[1, 0]], "max_cones": [[1]]}))
  codes = [process(*argv)[0] for argv in (
      ("validate", docs["p64"]), ("validate", str(bad)),
      ("validate", str(flat)), ("multiply", docs["p654"], "nope", "w1"))]
  assert codes == [0, 1, 2, 3]


_TRACED_JOBS = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import spans
from stackychow import charring, cli
tracer = spans.Tracer()
spans.install(tracer)
assert len(charring._character_cache) == 0
doc = sys.argv[2]
for k, argv in enumerate((["hilbert", doc, "--maxdeg", "2"],
                          ["inertial", doc, "--simplify"],
                          ["check-assoc", doc])):
  with contextlib.redirect_stdout(io.StringIO()):
    assert tracer.job(k, cli.main, argv) == 0, argv
layers = tracer.layers()
for name in ("gradedpoly.reducer", "gradedpoly.eliminate", "inertial.assoc",
             "stackyfan.box", "cli.emit"):
  assert layers[name][0] > 0, name
"""


def test_the_benchmark_tracer_patches_every_name_it_names(docs):
  # perfbench/spans.py wraps program names from outside the program, and
  # perfbench/run.py reads charring._character_cache: a deleted or renamed
  # name fails only the traced benchmark runs unless a test installs them.
  # A fresh process keeps the patches out of the other tests.
  root = Path(__file__).resolve().parents[1]
  env = {**os.environ, "PYTHONPATH": str(root / "src")}
  done = subprocess.run(
      [sys.executable, "-c", _TRACED_JOBS, str(root / "perfbench"),
       docs["p654"]], capture_output=True, env=env, timeout=120, text=True)
  assert done.returncode == 0, done.stderr


def test_the_readme_runs(tmp_path, capsys):
  # the Python block runs as a script, and every stacky-chow example line
  # exits 0 on the README's fan document, which has a bundle and labels
  root = Path(__file__).resolve().parents[1]
  readme = (root / "README.md").read_text()
  script = readme.split("```python\n")[1].split("```")[0]
  done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                        env={**os.environ, "PYTHONPATH": str(root / "src")},
                        timeout=120)
  assert done.returncode == 0, done.stderr.decode()
  fan = tmp_path / "fan.json"
  fan.write_text(readme.split("```json\n")[1].split("```")[0])
  lines = [line.split()[1:] for line in readme.splitlines()
           if line.startswith("stacky-chow ")]
  assert len(lines) == 8
  for argv in lines:
    code, _, err = run(capsys, *[str(fan) if a == "fan.json" else a
                                 for a in argv])
    assert code == 0, (argv, err)


def test_usage_errors(capsys, docs):
  assert run(capsys, "box", docs["p64"], "--product", "bogus")[0] == 3
  assert run(capsys, "--help")[0] == 0


def test_semantic_errors(docs, capsys):
  code, out, err = run(capsys, "inertial", docs["p64"], "--product", "v-plus")
  assert code == 3 and "requires a bundle" in err
  code, out, err = run(capsys, "inertial", docs["p64"], "--product",
                       "plus-inf", "--coeff", "z")
  assert code == 3 and "rational coefficients" in err
  code, out, err = run(capsys, "multiply", docs["p654"], "nope", "w1")
  assert code == 3 and "unknown sector" in err


# -- box tables -----------------------------------------------------------------

def test_box_p64_rows(docs, capsys):
  doc = run_json(capsys, "box", docs["p64"])
  rows = doc["box"]
  assert [r["label"] for r in rows] == [
      "1", "w1", "w2", "w3", "w4", "w5", "w6", "w7"]
  table = {r["label"]: (r["v"], r["gamma"], r["s"], r["age"]) for r in rows}
  assert table["1"] == (["0", "0"], ["0", "0"], ["0"], "0")
  assert table["w1"] == (["0", "1"], ["0", "0"], ["1/2"], "0")
  assert table["w2"] == (["1", "0"], ["1/2", "0"], ["1/4"], "1/2")
  assert table["w3"] == (["1", "1"], ["1/2", "0"], ["3/4"], "1/2")
  assert table["w4"] == (["-1", "0"], ["0", "1/3"], ["0"], "1/3")
  assert table["w5"] == (["-1", "1"], ["0", "1/3"], ["1/2"], "1/3")
  assert table["w6"] == (["-2", "0"], ["0", "2/3"], ["0"], "2/3")
  assert table["w7"] == (["-2", "1"], ["0", "2/3"], ["1/2"], "2/3")


def test_box_is_byte_stable(docs, capsys):
  first = run(capsys, "box", docs["p654"])
  second = run(capsys, "box", docs["p654"])
  assert first == second and first[1].endswith("\n")


# -- presentation documents -----------------------------------------------------

def test_chow_document_roundtrip(docs, capsys):
  code, out, err = run(capsys, "chow", docs["p654"])
  assert code == 0
  pres, metadata = parse_presentation_document(json.loads(out))
  expected = sr_ring(parse_fan_document(P654_DOC)[0])
  assert pres.names == expected.names
  assert pres.degrees == expected.degrees
  assert pres.generators == expected.generators
  assert pres.tags == expected.tags
  assert metadata["product"] is None
  assert metadata["psi"] == [["1", "0", "0"], ["0", "1", "0"],
                             ["0", "0", "1"]]
  assert metadata["warnings"] == []


def test_chow_psi_matrix_with_torsion(docs, capsys):
  doc = run_json(capsys, "chow", docs["p64"])
  assert doc["metadata"]["psi"] == [["2", "0"], ["0", "2"]]
  # a nonidentity sector of age zero blocks graded queries; the document
  # carries the warning
  assert any(w.startswith("age-zero-sector") for w in
             run_json(capsys, "inertial", docs["p64"])["metadata"]["warnings"])


def test_fan_document_canonical_fixpoint():
  fan, bundle, labels = parse_fan_document(P654_DOC)
  printed = print_fan_document(fan, bundle, labels)
  fan2, bundle2, labels2 = parse_fan_document(printed)
  assert (fan2.d, fan2.torsion, fan2.rays, fan2.max_cones) == (
      fan.d, fan.torsion, fan.rays, fan.max_cones)
  assert bundle2 == bundle and labels2 == labels
  assert print_fan_document(fan2, bundle2, labels2) == printed


def test_inertial_simplify_matches_display_variables(docs, capsys):
  doc = run_json(capsys, "inertial", docs["p654"], "--product", "v-plus",
                 "--simplify")
  names = {v["name"] for v in doc["variables"]}
  assert names == {"t", "w1", "w2", "w5", "w8", "w9", "w10", "w11"}
  assert "eliminated" in doc["metadata"]
  pres, _ = parse_presentation_document(doc)
  assert pres.names == tuple(v["name"] for v in doc["variables"])


def test_age_zero_sector_document_roundtrip(docs, capsys):
  # a pure-torsion sector has degree 0, which a document may carry
  code, out, _ = run(capsys, "inertial", docs["p64"])
  assert code == 0
  doc = json.loads(out)
  assert "0" in [v["degree"] for v in doc["variables"]]
  pres, metadata = parse_presentation_document(doc)
  reprinted = json.dumps(print_presentation_document(pres, metadata),
                         sort_keys=True, indent=2) + "\n"
  assert reprinted == out


def test_inertial_document_roundtrip_byte_stable(docs, capsys):
  first = run(capsys, "inertial", docs["p654"], "--product", "v-minus")
  second = run(capsys, "inertial", docs["p654"], "--product", "v-minus")
  assert first == second
  doc = json.loads(first[1])
  pres, metadata = parse_presentation_document(doc)
  assert metadata["bundle"] == ["1", "2", "3"]
  reprinted = json.dumps(print_presentation_document(pres, metadata),
                         sort_keys=True, indent=2) + "\n"
  assert reprinted == first[1]


# -- multiplication -------------------------------------------------------------

def test_multiply_display_example(docs, capsys):
  doc = run_json(capsys, "multiply", docs["p654"], "--product", "orbifold",
                 "w1", "w2")
  assert doc["target"] == "w3" and not doc["zero"]
  assert doc["coefficient"]["terms"] == [{"coeff": "1", "powers": []}]
  code, out, err = run(capsys, "multiply", docs["p654"], "--product",
                       "orbifold", "w1", "w2", "--format", "text")
  assert code == 0 and out == "w3\n"


def test_multiply_no_common_cone(docs, capsys):
  doc = run_json(capsys, "multiply", docs["p654"], "w1", "w8")
  assert doc["zero"] and doc["target"] is None


def test_multiply_identity_and_bare_indices(docs, capsys):
  doc = run_json(capsys, "multiply", docs["p654"], "0", "w5")
  assert doc["factors"] == ["1", "w5"] and doc["target"] == "w5"
  assert doc["coefficient"]["text"] == "1"
  # bare 3 is box row 3, the sector labeled w8
  doc = run_json(capsys, "multiply", docs["p654"], "3", "3")
  assert doc["factors"] == ["w8", "w8"]


def test_multiply_refuses_non_ascii_digits(docs, capsys):
  # '²' and '٣' are str.isdigit; neither is a box index nor a w<k> suffix
  for token in ("\u00b2", "\u0663", "w\u0663"):
    code, out, err = run(capsys, "multiply", docs["p654"], token, "0")
    assert code == 3 and "unknown sector" in err and out == ""


def test_multiply_twisted_coefficient(docs, capsys):
  # the age-1/2 sector squares into the pure-torsion sector with the ray
  # class doubled twice: once from the crossing, once from the twist
  doc = run_json(capsys, "multiply", docs["p64"], "--product", "virtual",
                 "w2", "w2")
  assert doc["target"] == "w1"
  assert doc["coefficient"]["terms"] == [
      {"coeff": "4", "powers": [[1, 2]]}]


@pytest.mark.parametrize("max_cones", [[[]], []])
def test_multiply_on_the_point(tmp_path, capsys, max_cones):
  # rank 0, no rays: the only sector is the identity, with the zero cone
  # listed or left out
  p = tmp_path / "point.json"
  p.write_text(json.dumps({"schema": "stacky-chow/1", "rank": 0,
                           "torsion": [], "b": [], "max_cones": max_cones}))
  doc = run_json(capsys, "multiply", str(p), "0", "0")
  assert doc["target"] == "1" and not doc["zero"]
  assert doc["coefficient"]["terms"] == [{"coeff": "1", "powers": []}]


# -- checks and tables ----------------------------------------------------------

def test_check_assoc(docs, capsys):
  for product in ("orbifold", "v-minus", "minus-inf"):
    doc = run_json(capsys, "check-assoc", docs["p654"], "--product", product)
    assert doc["associative"] is True and doc["witnesses"] == []


def _break_associativity(monkeypatch):
  """One more power of the first ray on the sector pair (1, 2)."""
  real = inertial.star_exponents

  def star_exponents(fan, kind, v1, v2):
    target, exps = real(fan, kind, v1, v2)
    if exps is not None and (fan.box_index(v1), fan.box_index(v2)) == (1, 2):
      exps = (exps[0] + 1,) + exps[1:]
    return target, exps
  monkeypatch.setattr(inertial, "star_exponents", star_exponents)


def test_check_assoc_reports_first_witness(docs, capsys, monkeypatch):
  _break_associativity(monkeypatch)
  doc = run_json(capsys, "check-assoc", docs["p654"])
  assert doc["associative"] is False and doc["witnesses"]
  code, out, err = run(capsys, "check-assoc", docs["p654"], "--format", "text")
  assert code == 0 and err == ""
  assert out == "NOT associative: first witness (%s)\n" % ", ".join(
      doc["witnesses"][0])


def test_hilbert_table(docs, capsys):
  doc = run_json(capsys, "hilbert", docs["p64"], "--maxdeg", "3")
  assert [r["text"] for r in doc["pieces"]] == ["Z", "Z", "Z/24", "Z/24"]
  code, out, err = run(capsys, "hilbert", docs["p64"], "--maxdeg", "x")
  assert code == 3
  code, out, err = run(capsys, "hilbert", docs["p64"], "--maxdeg", "-1")
  assert code == 3 and "negative" in err and out == ""
  start = time.perf_counter()
  code, out, err = run(capsys, "hilbert", docs["p64"], "--maxdeg", "1e400")
  assert code == 3 and "limit of 1000000 table rows" in err and out == ""
  assert time.perf_counter() - start < 1
  # a huge decimal exponent is refused before Fraction builds the integer
  for maxdeg in ("1e100000000", "1e-100000000"):
    start = time.perf_counter()
    code, out, err = run(capsys, "hilbert", docs["p64"], "--maxdeg", maxdeg)
    assert code == 3 and "--maxdeg: " in err and out == ""
    assert time.perf_counter() - start < 1
  assert run_json(capsys, "hilbert", docs["p64"], "--maxdeg", "0")[
      "pieces"] == [{"degree": "0", "free_rank": 1, "torsion": [],
                     "text": "Z"}]
  # the age-zero sector introduces a degree-0 variable
  code, out, err = run(capsys, "hilbert", docs["p64"], "--product", "orbifold")
  assert code == 3 and "nonpositive variable degree" in err
  # every mixed generator of the twisted ring has all its terms above
  # degree 0, and the presentation is still refused
  kind = inertial.ProductKind.v_plus(Bundle((1, 2, 3)))
  pres = inertial.inertial_presentation(parse_fan_document(P654_DOC)[0], kind,
                                        domain=kind.default_domain)
  mixed = [g for g, e in zip(pres.generators, pres.generator_degrees())
           if e is None]
  assert mixed and all(sum(k * d for k, d in zip(t, pres.degrees)) > 0
                       for g in mixed for t in g.terms)
  code, out, err = run(capsys, "hilbert", docs["p654"], "--product", "v-plus",
                       "--bundle", "1,2,3", "--maxdeg", "0")
  assert code == 3 and "presentation is not graded" in err and out == ""


def test_hilbert_refuses_the_product_flags_then_maxdeg_before_building(
    docs, monkeypatch, capsys, tmp_path):
  # a bad --maxdeg on a 300-sector fan is refused before its presentation
  p = tmp_path / "rank1.json"
  p.write_text(json.dumps({"schema": SCHEMA, "rank": 1, "torsion": [],
                           "b": [[300], [-1]], "max_cones": [[1], [2]]}))
  start = time.perf_counter()
  assert run(capsys, "hilbert", str(p), "--product", "orbifold",
             "--maxdeg", "x") == (
      3, "", "stacky-chow: --maxdeg: 'x' is not a rational\n")
  assert time.perf_counter() - start < 1
  # with a good --maxdeg, a short bundle is refused by the presentation
  assert run(capsys, "hilbert", docs["p654"], "--product", "v-plus",
             "--bundle", "1,2", "--maxdeg", "1") == (
      3, "", "stacky-chow: bundle has 2 coefficients but the fan has 3 "
             "rays\n")

  def built(*args, **kwargs):
    raise AssertionError("a presentation was built")

  monkeypatch.setattr(cli, "inertial_presentation", built)
  monkeypatch.setattr(cli, "sr_ring", built)
  for product in ((), ("--product", "orbifold"),
                  ("--product", "v-plus", "--bundle", "1,2")):
    assert run(capsys, "hilbert", docs["p654"], *product,
               "--maxdeg", "-1") == (
        3, "", "stacky-chow: --maxdeg: '-1' is negative\n")
  # a bad --bundle entry is still reported first
  assert run(capsys, "hilbert", docs["p654"], "--product", "v-plus",
             "--bundle", "1,-2,3", "--maxdeg", "-1") == (
      3, "", "stacky-chow: --bundle: bundle coefficients must be "
             "nonnegative\n")


def _raw_piece(pres, deg):
  """(free rank, torsion) of degree deg, by a Smith form of every generator
  times every monomial, with no echelon pass in between."""
  basis = rational_monomials(pres.degrees, deg)
  index = {e: k for k, e in enumerate(basis)}
  rows = [dense({index[e]: c for e, c in g.mul_monomial(m).terms.items()},
                len(basis))
          for g, dg in zip(pres.generators, pres.generator_degrees())
          if dg <= deg for m in rational_monomials(pres.degrees, deg - dg)]
  grp = AbGroup(len(basis), rows)
  return grp.free_rank, [str(d) for d in grp.invariant_factors]


def test_hilbert_integral_entries_stay_small(docs, capsys):
  start = time.perf_counter()
  doc = run_json(capsys, "hilbert", docs["blowup"])
  assert time.perf_counter() - start < 5
  pres = sr_ring(parse_fan_document(BLOWUP_DOC)[0])
  assert [r["degree"] for r in doc["pieces"]] == [str(d) for d in range(7)]
  for row in doc["pieces"]:
    assert (row["free_rank"], row["torsion"]) == _raw_piece(
        pres, int(row["degree"]))
  assert doc["pieces"][6]["text"] == " + ".join(["Z/3"] * 6 + ["Z/12"])


def test_hilbert_torsion_chow_ring_finishes(docs, capsys):
  start = time.perf_counter()
  doc = run_json(capsys, "hilbert", docs["torsion_chow"])
  assert time.perf_counter() - start < 5
  assert [r["degree"] for r in doc["pieces"]] == [str(d) for d in range(9)]
  assert all(r["text"] == "Z/2 + Z/2 + Z/288" for r in doc["pieces"][2:])
  # the unreduced presentation agrees where it is cheap to reduce
  pres = sr_ring(parse_fan_document(TORSION_CHOW_DOC)[0])
  for row in doc["pieces"][:5]:
    piece = pres.graded_piece(int(row["degree"]))
    assert (row["free_rank"], row["torsion"]) == (
        piece.free_rank, [str(m) for m in piece.torsion])


def test_hilbert_gerbe_widths_stay_bounded(docs, capsys):
  # the eliminated ring of the P(6,4) gerbe is Z[t]/(24t^2)
  start = time.perf_counter()
  doc = run_json(capsys, "hilbert", docs["p64"], "--maxdeg", "400")
  assert time.perf_counter() - start < 5
  assert [r["degree"] for r in doc["pieces"]] == [str(d) for d in range(401)]
  assert [r["text"] for r in doc["pieces"][:2]] == ["Z", "Z"]
  assert all(r["text"] == "Z/24" for r in doc["pieces"][2:])


def _prime_powers(m):
  out, p = {}, 2
  while p * p <= m:
    while m % p == 0:
      out[p] = out.get(p, 1) * p
      m //= p
    p += 1
  if m > 1:
    out[m] = m
  return out


def weighted_z_oracle(weights, maxdeg):
  """{degree: (free rank, invariant factors)} of the nonzero pieces up to
  maxdeg of the orbifold Chow ring over Z of P(w), from the weights alone.

  Sector f in [0, 1) exists when f*w_i is an integer for some i; its
  component is P(w_J), J = {i : f*w_i integral}, with Chow ring
  Z[H]/(prod w_J * H^|J|) (Edidin-Graham).  So the piece in degree
  age(f) + k gains Z for k < |J| and Z/prod w_J for k >= |J|.  The cyclic
  summands are merged into invariant factors through their prime powers.
  """
  pieces = {}
  for f in {Fraction(k, w) for w in weights for k in range(w)}:
    parts = [f * w % 1 for w in weights]
    age = sum(parts, Fraction(0))
    ws = [w for w, p in zip(weights, parts) if not p]
    k = 0
    while age + k <= maxdeg:
      piece = pieces.setdefault(age + k, [0, []])
      if k < len(ws):
        piece[0] += 1
      else:
        piece[1].append(math.prod(ws))
      k += 1
  out = {}
  for deg, (rank, orders) in pieces.items():
    by_prime = {}
    for m in orders:
      for p, q in _prime_powers(m).items():
        by_prime.setdefault(p, []).append(q)
    factors = [1] * max(map(len, by_prime.values()), default=0)
    for qs in by_prime.values():
      for i, q in enumerate(sorted(qs, reverse=True)):
        factors[i] *= q
    out[deg] = (rank, sorted(factors))
  return out


def _weighted_fan_path(tmp_path, weights):
  fan = weighted_projective_fan(weights)
  path = tmp_path / "fan.json"
  path.write_text(json.dumps(print_fan_document(fan)))
  return fan, str(path)


@pytest.mark.parametrize("weights", [(6, 5, 4), (2, 3, 5, 7), (1, 2), (2, 3),
                                     (1, 1, 2), (3, 4, 5), (7, 9, 11)])
def test_hilbert_orbifold_z_matches_the_weighted_oracle(tmp_path, capsys,
                                                        weights):
  # default maxdeg 2d + 2
  fan, path = _weighted_fan_path(tmp_path, weights)
  start = time.perf_counter()
  doc = run_json(capsys, "hilbert", path, "--product", "orbifold",
                 "--coeff", "z")
  assert time.perf_counter() - start < 20
  got = {Fraction(r["degree"]): (r["free_rank"], [int(m) for m in r["torsion"]])
         for r in doc["pieces"] if r["free_rank"] or r["torsion"]}
  assert got == weighted_z_oracle(weights, 2 * fan.d + 2)


@pytest.mark.parametrize("weights", [(7, 9, 11), (13, 17, 19)])
def test_hilbert_q_tables_match_the_weighted_oracle(tmp_path, capsys, weights):
  # default maxdeg 2d + 2: over Q the orbifold and both asymptotic products
  # have the same pieces, free of the ranks of the orbifold ring over Z
  fan, path = _weighted_fan_path(tmp_path, weights)
  want = {deg: rank for deg, (rank, _) in
          weighted_z_oracle(weights, 2 * fan.d + 2).items() if rank}
  tables = []
  for product in ("orbifold", "plus-inf", "minus-inf"):
    start = time.perf_counter()
    doc = run_json(capsys, "hilbert", path, "--product", product, "--coeff",
                   "q")
    assert time.perf_counter() - start < 10
    tables.append(doc["pieces"])
    assert {Fraction(r["degree"]): r["free_rank"]
            for r in doc["pieces"] if r["free_rank"]} == want
  assert tables[0] == tables[1] == tables[2]


# stdout sha256 of CLI runs, keyed by test id: (document, argv).  The
# simplify digests were recorded before the substitution engine of eliminate
# was rewritten, the hilbert one before degrees became integers and Z pieces
# split off their unit pivots, the others before star coefficients became
# exponent vectors.
PINNED = {
    "p654": ("p654", ["inertial", "--product", "v-plus", "--simplify"],
             "ef6a8d18bcb45ef571d7ae44475ef6d93ffdd7c607b8cea688ce3c93c5b1d2eb"),
    "p7911": ("p7911", ["inertial", "--product", "v-plus", "--simplify"],
              "72ee4e69a9484eb33e0ad39a4d595f9ec07f639f536d5b2c82dbf132b5c2fdf4"),
    "p654-orbifold": ("p654", ["inertial", "--product", "orbifold"],
        "8b8148c8f20837f1488065f49ce8ac731089db8d58b6dab48cc332467559e788"),
    "p654-virtual": ("p654", ["inertial", "--product", "virtual"],
        "bda9f528dce6adb9a6e217c8fb4b0a95a7b0d67908d45669c1d312240bda04f5"),
    "p654-v-plus": ("p654", ["inertial", "--product", "v-plus"],
        "498a09a341e794fe7d067238af6b2f9ebf3546d86a95eb68ea61972ceea5981d"),
    "p654-v-minus": ("p654", ["inertial", "--product", "v-minus"],
        "36b77b29baf2b905c6aa1fb241f526f323fa0ed6c741e9c55053104a0fe56904"),
    "p654-plus-inf": ("p654", ["inertial", "--product", "plus-inf"],
        "0a5420e12fc2a9c801150b1657fbfb2676baab86328b9348871b1e64e806769b"),
    "p654-minus-inf": ("p654", ["inertial", "--product", "minus-inf"],
        "60d7b886b661f73150d11b1a69c168733d8bcef7745cfdf52487d1e085740866"),
    "p654-multiply": ("p654", ["multiply", "--product", "v-plus", "--bundle",
                               "2,0,5", "w9", "w10"],
        "55eca3c4c8a9e213d2c1c07546c4bfe6f7ea2102fab94da46ff52d6a911e598c"),
    "torsion4-multiply": ("torsion4", ["multiply", "--product", "v-minus",
                                       "--bundle", "2,1,0,3", "w3", "w4"],
        "8c305ffde7bc8c84414eeb33442dbb529fdd591bdd2e69b5623fd37b69b456cf"),
    # 768 monomials in degree 7/2, which reads Z/6 + Z/6 + Z/24
    "p654-hilbert-z": ("p654", ["hilbert", "--product", "orbifold", "--coeff",
                                "z", "--maxdeg", "7/2"],
        "900535401df4135cf5e60c2516cf95a1dc7bb0253b6ceac746b6dec320283f6c"),
    # the default maxdeg 6, recorded while pieces were reduced in the full
    # ring
    "p654-hilbert-q": ("p654", ["hilbert", "--product", "orbifold", "--coeff",
                                "q"],
        "1e749d8c8c7fb6b38bc36f4ff84524a05d2abe4fb9cedb7b941a176fa2b7178e"),
    # the default maxdeg, both recorded while the reducer rows were dense
    # (25.6 s and 20.5 s then)
    "p654-hilbert-z-default": ("p654", ["hilbert", "--product", "orbifold",
                                        "--coeff", "z"],
        "15c459533727b066953f563f95f0ab0f78d430ed99abc5e5ea73bb6a8f1199c9"),
    "p7911-hilbert-minus-inf": ("p7911", ["hilbert", "--product", "minus-inf",
                                          "--coeff", "q"],
        "7c0750196d7f6cf2dcdc641584df9d15ae12311429097104b114d3149a4053e2"),
    # two capped jobs, recorded while hilbert_table eliminated every
    # generator, including those above maxdeg
    "p7911-hilbert-z-capped": ("p7911", ["hilbert", "--product", "orbifold",
                                         "--coeff", "z", "--maxdeg", "3/2"],
        "5ac3a0ecc66e334119dfde5b2667b77208e0af89bc2a1b18720686cba4140011"),
    "p7911-hilbert-plus-inf-capped": ("p7911", ["hilbert", "--product",
                                                "plus-inf", "--coeff", "q",
                                                "--maxdeg", "1"],
        "246ca100a0592b9b8e8603a8a8db4d27f2c4a3d1892c62d53f07ec9ef782201a"),
    # the text form, which only --format text builds
    "p654-virtual-text": ("p654", ["inertial", "--product", "virtual",
                                   "--format", "text"],
        "9b828af5ad68e22f07e5d96a53048a5c8df484896a9269982706e6f9e1afa7ff"),
    "p654-chow-text": ("p654", ["chow", "--simplify", "--format", "text"],
        "c9995c6e16b4fa240baf67e18c32bb5ba61ad75619ff5eed67197a8f6ff451aa"),
    # one per kind of change matrix f, recorded while f was computed through
    # group elements: a free part of rank one, the singular-preimage
    # correction and plain nearest-plane columns
    "p64-chow": ("p64", ["chow"],
        "ca207d034d5f769cf0d73970b0199c91b12b06e73f585e1f6119e4a3f31a4dc7"),
    "torsion4-chow": ("torsion4", ["chow"],
        "c4fe4537cfe4259fcec332183c5cdd076253517f60e033c96b0ae31a8bcfe82b"),
    "torsion-chow-simplify": ("torsion_chow", ["chow", "--simplify"],
        "52adbde00211cacd798c9b70346bbf1088c90108128ebb7d973e009d56e48ca0"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simplify_output_pinned(docs, capsys, name):
  doc, argv, digest = PINNED[name]
  start = time.perf_counter()
  code, out, err = run(capsys, argv[0], docs[doc], *argv[1:])
  assert time.perf_counter() - start < 10
  assert code == 0, err
  assert hashlib.sha256(out.encode()).hexdigest() == digest


# P(6,4) with tilde x1 = 2 x1: under the v-plus bundle (a, 0) the box
# relation and the product w2 * w2 carry 2^(a + 1), which has 301,030
# decimal digits for a = 999999
P64_DOUBLED_DOC = {
    "schema": "stacky-chow/1", "rank": 1, "torsion": ["2"],
    "b": [["2", "1"], ["-3", "1"]], "max_cones": [[2], [1]]}


def test_coefficients_past_the_digit_limit_are_refused(tmp_path, capsys):
  path = tmp_path / "fan.json"
  path.write_text(json.dumps(P64_DOUBLED_DOC))
  refusal = (3, "", "stacky-chow: a coefficient has more than 4300 decimal "
                    "digits\n")
  for argv in (["inertial"], ["inertial", "--simplify"],
               ["inertial", "--format", "text"], ["multiply", "w2", "w2"],
               ["multiply", "w2", "w2", "--format", "text"]):
    assert run(capsys, argv[0], str(path), *argv[1:], "--product", "v-plus",
               "--bundle", "999999,0") == refusal
  # 2^14285 has 4,301 digits and is refused, 2^14284 has 4,300 and is written
  assert run(capsys, "multiply", str(path), "w2", "w2", "--product",
             "v-plus", "--bundle", "14284,0") == refusal
  doc = run_json(capsys, "multiply", str(path), "w2", "w2", "--product",
                 "v-plus", "--bundle", "14283,0")
  assert [len(t["coeff"]) for t in doc["coefficient"]["terms"]] == [4300]


def test_eliminated_coefficients_past_the_digit_limit_are_refused(capsys):
  # x := c*t and y := t: c appears in the eliminated metadata only
  args = cli.build_parser().parse_args(["chow", "-", "--simplify"])
  for c, ok in ((10 ** 4300 - 1, True), (10 ** 4300, False)):
    pres = RingPresentation(["x", "y"], [1, 1], [
        Poly(2, {(1, 0): 1, (0, 1): -c}), Poly(2, {(0, 2): 1})],
        ["linear", "stanley_reisner"], "z")
    if ok:
      cli._finish_presentation(args, pres, {})
      doc = json.loads(capsys.readouterr().out)
      assert doc["metadata"]["eliminated"]["x"] == [
          {"coeff": str(c), "powers": [[1, 1]]}]
    else:
      with pytest.raises(ValueError, match="more than 4300 decimal digits"):
        cli._finish_presentation(args, pres, {})


def test_json_output_builds_no_text(docs, capsys, monkeypatch):
  def refuse(pres):
    raise AssertionError("text form built for JSON output")

  monkeypatch.setattr(cli, "_presentation_text", refuse)
  run_json(capsys, "inertial", docs["p654"], "--simplify")
  run_json(capsys, "chow", docs["p654"])


# -- the JSON writer --------------------------------------------------------------

def _written(value):
  out = []
  cli._write_json(value, out, "\n")
  return "".join(out)


# quotes, backslashes, control characters, DEL, non-ASCII letters, an astral
# character and both halves of a surrogate pair, each on its own
_AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f",
                            "\x7f", "é", "ω", " ", "\U0001f600",
                            "\ud800", "\udfff"])
_JSON_TEXT = st.lists(_AWKWARD | st.characters(blacklist_categories=()),
                      max_size=8).map("".join)
_JSON_SCALARS = (st.none() | st.booleans() | _JSON_TEXT
                 | st.integers(-10 ** 30, 10 ** 30)
                 | st.sampled_from([0, -1, 2 ** 63, -2 ** 64, 10 ** 4000,
                                    -10 ** 4000]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
  assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_layout():
  for value in ([], {}, [[]], {"": {}}, [{}, [[], {"a": []}]], True, None):
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)
  assert _written({"b": [1, "ω\""], "a": -3}) == (
      '{\n  "a": -3,\n  "b": [\n    1,\n    "\\u03c9\\""\n  ]\n}')


def test_emit_raises_type_error_on_a_fraction(capsys):
  args = cli.build_parser().parse_args(["validate", "x.json"])
  doc = {"schema": SCHEMA, "degree": Fraction(1, 2)}
  with pytest.raises(TypeError):
    json.dumps(doc, sort_keys=True, indent=2)
  with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
    cli._emit(args, doc, None)
  # documents hold no floats, tuples or non-string keys; json.dumps would
  # write them, the writer refuses them
  for doc in ([1.5], (1, 2), {1: "one"}):
    with pytest.raises(TypeError):
      cli._emit(args, doc, None)
  assert capsys.readouterr().out == ""


# a label outside ASCII with a quote in it names sector 1 (w2 in P654_DOC)
_ODD_LABEL = 'ω"2'


@pytest.mark.parametrize("argv", [
    ["validate"], ["box"], ["chow", "--simplify"],
    ["inertial", "--product", "v-plus", "--simplify"],
    ["multiply", "--product", "orbifold", _ODD_LABEL, "w1"],
    ["check-assoc"], ["hilbert", "--maxdeg", "2"]])
def test_cli_output_is_json_dumps_indent_2(tmp_path, capsys, monkeypatch,
                                          argv):
  p = tmp_path / "odd.json"
  p.write_text(json.dumps({**P654_DOC, "labels": {**P654_DOC["labels"],
                                                  "1": _ODD_LABEL}}))
  if argv[0] == "check-assoc":
    # so that the witnesses carry sector labels
    _break_associativity(monkeypatch)
  code, out, err = run(capsys, argv[0], str(p), *argv[1:])
  assert code == 0, err
  assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
  assert out.isascii()
  if argv[0] not in ("validate", "hilbert"):
    assert json.dumps(_ODD_LABEL) in out


def test_sector_labels_named_like_fresh_variables(tmp_path, capsys):
  # eliminate names the surviving coordinates t, or t1, t2, ...; a sector
  # label that takes such a name moves them to t_, or t_1, t_2, ... (on the
  # rank-2 fan the second step then substitutes t_1 away)
  p2 = StackyFan(2, (), ((2, 0), (0, 1), (-1, 0), (0, -1)),
                 ((0, 1), (1, 2), (2, 3), (0, 3)))
  for fan, label, fresh in ((weighted_projective_fan((2, 3, 5, 7)), "t",
                             ["t_"]), (p2, "t1", ["t_2"])):
    paths = []
    for labels in ({1: label}, None):
      p = tmp_path / ("%s-%s.json" % (label, labels is None))
      p.write_text(json.dumps(print_fan_document(fan, labels=labels)))
      paths.append(str(p))
    labelled, plain = paths
    run_json(capsys, "inertial", labelled)
    doc = run_json(capsys, "inertial", labelled, "--simplify")
    names = [v["name"] for v in doc["variables"]]
    assert names[:len(fresh)] == fresh and label in names
    assert len(set(names)) == len(names)
    assert not set(names) & set(doc["metadata"]["eliminated"])
    hilbert = ["hilbert", "--product", "orbifold", "--coeff", "q",
               "--maxdeg", "1"]
    assert (run_json(capsys, hilbert[0], labelled, *hilbert[1:])
            == run_json(capsys, hilbert[0], plain, *hilbert[1:]))


def test_oversized_coefficient_refused(docs, capsys):
  # tilde_x1 has four terms, so tilde_x1^201 would have C(204, 3) terms
  start = time.perf_counter()
  for argv in (["inertial"], ["multiply", "w3", "w4"], ["hilbert"]):
    code, out, err = run(capsys, argv[0], docs["torsion4"], *argv[1:],
                         "--product", "v-plus", "--bundle", "200,200,200,200")
    assert code == 3 and out == ""
    assert "more than the limit of 1000000" in err
  assert time.perf_counter() - start < 1


def test_expansion_limit_reaches_check_assoc(docs, capsys, monkeypatch):
  monkeypatch.setattr(charring, "MAX_EXPANSION_TERMS", 0)
  code, out, err = run(capsys, "check-assoc", docs["p654"])
  assert code == 3 and "more than the limit of 0" in err


def test_expansion_work_refused(tmp_path, capsys):
  # tilde_x2^81 and tilde_x3^81 have 3,403 terms each: the product has fewer
  # than 10^6 terms, but multiplying them out takes about 11.6 M products
  p = tmp_path / "work.json"
  p.write_text(json.dumps({
      "schema": "stacky-chow/1", "rank": 2, "torsion": [2],
      "b": [[0, -1, 1], [2, -2, 1], [3, 0, 1], [2, 1, 0]],
      "max_cones": [[1, 2], [2, 3], [3, 4]]}))
  start = time.perf_counter()
  code, out, err = run(capsys, "multiply", str(p), "w4", "w6", "--product",
                       "v-plus", "--bundle", "0,80,80,0")
  assert time.perf_counter() - start < 2
  assert code == 3 and out == ""
  assert err.startswith("stacky-chow: ") and err.count("\n") == 1
  assert "coefficient products" in err
  assert "more than the limit of 1000000" in err


def test_large_bundle_on_monomial_classes(docs, capsys):
  # the tilde classes of P(6,5,4) are single variables, so any power is one
  # term and the largest bundle coefficient is cheap; its power MAX_POWER
  # reads back
  code, out, err = run(capsys, "inertial", docs["p654"], "--product", "v-plus",
                       "--bundle", "999999,0,0")
  assert code == 0, err
  pres, _ = parse_presentation_document(json.loads(out))
  assert max(max(e) for g in pres.generators for e in g.terms) == MAX_POWER
  doc = run_json(capsys, "multiply", docs["p654"], "--product", "v-plus",
                 "--bundle", "999999,0,0", "w9", "w10")
  assert doc["coefficient"]["terms"] == [
      {"coeff": "1", "powers": [[1, 1000000], [3, 1]]}]


def test_a_document_that_would_not_read_back_is_not_written(tmp_path,
                                                           capsys):
  # eliminate maps x1 and x2 of the plane fan to one variable t, whose
  # powers add; on P(2,4,6,8) tilde_x1 is x2, and x2 also collects the
  # powers of the other tilde classes
  plane = tmp_path / "plane.json"
  plane.write_text(json.dumps({
      "schema": "stacky-chow/1", "rank": 2, "torsion": [],
      "b": [[1, 0], [1, 2], [-1, -1]],
      "max_cones": [[1, 2], [2, 3], [1, 3]]}))
  p2468 = tmp_path / "p2468.json"
  p2468.write_text(json.dumps(print_fan_document(
      weighted_projective_fan((2, 4, 6, 8)))))
  for argv, power, name in (
      ((str(plane), "--simplify", "--bundle", "999999,999999,0"), 2000000,
       "t"),
      ((str(p2468), "--bundle", "999999,0,0,0"), 1000002, "x2")):
    for fmt in ("json", "text"):
      code, out, err = run(capsys, "inertial", *argv, "--product", "v-plus",
                           "--format", fmt)
      assert (code, out) == (3, "")
      assert err == ("stacky-chow: power %d of %s in a generator is above "
                     "the limit of %d\n" % (power, name, MAX_POWER))


def test_hilbert_default_maxdeg_stops_at_zero_window(docs, capsys):
  # the default maxdeg is 6; every piece above degree 2 is zero
  start = time.perf_counter()
  doc = run_json(capsys, "hilbert", docs["p654"], "--product", "orbifold",
                 "--coeff", "q")
  assert time.perf_counter() - start < 5
  assert doc["pieces"][-1]["degree"] == "6"
  # Borisov-Chen-Smith: the sum over sectors f of n - s(f), n = 3 weights
  # and s(f) the number of weights w with f*w not an integer
  assert sum(r["free_rank"] for r in doc["pieces"]) == 15
  assert all(r["text"] == "0" for r in doc["pieces"]
             if Fraction(r["degree"]) > 2)


def test_hilbert_inertial_rational(docs, capsys):
  doc = run_json(capsys, "hilbert", docs["p654"], "--product", "orbifold",
                 "--coeff", "q", "--maxdeg", "2")
  total = sum(r["free_rank"] for r in doc["pieces"])
  assert all(r["torsion"] == [] for r in doc["pieces"])
  assert total == 15
  assert doc["pieces"][0]["text"] == "Q"


def test_library_value_error_exits_3(docs, capsys, monkeypatch):
  def refuse(fan):
    raise ValueError("refused by the library")
  monkeypatch.setattr(cli, "sr_ring", refuse)
  assert run(capsys, "chow", docs["p64"]) == (
      3, "", "stacky-chow: refused by the library\n")


def test_out_of_range_label_refused_only_where_sectors_are_named(tmp_path,
                                                                 capsys):
  p = tmp_path / "labels.json"
  p.write_text(json.dumps({**P64_DOC, "labels": {"99": "far"}}))
  assert run(capsys, "validate", str(p))[0] == 0
  assert run(capsys, "hilbert", str(p), "--maxdeg", "1")[0] == 0
  code, out, err = run(capsys, "box", str(p))
  assert (code, out) == (3, "") and "label index 99 out of range" in err


def test_parser_is_built_once(docs, capsys, monkeypatch):
  monkeypatch.setattr(cli, "_parser", None)
  builds = []
  build = cli.build_parser
  monkeypatch.setattr(cli, "build_parser",
                      lambda: builds.append(1) or build())
  for argv in (["validate", docs["p64"]], ["box", docs["p64"]], ["--help"],
               ["box", docs["p64"], "--product", "bogus"]):
    run(capsys, *argv)
  assert builds == [1]


# -- fuzz: small fan documents and malformed variants of them ---------------------

@st.composite
def raw_fan_documents(draw):
  """Rank at most 3, free entries in [-3, 3], at most rank + 3 rays, torsion
  orders up to 4; the maximal cones are arbitrary ray sets, so most of these
  fail the stacky-fan hypotheses."""
  d = draw(st.integers(0, 3))
  torsion = draw(st.sampled_from([[], [], [2], [3], [4], [2, 2]]))
  n = draw(st.integers(1, d + 3))
  b = [[draw(st.integers(-3, 3)) for _ in range(d)]
       + [draw(st.integers(0, m - 1)) for m in torsion] for _ in range(n)]
  cones = draw(st.lists(st.lists(st.integers(1, n), min_size=1,
                                 max_size=max(d, 1), unique=True),
                        min_size=1, max_size=4))
  return {"schema": "stacky-chow/1", "rank": d, "torsion": torsion, "b": b,
          "max_cones": cones}


fan_documents = st.one_of(
    raw_fan_documents(),
    valid_fans(max_box=30).map(lambda fan: print_fan_document(fan)))

_BAD_VALUES = st.sampled_from(["x", "", True, None, [], {}, -1, 7, 1.5, [[]],
                               ["1", "y"], {"1": "a"}, "1" * 5000])


@st.composite
def fan_texts(draw):
  """The JSON text of a fan document, with optional bundle and labels, and
  with one defect in about half of the draws."""
  doc = draw(fan_documents)
  n = len(doc["b"])
  if draw(st.booleans()):
    doc["bundle"] = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
  if draw(st.integers(0, 3)) == 0:
    doc["labels"] = {str(k): "s%d" % k for k in draw(
        st.sets(st.integers(1, 20), max_size=3))}
  defect = draw(st.sampled_from(
      ["none"] * 6 + ["drop", "field", "unknown", "entry", "cone", "labels",
                      "bundle", "truncate"]))
  if defect == "drop":
    del doc[draw(st.sampled_from(["schema", "rank", "torsion", "b",
                                  "max_cones"]))]
  elif defect == "field":
    doc[draw(st.sampled_from(sorted(doc)))] = draw(_BAD_VALUES)
  elif defect == "unknown":
    doc["extra"] = 1
  elif defect == "entry":
    row = draw(st.sampled_from(doc["b"]))
    if row and draw(st.booleans()):
      row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_VALUES)
    else:
      row.append(0)
  elif defect == "cone":
    doc["max_cones"][0].append(draw(st.sampled_from([0, n + 1, "1", None])))
  elif defect == "labels":
    doc["labels"] = draw(st.sampled_from([{"0": "a"}, {"1": ""}, {"x": "a"},
                                          {"1": "a", "2": "a"}, ["a"]]))
  elif defect == "bundle":
    doc["bundle"] = draw(st.sampled_from([[1] * (n + 1), [-1] * n,
                                          ["a"] * n, 3]))
  text = json.dumps(doc)
  if defect == "truncate":
    text = text[:draw(st.integers(0, len(text) - 1))]
  return text


_FUZZ_COMMANDS = (["validate"], ["box"], ["chow", "--simplify"], ["inertial"],
                  ["multiply"], ["check-assoc"], ["hilbert", "--maxdeg", "2"])
_SECTORS = st.sampled_from(["0", "1", "3", "w1", "w2", "s1", "x"])


def _box_size(text):
  try:
    fan = parse_fan_document(json.loads(text))[0]
  except (CliError, ValueError):
    return 0
  return 0 if fan.validate() else len(fan.box())


@settings(max_examples=200, deadline=None)
@given(text=fan_texts(), command=st.sampled_from(_FUZZ_COMMANDS),
       data=st.data())
def test_cli_fuzz_exit_codes(tmp_path_factory, text, command, data):
  argv = list(command)
  if argv[0] == "multiply":
    argv += [data.draw(_SECTORS), data.draw(_SECTORS)]
  product = data.draw(st.sampled_from((None,) + PRODUCT_NAMES))
  if product:
    argv += ["--product", product]
  if data.draw(st.integers(0, 3)) == 0:
    argv += ["--bundle", data.draw(st.sampled_from(["1,2,3", "0,1", "2,-1",
                                                    "a", "1,1,1,1"]))]
  coeff = data.draw(st.sampled_from([None, "z", "q"]))
  if coeff:
    argv += ["--coeff", coeff]
  if argv[0] in ("inertial", "check-assoc") or "--product" in argv[1:]:
    # the sector sweeps grow with the box: keep runs short
    assume(_box_size(text) <= (30 if argv[0] == "check-assoc" else 16))
  path = tmp_path_factory.getbasetemp() / "fuzz.json"
  path.write_text(text)
  out, err = io.StringIO(), io.StringIO()
  with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main([argv[0], str(path)] + argv[1:])
  out, err = out.getvalue(), err.getvalue()
  assert code in (0, 1, 2, 3), (argv, text, err)
  if code == 0:
    assert json.loads(out)["schema"] == "stacky-chow/1"
  elif not (argv[0] == "validate" and code == 2):
    assert out == "" and err.startswith("stacky-chow: "), (argv, text, err)
