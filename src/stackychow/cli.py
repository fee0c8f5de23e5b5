"""Command-line frontend: JSON fan documents in, presentation documents out.

Exit codes: 1 for a malformed document, 2 for a fan failing the stacky-fan
hypotheses, 3 for a semantically invalid request against a well-formed fan.
JSON output is byte-stable: exactly json.dumps(doc, sort_keys=True,
indent=2) and one trailing newline, ASCII only.  All lattice integers are
serialized as decimal strings so values never pass through floating point
or fixed-width readers.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from stackychow.charring import character_data, sr_ring
from stackychow.gradedpoly import (MAX_DECIMAL_EXPONENT, Poly,
                                   RingPresentation, eliminate, format_coeff,
                                   format_poly, hilbert_table)
from stackychow.inertial import (Bundle, MINUS_INFINITY, ORBIFOLD,
                                 PLUS_INFINITY, ProductKind, VIRTUAL,
                                 associativity_witnesses,
                                 inertial_hilbert_table,
                                 inertial_presentation, sector_labels,
                                 star_product)
from stackychow.stackyfan import StackyFan

SCHEMA = "stacky-chow/1"
# the largest power of one variable in a presentation document's term: on
# a variable of positive degree a higher one lies past the last row of any
# hilbert table (gradedpoly.MAX_TABLE_ROWS)
MAX_POWER = 10 ** 6

# CLI product name -> ProductKind, or for the twisted kinds its maker
_KINDS = {"orbifold": ORBIFOLD, "virtual": VIRTUAL,
          "v-plus": ProductKind.v_plus, "v-minus": ProductKind.v_minus,
          "plus-inf": PLUS_INFINITY, "minus-inf": MINUS_INFINITY}
PRODUCT_NAMES = tuple(_KINDS)

_FAN_KEYS = {"schema", "rank", "torsion", "b", "max_cones", "bundle", "labels"}

# the C string escaper json.dumps uses with its default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii


class CliError(Exception):
  """Carries the process exit code along with the message."""

  def __init__(self, code, message):
    super().__init__(message)
    self.code = code


def _schema_error(msg):
  return CliError(1, "schema error: " + msg)


# -- numbers ---------------------------------------------------------------------

def _ascii_number(text):
  """Whether number text may go to int() or Fraction(), which also read the
  digits of other scripts and underscores between digits."""
  return text.isascii() and "_" not in text


def _rational(value, field, error):
  """Fraction(value), or raise error(message), the message naming the
  field.  A decimal exponent beyond MAX_DECIMAL_EXPONENT is refused first:
  Fraction("1e100000000") builds a 10^8-digit integer before any check."""
  if isinstance(value, str):
    exp = re.search(r"[eE]([-+]?[0-9]+)\s*\Z", value)
    if exp and abs(int(exp.group(1))) > MAX_DECIMAL_EXPONENT:
      raise error("%s: %r has a decimal exponent beyond %d"
                  % (field, value, MAX_DECIMAL_EXPONENT))
  try:
    if not isinstance(value, str) or _ascii_number(value):
      return Fraction(value)
  except (ValueError, ZeroDivisionError, TypeError, OverflowError):
    pass
  raise error("%s: %r is not a rational" % (field, value))


def _decimal(text, field, error):
  """int(text), or raise error(message), the message naming the field."""
  try:
    if _ascii_number(text):
      return int(text, 10)
  except ValueError:
    pass
  raise error("%s: %r is not a decimal integer" % (field, text))


# -- fan documents --------------------------------------------------------------

def _as_int(value, field):
  # bool is an int subclass; a document saying true is still malformed
  if isinstance(value, bool):
    raise _schema_error("field %s: expected an integer" % field)
  if isinstance(value, int):
    return value
  if isinstance(value, str):
    return _decimal(value, "field " + field, _schema_error)
  raise _schema_error("field %s: expected an integer or decimal string"
                      % field)


def _as_list(value, field):
  if not isinstance(value, list):
    raise _schema_error("field %s: expected a list" % field)
  return value


def parse_fan_document(doc):
  """dict -> (StackyFan, Bundle or None, labels map or None)."""
  if not isinstance(doc, dict):
    raise _schema_error("top level must be an object")
  if doc.get("schema") != SCHEMA:
    raise _schema_error("field schema: expected %r" % SCHEMA)
  unknown = sorted(set(doc) - _FAN_KEYS)
  if unknown:
    raise _schema_error("unknown field %s" % unknown[0])
  for key in ("rank", "torsion", "b", "max_cones"):
    if key not in doc:
      raise _schema_error("missing field %s" % key)
  rank = _as_int(doc["rank"], "rank")
  if rank < 0:
    raise _schema_error("field rank: must be nonnegative")
  torsion = [_as_int(m, "torsion[%d]" % l)
             for l, m in enumerate(_as_list(doc["torsion"], "torsion"))]
  for l, m in enumerate(torsion):
    if m < 2:
      raise _schema_error("field torsion[%d]: orders must be at least 2" % l)
  width = rank + len(torsion)
  rays = []
  for i, row in enumerate(_as_list(doc["b"], "b")):
    row = _as_list(row, "b[%d]" % i)
    if len(row) != width:
      raise _schema_error("field b[%d]: expected %d coordinates, got %d"
                          % (i, width, len(row)))
    rays.append(tuple(_as_int(c, "b[%d][%d]" % (i, j))
                      for j, c in enumerate(row)))
  cones = []
  for s, cone in enumerate(_as_list(doc["max_cones"], "max_cones")):
    cone = _as_list(cone, "max_cones[%d]" % s)
    out = []
    for t, idx in enumerate(cone):
      idx = _as_int(idx, "max_cones[%d][%d]" % (s, t))
      if not 1 <= idx <= len(rays):
        raise _schema_error("field max_cones[%d][%d]: ray index %d out of "
                            "range 1..%d" % (s, t, idx, len(rays)))
      out.append(idx - 1)
    cones.append(tuple(out))
  try:
    fan = StackyFan(rank, tuple(torsion), tuple(rays), tuple(cones))
  except ValueError as e:
    raise _schema_error(str(e))
  bundle = None
  if doc.get("bundle") is not None:
    coeffs = [_as_int(c, "bundle[%d]" % i)
              for i, c in enumerate(_as_list(doc["bundle"], "bundle"))]
    if len(coeffs) != len(rays):
      raise _schema_error("field bundle: expected %d coefficients, got %d"
                          % (len(rays), len(coeffs)))
    try:
      bundle = _bundle(coeffs)
    except ValueError as e:
      raise _schema_error("field bundle: %s" % e)
  labels = None
  if doc.get("labels") is not None:
    raw = doc["labels"]
    if not isinstance(raw, dict):
      raise _schema_error("field labels: expected an object")
    labels = {}
    for key, name in raw.items():
      idx = _as_int(key, "labels key %r" % key)
      if idx < 1:
        raise _schema_error("labels key %r: sector indices start at 1" % key)
      if not isinstance(name, str) or not name:
        raise _schema_error("field labels[%r]: expected a nonempty string"
                            % key)
      labels[idx] = name
    if len(set(labels.values())) != len(labels):
      raise _schema_error("field labels: names are not distinct")
  return fan, bundle, labels


def _bundle(coeffs):
  """A Bundle with no coefficient above MAX_POWER - 1."""
  bundle = Bundle(coeffs)
  if max(bundle.a, default=0) >= MAX_POWER:
    raise ValueError("coefficient %d is above the limit of %d"
                     % (max(bundle.a), MAX_POWER - 1))
  return bundle


def print_fan_document(fan, bundle=None, labels=None):
  """Canonical document for a fan; inverse of parse_fan_document."""
  doc = {
      "schema": SCHEMA,
      "rank": fan.d,
      "torsion": [str(m) for m in fan.torsion],
      "b": [[str(c) for c in ray] for ray in fan.rays],
      "max_cones": [[i + 1 for i in cone] for cone in fan.max_cones],
  }
  if bundle is not None:
    doc["bundle"] = [str(c) for c in bundle.a]
  if labels is not None:
    doc["labels"] = {str(i): name for i, name in sorted(labels.items())}
  return doc


def load_fan_document(path):
  try:
    with open(path, "r", encoding="utf-8") as fh:
      text = fh.read()
  except OSError as e:
    raise CliError(1, "cannot read %s: %s" % (path, e.strerror or e))
  try:
    doc = json.loads(text)
  except json.JSONDecodeError as e:
    raise _schema_error("%s: line %d column %d: %s"
                        % (path, e.lineno, e.colno, e.msg))
  except (RecursionError, ValueError) as e:
    # nesting deeper than the interpreter's stack, or an integer literal
    # longer than its digit limit
    raise _schema_error("%s: %s" % (path, e))
  return parse_fan_document(doc)


def _require_valid(fan):
  errors = fan.validate()
  if errors:
    raise CliError(2, "; ".join(errors))


# -- presentation documents -----------------------------------------------------

def _terms_json(poly):
  terms = []
  for exp, c in poly.sorted_terms():
    powers = [[j + 1, e] for j, e in enumerate(exp) if e]
    terms.append({"coeff": format_coeff(c), "powers": powers})
  return terms


def _poly_from_terms(terms, nvars, field):
  out = {}
  for t, term in enumerate(_as_list(terms, field)):
    if not isinstance(term, dict) or set(term) != {"coeff", "powers"}:
      raise _schema_error("field %s[%d]: expected coeff and powers" %
                          (field, t))
    coeff = term["coeff"]
    if not isinstance(coeff, str):
      raise _schema_error("field %s[%d].coeff: expected a string" % (field, t))
    exp = [0] * nvars
    for pair in _as_list(term["powers"], "%s[%d].powers" % (field, t)):
      pair = _as_list(pair, "%s[%d].powers entry" % (field, t))
      if len(pair) != 2:
        raise _schema_error("field %s[%d].powers: entries are [index, power]"
                            % (field, t))
      j = _as_int(pair[0], "%s[%d].powers index" % (field, t))
      e = _as_int(pair[1], "%s[%d].powers power" % (field, t))
      if not 1 <= j <= nvars:
        raise _schema_error("field %s[%d].powers: variable index %d out of "
                            "range 1..%d" % (field, t, j, nvars))
      if e < 1:
        raise _schema_error("field %s[%d].powers: powers must be positive"
                            % (field, t))
      exp[j - 1] += e
      if exp[j - 1] > MAX_POWER:
        raise _schema_error("field %s[%d].powers: power of variable %d is "
                            "above %d" % (field, t, j, MAX_POWER))
    c = _rational(coeff, "field %s[%d].coeff" % (field, t), _schema_error)
    out[tuple(exp)] = out.get(tuple(exp), 0) + c
  return Poly(nvars, out)


def print_presentation_document(pres, metadata):
  return {
      "schema": SCHEMA,
      "coefficients": pres.domain,
      "variables": [{"name": nm, "degree": str(d)}
                    for nm, d in zip(pres.names, pres.degrees)],
      "generators": [{"tag": tag, "terms": _terms_json(g)}
                     for g, tag in zip(pres.generators, pres.tags)],
      "metadata": metadata,
  }


def parse_presentation_document(doc):
  """dict -> (RingPresentation, metadata dict)."""
  if not isinstance(doc, dict):
    raise _schema_error("top level must be an object")
  if doc.get("schema") != SCHEMA:
    raise _schema_error("field schema: expected %r" % SCHEMA)
  domain = doc.get("coefficients")
  if domain not in ("z", "q"):
    raise _schema_error("field coefficients: expected 'z' or 'q'")
  names, degrees = [], []
  for i, var in enumerate(_as_list(doc.get("variables"), "variables")):
    if not isinstance(var, dict) or set(var) != {"name", "degree"}:
      raise _schema_error("field variables[%d]: expected name and degree" % i)
    if not isinstance(var["name"], str) or not var["name"]:
      raise _schema_error("field variables[%d].name: expected a nonempty "
                          "string" % i)
    if not isinstance(var["degree"], str):
      raise _schema_error("field variables[%d].degree: expected a string" % i)
    degree = _rational(var["degree"], "field variables[%d].degree" % i,
                       _schema_error)
    if degree < 0:
      raise _schema_error("field variables[%d].degree: must be nonnegative"
                          % i)
    names.append(var["name"])
    degrees.append(degree)
  gens, tags = [], []
  for i, gen in enumerate(_as_list(doc.get("generators"), "generators")):
    if not isinstance(gen, dict) or set(gen) != {"tag", "terms"}:
      raise _schema_error("field generators[%d]: expected tag and terms" % i)
    if not isinstance(gen["tag"], str):
      raise _schema_error("field generators[%d].tag: expected a string" % i)
    tags.append(gen["tag"])
    gens.append(_poly_from_terms(gen["terms"], len(names),
                                 "generators[%d].terms" % i))
  try:
    pres = RingPresentation(names, degrees, gens, tags, domain)
  except ValueError as e:
    raise _schema_error(str(e))
  return pres, doc.get("metadata", {})


# -- shared command plumbing ----------------------------------------------------

def _sector_names(fan, labels):
  names = sector_labels(fan)
  if labels:
    k = len(names)
    for idx, name in labels.items():
      if idx > k:
        raise CliError(3, "label index %d out of range: the box has %d "
                          "nonidentity sectors" % (idx, k))
      names[idx - 1] = name
  return names


def _box_rows(fan, names):
  rows = []
  for idx, el in enumerate(fan.box()):
    g = fan.group_element(el)
    rows.append({
        "index": idx,
        "label": "1" if idx == 0 else names[idx - 1],
        "v": [str(c) for c in el.v],
        "q": [str(c) for c in el.q],
        "age": str(el.age),
        "gamma": [str(p) for p in g.gamma_phases],
        "s": [str(p) for p in g.s_phases],
        "cone": [i + 1 for i in el.sigma_min],
    })
  return rows


def _fan_metadata(fan, names, product=None, bundle=None):
  cd = character_data(fan)
  warnings = []
  if any(el.age == 0 for el in fan.box()[1:]):
    warnings.append("age-zero-sector: a nonidentity sector has age 0, so "
                    "graded queries on the inertial presentation will fail")
  return {
      "product": product,
      "bundle": None if bundle is None else [str(c) for c in bundle.a],
      "psi": [[str(c) for c in row] for row in cd.f.entries],
      "box": _box_rows(fan, names),
      "warnings": warnings,
  }


def _product(args, doc_bundle):
  """(ProductKind, coefficient domain) of a --product/--bundle/--coeff
  request; the twisted kinds take --bundle, else the document's bundle."""
  name = args.product or "orbifold"
  kind = _KINDS[name]
  if name in ("v-plus", "v-minus"):
    bundle = doc_bundle
    if args.bundle:
      try:
        bundle = _bundle([_decimal(c, "entry %d" % (i + 1), ValueError)
                          for i, c in enumerate(args.bundle.split(","))])
      except ValueError as e:
        raise CliError(3, "--bundle: %s" % e)
    if bundle is None:
      raise CliError(3, "product %s requires a bundle: pass --bundle or add "
                        "a bundle field to the document" % name)
    kind = kind(bundle)
  if args.coeff is None:
    return kind, kind.default_domain
  if args.coeff == "z" and kind.is_asymptotic:
    raise CliError(3, "asymptotic products require rational coefficients")
  return kind, args.coeff


def _with_domain(pres, domain):
  if domain is None or domain == pres.domain:
    return pres
  return RingPresentation(pres.names, pres.degrees, pres.generators,
                          pres.tags, domain)


def _resolve_sector(names, token):
  """A sector argument is a document label, w<k>, or a bare box index."""
  if token in names:
    return names.index(token) + 1
  k = len(names)
  # str.isdigit alone also accepts superscripts, which int() refuses
  if (token.startswith("w") and _ascii_number(token)
      and token[1:].isdigit()):
    idx = int(token[1:])
    if 1 <= idx <= k:
      return idx
  if _ascii_number(token) and token.isdigit():
    idx = int(token)
    if 0 <= idx <= k:
      return idx
  raise CliError(3, "unknown sector %r: expected a document label, w1..w%d, "
                    "or a box index 0..%d" % (token, k, k))


def _write_json(obj, out, indent):
  """Append obj to the list out in chunks that join to
  json.dumps(obj, sort_keys=True, indent=2); indent is the newline and
  spaces that start a line at obj's depth.  Only str, int, bool, None,
  list and dict with str keys are written; anything else is a TypeError.
  The commonest items (str, int, a term's [index, power]) are written in
  one chunk with the text before them."""
  if isinstance(obj, list):
    if not obj:
      out.append("[]")
      return
    inner = indent + "  "
    sep = "[" + inner
    for item in obj:
      kind = type(item)
      if kind is str:
        out.append(sep + _escape(item))
      elif kind is int:
        out.append(sep + int.__repr__(item))
      elif (kind is list and len(item) == 2 and type(item[0]) is int
            and type(item[1]) is int):
        deeper = inner + "  "
        out.append("%s[%s%d,%s%d%s]" % (sep, deeper, item[0], deeper,
                                        item[1], inner))
      else:
        out.append(sep)
        _write_json(item, out, inner)
      sep = "," + inner
    out.append(indent + "]")
  elif isinstance(obj, dict):
    if not obj:
      out.append("{}")
      return
    inner = indent + "  "
    sep = "{" + inner
    for key in sorted(obj):
      head = sep + _escape(key) + ": "
      value = obj[key]
      if type(value) is str:
        out.append(head + _escape(value))
      else:
        out.append(head)
        _write_json(value, out, inner)
      sep = "," + inner
    out.append(indent + "}")
  elif isinstance(obj, str):
    out.append(_escape(obj))
  elif obj is None:
    out.append("null")
  elif obj is True:
    out.append("true")
  elif obj is False:
    out.append("false")
  elif isinstance(obj, int):
    out.append(int.__repr__(obj))
  else:
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(obj).__name__)


def _emit(args, doc, text):
  """Write doc as JSON, or text for --format text (None is fine for JSON)."""
  if args.format == "text":
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
  else:
    out = []
    _write_json(doc, out, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))
  return 0


def _presentation_text(pres):
  lines = ["ring over %s" % ("Z" if pres.domain == "z" else "Q"),
           "variables:"]
  for nm, d in zip(pres.names, pres.degrees):
    lines.append("  %s (degree %s)" % (nm, d))
  lines.append("generators:")
  for g, tag in zip(pres.generators, pres.tags):
    lines.append("  [%s] %s" % (tag, format_poly(g, pres.names)))
  return "\n".join(lines)


def _finish_presentation(args, pres, metadata):
  if args.simplify:
    elim = eliminate(pres)
    pres = elim.presentation
    metadata = dict(metadata)
    metadata["eliminated"] = {
        name: _terms_json(poly)
        for name, poly in sorted(elim.substitutions.items())}
  # a document parse_presentation_document would refuse is not written
  for g in pres.generators if pres.names else ():
    exp = max(g.terms, key=max, default=())
    if max(exp, default=0) > MAX_POWER:
      j = exp.index(max(exp))
      raise CliError(3, "power %d of %s in a generator is above the limit "
                        "of %d" % (exp[j], pres.names[j], MAX_POWER))
  text = _presentation_text(pres) if args.format == "text" else None
  return _emit(args, print_presentation_document(pres, metadata), text)


# -- commands --------------------------------------------------------------------
#
# Each command runs as run(args, fan, doc_bundle, labels) on the loaded
# document; main has already checked the fan's hypotheses, except for
# validate.  `labels` is the document's map, which a command resolves into
# sector names only where it prints them.

def cmd_validate(args, fan, doc_bundle, labels):
  errors = list(fan.validate())
  doc = {"schema": SCHEMA, "valid": not errors, "errors": errors}
  text = "valid stacky fan" if not errors else "\n".join(errors)
  _emit(args, doc, text)
  return 0 if not errors else 2


def cmd_box(args, fan, doc_bundle, labels):
  rows = _box_rows(fan, _sector_names(fan, labels))
  lines = []
  for row in rows:
    lines.append("%s: v=(%s) q=(%s) age=%s gamma=(%s) s=(%s) cone={%s}" % (
        row["label"], ",".join(row["v"]), ",".join(row["q"]), row["age"],
        ",".join(row["gamma"]), ",".join(row["s"]),
        ",".join(str(i) for i in row["cone"])))
  return _emit(args, {"schema": SCHEMA, "box": rows}, "\n".join(lines))


def cmd_chow(args, fan, doc_bundle, labels):
  pres = _with_domain(sr_ring(fan), args.coeff)
  names = _sector_names(fan, labels)
  return _finish_presentation(args, pres, _fan_metadata(fan, names))


def cmd_inertial(args, fan, doc_bundle, labels):
  kind, domain = _product(args, doc_bundle)
  names = _sector_names(fan, labels)
  pres = inertial_presentation(fan, kind, labels=names, domain=domain)
  metadata = _fan_metadata(fan, names, product=args.product or "orbifold",
                           bundle=kind.bundle)
  return _finish_presentation(args, pres, metadata)


def cmd_multiply(args, fan, doc_bundle, labels):
  kind, _ = _product(args, doc_bundle)
  names = _sector_names(fan, labels)
  els = fan.box()
  i = _resolve_sector(names, args.left)
  j = _resolve_sector(names, args.right)
  target, coeff = star_product(fan, kind, els[i], els[j])
  xnames = ["x%d" % (t + 1) for t in range(fan.n)]
  coeff_text = format_poly(coeff, xnames)
  if target is None:
    label = None
    text = "0 (no common cone)"
  else:
    label = "1" if target.is_identity else names[fan.box_index(target) - 1]
    if coeff.is_zero():
      text = "0"
    elif coeff == Poly.constant(fan.n, 1):
      text = label
    else:
      text = "(%s) * %s" % (coeff_text, label)
  doc = {
      "schema": SCHEMA,
      "product": args.product or "orbifold",
      "factors": [names[i - 1] if i else "1", names[j - 1] if j else "1"],
      "target": label,
      "coefficient": {"terms": _terms_json(coeff), "text": coeff_text},
      "zero": coeff.is_zero(),
  }
  return _emit(args, doc, text)


def cmd_check_assoc(args, fan, doc_bundle, labels):
  kind, domain = _product(args, doc_bundle)
  names = _sector_names(fan, labels)
  witnesses = associativity_witnesses(fan, kind, domain=domain)
  rows = [[names[i - 1] if i else "1", names[j - 1] if j else "1",
           names[l - 1] if l else "1"] for i, j, l in witnesses]
  doc = {
      "schema": SCHEMA,
      "product": args.product or "orbifold",
      "associative": not witnesses,
      "witnesses": rows,
  }
  text = ("associative" if not witnesses else
          "NOT associative: first witness (%s)" % ", ".join(rows[0]))
  return _emit(args, doc, text)


def _maxdeg(args, fan):
  """The --maxdeg bound of a hilbert request, 2d + 2 by default."""
  if args.maxdeg is None:
    return Fraction(2 * fan.d + 2)
  maxdeg = _rational(args.maxdeg, "--maxdeg", lambda msg: CliError(3, msg))
  if maxdeg < 0:
    raise CliError(3, "--maxdeg: %r is negative" % args.maxdeg)
  return maxdeg


def cmd_hilbert(args, fan, doc_bundle, labels):
  # the product flags, then --maxdeg, are refused before any ring is built
  kind, domain = (_product(args, doc_bundle) if args.product
                  else (None, args.coeff))
  maxdeg = _maxdeg(args, fan)
  if kind is None:
    table = hilbert_table(_with_domain(sr_ring(fan), domain), maxdeg)
  else:
    _sector_names(fan, labels)  # a label out of range is refused here too
    table = inertial_hilbert_table(fan, kind, maxdeg, domain)
  rows = [{"degree": str(r.degree), "free_rank": r.free_rank,
           "torsion": [str(m) for m in r.torsion], "text": r.describe()}
          for r in table]
  text = "\n".join("deg %s: %s" % (r["degree"], r["text"]) for r in rows)
  return _emit(args, {"schema": SCHEMA, "pieces": rows}, text)


# -- argument parsing ------------------------------------------------------------

def build_parser():
  shared = argparse.ArgumentParser(add_help=False)
  shared.add_argument("file", help="fan document (JSON)")
  shared.add_argument("--product", choices=PRODUCT_NAMES, default=None)
  shared.add_argument("--bundle", default=None,
                      help="comma-separated nonnegative integers, one per ray")
  shared.add_argument("--coeff", choices=("z", "q"), default=None)
  shared.add_argument("--simplify", action="store_true",
                      help="eliminate redundant variables before printing")
  shared.add_argument("--maxdeg", default=None,
                      help="degree bound as p/q (hilbert only)")
  shared.add_argument("--format", choices=("json", "text"), default="json")
  parser = argparse.ArgumentParser(
      prog="stacky-chow",
      description="Chow ring presentations of toric DM stacks from stacky "
                  "fan documents")
  sub = parser.add_subparsers(dest="command", required=True)
  sub.add_parser("validate", parents=[shared]).set_defaults(run=cmd_validate)
  sub.add_parser("box", parents=[shared]).set_defaults(run=cmd_box)
  sub.add_parser("chow", parents=[shared]).set_defaults(run=cmd_chow)
  sub.add_parser("inertial", parents=[shared]).set_defaults(run=cmd_inertial)
  mult = sub.add_parser("multiply", parents=[shared])
  mult.add_argument("left", help="sector: document label, w<k>, or box index")
  mult.add_argument("right", help="sector: document label, w<k>, or box index")
  mult.set_defaults(run=cmd_multiply)
  sub.add_parser("check-assoc",
                 parents=[shared]).set_defaults(run=cmd_check_assoc)
  sub.add_parser("hilbert", parents=[shared]).set_defaults(run=cmd_hilbert)
  return parser


# built by the first job of a process; parse_args keeps no state between jobs
_parser = None


def main(argv=None):
  """Run one job: parse argv, load the fan document, check the fan (except
  for validate), run the command.  A ValueError the library raises on a
  well-formed fan is a semantically invalid request, so it exits 3."""
  global _parser
  if _parser is None:
    _parser = build_parser()
  try:
    args = _parser.parse_args(argv)
  except SystemExit as e:
    # argparse exits 2 on usage errors; that code is reserved for fans
    # failing their hypotheses, so report usage problems as misuse
    return 0 if not e.code else 3
  try:
    fan, doc_bundle, labels = load_fan_document(args.file)
    if args.command != "validate":
      _require_valid(fan)
    return args.run(args, fan, doc_bundle, labels)
  except CliError as e:
    sys.stderr.write("stacky-chow: %s\n" % e)
    return e.code
  except ValueError as e:
    sys.stderr.write("stacky-chow: %s\n" % e)
    return 3


if __name__ == "__main__":
  sys.exit(main())
