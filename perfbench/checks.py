"""Output checks, independent of the code under test where they can be.

- check-assoc: the paper's products are associative, so every job must say
  so with no witnesses.
- hilbert over Q on the weighted projective fans: the Borisov-Chen-Smith
  count of corpus.weighted_oracle, from the weights alone.
- other hilbert jobs: the parsed (degree, free_rank, torsion) rows, not the
  free-text field, against rows recorded at an earlier commit.
- inertial/chow/box: the sha256 of stdout against one recorded earlier, so
  outputs stay byte-identical.

Recorded values live in reference.json, keyed by a digest of the fan
document and the arguments, so a corpus job is looked up the same way under
every seed.  On a recorded seed every such job must have its value.  On any
other seed a job without one is checked for its exit code and a well-formed
document only, and counted as unreferenced.
"""

import hashlib
import json
import os
from fractions import Fraction

from corpus import weighted_oracle

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def _digest(text):
  return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def job_key(job):
  return _digest(json.dumps([job.entry.doc_sha, list(job.args)]))[:16]


def rows_of(doc):
  return [[r["degree"], r["free_rank"], r["torsion"]] for r in doc["pieces"]]


def recorded_value(job, out):
  """What reference.json stores for a job's output."""
  if job.check == "digest":
    return _digest(out)
  return _digest(json.dumps(rows_of(json.loads(out))))


class Checker:

  def __init__(self, seed, path=REFERENCE):
    self.path = path
    with open(path, encoding="utf-8") as fh:
      doc = json.load(fh)
    self.seeds = doc["seeds"]
    self.reference = doc["values"]
    self.recorded_seed = seed in self.seeds
    self.unreferenced = set()

  def problem(self, job, rc, out, err):
    """None when the output is right, else a one-line reason."""
    if job.check == "refused":
      if rc == 3 and "presentation is not graded" in err:
        return None
      return "expected the graded refusal, got exit %d" % rc
    if rc != 0:
      return "exit %d: %s" % (rc, err.strip()[:200])
    try:
      doc = json.loads(out)
    except ValueError:
      return "stdout is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != "stacky-chow/1":
      return "stdout is not a stacky-chow/1 document"
    if job.check == "associative":
      if doc.get("associative") is not True or doc.get("witnesses") != []:
        return "not associative: %s" % (doc.get("witnesses"),)
      return None
    if job.check == "oracle":
      return _oracle_problem(job, doc)
    key = job_key(job)
    expected = self.reference.get(key)
    if expected is None:
      if self.recorded_seed:
        return "no recorded value for a recorded seed"
      self.unreferenced.add(key)
      return None
    if recorded_value(job, out) != expected:
      return "output differs from the recorded %s" % (
          "digest" if job.check == "digest" else "rows")
    return None

  def record(self, seed, jobs, outputs):
    """Add the values of one seed's jobs; a recorded value never changes."""
    for job, (rc, out, err, _) in zip(jobs, outputs):
      if job.check not in ("rows", "digest"):
        continue
      if rc != 0:
        raise ValueError("%s exited %d: %s" % (job.label(), rc, err))
      old = self.reference.setdefault(job_key(job), recorded_value(job, out))
      if old != recorded_value(job, out):
        raise ValueError("%s disagrees with its recorded value" % job.label())
    if seed not in self.seeds:
      self.seeds.append(seed)
    with open(self.path, "w", encoding="utf-8") as fh:
      json.dump({"seeds": sorted(self.seeds), "values": self.reference}, fh,
                sort_keys=True, indent=0)
      fh.write("\n")


def _oracle_problem(job, doc):
  dims = weighted_oracle(job.entry.weights, "--product" in job.args)
  rows = rows_of(doc)
  seen = set()
  for degree, free_rank, torsion in rows:
    deg = Fraction(degree)
    seen.add(deg)
    if free_rank != dims.get(deg, 0) or torsion:
      return "degree %s: Q-dimension %d, oracle says %d" % (
          degree, free_rank, dims.get(deg, 0))
  top = max(seen)
  missing = sorted(d for d in dims if d <= top and d not in seen)
  if missing:
    return "degree %s missing from the table" % missing[0]
  return None
