"""Layer spans recorded from outside the program.

`install` wraps the public entry points of each stackychow module, patching
every name where the caller looks it up (a function imported into another
module is patched in that module's namespace; methods on their class).  The
untraced run never calls it, so it pays nothing.

Each span has a name, start, end, parent and job id; spans run only inside
a job.  Self time is a span's duration minus the time covered by its direct
children.  Past the first SPAN_CAP spans of a name in one job only per-job
aggregates are kept, which bounds memory (check-assoc has a million triple
spans); calls, totals and self times still count every span.
"""

from fractions import Fraction
from time import perf_counter

SPAN_CAP = 200


class Tracer:

  def __init__(self):
    self.spans = []     # (name, start, end, parent index or -1, job)
    self.counts = {}    # counter name -> int
    self.per_job = []   # job -> {name: [calls, total_s, self_s]}
    self._stack = []    # open spans: [child_s, span index]
    self._open = {}     # name -> how many spans of that name are open
    self._job = -1
    self.t0 = perf_counter()

  def add(self, name, k=1):
    self.counts[name] = self.counts.get(name, 0) + k

  def layers(self):
    """name -> [calls, total_s, self_s] over all jobs.  Total time counts
    only the outermost span of a name, so a re-entered layer is not counted
    twice."""
    out = {}
    for table in self.per_job:
      for name, (calls, total, self_s) in table.items():
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    return out

  def span(self, name, fn, after=None):
    """fn wrapped in a span; after(tracer, args, result) records sizes.

    Entry and exit are inlined: check-assoc runs this wrapper a million
    times a pass, so its cost is most of the tracing overhead."""
    stack, opened, spans, per_job = (self._stack, self._open, self.spans,
                                     self.per_job)

    def traced(*args, **kwargs):
      table = per_job[-1]
      acc = table.get(name)
      if acc is None:
        acc = table[name] = [0, 0.0, 0.0]
      parent = stack[-1][1] if stack else -1
      index = parent
      if acc[0] < SPAN_CAP:
        index = len(spans)
        spans.append(None)
      opened[name] = opened.get(name, 0) + 1
      frame = [0.0, index]
      stack.append(frame)
      start = perf_counter()
      try:
        result = fn(*args, **kwargs)
      finally:
        end = perf_counter()
        stack.pop()
        dur = end - start
        if stack:
          stack[-1][0] += dur
        opened[name] -= 1
        if index != parent:
          spans[index] = (name, start - self.t0, end - self.t0, parent,
                          self._job)
        acc[0] += 1
        if not opened[name]:
          acc[1] += dur
        acc[2] += dur - frame[0]
      if after is not None:
        after(self, args, result)
      return result
    return traced

  def counted(self, name, fn):
    def counting(*args, **kwargs):
      self.add(name)
      return fn(*args, **kwargs)
    return counting

  def job(self, job, fn, *args):
    self._job = job
    self.per_job.append({})
    return self.span("cli.job", fn)(*args)


def _patch(tracer, owners, attr, name, after=None, when=None):
  """Wrap owner.attr for every owner; `when(args)` limits spans to real work
  (the cached fast path of box() and validate() then runs unwrapped)."""
  for owner in owners:
    fn = getattr(owner, attr)
    traced = tracer.span(name, fn, after)
    if when is not None:
      traced = _gated(fn, traced, when)
    setattr(owner, attr, traced)


def _gated(fn, traced, when):
  def gated(*args, **kwargs):
    return (traced if when(args) else fn)(*args, **kwargs)
  return gated


def install(tracer):
  """Wrap the layer entry points of an imported stackychow."""
  from stackychow import charring, cli, gradedpoly, inertial, lattice, stackyfan
  from stackychow.gradedpoly import Poly, RingPresentation
  from stackychow.inertial import StarCalculator
  from stackychow.lattice import QReducer, ZReducer
  from stackychow.stackyfan import StackyFan

  def reducer_size(t, args, _):
    t.add("lattice.reducer_rows", len(args[1]))
    t.add("lattice.reducer_width", args[2])

  def reducer_built(args):
    return Fraction(args[1]) not in args[0]._reducers

  def eliminated(t, args, result):
    t.add("gradedpoly.vars_removed",
          len(args[0].names) - len(result.presentation.names))

  def presentation(t, args, result):
    for tag in result.tags:
      t.add("inertial.gens_" + tag)

  # lattice
  _patch(tracer, (QReducer,), "__init__", "lattice.qreducer", reducer_size)
  _patch(tracer, (ZReducer,), "__init__", "lattice.zreducer", reducer_size)
  for cls in (QReducer, ZReducer):
    cls.reduce = tracer.counted("lattice.reduce_calls", cls.reduce)
  _patch(tracer, (lattice, stackyfan, charring), "smith_normal_form",
         "lattice.snf")
  # gradedpoly
  _patch(tracer, (gradedpoly,), "monomials_of_degree", "gradedpoly.monomials",
         lambda t, a, r: t.add("gradedpoly.monomials_out", len(r)))
  RingPresentation.reducer = tracer.counted(
      "gradedpoly.reducer_calls", RingPresentation.reducer)
  _patch(tracer, (RingPresentation,), "reducer", "gradedpoly.reducer",
         when=reducer_built)
  _patch(tracer, (RingPresentation,), "generator_degrees",
         "gradedpoly.generator_degrees")
  _patch(tracer, (cli,), "hilbert_table", "gradedpoly.hilbert_table")
  _patch(tracer, (cli, inertial), "eliminate", "gradedpoly.eliminate",
         eliminated)
  Poly.map_vars = tracer.counted("gradedpoly.map_vars_calls", Poly.map_vars)
  # stackyfan
  _patch(tracer, (StackyFan,), "validate", "stackyfan.validate",
         when=lambda a: a[0]._validation is None)
  _patch(tracer, (StackyFan,), "box", "stackyfan.box",
         lambda t, a, r: t.add("stackyfan.box_size", len(r)),
         when=lambda a: a[0]._box is None)
  StackyFan.box_add = tracer.counted("stackyfan.box_add_calls",
                                     StackyFan.box_add)
  # charring
  _patch(tracer, (cli, inertial, charring), "character_data",
         "charring.character_data")
  _patch(tracer, (cli,), "sr_ring", "charring.sr_ring")
  # inertial
  _patch(tracer, (cli,), "inertial_presentation", "inertial.presentation",
         presentation)
  _patch(tracer, (inertial,), "br_ideal", "inertial.br_ideal")
  _patch(tracer, (cli, inertial), "star_product", "inertial.star_product")
  # one span per sector triple: both bracketings and their comparison
  _patch(tracer, (StarCalculator,), "associates", "inertial.triple")
  _patch(tracer, (StarCalculator,), "reduces_to_zero", "inertial.reduction")
  _patch(tracer, (cli,), "associativity_witnesses", "inertial.assoc")
  # cli
  _patch(tracer, (cli,), "build_parser", "cli.parser_build")
  _patch(tracer, (cli,), "load_fan_document", "cli.parse")
  _patch(tracer, (cli,), "_emit", "cli.emit")
