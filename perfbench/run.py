"""stacky-chow benchmark: seeded job streams through `stackychow.cli.main`.

One client in a closed loop: a single process, no threads, and each job
starts when the previous one has returned.  Every job's output is checked
(see checks.py).  Run from the repository root:

  python3 perfbench/run.py --workload hilbert|simplify|assoc|all \\
      [--seed N] [--seconds S] [--trace 0|1]

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
`--record` adds the hilbert and simplify outputs of a seed to
reference.json; it never changes a value already there.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("hilbert", "simplify", "assoc")
DEFAULT_SEED = 20240816
SETUP_REPS = 3   # setup_s is the median of this many set-ups

# Spans whose total and self time are reported, and the calls of some of
# them under the names the layer map in README.md uses.
SPANS = ("lattice.qreducer", "lattice.zreducer", "lattice.snf",
         "gradedpoly.monomials", "gradedpoly.reducer",
         "gradedpoly.generator_degrees", "gradedpoly.hilbert_table",
         "gradedpoly.eliminate", "inertial.presentation", "inertial.br_ideal",
         "inertial.star_product", "inertial.triple", "inertial.reduction",
         "inertial.assoc", "stackyfan.validate", "stackyfan.box",
         "charring.character_data", "charring.sr_ring", "cli.parser_build",
         "cli.parse", "cli.emit", "cli.job")
SPAN_CALLS = {"lattice.snf_calls": "lattice.snf",
              "gradedpoly.monomials_calls": "gradedpoly.monomials",
              "gradedpoly.reducer_builds": "gradedpoly.reducer",
              "gradedpoly.eliminate_calls": "gradedpoly.eliminate",
              "inertial.star_product_calls": "inertial.star_product",
              "inertial.triples": "inertial.triple",
              "inertial.reductions": "inertial.reduction"}
COUNTERS = ("lattice.reducer_rows", "lattice.reducer_width",
            "lattice.reduce_calls", "gradedpoly.monomials_out",
            "gradedpoly.reducer_calls", "gradedpoly.vars_removed",
            "gradedpoly.map_vars_calls", "inertial.gens_linear",
            "inertial.gens_stanley_reisner", "inertial.gens_sector",
            "inertial.gens_cone", "inertial.gens_box", "stackyfan.box_size",
            "stackyfan.box_add_calls")


def docs_dir(workload, seed):
  return os.path.join(WORK, "docs-%s-%d" % (workload, seed))


def setup(workload, seed):
  """Import the program afresh, build the seed's corpus, write documents."""
  for name in list(sys.modules):
    if name.split(".")[0] in ("stackychow", "corpus", "checks"):
      del sys.modules[name]
  import corpus
  import stackychow.cli  # noqa: F401  (the import is part of set-up)
  entries = corpus.build_corpus(seed)
  corpus.write_documents(entries, docs_dir(workload, seed))
  return entries, corpus.WORKLOADS[workload](entries)


def run_pass(jobs, tracer=None):
  """Run the jobs in order; returns the pass time and (rc, out, err, s).

  The pass time counts only the jobs.  Before each, the previous job's
  garbage is collected untimed, as a fresh CLI process would start clean.
  """
  from stackychow.cli import main
  outputs = []
  wall = 0.0
  for k, job in enumerate(jobs):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
      try:
        rc = main(job.argv()) if tracer is None else tracer.job(
            k, main, job.argv())
      except Exception:
        rc = -1
        err.write(traceback.format_exc())
    dt = perf_counter() - t
    wall += dt
    outputs.append((rc, out.getvalue(), err.getvalue(), dt))
  return wall, outputs


def check_pass(checker, jobs, outputs):
  failed = 0
  for job, (rc, out, err, _) in zip(jobs, outputs):
    why = checker.problem(job, rc, out, err)
    if why is not None:
      failed += 1
      if failed <= 10:
        log("FAIL %s: %s" % (job.label(), why))
  return failed


def log(msg):
  sys.stderr.write(msg + "\n")


def metric(value, unit):
  return {"value": value, "unit": unit}


def end_to_end(passes, setup_s, peak_rss_mb):
  """passes: (pass time, per-job times) of each pass."""
  per_job = [statistics.median(p[1][k] for p in passes)
             for k in range(len(passes[0][1]))]
  return {
      "wall_s": metric(statistics.median(p[0] for p in passes), "s"),
      "job_p50_ms": metric(1000 * statistics.median(per_job), "ms"),
      "job_p90_ms": metric(1000 * statistics.quantiles(per_job, n=10)[8],
                           "ms"),
      "peak_rss_mb": metric(peak_rss_mb, "MB"),
      "setup_s": metric(setup_s, "s"),
  }


def per_layer(tracer, traced_wall, untraced_wall, cache_entries, out_bytes,
              refused):
  layers, counts = tracer.layers(), tracer.counts
  out = {}
  for name in SPANS:
    calls, total, self_s = layers.get(name, (0, 0.0, 0.0))
    out[name + "_s"] = metric(total, "s")
    out[name + "_self_s"] = metric(self_s, "s")
  for key, name in SPAN_CALLS.items():
    out[key] = metric(layers.get(name, (0,))[0], "count")
  for key in COUNTERS:
    out[key] = metric(counts.get(key, 0), "count")
  calls = counts.get("gradedpoly.reducer_calls", 0)
  builds = layers.get("gradedpoly.reducer", (0,))[0]
  out["gradedpoly.reducer_hit_ratio"] = metric(
      (calls - builds) / calls if calls else 0.0, "ratio")
  triples = out["inertial.triples"]["value"]
  out["inertial.reduction_ratio"] = metric(
      out["inertial.reductions"]["value"] / triples if triples else 0.0,
      "ratio")
  out["charring.cache_entries"] = metric(cache_entries, "count")
  out["cli.out_bytes"] = metric(out_bytes, "bytes")
  out["cli.refused_graded"] = metric(refused, "count")
  out["trace.wall_s"] = metric(traced_wall, "s")
  out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
  out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
  return out


def write_trace(tracer, workload, seed, jobs):
  path = os.path.join(WORK, "trace-%s-%d.json" % (workload, seed))
  with open(path, "w", encoding="utf-8") as fh:
    json.dump({"workload": workload, "seed": seed,
               "jobs": [j.label() for j in jobs],
               "layers": tracer.layers(), "counts": tracer.counts,
               "per_job": tracer.per_job,
               "spans": [s for s in tracer.spans if s is not None]}, fh)
  return path


def run_workload(args):
  times, jobs = [], None
  for _ in range(SETUP_REPS):
    t = perf_counter()
    entries, jobs = setup(args.workload, args.seed)
    times.append(perf_counter() - t)
  setup_s = statistics.median(times)
  import checks
  import corpus
  import spans
  checker = checks.Checker(args.seed)
  if args.trace:
    # an untraced pass as the baseline of the tracing overhead; on hilbert
    # also an untimed probe of the graded queries the CLI still refuses
    untraced_wall, outputs = run_pass(jobs)
    failed = check_pass(checker, jobs, outputs)
    probe = (corpus.refused_graded_jobs(entries)
             if args.workload == "hilbert" else [])
    probe_out = run_pass(probe)[1]
    refused = sum(1 for job, o in zip(probe, probe_out)
                  if checker.problem(job, *o[:3]) is None)
    from stackychow import charring
    cache_before = len(charring._character_cache)
    tracer = spans.Tracer()
    spans.install(tracer)
    traced_wall, outputs = run_pass(jobs, tracer)
    failed += check_pass(checker, jobs, outputs)
    metrics = per_layer(tracer, traced_wall, untraced_wall,
                        len(charring._character_cache) - cache_before,
                        sum(len(o[1]) for o in outputs), refused)
    log("trace written to %s" % write_trace(tracer, args.workload, args.seed,
                                            jobs))
    top = sorted(tracer.layers().items(), key=lambda kv: -kv[1][2])[:10]
    for name, (calls, total, self_s) in top:
      log("  self %8.3f s  %5.1f%%  %-28s %d calls" % (
          self_s, 100 * self_s / traced_wall, name, calls))
    attempted = 2 * len(jobs)
  else:
    # whole passes until --seconds have gone by; outputs are checked and
    # dropped after each.  Peak RSS is read after the first pass, since the
    # id(fan)-keyed character cache grows with every pass that follows.
    passes, failed = [], 0
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
      wall, outputs = run_pass(jobs)
      failed += check_pass(checker, jobs, outputs)
      passes.append((wall, [o[3] for o in outputs]))
      if len(passes) == 1:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(passes, setup_s, peak_rss_mb)
    attempted = len(jobs) * len(passes)
    log("%d jobs x %d passes" % (len(jobs), len(passes)))
  if checker.unreferenced:
    log("seed %d is not in reference.json: %d jobs were checked for exit code "
        "and document shape only" % (args.seed, len(checker.unreferenced)))
  for name, m in metrics.items():
    log("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
  return {"correct": failed == 0, "attempted": attempted, "failed": failed,
          "metrics": metrics}


def record(args):
  import checks
  checker = checks.Checker(args.seed)
  for workload in ("hilbert", "simplify"):
    jobs = setup(workload, args.seed)[1]
    checker.record(args.seed, jobs, run_pass(jobs)[1])
    shutil.rmtree(docs_dir(workload, args.seed))
  log("recorded seed %d; %d values in total" % (args.seed,
                                                len(checker.reference)))


def run_all(args):
  """Each workload in its own process, so peak RSS stays per workload."""
  results = {}
  for workload in WORKLOADS:
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
      log("workload %s exited %d" % (workload, done.returncode))
      return None
    results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
  for workload, res in results.items():
    print("%s: correct=%s attempted=%d failed=%d" % (
        workload, res["correct"], res["attempted"], res["failed"]))
    for name, m in res["metrics"].items():
      print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
  return results


def main(argv=None):
  ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
  ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
  ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
  ap.add_argument("--seconds", type=float, default=15)
  ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
  ap.add_argument("--record", action="store_true")
  args = ap.parse_args(argv)
  if not os.path.isfile(os.path.join(SRC, "stackychow", "cli.py")):
    log("no stackychow sources under %s: run from a repository checkout" % SRC)
    return 2
  sys.path[:0] = [SRC, HERE]
  os.makedirs(WORK, exist_ok=True)
  if args.record:
    record(args)
    return 0
  if args.workload == "all":
    result = run_all(args)
  else:
    result = run_workload(args)
    shutil.rmtree(docs_dir(args.workload, args.seed))
  if result is None:
    return 1
  print(json.dumps(result, sort_keys=True))
  return 0


if __name__ == "__main__":
  sys.exit(main())
