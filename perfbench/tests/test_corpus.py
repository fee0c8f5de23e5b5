"""Checks of the benchmark's own pieces.

Run from the repository root:
  PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH, ROOT]

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tests.test_acceptance import random_valid_fans  # noqa: E402


def _data(fans):
  return [(f.d, f.torsion, f.rays, f.max_cones) for f in fans]


def test_default_seed_is_the_acceptance_suite():
  expected = random_valid_fans(25, seed=run.DEFAULT_SEED)
  assert _data(corpus.suite_fans(run.DEFAULT_SEED)) == _data(expected)
  assert tuple(corpus.shape(f) for f in expected) == corpus.SUITE_SHAPES


def test_other_seed_gives_other_fans_of_the_same_shapes():
  other = corpus.suite_fans(7)
  assert _data(other) != _data(corpus.suite_fans(run.DEFAULT_SEED))
  assert tuple(corpus.shape(f) for f in other) == corpus.SUITE_SHAPES


def test_every_workload_has_enough_jobs_for_p90():
  entries = corpus.build_corpus(run.DEFAULT_SEED)
  for make in corpus.WORKLOADS.values():
    assert len(make(entries)) >= 100


def test_weighted_oracle_small_cases():
  F = Fraction
  assert corpus.weighted_oracle((1, 1, 1), True) == {0: 1, 1: 1, 2: 1}
  # P(1,2): the sector f = 1/2 fixes the point [0:1] and has age 1/2
  assert corpus.weighted_oracle((1, 2), True) == {0: 1, 1: 1, F(1, 2): 1}
  assert corpus.weighted_oracle((1, 2), False) == {0: 1, 1: 1}


def test_metric_names_match_benchmark_json():
  with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    declared = json.load(fh)
  timings = [0.001 * k for k in range(20)]
  e2e = run.end_to_end([(1.0, timings)], 1.0, 40.0)
  layers = run.per_layer(spans.Tracer(), 1.0, 1.0, 0, 0, 0)
  for got, want in ((e2e, declared["end_to_end"]),
                    (layers, declared["per_layer"])):
    assert {k: m["unit"] for k, m in got.items()} == {
        m["name"]: m["unit"] for m in want}
