"""Differential-testing and invariant-checking harness (``proof check``).

The repo computes the same answers through redundant paths — the
reference executor, compiled O0-O3 execution plans (both run the
model's own ONNX nodes), the analytical AR/OAR cost model, and
memoized/cached results.  This package systematically proves they
agree:

- :mod:`repro.check.fuzz` — seeded adversarial graph fuzzer and the
  differential runner (executor vs O0-O3 plans; bit-identity at O0/O1,
  tolerance at O2/O3);
- :mod:`repro.check.invariants` — mapping bijectivity, fused-cost
  additivity, cache round-trip digests, and the instrumented counting
  executor vs analytical FLOP/byte predictions;
- :mod:`repro.check.corpus` — minimized regression cases under
  ``tests/check/corpus/``, replayed by every run;
- :mod:`repro.check.runner` — the ``proof check`` entry point.
"""
from .counting import CountingExecutor
from .corpus import load_corpus, replay_corpus, save_case
from .fuzz import (FuzzFailure, FuzzSummary, O2_RTOL, differential_check,
                   fuzz_graph, make_feeds, run_fuzz)
from .invariants import (InvariantResult, check_cache_roundtrip,
                         check_cost_additivity, check_counting_executor,
                         check_mapping_bijectivity,
                         check_partition_conservation, run_invariants)
from .runner import DEFAULT_MODELS, CheckReport, run_check

__all__ = [
    "CountingExecutor",
    "load_corpus", "replay_corpus", "save_case",
    "FuzzFailure", "FuzzSummary", "O2_RTOL", "differential_check",
    "fuzz_graph", "make_feeds", "run_fuzz",
    "InvariantResult", "check_cache_roundtrip", "check_cost_additivity",
    "check_counting_executor", "check_mapping_bijectivity",
    "check_partition_conservation", "run_invariants",
    "DEFAULT_MODELS", "CheckReport", "run_check",
]
