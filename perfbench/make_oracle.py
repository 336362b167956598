"""Regenerate the committed oracle under ``perfbench/oracle/``.

    python3 perfbench/make_oracle.py

``digests.json``: the ``report_digest`` of every request any workload
can draw, profiled with ``Profiler(analysis_cache=False)``.
``plan.json``: NaN + Inf output values of every zoo CNN at O0, O2 and
O3, and the plan-exec feed seeds whose O2/O3 outputs meet O2's
tolerance against the reference executor.  Run it from the repository
root on the commit whose outputs are the reference.
"""
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from harness import oracle, schedule  # noqa: E402
from harness.workloads import nonfinite_counts, screen_feed_seeds  # noqa: E402
from repro.core.profiler import Profiler  # noqa: E402
from repro.ir import report_digest  # noqa: E402
from repro.models.registry import build_model  # noqa: E402


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    digests = {}
    for key in schedule.drawable_keys():
        graph = build_model(key.model, batch_size=key.batch)
        report = Profiler(key.backend, schedule.BACKENDS[key.backend],
                          key.precision, analysis_cache=False).profile(graph)
        digests[str(key)] = report_digest(report)
    os.makedirs(oracle.ORACLE_DIR, exist_ok=True)
    _write(oracle.DIGESTS_PATH, {
        "reference": "Profiler(backend, platform, precision, "
                     "analysis_cache=False).profile(build_model(model, "
                     "batch_size=batch))",
        "key": "model|backend|precision|batch",
        "digests": digests})
    within, outside = {}, {}
    for model in schedule.PLAN_MODELS:
        within[model], outside[model] = screen_feed_seeds(model)
    _write(oracle.PLAN_PATH, {
        "image_size": schedule.PLAN_IMAGE_SIZE,
        "weight_seed": schedule.PLAN_WEIGHT_SEED,
        "nonfinite_reference": "compile_plan(cnn, seed=weight_seed, "
                               "optimize=level).run(make_feeds(cnn, seed=0))",
        "nonfinite_outputs": nonfinite_counts(feed_seed=0),
        "within_tolerance_feed_seeds": within,
        "out_of_tolerance_feed_seeds": outside})
    print(f"{len(digests)} digests -> {oracle.DIGESTS_PATH}")
    print(f"plan baseline -> {oracle.PLAN_PATH}: out of tolerance {outside}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
