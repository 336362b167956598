"""perfbench keeps timing O3 plans.

The ``plan-exec`` workload times every ``(model, level)`` pair of
``perfbench/harness/schedule.py``'s ``PLAN_MODELS`` x ``PLAN_LEVELS``
and reports each as ``plan.run.<model>.O<level>_ms``.  If level 3 left
the schedule, or ``BENCHMARK.json`` stopped declaring the per-model O3
metric, O3 timing would silently disappear.  The check reads both files
without importing or running the harness, so it takes no wall-clock
measurement.
"""
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _schedule_constants():
    tree = ast.parse((ROOT / "perfbench/harness/schedule.py").read_text())
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id in ("PLAN_MODELS", "PLAN_LEVELS"):
            found[stmt.targets[0].id] = ast.literal_eval(stmt.value)
    return found


def test_perfbench_times_o3_for_every_plan_model():
    consts = _schedule_constants()
    assert 3 in consts["PLAN_LEVELS"], \
        f"plan-exec no longer runs O3: PLAN_LEVELS={consts['PLAN_LEVELS']}"
    assert consts["PLAN_MODELS"], "plan-exec has no models"
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = [f"plan.run.{model}.O3_ms" for model in consts["PLAN_MODELS"]
               if f"plan.run.{model}.O3_ms" not in declared]
    assert not missing, f"BENCHMARK.json does not declare {missing}"
