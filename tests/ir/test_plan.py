"""ExecutionPlan behavior: compile-time folding, liveness, bit-identity."""
import threading

import numpy as np
import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.executor import ExecutionError, Executor, execute
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.passes import fold_shape_constants
from repro.ir.plan import ExecutionPlan, compile_plan
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import DataType, TensorInfo


def mlp_graph():
    b = GraphBuilder("mlp")
    x = b.input("x", (2, 16))
    h = b.relu(b.linear(x, 32, name="fc1"))
    y = b.linear(h, 8, name="fc2")
    b.output(y)
    infer_shapes(b.graph)
    return b.graph, x, y


def shape_chain_graph():
    """x -> Shape -> Gather(0) feeds a reshape target; all foldable."""
    b = GraphBuilder("shapes")
    x = b.input("x", (2, 3, 4))
    shp = b.node("Shape", [x])                      # constant: (2, 3, 4)
    batch = b.gather(shp, b.constant(np.asarray(0, np.int64)))
    rest = b.constant(np.asarray([-1], np.int64))
    tgt = b.node("Concat",
                 [b.node("Unsqueeze",
                         [batch, b.constant(np.asarray([0], np.int64))]),
                  rest], attrs={"axis": 0})
    y = b.node("Reshape", [x, tgt])
    b.output(y)
    infer_shapes(b.graph)
    return b.graph


def feeds_for(graph, seed=11):
    rng = np.random.default_rng(seed)
    return {t.name: rng.standard_normal(t.shape).astype(np.float32)
            for t in graph.inputs}


def test_plan_matches_seeded_executor():
    graph, _, _ = mlp_graph()
    feeds = feeds_for(graph)
    for seed in (0, 7):
        want = Executor(graph, seed=seed).run(feeds)
        got = ExecutionPlan(graph, seed=seed).run(feeds)
        for k in want:
            assert want[k].tobytes() == got[k].tobytes()
    # different weight seeds must differ, proving the seed is honored
    a = ExecutionPlan(mlp_graph()[0], seed=0).run(feeds)
    b = ExecutionPlan(mlp_graph()[0], seed=1).run(feeds)
    assert a["fc2_out"].tobytes() != b["fc2_out"].tobytes()


@pytest.mark.parametrize("level", [None, 0, 1, 2, 3],
                         ids=["executor", "O0", "O1", "O2", "O3"])
def test_each_runtime_owns_its_seeded_weights(level):
    # one graph, seed 0 then seed 1: the second runtime must draw its
    # own weights rather than reuse what the first drew, and neither
    # may write its draw into the caller's graph
    graph, _, _ = mlp_graph()
    feeds = feeds_for(graph)

    def run(seed):
        runtime = Executor(graph, seed=seed) if level is None \
            else compile_plan(graph, seed=seed, optimize=level)
        return runtime.run(feeds)["fc2_out"]

    first, second, again = run(0), run(1), run(0)
    assert first.tobytes() != second.tobytes()
    assert first.tobytes() == again.tobytes()
    assert all(init.data is None for init in graph.initializers.values())


def test_repeat_runs_are_bit_identical():
    graph, _, _ = mlp_graph()
    feeds = feeds_for(graph)
    plan = compile_plan(graph)
    first = plan.run(feeds)
    for _ in range(3):
        again = plan.run(feeds)
        for k in first:
            assert first[k].tobytes() == again[k].tobytes()


def caller_owned_graph():
    """Outputs straight from writers and through a view of one."""
    b = GraphBuilder("owned")
    x = b.input("x", (2, 4, 8, 8))
    a = b.relu(b.conv(x, 4, 3, padding=1, name="conv"))
    s = b.add(a, x)
    return b.finish(b.reshape(s, (2, 256)), b.relu(s)), [a, s]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_run_outputs_belong_to_the_caller(level):
    # the arrays one run returns must come through the next run (other
    # feeds) unchanged: no later run may write into them
    graph, inters = caller_owned_graph()
    plan = compile_plan(graph, optimize=level)
    feeds_a, feeds_b = feeds_for(graph, seed=1), feeds_for(graph, seed=2)
    for fetch in (None, graph.output_names + inters):
        got = plan.run(feeds_a, fetch=fetch)
        want = {k: v.copy() for k, v in got.items()}
        plan.run(feeds_b, fetch=fetch)
        plan.run(feeds_b)
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k


def test_no_level_has_an_arena():
    graph, _, _ = mlp_graph()
    for level in range(4):
        assert compile_plan(graph, optimize=level).arena_peak_bytes == 0


def test_shape_subgraph_folds_at_compile_time():
    graph = shape_chain_graph()
    plan = compile_plan(graph)
    # Shape/Gather/Unsqueeze/Concat collapse; only Reshape executes
    assert plan.num_folded >= 4
    assert plan.num_steps < len(graph.nodes)
    feeds = feeds_for(graph)
    want = execute(graph, feeds)
    got = plan.run(feeds)
    for k in want:
        assert want[k].tobytes() == got[k].tobytes()


def test_fold_shape_constants_pass_is_lossless():
    graph = shape_chain_graph()
    folded = fold_shape_constants(graph)
    assert len(folded.nodes) < len(graph.nodes)
    assert len(graph.nodes) == 5  # original untouched without in_place
    feeds = feeds_for(graph)
    want = execute(graph, feeds)
    got = execute(folded, feeds)
    for k in want:
        assert want[k].tobytes() == got[k].tobytes()


def test_fetch_intermediate_and_folded_tensors():
    graph, _, _ = mlp_graph()
    feeds = feeds_for(graph)
    inter = graph.nodes[0].outputs[0]
    want = execute(graph, feeds, fetch=[inter])
    got = compile_plan(graph).run(feeds, fetch=[inter])
    assert want[inter].tobytes() == got[inter].tobytes()

    shapes = shape_chain_graph()
    folded_name = shapes.nodes[0].outputs[0]      # Shape output, now const
    got = compile_plan(shapes).run(feeds_for(shapes), fetch=[folded_name])
    assert got[folded_name].tolist() == [2, 3, 4]


def test_liveness_releases_intermediates():
    graph, _, _ = mlp_graph()
    plan = compile_plan(graph)
    released = [name for step in plan._steps for name in step.release]
    produced = {o for step in plan._steps for o in step.outputs}
    # every non-output intermediate has exactly one release point
    expected = produced - set(graph.output_names)
    assert set(released) == expected
    assert len(released) == len(expected)
    # graph outputs are never released
    assert not (set(released) & set(graph.output_names))


def test_feed_validation_matches_executor():
    graph, _, _ = mlp_graph()
    plan = compile_plan(graph)
    with pytest.raises(ExecutionError, match="missing feed"):
        plan.run({})
    bad = {"x": np.zeros((3, 16), dtype=np.float32)}
    with pytest.raises(ExecutionError, match="shape"):
        plan.run(bad)


def test_unknown_op_fails_at_compile_time():
    g = Graph("bad", inputs=[TensorInfo("x", (1, 4), DataType.FLOAT32)])
    g.add_node(Node("NotAnOp", ["x"], ["y"]))
    g.outputs = [TensorInfo("y", (1, 4), DataType.FLOAT32)]
    g.value_info = {"x": g.inputs[0], "y": g.outputs[0]}
    with pytest.raises(ExecutionError, match="no executor"):
        compile_plan(g)


def test_concurrent_runs_are_serialized_and_correct():
    graph, _, _ = mlp_graph()
    plan = compile_plan(graph)
    feeds = feeds_for(graph)
    want = plan.run(feeds)["fc2_out"].tobytes()
    results, errors = [], []

    def work():
        try:
            results.append(plan.run(feeds)["fc2_out"].tobytes())
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == want for r in results)
