"""QuantizeLinear/DequantizeLinear kernel tests: a Q -> DQ -> Conv graph
really rounds through int8 in the reference executor."""
import numpy as np

from repro.ir.executor import Executor
from repro.ir.graph import Graph
from repro.ir.node import Node
from repro.ir.shape_inference import infer_shapes
from repro.ir.tensor import DataType, Initializer, TensorInfo


def conv_graph(qdq, scale=0.05):
    """``x -> Conv`` or ``x -> Q -> DQ -> Conv`` with explicit weights."""
    rng = np.random.default_rng(3)
    g = Graph("g", inputs=[TensorInfo("x", (2, 3, 8, 8))],
              outputs=[TensorInfo("y", (2, 4, 8, 8))])
    g.add_initializer(Initializer(
        TensorInfo("w", (4, 3, 3, 3)),
        rng.normal(scale=0.3, size=(4, 3, 3, 3)).astype(np.float32)))
    g.add_initializer(Initializer(
        TensorInfo("b", (4,)), rng.normal(size=4).astype(np.float32)))
    data = "x"
    if qdq:
        g.add_initializer(Initializer(
            TensorInfo("scale", (), DataType.FLOAT32),
            np.asarray(scale, dtype=np.float32)))
        g.add_initializer(Initializer(
            TensorInfo("zero", (), DataType.INT8),
            np.asarray(0, dtype=np.int8)))
        g.add_node(Node("QuantizeLinear", ["x", "scale", "zero"], ["xq"]))
        g.add_node(Node("DequantizeLinear", ["xq", "scale", "zero"],
                        ["xdq"]))
        data = "xdq"
    g.add_node(Node("Conv", [data, "w", "b"], ["y"],
                    attrs={"pads": [1, 1, 1, 1]}))
    infer_shapes(g)
    return g


def test_quantized_tensors_are_int8():
    g = conv_graph(qdq=True)
    assert g.tensor("xq").dtype is DataType.INT8
    assert g.tensor("xdq").dtype is DataType.FLOAT32
    feeds = {"x": np.ones((2, 3, 8, 8), np.float32)}
    assert Executor(g).run(feeds, fetch=["xq"])["xq"].dtype == np.int8


def test_qdq_introduces_bounded_rounding_error():
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8)) \
        .astype(np.float32)
    baseline = Executor(conv_graph(qdq=False)).run({"x": x})["y"]
    out = Executor(conv_graph(qdq=True)).run({"x": x}, fetch=["y"])
    assert out["y"].shape == baseline.shape
    # scale 0.05 covers ±6.4: no saturation on N(0,1) activations, only
    # rounding noise, which perturbs but does not destroy the result
    err = np.abs(out["y"] - baseline).max()
    assert 0 < err < 1.0
