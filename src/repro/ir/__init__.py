"""Graph IR: the reproduction's self-contained stand-in for ONNX.

Exposes tensors, nodes, graphs, a fluent builder, shape inference,
a numpy reference executor and JSON serialization.
"""
from .tensor import DataType, Initializer, TensorInfo
from .node import Node
from .graph import Graph, GraphError
from .builder import GraphBuilder
from .shape_inference import (
    ShapeInferenceError,
    broadcast_shapes,
    conv_output_spatial,
    infer_shapes,
    registered_ops,
)
from .executor import ExecutionError, Executor, supported_ops
from .plan import ExecutionPlan, compile_plan
from .passes import fold_shape_constants
from .serialization import from_json, load, save, to_json
from .fingerprint import array_digest, graph_fingerprint, report_digest

__all__ = [
    "DataType", "Initializer", "TensorInfo", "Node", "Graph", "GraphError",
    "GraphBuilder", "ShapeInferenceError", "broadcast_shapes",
    "conv_output_spatial", "infer_shapes", "registered_ops",
    "ExecutionError", "Executor", "supported_ops",
    "ExecutionPlan", "compile_plan", "fold_shape_constants",
    "from_json", "load", "save", "to_json",
    "array_digest", "graph_fingerprint", "report_digest",
]
