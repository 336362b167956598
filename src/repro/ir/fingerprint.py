"""Content fingerprints for graphs and reports.

``graph_fingerprint`` assigns a graph a deterministic, content-addressed
identity: the hash covers the interface tensors, every initializer's
metadata and payload digest, and every node's type, wiring and
attributes.  It is independent of incidental ordering — attribute and
initializer dictionaries are canonicalized, and nodes are hashed in a
*canonical* topological order, so two graphs whose node lists merely
permute the same dataflow hash identically.  Virtual (weight-only)
initializers contribute their shape/dtype metadata; their absent payload
hashes as such, matching the serializer's treatment.

``report_digest`` does the same for a :class:`ProfileReport` (duck-typed
via ``to_dict`` so :mod:`repro.ir` stays independent of
:mod:`repro.core`): two runs are provably bit-identical when their
digests match, which is how the profiling service proves that a cached
result equals a fresh ``Profiler.profile`` call.

Layer-granular fingerprints
---------------------------

``node_fingerprint`` / ``group_fingerprint`` / ``tensor_fingerprint``
identify a single node, a fused group of nodes, or one tensor's
shape+dtype *independently of tensor names and of which graph they sit
in* — the keys of the cross-model layer store
(:class:`repro.analysis.layerstore.LayerStore`).  Two MobileNet blocks
with the same op types, attributes, shapes and dtypes fingerprint
identically even across models, so their analysis records are shared;
anything that can change an analysis result (an attribute, a dtype, a
shape, which inputs are initializers, fold markers, the member order a
fused cost sums over, internal-vs-boundary wiring) is part of the hash,
so equal fingerprints imply bit-identical analysis.

Layer fingerprints are in-process keys, hashed once per layer on every
cold profile, so they skip JSON: a node document is a tuple (op type,
sorted attributes, ``(shape, dtype)`` plus initializer-ness per input,
``(shape, dtype)`` per output) hashed as
``sha256(repr((LAYER_FINGERPRINT_VERSION, doc)))``.  They are also
*compositional*: a group fingerprint hashes its members' node
fingerprints (which :class:`~repro.analysis.arep.AnalyzedOp` memoizes)
together with the group's local wiring ids, external outputs and fold
markers, so fusing a group never re-reads its member tensors.
``graph_fingerprint`` keeps its canonical JSON document: request keys
and fleet routing are derived from it, so its bytes must not change.
"""
from __future__ import annotations

import hashlib
import heapq
import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError
from .node import Node
from .tensor import TensorInfo

__all__ = ["graph_fingerprint", "report_digest", "array_digest",
           "node_fingerprint", "group_fingerprint", "tensor_fingerprint",
           "FINGERPRINT_VERSION", "LAYER_FINGERPRINT_VERSION"]

#: bump when the canonical document layout changes — old cache entries
#: must not alias new ones
FINGERPRINT_VERSION = 1

#: separate version for the layer-granular (node/group/tensor)
#: fingerprints — bump when *their* canonical layout changes
LAYER_FINGERPRINT_VERSION = 2


def array_digest(a: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    h = hashlib.sha256()
    h.update(str(a.dtype).encode("ascii"))
    h.update(repr(tuple(a.shape)).encode("ascii"))
    h.update(a.data if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


def _info_doc(t: TensorInfo) -> List[Any]:
    return [t.name, list(t.shape), t.dtype.value]


def _attr_doc(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        return {"__ndarray__": array_digest(v)}
    return v


def _node_key(node: Node) -> Tuple[str, str, Tuple[str, ...]]:
    # output names are unique graph-wide, so this totally orders nodes
    return (node.op_type, node.name, tuple(node.outputs))


def _canonical_order(graph: Graph) -> List[Node]:
    """Topological order with ties broken by node content, not list
    position (Kahn's algorithm over a heap)."""
    producers = graph.producer_map()
    available = set(graph.input_names) | set(graph.initializers)
    indegree: Dict[int, int] = {}
    dependents: Dict[str, List[Node]] = defaultdict(list)
    ready: List[Tuple[Tuple[str, str, Tuple[str, ...]], int, Node]] = []
    for node in graph.nodes:
        missing = [i for i in node.present_inputs
                   if i not in available and i in producers]
        indegree[id(node)] = len(missing)
        for m in missing:
            dependents[m].append(node)
        if not missing:
            ready.append((_node_key(node), id(node), node))
    heapq.heapify(ready)
    order: List[Node] = []
    while ready:
        _, _, node = heapq.heappop(ready)
        order.append(node)
        for out in node.outputs:
            for w in dependents.get(out, []):
                indegree[id(w)] -= 1
                if indegree[id(w)] == 0:
                    heapq.heappush(ready, (_node_key(w), id(w), w))
    if len(order) != len(graph.nodes):
        raise GraphError(
            f"graph {graph.name!r} contains a cycle; cannot fingerprint")
    return order


def _canonical_bytes(doc: Any) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def graph_fingerprint(graph: Graph) -> str:
    """Deterministic SHA-256 content hash of a graph (hex digest).

    The digest is memoized on the graph and dropped by
    :meth:`Graph.invalidate` alongside the topology caches, so repeated
    lookups (the analysis-cache hot path) cost a dict read.  Mutating
    initializer payloads in place does not invalidate — use the graph
    mutation APIs, or call ``invalidate()`` by hand after such edits.
    """
    cached = graph._fingerprint_cache
    if cached is not None:
        return cached
    doc = {
        "version": FINGERPRINT_VERSION,
        "name": graph.name,
        "inputs": [_info_doc(t) for t in graph.inputs],
        "outputs": [_info_doc(t) for t in graph.outputs],
        "initializers": [
            [name, _info_doc(init.info),
             None if init.data is None else array_digest(init.data)]
            for name, init in sorted(graph.initializers.items())
        ],
        "nodes": [
            [n.op_type, n.name, list(n.inputs), list(n.outputs),
             {k: _attr_doc(v) for k, v in n.attrs.items()}]
            for n in _canonical_order(graph)
        ],
    }
    digest = hashlib.sha256(_canonical_bytes(doc)).hexdigest()
    graph._fingerprint_cache = digest
    return digest


# ----------------------------------------------------------------------
# layer-granular fingerprints (the cross-model layer-store keys)
# ----------------------------------------------------------------------
def _layer_digest(doc: Any) -> str:
    return hashlib.sha256(repr((LAYER_FINGERPRINT_VERSION, doc))
                          .encode("utf-8")).hexdigest()


def _attr_value(v: Any) -> Any:
    """Hashable form of one attribute value (a scalar, a flat list of
    scalars or an array; see :mod:`repro.ir.node`).  Lists and tuples
    hash alike, as in JSON; an array hashes as its digest in ``bytes``,
    a type no attribute value has."""
    if isinstance(v, np.ndarray):
        return array_digest(v).encode("ascii")
    if isinstance(v, (list, tuple)):
        return tuple(v)
    return v


def _tensor_doc(name: str, info_fn: Any) -> Any:
    try:
        info = info_fn(name)
    except Exception:
        # no shape info (exotic optional input the cost model never
        # reads) — hash an explicit unknown marker, not the name
        return "?"
    return (info.shape, info.dtype.value)


def _node_doc(node: Node, info_fn: Any, initializers: Any) -> Tuple:
    """Name-free canonical document for one node.

    Tensor identity is reduced to ``(shape, dtype)`` — plus
    initializer-ness for inputs.  Empty optional input slots stay
    ``None`` so positional semantics survive.
    """
    return (
        node.op_type,
        tuple(sorted((k, _attr_value(v)) for k, v in node.attrs.items())),
        tuple((_tensor_doc(t, info_fn), t in initializers) if t else None
              for t in node.inputs),
        tuple(_tensor_doc(t, info_fn) for t in node.outputs),
    )


def node_fingerprint(node: Node, info_fn: Any,
                     initializers: Any = ()) -> str:
    """Canonical fingerprint of one node: op type + attributes +
    input/output shapes, dtypes and initializer-ness.

    ``info_fn`` maps a tensor name to its :class:`TensorInfo` (e.g.
    ``graph.tensor``); ``initializers`` supports ``in`` for weight
    detection.  Tensor *names* and the surrounding graph do not
    participate, so structurally equal layers in different models — or
    the same model rebuilt under different naming — share fingerprints,
    while any attribute/shape/dtype difference never collides.
    """
    return _layer_digest(("node", _node_doc(node, info_fn, initializers)))


def group_fingerprint(nodes: Sequence[Node], info_fn: Any = None,
                      initializers: Any = (),
                      external_outputs: Any = (),
                      folded_indices: Any = (),
                      node_fps: Optional[Sequence[str]] = None) -> str:
    """Canonical fingerprint of a fused group of nodes.

    Composes every member's :func:`node_fingerprint` *in member order*
    (a fused cost sums floats in that order, so order is part of
    identity) with the internal wiring as local tensor ids assigned by
    first appearance, which member outputs escape the group
    (``external_outputs``, the boundary tensors whose bytes touch DRAM)
    and which members the backend folded away (``folded_indices``, by
    member position).  Equal group fingerprints therefore imply
    bit-identical fused cost/class/latency analysis.

    ``node_fps`` passes the members' already-computed node
    fingerprints; without it they are computed from ``info_fn`` and
    ``initializers``.
    """
    if node_fps is None:
        node_fps = [node_fingerprint(n, info_fn, initializers)
                    for n in nodes]
    local_ids: Dict[str, int] = {}
    wiring = tuple(
        (tuple(local_ids.setdefault(t, len(local_ids)) if t else None
               for t in n.inputs),
         tuple(local_ids.setdefault(t, len(local_ids)) for t in n.outputs))
        for n in nodes)
    ext_out = tuple(local_ids[t] for t in external_outputs
                    if t in local_ids)
    return _layer_digest(("group", tuple(node_fps), wiring, ext_out,
                          tuple(sorted(int(i) for i in folded_indices))))


def tensor_fingerprint(info: TensorInfo) -> str:
    """Canonical fingerprint of one tensor's shape + dtype (name-free):
    the identity of a runtime-inserted reformat/conversion copy."""
    return _layer_digest(("tensor", info.shape, info.dtype.value))


def report_digest(report: Any) -> str:
    """SHA-256 over a report's canonical JSON document.

    Accepts anything exposing ``to_dict()`` (a
    :class:`~repro.core.report.ProfileReport` in practice).  Derived
    convenience figures are excluded — they are recomputed, not stored,
    when a report round-trips through JSON.  ``stage_seconds`` (profiler
    wall-clock telemetry, present only when tracing is on) is likewise
    excluded: two runs over the same model must digest identically no
    matter how long the profiler itself took.
    """
    doc = report.to_dict()
    doc.pop("derived", None)
    doc.pop("stage_seconds", None)
    return hashlib.sha256(_canonical_bytes(doc)).hexdigest()
