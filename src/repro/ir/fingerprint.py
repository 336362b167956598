"""Content fingerprints for graphs and reports.

``graph_fingerprint`` assigns a graph a deterministic, content-addressed
identity: the hash covers the graph name, the interface tensors, every
initializer's metadata and payload, and every node's type, name,
wiring and attributes.  It is independent of incidental ordering —
attributes and initializers are sorted, and nodes are hashed in
``_node_key`` order (op type, name, outputs; output names are unique, so
this is a total order), so two graphs whose node lists merely permute
the same dataflow hash identically.  Virtual (weight-only) initializers
contribute their shape/dtype metadata; their absent payload hashes as
such, matching the serializer's treatment.  A cyclic graph, or one
that reads an undefined tensor, raises :class:`~repro.ir.graph.GraphError`
(the check is the graph's cached ``toposort()``, which every analysis
of the graph needs anyway).

``report_digest`` does the same for a :class:`ProfileReport` (duck-typed
via ``to_dict`` so :mod:`repro.ir` stays independent of
:mod:`repro.core`): two runs are provably bit-identical when their
digests match, which is how the profiling service proves that a cached
result equals a fresh ``Profiler.profile`` call.

Encoding
--------

Every fingerprint hashes one tuple document with one SHA-256 over
``marshal.dumps(doc, 2)``.  Marshal version 2 is the newest format with
no back-references and no interned-string type code, so its bytes
depend only on the document's values — not on object identity,
reference counts or string interning — and stay equal across processes
and hash seeds.  Documents hold only tuples, ``None``, ``bool``,
``int``, ``float``, ``str`` and ``bytes``; an attribute value of a
subclass (a numpy scalar set after construction, say) hashes as its
plain value.  Constant payloads are fed into the same hash after the
document, whose ``(dtype, shape)`` per payload fixes each one's length.

Graph fingerprint versions
--------------------------

:data:`FINGERPRINT_VERSION` 1 hashed a canonical JSON document over a
heap-ordered topological walk, with a separate digest per payload.
Version 2 hashes the same facts through the encoding above, so v1 and
v2 split graphs into the same equality classes (the test suite checks
this over the zoo, the fuzz corpus and the regression corpus against
the kept v1 reference), but every digest changes once.  The version is
part of the hashed document, and the graph fingerprint is part of every
service request key (:func:`repro.service.fingerprint.request_fingerprint`),
so on upgrade request keys change once, disk ``ResultCache`` entries
written under v1 miss instead of aliasing, and fleet shard routing
re-keys once.  The key stays name-sensitive: reports carry layer names,
so a renamed graph must not share a report.

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

A node document is a tuple (op type, sorted attributes, ``(shape,
dtype)`` plus initializer-ness per input, ``(shape, dtype)`` per
output) hashed with :data:`LAYER_FINGERPRINT_VERSION` through the
encoding above (version 2 hashed ``repr`` of the same tuple).  Layer
fingerprints are also *compositional*: a group fingerprint hashes its
members' node fingerprints (which :class:`~repro.analysis.arep.AnalyzedOp`
memoizes) together with the group's local wiring ids, external outputs
and fold markers, so fusing a group never re-reads its member tensors.
"""
from __future__ import annotations

import hashlib
import json
import marshal
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph
from .node import Node
from .tensor import TensorInfo

__all__ = ["graph_fingerprint", "report_digest", "array_digest",
           "node_fingerprint", "group_fingerprint", "tensor_fingerprint",
           "FINGERPRINT_VERSION", "LAYER_FINGERPRINT_VERSION"]

#: bump when the canonical document layout changes — old cache entries
#: must not alias new ones
FINGERPRINT_VERSION = 2

#: separate version for the layer-granular (node/group/tensor)
#: fingerprints — bump when *their* canonical layout changes
LAYER_FINGERPRINT_VERSION = 3

#: the marshal format version documents are encoded with (see the
#: module docstring: the newest one whose bytes ignore interning)
_MARSHAL_VERSION = 2


def array_digest(a: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and raw bytes."""
    h = hashlib.sha256()
    h.update(str(a.dtype).encode("ascii"))
    h.update(repr(tuple(a.shape)).encode("ascii"))
    h.update(a.data if a.flags.c_contiguous else a.tobytes())
    return h.hexdigest()


#: the exact types of scalar attribute values (see :mod:`repro.ir.node`)
_SCALARS = frozenset((bool, int, float, str))


def _attr_scalar(v: Any) -> Any:
    """Exact-type form of one scalar attribute value.  Marshal writes a
    numpy scalar through its buffer, as ``bytes``, and refuses other
    subclasses, so only exact builtins may reach the encoder; a
    subclass hashes as its plain value, as it does in JSON."""
    if type(v) in _SCALARS:
        return v
    if isinstance(v, np.generic):
        return _attr_scalar(v.item())
    if isinstance(v, str):
        return str.__str__(v)
    for base in (int, float):       # bool cannot be subclassed
        if isinstance(v, base):
            return base(v)
    raise TypeError(f"cannot fingerprint a {type(v).__name__} attribute")


def _attr_value(v: Any) -> Any:
    """Hashable form of one attribute value (a scalar, a flat list of
    scalars or an array; see :mod:`repro.ir.node`).  Lists and tuples
    hash alike, as in JSON; an array hashes as its digest in ``bytes``,
    a type no attribute value has."""
    if type(v) in _SCALARS:
        return v
    if isinstance(v, np.ndarray):
        return array_digest(v).encode("ascii")
    if isinstance(v, (list, tuple)):
        if _SCALARS.issuperset(map(type, v)):
            return tuple(v)
        return tuple(map(_attr_scalar, v))
    return _attr_scalar(v)


def _attrs_doc(attrs: Dict[str, Any]) -> Tuple:
    return tuple(sorted((k, _attr_value(v)) for k, v in attrs.items()))


def _info_doc(t: TensorInfo) -> Tuple:
    return (t.name, t.shape, t.dtype.value)


def _node_key(node: Node) -> Tuple[str, str, Tuple[str, ...]]:
    # output names are unique graph-wide, so this totally orders nodes
    return (node.op_type, node.name, tuple(node.outputs))


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
    graph.toposort()          # GraphError on a cycle; cached for later
    initializers = []
    payloads = []
    for name, init in sorted(graph.initializers.items()):
        data = init.data
        if data is None:
            initializers.append((name, _info_doc(init.info), None))
        else:
            # ``dtype.str`` (byte order, kind, itemsize) is as distinct
            # as ``str(dtype)`` and ten times cheaper
            initializers.append((name, _info_doc(init.info),
                                 (data.dtype.str, data.shape)))
            payloads.append(data)
    doc = (
        FINGERPRINT_VERSION,
        graph.name,
        tuple(_info_doc(t) for t in graph.inputs),
        tuple(_info_doc(t) for t in graph.outputs),
        tuple(initializers),
        tuple((n.op_type, n.name, tuple(n.inputs), tuple(n.outputs),
               _attrs_doc(n.attrs))
              for n in sorted(graph.nodes, key=_node_key)),
    )
    h = hashlib.sha256(marshal.dumps(doc, _MARSHAL_VERSION))
    for data in payloads:
        h.update(data if data.flags.c_contiguous else data.tobytes())
    digest = h.hexdigest()
    graph._fingerprint_cache = digest
    return digest


# ----------------------------------------------------------------------
# layer-granular fingerprints (the cross-model layer-store keys)
# ----------------------------------------------------------------------
def _layer_digest(doc: Tuple) -> str:
    return hashlib.sha256(marshal.dumps(
        (LAYER_FINGERPRINT_VERSION, doc), _MARSHAL_VERSION)).hexdigest()


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
        _attrs_doc(node.attrs),
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
