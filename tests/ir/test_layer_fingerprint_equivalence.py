"""Proofs that the tuple/compositional fingerprints change no identity.

Layer fingerprints used to hash one canonical JSON document per node or
group, and ``graph_fingerprint`` (v1) one canonical JSON document per
graph; all of them now hash a marshalled tuple document, and groups
compose their members' node fingerprints.  The JSON implementations are
kept below as references:

* over every truth and mapped unit of the profile pool on all three
  backends, old and new layer fingerprints split the units into exactly
  the same classes — no new collision, no lost sharing;
* over the zoo at two batch sizes, the fuzz corpus and the regression
  corpus, v1 and v2 graph fingerprints (request keys, fleet routing)
  split the graphs into exactly the same classes;
* ``array_digest`` is bit-identical to the reference.
"""
import hashlib
import heapq
import json
import random
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.arep import AnalyzedOp, AnalyzeRepresentation
from repro.analysis.oarep import FusedOp, OptimizedAnalyzeRepresentation
from repro.backends import ReformatUnit, backend_by_name, map_layers
from repro.check.corpus import load_corpus
from repro.check.fuzz import fuzz_graph
from repro.hardware.specs import platform
from repro.ir.fingerprint import array_digest, graph_fingerprint
from repro.ir.tensor import DataType
from repro.ir.serialization import from_json, to_json
from repro.models.registry import MODEL_ZOO, build_model

PLATFORMS = {"trt-sim": "a100", "ort-sim": "xeon6330", "ov-sim": "xeon6330"}
#: the zoo models a cold-profile benchmark round covers, 150-1114 nodes
POOL = ("mobilenetv2-10", "resnet50", "efficientnet-b0", "vit-tiny",
        "swin-tiny", "swin-small")


# ----------------------------------------------------------------------
# reference implementations (canonical JSON documents)
# ----------------------------------------------------------------------
def ref_array_digest(a):
    h = hashlib.sha256()
    h.update(str(a.dtype).encode("ascii"))
    h.update(repr(tuple(a.shape)).encode("ascii"))
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _canonical_bytes(doc):
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _attr_doc(v):
    if isinstance(v, np.ndarray):
        return {"__ndarray__": ref_array_digest(v)}
    return v


def _layer_digest(doc):
    return hashlib.sha256(_canonical_bytes([1, doc])).hexdigest()


def _node_doc(node, info_fn, initializers, local_ids=None):
    def tensor_entry(name, with_init):
        try:
            info = info_fn(name)
            entry = [list(info.shape), info.dtype.value]
        except Exception:
            entry = ["?"]
        if with_init:
            entry.append(bool(name in initializers))
        if local_ids is not None:
            entry.append(local_ids.setdefault(name, len(local_ids)))
        return entry

    return [
        node.op_type,
        {k: _attr_doc(v) for k, v in node.attrs.items()},
        [tensor_entry(t, True) if t else None for t in node.inputs],
        [tensor_entry(t, False) for t in node.outputs],
    ]


def ref_node_fingerprint(node, info_fn, initializers):
    return _layer_digest(["node", _node_doc(node, info_fn, initializers)])


def ref_group_fingerprint(nodes, info_fn, initializers, external_outputs,
                          folded_indices):
    local_ids = {}
    members = [_node_doc(n, info_fn, initializers, local_ids)
               for n in nodes]
    ext_out = [local_ids[t] for t in external_outputs if t in local_ids]
    return _layer_digest(["group", members, ext_out,
                          sorted(int(i) for i in folded_indices)])


def ref_tensor_fingerprint(info):
    return _layer_digest(["tensor", list(info.shape), info.dtype.value])


def _info_doc(t):
    return [t.name, list(t.shape), t.dtype.value]


def _ref_canonical_order(graph):
    producers = graph.producer_map()
    available = set(graph.input_names) | set(graph.initializers)
    indegree = {}
    dependents = defaultdict(list)
    ready = []

    def key(node):
        return (node.op_type, node.name, tuple(node.outputs))

    for node in graph.nodes:
        missing = [i for i in node.present_inputs
                   if i not in available and i in producers]
        indegree[id(node)] = len(missing)
        for m in missing:
            dependents[m].append(node)
        if not missing:
            heapq.heappush(ready, (key(node), id(node), node))
    order = []
    while ready:
        _, _, node = heapq.heappop(ready)
        order.append(node)
        for out in node.outputs:
            for w in dependents.get(out, []):
                indegree[id(w)] -= 1
                if indegree[id(w)] == 0:
                    heapq.heappush(ready, (key(w), id(w), w))
    assert len(order) == len(graph.nodes)
    return order


def ref_graph_fingerprint(graph):
    doc = {
        "version": 1,
        "name": graph.name,
        "inputs": [_info_doc(t) for t in graph.inputs],
        "outputs": [_info_doc(t) for t in graph.outputs],
        "initializers": [
            [name, _info_doc(init.info),
             None if init.data is None else ref_array_digest(init.data)]
            for name, init in sorted(graph.initializers.items())
        ],
        "nodes": [
            [n.op_type, n.name, list(n.inputs), list(n.outputs),
             {k: _attr_doc(v) for k, v in n.attrs.items()}]
            for n in _ref_canonical_order(graph)
        ],
    }
    return hashlib.sha256(_canonical_bytes(doc)).hexdigest()


# ----------------------------------------------------------------------
# (a) same equivalence classes over every truth and mapped unit
# ----------------------------------------------------------------------
def ref_unit_fingerprint(unit, arep):
    inits = arep.graph.initializers
    if isinstance(unit, AnalyzedOp):
        return ref_node_fingerprint(unit.node, arep.tensor, inits)
    if isinstance(unit, FusedOp):
        return ref_group_fingerprint(
            unit.member_nodes, arep.tensor, inits, unit.outputs,
            [i for i, m in enumerate(unit.members)
             if m.name in unit.folded])
    if isinstance(unit, ReformatUnit):
        return ref_tensor_fingerprint(unit.info)
    raise TypeError(unit)


def pool_units():
    """(old fp, new fp) of every truth and mapped unit of the pool."""
    pairs = []
    for model in POOL:
        for backend, spec in sorted(PLATFORMS.items()):
            graph = build_model(model)
            arep = AnalyzeRepresentation(graph, DataType.FLOAT16)
            compiled = backend_by_name(backend).compile(
                graph, platform(spec), DataType.FLOAT16, arep=arep)
            mapped = map_layers(compiled,
                                OptimizedAnalyzeRepresentation(arep))
            for unit in compiled.truth_units:
                pairs.append((ref_unit_fingerprint(unit, arep),
                              unit.layer_fingerprint()))
            for m in mapped:
                pairs.append((ref_unit_fingerprint(m.unit, arep),
                              m.unit.layer_fingerprint()))
    return pairs


def test_layer_fingerprints_partition_units_like_json_reference():
    pairs = pool_units()
    old = {o for o, _ in pairs}
    new = {n for _, n in pairs}
    # a bijection between old and new classes: no new class was split
    # off (lost sharing) and no two old classes merged (collision)
    assert len(old) == len(new) == len(set(pairs))
    # the pool shares layers within and across models, so the check
    # covers real sharing, not only distinct units
    assert len(new) < len(pairs) / 2


# ----------------------------------------------------------------------
# (b) v1 and v2 graph fingerprints: the same equality classes
# ----------------------------------------------------------------------
CORPUS_DIR = Path(__file__).parent.parent / "check" / "corpus"


def _variants(graph):
    """``graph`` with equal and unequal siblings: a rebuilt copy, a
    shuffled node list, a JSON round trip (all equal to it) and a
    renamed copy (not equal)."""
    shuffled = graph.copy()
    random.Random(len(graph.nodes)).shuffle(shuffled.nodes)
    shuffled.invalidate()
    renamed = graph.copy()
    renamed.name = graph.name + "-renamed"
    return [graph, shuffled, from_json(to_json(graph)), renamed]


def _with_payloads(key, seed):
    """A zoo graph with its first initializers materialized from
    ``seed``, so constant payloads are part of its identity."""
    graph = build_model(key)
    rng = np.random.default_rng(seed)
    for init in list(graph.initializers.values())[:8]:
        init.data = init.materialize(rng)
    graph.invalidate()
    return graph


def _assert_same_classes(graphs):
    """v1 and v2 split ``graphs`` into the same classes (a bijection
    between v1 and v2 keys: no new collision, no lost equality), and
    every key changed once; returns the classes' v2 keys."""
    pairs = [(ref_graph_fingerprint(g), graph_fingerprint(g))
             for g in graphs]
    old = {o for o, _ in pairs}
    new = {n for _, n in pairs}
    assert len(old) == len(new) == len(set(pairs))
    assert not old & new
    return [n for _, n in pairs]


@pytest.mark.parametrize("model", POOL)
def test_graph_fingerprint_matches_json_reference(model):
    graphs = [g for batch in (1, 2)
              for g in _variants(build_model(model, batch_size=batch))]
    keys = _assert_same_classes(graphs)
    # per batch size: rebuilt, shuffled and round-tripped graphs share
    # a key, the renamed one does not; the batch size changes the key
    assert keys[0] == keys[1] == keys[2] != keys[3]
    assert keys[4] == keys[5] == keys[6] != keys[7]
    assert len(set(keys)) == 4


def test_graph_fingerprint_matches_reference_with_payloads():
    graphs = [build_model("mobilenetv2-05")]
    for seed in (0, 0, 1):
        graphs += _variants(_with_payloads("mobilenetv2-05", seed))
    keys = _assert_same_classes(graphs)
    # equal payloads give equal keys; other or absent payloads do not
    assert keys[1] == keys[5]
    assert len({keys[0], keys[1], keys[9]}) == 3


def test_graph_fingerprint_v2_partitions_graphs_like_v1():
    graphs = []
    for key in sorted(MODEL_ZOO):
        for batch in (1, 2):
            graphs += _variants(build_model(key, batch_size=batch))
    for seed in (0, 0, 1):
        graphs += _variants(_with_payloads("mobilenetv2-05", seed))
    for index in range(40):
        graphs += _variants(fuzz_graph(seed=0, index=index))
    for _name, graph in load_corpus(CORPUS_DIR):
        graphs += _variants(graph)
    keys = _assert_same_classes(graphs)
    # the variants make every class hold several graphs
    assert len(set(keys)) <= len(keys) / 2


@pytest.mark.parametrize("array", [
    np.arange(12, dtype=np.float32).reshape(3, 4),
    np.arange(12, dtype=np.float32).reshape(3, 4).T,   # not contiguous
    np.array(2.5, dtype=np.float16),                   # 0-d
    np.ones(5, dtype=bool),
    np.zeros((0, 3), dtype=np.int64),
])
def test_array_digest_matches_reference(array):
    assert array_digest(array) == ref_array_digest(array)
