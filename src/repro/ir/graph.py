"""The computation graph: the IR equivalent of an ONNX ``GraphProto``.

A :class:`Graph` is a flat list of :class:`~repro.ir.node.Node` objects
plus tensor metadata: graph inputs/outputs, weight initializers, and a
``value_info`` map filled in by shape inference.  Topology queries
(producer / consumer maps, topological order) are computed lazily and
cached; any mutation invalidates the cache.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .node import Node
from .tensor import DataType, Initializer, TensorInfo

__all__ = ["Graph", "GraphError"]


class GraphError(ValueError):
    """Raised when a graph is structurally invalid."""


class Graph:
    """A directed acyclic dataflow graph over named tensors."""

    def __init__(
        self,
        name: str = "graph",
        nodes: Optional[Sequence[Node]] = None,
        inputs: Optional[Sequence[TensorInfo]] = None,
        outputs: Optional[Sequence[TensorInfo]] = None,
        initializers: Optional[Iterable[Initializer]] = None,
    ) -> None:
        self.name = name
        self.nodes: List[Node] = list(nodes or [])
        self.inputs: List[TensorInfo] = list(inputs or [])
        self.outputs: List[TensorInfo] = list(outputs or [])
        self.initializers: Dict[str, Initializer] = {}
        for init in initializers or []:
            self.add_initializer(init)
        #: tensor name -> TensorInfo, filled by shape inference for every
        #: intermediate tensor (inputs/initializers included for convenience)
        self.value_info: Dict[str, TensorInfo] = {}
        self._topo_cache: Optional[List[Node]] = None
        self._topo_index_cache: Optional[Dict[int, int]] = None
        self._producer_cache: Optional[Dict[str, Node]] = None
        self._consumer_cache: Optional[Dict[str, List[Node]]] = None
        self._fingerprint_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # construction / mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        self.nodes.append(node)
        self.invalidate()
        return node

    def add_initializer(self, init: Initializer) -> Initializer:
        if init.name in self.initializers:
            raise GraphError(f"duplicate initializer {init.name!r}")
        self.initializers[init.name] = init
        return init

    def remove_nodes(self, doomed: Iterable[Node]) -> None:
        doomed_set = set(id(n) for n in doomed)
        self.nodes = [n for n in self.nodes if id(n) not in doomed_set]
        self.invalidate()

    def invalidate(self) -> None:
        """Drop cached topology after a mutation."""
        self._topo_cache = None
        self._topo_index_cache = None
        self._producer_cache = None
        self._consumer_cache = None
        self._fingerprint_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def input_names(self) -> List[str]:
        return [t.name for t in self.inputs]

    @property
    def output_names(self) -> List[str]:
        return [t.name for t in self.outputs]

    def is_initializer(self, name: str) -> bool:
        return name in self.initializers

    def is_graph_input(self, name: str) -> bool:
        return any(t.name == name for t in self.inputs)

    def tensor(self, name: str) -> TensorInfo:
        """Look up the :class:`TensorInfo` for any tensor in the graph.

        Requires shape inference to have populated ``value_info`` for
        intermediate tensors.
        """
        if name in self.value_info:
            return self.value_info[name]
        for t in self.inputs:
            if t.name == name:
                return t
        if name in self.initializers:
            return self.initializers[name].info
        for t in self.outputs:
            if t.name == name:
                return t
        raise KeyError(f"unknown tensor {name!r} (did shape inference run?)")

    def has_tensor(self, name: str) -> bool:
        try:
            self.tensor(name)
            return True
        except KeyError:
            return False

    def producer_map(self) -> Dict[str, Node]:
        """tensor name -> the node producing it."""
        if self._producer_cache is None:
            producers: Dict[str, Node] = {}
            for node in self.nodes:
                for out in node.outputs:
                    if out in producers:
                        raise GraphError(
                            f"tensor {out!r} produced by both "
                            f"{producers[out].name!r} and {node.name!r}"
                        )
                    producers[out] = node
            self._producer_cache = producers
        return self._producer_cache

    def consumer_map(self) -> Dict[str, List[Node]]:
        """tensor name -> nodes consuming it (order = node order)."""
        if self._consumer_cache is None:
            consumers: Dict[str, List[Node]] = defaultdict(list)
            for node in self.nodes:
                for inp in node.present_inputs:
                    consumers[inp].append(node)
            self._consumer_cache = dict(consumers)
        return self._consumer_cache

    def producer(self, tensor: str) -> Optional[Node]:
        return self.producer_map().get(tensor)

    def consumers(self, tensor: str) -> List[Node]:
        return self.consumer_map().get(tensor, [])

    def toposort(self) -> List[Node]:
        """Nodes in a topological order (Kahn's algorithm).

        Raises :class:`GraphError` on cycles or dangling inputs.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        available: Set[str] = set(self.input_names) | set(self.initializers)
        # Constant nodes have no inputs, their outputs become available too.
        indegree: Dict[int, int] = {}
        waiting: Dict[str, List[Node]] = defaultdict(list)
        ready: deque[Node] = deque()
        # inputs produced by other nodes
        produced = self.producer_map()
        for node in self.nodes:
            missing = [i for i in node.present_inputs if i not in available]
            missing = [m for m in missing if m in produced]
            dangling = [
                i for i in node.present_inputs
                if i not in available and i not in produced
            ]
            if dangling:
                raise GraphError(
                    f"node {node.name or node.op_type!r} reads undefined "
                    f"tensor(s) {dangling}"
                )
            indegree[id(node)] = len(missing)
            for m in missing:
                waiting[m].append(node)
            if not missing:
                ready.append(node)
        order: List[Node] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for out in node.outputs:
                for w in waiting.get(out, []):
                    indegree[id(w)] -= 1
                    if indegree[id(w)] == 0:
                        ready.append(w)
        if len(order) != len(self.nodes):
            raise GraphError(
                f"graph {self.name!r} contains a cycle "
                f"({len(order)}/{len(self.nodes)} nodes ordered)"
            )
        self._topo_cache = order
        return order

    def topo_index(self) -> Dict[int, int]:
        """``id(node)`` -> position in :meth:`toposort` (cached)."""
        if self._topo_index_cache is None:
            self._topo_index_cache = {
                id(n): i for i, n in enumerate(self.toposort())}
        return self._topo_index_cache

    def validate(self) -> None:
        """Structural sanity checks: unique producers, defined tensors,
        acyclicity, outputs actually produced."""
        self.producer_map()
        self.toposort()
        produced = set(self.producer_map()) | set(self.input_names) | set(self.initializers)
        for out in self.output_names:
            if out not in produced:
                raise GraphError(f"graph output {out!r} is never produced")
        names = [n.name for n in self.nodes if n.name]
        dupes = {n for n, count in Counter(names).items() if count > 1}
        if dupes:
            raise GraphError(f"duplicate node names: {sorted(dupes)[:5]}")

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_parameters(self) -> int:
        """Total element count over *weight* initializers.

        Integer tensors (shape constants, indices) are excluded: they are
        bookkeeping, not learned parameters.
        """
        return sum(
            init.info.numel
            for init in self.initializers.values()
            if init.info.dtype.is_float
        )

    def parameter_bytes(self) -> int:
        return sum(
            init.info.nbytes
            for init in self.initializers.values()
            if init.info.dtype.is_float
        )

    def op_type_histogram(self) -> Dict[str, int]:
        hist: Dict[str, int] = defaultdict(int)
        for node in self.nodes:
            hist[node.op_type] += 1
        return dict(sorted(hist.items(), key=lambda kv: -kv[1]))

    # ------------------------------------------------------------------
    # sub-graph utilities (used by fusion and layer mapping)
    # ------------------------------------------------------------------
    def ancestors_between(
        self, input_tensors: Set[str], output_tensors: Set[str]
    ) -> List[Node]:
        """All nodes on paths from ``input_tensors`` to ``output_tensors``.

        Walks backwards from the outputs, stopping at the given inputs,
        graph inputs and initializers.  The result is in topological
        order.  This is the primitive behind the Optimized Analyze
        Representation's ``get_subgraph_ops_by_io`` (paper §3.3 / Fig. 2).
        """
        producers = self.producer_map()
        graph_inputs = set(self.input_names)
        seen: Set[int] = set()
        result: List[Node] = []
        stack = [t for t in output_tensors]
        while stack:
            tname = stack.pop()
            if (tname in input_tensors or tname in self.initializers
                    or tname in graph_inputs):
                continue
            node = producers.get(tname)
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            result.append(node)
            for inp in node.present_inputs:
                stack.append(inp)
        order_idx = self.topo_index()
        result.sort(key=lambda n: order_idx[id(n)])
        return result

    def copy(self) -> "Graph":
        """Deep-ish copy: nodes are copied, initializer *data* is shared."""
        g = Graph(
            name=self.name,
            nodes=[n.copy() for n in self.nodes],
            inputs=list(self.inputs),
            outputs=list(self.outputs),
        )
        for init in self.initializers.values():
            g.initializers[init.name] = Initializer(init.info, init.data)
        g.value_info = dict(self.value_info)
        return g

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph({self.name!r}, {len(self.nodes)} nodes, "
            f"{len(self.initializers)} initializers, "
            f"params={self.num_parameters() / 1e6:.1f}M)"
        )
