"""Profiling report data model.

A :class:`ProfileReport` is what one PRoof run produces: per-backend-
layer records (latency, FLOP, memory bytes, arithmetic intensity,
achieved FLOP/s and bandwidth, roofline bound, member model layers) and
the end-to-end aggregate.  The data-viewer renders these; experiments
read them directly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.opdefs import OpClass

__all__ = ["LayerProfile", "EndToEnd", "ProfileReport", "MetricSource"]


class MetricSource:
    """Where per-layer FLOP/memory figures came from."""

    PREDICTED = "predicted"   # PRoof's analytical model (§3.2)
    MEASURED = "measured"     # simulated hardware counters (NCU-like)


@dataclass
class LayerProfile:
    """One backend layer's profile."""

    name: str
    kind: str                      # execution | reformat
    op_class: str                  # OpClass value
    latency_seconds: float
    flop: float
    read_bytes: float
    write_bytes: float
    #: original model-design layer names this backend layer executes
    model_layers: List[str] = field(default_factory=list)
    #: members whose compute was folded into weights (BN)
    folded_layers: List[str] = field(default_factory=list)

    @property
    def memory_bytes(self) -> float:
        return self.read_bytes + self.write_bytes

    @property
    def arithmetic_intensity(self) -> float:
        return self.flop / self.memory_bytes if self.memory_bytes > 0 else 0.0

    @property
    def achieved_flops(self) -> float:
        return self.flop / self.latency_seconds if self.latency_seconds > 0 else 0.0

    @property
    def achieved_bandwidth(self) -> float:
        return self.memory_bytes / self.latency_seconds \
            if self.latency_seconds > 0 else 0.0


@dataclass
class EndToEnd:
    """Whole-model aggregate: the end-to-end roofline point (Figure 4)."""

    latency_seconds: float
    flop: float
    memory_bytes: float
    batch_size: int = 1

    @property
    def arithmetic_intensity(self) -> float:
        return self.flop / self.memory_bytes if self.memory_bytes > 0 else 0.0

    @property
    def achieved_flops(self) -> float:
        return self.flop / self.latency_seconds if self.latency_seconds > 0 else 0.0

    @property
    def achieved_bandwidth(self) -> float:
        return self.memory_bytes / self.latency_seconds \
            if self.latency_seconds > 0 else 0.0

    @property
    def throughput_per_second(self) -> float:
        """Samples per second (images/s for the CNN zoo)."""
        return self.batch_size / self.latency_seconds \
            if self.latency_seconds > 0 else 0.0


@dataclass
class ProfileReport:
    """Full output of one PRoof profiling run."""

    model_name: str
    backend_name: str
    platform_name: str
    precision: str
    batch_size: int
    metric_source: str
    layers: List[LayerProfile]
    end_to_end: EndToEnd
    #: roofline ceilings used for the charts
    peak_flops: float
    peak_bandwidth: float
    #: profiling wall-clock cost (counter replays in measured mode;
    #: effectively zero in predicted mode)
    profiling_overhead_seconds: float = 0.0
    #: wall time of PRoof's own pipeline stages (compile, arep, oar,
    #: mapping, …), populated only when profiling ran under an enabled
    #: :class:`repro.obs.Tracer` — empty otherwise, and then omitted
    #: from the serialized document so untraced reports stay
    #: bit-identical to pre-observability ones
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def execution_layers(self) -> List[LayerProfile]:
        return [l for l in self.layers if l.kind == "execution"]

    def layers_by_class(self) -> Dict[str, List[LayerProfile]]:
        out: Dict[str, List[LayerProfile]] = {}
        for layer in self.layers:
            out.setdefault(layer.op_class, []).append(layer)
        return out

    def latency_share_by_class(self) -> Dict[str, float]:
        """Fraction of end-to-end latency per op class (Figure 6 bars)."""
        total = sum(l.latency_seconds for l in self.layers)
        if total <= 0:
            return {}
        shares: Dict[str, float] = {}
        for layer in self.layers:
            shares[layer.op_class] = shares.get(layer.op_class, 0.0) \
                + layer.latency_seconds / total
        return shares

    def top_layers(self, n: int = 10) -> List[LayerProfile]:
        return sorted(self.layers, key=lambda l: -l.latency_seconds)[:n]

    def layer_by_model_op(self, model_layer: str) -> Optional[LayerProfile]:
        """Reverse lookup: which backend layer executes a model layer —
        the bidirectional mapping of the paper's Figure 3."""
        for layer in self.layers:
            if model_layer in layer.model_layers:
                return layer
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The JSON document: the fields in declaration order (built
        directly, since ``dataclasses.asdict`` deep-copies every layer),
        ``stage_seconds`` only when non-empty, then ``derived``."""
        e2e = self.end_to_end
        doc = {
            "model_name": self.model_name,
            "backend_name": self.backend_name,
            "platform_name": self.platform_name,
            "precision": self.precision,
            "batch_size": self.batch_size,
            "metric_source": self.metric_source,
            "layers": [{
                "name": l.name, "kind": l.kind, "op_class": l.op_class,
                "latency_seconds": l.latency_seconds, "flop": l.flop,
                "read_bytes": l.read_bytes, "write_bytes": l.write_bytes,
                "model_layers": list(l.model_layers),
                "folded_layers": list(l.folded_layers),
            } for l in self.layers],
            "end_to_end": {
                "latency_seconds": e2e.latency_seconds, "flop": e2e.flop,
                "memory_bytes": e2e.memory_bytes,
                "batch_size": e2e.batch_size,
            },
            "peak_flops": self.peak_flops,
            "peak_bandwidth": self.peak_bandwidth,
            "profiling_overhead_seconds": self.profiling_overhead_seconds,
        }
        if self.stage_seconds:
            doc["stage_seconds"] = dict(self.stage_seconds)
        doc["derived"] = {
            "achieved_gflops": self.end_to_end.achieved_flops / 1e9,
            "achieved_bandwidth_gbs": self.end_to_end.achieved_bandwidth / 1e9,
            "arithmetic_intensity": self.end_to_end.arithmetic_intensity,
            "throughput_per_second": self.end_to_end.throughput_per_second,
        }
        return doc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Dict) -> "ProfileReport":
        """Rebuild a report saved by :meth:`to_dict`/:meth:`save`
        (derived fields are recomputed, not trusted)."""
        layers = [LayerProfile(**{k: v for k, v in layer.items()})
                  for layer in doc["layers"]]
        e2e = EndToEnd(**doc["end_to_end"])
        return cls(
            model_name=doc["model_name"],
            backend_name=doc["backend_name"],
            platform_name=doc["platform_name"],
            precision=doc["precision"],
            batch_size=doc["batch_size"],
            metric_source=doc["metric_source"],
            layers=layers,
            end_to_end=e2e,
            peak_flops=doc["peak_flops"],
            peak_bandwidth=doc["peak_bandwidth"],
            profiling_overhead_seconds=doc.get(
                "profiling_overhead_seconds", 0.0),
            stage_seconds=dict(doc.get("stage_seconds") or {}),
        )

    @classmethod
    def load(cls, path: str) -> "ProfileReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
