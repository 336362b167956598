"""ONNX-Runtime-style simulated runtime (``ort-sim``).

Mirrors the ONNX Runtime + oneDNN CPU execution path of the paper's
Table 2 (Xeon Gold 6330, Raspberry Pi 4B):

* **moderate fusion** — conv + activation and MatMul + bias fuse, but
  residual adds stay separate layers;
* **reorder layers** — blocked-layout (NCHWc) conversion copies around
  the graph boundary, exactly the ``reorder_1`` of the paper's Figure 2
  mapping example, introducing alias tensors (``t2 -> t2_r``);
* **generic layer names** — fused layers are reported as
  ``fused_op_N`` with io tensors only, so layer mapping must call
  ``get_subgraph_ops_by_io`` to recover the member operators;
* no-op nodes (Reshape & friends) remain as (almost free) layers — ORT
  executes them as kernels rather than eliding them.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from .base import Backend
from .optimizer import FusionConfig, FusionGroup

__all__ = ["OnnxRuntimeSim"]


class OnnxRuntimeSim(Backend):
    """Simulated ONNX Runtime backend."""

    name = "ort-sim"
    fusion_config = FusionConfig.moderate()
    # reorders into the blocked execution layout and back
    input_reformat = ("reorder_{i}", "{t}_r")
    output_reformat = ("reorder_{i}", "{t}_r")

    def execution_layer(self, group: FusionGroup, position: int
                        ) -> Tuple[str, Optional[List[str]]]:
        kind = "fused_op" if group.size > 1 else group.members[0].op_type
        return f"{kind}_{position}", None       # io only — see Figure 2
