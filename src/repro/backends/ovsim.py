"""OpenVINO-style simulated runtime (``ov-sim``).

Models the OpenVINO 2024 behaviours the paper encounters on the Intel
NPU 3720 (Meteor Lake "AI Boost"):

* **moderate fusion** with friendly-name preservation: each compiled
  layer reports the friendly name of its *last* member operator — a
  partial hint (one name out of possibly many fused members), so layer
  mapping still needs io-based subgraph search and then cross-checks
  the hinted member;
* **restricted NPU operator support** — the paper found "only a small
  portion of models were able to successfully perform inference" on the
  NPU; here the NPU rejects models using ops outside the supported set
  (``Erf`` — i.e. exported GELU — ``Einsum``, embedding ``Gather``,
  ``GroupNormalization`` …), which fails the transformer/diffusion zoo
  while CNNs pass.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from .base import Backend
from .optimizer import FusionConfig, FusionGroup

__all__ = ["OpenVINOSim"]


class OpenVINOSim(Backend):
    """Simulated OpenVINO backend."""

    name = "ov-sim"
    fusion_config = FusionConfig.moderate()
    input_reformat = ("Convert_{t}", "{t}/convert")
    output_reformat = ("Convert_{t}_out", "{t}/convert")

    unsupported_ops = {
        "npu3720": frozenset({
            "Erf", "Gelu", "Einsum", "GroupNormalization",
            "InstanceNormalization", "ConvTranspose", "Gather", "Resize",
            "Expand", "Tile", "Range", "TopK",
        }),
    }

    def execution_layer(self, group: FusionGroup, position: int
                        ) -> Tuple[str, Optional[List[str]]]:
        # OpenVINO keeps one friendly name per compiled layer — a
        # partial mapping hint
        friendly = group.members[-1].name
        return friendly, [friendly]
