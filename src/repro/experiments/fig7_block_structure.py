"""Figure 7: the ShuffleNetV2 block modification, verified structurally.

Figure 7 is the paper's diagram of the §4.5 rewrite: drop the channel
Shuffle, widen the first/last pointwise convolutions to cover all
channels, and add an explicit residual Add.  This experiment verifies
our :func:`~repro.models.shufflenet_v2_modified` implements exactly
that transformation:

* op-histogram diff — the 13 basic-block Shuffles (Reshape/Transpose/
  Reshape triples) and Splits/Concats disappear; 13 residual Adds
  appear; downsampling units keep their 3 Shuffles untouched;
* parameter/FLOP deltas match the paper's Table 3/5 rows
  (2.27→2.80 M params, 0.294→0.434 GFLOP);
* both variants execute end-to-end in the reference executor, so the
  rewired graph is a real network, not just a cost model.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..analysis.arep import AnalyzeRepresentation
from ..ir.executor import Executor
from ..models.shufflenet import shufflenet_v2, shufflenet_v2_modified
from .common import ExperimentMeta, markdown_table

META = ExperimentMeta("Figure 7", "The modified ShuffleNetV2 block", "4.5")

__all__ = ["META", "Fig7Result", "run", "to_markdown"]

#: paper-reported structural facts
PAPER = {
    "orig_params_m": 2.271, "mod_params_m": 2.804,
    "orig_gflop": 0.294, "mod_gflop": 0.434,
    "orig_top1": 68.9, "mod_top1": 70.1,
}


@dataclass
class Fig7Result:
    orig_hist: Dict[str, int]
    mod_hist: Dict[str, int]
    orig_params_m: float
    mod_params_m: float
    orig_gflop: float
    mod_gflop: float
    both_execute: bool

    @property
    def shuffles_removed(self) -> int:
        return self.orig_hist.get("Transpose", 0) \
            - self.mod_hist.get("Transpose", 0)

    @property
    def residual_adds_added(self) -> int:
        return self.mod_hist.get("Add", 0) - self.orig_hist.get("Add", 0)


def run() -> Fig7Result:
    orig = shufflenet_v2(1.0, batch_size=1)
    mod = shufflenet_v2_modified(1.0, batch_size=1)
    s_orig = AnalyzeRepresentation(orig).stats()
    s_mod = AnalyzeRepresentation(mod).stats()
    # executable check on tiny variants (fast)
    feeds = {"input": np.random.default_rng(0).normal(
        size=(1, 3, 64, 64)).astype(np.float32)}
    o = Executor(shufflenet_v2(1.0, batch_size=1, image_size=64)).run(feeds)
    m = Executor(shufflenet_v2_modified(1.0, batch_size=1,
                                        image_size=64)).run(feeds)
    ok = (next(iter(o.values())).shape == (1, 1000)
          and next(iter(m.values())).shape == (1, 1000)
          and np.isfinite(next(iter(m.values()))).all())
    return Fig7Result(
        orig_hist=orig.op_type_histogram(),
        mod_hist=mod.op_type_histogram(),
        orig_params_m=s_orig.params_m,
        mod_params_m=s_mod.params_m,
        orig_gflop=s_orig.gflop,
        mod_gflop=s_mod.gflop,
        both_execute=ok,
    )


def to_markdown(r: Fig7Result) -> str:
    structural = markdown_table(
        ["Op type", "Original", "Modified"],
        [[op, r.orig_hist.get(op, 0), r.mod_hist.get(op, 0)]
         for op in ("Conv", "Transpose", "Reshape", "Split", "Concat",
                    "Add", "Relu")])
    totals = markdown_table(
        ["", "Original", "Modified", "Original (paper)", "Modified (paper)"],
        [["Params (M)", round(r.orig_params_m, 2), round(r.mod_params_m, 2),
          PAPER["orig_params_m"], PAPER["mod_params_m"]],
         ["GFLOP (bs=1)", round(r.orig_gflop, 3), round(r.mod_gflop, 3),
          PAPER["orig_gflop"], PAPER["mod_gflop"]],
         ["ImageNet top-1 (paper, carried)", f"{PAPER['orig_top1']}%",
          f"{PAPER['mod_top1']}%", "-", "-"]])
    return (f"### {META.artifact}: {META.title} (§{META.section})\n\n"
            f"{structural}\n\n{totals}\n\n"
            f"{r.shuffles_removed} basic-block Shuffle transposes removed "
            f"(downsampling units keep theirs), {r.residual_adds_added} "
            f"residual Adds appended; both variants execute end-to-end in "
            f"the reference executor: {r.both_execute}.")
