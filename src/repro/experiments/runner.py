"""Run every experiment and regenerate EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runner [--out EXPERIMENTS.md] [--charts DIR]
          [--only table5,fig8]
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import (ablation_fusion, dist_scaling, fig4_end_to_end,
               fig5_layerwise,
               fig6_shufflenet_layerwise, fig7_block_structure,
               fig8_orin_layerwise,
               table1_tools, table2_hardware,
               table3_models, table4_accuracy, table5_shufflenet,
               table6_peaks, table7_power)

__all__ = ["EXPERIMENTS", "run_all", "main"]

#: id -> (module, needs_charts)
EXPERIMENTS: Dict[str, Tuple[object, bool]] = {
    "table1": (table1_tools, False),
    "table2": (table2_hardware, False),
    "table3": (table3_models, False),
    "table4": (table4_accuracy, False),
    "fig4": (fig4_end_to_end, False),
    "fig5": (fig5_layerwise, True),
    "table5": (table5_shufflenet, False),
    "fig6": (fig6_shufflenet_layerwise, True),
    "fig7": (fig7_block_structure, False),
    "table6": (table6_peaks, False),
    "fig8": (fig8_orin_layerwise, True),
    "table7": (table7_power, False),
    "ablation-fusion": (ablation_fusion, False),
    "dist-scaling": (dist_scaling, False),
}

_HEADER = """# EXPERIMENTS — paper vs. reproduction

Regenerated by ``python -m repro.experiments.runner``.  Absolute numbers
come from the calibrated hardware simulator (see DESIGN.md substitution
table), so the comparison targets are *shapes*: who wins, by what
factor, which side of every sign — each section states its criteria.
"""


def _run_one(key: str, module, has_charts: bool,
             charts_dir: Optional[str]) -> str:
    """Run one experiment module and return its markdown section."""
    t0 = time.perf_counter()
    result = module.run()
    text = module.to_markdown(result)
    if charts_dir and has_charts:
        os.makedirs(charts_dir, exist_ok=True)
        if key in ("fig5", "fig6"):
            paths = module.render_svgs(result, charts_dir)
            text += "\n\ncharts: " + ", ".join(paths)
        elif key == "fig8":
            path = module.render_svg(
                result, os.path.join(charts_dir, "fig8_orin.svg"))
            text += f"\n\nchart: {path}"
    elapsed = time.perf_counter() - t0
    return text + f"\n\n*(regenerated in {elapsed:.1f} s)*"


def run_all(only: Optional[List[str]] = None,
            charts_dir: Optional[str] = None) -> str:
    """Execute experiments and return the EXPERIMENTS.md content.

    Sections appear in :data:`EXPERIMENTS` order.  Experiments profile
    overlapping model sets, so their Profilers (which default to the
    process-wide shared :class:`~repro.analysis.cache.AnalysisCache`)
    reuse each other's shape/AR/mapping work instead of redoing it per
    experiment.
    """
    bodies = [_run_one(key, module, has_charts, charts_dir)
              for key, (module, has_charts) in EXPERIMENTS.items()
              if not only or key in only]
    return "\n\n---\n\n".join([_HEADER] + bodies) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--charts", default="charts",
                        help="directory for SVG charts")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment ids "
                             f"({', '.join(EXPERIMENTS)})")
    args = parser.parse_args(argv)
    only = args.only.split(",") if args.only else None
    content = run_all(only=only, charts_dir=args.charts)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(content)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
