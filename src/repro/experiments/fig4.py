"""Fig. 4 — shared giant providers across webpages.

(a) probability of each CDN provider appearing on a page;
(b) number and percentage of pages using k providers.
"""

from __future__ import annotations

from repro.core.characteristics import multi_provider_share
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    format_table,
    pct,
)

EXPERIMENT_ID = "fig4"
TITLE = "Shared giant providers across webpages (paper Fig. 4)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    appearance = study.fig4a()
    by_count = study.fig4b()
    total_pages = sum(by_count.values())

    lines = ["  (a) provider appearance probability:"]
    lines += format_table(
        ("provider", "P(appears)"),
        [(name, pct(p)) for name, p in appearance.items()],
    )
    lines.append("  (b) pages by number of providers used:")
    lines += format_table(
        ("#providers", "pages", "share"),
        [(k, n, pct(n / total_pages)) for k, n in by_count.items()],
    )
    share_2plus = multi_provider_share(study.universe.pages)
    lines.append(
        f"  (paper: 94.8% of pages use >= 2 providers; measured {share_2plus * 100:.1f}%)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "appearance_probability": appearance,
            "pages_by_provider_count": by_count,
            "share_2plus": share_2plus,
        },
    )


def _top4_appear_widely(data) -> bool:
    top = sorted(data["appearance_probability"].values(), reverse=True)
    return top[0] > 0.5 and top[2] > 0.45 and top[3] > 0.35


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig4a.top4_appear_widely", "Fig. 4(a): the top-4 providers each appear "
              "on > 50% of pages (1st > 50%, 3rd > 45%, 4th > 35%)", _top4_appear_widely),
        Shape("fig4b.multi_provider_pages", "Fig. 4(b): 94.8% of pages use >= 2 providers "
              "(>= 90%)", lambda d: d["share_2plus"] >= 0.90),
    ),
)
