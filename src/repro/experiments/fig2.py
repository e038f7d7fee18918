"""Fig. 2 — H3 adoption by CDN provider and market share."""

from __future__ import annotations

from repro.core.adoption import h3_share_by_provider
from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    format_table,
    pct,
)

EXPERIMENT_ID = "fig2"
TITLE = "H3 adoption by CDN provider and market share (paper Fig. 2)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    rows_data = study.fig2()
    total_cdn = sum(r.total for r in rows_data)
    h3_shares = h3_share_by_provider(rows_data)
    rows = [
        (
            r.provider,
            r.h3_requests,
            r.h2_requests,
            pct(r.h3_fraction),
            pct(r.total / total_cdn),
            pct(h3_shares[r.provider]),
        )
        for r in rows_data
    ]
    lines = format_table(
        ("Provider", "H3 req", "H2 req", "own H3%", "mkt share", "share of H3"),
        rows,
    )
    lines.append(
        "  (paper: Google ~50% and Cloudflare 45.2% of H3-enabled CDN requests;"
        " Google almost fully H3)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "h3_share_by_provider": h3_shares,
            "market_share": {r.provider: r.total / total_cdn for r in rows_data},
            "own_h3_fraction": {r.provider: r.h3_fraction for r in rows_data},
        },
    )


def _h3_share(data, provider: str) -> float:
    return data["h3_share_by_provider"].get(provider, 0.0)


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig2.google_leads_h3", "Fig. 2: Google ~50% of H3 CDN requests (> 35%)",
              lambda d: _h3_share(d, "google") > 0.35),
        Shape("fig2.google_cloudflare_dominate_h3", "Fig. 2: Google + Cloudflare > 70% of H3",
              lambda d: _h3_share(d, "google") + _h3_share(d, "cloudflare") > 0.70),
        Shape("fig2.google_almost_fully_h3", "Fig. 2: Google's own traffic ~all H3 (> 85%)",
              lambda d: d["own_h3_fraction"]["google"] > 0.85),
        Shape("fig2.amazon_mostly_h2", "Fig. 2: Amazon serves little H3 (< 35% of requests)",
              lambda d: d["own_h3_fraction"].get("amazon", 0.0) < 0.35),
    ),
)
