"""Fig. 5 — CCDF of per-page CDN resource counts for four giants."""

from __future__ import annotations

from repro.experiments.base import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    Shape,
    format_table,
    pct,
)

EXPERIMENT_ID = "fig5"
TITLE = "CCDF of per-page resources from Amazon/Cloudflare/Google/Fastly (Fig. 5)"

PROVIDERS = ("amazon", "cloudflare", "google", "fastly")
PROBE_COUNTS = (1, 5, 10, 20, 50)


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = ctx.study
    ccdfs = study.fig5(PROVIDERS)
    rows = []
    for provider in PROVIDERS:
        dist = ccdfs[provider]
        rows.append(
            (provider, *(pct(dist.ccdf(float(c))) for c in PROBE_COUNTS))
        )
    lines = format_table(
        ("provider", *(f">{c} res" for c in PROBE_COUNTS)), rows
    )
    lines.append(
        "  (paper: ~50% of pages using Cloudflare/Google carry >10 of that "
        "provider's resources; measured "
        + ", ".join(
            f"{p}={ccdfs[p].ccdf(10.0) * 100:.0f}%" for p in ("cloudflare", "google")
        )
        + ")"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        lines=lines,
        data={
            "ccdf_over_10": {p: ccdfs[p].ccdf(10.0) for p in PROVIDERS},
            "medians": {p: ccdfs[p].median for p in PROVIDERS},
        },
    )


def _over_10(data, provider: str) -> float:
    return data["ccdf_over_10"][provider]


SPEC = ExperimentSpec(
    name=EXPERIMENT_ID, title=TITLE, run=run,
    shapes=(
        Shape("fig5.cloudflare_google_over_10", "Fig. 5: ~50% of pages using Cloudflare/"
              "Google carry > 10 of its resources (> 40% each)",
              lambda d: min(_over_10(d, "cloudflare"), _over_10(d, "google")) > 0.40),
        Shape("fig5.fastly_below_cloudflare", "Fig. 5: small-share providers host fewer "
              "resources per page (Fastly <= Cloudflare)",
              lambda d: _over_10(d, "fastly") <= _over_10(d, "cloudflare")),
    ),
)
