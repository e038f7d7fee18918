#!/usr/bin/env python3
"""Consecutive browsing: shared CDN providers accelerate the next page.

Reproduces the paper's Section VI-D scenario (Takeaway 3) at demo
scale: a user browses a sequence of pages; connections are torn down
and caches cleared between pages, but TLS session tickets survive.
Pages that share giant CDN providers with earlier pages resume
connections — H3 at 0-RTT — and load faster than under H2.

Run:  python examples/consecutive_browsing.py
"""

from repro.core.sharing import giant_provider_count
from repro.measurement import CampaignConfig, ConsecutivePlan, execute
from repro.web import GeneratorConfig, TopSitesGenerator


def main() -> None:
    universe = TopSitesGenerator(GeneratorConfig(n_sites=12)).generate(seed=9)
    pages = list(universe.pages)
    print(f"Browsing {len(pages)} pages consecutively "
          "(tickets persist, connections/caches do not)\n")

    h2_run, h3_run = execute(ConsecutivePlan(
        universe=universe, pages=tuple(pages), sim=CampaignConfig(seed=9)
    ))

    header = f"{'page':34s} {'giants':>6s} {'resumed':>7s} {'H2 PLT':>8s} {'H3 PLT':>8s} {'reduction':>9s}"
    print(header)
    print("-" * len(header))
    for page, h2_visit, h3_visit in zip(pages, h2_run.visits, h3_run.visits):
        resumed = h3_visit.har.resumed_connection_count()
        reduction = h2_visit.plt_ms - h3_visit.plt_ms
        print(f"{page.origin_host:34s} {giant_provider_count(page):6d} "
              f"{resumed:7d} {h2_visit.plt_ms:7.0f}m {h3_visit.plt_ms:7.0f}m "
              f"{reduction:+8.0f}m")

    total_h2 = sum(v.plt_ms for v in h2_run.visits)
    total_h3 = sum(v.plt_ms for v in h3_run.visits)
    print(f"\nwhole walk: H2 {total_h2:.0f} ms vs H3 {total_h3:.0f} ms "
          f"({total_h2 - total_h3:+.0f} ms; first page resumes nothing, "
          "later pages ride earlier pages' tickets)")


if __name__ == "__main__":
    main()
