"""Integration tests of the paper-level analyses (repro.core.*).

These run a small but complete study and assert the *shapes* the paper
reports — the same checks EXPERIMENTS.md records at full scale.
"""

import pytest

from repro.core import (
    GROUP_LABELS,
    H3CdnStudy,
    StudyConfig,
    adoption_table,
    case_study,
    domain_vectors,
    pages_by_provider_count,
    provider_page_probability,
    provider_resource_ccdf,
    reduction,
)
from repro.core.adoption import ROW_ALL, ROW_H2, ROW_H3, ROW_OTHERS, h3_share_by_provider
from repro.core.advisor import advise
from repro.core.characteristics import cdn_fraction_ccdf_from_entries, multi_provider_share
from repro.core.congestion import slopes_are_ordered
from repro.core.metrics import paired_entry_reductions
from repro.experiments import find_shape, run_experiment
from repro.measurement.farm import ProbeNetProfile


@pytest.fixture(scope="module")
def study():
    """One shared small-scale study (campaign of 45 pages)."""
    return H3CdnStudy(StudyConfig(n_sites=45, seed=11, max_loss_sweep_pages=8))


class TestMetrics:
    def test_reduction_sign_convention(self):
        assert reduction(100.0, 60.0) == 40.0  # positive: H3 wins

    def test_paired_entry_reductions_cover_all_urls(self, study):
        paired = study.campaign_result.paired_visits[0]
        phases = paired_entry_reductions(paired)
        assert len(phases) == len(paired.h3.entries)
        urls = {p.url for p in phases}
        assert urls == {e.url for e in paired.h2.entries}


class TestTable2:
    def test_rows_sum_to_total(self, study):
        table = study.table2()
        total = sum(
            table.cell(row, "all").requests
            for row in (ROW_H2, ROW_H3, ROW_OTHERS)
        )
        assert total == table.total_requests
        assert table.cell(ROW_ALL, "all").requests == total

    def test_cdn_dominates_requests(self, study):
        # Paper: 67.0 % of requests are CDN.
        assert 0.55 <= study.table2().cdn_share <= 0.75

    def test_h3_share_near_paper(self, study):
        # Paper: 32.6 %.
        assert 0.24 <= study.table2().h3_share <= 0.42

    def test_most_h3_requests_are_cdn(self, study):
        # Paper: 78.8 % of H3 requests come from CDNs (full scale
        # measures ~0.79; allow slack at 45 sites).
        assert study.table2().h3_cdn_share_of_h3 > 0.58

    def test_others_bucket_small_and_non_cdn(self, study):
        table = study.table2()
        assert table.cell(ROW_OTHERS, "all").percent < 12.0
        assert table.cell(ROW_OTHERS, "cdn").requests == 0

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            adoption_table([])


class TestFig2:
    def test_google_and_cloudflare_dominate_h3(self, study):
        shares = h3_share_by_provider(study.fig2())
        assert shares.get("google", 0) > 0.3
        assert shares.get("google", 0) + shares.get("cloudflare", 0) > 0.6

    def test_google_nearly_all_h3(self, study):
        rows = {r.provider: r for r in study.fig2()}
        assert rows["google"].h3_fraction > 0.8

    def test_amazon_mostly_h2(self, study):
        rows = {r.provider: r for r in study.fig2()}
        if "amazon" in rows:
            assert rows["amazon"].h3_fraction < 0.4


class TestFig3to5:
    def test_fig3_majority_cdn(self, study):
        # Paper: 75 % of pages exceed 50 % CDN resources.
        assert 0.6 <= study.fig3().ccdf(0.5) <= 0.9

    def test_fig3_from_entries_agrees_with_ground_truth(self, study):
        per_page_entries = (
            visit.entries for visit in study.campaign_result.visits("h3-enabled")
        )
        from_har = cdn_fraction_ccdf_from_entries(per_page_entries)
        assert from_har.ccdf(0.5) == pytest.approx(study.fig3().ccdf(0.5), abs=0.05)

    def test_fig4a_top_providers_widespread(self, study):
        probabilities = list(study.fig4a().values())
        assert probabilities == sorted(probabilities, reverse=True)
        assert probabilities[0] > 0.5

    def test_fig4b_multi_provider_pages(self, study):
        counts = study.fig4b()
        total = sum(counts.values())
        multi = sum(n for k, n in counts.items() if k >= 2)
        assert multi / total >= 0.85
        assert multi_provider_share(study.universe.pages) == multi / total

    def test_fig5_big_providers_host_many_resources(self, study):
        ccdfs = study.fig5(("cloudflare", "google"))
        for name, dist in ccdfs.items():
            assert dist.ccdf(10.0) > 0.35, name

    def test_fig5_unknown_provider_rejected(self, study):
        with pytest.raises(ValueError):
            provider_resource_ccdf(study.universe.pages, "nonexistent")


class TestFig6:
    def test_groups_cover_all_pages_equally(self, study):
        groups = study.fig6a()
        assert [g.label for g in groups] == list(GROUP_LABELS)
        sizes = [g.n_pages for g in groups]
        assert max(sizes) - min(sizes) <= 1

    def test_h3_adoption_increases_across_groups(self, study):
        means = [g.mean_h3_entries for g in study.fig6a()]
        assert means == sorted(means)

    def test_all_groups_see_positive_reduction(self, study):
        # Paper: "all groups exhibit a positive PLT reduction".
        for group in study.fig6a():
            assert group.mean_plt_reduction_ms > -15.0, group.label

    def test_fig6b_median_signs(self, study):
        dists = study.fig6b()
        # Paper: connection median > 0, wait median < 0, receive ~ 0.
        assert dists["connection"].median > 0.0
        assert dists["wait"].median < 0.0
        assert abs(dists["receive"].median) < 6.0


class TestFig7:
    def test_reuse_grows_with_group_level(self, study):
        reuse = study.fig7a()
        h2_means = [g.mean_reused_h2 for g in reuse]
        # Directional at this scale: High group reuses far more than Low
        # (strict monotonicity is checked at full scale by the bench).
        assert h2_means[-1] > h2_means[0]
        assert h2_means[-1] > 1.3 * h2_means[0]

    def test_h2_reuses_more_than_h3(self, study):
        # Paper: "H2 triggers more reused HTTP connections than H3".
        for group in study.fig7a():
            assert group.mean_reused_h2 >= group.mean_reused_h3, group.label
        assert sum(g.mean_difference for g in study.fig7a()) > 0

    def test_fig7c_bins_cover_pages(self, study):
        bins = study.fig7c()
        assert sum(b.n_pages for b in bins) == len(study.campaign_result.paired_visits)

    def test_fig7c_invalid_bins_rejected(self, study):
        with pytest.raises(ValueError):
            study.fig7c(n_bins=0)


class TestFig8AndTable3:
    def test_fig8b_resumption_grows_with_providers(self, study):
        resumed = study.fig8b()
        assert len(resumed) >= 3
        counts = sorted(resumed)
        # Directional at this scale (tiny extreme buckets are noisy):
        # the upper half of the buckets resumes more than the lower.
        half = len(counts) // 2
        low = sum(resumed[k] for k in counts[:half]) / half
        high = sum(resumed[k] for k in counts[-half:]) / half
        assert high > low

    def test_fig8a_reductions_mostly_positive(self, study):
        values = list(study.fig8a().values())
        assert sum(1 for v in values if v > 0) >= len(values) / 2

    def test_domain_vectors_shape(self, study):
        domains, vectors, kept = domain_vectors(study.universe.pages)
        assert vectors
        assert all(len(v) == len(domains) for v in vectors)
        assert len(kept) == len(vectors)
        assert all(set(v) <= {0, 1} for v in vectors)

    def test_case_study_high_shares_more(self, study):
        data = run_experiment("table3", study).data
        for name in ("table3.shared_providers_ordering", "table3.resumed_ordering"):
            assert find_shape(name)[1].holds(data), name

    def test_case_study_too_few_pages_rejected(self, study):
        with pytest.raises(ValueError):
            case_study(study.universe, pages=study.universe.pages[:2])


class TestFig9:
    def test_series_structure(self, study):
        series = study.fig9()
        assert [s.loss_rate for s in series] == [0.0, 0.005, 0.01]
        for s in series:
            assert len(s.points) == 8
            assert s.fit.n == 8

    def test_loss_inflates_page_load_times(self, study):
        """Robust physics at any scale: 1 % loss slows pages down for
        both protocols (Mathis-capped congestion windows).  The paper's
        headline — H3's *reduction slope* growing with loss — is far
        too noisy at 8 pages, so it is asserted at bench scale by the
        ``fig9.lossy_slopes_exceed_lossless`` shape instead."""
        from repro.measurement import CampaignConfig, CampaignPlan, execute

        pages = study.universe.pages[:4]
        clean = execute(CampaignPlan(
            study.universe, sim=CampaignConfig(seed=3), pages=pages
        ))
        lossy = execute(CampaignPlan(
            study.universe, sim=CampaignConfig(seed=3, loss_rate=0.01), pages=pages
        ))
        for mode in ("h2-only", "h3-enabled"):
            clean_mean = sum(v.plt_ms for v in clean.visits(mode)) / len(pages)
            lossy_mean = sum(v.plt_ms for v in lossy.visits(mode)) / len(pages)
            assert lossy_mean > clean_mean, mode

    def test_slopes_are_ordered_helper(self, study):
        series = study.fig9()
        ordered = slopes_are_ordered(series)
        assert isinstance(ordered, bool)


class TestAdvisor:
    def test_h3_for_lossy_cdn_heavy_page(self, study):
        page = max(study.universe.pages, key=lambda p: len(p.cdn_resources))
        advice = advise(
            page, study.universe,
            network=ProbeNetProfile(loss_rate=0.01),
            consecutive_browsing=True,
        )
        assert advice.protocol == "h3"
        assert advice.reasons

    def test_score_moves_with_conditions(self, study):
        page = study.universe.pages[10]
        clean = advise(page, study.universe, network=ProbeNetProfile())
        lossy = advise(page, study.universe, network=ProbeNetProfile(loss_rate=0.02))
        assert lossy.score > clean.score

    def test_consecutive_browsing_favours_h3(self, study):
        page = study.universe.pages[10]
        solo = advise(page, study.universe)
        browsing = advise(page, study.universe, consecutive_browsing=True)
        assert browsing.score >= solo.score
