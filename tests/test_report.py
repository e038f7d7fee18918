"""Tests for campaign reporting."""

import pytest

from repro.measurement import CampaignConfig, CampaignPlan, campaign_report, execute
from repro.measurement.campaign import CampaignResult
from repro.web import GeneratorConfig, TopSitesGenerator


@pytest.fixture(scope="module")
def result():
    universe = TopSitesGenerator(GeneratorConfig(n_sites=8)).generate(seed=19)
    return execute(CampaignPlan(
        universe, sim=CampaignConfig(seed=19), pages=universe.pages[:6]
    ))


class TestCampaignReport:
    def test_counts_align_with_result(self, result):
        report = campaign_report(result)
        assert report.pages_measured == 6
        assert report.h2.pages == report.h3.pages == 6
        assert report.h2.requests == report.h3.requests  # same URL set

    def test_plt_statistics_ordered(self, result):
        report = campaign_report(result)
        for summary in (report.h2, report.h3):
            assert summary.median_plt_ms <= summary.p90_plt_ms

    def test_reduction_ci_brackets_point(self, result):
        report = campaign_report(result)
        ci = report.plt_reduction_ci
        assert ci.low <= ci.point <= ci.high

    def test_win_rate_in_unit_interval(self, result):
        report = campaign_report(result)
        assert 0.0 <= report.h3_win_rate <= 1.0

    def test_bytes_accounted(self, result):
        report = campaign_report(result)
        assert report.h2.bytes_transferred > 0
        # Both modes fetch the same resources.
        assert report.h2.bytes_transferred == report.h3.bytes_transferred

    def test_render_is_readable(self, result):
        text = campaign_report(result).render()
        assert "PLT reduction" in text
        assert "h2-only" in text and "h3-enabled" in text

    def test_empty_campaign_rejected(self, result):
        empty = CampaignResult(result.universe, result.config, [])
        with pytest.raises(ValueError):
            campaign_report(empty)

    def test_deterministic_ci_seed(self, result):
        assert campaign_report(result, seed=3) == campaign_report(result, seed=3)
