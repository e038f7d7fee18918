"""Tests for the Scenario builder and its presets."""

import pytest

from repro.faults import FAULT_PROFILES, FaultProfile
from repro.measurement.campaign import CampaignConfig, SimConfig
from repro.scenario import SCENARIOS, Scenario, preset
from repro.transport.config import TransportConfig


class TestScenario:
    def test_defaults_render_the_paper_campaign(self):
        config = Scenario(name="x").campaign_config()
        assert config == CampaignConfig()

    def test_overrides_win(self):
        config = Scenario(name="x", config=CampaignConfig(loss_rate=0.01)).campaign_config(
            seed=42, trace=True
        )
        assert config.loss_rate == 0.01
        assert config.seed == 42
        assert config.trace

    def test_with_faults_accepts_preset_name(self):
        scenario = Scenario(name="base").with_faults("udp-blocked")
        assert scenario.config.fault_profile is FAULT_PROFILES["udp-blocked"]
        assert scenario.name == "base+udp-blocked"
        assert scenario.campaign_config().fault_profile is scenario.config.fault_profile

    def test_with_faults_none_disarms(self):
        scenario = preset("udp-blocked").with_faults(None)
        assert scenario.config.fault_profile is None
        assert scenario.name.endswith("+no-faults")

    def test_with_loss_and_transport(self):
        transport = TransportConfig()
        scenario = Scenario(name="x").with_loss(0.005).with_transport(transport)
        assert scenario.config.loss_rate == 0.005
        assert scenario.config.transport_config is transport
        assert "loss0.005" in scenario.name

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError, match="loss_rate"):
            Scenario(name="x").with_loss(1.5)
        with pytest.raises(ValueError, match="loss_rate"):
            CampaignConfig(loss_rate=-0.1)
        with pytest.raises(ValueError, match="loss_rate"):
            SimConfig(loss_rate=1.5)

    def test_is_immutable(self):
        scenario = Scenario(name="x")
        with pytest.raises(Exception):
            scenario.config = CampaignConfig(loss_rate=0.5)
        with pytest.raises(Exception):
            scenario.config.loss_rate = 0.5


class TestPresets:
    def test_registry_names(self):
        assert set(SCENARIOS) == {
            "paper-default", "lossy", "udp-blocked", "cdn-hierarchy"
        }

    def test_paper_default_has_no_faults_or_loss(self):
        scenario = preset("paper-default")
        assert scenario.config.fault_profile is None
        assert scenario.config.loss_rate == 0.0

    def test_lossy_matches_fig9_heavy_end(self):
        assert preset("lossy").config.loss_rate == 0.01

    def test_udp_blocked_carries_the_fault_profile(self):
        scenario = preset("udp-blocked")
        assert isinstance(scenario.config.fault_profile, FaultProfile)
        assert scenario.config.fault_profile.kinds() == {"udp_blackhole"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            preset("chaos-monkey")
