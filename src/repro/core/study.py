"""One-stop orchestration of the full reproduction study.

:class:`H3CdnStudy` is the public API most users want: configure scale
once, then ask for any table or figure.  Expensive stages (universe
generation, the paired campaign, the consecutive walk, the loss sweep)
run lazily and are cached on the instance, so asking for Fig. 6 and
Fig. 7 shares one campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.analysis.stats import EmpiricalDistribution
from repro.core import adoption as adoption_mod
from repro.core import characteristics as characteristics_mod
from repro.core import cdn_scenarios as cdn_scenarios_mod
from repro.core import congestion as congestion_mod
from repro.core import fallback as fallback_mod
from repro.core import groups as groups_mod
from repro.core import migration as migration_mod
from repro.core import reuse as reuse_mod
from repro.core import sharing as sharing_mod
from repro.core.adoption import AdoptionTable, ProviderAdoption
from repro.core.cdn_scenarios import EconomicsPoint
from repro.core.congestion import LossSweepSeries
from repro.core.fallback import FallbackSweepPoint
from repro.core.migration import MigrationPoint
from repro.core.sharing import CaseStudyResult
from repro.measurement.campaign import CampaignConfig, CampaignResult
from repro.measurement.consecutive import ConsecutiveRun
from repro.measurement.executor import (
    CampaignPlan,
    ConsecutivePlan,
    MultiCampaignPlan,
    execute,
)
from repro.web.page import Webpage
from repro.web.topsites import GeneratorConfig, WebUniverse, cached_universe


@dataclass(frozen=True)
class StudyConfig:
    """Scale and seeding for one full study run.

    The defaults reproduce the paper at full scale (325 sites).  For
    tests and quick benches, shrink ``n_sites`` and cap the per-
    experiment page counts.
    """

    n_sites: int = 325
    seed: int = 7
    generator_config: GeneratorConfig | None = None
    campaign_config: CampaignConfig = field(default_factory=CampaignConfig)
    #: Loss rates for the Fig. 9 sweep.
    loss_rates: tuple[float, ...] = congestion_mod.DEFAULT_LOSS_RATES
    #: Page-count caps per experiment (None = all pages).
    max_campaign_pages: int | None = None
    max_consecutive_pages: int | None = None
    max_loss_sweep_pages: int | None = None
    #: Repetitions for the loss sweep (loss is stochastic).
    loss_sweep_repetitions: int = 1
    #: Fault intensities for the fallback sweep (fraction of hosts
    #: whose UDP is blackholed).
    fallback_intensities: tuple[float, ...] = fallback_mod.DEFAULT_INTENSITIES
    #: Path topologies for the migration sweep.
    migration_topologies: tuple[str, ...] = migration_mod.DEFAULT_TOPOLOGIES
    #: Fault kinds for the migration sweep ("none" = control).
    migration_faults: tuple[str, ...] = migration_mod.DEFAULT_FAULTS
    #: Identity-demand ratios for the amplification sweep.
    amplification_ratios: tuple[float, ...] = (
        cdn_scenarios_mod.DEFAULT_IDENTITY_RATIOS
    )
    #: Worker processes for the campaign and every sweep (the walks are
    #: serial; 1 = in-process).
    workers: int = 1
    #: Result store for replay/resume (``None`` = no persistence).  A
    #: live :class:`~repro.store.ResultStore`; excluded from equality so
    #: configs still compare by their scientific content.
    store: "object | None" = field(default=None, compare=False)
    #: Base name for this study's runs in the store (each stage appends
    #: its own suffix, e.g. ``<run_name>/campaign``).
    run_name: str = "study"
    #: Continue interrupted runs of the same name instead of restarting.
    resume: bool = False

    def resolved_generator_config(self) -> GeneratorConfig:
        if self.generator_config is not None:
            return self.generator_config
        return GeneratorConfig(n_sites=self.n_sites)


class H3CdnStudy:
    """The full reproduction, lazily evaluated and cached."""

    def __init__(self, config: StudyConfig | None = None) -> None:
        self.config = config or StudyConfig()
        self._universe: WebUniverse | None = None
        self._campaign_result: CampaignResult | None = None
        self._consecutive: tuple[ConsecutiveRun, ConsecutiveRun] | None = None
        self._case_study: CaseStudyResult | None = None
        #: Stage name → the cached result of that sweep's default call.
        self._sweeps: dict[str, list] = {}

    # -- cached stages ---------------------------------------------------

    @property
    def universe(self) -> WebUniverse:
        """The synthetic top-site universe (generated on first use)."""
        if self._universe is None:
            self._universe = cached_universe(
                self.config.resolved_generator_config(), seed=self.config.seed
            )
        return self._universe

    def _pages(self, cap: int | None) -> tuple[Webpage, ...]:
        pages = self.universe.pages
        return pages if cap is None else pages[:cap]

    @property
    def campaign_result(self) -> CampaignResult:
        """The paired H2/H3 campaign (runs on first use)."""
        if self._campaign_result is None:
            self._campaign_result = execute(CampaignPlan(
                universe=self.universe,
                sim=self.config.campaign_config,
                pages=self._pages(self.config.max_campaign_pages),
                workers=self.config.workers,
                store=self.config.store,
                run_name=f"{self.config.run_name}/campaign",
                resume=self.config.resume,
            ))
        return self._campaign_result

    def campaign_result_or_none(self) -> CampaignResult | None:
        """The campaign result if it has already been materialized.

        Unlike :attr:`campaign_result` this never triggers the run —
        observability consumers (the CLI's ``--counters`` / trace
        export) use it to read telemetry only from campaigns that some
        experiment actually executed.
        """
        return self._campaign_result

    @property
    def consecutive_runs(self) -> tuple[ConsecutiveRun, ConsecutiveRun]:
        """(H2 walk, H3 walk) over the ordered page list."""
        if self._consecutive is None:
            self._consecutive = execute(ConsecutivePlan(
                universe=self.universe,
                pages=tuple(self._pages(self.config.max_consecutive_pages)),
                # The walks run at the study seed, like the sweeps.
                sim=replace(self.config.campaign_config, seed=self.config.seed),
                store=self.config.store,
                run_name=f"{self.config.run_name}/consecutive",
            ))
        return self._consecutive

    # -- Section IV: adoption --------------------------------------------

    def table2(self) -> AdoptionTable:
        """Table II: requests by HTTP version × CDN/non-CDN."""
        return adoption_mod.adoption_table(
            self.campaign_result.entries("h3-enabled")
        )

    def fig2(self) -> list[ProviderAdoption]:
        """Fig. 2: per-provider H3/H2 request counts."""
        return adoption_mod.provider_adoption(
            self.campaign_result.entries("h3-enabled")
        )

    # -- Section V: characteristics ---------------------------------------

    def fig3(self) -> EmpiricalDistribution:
        """Fig. 3: CCDF of per-page CDN fraction."""
        return characteristics_mod.cdn_fraction_ccdf(self.universe.pages)

    def fig4a(self) -> dict[str, float]:
        """Fig. 4(a): provider appearance probability."""
        return characteristics_mod.provider_page_probability(self.universe.pages)

    def fig4b(self) -> dict[int, int]:
        """Fig. 4(b): pages per provider count."""
        return characteristics_mod.pages_by_provider_count(self.universe.pages)

    def fig5(self, providers: Sequence[str] = ("amazon", "cloudflare", "google", "fastly")):
        """Fig. 5: per-provider CCDF of resources per page."""
        return {
            name: characteristics_mod.provider_resource_ccdf(self.universe.pages, name)
            for name in providers
        }

    # -- Section VI-B/C: groups and reuse ----------------------------------

    def fig6a(self):
        """Fig. 6(a): PLT reduction per quartile group."""
        return groups_mod.plt_reduction_by_group(self.campaign_result)

    def fig6b(self) -> dict[str, EmpiricalDistribution]:
        """Fig. 6(b): CDFs of phase reductions."""
        return groups_mod.phase_reduction_distributions(self.campaign_result)

    def fig7a(self):
        """Fig. 7(a)/(b): reused connections per group."""
        return reuse_mod.reused_counts_by_group(self.campaign_result)

    def fig7c(self, n_bins: int = 5):
        """Fig. 7(c): PLT reduction vs reuse difference."""
        return reuse_mod.plt_reduction_by_reuse_difference(
            self.campaign_result, n_bins=n_bins
        )

    # -- Section VI-D: sharing ---------------------------------------------

    def fig8a(self) -> dict[int, float]:
        """Fig. 8(a): PLT reduction vs number of used providers."""
        h2_run, h3_run = self.consecutive_runs
        return sharing_mod.plt_reduction_by_provider_count(
            h2_run, h3_run, self._pages(self.config.max_consecutive_pages)
        )

    def fig8b(self) -> dict[int, float]:
        """Fig. 8(b): resumed connections vs number of used providers."""
        __, h3_run = self.consecutive_runs
        return sharing_mod.resumed_by_provider_count(
            h3_run, self._pages(self.config.max_consecutive_pages)
        )

    def table3(self) -> CaseStudyResult:
        """Table III: the high-/low-sharing case study."""
        if self._case_study is None:
            self._case_study = sharing_mod.case_study(
                self.universe,
                pages=self._pages(self.config.max_consecutive_pages),
                sim=replace(self.config.campaign_config, seed=self.config.seed),
            )
        return self._case_study

    # -- sweeps -------------------------------------------------------------

    def _plan(self, stage: str | None) -> MultiCampaignPlan:
        """The run shape every sweep shares, with no configs yet.

        With a store, ``stage`` names the sweep's runs
        (``<run_name>/<stage>/<cell>``).  ``stage=None`` is an explicit
        rerun: it stays out of the store.
        """
        config = self.config
        store = config.store if stage is not None else None
        return MultiCampaignPlan(
            self.universe,
            pages=self._pages(config.max_loss_sweep_pages),
            workers=config.workers,
            store=store,
            run_prefix=f"{config.run_name}/{stage}" if store is not None else None,
            resume=config.resume,
        )

    def _sweep(self, sweep, stage: str | None, **knobs):
        """Run ``sweep`` on this study's plan, seed and campaign config.

        A named ``stage`` is cached and, with a store, stored; ``None``
        runs fresh every time.
        """
        if stage in self._sweeps:
            return self._sweeps[stage]
        result = sweep(
            self._plan(stage),
            seed=self.config.seed,
            campaign_config=self.config.campaign_config,
            **knobs,
        )
        if stage is not None:
            self._sweeps[stage] = result
        return result

    # -- Section VI-E: congestion -------------------------------------------

    def fig9(self) -> list[LossSweepSeries]:
        """Fig. 9: the loss sweep with fitted slopes."""
        return self._sweep(
            congestion_mod.loss_sweep,
            "fig9",
            loss_rates=self.config.loss_rates,
            repetitions=self.config.loss_sweep_repetitions,
        )

    # -- fault injection: fallback ------------------------------------------

    def fig_fallback(
        self, intensities: Sequence[float] | None = None
    ) -> list[FallbackSweepPoint]:
        """The fallback sweep: H3's edge under rising UDP blackholing.

        Only the default-intensity call is cached and stored; an
        explicit ``intensities`` argument always runs fresh.
        """
        return self._sweep(
            fallback_mod.fallback_sweep,
            "fig-fallback" if intensities is None else None,
            intensities=tuple(
                intensities
                if intensities is not None
                else self.config.fallback_intensities
            ),
        )

    # -- proxy topologies: migration ----------------------------------------

    def fig_migration(
        self,
        topologies: Sequence[str] | None = None,
        fault_kinds: Sequence[str] | None = None,
    ) -> list[MigrationPoint]:
        """The migration sweep: QUIC migration vs TCP reconnect across
        direct/tunnel/relay topologies.

        Only the default call is cached and stored; explicit
        ``topologies`` or ``fault_kinds`` always run fresh.
        """
        default = topologies is None and fault_kinds is None
        return self._sweep(
            migration_mod.migration_sweep,
            "fig-migration" if default else None,
            topologies=tuple(
                topologies
                if topologies is not None
                else self.config.migration_topologies
            ),
            fault_kinds=tuple(
                fault_kinds
                if fault_kinds is not None
                else self.config.migration_faults
            ),
        )

    # -- CDN hierarchy: economics scenarios ---------------------------------

    def fig_amplification(
        self, identity_ratios: Sequence[float] | None = None
    ) -> list[EconomicsPoint]:
        """The amplification sweep: identity-demanding clients vs a
        Brotli-storing origin (egress/ingress factor by demand ratio).

        Only the default-ratio call is cached and stored; an explicit
        ``identity_ratios`` argument always runs fresh.
        """
        return self._sweep(
            cdn_scenarios_mod.amplification_sweep,
            "fig-amplification" if identity_ratios is None else None,
            identity_ratios=tuple(
                identity_ratios
                if identity_ratios is not None
                else self.config.amplification_ratios
            ),
        )

    def fig_miss_storm(self) -> list[EconomicsPoint]:
        """The miss-storm sweep: offload collapse under tier squeeze."""
        return self._sweep(cdn_scenarios_mod.miss_storm_sweep, "fig-miss-storm")

    def fig_flash_crowd(self) -> list[EconomicsPoint]:
        """The flash-crowd comparison: flat cache vs tier hierarchy."""
        return self._sweep(cdn_scenarios_mod.flash_crowd_sweep, "fig-flash-crowd")

    # ------------------------------------------------------------------

    def scaled(self, **overrides) -> "H3CdnStudy":
        """A new study with config fields replaced (nothing shared)."""
        return H3CdnStudy(replace(self.config, **overrides))
