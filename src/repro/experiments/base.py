"""The unified experiment API: spec, context, result, shapes, rendering.

Every table/figure driver is described by one :class:`ExperimentSpec`
(name, title, default params, ``run`` callable, paper shapes).  A
driver's ``run`` takes an :class:`ExperimentContext` — the study plus
the merged parameter mapping — and returns an :class:`ExperimentResult`.
The registry holds specs, and the CLI dispatches exclusively through
:meth:`ExperimentSpec.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.study import H3CdnStudy


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    ``lines`` is the human-readable rendering (what the CLI prints);
    ``data`` holds the raw values so tests and EXPERIMENTS.md tooling
    can assert on them without re-parsing text.
    """

    experiment_id: str
    title: str
    lines: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return "\n".join([header, *self.lines])


@dataclass(frozen=True)
class ExperimentContext:
    """Everything a driver's ``run`` gets to see.

    ``params`` is the spec's defaults merged with any per-invocation
    overrides; :meth:`param` is the lookup drivers should use so that
    an absent key falls back explicitly rather than raising.
    """

    study: "H3CdnStudy"
    params: Mapping[str, Any] = field(default_factory=dict)

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


@dataclass(frozen=True)
class Shape:
    """One shape: a predicate over ``data`` named ``<panel>.<claim>``.

    ``paper`` states the claim (the paper's, or an extension's) and the
    threshold checked.  ``benchmarks/bench_shapes.py`` asserts the gated
    shapes and smoke rows (:mod:`repro.smoke`) assert the ones they name;
    ungated ones, the paper's stricter forms, are only reported
    (EXPERIMENTS.md).
    """

    name: str
    paper: str
    holds: Callable[[Mapping[str, Any]], bool]
    gated: bool = True


def verdict(key: str) -> Callable[[Mapping[str, Any]], bool]:
    """A predicate reading the boolean verdict a driver stored at ``key``."""
    return lambda data: data[key] is True


def by_number(series: Mapping[Any, Any]) -> dict[float, Any]:
    """``series`` keyed by number, whether its keys are numbers or the
    strings a JSON round trip makes of them (``10`` and ``"10"`` both
    read as ``10.0``, which looks up, sorts and compares as ``10``)."""
    return {float(key): value for key, value in series.items()}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described: the registry's unit of record."""

    name: str
    title: str
    run: Callable[[ExperimentContext], ExperimentResult]
    #: Default parameters, overridable per invocation via ``execute``.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The paper shapes this experiment's ``data`` should show.
    shapes: tuple[Shape, ...] = ()

    def execute(self, study: "H3CdnStudy", **overrides: Any) -> ExperimentResult:
        """Run this experiment against ``study``.

        ``overrides`` shadow the spec's default ``params`` key-by-key.
        """
        merged = {**self.params, **overrides}
        return self.run(ExperimentContext(study=study, params=merged))


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], indent: str = "  "
) -> list[str]:
    """Render an ASCII table with right-padded columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        line = indent + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if index == 0:
            lines.append(indent + "  ".join("-" * width for width in widths))
    return lines


def fmt(value: float, digits: int = 1) -> str:
    """Uniform float formatting for tables."""
    return f"{value:.{digits}f}"


def pct(value: float, digits: int = 1) -> str:
    """Render a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"
