"""The check context: where invariant verdicts accumulate (or raise).

Design mirrors :mod:`repro.obs.trace`:

* :class:`NullCheck` is a *falsy* no-op singleton.  Every hot-path
  hook is guarded with ``if self.check:`` so a run without strict mode
  pays one attribute load + bool test and stays bit-identical.
* :class:`CheckContext` is the live object.  In ``raise`` mode (the
  default, what ``--strict`` wires up) the first violation raises
  :class:`InvariantViolation` and the campaign runner lets it
  propagate — even under fault injection, where ordinary exceptions
  degrade to failed visits.  In ``collect`` mode violations accumulate
  on :attr:`CheckContext.violations` for tests and offline validators.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Tolerance for floating-point timing comparisons (ms).  Entry phases
#: are sums of event-loop floats, so exact equality is too strict but
#: anything beyond a microsecond is a real accounting bug.
EPSILON_MS = 1e-6


class InvariantViolation(AssertionError):
    """A simulation invariant did not hold.

    Subclasses :class:`AssertionError` so test harnesses treat it as a
    failed assertion, but it is raised by the checker at runtime, not
    by ``assert`` statements (which ``python -O`` would strip).
    """

    def __init__(self, violation: "Violation") -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough context to debug it."""

    #: Invariant identifier, ``layer:name`` (e.g. ``stream:byte_conservation``).
    invariant: str
    #: Human-readable description of what went wrong.
    message: str
    #: Simulated time (ms) when the check fired, if known.
    time_ms: float | None = None
    #: Structured context (stream id, host, observed values, ...).
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        at = f" at t={self.time_ms:.3f}ms" if self.time_ms is not None else ""
        extra = f" {self.data}" if self.data else ""
        return f"[{self.invariant}]{at} {self.message}{extra}"


class NullCheck(tuple):
    """Falsy no-op stand-in; strict-off hooks bail on ``if check:``.

    An empty ``tuple``, like :class:`~repro.obs.trace.NullTracer`, so
    the test never calls into Python.
    """

    __slots__ = ()

    def fail(self, invariant, message, time_ms=None, **data) -> None:
        """No-op."""

    def require(self, condition, invariant, message, time_ms=None, **data) -> None:
        """No-op."""


#: The shared null check (stateless, so one instance serves everyone).
NULL_CHECK = NullCheck()


class CheckContext:
    """Accumulates invariant checks for one probe/visit stack.

    Parameters
    ----------
    mode:
        ``"raise"`` (default): the first violation raises
        :class:`InvariantViolation` immediately, freezing the failure at
        its source.  ``"collect"``: violations append to
        :attr:`violations` and the simulation continues — used by tests
        and the differential validator to gather everything at once.
    """

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        self.violations: list[Violation] = []
        #: Total individual checks evaluated (diagnostics / cost table).
        self.checks_run = 0

    def __bool__(self) -> bool:
        return True

    def fail(self, invariant: str, message: str, time_ms: float | None = None,
             **data) -> None:
        """Record an unconditional violation."""
        violation = Violation(invariant, message, time_ms, data)
        self.violations.append(violation)
        if self.mode == "raise":
            raise InvariantViolation(violation)

    def require(self, condition: bool, invariant: str, message: str,
                time_ms: float | None = None, **data) -> None:
        """Check one invariant; a falsy ``condition`` is a violation."""
        self.checks_run += 1
        if not condition:
            self.fail(invariant, message, time_ms, **data)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> list[str]:
        """Violations as printable lines (collect mode)."""
        return [str(v) for v in self.violations]
