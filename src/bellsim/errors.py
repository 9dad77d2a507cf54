"""Semantic exception hierarchy.

Every public operation raises subclasses of :class:`BellsimError` instead of
bare ValueError/KeyError, and each exception carries the offending payload
(index, sum, label, ...) as attributes so callers and tests can inspect the
exact violation.

Every class names, in its ``module`` attribute, the bellsim module whose
code raises it: ``hv-core`` (spaces.py), ``response-models`` (models.py),
``correlation-engine`` (correlation.py), ``feasibility``, ``simplex``,
``qm-reference`` (qm.py) or ``cli-harness`` (scenario.py, report.py,
cli.py).  Each section below that defines classes of its own has a
private base carrying its tag.  A class raised from a second module gets a
two-line subclass in that module's section that overrides ``module``, so
this file is the one place that knows every tag and ``except
DomainMismatch`` still catches them all.  Messages carry no tag; the CLI
prints ``[module] message``.
"""

from __future__ import annotations


class BellsimError(Exception):
    """Base class for all errors raised by this package.  ``detail`` is the
    message; ``module`` names the module that raised the error, and every
    subclass sets it."""

    module: str

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Hidden-variable spaces and distributions (spaces.py)
# ---------------------------------------------------------------------------


class _HvCoreError(BellsimError):
    module = "hv-core"


class NegativeWeight(_HvCoreError):
    """A distribution weight is negative."""

    def __init__(self, index: int, value: float):
        self.index = int(index)
        self.value = float(value)
        super().__init__(f"weight at flat index {self.index} is negative: {self.value!r}")


class NotNormalized(_HvCoreError):
    """Distribution weights do not sum to one within tolerance."""

    def __init__(self, total: float):
        self.total = float(total)
        super().__init__(f"weights sum to {self.total!r}, expected 1 within 1e-12")


class ShapeMismatch(_HvCoreError):
    """Weight count does not match the product of the domain cardinalities."""

    def __init__(self, expected: int, actual: int):
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(f"expected {self.expected} weights for the domain, got {self.actual}")


class OverlappingDomains(_HvCoreError):
    """Two factors of a product share a hidden-variable space."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"space {label!r} appears in more than one factor")


class InvalidPart(_HvCoreError):
    """A factor passed to a product is not a valid distribution."""

    def __init__(self, index: int, cause: BellsimError):
        self.index = int(index)
        self.cause = cause
        super().__init__(f"factor {self.index} is invalid: {cause}")


class EmptyKeepSet(_HvCoreError):
    """Marginalization must keep at least one space."""

    def __init__(self) -> None:
        super().__init__("the set of spaces to keep is empty")


class UnknownSpace(_HvCoreError):
    """A referenced space is not part of the distribution's domain."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"space {label!r} is not in the domain")


class InvalidFamily(_HvCoreError):
    """A space or a setting pair violates its structural invariants."""


# ---------------------------------------------------------------------------
# Response models (models.py)
# ---------------------------------------------------------------------------


class _ResponseModelsError(BellsimError):
    module = "response-models"


class KindMismatch(_ResponseModelsError):
    """An operation was applied to an incompatible response-model kind."""

    def __init__(self, expected: str, actual: str):
        self.expected = expected
        self.actual = actual
        super().__init__(f"operation expects a {expected} model, got {actual}")


class DomainMismatch(_ResponseModelsError):
    """Spaces supplied to an operation do not match the model's declared spaces."""


class SideMismatch(_ResponseModelsError):
    """A setting appears on the wrong side of the experiment."""


class RemoteDependenceForbidden(_ResponseModelsError):
    """A contextual model marked as space-like separated depends on the
    remote setting."""

    def __init__(self, own: str):
        self.own = own
        super().__init__(
            f"tables for own setting {own!r} depend on the remote setting, "
            "which the separated flag forbids")


# ---------------------------------------------------------------------------
# Correlation engine (correlation.py)
# ---------------------------------------------------------------------------


class _CorrelationError(BellsimError):
    module = "correlation-engine"


class NotAProbabilityVector(_CorrelationError):
    """Four joint-outcome probabilities are negative or do not sum to one."""


class IncompatibleModeModel(_CorrelationError):
    """The scenario-distribution mode cannot drive the given model kind."""

    def __init__(self, mode: str, kind: str):
        self.mode = mode
        self.kind = kind
        super().__init__(f"distribution mode {mode!r} is incompatible with model kind {kind!r}")


class OutOfRangeCorrelation(_CorrelationError):
    """A correlation value lies outside [-1, 1]."""

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__(f"correlation {self.value!r} lies outside [-1, 1]")


class WorkLimitExceeded(_CorrelationError):
    """The requested computation exceeds the configured work limit.
    ``required`` is the work count, or for a count too long to print, its
    power-of-two expression (``"2**14288"``)."""

    def __init__(self, required: int | str, limit: int):
        self.required = required if isinstance(required, str) else int(required)
        self.limit = int(limit)
        super().__init__(f"requires {self.required} units of work, limit is {self.limit}")


class ZeroSamples(_CorrelationError):
    """Monte Carlo estimation needs at least one sample."""

    def __init__(self) -> None:
        super().__init__("sample count must be at least 1")


class NegativeSeed(_CorrelationError):
    """A Monte Carlo seed is negative; SeedSequence entropy must not be."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(f"seed must be nonnegative, got {self.seed}")


class CorrelationDomainMismatch(DomainMismatch):
    module = "correlation-engine"


class CorrelationSideMismatch(SideMismatch):
    module = "correlation-engine"


# ---------------------------------------------------------------------------
# Joint-distribution feasibility (feasibility.py)
# ---------------------------------------------------------------------------


class _FeasibilityError(BellsimError):
    module = "feasibility"


class NumericalFailure(_FeasibilityError):
    """A numeric result failed its own check, so no unchecked number
    reaches a report."""


class NonViolatingAngles(_FeasibilityError):
    """The singlet CHSH value at the given angles does not exceed the bound."""

    def __init__(self, s: float):
        self.s = float(s)
        super().__init__(
            f"singlet CHSH value {self.s!r} does not violate the bound; "
            "the witness construction needs |S| > 2"
        )


class FeasibilityWorkLimitExceeded(WorkLimitExceeded):
    module = "feasibility"


class FeasibilityDomainMismatch(DomainMismatch):
    module = "feasibility"


# ---------------------------------------------------------------------------
# Simplex (simplex.py)
# ---------------------------------------------------------------------------


class SimplexNumericalFailure(NumericalFailure):
    module = "simplex"


class SimplexWorkLimitExceeded(WorkLimitExceeded):
    module = "simplex"


class SimplexDomainMismatch(DomainMismatch):
    module = "simplex"


class TableauGrowth(SimplexNumericalFailure):
    """Simplex tableau entries grew past the limit relative to the start
    tableau, so the pivots that follow can no longer be trusted."""

    def __init__(self, growth: float, limit: float):
        self.growth = float(growth)
        self.limit = float(limit)
        super().__init__(
            f"tableau entries grew by a factor {self.growth!r}, limit is {self.limit!r}")


# ---------------------------------------------------------------------------
# Quantum reference (qm.py)
# ---------------------------------------------------------------------------


class _QmError(BellsimError):
    module = "qm-reference"


class NonFiniteAngle(_QmError):
    """An analyzer angle given to the singlet oracle, or the difference of
    two, is NaN or infinite."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = float(value)
        super().__init__(f"angles must be finite, got {name} = {self.value!r}")


class InvalidStep(_QmError):
    """Grid step or refinement round count for the violation search is out
    of range."""


class QmSideMismatch(SideMismatch):
    module = "qm-reference"


# ---------------------------------------------------------------------------
# Scenario files, reports and CLI (scenario.py, report.py, cli.py)
# ---------------------------------------------------------------------------


class _CliError(BellsimError):
    module = "cli-harness"


class ParseError(_CliError):
    """A scenario file could not be parsed."""


class ValidationError(_CliError):
    """A parsed scenario's parts do not fit together (model kind, mode and
    requested analyses)."""


class OutputError(_CliError):
    """A report or generated scenario could not be written."""


class UnknownTemplate(_CliError):
    """Requested scenario template does not exist."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(f"unknown template {name!r}; known templates: {', '.join(known)}")


class ParameterOutOfRange(_CliError):
    """A template parameter is outside its documented range."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"parameter {name!r}: {detail}")
        self.name = name
        self.detail = detail
