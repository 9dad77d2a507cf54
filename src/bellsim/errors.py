"""Semantic exception hierarchy.

Every public operation raises subclasses of :class:`BellsimError` instead of
bare ValueError/KeyError, and each exception carries the offending payload
(index, sum, label, ...) as attributes so callers and tests can inspect the
exact violation.
"""

from __future__ import annotations


class BellsimError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Hidden-variable spaces and distributions
# ---------------------------------------------------------------------------


class NegativeWeight(BellsimError):
    """A distribution weight is negative."""

    def __init__(self, index: int, value: float):
        self.index = int(index)
        self.value = float(value)
        super().__init__(f"weight at flat index {self.index} is negative: {self.value!r}")


class NotNormalized(BellsimError):
    """Distribution weights do not sum to one within tolerance."""

    def __init__(self, total: float):
        self.total = float(total)
        super().__init__(f"weights sum to {self.total!r}, expected 1 within 1e-12")


class ShapeMismatch(BellsimError):
    """Weight count does not match the product of the domain cardinalities."""

    def __init__(self, expected: int, actual: int):
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(f"expected {self.expected} weights for the domain, got {self.actual}")


class OverlappingDomains(BellsimError):
    """Two factors of a product share a hidden-variable space."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"space {label!r} appears in more than one factor")


class InvalidPart(BellsimError):
    """A factor passed to a product is not a valid distribution."""

    def __init__(self, index: int, cause: BellsimError):
        self.index = int(index)
        self.cause = cause
        super().__init__(f"factor {self.index} is invalid: {cause}")


class EmptyKeepSet(BellsimError):
    """Marginalization must keep at least one space."""

    def __init__(self) -> None:
        super().__init__("the set of spaces to keep is empty")


class UnknownSpace(BellsimError):
    """A referenced space is not part of the distribution's domain."""

    def __init__(self, label: str):
        self.label = label
        super().__init__(f"space {label!r} is not in the domain")


# ---------------------------------------------------------------------------
# Response models
# ---------------------------------------------------------------------------


class KindMismatch(BellsimError):
    """An operation was applied to an incompatible response-model kind."""

    def __init__(self, expected: str, actual: str):
        self.expected = expected
        self.actual = actual
        super().__init__(f"operation expects a {expected} model, got {actual}")


class MissingRemoteSetting(BellsimError):
    """A contextual model was queried without the remote setting."""

    def __init__(self) -> None:
        super().__init__("contextual outcome queries require the remote setting")


class PointDimensionMismatch(BellsimError):
    """A hidden point has the wrong number of components for the model kind."""

    def __init__(self, expected: int, actual: int):
        self.expected = int(expected)
        self.actual = int(actual)
        super().__init__(f"hidden point has {self.actual} components, expected {self.expected}")


class DomainMismatch(BellsimError):
    """Spaces supplied to an operation do not match the model's declared spaces."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class SideMismatch(BellsimError):
    """A setting appears on the wrong side of the experiment."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class RemoteDependenceForbidden(BellsimError):
    """A contextual model marked as space-like separated depends on the
    remote setting."""

    def __init__(self, own: str):
        self.own = own
        super().__init__(
            f"tables for own setting {own!r} depend on the remote setting, "
            "which the separated flag forbids")


# ---------------------------------------------------------------------------
# Correlation engine
# ---------------------------------------------------------------------------


class NotAProbabilityVector(BellsimError):
    """Four joint-outcome probabilities are negative or do not sum to one."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class IncompatibleModeModel(BellsimError):
    """The scenario-distribution mode cannot drive the given model kind."""

    def __init__(self, mode: str, kind: str):
        self.mode = mode
        self.kind = kind
        super().__init__(f"distribution mode {mode!r} is incompatible with model kind {kind!r}")


class OutOfRangeCorrelation(BellsimError):
    """A correlation value lies outside [-1, 1]."""

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__(f"correlation {self.value!r} lies outside [-1, 1]")


class WorkLimitExceeded(BellsimError):
    """The requested computation exceeds the configured work limit."""

    def __init__(self, required: int, limit: int):
        self.required = int(required)
        self.limit = int(limit)
        super().__init__(f"requires {self.required} units of work, limit is {self.limit}")


class ZeroSamples(BellsimError):
    """Monte Carlo estimation needs at least one sample."""

    def __init__(self) -> None:
        super().__init__("sample count must be at least 1")


# ---------------------------------------------------------------------------
# Joint-distribution feasibility
# ---------------------------------------------------------------------------


class InvalidFamily(BellsimError):
    """A setting-pair marginal family violates its structural invariants."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class NumericalFailure(BellsimError):
    """A numeric result failed its own check; names the module that
    produced it, so no unchecked number reaches a report."""

    def __init__(self, module: str, detail: str):
        self.module = module
        self.detail = detail
        super().__init__(f"[{module}] {detail}")


class TableauGrowth(NumericalFailure):
    """Simplex tableau entries grew past the limit relative to the start
    tableau, so the pivots that follow can no longer be trusted."""

    def __init__(self, growth: float, limit: float):
        self.growth = float(growth)
        self.limit = float(limit)
        super().__init__(
            "simplex",
            f"tableau entries grew by a factor {self.growth!r}, limit is {self.limit!r}")


class NonViolatingAngles(BellsimError):
    """The singlet CHSH value at the given angles does not exceed the bound."""

    def __init__(self, s: float):
        self.s = float(s)
        super().__init__(
            f"singlet CHSH value {self.s!r} does not violate the bound; "
            "the witness construction needs |S| > 2"
        )


# ---------------------------------------------------------------------------
# Quantum reference
# ---------------------------------------------------------------------------


class NonFiniteAngle(BellsimError):
    """An analyzer angle given to the singlet oracle is NaN or infinite;
    names the module."""

    module = "qm-reference"

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = float(value)
        super().__init__(f"[{self.module}] angles must be finite, "
                         f"got {name} = {self.value!r}")


class InvalidStep(BellsimError):
    """Grid step or refinement round count for the violation search is out
    of range."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Scenario files and CLI
# ---------------------------------------------------------------------------


class ParseError(BellsimError):
    """A scenario file could not be parsed."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class ValidationError(BellsimError):
    """A parsed scenario failed a module validation; names the module."""

    def __init__(self, module: str, detail: str):
        self.module = module
        self.detail = detail
        super().__init__(f"[{module}] {detail}")


class UnknownTemplate(BellsimError):
    """Requested scenario template does not exist."""

    def __init__(self, name: str, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(f"unknown template {name!r}; known templates: {', '.join(known)}")


class ParameterOutOfRange(BellsimError):
    """A template parameter is outside its documented range."""

    def __init__(self, name: str, detail: str):
        self.name = name
        self.detail = detail
        super().__init__(f"parameter {name!r}: {detail}")
