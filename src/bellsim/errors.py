"""Semantic exception hierarchy: one class per module tag.

Every public operation raises a :class:`BellsimError` instead of a bare
ValueError/KeyError.  Each module raises only the class of its own tag,
named in the class's ``module`` attribute: ``hv-core`` (spaces.py)
:class:`HvCoreError`, ``response-models`` (models.py)
:class:`ResponseModelError`, ``correlation-engine`` (correlation.py)
:class:`CorrelationError`, ``feasibility`` :class:`FeasibilityError`,
``simplex`` :class:`SimplexError`, ``qm-reference`` (qm.py)
:class:`QmError`, and ``cli-harness`` (scenario.py, report.py, cli.py)
:class:`CliError`.  The tag is the whole error contract: the CLI prints
``[module] message``, and messages carry no tag.  A raise site writes
its message in place; a subclass of a tag class exists only for a
message format that its module uses at more than one site, and a format
shared by several modules is a function returning the message.
"""

from __future__ import annotations


class BellsimError(Exception):
    """Base class for all errors raised by this package.  ``detail`` is the
    message, equal to ``str(exc)``; ``module`` names the module that
    raised the error, and every subclass sets it."""

    module: str

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class HvCoreError(BellsimError):
    module = "hv-core"


class ResponseModelError(BellsimError):
    module = "response-models"


class CorrelationError(BellsimError):
    module = "correlation-engine"


class FeasibilityError(BellsimError):
    module = "feasibility"


class SimplexError(BellsimError):
    module = "simplex"


class QmError(BellsimError):
    module = "qm-reference"


class CliError(BellsimError):
    module = "cli-harness"


def work_limit_detail(required: int, limit: int, unit: str = "units of work") -> str:
    """The message of a refused computation: ``required`` is the work
    count; ``unit`` names what is counted."""
    return f"requires {int(required)} {unit}, limit is {int(limit)}"


class NotNormalized(HvCoreError):
    """Distribution weights do not sum to one within tolerance."""

    def __init__(self, total: float):
        super().__init__(f"weights sum to {float(total)!r}, expected 1 within 1e-12")


class RemoteDependenceForbidden(ResponseModelError):
    """A contextual model marked as space-like separated depends on the
    remote setting."""

    def __init__(self, own: str):
        super().__init__(
            f"tables for own setting {own!r} depend on the remote setting, "
            "which the separated flag forbids")


class IncompatibleModeModel(CorrelationError):
    """The scenario-distribution mode cannot drive the given model kind."""

    def __init__(self, mode: str, kind: str):
        super().__init__(f"distribution mode {mode!r} is incompatible with model kind {kind!r}")


class NonFiniteAngle(QmError):
    """An analyzer angle given to the singlet oracle, or the difference of
    two, is NaN or infinite."""

    def __init__(self, name: str, value: float):
        super().__init__(f"angles must be finite, got {name} = {float(value)!r}")


class ParameterOutOfRange(CliError):
    """A template parameter is outside its documented range."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"parameter {name!r}: {detail}")
