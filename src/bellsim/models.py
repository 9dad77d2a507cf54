"""Response-model families and the reductions between them.

Four families of outcome rules, all with outcomes in {+1, -1}:

DeterministicSource     f(setting, lambda)
StochasticSource        p(+1 | setting, lambda)
Contextual              f(own setting, remote setting, lambda)
ApparatusDeterministic  f(setting, lambda, lambda_setting)

Tables are explicit finite arrays indexed by value position in the
declared spaces; closed-form rules are entered by tabulating them.

Settings carry a planar analyzer angle; the singlet correlation depends
only on the relative angle, so full 3-D unit vectors are not needed.

All models are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import RemoteDependenceForbidden, ResponseModelError
from .spaces import (
    SETTING_NAMES,
    SIDE_A_NAMES,
    SIDE_B_NAMES,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    on_five_axes,
)

#: The settings on the far side of each setting, in canonical order.
_REMOTES = {name: SIDE_B_NAMES if name in SIDE_A_NAMES else SIDE_A_NAMES
            for name in SETTING_NAMES}


@dataclass(frozen=True)
class Setting:
    """One analyzer configuration: canonical name and planar angle.  The
    name fixes the side: a and a_prime are side A, b and b_prime side B."""

    name: str
    angle: float

    def __post_init__(self) -> None:
        if self.name not in SETTING_NAMES:
            raise ResponseModelError(f"unknown setting name {self.name!r}; "
                                     f"expected one of {SETTING_NAMES}")

    @property
    def is_side_a(self) -> bool:
        return self.name in SIDE_A_NAMES


def standard_settings(theta_a: float, theta_a_prime: float, theta_b: float,
                      theta_b_prime: float) -> tuple[Setting, Setting, Setting, Setting]:
    """The four canonical settings (a, a_prime, b, b_prime) at given angles."""
    angles = (theta_a, theta_a_prime, theta_b, theta_b_prime)
    return tuple(Setting(name, angle) for name, angle in zip(SETTING_NAMES, angles))


def _check_signs(arr: np.ndarray, what: str) -> None:
    if not np.all(np.abs(arr) == 1.0):
        raise ResponseModelError(f"{what} must contain only +1/-1 entries")


def _check_probabilities(arr: np.ndarray, what: str) -> None:
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also refuses NaN
        raise ResponseModelError(f"{what} must lie in [0, 1]")


def _frozen_tables(tables: Mapping, shapes: Mapping[str | tuple[str, str], tuple[int, ...]],
                   missing: str, check: Callable[[np.ndarray, str], None]) -> dict:
    """Read-only float64 copies of ``tables``, one per key of ``shapes``
    in its order.  Each key is refused if absent (``missing`` then names
    it), and its table if it is not of the key's shape or fails
    ``check``."""
    frozen = {}
    for key, shape in shapes.items():
        if key not in tables:
            raise ResponseModelError(f"{missing} {key!r}")
        what = f"table for {key!r}"
        arr = np.array(tables[key], dtype=np.float64)
        if arr.shape != shape:
            raise ResponseModelError(f"{what} has shape {arr.shape}, expected {shape}")
        arr.setflags(write=False)
        check(arr, what)
        frozen[key] = arr
    return frozen


def _tables_equal(left, right) -> bool:
    if type(left) is not type(right):
        return False
    spaces_l = getattr(left, "spaces", None) or left.lam
    spaces_r = getattr(right, "spaces", None) or right.lam
    if spaces_l != spaces_r or set(left.tables) != set(right.tables):
        return False
    return all(np.array_equal(left.tables[k], right.tables[k]) for k in left.tables)


@dataclass(frozen=True)
class DeterministicSource:
    """f(setting, lambda) with outcomes in {+1, -1} (the local case)."""

    lam: HiddenSpace
    tables: Mapping[str, np.ndarray] = field(compare=False)

    kind = "DeterministicSource"

    def __post_init__(self) -> None:
        shapes = dict.fromkeys(SETTING_NAMES, (self.lam.cardinality,))
        object.__setattr__(self, "tables", _frozen_tables(
            self.tables, shapes, "missing response table for setting", _check_signs))

    def __eq__(self, other: object) -> bool:
        return _tables_equal(self, other)


@dataclass(frozen=True)
class StochasticSource:
    """p(+1 | setting, lambda): local outcome probabilities in [0, 1]."""

    lam: HiddenSpace
    tables: Mapping[str, np.ndarray] = field(compare=False)

    kind = "StochasticSource"

    def __post_init__(self) -> None:
        shapes = dict.fromkeys(SETTING_NAMES, (self.lam.cardinality,))
        object.__setattr__(self, "tables", _frozen_tables(
            self.tables, shapes, "missing probability table for setting",
            _check_probabilities))

    def __eq__(self, other: object) -> bool:
        return _tables_equal(self, other)


@dataclass(frozen=True)
class Contextual:
    """f(own setting, remote setting, lambda): remote-setting dependence.

    ``separated`` models space-like separation of the measurement events:
    when True, construction rejects any table that actually depends on the
    remote setting, enforcing the reduction to the local case.  No
    spacetime geometry is computed.
    """

    lam: HiddenSpace
    tables: Mapping[tuple[str, str], np.ndarray] = field(compare=False)
    separated: bool = False

    kind = "Contextual"

    def __post_init__(self) -> None:
        shapes = {(own, remote): (self.lam.cardinality,)
                  for own, remotes in _REMOTES.items() for remote in remotes}
        frozen = _frozen_tables(self.tables, shapes, "missing table for (own, remote) =",
                                _check_signs)
        if self.separated:
            for own, (first, second) in _REMOTES.items():
                if not np.array_equal(frozen[(own, first)], frozen[(own, second)]):
                    raise RemoteDependenceForbidden(own)
        object.__setattr__(self, "tables", frozen)

    def __eq__(self, other: object) -> bool:
        return _tables_equal(self, other) and self.separated == other.separated

    def response_vector(self, setting: Setting, remote: Setting) -> np.ndarray:
        if setting.is_side_a == remote.is_side_a:
            raise ResponseModelError(
                f"remote setting {remote.name!r} is on the same side as {setting.name!r}")
        return self.tables[(setting.name, remote.name)]

    @classmethod
    def from_deterministic(cls, model: "DeterministicSource",
                           separated: bool = True) -> "Contextual":
        """Embed a local model as a (remote-independent) contextual one."""
        tables = {(own, remote): model.tables[own]
                  for own, remotes in _REMOTES.items() for remote in remotes}
        return cls(model.lam, tables, separated=separated)

    def to_deterministic(self) -> "DeterministicSource":
        """Strip the remote index; requires remote-independent tables."""
        tables = {}
        for own, (first, second) in _REMOTES.items():
            if not np.array_equal(self.tables[(own, first)], self.tables[(own, second)]):
                raise RemoteDependenceForbidden(own)
            tables[own] = self.tables[(own, first)]
        return DeterministicSource(self.lam, tables)


@dataclass(frozen=True)
class ApparatusDeterministic:
    """f(setting, lambda, lambda_setting): deterministic given the source
    variable and the apparatus variable of the queried analyzer."""

    spaces: FiveSpaces
    tables: Mapping[str, np.ndarray] = field(compare=False)

    kind = "ApparatusDeterministic"

    def __post_init__(self) -> None:
        shapes = {name: (self.spaces.lam.cardinality,
                         self.spaces.for_setting(name).cardinality)
                  for name in SETTING_NAMES}
        object.__setattr__(self, "tables", _frozen_tables(
            self.tables, shapes, "missing response table for setting", _check_signs))

    def __eq__(self, other: object) -> bool:
        return _tables_equal(self, other)


ResponseModel = DeterministicSource | StochasticSource | Contextual | ApparatusDeterministic


def composite_space(spaces: FiveSpaces) -> HiddenSpace:
    """The product space of all five factors, in row-major point order."""
    values = []
    for idx in np.ndindex(*(s.cardinality for s in spaces)):
        values.append("|".join(spaces[k].values[i] for k, i in enumerate(idx)))
    return HiddenSpace("lambda_tilde", tuple(values))


def flatten_joint(joint: Distribution) -> Distribution:
    """Re-index a five-space joint as a distribution over the composite space.

    The composite space enumerates points in row-major order over the five
    factors, so the weights transfer unchanged.
    """
    if len(joint.domain) != 5:
        raise ResponseModelError(
            f"composite joint needs a five-space domain, got {joint.labels}")
    tilde = composite_space(FiveSpaces(*joint.domain))
    return Distribution((tilde,), joint.flat)


def lift_to_composite(model: ApparatusDeterministic) -> DeterministicSource:
    """Re-express an apparatus model as a source-only model on the composite
    variable: the response at a composite point reads off the source and
    own-apparatus components and ignores everything else."""
    shape = tuple(s.cardinality for s in model.spaces)
    tables = {name: np.broadcast_to(on_five_axes(model.tables[name], (name,)),
                                    shape).reshape(-1)
              for name in SETTING_NAMES}
    return DeterministicSource(composite_space(model.spaces), tables)


def _check_apparatus_dists(model: ApparatusDeterministic,
                           apparatus_dists: Mapping[str, Distribution]) -> None:
    """Refuse a model of another kind, and a missing apparatus
    distribution or one off its setting's space."""
    if not isinstance(model, ApparatusDeterministic):
        kind = getattr(model, "kind", type(model).__name__)
        raise ResponseModelError(
            f"operation expects a ApparatusDeterministic model, got {kind}")
    for name in SETTING_NAMES:
        if name not in apparatus_dists:
            raise ResponseModelError(f"missing apparatus distribution for setting {name!r}")
        dist = apparatus_dists[name]
        expected = model.spaces.for_setting(name)
        if dist.domain != (expected,):
            raise ResponseModelError(
                f"apparatus distribution for {name!r} has domain {dist.labels}, "
                f"expected ({expected.label!r},)")


def effective_responses(model: ApparatusDeterministic,
                        apparatus_dists: Mapping[str, Distribution]
                        ) -> dict[str, np.ndarray]:
    """Outcome expectation of each setting at every lambda, averaged over
    the apparatus variable: sum over lambda_s of
    f(setting, lambda, lambda_s) * rho_setting(lambda_s).

    Each product is exact (f = +1 or -1), and each lambda's sum runs left
    to right over lambda_s from 0.0, so no summation kernel changes the
    bits."""
    _check_apparatus_dists(model, apparatus_dists)
    out = {}
    for name in SETTING_NAMES:
        signed = model.tables[name] * apparatus_dists[name].flat
        acc = np.zeros(signed.shape[0])
        for column in signed.T:
            acc += column
        out[name] = acc
    return out


def stochastic_from_apparatus(model: ApparatusDeterministic,
                              apparatus_dists: Mapping[str, Distribution]
                              ) -> StochasticSource:
    """Collapse apparatus randomness into outcome probabilities:
    p(+1 | setting, lambda) = total apparatus weight where f = +1."""
    _check_apparatus_dists(model, apparatus_dists)
    tables = {}
    for name in SETTING_NAMES:
        # fsum rounds the exact sum once, so no summation order (and no
        # BLAS kernel) can change the bits
        plus_weights = np.where(model.tables[name] > 0.0,
                                apparatus_dists[name].flat, 0.0)
        p_plus = np.array([math.fsum(row) for row in plus_weights.tolist()])
        # guard against 1 + epsilon from weights normalized within tolerance
        tables[name] = np.clip(p_plus, 0.0, 1.0)
    return StochasticSource(model.spaces.lam, tables)
