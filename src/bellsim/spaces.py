"""Finite hidden-variable spaces and probability distributions over them.

Conventions
-----------
A hidden-variable space is a finite, ordered list of distinct value labels.
A distribution assigns one nonnegative weight to every point of the product
of its domain spaces; weights are stored row-major over the ordered domain
list (the first domain space varies slowest).  Row-major order is part of
the external file-format contract, so it must never change.

All values are immutable after construction and all operations are pure,
so everything here is safe to share across parallel workers.

The canonical experiment uses five spaces: one for the particle source
(``lambda``) and one per analyzer setting (``lambda_a``, ``lambda_a_prime``,
``lambda_b``, ``lambda_b_prime``).  This module is the single definition
of that layout: ``SETTING_NAMES`` orders the settings, ``SETTING_AXIS``
gives the axis of each setting's apparatus space in a five-space array
(also its ``FiveSpaces`` index), and ``on_five_axes`` views a
(lambda, lambda_p[, lambda_q]) array inside the five-axis grid.  Every
other module reads these names instead of its own copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import HvCoreError, NotNormalized

#: Normalization tolerance for exact-arithmetic paths.
NORMALIZATION_TOL = 1e-12

#: Analyzer setting names, by side, in canonical order.
SIDE_A_NAMES = ("a", "a_prime")
SIDE_B_NAMES = ("b", "b_prime")

#: All four setting names in canonical order, side A first.
SETTING_NAMES = SIDE_A_NAMES + SIDE_B_NAMES

#: Axis of each setting's apparatus space in the row-major five-space
#: order (lambda, lambda_a, lambda_a_prime, lambda_b, lambda_b_prime).
SETTING_AXIS = {name: axis for axis, name in enumerate(SETTING_NAMES, start=1)}

#: The four setting pairs in the order they enter the CHSH combination
#: S = E(a,b) + E(a,b') + E(a',b) - E(a',b').
SETTING_PAIRS = (
    ("a", "b"),
    ("a", "b_prime"),
    ("a_prime", "b"),
    ("a_prime", "b_prime"),
)

#: The sign of each pair's correlation in S, in ``SETTING_PAIRS`` order.
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

#: Conventional space label for the apparatus variable of each setting.
APPARATUS_LABELS = {name: "lambda_" + name for name in SETTING_NAMES}


def on_five_axes(arr: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """View an array over (lambda, the spaces of ``names``) inside the
    five-axis grid, with length-1 axes for the other settings.  ``names``
    must be in ``SETTING_NAMES`` order, as the array's axes are."""
    axes = {0} | {SETTING_AXIS[name] for name in names}
    return arr[tuple(slice(None) if k in axes else None for k in range(5))]


def pair_key(p: str, q: str) -> tuple[str, str]:
    """Normalize a setting pair to (side-A name, side-B name)."""
    if p in SIDE_A_NAMES and q in SIDE_B_NAMES:
        return (p, q)
    if p in SIDE_B_NAMES and q in SIDE_A_NAMES:
        return (q, p)
    raise HvCoreError(f"({p!r}, {q!r}) is not a valid setting pair")


@dataclass(frozen=True)
class HiddenSpace:
    """A finite labeled set of hidden-variable values."""

    label: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(str(v) for v in self.values))
        if len(self.values) < 1:
            raise HvCoreError(f"space {self.label!r} must have at least one value")
        if len(set(self.values)) != len(self.values):
            raise HvCoreError(f"space {self.label!r} has duplicate value labels")

    @property
    def cardinality(self) -> int:
        return len(self.values)

    @classmethod
    def binary(cls, label: str) -> "HiddenSpace":
        """Two-point space with values '+1' and '-1' (index 0 maps to +1)."""
        return cls(label, ("+1", "-1"))

    @classmethod
    def of_size(cls, label: str, n: int) -> "HiddenSpace":
        return cls(label, tuple(str(i) for i in range(n)))


class FiveSpaces(NamedTuple):
    """The source space plus the four per-setting apparatus spaces."""

    lam: HiddenSpace
    lam_a: HiddenSpace
    lam_a_prime: HiddenSpace
    lam_b: HiddenSpace
    lam_b_prime: HiddenSpace

    def for_setting(self, name: str) -> HiddenSpace:
        return self[SETTING_AXIS[name]]

    @classmethod
    def binary_apparatus(cls, lam: HiddenSpace) -> "FiveSpaces":
        return cls(lam, *(HiddenSpace.binary(APPARATUS_LABELS[s])
                          for s in SETTING_NAMES))


@dataclass(frozen=True)
class Distribution:
    """Nonnegative weights over the product of an ordered list of spaces.

    ``weights`` is stored as a read-only float64 array.  The constructor
    accepts flat (row-major) or already-shaped arrays and does not validate
    beyond dtype coercion; call :func:`validate_distribution` to enforce the
    probability invariants.
    """

    domain: tuple[HiddenSpace, ...]
    weights: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        w = np.array(self.weights, dtype=np.float64)
        if w.size == self.size:
            w = w.reshape(self.shape)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.domain)

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.domain)

    @property
    def flat(self) -> np.ndarray:
        """Row-major 1-D view of the weights."""
        return self.weights.reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:  # frozen dataclass with array payload
        return hash((self.domain, self.weights.tobytes()))

    @classmethod
    def uniform(cls, domain: Sequence[HiddenSpace]) -> "Distribution":
        domain = tuple(domain)
        n = math.prod(s.cardinality for s in domain)
        return cls(domain, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, domain: Sequence[HiddenSpace], flat_index: int) -> "Distribution":
        domain = tuple(domain)
        n = math.prod(s.cardinality for s in domain)
        w = np.zeros(n)
        w[flat_index] = 1.0
        return cls(domain, w)


def validate_distribution(d: Distribution) -> None:
    """Enforce the probability invariants; raises on the first violation.

    Checks, in order: weight count matches the domain, all weights
    nonnegative (reported with the row-major flat index), and total weight
    1 within NORMALIZATION_TOL (NotNormalized).  Raises HvCoreError only.
    """
    expected = d.size
    if d.weights.size != expected:
        raise HvCoreError(f"expected {expected} weights for the domain, "
                          f"got {int(d.weights.size)}")
    flat = d.flat
    negative = np.flatnonzero(flat < 0.0)
    if negative.size:
        i = int(negative[0])
        raise HvCoreError(f"weight at flat index {i} is negative: {float(flat[i])!r}")
    total = float(np.sum(flat))
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # also refuses NaN
        raise NotNormalized(total)


def renormalize(d: Distribution) -> Distribution:
    """Explicitly rescale weights to total 1; never applied silently."""
    total = float(np.sum(d.flat))
    if total <= 0.0:
        raise NotNormalized(total)
    return Distribution(d.domain, d.weights / total)


def product_distribution(parts: Sequence[Distribution]) -> Distribution:
    """Product distribution on the concatenation of the parts' domains.

    The weight at a composite point is the product of the parts' weights at
    the projected points.  Parts must be valid and must not share spaces.
    """
    parts = list(parts)
    if not parts:
        raise HvCoreError("factor 0 is invalid: the set of spaces to keep is empty")
    for i, part in enumerate(parts):
        try:
            validate_distribution(part)
        except HvCoreError as exc:
            raise HvCoreError(f"factor {i} is invalid: {exc}") from exc
    seen: set[str] = set()
    for part in parts:
        for s in part.domain:
            if s.label in seen:
                raise HvCoreError(f"space {s.label!r} appears in more than one factor")
            seen.add(s.label)
    domain = tuple(s for part in parts for s in part.domain)
    weights = parts[0].weights
    for part in parts[1:]:
        weights = np.multiply.outer(weights, part.weights)
    return Distribution(domain, weights)


def marginalize(d: Distribution, keep: Iterable[HiddenSpace | str]) -> Distribution:
    """Sum out every domain space not named in ``keep``.

    The kept spaces retain their original relative order regardless of the
    order in which they are listed.  ``marginalize(d, d.domain)`` returns an
    equal distribution.
    """
    validate_distribution(d)
    keep_labels: set[str] = set()
    for item in keep:
        label = item.label if isinstance(item, HiddenSpace) else str(item)
        if label not in d.labels:
            raise HvCoreError(f"space {label!r} is not in the domain")
        keep_labels.add(label)
    if not keep_labels:
        raise HvCoreError("the set of spaces to keep is empty")
    drop_axes = tuple(i for i, s in enumerate(d.domain) if s.label not in keep_labels)
    new_domain = tuple(s for s in d.domain if s.label in keep_labels)
    if not drop_axes:
        return Distribution(new_domain, d.weights)
    return Distribution(new_domain, d.weights.sum(axis=drop_axes))
