"""Commutative edge-weight algebras.

Every edge weight of a network lives in one commutative monoid.
Parallel edges combine with the monoid sum and the monoid zero means
"no edge".  The default algebra is integer addition with exact
arithmetic, so balance checks are bit-exact; min-plus ("tropical-min")
ships as the one alternative and as a template for further extensions.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .errors import UnknownMonoid


class Monoid:
    """A named commutative monoid; subclasses supply the operations.

    A monoid holds no state, so two monoids are equal when they have the
    same type.
    """

    __slots__ = ()
    kind = "abstract"
    # A raw weight of exactly this type is already an element, and the sum
    # of such an element with any other is `+`: parse_network folds those
    # weights without calling coerce and add.  None for no such type.
    plus_type: Optional[type] = None

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def zero(self) -> Any:
        raise NotImplementedError

    def add(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def coerce(self, raw: Any) -> Any:
        """Validate/convert a raw document value into a monoid element."""
        raise NotImplementedError


class IntegerAdd(Monoid):
    """Integers under ordinary addition; identity 0."""

    __slots__ = ()
    kind = "int-add"
    plus_type = int  # not bool, which coerce refuses

    def zero(self) -> int:
        return 0

    def add(self, a: int, b: int) -> int:
        return a + b

    def coerce(self, raw: Any) -> int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise TypeError(f"int-add weight must be an integer, got {raw!r}")
        return raw


class TropicalMin(Monoid):
    """Min-plus weights: parallel edges keep the minimum, identity +inf."""

    __slots__ = ()
    kind = "tropical-min"

    def zero(self) -> float:
        return math.inf

    def add(self, a: float, b: float) -> float:
        return min(a, b)

    def coerce(self, raw: Any) -> float:
        if raw == "inf":
            return math.inf
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TypeError(f"tropical-min weight must be a number, got {raw!r}")
        value = float(raw)
        if math.isnan(value):
            # min() would drop a NaN silently, so it is not a weight
            raise ValueError("tropical-min weight must not be NaN")
        return value


_REGISTRY: dict[str, Monoid] = {
    "int-add": IntegerAdd(),
    "tropical-min": TropicalMin(),
}


def monoid_by_name(kind: str) -> Monoid:
    if not isinstance(kind, str) or kind not in _REGISTRY:
        raise UnknownMonoid(f"unknown monoid kind {kind!r}")
    return _REGISTRY[kind]
