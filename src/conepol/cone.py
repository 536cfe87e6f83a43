"""Coordinates on Boolean intervals and the strictly submodular cone.

For K < L, the ambient space assigns a rational to every strict
intermediate subset K < S < L, with the endpoint convention that K and L
carry the value 0.  Modular vectors span the lineality space of the open
cone of strictly submodular vectors; `projection_weights` gives the
linear projection onto a nested interval.
"""

import re
from fractions import Fraction

from . import subsets
from .errors import (
    InvalidParams,
    MalformedInput,
    MissingCoordinate,
    SizeLimitExceeded,
)

MAX_INTERVAL_SPAN = 16


class IntervalCoords:
    """Index of all strict intermediate subsets of a Boolean interval."""

    def __init__(self, K, L):
        if not subsets.is_proper_subset(K, L):
            raise InvalidParams("interval needs K strictly inside L")
        span = (L & ~K).bit_count()
        if span > MAX_INTERVAL_SPAN:
            raise SizeLimitExceeded(
                f"interval span {span} exceeds the cap of {MAX_INTERVAL_SPAN}"
            )
        self.K = K
        self.L = L
        self.span = span
        self.subsets = tuple(subsets.strict_between(K, L))
        self.index = {s: i for i, s in enumerate(self.subsets)}

    @property
    def m(self):
        return len(self.subsets)

    def __eq__(self, other):
        return (
            isinstance(other, IntervalCoords)
            and self.K == other.K
            and self.L == other.L
        )

    def __hash__(self):
        return hash((self.K, self.L))

    def __repr__(self):
        return "IntervalCoords(K={{{}}}, L={{{}}})".format(
            subsets.format_elements(self.K), subsets.format_elements(self.L)
        )


class IntervalVector:
    """Rational assignment on the strict intermediates, endpoints pinned to 0."""

    __slots__ = ("coords", "values")

    def __init__(self, coords, values):
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        if len(vals) != coords.m:
            raise InvalidParams("value count does not match the interval index")
        self.coords = coords
        self.values = vals

    @classmethod
    def zero(cls, coords):
        return cls(coords, [Fraction(0)] * coords.m)

    @classmethod
    def from_mapping(cls, coords, mapping):
        vals = [Fraction(0)] * coords.m
        for S, v in mapping.items():
            if S == coords.K or S == coords.L:
                if Fraction(v) != 0:
                    raise InvalidParams("endpoint coordinates are fixed at 0")
                continue
            if S not in coords.index:
                raise InvalidParams(
                    "subset {{{}}} is not strictly between the endpoints".format(
                        subsets.format_elements(S)
                    )
                )
            vals[coords.index[S]] = Fraction(v)
        return cls(coords, vals)

    def __getitem__(self, S):
        if S == self.coords.K or S == self.coords.L:
            return Fraction(0)
        try:
            return self.values[self.coords.index[S]]
        except KeyError:
            raise MissingCoordinate(
                "subset {{{}}} outside interval".format(subsets.format_elements(S))
            ) from None

    def __add__(self, other):
        self._check_same(other)
        return IntervalVector(
            self.coords, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        self._check_same(other)
        return IntervalVector(
            self.coords, [a - b for a, b in zip(self.values, other.values)]
        )

    def _check_same(self, other):
        if self.coords != other.coords:
            raise InvalidParams("vectors live on different intervals")

    def __eq__(self, other):
        return (
            isinstance(other, IntervalVector)
            and self.coords == other.coords
            and self.values == other.values
        )

    def to_json_obj(self):
        return {
            "K": subsets.elements(self.coords.K),
            "L": subsets.elements(self.coords.L),
            "values": {
                subsets.format_elements(s): str(v)
                for s, v in zip(self.coords.subsets, self.values)
                if v != 0
            },
        }

    @classmethod
    def from_json_obj(cls, obj, coords=None):
        if not isinstance(obj, dict):
            raise MalformedInput("an interval vector must be a JSON object")
        K = subsets.from_json_elements(obj.get("K"), "vector K")
        L = subsets.from_json_elements(obj.get("L"), "vector L")
        values = obj.get("values", {})
        if not isinstance(values, dict):
            raise MalformedInput("vector values must be a JSON object")
        if coords is None:
            coords = IntervalCoords(K, L)
        elif coords.K != K or coords.L != L:
            raise InvalidParams("vector interval does not match the requested one")
        mapping = {}
        for key, val in values.items():
            S = subsets.parse_elements(key)
            if S in mapping:
                raise MalformedInput(
                    f"vector values name {{{subsets.format_elements(S)}}} twice"
                )
            mapping[S] = _json_rational(val)
        return cls.from_mapping(coords, mapping)

    def __repr__(self):
        return f"IntervalVector({self.coords!r}, {list(self.values)})"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_rational(val):
    """A rational written as an integer or a "p/q" string: an optional minus
    sign, decimal digits and an optional slash and digits, nothing else.
    Exponents are refused before `Fraction` could expand them."""
    if subsets.is_json_int(val):
        return Fraction(val)
    if isinstance(val, str) and _RATIONAL.fullmatch(val):
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"vector value {val!r} is not a rational")


def diamonds(coords):
    """The pairs (S+i, S+j) for every K <= S and i < j in L \\ S.

    Endpoints are pinned at 0, and the margin of every incomparable pair
    telescopes into a sum of diamond margins, so the diamonds alone decide
    strict, weak and exact submodularity.
    """
    K, L = coords.K, coords.L
    for S in (K, *coords.subsets):
        rest = subsets.elements(L & ~S)
        for a, i in enumerate(rest):
            for j in rest[a + 1:]:
                yield S | 1 << i, S | 1 << j


def submodularity_margin(v, S, T):
    return v[S] + v[T] - v[S & T] - v[S | T]


def _diamond_margins(v):
    return (submodularity_margin(v, S, T) for S, T in diamonds(v.coords))


def is_strictly_submodular(v):
    """Strict submodular inequality on every diamond."""
    return all(m > 0 for m in _diamond_margins(v))


def is_modular(v):
    """Submodular inequality holds with equality on every diamond."""
    return all(m == 0 for m in _diamond_margins(v))


def is_weakly_submodular(v):
    return all(m >= 0 for m in _diamond_margins(v))


def submodularity_witness(v):
    """The first diamond (S, T, margin) whose margin is not positive, or None."""
    for S, T in diamonds(v.coords):
        margin = submodularity_margin(v, S, T)
        if margin <= 0:
            return S, T, margin
    return None


def canonical_interior_point(coords):
    """v_S = |S \\ K| * |L \\ S|; every diamond margin is exactly 2."""
    K, L = coords.K, coords.L
    return IntervalVector(
        coords,
        [Fraction((S & ~K).bit_count() * (L & ~S).bit_count()) for S in coords.subsets],
    )


def projection_weights(S, F, G):
    """Weights (|G \\ S| / |G \\ F|, |S \\ F| / |G \\ F|) of t_F and t_G in
    coordinate S of the linear projection onto the sub-interval (F, G):
    t_S - t_F * w_F - t_G * w_G."""
    span = (G & ~F).bit_count()
    return Fraction((G & ~S).bit_count(), span), Fraction((S & ~F).bit_count(), span)


def alpha_vector(coords):
    """(|S \\ K| / |L \\ K|)_S, the normalized-size point on the cone boundary."""
    span = Fraction((coords.L & ~coords.K).bit_count())
    return IntervalVector(
        coords,
        [Fraction((S & ~coords.K).bit_count()) / span for S in coords.subsets],
    )


def beta_vector(coords):
    """(|L \\ S| / |L \\ K|)_S, the complementary boundary point."""
    span = Fraction((coords.L & ~coords.K).bit_count())
    return IntervalVector(
        coords,
        [Fraction((coords.L & ~S).bit_count()) / span for S in coords.subsets],
    )
