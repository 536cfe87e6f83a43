"""Degree-d(K,L) polynomials attached to intervals of a graded sub-poset.

The polynomial of an interval is 1 when the interval has rank one, and is
otherwise assembled recursively: each middle element contributes its
variable times the polynomials of the two sub-intervals it splits off,
composed with the linear projections onto those sub-intervals, and the sum
is divided by the interval degree.  Everything is exact.

A sub-interval of [K, L] split off at a middle F is [K, F] or [F, L].  K
and L are endpoints of the outer interval, not variables of (K, L), so
exactly one endpoint of the sub-interval, F, is.  The projection onto the
sub-interval therefore sends each inner t_S to t_S - w_S t_F, and its
composition with the sub-interval polynomial p is the finite Taylor series
p(t - t_F w) = sum_k (-1)^k / k! * t_F^k * (D_w^k p)(t), with D_w the
directional derivative along w on p's own variables.

The alpha/beta profile of an interval of degree d is read off the same
derivatives, with no substitution: writing d! * pol(s alpha + t beta) =
sum_k C(d, k) a_k s^(d-k) t^k, the mixed contraction D_alpha^(d-k)
D_beta^k pol is d-k derivatives in s and k in t of the left side, which
is a_k.
"""

import weakref
from fractions import Fraction

from . import cone, matroid as matroid_mod, poset, subsets
from .errors import (
    ElementOutsideInterval,
    HasLoops,
    InternalCheckError,
    MismatchWithDirectComputation,
    NotAnInterval,
    WrongDegree,
)
from .multipoly import MultiPoly, dir_derivative
from .unipoly import UniPoly


class IntervalPolynomials:
    """Memoized interval polynomials of one poset; variables are the open
    interval's elements in canonical order.

    The cache lives on its poset and refers back to it weakly, so a poset
    and its polynomials are freed by reference counting alone.
    """

    def __init__(self, P):
        self._poset = weakref.ref(P)
        self._memo = {}

    @property
    def poset(self):
        return self._poset()

    def polynomial(self, K, L):
        key = (K, L)
        if key in self._memo:
            return self._memo[key]
        if K == L:
            raise NotAnInterval("need K strictly below L")
        d = self.poset.interval_degree(K, L)
        flats = tuple(self.poset.open_interval(K, L))
        if d == 0:
            result = MultiPoly.constant((), 1)
        else:
            acc = MultiPoly.zero(flats, degree=d)
            for F in flats:
                low = self._lift(K, F, flats)
                high = self._lift(F, L, flats)
                acc = acc + MultiPoly.variable(flats, F) * low * high
            result = acc * Fraction(1, d)
        self._memo[key] = result
        return result

    def _lift(self, G, H, big_vars):
        """Polynomial p of [G, H] composed with the projection onto (G, H),
        in the variables of a larger open interval (K, L).  [G, H] is
        [K, F] or [F, L], and K, L are not variables of (K, L), so exactly
        one endpoint X = F is.  Each inner t_S becomes t_S - w_S t_X, with
        w_S X's weight in `cone.projection_weights`, and the lift is the
        Taylor series sum_k (-1)^k / k! * t_X^k * D_w^k p, whose terms for
        different k differ in the exponent of t_X: each key of D_w^k p is
        mapped to the outer indices and gets k copies of X's index."""
        inner = self.polynomial(G, H)
        pos = {S: j for j, S in enumerate(big_vars)}
        ends = [end for end in (G, H) if end in pos]
        if len(ends) != 1:
            raise InternalCheckError(
                f"{len(ends)} endpoints of a sub-interval are outer variables"
            )
        X = ends[0]
        side = 0 if X == G else 1  # X's place in projection_weights' pair
        w = {S: cone.projection_weights(S, G, H)[side] for S in inner.vars}
        cols = [pos[S] for S in inner.vars]
        out = {}
        g = inner
        for k in range(inner.degree + 1):  # g is (-1)^k / k! * D_w^k p
            if k:
                g = dir_derivative(g, {S: -v / k for S, v in w.items()})
            xs = [pos[X]] * k
            for key, c in g.terms.items():
                out[tuple(sorted([cols[i] for i in key] + xs))] = c
        return MultiPoly._trusted(big_vars, out, inner.degree)


def cache_for(P):
    """The per-poset polynomial cache, created on first use."""
    found = getattr(P, "_interval_polys", None)
    if found is None:
        found = IntervalPolynomials(P)
        P._interval_polys = found
    return found


def interval_polynomial(P, K, L):
    return cache_for(P).polynomial(K, L)


def normalized_profile(P, K, L, i):
    """Coefficients a_k with d! * pol(s a + t b) = sum C(d,k) a_k s^(d-k) t^k,
    for a and b the alpha and beta vectors: a_k is the mixed contraction
    D_a^(d-k) D_b^k pol, taken as D_b^k of D_a^(d-k) pol, so that each
    D_a^j pol is derived once, from the one before it.

    Cross-checked against the binomial-Mobius expansion: a_k is the sum of
    |mu(K, F)| over the F in [K, L) of rank k above K that avoid i; a
    mismatch is a bug signal.
    """
    coords = cone.IntervalCoords(K, L)
    if not ((L >> i) & 1) or ((K >> i) & 1):
        raise ElementOutsideInterval(f"element {i} is not in L \\ K")
    d = P.interval_degree(K, L)
    f = interval_polynomial(P, K, L)
    a, b = cone.alpha_vector(coords), cone.beta_vector(coords)
    profile = []
    for k in range(d, -1, -1):  # f is D_a^(d-k) pol
        profile.append(full_contraction(f, (b,) * k))
        if k:
            f = dir_derivative(f, a)
    profile.reverse()

    table = poset.mobius(P)
    expected = [0] * (d + 1)
    for F in P.interval(K, L):
        if F != L and not ((F >> i) & 1):
            expected[P.interval_rank(K, F)] += abs(table.mu(K, F))
    for k, (got, want) in enumerate(zip(profile, expected)):
        if got != want:
            raise MismatchWithDirectComputation(
                f"a_{k} = {got} disagrees with the Mobius expansion {want}"
            )
    return profile


def reduced_charpoly_via_interval_poly(M):
    """Reduced characteristic polynomial recovered from the alpha/beta
    profile of the full-interval polynomial, reconciled exactly against the
    direct flat-by-flat computation."""
    if not M.is_loopless():
        raise HasLoops("matroid has loops")
    lattice = matroid_mod.flats_lattice(M)
    i = subsets.elements(lattice.top & ~lattice.bottom)[0]
    profile = normalized_profile(lattice, lattice.bottom, lattice.top, i)
    d = len(profile) - 1
    coeffs_ascending = [Fraction(0)] * (d + 1)
    for k, a in enumerate(profile):
        coeffs_ascending[d - k] = (-1) ** k * a
    recovered = UniPoly(coeffs_ascending)
    direct = matroid_mod.reduced_characteristic_polynomial(M, i)
    if recovered != direct:
        raise MismatchWithDirectComputation(
            "reduced characteristic polynomial mismatch: "
            f"{recovered} vs {direct}"
        )
    return recovered


def full_contraction(f, directions):
    """Value of the iterated directional derivative along a full tuple,
    one direction per degree."""
    if len(directions) != f.degree:
        raise WrongDegree(
            f"{len(directions)} directions for a degree-{f.degree} polynomial"
        )
    g = f
    for v in directions:
        g = dir_derivative(g, v)
    return g.constant_value()
