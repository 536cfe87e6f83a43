"""Checks that only the tests run: side identities and neighbouring notions
(modular vectors and the shift invariance they give, the Shapley-value
effective decomposition, the alpha/beta indicator vectors, Weisner's
recursion, three identities of interval polynomials, the Chow tensor
split, the Branden-Huh orthant notion), each error class next to the code
that raises it."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from conepol import subsets
from conepol.chow import ChowRing
from conepol.cone import (
    IntervalCoords, IntervalVector, _diamond_margins, is_strictly_submodular
)
from conepol.errors import (
    ConepolError, ElementOutsideInterval, InternalCheckError, InvalidParams, NotAnInterval
)
from conepol.intervalpoly import cache_for, interval_polynomial
from conepol.lorentz import _contracted, _tuple_result, inertia
from conepol.multipoly import MultiPoly, _coordinate
from conepol.poset import is_balanced, mobius

from oracles import NonpositiveValue, UnsupportedSupport, partial


class TrivialInterval(ConepolError):
    pass


def scaled(v, c):
    """The interval vector c * v."""
    c = Fraction(c)
    return IntervalVector(v.coords, [c * x for x in v.values])


def modular_vector(coords, weights):
    """Expand per-element weights (summing to zero) to a modular vector."""
    total = sum(weights.values(), Fraction(0))
    if total != 0:
        raise InvalidParams("modular weights must sum to zero")
    diff_elements = subsets.elements(coords.L & ~coords.K)
    if set(weights) - set(diff_elements):
        raise ElementOutsideInterval("weight on an element outside L \\ K")
    vals = []
    for S in coords.subsets:
        vals.append(
            sum((weights.get(e, Fraction(0)) for e in subsets.elements(S & ~coords.K)),
                Fraction(0))
        )
    return IntervalVector(coords, vals)


def modular_basis(coords):
    """Basis of the modular subspace, as a tuple with one vector per element
    of L \\ K beyond the first: weight +1 on the first element and -1 on
    that one."""
    diff_elements = subsets.elements(coords.L & ~coords.K)
    if len(diff_elements) < 2:
        raise TrivialInterval("modular subspace is zero-dimensional")
    first = diff_elements[0]
    return tuple(
        modular_vector(coords, {first: Fraction(1), other: Fraction(-1)})
        for other in diff_elements[1:]
    )


class PrerequisiteNotBalanced(ConepolError):
    pass


def _random_fraction(rng, spread=60, max_den=6):
    return Fraction(rng.randint(-spread, spread), rng.randint(1, max_den))


def modular_shift_invariance(P, K, L, trials=50, seed=0):
    """pol(x + w) == pol(x) for random rational x and random modular w, on
    a balanced poset."""
    if trials < 1:
        raise InvalidParams("need at least one trial")
    if not is_balanced(P):
        raise PrerequisiteNotBalanced("poset is not balanced")
    f = interval_polynomial(P, K, L)
    coords = IntervalCoords(K, L)
    basis = modular_basis(coords) if coords.span >= 2 else ()
    rng = random.Random(seed)
    for _ in range(trials):
        x = {F: _random_fraction(rng) for F in f.vars}
        w = IntervalVector.zero(coords)
        for vec in basis:
            w = w + scaled(vec, Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
        shifted = {F: x[F] + w[F] for F in f.vars}
        if f.evaluate(shifted) != f.evaluate(x):
            return False
    return True


class NotInCone(ConepolError):
    pass


class FeasibilityFailure(InternalCheckError):
    pass


def _shapley_value(v):
    """Shapley value of the game T -> v(K + T) on the players L \\ K.

    phi_i = sum over T not containing i of |T|! (n-|T|-1)! / n! times the
    marginal value v(K + T + i) - v(K + T).
    """
    K, L = v.coords.K, v.coords.L
    players = L & ~K
    n = players.bit_count()
    weights = [
        Fraction(factorial(t) * factorial(n - t - 1), factorial(n)) for t in range(n)
    ]
    phi = {}
    for i in subsets.elements(players):
        bit = 1 << i
        phi[i] = sum(
            (
                weights[T.bit_count()] * (v[K | T | bit] - v[K | T])
                for T in subsets.submasks(players & ~bit)
            ),
            Fraction(0),
        )
    return phi


def effective_decompose(v):
    """Modular shift making a cone point coordinatewise positive.

    Returns (w, epsilon) where w is modular with v + w > 0 in every
    coordinate, and epsilon is the largest 1/2^k for which v minus epsilon
    times the canonical interior point stays weakly submodular.  The shift
    is minus the Shapley value of v: the Shapley value of a submodular game
    lies in its anticore (Shapley, "Cores of convex games", 1971), and
    strict submodularity makes every strict intermediate's slack positive.
    The canonical point has every diamond margin equal to 2, so epsilon is
    the largest 1/2^k with 2 epsilon at most the least diamond margin of v.
    """
    if not is_strictly_submodular(v):
        raise NotInCone("vector is not strictly submodular")
    coords = v.coords
    if coords.m == 0:
        return IntervalVector.zero(coords), Fraction(1)

    least = min(_diamond_margins(v))
    eps = Fraction(1)
    while 2 * eps > least:
        eps /= 2

    w = modular_vector(coords, {i: -phi for i, phi in _shapley_value(v).items()})
    if any(val <= 0 for val in (v + w).values):
        raise FeasibilityFailure("the Shapley shift left a coordinate nonpositive")
    return w, eps


def _check_element(coords, i):
    if not ((coords.L >> i) & 1) or ((coords.K >> i) & 1):
        raise ElementOutsideInterval(f"element {i} is not in L \\ K")


def alpha_indicator(coords, i):
    """0/1 vector marking the subsets that contain element i."""
    _check_element(coords, i)
    return IntervalVector(
        coords, [Fraction((S >> i) & 1) for S in coords.subsets]
    )


def beta_indicator(coords, i):
    """0/1 vector marking the subsets that avoid element i."""
    _check_element(coords, i)
    return IntervalVector(
        coords, [Fraction(1 - ((S >> i) & 1)) for S in coords.subsets]
    )


class HypothesisViolation(ConepolError):
    pass


def weisner_check(P, x, a, y, table=None):
    """Coatom recursion for mu on a semimodular lattice.

    With a covering x and a < y, checks that mu(x, y) equals minus the sum
    of mu(x, b) over coatoms b of [x, y] that do not lie above a.
    """
    if a not in P.upper_covers(x):
        raise HypothesisViolation("second argument must cover the first")
    if y not in P or not subsets.is_proper_subset(a, y):
        raise HypothesisViolation("third argument must lie strictly above the atom")
    tbl = table if table is not None else mobius(P)
    total = 0
    for b in P.open_interval(x, y):
        if y in P.upper_covers(b) and not subsets.is_subset(a, b):
            total += tbl.mu(x, b)
    return tbl.mu(x, y) == -total


def sum_of_squares_identity_holds(P, K, L):
    """For a rank-3 interval: twice the polynomial equals the square of the
    rank-1 variable sum minus one square per rank-2 element."""
    if P.interval_rank(K, L) != 3:
        raise NotAnInterval("identity applies to rank-3 intervals")
    f = interval_polynomial(P, K, L)
    flats = f.vars
    rank1 = [F for F in flats if P.interval_rank(K, F) == 1]
    rank2 = [G for G in flats if P.interval_rank(K, G) == 2]
    total = MultiPoly.zero(flats, degree=1)
    for F in rank1:
        total = total + MultiPoly.variable(flats, F)
    rhs = total * total
    for G in rank2:
        diff = MultiPoly.variable(flats, G)
        for F in rank1:
            if subsets.is_proper_subset(F, G):
                diff = diff - MultiPoly.variable(flats, F)
        rhs = rhs - diff * diff
    return 2 * f == rhs


def derivative_factorization_witness(P, K, L):
    """First middle element F where d pol / d t_F differs from the product
    of the lifted sub-interval polynomials at F, or None."""
    cache = cache_for(P)
    f = cache.polynomial(K, L)
    for F in f.vars:
        if partial(f, F) != cache._lift(K, F, f.vars) * cache._lift(F, L, f.vars):
            return F
    return None


def euler_identity_holds(f):
    """Sum of t_F times the F-partial equals deg(f) times f, exactly."""
    acc = MultiPoly.zero(f.vars, degree=f.degree)
    for var in f.vars:
        acc = acc + MultiPoly.variable(f.vars, var) * partial(f, var)
    return acc == f.degree * f


def top_degree(ring, monomial):
    """The ring's normalized top-degree functional on a monomial
    {flat: exponent} of its top degree; monomials off the chains give 0."""
    key = tuple(sorted(
        ring.flats.index(F) for F, e in monomial.items() for _ in range(e)
    ))
    return ring._top_functional.get(key, Fraction(0))


def tensor_degree_check(P, K, F, L, samples=20, seed=0):
    """deg of (monomial below F) * x_F * (monomial above F) splits as the
    product of the sub-interval degrees, on sampled monomial pairs."""
    if not (
        all(X in P for X in (K, F, L))
        and subsets.is_proper_subset(K, F)
        and subsets.is_proper_subset(F, L)
    ):
        raise NotAnInterval("need K < F < L in the poset")
    big = ChowRing(P, K, L)
    low = ChowRing(P, K, F)
    high = ChowRing(P, F, L)
    rng = random.Random(seed)

    def random_key(ring, degree):
        # degree >= 1 implies the open interval is nonempty
        return tuple(sorted(rng.randrange(len(ring.flats)) for _ in range(degree)))

    def exponents(ring, key):
        return {ring.flats[p]: key.count(p) for p in key}

    for _ in range(samples):
        xi = random_key(low, low.degree)
        eta = random_key(high, high.degree)
        # the open intervals below and above F are disjoint and miss F
        combined = {F: 1, **exponents(low, xi), **exponents(high, eta)}
        lhs = top_degree(big, combined)
        rhs = top_degree(low, exponents(low, xi)) * top_degree(high, exponents(high, eta))
        if lhs != rhs:
            return False
    return True


def is_lorentzian_orthant(f):
    """Lorentzian test on the positive orthant for full-simplex supports.

    Checks positive coefficients and that the Hessian of every (d-2)-fold
    partial derivative has at most one positive eigenvalue.  Inputs whose
    Hessians pass but whose support misses part of the degree-d simplex are
    rejected as unsupported rather than judged, since deciding those would
    need the general support condition this package does not implement.
    """
    if f.is_zero():
        return True
    if any(c < 0 for c in f.terms.values()):
        return False
    d = f.degree
    if d >= 2:
        # a partial derivative is a contraction along a unit vector; the
        # first two directions only enter the unused full contraction
        units = [{v: int(v == w) for v in f.vars} for w in f.vars]
        for combo in combinations_with_replacement(units, d - 2):
            H, _ = _contracted(f, (units[0], units[0]) + combo)
            if inertia(H).n_plus > 1:
                return False
    # the keys are distinct points of the simplex, so they fill it iff there
    # are C(n + d - 1, d) of them; a nonzero constant always does
    if d and len(f.terms) != math.comb(len(f.vars) + d - 1, d):
        raise UnsupportedSupport(
            "support is not the full degree simplex; cannot decide"
        )
    return True


def first_uncertified_derivative(f, tuples):
    """First (F, index) for which the partial derivative of f along t_F
    fails the sampled certificate on the first deg - 1 directions of that
    tuple, or None."""
    for F in f.vars:
        g = partial(f, F)
        for idx, tup in enumerate(tuples):
            if not _tuple_result(g, tup[: f.degree - 1])[2]:
                return F, idx
    return None


def product_check(f, g, sample_tuples):
    """The product passes the same sampled contraction and inertia checks."""
    h = f * g
    return h.is_zero() or all(_tuple_result(h, tup)[2] for tup in sample_tuples)


def hessian_one_positive_equivalence(g, point):
    """At a point where g is positive: the Hessian having exactly one
    positive eigenvalue must coincide with negative semidefiniteness of
    d*g*H - (d-1)*grad*grad^T.  Returns whether the two sides agree.

    With Q the Hessian contracted along p = point d - 2 times (up to the
    positive factor `_contracted` leaves on it), Euler's identity gives
    Q = (d-2)! H, Q p = (d-1)! grad and p^T Q p = d! g, each times that
    factor, so that matrix is a positive multiple of
    (p^T Q p) Q - (Q p)(Q p)^T and has its inertia.  Below degree 2 the
    Hessian is zero, so the sides disagree.
    """
    value = g.evaluate(point)
    if value <= 0:
        raise NonpositiveValue(f"g(point) = {value} is not positive")
    d = g.degree
    if d < 2:
        return False
    Q, _ = _contracted(g, (point,) * d)
    p = [_coordinate(point, var) for var in g.vars]
    Qp = [sum(q * x for q, x in zip(row, p)) for row in Q]
    top = sum(x * a for x, a in zip(p, Qp))
    side_a = inertia(Q).n_plus == 1
    rows = [[top * q - a * b for q, b in zip(row, Qp)] for row, a in zip(Q, Qp)]
    side_c = inertia(rows).n_plus == 0
    return side_a == side_c
