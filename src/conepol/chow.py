"""Graded quotient ring of an interval in a lattice of flats.

The ring on generators x_F (one per middle element) is cut by two families
of relations: products of incomparable generators vanish, and for any two
elements i, j of L \\ K the sums of generators containing i and containing
j agree.  Each graded piece is handled as exact sparse integer elimination
over the monomials supported on chains; monomials touching an incomparable
pair are pruned up front since they are already zero.

The top graded piece must be one dimensional, with all maximal-chain
monomials in the same nonzero class; the induced functional normalizes
them to 1 and generates the volume polynomial.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd

from . import subsets
from .errors import (
    FlagInconsistency,
    NotAnInterval,
    SizeLimitExceeded,
    TopDegreeNotOneDimensional,
    WrongDegree,
)
from .intervalpoly import interval_polynomial
from .multipoly import MultiPoly

MAX_OPEN_FLATS = 16
MAX_DEGREE = 4


def _echelon(rows):
    """Exact row echelon form of sparse integer rows, keyed by pivot column.

    Rows are {column: int} dicts.  Each stored row is primitive and keyed by
    its smallest column, and no two stored rows share a key, so the number
    of keys is the rank.  Elimination is fraction-free: a row meeting stored
    row r at column c becomes r[c] * row - row[c] * r, divided by the gcd of
    its entries.
    """
    echelon = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot_row = echelon.get(col)
            if pivot_row is None:
                echelon[col] = row
                break
            a, b = pivot_row[col], row[col]
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot_row.items():
                x = row.get(c, 0) - b * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return echelon


def _kernel_basis(echelon, ncols):
    """Basis of {x : rows . x = 0}, one vector per non-pivot column, which
    is set to 1 while the other non-pivot columns are 0."""
    pivots = sorted(echelon, reverse=True)
    basis = []
    for free in range(ncols):
        if free in echelon:
            continue
        x = {free: Fraction(1)}
        for col in pivots:
            row = echelon[col]
            s = sum(v * x[c] for c, v in row.items() if c in x)
            if s:
                x[col] = -s / row[col]
        basis.append([x.get(c, Fraction(0)) for c in range(ncols)])
    return basis


class ChowRing:
    """Graded data of the quotient ring of one interval."""

    def __init__(self, P, K, L):
        d = P.interval_degree(K, L)
        if d < 0:
            raise NotAnInterval("need K <= L in the poset")
        flats = tuple(P.open_interval(K, L))
        if len(flats) > MAX_OPEN_FLATS:
            raise SizeLimitExceeded(
                f"{len(flats)} open flats exceeds the cap of {MAX_OPEN_FLATS}"
            )
        if d > MAX_DEGREE:
            raise SizeLimitExceeded(f"degree {d} exceeds the cap of {MAX_DEGREE}")
        self.poset = P
        self.K = K
        self.L = L
        self.degree = d
        self.flats = flats
        self._comparable = {
            (i, j): subsets.comparable(flats[i], flats[j])
            for i in range(len(flats))
            for j in range(len(flats))
        }
        self.monomials = [self._chain_monomials(k) for k in range(d + 1)]
        echelons = [_echelon(self._relation_rows(k)) for k in range(d + 1)]
        self.graded_dims = [len(m) - len(e) for m, e in zip(self.monomials, echelons)]
        self._top_functional = self._build_top_functional(echelons[d])

    # -- monomials -------------------------------------------------------------

    def _chain_monomials(self, k):
        """Exponent tuples of degree k whose support is a chain of flats."""
        n = len(self.flats)
        if k == 0:
            return [tuple([0] * n)]
        out = []
        for combo in combinations_with_replacement(range(n), k):
            distinct = sorted(set(combo))
            ok = all(
                self._comparable[(a, b)]
                for idx, a in enumerate(distinct)
                for b in distinct[idx + 1:]
            )
            if not ok:
                continue
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
        return out

    def _is_chain_exponents(self, exps):
        support = [i for i, e in enumerate(exps) if e]
        return all(
            self._comparable[(a, b)]
            for idx, a in enumerate(support)
            for b in support[idx + 1:]
        )

    # -- relations ---------------------------------------------------------------

    def _linear_form_pairs(self):
        """Element pairs (i, j) of L \\ K indexing the linear relations."""
        els = subsets.elements(self.L & ~self.K)
        return [(a, b) for idx, a in enumerate(els) for b in els[idx + 1:]]

    def _relation_rows(self, k):
        """Images in degree k of monomial times linear relation, as sparse
        {column: coefficient} rows over the chain monomials (the others are
        already zero).  Coefficients lie in {-1, 1}."""
        if k == 0:
            return []
        index = {m: pos for pos, m in enumerate(self.monomials[k])}
        pairs = self._linear_form_pairs()
        rows = []
        for m in self.monomials[k - 1]:
            support = [i for i, e in enumerate(m) if e]
            bumps = []
            for pos, F in enumerate(self.flats):
                if all(self._comparable[(pos, s)] for s in support):
                    bumped = list(m)
                    bumped[pos] += 1
                    bumps.append((F, index[tuple(bumped)]))
            for i, j in pairs:
                row = {}
                for F, col in bumps:
                    bit = ((F >> i) & 1) - ((F >> j) & 1)
                    if bit:
                        row[col] = bit
                if row:
                    rows.append(row)
        return rows

    # -- the degree functional ------------------------------------------------------

    def _build_top_functional(self, echelon):
        """The top-degree kernel vector, scaled so flag monomials map to 1."""
        top = self.monomials[self.degree]
        kernel = _kernel_basis(echelon, len(top))
        if len(kernel) != 1:
            raise TopDegreeNotOneDimensional(
                f"top graded piece has dimension {len(kernel)}"
            )
        phi = dict(zip(top, kernel[0]))
        flag_values = set()
        for chain in self.poset.maximal_chains(self.K, self.L):
            middle = chain[1:-1]
            exps = [0] * len(self.flats)
            for F in middle:
                exps[self.flats.index(F)] += 1
            flag_values.add(phi[tuple(exps)])
        if len(flag_values) != 1:
            raise FlagInconsistency("maximal-chain monomials land in different classes")
        scale = flag_values.pop()
        if scale == 0:
            raise FlagInconsistency("maximal-chain monomials are zero in the quotient")
        return {m: v / scale for m, v in phi.items()}

    # -- public surface ----------------------------------------------------------------

    def degree_map(self, monomial):
        """Normalized top-degree functional; incomparable supports give 0."""
        exps = self._as_exponents(monomial)
        if sum(exps) != self.degree:
            raise WrongDegree(
                f"monomial degree {sum(exps)} != ring top degree {self.degree}"
            )
        if not self._is_chain_exponents(exps):
            return Fraction(0)
        return self._top_functional[exps]

    def _as_exponents(self, monomial):
        if isinstance(monomial, dict):
            exps = [0] * len(self.flats)
            for F, e in monomial.items():
                exps[self.flats.index(F)] += e
            return tuple(exps)
        return tuple(monomial)

    def volume_polynomial(self):
        """(1/d!) deg((sum_F x_F t_F)^d) expanded termwise by multinomials."""
        d = self.degree
        if d == 0:
            return MultiPoly.constant((), 1)
        terms = {}
        for exps in self.monomials[d]:
            value = self._top_functional[exps]
            if value == 0:
                continue
            weight = Fraction(1)
            for e in exps:
                weight /= factorial(e)
            terms[exps] = value * weight
        return MultiPoly(self.flats, terms, degree=d)


def build_chow(P, K, L):
    return ChowRing(P, K, L)


def degree_map(ring, monomial):
    return ring.degree_map(monomial)


def volume_polynomial(ring):
    return ring.volume_polynomial()


def verify_vol_eq_pol(P, K, L):
    """Exact symbolic equality of the volume polynomial and the recursively
    built interval polynomial."""
    return vol_pol_mismatch_witness(ChowRing(P, K, L)) is None


def vol_pol_mismatch_witness(ring):
    """First term where the ring's volume polynomial differs from the
    recursively built interval polynomial, or None when they are equal.

    A non-None answer is a bug signal; it is surfaced in verification
    reports rather than raised.
    """
    diff = ring.volume_polynomial() - interval_polynomial(ring.poset, ring.K, ring.L)
    if diff.is_zero():
        return None
    exps, coeff = diff.sorted_terms()[0]
    monomial = {
        subsets.format_elements(F): e
        for F, e in zip(ring.flats, exps)
        if e
    }
    return {"monomial": monomial, "difference": str(coeff)}


def tensor_degree_check(P, K, F, L, samples=20, seed=0):
    """deg of (monomial below F) * x_F * (monomial above F) splits as the
    product of the sub-interval degrees, on sampled monomial pairs."""
    if not (P.lt(K, F) and P.lt(F, L)):
        raise NotAnInterval("need K < F < L in the poset")
    big = ChowRing(P, K, L)
    low = ChowRing(P, K, F)
    high = ChowRing(P, F, L)
    rng = random.Random(seed)

    def random_exponents(ring, degree):
        # degree >= 1 implies the open interval is nonempty
        exps = [0] * len(ring.flats)
        for _ in range(degree):
            exps[rng.randrange(len(ring.flats))] += 1
        return tuple(exps)

    for _ in range(samples):
        xi = random_exponents(low, low.degree)
        eta = random_exponents(high, high.degree)
        combined = [0] * len(big.flats)
        for pos, e in zip(low.flats, xi):
            combined[big.flats.index(pos)] += e
        for pos, e in zip(high.flats, eta):
            combined[big.flats.index(pos)] += e
        combined[big.flats.index(F)] += 1
        lhs = big.degree_map(tuple(combined))
        rhs = low.degree_map(xi) * high.degree_map(eta)
        if lhs != rhs:
            return False
    return True
