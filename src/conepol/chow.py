"""Graded quotient ring of an interval in a lattice of flats.

The ring on generators x_F (one per middle element) is cut by two families
of relations: products of incomparable generators vanish, and for any two
elements i, j of L \\ K the sums of generators containing i and containing
j agree.  Monomials off the chains are already zero, so only multichains
are listed: a monomial is the nondecreasing tuple of its flats' positions
in the open interval, and degree k extends each degree-(k-1) tuple by the
flats above its last entry, read off the poset's order table.  Each graded
piece is handled as exact sparse integer elimination over those columns,
with one linear relation per element of L \\ K other than the first.

The top graded piece must be one dimensional, with all maximal-chain
monomials in the same nonzero class; the induced functional normalizes
them to 1 and generates the volume polynomial.  A monomial's key is also
its term key in that polynomial, whose variables are the ring's flats.
"""

from fractions import Fraction
from itertools import groupby
from math import factorial, gcd, prod

from . import subsets
from .errors import (
    FlagInconsistency,
    NotAnInterval,
    SizeLimitExceeded,
    TopDegreeNotOneDimensional,
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


def check_caps(P, K, L):
    """The degree of [K, L] and its open flats as a bitset over P's element
    indices, once the interval is within the open-flat and degree caps."""
    d = P.interval_degree(K, L)
    if d < 0:
        raise NotAnInterval("interval needs K strictly below L")
    mask = P._open_mask(K, L)
    count = mask.bit_count()
    if count > MAX_OPEN_FLATS:
        raise SizeLimitExceeded(f"{count} open flats exceeds the cap of {MAX_OPEN_FLATS}")
    if d > MAX_DEGREE:
        raise SizeLimitExceeded(f"degree {d} exceeds the cap of {MAX_DEGREE}")
    return d, mask


class ChowRing:
    """Graded data of the quotient ring of one interval.

    A monomial is the nondecreasing tuple of its flats' positions in
    `flats`; `monomials[k]` lists the degree-k chain monomials in lex order.
    """

    def __init__(self, P, K, L):
        d, mask = check_caps(P, K, L)
        index = subsets.elements(mask)
        self.poset = P
        self.K = K
        self.L = L
        self.degree = d
        self.flats = tuple(P.elements[i] for i in index)
        self._position = {F: p for p, F in enumerate(self.flats)}
        # the poset's order table restricted to the open interval, as
        # bitsets over positions: flats above flat p, and flats comparable
        # with it, p included in both
        bit = {i: 1 << p for p, i in enumerate(index)}

        def positions(poset_bits):
            return sum(bit[j] for j in subsets.elements(poset_bits & mask))

        self._above = [positions(P._up[i]) for i in index]
        self._comparable = [positions(P._up[i] | P._down[i]) for i in index]
        self.monomials = [[()]]
        for _ in range(d):
            self.monomials.append(self._extend(self.monomials[-1]))
        echelons = [_echelon(self._relation_rows(k)) for k in range(d + 1)]
        self.graded_dims = [len(m) - len(e) for m, e in zip(self.monomials, echelons)]
        self._top_functional = self._build_top_functional(echelons[d])

    # -- monomials -------------------------------------------------------------

    def _extend(self, monomials):
        """Chain monomials one degree up, in lex order: each key extended by
        the positions above its last entry, ascending.  Canonical order puts
        a flat before the flats containing it, so keys walk up multichains."""
        everything = (1 << len(self.flats)) - 1
        return [
            m + (q,)
            for m in monomials
            for q in subsets.elements(self._above[m[-1]] if m else everything)
        ]

    # -- relations ---------------------------------------------------------------

    def _relation_rows(self, k):
        """Images in degree k of monomial times linear relation, as sparse
        {column: coefficient} rows over the chain monomials (the others are
        already zero).  The linear relations pair the first element a of
        L \\ K with each other element j; the relation of any pair i, j is
        the difference of two of these.  Coefficients lie in {-1, 1}."""
        if k == 0:
            return []
        column = {m: c for c, m in enumerate(self.monomials[k])}
        first, *others = subsets.elements(self.L & ~self.K)
        everything = (1 << len(self.flats)) - 1
        rows = []
        for m in self.monomials[k - 1]:
            bumpable = everything
            for p in m:
                bumpable &= self._comparable[p]
            bumps = [
                (self.flats[q], column[tuple(sorted(m + (q,)))])
                for q in subsets.elements(bumpable)
            ]
            for j in others:
                row = {}
                for F, col in bumps:
                    bit = ((F >> first) & 1) - ((F >> j) & 1)
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
        flag_values = {
            phi[tuple(self._position[F] for F in chain[1:-1])]
            for chain in self.poset.maximal_chains(self.K, self.L)
        }
        if len(flag_values) != 1:
            raise FlagInconsistency("maximal-chain monomials land in different classes")
        scale = flag_values.pop()
        if scale == 0:
            raise FlagInconsistency("maximal-chain monomials are zero in the quotient")
        return {m: v / scale for m, v in phi.items()}

    # -- public surface ----------------------------------------------------------------

    def volume_polynomial(self):
        """(1/d!) deg((sum_F x_F t_F)^d) expanded termwise by multinomials."""
        d = self.degree
        if d == 0:
            return MultiPoly.constant((), 1)
        terms = {
            key: value / prod(factorial(len(list(run))) for _, run in groupby(key))
            for key, value in self._top_functional.items()
            if value
        }
        return MultiPoly(self.flats, terms, degree=d)


def vol_pol_mismatch_witness(ring):
    """First term where the ring's volume polynomial differs from the
    recursively built interval polynomial, or None when they are equal.

    A non-None answer is a bug signal; it is surfaced in verification
    reports rather than raised.
    """
    diff = ring.volume_polynomial() - interval_polynomial(ring.poset, ring.K, ring.L)
    if diff.is_zero():
        return None
    key, coeff = diff.sorted_terms()[0]
    monomial = {
        subsets.format_elements(ring.flats[p]): len(list(run))
        for p, run in groupby(key)
    }
    return {"monomial": monomial, "difference": str(coeff)}
