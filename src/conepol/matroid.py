"""Matroids given by their bases, and the lattice of flats.

Rank, closure and flats are all derived from the basis family by direct
search, which is exact and fast enough for desk-scale ground sets.  The
closure of S is one pass over the bases: an element outside S stays out
of it iff some basis meeting S in rank(S) elements contains it.  The
lattice of flats is searched cover by cover: one scan per flat F keeps the
bases meeting F in rank(F) elements, each cover cl(F + e) is read off
those that hold e, and the elements it adds to F are not tried again.
The basis-exchange axiom is validated exhaustively at construction time
over int bitsets of basis indices: for each basis B1 and x in B1, the
bases B2 that hold neither x nor any y with B1 - x + y a basis are one
mask, and the first violation is reported as a pair-by-pair walk would.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import poset, subsets
from .errors import (
    DivisibilityFailure,
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InternalAxiomFailure,
    InvalidParams,
    LoopElement,
    SizeLimitExceeded,
    UnequalBasisSizes,
)
from .unipoly import UniPoly


@dataclass(frozen=True)
class GroundSet:
    n: int
    labels: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams(f"ground size must be 1..{subsets.MAX_GROUND}")
        if self.n > subsets.MAX_GROUND:
            raise SizeLimitExceeded(
                f"ground set of {self.n} elements exceeds the cap of {subsets.MAX_GROUND}"
            )
        if self.labels is not None:
            if len(self.labels) != self.n or len(set(self.labels)) != self.n:
                raise InvalidParams("labels must be n pairwise distinct strings")

    @property
    def full_mask(self):
        return (1 << self.n) - 1


class Matroid:
    """Immutable matroid on {0,...,n-1} stored as a family of basis bitsets."""

    def __init__(self, ground, bases):
        self.ground = ground
        self.bases = frozenset(bases)
        self._validate()
        self.rank_total = next(iter(self.bases)).bit_count()
        self._lattice = None

    def _validate(self):
        if not self.bases:
            raise EmptyBases("a matroid needs at least one basis")
        full = self.ground.full_mask
        sizes = set()
        for B in self.bases:
            if not subsets.is_subset(B, full):
                raise InvalidParams("basis contains an element outside the ground set")
            sizes.add(B.bit_count())
        if len(sizes) != 1:
            raise UnequalBasisSizes(f"basis cardinalities differ: {sorted(sizes)}")
        # holding[y]: the bases that contain y, as a bitset over their
        # indices in iteration order
        bases = self.bases
        order = list(bases)
        everyone = (1 << len(order)) - 1
        holding = [0] * self.ground.n
        for i, B in enumerate(order):
            for y in subsets.elements(B):
                holding[y] |= 1 << i
        for B1 in order:
            outside = subsets.elements(full & ~B1)
            failing = {}
            for x in subsets.elements(B1):
                stripped = B1 & ~(1 << x)
                ok = holding[x]
                for y in outside:
                    if stripped | (1 << y) in bases:
                        ok |= holding[y]
                if ok != everyone:
                    failing[x] = everyone & ~ok
            if failing:
                # the first B2, then the first x, as a walk over pairs meets them
                low = min(mask & -mask for mask in failing.values())
                x = next(x for x, mask in failing.items() if mask & low)
                raise ExchangeAxiomViolation(
                    "no exchange for element {} between bases "
                    "{{{}}} and {{{}}}".format(
                        x,
                        subsets.format_elements(B1),
                        subsets.format_elements(order[low.bit_length() - 1]),
                    )
                )

    def rank(self, S):
        return max((S & B).bit_count() for B in self.bases)

    def _spanning_bases(self, S):
        """The bases meeting S in rank(S) elements, which are the bases
        that contain a basis of S, from one pass over the bases."""
        best, kept = -1, []
        for B in self.bases:
            k = (S & B).bit_count()
            if k > best:
                best, kept = k, [B]
            elif k == best:
                kept.append(B)
        return kept

    def closure(self, S):
        # e outside S escapes the closure iff it lies in a basis B with
        # |B & S| = rank(S)
        escape = 0
        for B in self._spanning_bases(S):
            escape |= B
        return S | (self.ground.full_mask & ~escape)

    def loops(self):
        return self.closure(0)

    def is_loopless(self):
        return self.loops() == 0

    def __repr__(self):
        return f"Matroid(n={self.ground.n}, rank={self.rank_total}, bases={len(self.bases)})"


def matroid_from_bases(ground, bases):
    """Validated matroid from an iterable of basis subsets.

    Bases may be bitsets or iterables of 0-based elements.
    """
    if not isinstance(ground, GroundSet):
        ground = GroundSet(int(ground))
    encoded = set()
    for B in bases:
        encoded.add(B if isinstance(B, int) else subsets.from_elements(B))
    return Matroid(ground, encoded)


def uniform_matroid(r, n):
    """Bases are all r-subsets of an n-element ground set."""
    if n < 1 or r < 0 or r > n:
        raise InvalidParams(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    ground = GroundSet(n)
    bases = {subsets.from_elements(c) for c in combinations(range(n), r)}
    return Matroid(ground, bases)


def graphic_matroid(edges):
    """Cycle matroid of a multigraph; elements are edge indices.

    Bases are the maximal spanning forests.  Parallel edges are fine;
    self-loop edges become matroid loops.
    """
    edges = [tuple(e) for e in edges]
    if not edges:
        raise InvalidParams("graph needs at least one edge")
    ground = GroundSet(len(edges))
    vertices = sorted({v for e in edges for v in e})
    v_index = {v: i for i, v in enumerate(vertices)}

    def forest_rank(subset_mask):
        parent = list(range(len(vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = 0
        for i in subsets.elements(subset_mask):
            u, v = edges[i]
            ru, rv = find(v_index[u]), find(v_index[v])
            if ru != rv:
                parent[ru] = rv
                count += 1
        return count

    full = (1 << len(edges)) - 1
    r = forest_rank(full)
    bases = set()
    for combo in combinations(range(len(edges)), r):
        mask = subsets.from_elements(combo)
        if forest_rank(mask) == r:
            bases.add(mask)
    return Matroid(ground, bases)


FANO_LINES = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
)


def fano():
    """Rank-3 matroid on 7 points whose dependent triples are the 7 lines."""
    lines = {subsets.from_elements(line) for line in FANO_LINES}
    bases = {
        subsets.from_elements(c)
        for c in combinations(range(7), 3)
        if subsets.from_elements(c) not in lines
    }
    return Matroid(GroundSet(7), bases)


def rank(M, S):
    return M.rank(S)


def closure(M, S):
    return M.closure(S)


class FlatLattice(poset.GradedSubposet):
    """Lattice of flats of a matroid, validated against the flats axioms."""

    def __init__(self, matroid, flats):
        try:
            super().__init__(matroid.ground.n, flats)
        except Exception as exc:
            raise InternalAxiomFailure(f"flats failed gradedness: {exc}") from exc
        self.bottom = self.elements[0]
        self.top = matroid.ground.full_mask
        if not poset.flats_axioms_hold(self, self.top):
            raise InternalAxiomFailure("flats violate the closure axioms")
        if not poset.is_semimodular_lattice(self):
            raise InternalAxiomFailure("lattice of flats is not semimodular")
        if not poset.is_one_balanced(self):
            raise InternalAxiomFailure("lattice of flats is not 1-balanced")
        if not poset.is_interval_connected(self):
            raise InternalAxiomFailure("lattice of flats is not interval connected")


def flats_lattice(M):
    """All closure-closed sets of M, as a validated FlatLattice.

    The upper covers of a flat F are the cl(F + e), e outside F, and
    cl(F + e) = cl(F + e') for every e' in cl(F + e) - F, so each cover is
    closed once.  Of the bases spanning F, found in one scan, those that
    also hold e are the bases meeting F + e in its rank r(F) + 1, so
    cl(F + e) is F + e plus everything outside their union.
    """
    if M._lattice is not None:
        return M._lattice
    bottom = M.closure(0)
    found = {bottom}
    frontier = [bottom]
    full = M.ground.full_mask
    while frontier:
        F = frontier.pop()
        kept = M._spanning_bases(F)
        untried = full & ~F
        while untried:
            bit = untried & -untried
            escape = 0
            for B in kept:
                if B & bit:
                    escape |= B
            G = F | bit | (full & ~escape)
            untried &= ~G
            if G not in found:
                found.add(G)
                frontier.append(G)
    lattice = FlatLattice(M, found)
    M._lattice = lattice
    return lattice


def characteristic_polynomial(M):
    """Mobius-weighted rank generating polynomial of the lattice of flats."""
    if not M.is_loopless():
        raise HasLoops(
            "loops present: {{{}}}".format(subsets.format_elements(M.loops()))
        )
    lattice = flats_lattice(M)
    table = poset.mobius(lattice)
    top = lattice.top
    coeffs = [0] * (M.rank_total + 1)
    for F in lattice.elements:
        coeffs[lattice.interval_rank(F, top)] += table.mu(lattice.bottom, F)
    return UniPoly(coeffs)


def reduced_characteristic_polynomial(M, i):
    """Characteristic polynomial divided by t - 1, computed flat-by-flat.

    Sums mu over flats avoiding element i; the result is checked to satisfy
    (t - 1) * reduced == characteristic exactly, which also forces it to be
    independent of the chosen i.
    """
    if i < 0 or i >= M.ground.n:
        raise InvalidParams(f"element {i} outside the ground set")
    if M.rank(1 << i) == 0:
        raise LoopElement(f"element {i} is a loop")
    if not M.is_loopless():
        raise HasLoops("matroid has loops")
    if M.rank_total < 1:
        raise InvalidParams("reduced characteristic polynomial needs rank >= 1")
    lattice = flats_lattice(M)
    table = poset.mobius(lattice)
    top = lattice.top
    coeffs = [0] * M.rank_total
    for F in lattice.elements:
        if not (F >> i) & 1:
            coeffs[lattice.interval_rank(F, top) - 1] += table.mu(lattice.bottom, F)
    out = UniPoly(coeffs)
    chi = characteristic_polynomial(M)
    if UniPoly([-1, 1]) * out != chi:
        raise DivisibilityFailure("(t - 1) * reduced != characteristic")
    return out
