"""Matroids given by their bases, and the lattice of flats.

One basis-incidence table answers every basis query: `_holding[y]` is an
int bitset, over basis indices in the iteration order of `bases`, of the
bases that contain y.  Adding `_holding[y]` up over the y in S as
bit-sliced per-basis counters (a ripple-carry add over O(log r) bit
planes) gives every |B & S| at once; reading the planes from the top down
gives rank(S) and the mask of the bases meeting S in rank(S) elements, and
cl(S) is S plus every y whose `_holding[y]` misses that mask.  The lattice
of flats is searched cover by cover from one such mask per flat (see
`flats_lattice`).  The exchange axiom is validated exhaustively over the
same table, once per cocircuit: each B - z is mapped to the mask of the
elements that complete it to a basis (for B1 - x, the fundamental
cocircuit of x in B1), and the bases holding one of them are ORed once
per distinct mask, giving the bases B2 that hold x or admit an exchange
for it; only a mask that misses some basis is kept.  When one does, one
lookup per basis B1 and x in B1 finds the first violation as a
pair-by-pair walk would.  Graphic bases are the maximal spanning forests,
found by backtracking over the edges.  A family of more than `MAX_BASES`
bases is refused: a uniform one before it is listed, a graphic one as
soon as the walk passes the cap.

A lattice built by the search is proved closed under intersection
without a pass over pairs.  The search vouches for one fact: each set it
returns is closed under cl, a matroid closure since the exchange axiom
is validated.  `FlatLattice` then checks that the ground set E is one of
the sets, that h(E) = r(E) for the height h of E above the first set B
in canonical order, and that the gains of each set's upper covers
partition its complement in E.  Along a cover F < G of closed sets the
rank grows, as r(G) = r(F) would put G inside cl(F) = F, so a maximal
chain from B to E, of length h(E), has r(E) >= r(B) + h(E).  Then h(E) =
r(E) forces r(B) = 0, so B is the closure of the empty set, which lies
inside every closed set: B is the least element.  Every cover lies on
such a chain, so each is a step of exactly one rank.  Now take A, C
among the sets: A & C is closed, and some set F inside it is maximal
among them (B is inside it).  For e in (A & C) - F, the upper cover G of
F gaining e is closed and holds F + e, so it contains cl(F + e), whose
rank r(F) + 1 is r(G); so G = cl(F + e) lies in A & C above F, a
contradiction, and A & C = F is a set of the lattice.  A family that a
caller passes to `FlatLattice` comes with no such fact and gets the pass
over pairs.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb
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

MAX_BASES = 20_000


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
    """Immutable matroid on {0,...,n-1} stored as a family of basis bitsets
    and its basis-incidence table."""

    def __init__(self, ground, bases):
        self.ground = ground
        self.bases = frozenset(bases)
        _check_basis_count(len(self.bases))
        self._holding = self._validate()
        self._everyone = (1 << len(self.bases)) - 1
        self.rank_total = next(iter(self.bases)).bit_count()
        self._lattice = None

    def _validate(self):
        """Check the basis family and return its incidence table."""
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
        order = list(self.bases)
        everyone = (1 << len(order)) - 1
        holding = [0] * self.ground.n
        completing = {}  # B - z: the elements y with B - z + y a basis
        for i, B in enumerate(order):
            for y in subsets.elements(B):
                holding[y] |= 1 << i
                stripped = B & ~(1 << y)
                completing[stripped] = completing.get(stripped, 0) | 1 << y
        seen = set()
        short = {}  # completing mask missed by some basis: the bases it reaches
        for mask in completing.values():
            if mask not in seen:
                seen.add(mask)
                ok = 0
                for y in subsets.elements(mask):
                    ok |= holding[y]
                if ok != everyone:
                    short[mask] = ok
        if not short:
            return holding
        for B1 in order:
            failing = {}
            for x in subsets.elements(B1):
                ok = short.get(completing[B1 & ~(1 << x)])
                if ok is not None:
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
        return holding

    def _spanning(self, S):
        """rank(S), and the bases meeting S in rank(S) elements as a bitset
        over basis indices, from bit-sliced counts of |B & S|: plane j
        holds bit j of every basis's count."""
        holding = self._holding
        planes = []
        for y in subsets.elements(S):
            carry = holding[y]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        rank, kept = 0, self._everyone
        for j in range(len(planes) - 1, -1, -1):
            if kept & planes[j]:
                kept &= planes[j]
                rank |= 1 << j
        return rank, kept

    def rank(self, S):
        return self._spanning(S)[0]

    def closure(self, S):
        # y outside S escapes the closure iff it lies in a basis B with
        # |B & S| = rank(S)
        kept = self._spanning(S)[1]
        for y, holders in enumerate(self._holding):
            if not holders & kept:
                S |= 1 << y
        return S

    def loops(self):
        return self.closure(0)

    def is_loopless(self):
        return self.loops() == 0

    def __repr__(self):
        return f"Matroid(n={self.ground.n}, rank={self.rank_total}, bases={len(self.bases)})"


def _check_basis_count(count, found=""):
    if count > MAX_BASES:
        raise SizeLimitExceeded(f"{count} bases{found} exceed the cap of {MAX_BASES}")


def uniform_matroid(r, n):
    """Bases are all r-subsets of an n-element ground set."""
    if n < 1 or r < 0 or r > n:
        raise InvalidParams(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    ground = GroundSet(n)
    _check_basis_count(comb(n, r))
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
    ends = [(v_index[u], v_index[v]) for u, v in edges]
    return Matroid(ground, _spanning_forests(len(vertices), ends))


def _spanning_forests(order, ends):
    """Maximal spanning forests of the multigraph on vertices 0..order-1
    with edges `ends`, as edge bitsets."""
    label = list(range(order))
    r = 0  # vertices minus components
    for u, v in ends:
        a, b = label[u], label[v]
        if a != b:
            label = [a if c == b else c for c in label]
            r += 1
    forests = []
    _grow_forests(ends, r, 0, list(range(order)), 0, 0, forests)
    return forests


def _grow_forests(ends, r, i, label, size, mask, forests):
    """Backtracking over the edges from index i on, with `mask` holding
    `size` edges already taken and `label[v]` the component of vertex v
    under them: an edge joining two components may be taken (relabelling
    one of them, and undoing that after), and a state with fewer edges
    left than the forest still lacks is dropped."""
    if size == r:
        forests.append(mask)
        _check_basis_count(len(forests), " found so far")
        return
    if len(ends) - i < r - size:
        return
    u, v = ends[i]
    a, b = label[u], label[v]
    if a != b:
        moved = [w for w, c in enumerate(label) if c == b]
        for w in moved:
            label[w] = a
        _grow_forests(ends, r, i + 1, label, size + 1, mask | 1 << i, forests)
        for w in moved:
            label[w] = b
    _grow_forests(ends, r, i + 1, label, size, mask, forests)


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


class FlatLattice(poset.GradedSubposet):
    """Lattice of flats of a matroid, validated against the flats axioms.

    `flats` is any iterable of sets.  `flats_lattice` also passes
    `_closed=True`, as its search has seen every set closed; nothing else
    may, as that is not checked again.  The premises of the proof of
    intersection closure (see the module docstring) are then checked, and
    a failing one is refused rather than left to the pass over pairs.
    Without the flag, a family that passes every check is last compared
    with M's own closure, so that only M's lattice of flats is accepted.
    """

    def __init__(self, matroid, flats, _closed=False):
        try:
            super().__init__(matroid.ground.n, flats)
        except Exception as exc:
            raise InternalAxiomFailure(f"flats failed gradedness: {exc}") from exc
        self.bottom = self.elements[0]
        self.top = matroid.ground.full_mask
        if _closed:
            if not (
                self.top in self
                and self.interval_rank(self.bottom, self.top) == matroid.rank_total
                and poset._gains_partition(self, self.top)
            ):
                raise InternalAxiomFailure(
                    "closed sets from the search fail the premises of intersection closure"
                )
            self._proved[("_intersection_closed",)] = True
        if not poset.flats_axioms_hold(self, self.top):
            raise InternalAxiomFailure("flats violate the closure axioms")
        if not poset.is_semimodular_lattice(self):
            raise InternalAxiomFailure("lattice of flats is not semimodular")
        if not poset.is_one_balanced(self):
            raise InternalAxiomFailure("lattice of flats is not 1-balanced")
        if not poset.is_interval_connected(self):
            raise InternalAxiomFailure("lattice of flats is not interval connected")
        if not _closed:
            self._check_flats_of(matroid)

    def _check_flats_of(self, M):
        """Refuse a family that is not M's lattice of flats: it must hold
        cl(empty set), every set in it closed, and cl(F + e) for each F and
        e outside F.  For F closed and e' in cl(F + e) - F, cl(F + e') =
        cl(F + e) by the exchange property, so one e per cover is tried."""
        bottom = M.closure(0)
        if bottom not in self:
            raise InternalAxiomFailure(
                f"flats lack {_named(bottom)}, the closure of the empty set"
            )
        for S in self.elements:
            if M.closure(S) != S:
                raise InternalAxiomFailure(f"flats hold {_named(S)}, which is not closed")
        for F in self.elements:
            untried = self.top & ~F
            while untried:
                G = M.closure(F | untried & -untried)
                if G not in self:
                    raise InternalAxiomFailure(
                        f"flats lack {_named(G)}, a cover of {_named(F)}"
                    )
                untried &= ~G


def _named(S):
    return "{" + subsets.format_elements(S) + "}"


def flats_lattice(M):
    """All closure-closed sets of M, as a validated FlatLattice.

    The upper covers of a flat F are the cl(F + e), e outside F, and
    cl(F + e) = cl(F + e') for every e' in cl(F + e) - F, so each cover is
    closed once, and the covers' gains partition the elements outside F.
    Of the bases spanning F, found once per flat, those that also hold e
    are the bases meeting F + e in its rank r(F) + 1, so cl(F + e) is
    F + e plus every untried y that none of them holds.  The same bases
    show that F is closed: each y outside F lies in one of them.  A y in
    none of them is the first e tried or joins the first cover, so only
    that cover's gain is checked, and a set that is not closed is refused.
    """
    if M._lattice is not None:
        return M._lattice
    holding = M._holding
    bottom = M.closure(0)
    found = {bottom}
    frontier = [bottom]
    full = M.ground.full_mask
    while frontier:
        F = frontier.pop()
        kept = M._spanning(F)[1]
        untried = subsets.elements(full & ~F)
        first, closed = True, True
        while untried:
            e, *others = untried
            spanning = kept & holding[e]
            G = F | 1 << e
            untried = []
            for y in others:
                if holding[y] & spanning:
                    untried.append(y)
                else:
                    G |= 1 << y
                    if first and not holding[y] & kept:
                        closed = False
            if first and not spanning:
                closed = False
            first = False
            if G not in found:
                found.add(G)
                frontier.append(G)
        if not closed:
            raise InternalAxiomFailure(
                "flats search found {{{}}}, which is not closed".format(
                    subsets.format_elements(F)
                )
            )
    lattice = FlatLattice(M, found, _closed=True)
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
