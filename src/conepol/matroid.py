"""Matroids given by their bases, and the lattice of flats.

One basis-incidence table answers every basis query: `_holding[y]` is an
int bitset, over basis indices, of the bases that contain y; `_order`
lists the bases in index order, the iteration order of `bases`.  Adding
`_holding[y]` up over the y in S as bit-sliced per-basis counters (a
ripple-carry add over O(log r) bit planes) gives every |B & S| at once;
reading the planes from the top down gives rank(S) and the mask of the
bases meeting S in rank(S) elements, and cl(S) is S plus every y whose
`_holding[y]` misses that mask.  The lattice of flats is searched cover
by cover from one such mask, taken at cl(empty set) and carried down:
if I is a basis of a flat F, then y is outside cl(F) iff some basis
contains I + y, so any mask of bases that meet F in r(F) elements and
include every basis containing I answers for F, and its bases holding e
answer for cl(F + e) (see `_search_flats`).  The exchange axiom is
validated exhaustively over the same table, once per cocircuit: each
B - z is mapped to the mask of the elements that complete it to a basis
(for B1 - x, the fundamental cocircuit of x in B1), and the bases holding
one of them are ORed once per distinct mask, giving the bases B2 that
hold x or admit an exchange for it; only a mask that misses some basis is
kept.  When one does, one lookup per basis B1 and x in B1 finds the first
violation as a pair-by-pair walk would.  Graphic bases are the maximal
spanning forests, found by backtracking over the edges.  A family of more
than `MAX_BASES` bases is refused: a uniform one before it is listed, a
graphic one as soon as the walk passes the cap.

The lattice of flats is one search, kept on the matroid
(`_flats_record`).  From cl(empty set) it visits each flat F once,
records r(F) and F's upper covers cl(F + e), and checks F closed (see
`_search_flats`).  `_FlatsRecord` then checks that the set the record
starts from has rank 0, that each recorded cover G of F is a recorded set
holding F with r(G) = r(F) + 1, and that the gains G - F of F's covers
partition E - F.  With the closedness the search vouches for, these prove
that the record is M's lattice of flats with its true covers.  A closed
set of rank 0 holds cl(empty set) and lies inside it, so the record starts
at the least flat.  Along closed sets F < H the rank grows, as r(H) =
r(F) would put H inside cl(F) = F; so a recorded cover of F, one rank up,
has no flat strictly between it and F, and covers F in the lattice of
flats.  Conversely let H cover F there, and take e in H - F.  The
recorded cover G whose gain holds e is closed and holds F + e, so it holds
cl(F + e), whose rank r(F) + 1 is r(G); closed sets nested at equal rank
are equal, so G = cl(F + e) lies inside H, and G = H.  So every cover of a
recorded flat is recorded, and as every flat lies on a chain of covers up
from cl(empty set), every flat is recorded.  The recorded sets are then
all of M's flats and nothing else, closed under intersection as the
closed sets of any closure are, with no pass over pairs.  Every
`FlatLattice` builds its order table from the recorded covers, and the
characteristic polynomials read mu(0, F) off them by Weisner's theorem
(see `_mobius_from_bottom`).  A family that a caller passes to
`FlatLattice` is only compared with the recorded sets.
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
    """Immutable matroid on {0,...,n-1} stored as a family of basis bitsets,
    the same bases in the order the basis-incidence table indexes them,
    and the table."""

    def __init__(self, ground, bases):
        self.ground = ground
        self.bases = frozenset(bases)
        _check_basis_count(len(self.bases))
        self._order, self._holding = self._validate()
        self._everyone = (1 << len(self.bases)) - 1
        self.rank_total = next(iter(self.bases)).bit_count()
        self._flats = None
        self._lattice = None

    def _validate(self):
        """Check the basis family and return the bases in the order the
        incidence table indexes them, and the table."""
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
            rest = B
            while rest:
                low = rest & -rest
                rest ^= low
                holding[low.bit_length() - 1] |= 1 << i
                completing[B ^ low] = completing.get(B ^ low, 0) | low
        short = {}  # completing mask missed by some basis: the bases it reaches
        for mask in set(completing.values()):
            ok, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                ok |= holding[low.bit_length() - 1]
            if ok != everyone:
                short[mask] = ok
        if not short:
            return order, holding
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
        return order, holding

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
    if r == 0:
        return [0]  # no edge joins two vertices: the empty forest only
    forests = []
    members = [[v] for v in range(order)]
    _grow_forests(ends, r, 0, list(range(order)), members, 0, 0, forests)
    return forests


def _grow_forests(ends, r, start, label, members, size, mask, forests):
    """Backtracking over the edges from index `start` on, with `mask` holding
    `size` < r edges already taken, `label[v]` the component of vertex v
    under them and `members[c]` the vertices of component c.  Skipping an
    edge is the loop's next step.  Taking one that joins two components
    completes a forest if it is the r-th edge, and is otherwise the
    recursive call: the smaller component's members move into the larger
    one, and back after.  The walk stops once fewer edges are left than
    the forest still lacks."""
    for i in range(start, len(ends) - r + size + 1):
        u, v = ends[i]
        a, b = label[u], label[v]
        if a == b:
            continue
        if size + 1 == r:
            forests.append(mask | 1 << i)
            _check_basis_count(len(forests), " found so far")
            continue
        moved, into = members[b], members[a]
        if len(moved) > len(into):
            a, b, moved, into = b, a, into, moved
        for w in moved:
            label[w] = a
        into += moved
        _grow_forests(ends, r, i + 1, label, members, size + 1, mask | 1 << i, forests)
        del into[len(into) - len(moved):]
        for w in moved:
            label[w] = b


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
    """Lattice of flats of a matroid, built from the flats search's checked
    record (`_flats_record`): its covers give the order table and its
    ranks the heights, and it proves intersection closure and the
    cover-gain partition (see the module docstring).  `flats`, when
    given, is any iterable of sets, ranks ignored, and must hold each of
    M's flats once; the first stray set in canonical order is named.
    """

    def __init__(self, matroid, flats=None):
        record = _flats_record(matroid)
        if flats is not None:
            _check_family(record.ranks, list(flats))
        super().__init__(matroid.ground.n, record.ranks, _record=record)
        self.bottom = self.elements[0]
        self.top = matroid.ground.full_mask
        self._proved[("_intersection_closed",)] = True
        self._proved[("_gains_partition", self.top)] = True
        if not poset.flats_axioms_hold(self, self.top):
            raise InternalAxiomFailure("flats violate the closure axioms")
        if not poset.is_semimodular_lattice(self):
            raise InternalAxiomFailure("lattice of flats is not semimodular")


def _check_family(ranks, family):
    """Refuse a family that is not each flat of the record `ranks` once."""
    stray = set(family) ^ ranks.keys()
    if stray:
        S = min(stray, key=subsets.sort_key)
        if S in ranks:
            raise InternalAxiomFailure(f"flats lack {_named(S)}, a flat of rank {ranks[S]}")
        raise InternalAxiomFailure(f"flats hold {_named(S)}, which is not closed")
    if len(family) != len(ranks):
        raise InternalAxiomFailure("flats hold a set twice")


def _named(S):
    return "{" + subsets.format_elements(S) + "}"


class _FlatsRecord:
    """The flats search's record: `ranks[F]` = r(F) for each set F it
    found, in the order found, and `covers[F]` the upper covers it found
    for F.  Built only once the premises of the module docstring's proof
    hold: the first set has rank 0, every cover is a found set one rank
    up that holds F, and the covers' gains partition the elements outside
    F, so that no cover is recorded twice for Weisner's sum to count."""

    def __init__(self, M, ranks, covers):
        full = M.ground.full_mask
        first = next(iter(ranks))
        if ranks[first] != 0:
            raise InternalAxiomFailure(
                f"flats search starts at {_named(first)}, of rank {ranks[first]}"
            )
        for F, rank in ranks.items():
            seen, disjoint = 0, True
            for G in covers.get(F, ()):
                if ranks.get(G) != rank + 1 or F & ~G:
                    raise InternalAxiomFailure(
                        f"flats search recorded {_named(G)} as a cover of {_named(F)}, "
                        "not a found set one rank up"
                    )
                disjoint = disjoint and not G & ~F & seen
                seen |= G & ~F
            if not disjoint or seen != full & ~F:
                raise InternalAxiomFailure(
                    f"flats search covers of {_named(F)} do not partition the elements outside it"
                )
        self.ranks, self.covers = ranks, covers


def _flats_record(M):
    """M's lattice of flats as the search's checked record, found once per
    matroid and kept on it."""
    if M._flats is None:
        M._flats = _FlatsRecord(M, *_search_flats(M))
    return M._flats


def _search_flats(M):
    """All closure-closed sets of M, as ({F: r(F)}, {F: upper covers of
    F}), from cl(empty set) on.

    The upper covers of a flat F are the cl(F + e), e outside F, and
    cl(F + e) = cl(F + e') for every e' in cl(F + e) - F, so each cover is
    closed once, and the covers' gains partition the elements outside F.
    Each flat F carries a mask of bases, each meeting F in r(F) elements,
    that includes every basis containing some basis I of F: at
    cl(empty set), from its one `_spanning` call, all the bases meeting
    it in its rank, and at a cover G = cl(F + e), the bases of F's mask
    that hold e, which include every basis containing I + e, a basis of
    G.  If I is a basis of F, then y is outside cl(F) iff some basis
    contains I + y, and that basis lies in F's mask; conversely a basis of
    the mask holding y meets F + y in r(F) + 1 elements.  So cl(F + e) is
    F + e plus every untried y that none of the bases carried to it holds,
    and r(G) is |B & G| for any one of them, read off the lowest.  The
    same mask shows that F is closed: each y outside F lies in one of its
    bases.  A y in none of them is the first e tried or joins the first
    cover, so only that cover's gain is checked, and a set that is not
    closed is refused.
    """
    holding, order = M._holding, M._order
    bottom = M.closure(0)
    found = {bottom: bottom}  # one int per flat, shared by the cover lists
    ranks, covers = {}, {}
    frontier = [(bottom, M._spanning(bottom)[1])]
    full = M.ground.full_mask
    while frontier:
        F, kept = frontier.pop()
        ranks[F] = (order[(kept & -kept).bit_length() - 1] & F).bit_count()
        ups = covers[F] = []
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
            if G in found:
                G = found[G]
            else:
                found[G] = G
                frontier.append((G, spanning))
            ups.append(G)
        if not closed:
            raise InternalAxiomFailure(
                f"flats search found {_named(F)}, which is not closed"
            )
    return ranks, covers


def flats_lattice(M):
    """M's lattice of flats, as a validated FlatLattice built from the
    search's record, once per matroid."""
    if M._lattice is None:
        _flats_record(M)  # a refused search builds no lattice
        M._lattice = FlatLattice(M)
    return M._lattice


def _mobius_from_bottom(record):
    """{F: mu(0, F)} for every flat F, from the record's covers alone.

    Weisner's theorem (Rota 1964) gives, for an atom a <= F != 0, that the
    sum of mu(0, G) over the G with G \\/ a = F is 0.  G = F is one of
    them; for any other a is not below G, and in a semimodular lattice
    G \\/ a then covers G, so G is a lower cover of F; and every lower
    cover G of F with a not below G has G \\/ a = F.  So mu(0, F) is minus
    the sum of mu(0, G) over the lower covers G of F that a is not below.
    For a take the atom cl(0 + e) of the lowest element e of F - 0: a flat
    G lies above it iff e is in G.  Flats are taken rank by rank, so each
    one's lower covers are done before it.
    """
    ranks, covers = record.ranks, record.covers
    bottom = next(iter(ranks))
    layers = [[] for _ in range(max(ranks.values()) + 1)]
    for F, rank in ranks.items():
        layers[rank].append(F)
    mu = {}
    below = {}  # F: the sum so far over F's lower covers without F's e
    for layer in layers:
        for F in layer:
            value = mu[F] = 1 if F == bottom else -below.pop(F)
            for G in covers[F]:
                rest = G & ~bottom
                if not F & rest & -rest:
                    below[G] = below.get(G, 0) + value
    return mu


def _mobius_weighted(M, mu, shift, avoiding=0):
    """The sum of mu(0, F) t^(r(E) - r(F) - shift) over the flats F that
    miss the set `avoiding`."""
    ranks = _flats_record(M).ranks
    top = M.rank_total - shift
    coeffs = [0] * (top + 1)
    for F, value in mu.items():
        if not F & avoiding:
            coeffs[top - ranks[F]] += value
    return UniPoly(coeffs)


def characteristic_polynomial(M):
    """Mobius-weighted rank generating polynomial of the lattice of flats,
    read off the flats search (see `_mobius_from_bottom`)."""
    if not M.is_loopless():
        raise HasLoops(
            "loops present: {{{}}}".format(subsets.format_elements(M.loops()))
        )
    return _mobius_weighted(M, _mobius_from_bottom(_flats_record(M)), 0)


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
    mu = _mobius_from_bottom(_flats_record(M))
    out = _mobius_weighted(M, mu, 1, 1 << i)
    if UniPoly([-1, 1]) * out != _mobius_weighted(M, mu, 0):
        raise DivisibilityFailure("(t - 1) * reduced != characteristic")
    return out
