"""Graded sub-posets of a Boolean lattice.

Elements are subsets of {0,...,n-1} ordered by inclusion, indexed in
canonical order, so every element has a higher index than those below it.
One order table answers every order question: `_up[i]` and `_down[i]` are
int bitsets over element indices of the elements above and below element
i, i included.  Covers, interval ranks, intervals (`_up[K] & _down[L]` in
index order), the Mobius table and comparability components all read it.
Construction verifies that every closed interval is graded.  The Mobius
table and the balancedness, connectivity and semimodularity predicates are
each computed once per poset and kept on it.
"""

import functools

from . import subsets
from .errors import (
    HypothesisViolation,
    InvalidParams,
    NotAnInterval,
    NotGraded,
)


class GradedSubposet:
    """Finite sub-poset of a Boolean lattice with graded closed intervals."""

    def __init__(self, n, element_sets):
        if n < 1 or n > subsets.MAX_GROUND:
            raise InvalidParams(f"ground size {n} outside 1..{subsets.MAX_GROUND}")
        elems = list(element_sets)
        if len(set(elems)) != len(elems):
            raise InvalidParams("poset elements must be pairwise distinct")
        full = (1 << n) - 1
        for s in elems:
            if not subsets.is_subset(s, full):
                raise InvalidParams("poset element outside the ground set")
        elems.sort(key=subsets.sort_key)
        self.n = n
        self.elements = tuple(elems)
        self._index = {s: i for i, s in enumerate(elems)}
        up = [1 << i for i in range(len(elems))]
        down = list(up)
        for i, a in enumerate(elems):
            for j in range(i + 1, len(elems)):
                if a & ~elems[j] == 0:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        self._up, self._down = up, down
        self._upper_covers = [self._minimal(up[i] & ~(1 << i)) for i in range(len(elems))]
        self._lower_covers = [[] for _ in elems]
        for i, ups in enumerate(self._upper_covers):
            for j in ups:
                self._lower_covers[j].append(i)
        # interval rank for every comparable pair; raises NotGraded on failure
        self._rank = self._grade_all_intervals()
        self._proved = {}  # predicate results, keyed by (function, *args)

    # -- basic order queries ------------------------------------------------

    def __contains__(self, s):
        return s in self._index

    def __len__(self):
        return len(self.elements)

    def index(self, s):
        try:
            return self._index[s]
        except KeyError:
            raise NotAnInterval(f"{{{subsets.format_elements(s)}}} not in poset") from None

    def leq(self, a, b):
        return a in self._index and b in self._index and subsets.is_subset(a, b)

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def upper_covers(self, s):
        return [self.elements[j] for j in self._upper_covers[self.index(s)]]

    def lower_covers(self, s):
        return [self.elements[j] for j in self._lower_covers[self.index(s)]]

    def interval(self, K, L):
        """Closed interval [K, L] in canonical order."""
        return self._members(self._interval_mask(K, L))

    def open_interval(self, K, L):
        return self._members(self._open_mask(K, L))

    def interval_rank(self, K, L):
        """Common length of all maximal chains of [K, L]."""
        key = (self.index(K), self.index(L))
        if key not in self._rank:
            raise NotAnInterval("endpoints are not comparable in the poset")
        return self._rank[key]

    def interval_degree(self, K, L):
        """d(K, L) = interval rank minus one."""
        return self.interval_rank(K, L) - 1

    def comparable_pairs(self):
        """All (K, L) with K < L, in canonical order of indices."""
        els = self.elements
        # the grading table holds every comparable (i, j), i <= j, in order
        return [(els[i], els[j]) for i, j in self._rank if i < j]

    def maximal_chains(self, K, L):
        """All saturated chains from K to L, as lists of elements."""
        self.interval_rank(K, L)
        inside = set(self.interval(K, L))
        chains = []
        stack = [[K]]
        while stack:
            chain = stack.pop()
            if chain[-1] == L:
                chains.append(chain)
                continue
            ups = [up for up in self.upper_covers(chain[-1]) if up in inside]
            stack.extend(chain + [up] for up in reversed(ups))
        return chains

    # -- order table ------------------------------------------------------------

    def _members(self, mask):
        """Elements whose indices are the set bits of `mask`, in index order."""
        els = self.elements
        return [els[j] for j in subsets.elements(mask)]

    def _interval_mask(self, K, L):
        i, j = self.index(K), self.index(L)
        if not subsets.is_subset(K, L):
            raise NotAnInterval("endpoints are not nested")
        return self._up[i] & self._down[j]

    def _open_mask(self, K, L):
        mask = self._interval_mask(K, L)
        return mask & ~(1 << self._index[K]) & ~(1 << self._index[L])

    def _minimal(self, mask):
        """Indices of the minimal elements of `mask`, in index order: the
        lowest index left is minimal, and everything above it is dropped."""
        out = []
        while mask:
            j = (mask & -mask).bit_length() - 1
            out.append(j)
            mask &= ~self._up[j]
        return out

    def _grade_all_intervals(self):
        """Longest-chain ranks for all comparable pairs.

        Heights above a bottom i do not depend on the top, so they are
        computed once per i.  [i, j] is graded iff no k in it has lower
        covers above i at different heights; such a k breaks every top
        above it, so the first one is the first non-graded top for i.
        """
        ranks = {}
        for i, above in enumerate(self._up):
            height = {i: 0}
            for k in subsets.elements(above & ~(1 << i)):
                below = {height[p] for p in self._lower_covers[k] if (above >> p) & 1}
                if len(below) > 1:
                    raise NotGraded(
                        "interval [{}, {}] has maximal chains of different "
                        "lengths".format(
                            "{" + subsets.format_elements(self.elements[i]) + "}",
                            "{" + subsets.format_elements(self.elements[k]) + "}",
                        )
                    )
                height[k] = 1 + below.pop()
            for k, h in height.items():
                ranks[(i, k)] = h
        return ranks


def subposet_from_sets(n, element_sets):
    """Validated graded sub-poset from explicit subsets of the ground set."""
    return GradedSubposet(n, element_sets)


def _once_per_poset(predicate):
    """predicate(P, *args), computed once per poset and kept on P."""

    @functools.wraps(predicate)
    def proved(P, *args):
        key = (predicate, *args)
        if key not in P._proved:
            P._proved[key] = predicate(P, *args)
        return P._proved[key]

    return proved


# -- Mobius function ----------------------------------------------------------


class MobiusTable:
    """mu(a, b) for every comparable pair a <= b of a finite poset."""

    def __init__(self, table):
        self._table = table

    def mu(self, a, b):
        try:
            return self._table[(a, b)]
        except KeyError:
            raise NotAnInterval("mu requested for a non-comparable pair") from None

    def items(self):
        return self._table.items()


@_once_per_poset
def mobius(P):
    """Full Mobius table via mu(a, b) = -sum_{a <= c < b} mu(a, c)."""
    table = {}
    els = P.elements
    for i, a in enumerate(els):
        above = P._up[i]
        mu = {i: 1}
        for j in subsets.elements(above & ~(1 << i)):
            mu[j] = -sum(mu[c] for c in subsets.elements(above & P._down[j] & ~(1 << j)))
        for j, value in mu.items():
            table[(a, els[j])] = value
    return MobiusTable(table)


def weisner_check(P, x, a, y, table=None):
    """Coatom recursion for mu on a semimodular lattice.

    With a covering x and a < y, checks that mu(x, y) equals minus the sum
    of mu(x, b) over coatoms b of [x, y] that do not lie above a.
    """
    if a not in P.upper_covers(x):
        raise HypothesisViolation("second argument must cover the first")
    if a == y or not P.lt(a, y):
        raise HypothesisViolation("third argument must lie strictly above the atom")
    tbl = table if table is not None else mobius(P)
    total = 0
    for b in P.open_interval(x, y):
        if y in P.upper_covers(b) and not subsets.is_subset(a, b):
            total += tbl.mu(x, b)
    return tbl.mu(x, y) == -total


# -- structural predicates -----------------------------------------------------


def _rank2_pairs(P):
    els = P.elements
    for (i, j), r in P._rank.items():
        if r == 2:
            yield els[i], els[j]


@_once_per_poset
def is_balanced(P):
    """Every element of L \\ K is hit by equally many middles of each
    rank-2 interval [K, L]."""
    for K, L in _rank2_pairs(P):
        mids = P.open_interval(K, L)
        counts = {
            e: sum(1 for F in mids if (F >> e) & 1)
            for e in subsets.elements(L & ~K)
        }
        if len(set(counts.values())) > 1:
            return False
    return True


@_once_per_poset
def is_one_balanced(P):
    """Middles of each rank-2 interval partition L \\ K."""
    for K, L in _rank2_pairs(P):
        seen = 0
        for A in P.open_interval(K, L):
            gain = A & ~K
            if gain & seen:
                return False
            seen |= gain
        if seen != L & ~K:
            return False
    return True


@_once_per_poset
def is_interval_connected(P):
    """Comparability graph of every open interval with d >= 2 is connected."""
    els = P.elements
    for (i, j), r in P._rank.items():
        if r >= 3 and _first_component(P, els[i], els[j])[1]:
            return False
    return True


def disconnection_witness(P, K, L):
    """Two comparability components of (K, L), or None if connected."""
    component, rest = _first_component(P, K, L)
    if not rest:
        return None
    return P._members(component), P._members(rest)


def _first_component(P, K, L):
    """Comparability component of the first element of the open interval
    (K, L), and the rest of it, as index bitsets."""
    mids = P._open_mask(K, L)
    component = frontier = mids & -mids
    while frontier:
        j = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = (P._up[j] | P._down[j]) & mids & ~component
        component |= new
        frontier |= new
    return component, mids & ~component


@_once_per_poset
def is_semimodular_lattice(P):
    """P is a lattice and a \\/ b covers a, b whenever a, b cover a /\\ b.

    When a & b lies in P it is the meet of a and b.  Otherwise their common
    lower bounds are `_down[i] & _down[j]`; indices extend the order, so
    the meet exists iff that set is nonempty and its highest index k has
    exactly it below, and is then element k.  A finite nonempty poset with
    a greatest element in which every pair has a meet is a lattice, so
    joins need no search.  Two distinct upper covers a, b of m have meet
    m, and their join covers a iff some upper cover of a contains b, which
    is then the join; it covers b as well, because the interval from m to
    it is graded.
    """
    els = P.elements
    if not els:
        return True
    index = P._index
    top = 0
    for a in els:
        top |= a
    if top not in index:
        return False
    down = P._down
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            if a & b in index:
                continue
            lower = down[i] & down[index[b]]
            if not lower or down[lower.bit_length() - 1] != lower:
                return False
    covers = P._upper_covers
    for ups in covers:
        for x, i in enumerate(ups):
            for j in ups[x + 1:]:
                if not any(els[j] & ~els[k] == 0 for k in covers[i]):
                    return False
    return True


def _flats_axioms(P, mask, top):
    """Flats axioms on the elements whose indices are the set bits of
    `mask`, relative to `top`: top is one of them, they are closed under
    intersection, and for each of them, F, the gains of its upper covers
    inside the mask partition top minus F."""
    members = P._members(mask)
    inside = set(members)
    if top not in inside:
        return False
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if (a & b) not in inside:
                return False
    els = P.elements
    for i in subsets.elements(mask):
        F = els[i]
        seen = 0
        for j in P._upper_covers[i]:
            if (mask >> j) & 1:
                gain = els[j] & ~F
                if gain & seen:
                    return False
                seen |= gain
        if seen != top & ~F:
            return False
    return True


@_once_per_poset
def flats_axioms_hold(P, ground):
    """The three closure axioms: ground membership, intersection closure,
    and cover gains partitioning the complement of each element."""
    return _flats_axioms(P, (1 << len(P)) - 1, ground)


def interval_flats_axioms_hold(P, K, L):
    """Flats axioms for the closed interval [K, L] relative to its endpoints."""
    return _flats_axioms(P, P._interval_mask(K, L), L)
