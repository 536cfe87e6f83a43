"""Graded sub-posets of a Boolean lattice.

Elements are subsets of {0,...,n-1} ordered by inclusion.  Construction
verifies that every closed interval is graded, and caches the interval
rank of each comparable pair.  On top of that sit the Mobius table, the
balancedness and connectivity predicates, and the Weisner identity check.
"""

from collections import deque

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
        self._upper_covers = self._compute_covers()
        self._lower_covers = [[] for _ in elems]
        for i, ups in enumerate(self._upper_covers):
            for j in ups:
                self._lower_covers[j].append(i)
        # interval rank for every comparable pair; raises NotGraded on failure
        self._rank = self._grade_all_intervals()

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
        self.index(K)
        self.index(L)
        if not subsets.is_subset(K, L):
            raise NotAnInterval("endpoints are not nested")
        return [s for s in self.elements if subsets.is_subset(K, s) and subsets.is_subset(s, L)]

    def open_interval(self, K, L):
        return [s for s in self.interval(K, L) if s != K and s != L]

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

    # -- construction helpers -------------------------------------------------

    def _compute_covers(self):
        n_el = len(self.elements)
        ups = [[] for _ in range(n_el)]
        for i, a in enumerate(self.elements):
            for j in range(i + 1, n_el):
                b = self.elements[j]
                if not subsets.is_proper_subset(a, b):
                    continue
                covered = True
                for k in range(i + 1, j):
                    c = self.elements[k]
                    if subsets.is_proper_subset(a, c) and subsets.is_proper_subset(c, b):
                        covered = False
                        break
                if covered:
                    ups[i].append(j)
        return ups

    def _grade_all_intervals(self):
        """Longest-chain ranks for all comparable pairs.

        An interval is graded iff each cover step inside it raises the
        longest-chain height by exactly one; that forces all maximal chains
        to share one length.
        """
        ranks = {}
        n_el = len(self.elements)
        for i in range(n_el):
            bottom = self.elements[i]
            for j in range(i, n_el):
                top = self.elements[j]
                if not subsets.is_subset(bottom, top):
                    continue
                inside = [
                    k
                    for k in range(i, j + 1)
                    if subsets.is_subset(bottom, self.elements[k])
                    and subsets.is_subset(self.elements[k], top)
                ]
                in_set = set(inside)
                height = {i: 0}
                for k in inside:
                    if k == i:
                        continue
                    height[k] = 1 + max(
                        height[p] for p in self._lower_covers[k] if p in in_set
                    )
                for k in inside:
                    for up in self._upper_covers[k]:
                        if up in in_set and height[up] != height[k] + 1:
                            raise NotGraded(
                                "interval [{}, {}] has maximal chains of different "
                                "lengths".format(
                                    "{" + subsets.format_elements(bottom) + "}",
                                    "{" + subsets.format_elements(top) + "}",
                                )
                            )
                ranks[(i, j)] = height[j]
        return ranks


def subposet_from_sets(n, element_sets):
    """Validated graded sub-poset from explicit subsets of the ground set."""
    return GradedSubposet(n, element_sets)


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


def mobius(P):
    """Full Mobius table via mu(a, b) = -sum_{a <= c < b} mu(a, c)."""
    cached = getattr(P, "_mobius_table", None)
    if cached is not None:
        return cached
    table = {}
    els = P.elements
    for i, a in enumerate(els):
        below = []
        for j in range(i, len(els)):
            b = els[j]
            if not subsets.is_subset(a, b):
                continue
            if a == b:
                table[(a, b)] = 1
            else:
                table[(a, b)] = -sum(table[(a, c)] for c in below if subsets.is_subset(c, b))
            below.append(b)
    result = MobiusTable(table)
    P._mobius_table = result
    return result


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
    for K, L in P.comparable_pairs():
        if P.interval_rank(K, L) == 2:
            yield K, L


def is_balanced(P):
    """Every element of L \\ K is hit by equally many middles of each
    rank-2 interval [K, L]."""
    cached = getattr(P, "_balanced", None)
    if cached is not None:
        return cached
    ok = True
    for K, L in _rank2_pairs(P):
        mids = P.open_interval(K, L)
        counts = {
            e: sum(1 for F in mids if (F >> e) & 1)
            for e in subsets.elements(L & ~K)
        }
        if len(set(counts.values())) > 1:
            ok = False
            break
    P._balanced = ok
    return ok


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


def is_interval_connected(P):
    """Comparability graph of every open interval with d >= 2 is connected."""
    for K, L in P.comparable_pairs():
        if P.interval_rank(K, L) < 3:
            continue
        mids = P.open_interval(K, L)
        if not _comparability_connected(mids):
            return False
    return True


def _comparability_connected(mids):
    if len(mids) <= 1:
        return True
    adj = {s: [] for s in mids}
    for i, a in enumerate(mids):
        for b in mids[i + 1:]:
            if subsets.comparable(a, b):
                adj[a].append(b)
                adj[b].append(a)
    seen = {mids[0]}
    queue = deque([mids[0]])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(mids)


def disconnection_witness(P, K, L):
    """Two comparability components of (K, L), or None if connected."""
    mids = P.open_interval(K, L)
    if not mids or _comparability_connected(mids):
        return None
    first = mids[0]
    component = {first}
    queue = deque([first])
    while queue:
        cur = queue.popleft()
        for other in mids:
            if other not in component and subsets.comparable(cur, other):
                component.add(other)
                queue.append(other)
    rest = [s for s in mids if s not in component]
    return sorted(component, key=subsets.sort_key), rest


def is_semimodular_lattice(P):
    """P is a lattice and a \\/ b covers a, b whenever a, b cover a /\\ b.

    The common lower bounds of a and b are the elements below a & b, so
    their meet exists iff the union of those elements lies in P, and is
    then that union.  A finite nonempty poset with a greatest element in
    which every pair has a meet is a lattice, so joins need no search.
    Two distinct upper covers a, b of m have meet m, and their join covers
    a iff some upper cover of a contains b, which is then the join; it
    covers b as well, because the interval from m to it is graded.
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
    has_meet = {}
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            m = a & b
            if m in index:
                continue
            ok = has_meet.get(m)
            if ok is None:
                below = 0
                for c in els:
                    if c & ~m == 0:
                        below |= c
                ok = has_meet[m] = below in index
            if not ok:
                return False
    covers = P._upper_covers
    for ups in covers:
        for x, i in enumerate(ups):
            for j in ups[x + 1:]:
                if not any(els[j] & ~els[k] == 0 for k in covers[i]):
                    return False
    return True


def flats_axioms_hold(P, ground):
    """The three closure axioms: ground membership, intersection closure,
    and cover gains partitioning the complement of each element."""
    if ground not in P:
        return False
    els = P.elements
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            if (a & b) not in P:
                return False
    for K in els:
        seen = 0
        for A in P.upper_covers(K):
            gain = A & ~K
            if gain & seen:
                return False
            seen |= gain
        if seen != ground & ~K:
            return False
    return True


def interval_flats_axioms_hold(P, K, L):
    """Flats axioms for the closed interval [K, L] relative to its endpoints."""
    inside = P.interval(K, L)
    inside_set = set(inside)
    if L not in inside_set:
        return False
    for i, a in enumerate(inside):
        for b in inside[i + 1:]:
            if (a & b) not in inside_set:
                return False
    for F in inside:
        if F == L:
            continue
        seen = 0
        for A in P.upper_covers(F):
            if A not in inside_set:
                continue
            gain = A & ~F
            if gain & seen:
                return False
            seen |= gain
        if seen != L & ~F:
            return False
    return True
