"""Graded sub-posets of a Boolean lattice.

Elements are subsets of {0,...,n-1} ordered by inclusion, indexed in
canonical order, so every element has a higher index than those below it.
One order table answers every order question: `_up[i]` and `_down[i]` are
int bitsets over element indices of the elements above and below element
i, i included.  `_up[i]` is the AND, over the points e of element i, of
the elements holding e, and `_down[j]` the AND, over the points outside
element j, of the elements lacking them.  When the covers are known (a
lattice of flats from its search, see `matroid`), `_up` and `_down` are
instead propagated over them: `_up[i]` is i and the `_up` of its upper
covers, taken from the highest index down, and `_down` likewise from the
lowest index up over the lower covers.  Covers, interval ranks,
intervals (`_up[K] & _down[L]` in index order), the Mobius table and
comparability components all read it.  The Mobius table and the
balancedness, connectivity and semimodularity predicates are each computed
once per poset and kept on it.  Each check takes a shortcut that is exact:

- Grading walks up from the minimal elements only.  A maximal chain of
  [i, k] preceded by one of [m, i], for a minimal m <= i, is a maximal
  chain of [m, k]; so if every [m, k] is graded, so is every [i, k], with
  rank h_m(k) - h_m(i) for the heights h_m above m.  The lowest index
  below i is such an m, and any failing [i, k] makes [m, k] fail with m
  of lower index, so the first `NotGraded` is the one a walk from every
  bottom would raise.
- Rank-2 intervals come from 2-chains.  L is an upper cover of an upper
  cover of K exactly when [K, L] has rank 2, and then its middles are the
  upper covers of K that L covers; grouping 2-chains by their top lists
  every rank-2 interval with its middles and nothing else.
- Connectivity absorbs atoms.  Every element of an open interval (K, L)
  lies above an atom of [K, L], the upper covers of K below L.  The
  elements above the atoms absorbed so far form a set closed under
  comparability once no further atom's up-set meets it, and connected, so
  absorbing atoms from the first one gives its comparability component,
  and (K, L) is connected iff that takes all.
- Connectivity follows from semimodularity.  In a semimodular lattice
  two atoms a, b of [K, L] meet in K, so a \\/ b covers both, has rank 2
  above K and, when [K, L] has rank >= 3, lies in (K, L); every element
  of (K, L) lies above an atom, so (K, L) is connected.
  `is_interval_connected` returns True, with no walk, once
  `is_semimodular_lattice` is proved on P.
- 1-balancedness follows from the flats axioms.  If they hold for a ground
  set G, every element X lies inside G: else X & G is in P, below X, and
  an upper cover of it inside X would gain points outside G.  So for a
  rank-2 interval [K, L] and e in L \\ K, exactly one upper cover A of K
  gains e; A & L is in P, holds e and lies in [K, A], so it is A, and A
  is a middle of [K, L].  The gains of the covers of K are disjoint, so
  the middles' gains partition L \\ K.  `is_one_balanced`
  returns True, with no walk, once `flats_axioms_hold` is proved on P.
  Neither shortcut computes its premise; each only reads a result already
  kept on P, as `is_balanced` reads 1-balancedness.
- Intersection closure is shared.  `flats_axioms_hold` and
  `is_semimodular_lattice` read one answer, `_intersection_closed`, which
  passes over all pairs of elements unless it is already kept on P;
  `FlatLattice` keeps it for a lattice of flats, where the matroid proves
  it (see `matroid`).  An interval [K, L] is convex, so its covers are
  P's covers inside it, and `interval_flats_axioms_hold` checks it as a
  poset of its own.
- Mobius rows come on demand: `mobius(P)` computes the row of a when
  mu(a, .) is first asked.  The table keeps P's order data, not P, so P, which
  keeps its table, is freed by reference counting alone, and the table
  still answers after P is gone.
"""

import functools

from . import subsets
from .errors import InvalidParams, NotAnInterval, NotGraded


class GradedSubposet:
    """Finite sub-poset of a Boolean lattice with graded closed intervals."""

    def __init__(self, n, element_sets, _covers=None):
        """`_covers`, when given, maps each element set to the list of its
        upper covers, and is trusted to be the cover relation of the sets:
        only the flats search's checked record is passed (see `matroid`)."""
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
        self._index = index = {s: i for i, s in enumerate(elems)}
        if _covers is None:
            self._up, self._down = self._order_by_points()
            self._upper_covers = [
                self._minimal(up & ~(1 << i)) for i, up in enumerate(self._up)
            ]
        else:
            self._upper_covers = [sorted(index[G] for G in _covers[s]) for s in elems]
        self._lower_covers = [[] for _ in elems]
        for i, ups in enumerate(self._upper_covers):
            for j in ups:
                self._lower_covers[j].append(i)
        if _covers is not None:
            self._up = _reach(self._upper_covers, reversed(range(len(elems))))
            self._down = _reach(self._lower_covers, range(len(elems)))
        # _rank[i][k] - _rank[i][i] is the rank of [i, k]; raises NotGraded
        self._rank = self._grade_all_intervals()
        self._proved = {}  # predicate results, keyed by (name, *args)

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

    def upper_covers(self, s):
        return [self.elements[j] for j in self._upper_covers[self.index(s)]]

    def interval(self, K, L):
        """Closed interval [K, L] in canonical order."""
        return self._members(self._interval_mask(K, L))

    def open_interval(self, K, L):
        return self._members(self._open_mask(K, L))

    def interval_rank(self, K, L):
        """Common length of all maximal chains of [K, L]."""
        i, j = self.index(K), self.index(L)
        if not (self._up[i] >> j) & 1:
            raise NotAnInterval("endpoints are not comparable in the poset")
        height = self._rank[i]
        return height[j] - height[i]

    def interval_degree(self, K, L):
        """d(K, L) = interval rank minus one."""
        return self.interval_rank(K, L) - 1

    def comparable_pairs(self):
        """All (K, L) with K < L, in canonical order of indices."""
        els = self.elements
        return [
            (a, els[j])
            for i, a in enumerate(els)
            for j in subsets.elements(self._up[i] & ~(1 << i))
        ]

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

    def _order_by_points(self):
        """`_up` and `_down` from the elements holding each point."""
        els = self.elements
        everyone = (1 << len(els)) - 1
        has = [0] * self.n  # has[e]: the elements holding point e
        for i, s in enumerate(els):
            for e in subsets.elements(s):
                has[e] |= 1 << i
        up, down = [], []
        for s in els:
            above = below = everyone
            for e, holders in enumerate(has):
                if (s >> e) & 1:
                    above &= holders
                else:
                    below &= ~holders
            up.append(above)
            down.append(below)
        return up, down

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
        """For each element i, the heights above the lowest element below
        it, which is minimal (see the module docstring).

        [m, j] is graded iff no k in it has lower covers above m at
        different heights; such a k breaks every top above it, so the
        first one is the first non-graded top for m.
        """
        heights = {}
        for m, above in enumerate(self._up):
            if self._down[m] != 1 << m:
                continue
            height = {m: 0}
            for k in subsets.elements(above & ~(1 << m)):
                below = {height[p] for p in self._lower_covers[k] if (above >> p) & 1}
                if len(below) > 1:
                    raise NotGraded(
                        "interval [{}, {}] has maximal chains of different "
                        "lengths".format(
                            "{" + subsets.format_elements(self.elements[m]) + "}",
                            "{" + subsets.format_elements(self.elements[k]) + "}",
                        )
                    )
                height[k] = 1 + below.pop()
            heights[m] = height
        return [heights[(d & -d).bit_length() - 1] for d in self._down]


def _reach(covers, order):
    """For each index i, the bitset of i and every index reached from it
    along `covers`; `order` visits the indices in covers[i] before i."""
    reach = [0] * len(covers)
    for i in order:
        mask = 1 << i
        for j in covers[i]:
            mask |= reach[j]
        reach[i] = mask
    return reach


def _once_per_poset(predicate):
    """predicate(P, *args), computed once per poset and kept on P."""

    @functools.wraps(predicate)
    def proved(P, *args):
        key = (predicate.__name__, *args)
        if key not in P._proved:
            P._proved[key] = predicate(P, *args)
        return P._proved[key]

    return proved


# -- Mobius function ----------------------------------------------------------


class MobiusTable:
    """mu(a, b) for every comparable pair a <= b of a finite poset, one row
    mu(a, .) at a time, each computed when first asked for.  Built from
    the poset by `mobius(P)`."""

    def __init__(self, P):
        self._elements, self._index = P.elements, P._index
        self._up, self._down = P._up, P._down
        self._rows = {}

    def _row(self, i):
        """{j: mu(a, b)} for element i = a and every j = b above it, by
        mu(a, b) = -sum_{a <= c < b} mu(a, c)."""
        if i not in self._rows:
            above = self._up[i]
            mu = {i: 1}
            for j in subsets.elements(above & ~(1 << i)):
                mu[j] = -sum(mu[c] for c in subsets.elements(above & self._down[j] & ~(1 << j)))
            self._rows[i] = mu
        return self._rows[i]

    def mu(self, a, b):
        try:
            return self._row(self._index[a])[self._index[b]]
        except KeyError:
            raise NotAnInterval("mu requested for a non-comparable pair") from None

    def items(self):
        """Every ((a, b), mu(a, b)), by a and then b in canonical order."""
        els = self._elements
        return {
            (a, els[j]): value
            for i, a in enumerate(els)
            for j, value in self._row(i).items()
        }.items()


@_once_per_poset
def mobius(P):
    """Mobius table of P; rows are computed as they are asked for."""
    return MobiusTable(P)


# -- structural predicates -----------------------------------------------------


def _rank2_middles(P):
    """(K, L, middles) for every rank-2 interval [K, L], as indices, from
    the 2-chains K < A < L of covers grouped by their top L."""
    covers = P._upper_covers
    for k, atoms in enumerate(covers):
        middles = {}
        for a in atoms:
            for top in covers[a]:
                middles.setdefault(top, []).append(a)
        for top, mids in middles.items():
            yield k, top, mids


@_once_per_poset
def is_balanced(P):
    """Every element of L \\ K is hit by equally many middles of each
    rank-2 interval [K, L].  Once P is proved 1-balanced the middles
    partition L \\ K, so every element is hit exactly once."""
    if P._proved.get(("is_one_balanced",)):
        return True
    els = P.elements
    for k, top, mids in _rank2_middles(P):
        K = els[k]
        counts = dict.fromkeys(subsets.elements(els[top] & ~K), 0)
        for a in mids:
            for e in subsets.elements(els[a] & ~K):
                counts[e] += 1
        if len(set(counts.values())) > 1:
            return False
    return True


@_once_per_poset
def is_one_balanced(P):
    """Middles of each rank-2 interval partition L \\ K.  True without a
    walk once the flats axioms are proved on P for any ground set (see the
    module docstring)."""
    if any(ok for (name, *_), ok in P._proved.items() if name == "flats_axioms_hold"):
        return True
    els = P.elements
    for k, top, mids in _rank2_middles(P):
        K = els[k]
        seen = 0
        for a in mids:
            gain = els[a] & ~K
            if gain & seen:
                return False
            seen |= gain
        if seen != els[top] & ~K:
            return False
    return True


@_once_per_poset
def is_interval_connected(P):
    """Comparability graph of every open interval with d >= 2 is connected.
    True without a walk once P is proved a semimodular lattice (see the
    module docstring)."""
    if P._proved.get(("is_semimodular_lattice",)):
        return True
    for k, above in enumerate(P._up):
        height = P._rank[k]
        for top in subsets.elements(above):
            if height[top] - height[k] >= 3:
                mids = above & P._down[top] & ~(1 << k) & ~(1 << top)
                if _comparability_split(P, k, mids)[1]:
                    return False
    return True


def _comparability_split(P, k, mids):
    """Comparability component of the first element of the open interval
    `mids` above element k, and the rest of it, as index bitsets; (0, 0)
    when the interval is empty.  That first element is the first atom, and
    the component grows from its up-set by absorbing every atom whose
    up-set meets it, until none joins (see the module docstring)."""
    if not mids:
        return 0, 0
    up = P._up
    first, *left = [a for a in P._upper_covers[k] if (mids >> a) & 1]
    component = up[first] & mids
    joined = True
    while joined:
        joined, stay = False, []
        for a in left:
            if up[a] & component:
                component |= up[a] & mids
                joined = True
            else:
                stay.append(a)
        left = stay
    return component, mids & ~component


@_once_per_poset
def is_semimodular_lattice(P):
    """P is a lattice and a \\/ b covers a, b whenever a, b cover a /\\ b.

    When a & b lies in P it is the meet of a and b.  Otherwise their common
    lower bounds are `_down[i] & _down[j]`; indices extend the order, so
    the meet exists iff that set is nonempty and its highest index k has
    exactly it below, and is then element k.  A finite nonempty poset with
    a greatest element in which every pair has a meet is a lattice, so
    joins need no search, and neither do meets when P is closed under
    intersection.  Two distinct upper covers a, b of m have meet m, and
    their join covers a iff some upper cover of a contains b, which is
    then the join; it covers b as well, because the interval from m to it
    is graded.
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
    if not _intersection_closed(P):
        down = P._down
        for i, a in enumerate(els):
            for b in els[i + 1:]:
                if a & b in index:
                    continue
                lower = down[i] & down[index[b]]
                if not lower or down[lower.bit_length() - 1] != lower:
                    return False
    covers, up = P._upper_covers, P._up
    over = [sum(1 << k for k in ks) for ks in covers]  # upper covers, as bitsets
    for ups in covers:
        for x, i in enumerate(ups):
            for j in ups[x + 1:]:
                if not up[j] & over[i]:
                    return False
    return True


@_once_per_poset
def _intersection_closed(P):
    """The elements of P are closed under intersection, by the pass over
    pairs unless the answer is already kept on P."""
    return _pairwise_intersection_closed(P)


def _pairwise_intersection_closed(P):
    inside = P._index
    els = P.elements
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            if a & b not in inside:
                return False
    return True


@_once_per_poset
def _gains_partition(P, top):
    """For each element F, the gains of its upper covers partition top
    minus F."""
    els = P.elements
    for i, F in enumerate(els):
        seen = 0
        for j in P._upper_covers[i]:
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
    return ground in P and _intersection_closed(P) and _gains_partition(P, ground)


def interval_flats_axioms_hold(P, K, L):
    """Flats axioms for the closed interval [K, L] relative to L."""
    return flats_axioms_hold(GradedSubposet(P.n, P.interval(K, L)), L)
