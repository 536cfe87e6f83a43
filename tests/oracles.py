"""Brute-force reference implementations used to pin expected values.

Everything here works on frozensets and dense coefficient lists,
deliberately sharing no code or data layout with the package under test.
The exceptions are the basis scans the package replaced, which work on
int bitsets as it did, and the projection, polynomial and Lorentzian
oracles at the end; see there.
"""

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement

from conepol import subsets
from conepol.cone import IntervalCoords, IntervalVector, projection_weights
from conepol.errors import ConepolError, UnknownVariable
from conepol.intervalpoly import full_contraction
from conepol.lorentz import _check_symmetric
from conepol.multipoly import (
    MultiPoly,
    _coordinate,
    dir_derivative,
    hessian_of_quadratic,
    substitute_affine,
)


def powerset(universe):
    items = sorted(universe)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def rank_of(bases, S):
    S = frozenset(S)
    return max(len(S & B) for B in bases)


def closure_of(universe, bases, S):
    S = frozenset(S)
    r = rank_of(bases, S)
    return frozenset(e for e in universe if rank_of(bases, S | {e}) == r) | S


def all_flats(universe, bases):
    """Closures of every subset; full 2^n sweep."""
    universe = frozenset(universe)
    return {closure_of(universe, bases, frozenset(s)) for s in powerset(universe)}


def mobius_table(flats):
    """mu(a, b) on the inclusion order via the defining recursion."""
    ordered = sorted(flats, key=lambda f: (len(f), sorted(f)))
    table = {}
    for a in ordered:
        for b in ordered:
            if not a <= b:
                continue
            if a == b:
                table[(a, b)] = 1
            else:
                table[(a, b)] = -sum(
                    table[(a, c)] for c in ordered if a <= c and c < b
                )
    return table


def charpoly_coeffs_ascending(universe, bases):
    """Characteristic polynomial by the Mobius recursion, dense ascending ints."""
    universe = frozenset(universe)
    flats = all_flats(universe, bases)
    table = mobius_table(flats)
    bottom = closure_of(universe, bases, frozenset())
    top_rank = rank_of(bases, universe)
    coeffs = [0] * (top_rank + 1)
    for F in flats:
        coeffs[top_rank - rank_of(bases, F)] += table[(bottom, F)]
    return coeffs


def reduced_coeffs_ascending(universe, bases):
    """chi / (t - 1) by exact synthetic division; remainder must vanish."""
    chi = charpoly_coeffs_ascending(universe, bases)
    # divide ascending-coefficient chi by (t - 1): synthetic division at t=1
    desc = list(reversed(chi))
    out = []
    carry = 0
    for c in desc:
        carry = c + carry
        out.append(carry)
    remainder = out.pop()
    assert remainder == 0, "chi not divisible by t - 1"
    return list(reversed(out))


def spanning_forests(n_vertices, edges):
    """All maximal spanning forests by exhaustive subset check."""
    def is_forest(subset):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for idx in subset:
            u, v = edges[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    best = 0
    forests = []
    for s in powerset(range(len(edges))):
        if is_forest(s):
            if len(s) > best:
                best = len(s)
                forests = [frozenset(s)]
            elif len(s) == best:
                forests.append(frozenset(s))
    return forests


def spanning_forests_by_recursion(order, ends):
    """Maximal spanning forests of the multigraph on vertices 0..order-1
    with edges `ends`, as edge bitsets, in the order of a backtracking
    recursion that takes each edge joining two components before skipping
    it, relabelling the whole second component on every take."""
    label = list(range(order))
    r = 0
    for u, v in ends:
        a, b = label[u], label[v]
        if a != b:
            label = [a if c == b else c for c in label]
            r += 1
    forests = []

    def grow(i, label, size, mask):
        if size == r:
            forests.append(mask)
            return
        if len(ends) - i < r - size:
            return
        u, v = ends[i]
        a, b = label[u], label[v]
        if a != b:
            moved = [w for w, c in enumerate(label) if c == b]
            for w in moved:
                label[w] = a
            grow(i + 1, label, size + 1, mask | 1 << i)
            for w in moved:
                label[w] = b
        grow(i + 1, label, size, mask)

    grow(0, list(range(order)), 0, 0)
    return forests


FANO_LINES = [
    frozenset({0, 1, 2}),
    frozenset({0, 3, 4}),
    frozenset({0, 5, 6}),
    frozenset({1, 3, 5}),
    frozenset({1, 4, 6}),
    frozenset({2, 3, 6}),
    frozenset({2, 4, 5}),
]


def fano_bases():
    return [
        frozenset(c)
        for c in combinations(range(7), 3)
        if frozenset(c) not in FANO_LINES
    ]


def float_inertia(rows, tol=1e-9):
    """Sign counts from a floating eigensolver; None if any eigenvalue is
    too small to trust."""
    import numpy as np

    arr = np.array([[float(Fraction(v)) for v in row] for row in rows], dtype=float)
    eigs = np.linalg.eigvalsh(arr)
    if any(abs(e) <= tol for e in eigs):
        return None
    plus = int(sum(1 for e in eigs if e > tol))
    minus = int(sum(1 for e in eigs if e < -tol))
    return (plus, 0, minus)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def rref(rows):
    """Dense Fraction reduced row echelon form, in place; returns
    (rank, pivot_columns)."""
    if not rows:
        return 0, []
    ncols = len(rows[0])
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][col]
        rows[rank] = [v / piv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rank, pivots


def kernel_basis(rows, ncols):
    """Basis of {x : rows . x = 0} from the reduced echelon form, one vector
    per free column."""
    work = [[Fraction(v) for v in r] for r in rows]
    rank, pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def pairwise_submodularity_margins(K, L, values):
    """v(A) + v(B) - v(A & B) - v(A | B) over every incomparable pair of
    sets strictly between K and L, by exhaustive pair sweep.  `values` maps
    those sets, as frozensets, to rationals; K and L count as 0."""
    K, L = frozenset(K), frozenset(L)

    def v(S):
        return 0 if S in (K, L) else values[S]

    middles = [K | frozenset(s) for s in powerset(L - K)][1:-1]
    return [
        v(A) + v(B) - v(A & B) - v(A | B)
        for a, A in enumerate(middles)
        for B in middles[a + 1:]
        if not (A <= B or B <= A)
    ]


def charpoly_descending(rows):
    """Coefficients of det(tI - A) by the Berkowitz method, leading first.

    Division free, so it stays exact over any commutative ring; here the
    entries are rationals anyway.
    """
    A = [[Fraction(v) for v in row] for row in rows]
    n = len(A)
    coeffs = [Fraction(1)]
    for i in range(n):
        items = [Fraction(1), -A[i][i]]
        if i:
            row = A[i][:i]
            vec = [A[j][i] for j in range(i)]
            for k in range(i):
                items.append(-sum(r * v for r, v in zip(row, vec)))
                if k < i - 1:
                    vec = [
                        sum(A[r][c] * vec[c] for c in range(i)) for r in range(i)
                    ]
        new = []
        for s in range(i + 2):
            acc = Fraction(0)
            for j, item in enumerate(items):
                if j > s:
                    break
                if s - j < len(coeffs):
                    acc += item * coeffs[s - j]
            new.append(acc)
        coeffs = new
    return coeffs


def descartes_inertia(rows):
    """Exact (n_plus, n_zero, n_minus) of a symmetric rational matrix from
    its characteristic polynomial: the zero count is the multiplicity of the
    zero root, and the positive count is the number of sign variations among
    the remaining coefficients, which Descartes' rule makes exact because
    symmetric matrices are real rooted."""
    n = len(rows)
    coeffs = charpoly_descending(rows)
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    n_plus = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (n_plus, n_zero, n - n_plus - n_zero)


def semimodular_lattice(P):
    """P is a lattice and a \\/ b covers a, b whenever a, b cover a /\\ b,
    by listing every pair's common lower and upper bounds and searching
    each list for its greatest and least member."""
    els = P.elements
    meets = {}
    joins = {}
    for i, a in enumerate(els):
        for b in els[i:]:
            lowers = [c for c in els if c & ~a == 0 and c & ~b == 0]
            top_lowers = [c for c in lowers if all(d & ~c == 0 for d in lowers)]
            uppers = [c for c in els if a & ~c == 0 and b & ~c == 0]
            bot_uppers = [c for c in uppers if all(c & ~d == 0 for d in uppers)]
            if len(top_lowers) != 1 or len(bot_uppers) != 1:
                return False
            meets[(a, b)] = top_lowers[0]
            joins[(a, b)] = bot_uppers[0]
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            m = meets[(a, b)]
            if a in P.upper_covers(m) and b in P.upper_covers(m):
                j = joins[(a, b)]
                if j not in P.upper_covers(a) or j not in P.upper_covers(b):
                    return False
    return True


def intersection_closed(sets):
    """Every two of `sets` (int bitsets) meet in one of them, tested pair
    by pair: the pass `poset` keeps for posets whose closure it cannot
    prove."""
    inside = set(sets)
    return all(a & b in inside for a, b in combinations(sets, 2))


def flats_axioms_failure(P, inside, top):
    """First flats axiom that the elements `inside` of P (a list) break
    relative to `top`, or None: "missing top", then "intersection not
    closed" over every pair, then "covers not partitioning" when the gains
    of some F's upper covers in `inside` overlap or miss part of top - F.
    The earlier pairwise check behind both `flats_axioms_hold` (with all of
    P) and `interval_flats_axioms_hold` (with [K, L] and top L)."""
    inside_set = set(inside)
    if top not in inside_set:
        return "missing top"
    for i, a in enumerate(inside):
        for b in inside[i + 1:]:
            if (a & b) not in inside_set:
                return "intersection not closed"
    for F in inside:
        seen = 0
        for A in P.upper_covers(F):
            if A not in inside_set:
                continue
            gain = A & ~F
            if gain & seen:
                return "covers not partitioning"
            seen |= gain
        if seen != top & ~F:
            return "covers not partitioning"
    return None


def _open_intervals(P):
    """(K, L, middles) for every comparable K < L of P, middles in
    canonical order, found by subset tests on every element."""
    els = P.elements
    for K in els:
        for L in els:
            if K != L and K & ~L == 0:
                yield K, L, [c for c in els if c not in (K, L) and K & ~c == 0 and c & ~L == 0]


def _has_comparable_pair(mids):
    return any(a & ~b == 0 for i, a in enumerate(mids) for b in mids[i + 1:])


def _rank2_intervals(P):
    """(K, L, middles) for every rank-2 interval of a graded P: those whose
    open interval is a nonempty antichain."""
    for K, L, mids in _open_intervals(P):
        if mids and not _has_comparable_pair(mids):
            yield K, L, mids


def is_balanced(P):
    """Per rank-2 interval, every element of L - K counted over its middles."""
    for K, L, mids in _rank2_intervals(P):
        counts = {e: sum(1 for F in mids if (F >> e) & 1)
                  for e in range(L.bit_length()) if ((L & ~K) >> e) & 1}
        if len(set(counts.values())) > 1:
            return False
    return True


def is_one_balanced(P):
    """Per rank-2 interval, the gains of its middles partition L - K."""
    for K, L, mids in _rank2_intervals(P):
        seen = 0
        for A in mids:
            gain = A & ~K
            if gain & seen:
                return False
            seen |= gain
        if seen != L & ~K:
            return False
    return True


def is_interval_connected(P):
    """Breadth-first search of the comparability graph of every open
    interval that holds a comparable pair, which in a graded poset are
    those of rank at least 3."""
    for _, _, mids in _open_intervals(P):
        if not _has_comparable_pair(mids):
            continue
        component, queue = {mids[0]}, [mids[0]]
        while queue:
            cur = queue.pop(0)
            for other in mids:
                if other not in component and (cur & ~other == 0 or other & ~cur == 0):
                    component.add(other)
                    queue.append(other)
        if len(component) != len(mids):
            return False
    return True


def mobius_items(P):
    """Every ((a, b), mu(a, b)) of P, by a and then b in canonical order,
    all computed up front by mu(a, b) = -sum_{a <= c < b} mu(a, c)."""
    els = P.elements
    table = {}
    for a in els:
        for b in els:
            if a & ~b == 0:
                table[(a, b)] = 1 if a == b else -sum(
                    table[(a, c)] for c in els if c != b and a & ~c == 0 and c & ~b == 0
                )
    return list(table.items())


def is_lattice(P):
    """Every pair has a greatest common lower and a least common upper
    bound, by exhaustive search."""
    els = P.elements
    for a in els:
        for b in els:
            lowers = [c for c in els if c & ~(a & b) == 0]
            uppers = [c for c in els if (a | b) & ~c == 0]
            if not any(all(d & ~c == 0 for d in lowers) for c in lowers):
                return False
            if not any(all(c & ~d == 0 for d in uppers) for c in uppers):
                return False
    return True


def graded_order(n, sets):
    """Upper covers and interval ranks of a family of subsets of range(n)
    under inclusion, walking every closed interval on its own.

    `sets` holds int bitsets, as `GradedSubposet` takes them; they are
    turned into frozensets first.  Returns (upper, ranks, None) where
    `upper` maps each set to its upper covers and `ranks` maps each
    comparable (bottom, top), bottom == top included, to its rank, both in
    canonical order (bottoms, then tops).  If some interval has maximal
    chains of different lengths, returns (upper, None, (bottom, top)) for
    the first such interval in that order.
    """
    family = {frozenset(e for e in range(n) if (s >> e) & 1) for s in sets}
    ordered = sorted(family, key=lambda f: (len(f), sorted(f)))
    upper = {}
    for a in ordered:
        above = [b for b in ordered if a < b]
        upper[a] = [b for b in above if not any(a < c < b for c in above)]
    ranks = {}
    for a in ordered:
        for b in ordered:
            if not a <= b:
                continue
            inside = [c for c in ordered if a <= c <= b]
            height = {a: 0}
            for c in inside[1:]:
                height[c] = 1 + max(height[p] for p in inside if c in upper[p])
            for c in inside:
                for d in upper[c]:
                    if d in height and height[d] != height[c] + 1:
                        return upper, None, (a, b)
            ranks[(a, b)] = height[b]
    return upper, ranks, None


def comparability_components(mids):
    """Components of the comparability graph on `mids`, a list of
    frozensets in canonical order, by breadth-first search.  Each
    component keeps that order; components come in order of their first
    member."""
    left = list(mids)
    components = []
    while left:
        component = {left[0]}
        queue = [left[0]]
        while queue:
            cur = queue.pop(0)
            for other in left:
                if other not in component and (cur <= other or other <= cur):
                    component.add(other)
                    queue.append(other)
        components.append([m for m in left if m in component])
        left = [m for m in left if m not in component]
    return components


def spanning_bases_scan(bases, S):
    """The bases meeting S in rank(S) elements, from one pass over the
    bases (int bitsets, as is S)."""
    best, kept = -1, []
    for B in bases:
        k = (S & B).bit_count()
        if k > best:
            best, kept = k, [B]
        elif k == best:
            kept.append(B)
    return kept


def rank_by_scan(bases, S):
    return max((S & B).bit_count() for B in bases)


def closure_by_scan(full, bases, S):
    """S plus every element outside the union of the bases spanning S."""
    escape = 0
    for B in spanning_bases_scan(bases, S):
        escape |= B
    return S | (full & ~escape)


def graphic_bases_by_combinations(edges):
    """Bases of the cycle matroid as edge bitsets: every r-subset of the
    edges that a fresh union-find finds acyclic, r the rank of all edges."""
    vertices = sorted({v for e in edges for v in e})
    v_index = {v: i for i, v in enumerate(vertices)}

    def forest_rank(combo):
        parent = list(range(len(vertices)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = 0
        for i in combo:
            u, v = edges[i]
            ru, rv = find(v_index[u]), find(v_index[v])
            if ru != rv:
                parent[ru] = rv
                count += 1
        return count

    r = forest_rank(range(len(edges)))
    return {
        sum(1 << i for i in combo)
        for combo in combinations(range(len(edges)), r)
        if forest_rank(combo) == r
    }


def first_exchange_violation(bases):
    """First (x, B1, B2) with x in B1 - B2 and no y in B2 - B1 making
    B1 - x + y a basis, or None.  Bases are int bitsets; pairs are walked
    in the iteration order of `bases` and x in increasing order, so given
    the frozenset a matroid holds it finds the same first violation as the
    package's exhaustive check."""
    as_sets = {B: frozenset(i for i in range(B.bit_length()) if (B >> i) & 1)
               for B in bases}
    family = set(as_sets.values())
    for B1 in bases:
        S1 = as_sets[B1]
        for B2 in bases:
            S2 = as_sets[B2]
            for x in sorted(S1 - S2):
                if not any((S1 - {x}) | {y} in family for y in S2 - S1):
                    return x, B1, B2
    return None


def chain_exponents(flats, k):
    """Exponent tuples of degree k over `flats` (int bitsets) whose support
    is a chain, by filtering every multiset of k flats in the order
    combinations_with_replacement gives them."""
    n = len(flats)
    out = []
    for combo in combinations_with_replacement(range(n), k):
        support = sorted(set(combo))
        if all(flats[a] & ~flats[b] == 0 or flats[b] & ~flats[a] == 0
               for x, a in enumerate(support) for b in support[x + 1:]):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def pairwise_relation_rows(flats, ground, below, above):
    """Rows {column: coefficient} of m * (sum of x_F over F holding i minus
    sum of x_F over F holding j) for every m in `below` and every pair
    i < j of the elements of the bitset `ground`, keeping only the bumps of
    m whose support stays a chain; columns index `above`.  Both lists hold
    exponent tuples over `flats`."""
    column = {m: c for c, m in enumerate(above)}
    els = [e for e in range(ground.bit_length()) if (ground >> e) & 1]
    rows = []
    for m in below:
        bumps = []
        for pos in range(len(flats)):
            bumped = list(m)
            bumped[pos] += 1
            if tuple(bumped) in column:
                bumps.append((flats[pos], column[tuple(bumped)]))
        for x, i in enumerate(els):
            for j in els[x + 1:]:
                row = {}
                for F, col in bumps:
                    bit = ((F >> i) & 1) - ((F >> j) & 1)
                    if bit:
                        row[col] = bit
                if row:
                    rows.append(row)
    return rows


class BadNesting(ConepolError):
    pass


def project(t, F, G):
    """Linear projection onto the sub-interval (F, G): each output
    coordinate is t_S corrected by the endpoint values t_F and t_G with the
    weights of `cone.projection_weights`, which the interval polynomials'
    lift reads."""
    coords = t.coords
    if not (
        subsets.is_subset(coords.K, F)
        and subsets.is_proper_subset(F, G)
        and subsets.is_subset(G, coords.L)
    ):
        raise BadNesting("need K <= F < G <= L")
    target = IntervalCoords(F, G)
    tF = t[F]
    tG = t[G]
    vals = []
    for S in target.subsets:
        wF, wG = projection_weights(S, F, G)
        vals.append(t[S] - tF * wF - tG * wG)
    return IntervalVector(target, vals)


# The polynomial oracles below are the package's earlier term-at-a-time
# algorithms.  They compute on dense exponent vectors, one entry per
# variable, and cross into MultiPoly's sorted-index keys only through
# `from_dense` and `dense_terms`, so every intermediate result is
# re-validated by the public constructor.

def from_dense(variables, terms, degree=None):
    """The MultiPoly whose terms map dense exponent vectors over
    `variables` to coefficients."""
    vs = tuple(variables)
    keys = {}
    for exps, c in terms.items():
        assert len(exps) == len(vs) and all(e >= 0 for e in exps), exps
        key = tuple(i for i, e in enumerate(exps) for _ in range(e))
        keys[key] = keys.get(key, Fraction(0)) + Fraction(c)
    return MultiPoly(vs, keys, degree=degree)


def dense_terms(f):
    """f's terms keyed by dense exponent vectors over f.vars."""
    return {
        tuple(key.count(i) for i in range(len(f.vars))): c
        for key, c in f.terms.items()
    }


def poly_mul_validated(a, b):
    """Product of two MultiPolys on one variable tuple, every pair of terms
    added into a dict that the public constructor then normalises."""
    assert a.vars == b.vars
    out = {}
    for e1, c1 in dense_terms(a).items():
        for e2, c2 in dense_terms(b).items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return from_dense(a.vars, out, degree=a.degree + b.degree)


def poly_add_validated(a, b):
    """Sum of two MultiPolys of one degree on one variable tuple."""
    out = dense_terms(a)
    for e, c in dense_terms(b).items():
        out[e] = out.get(e, Fraction(0)) + c
    return from_dense(a.vars, out, degree=a.degree)


def substitute_affine_validated(f, matrix, new_variables):
    """f composed with dense rows: each old variable becomes the linear form
    matrix[i]; every term is expanded on its own as a product of cached
    powers of those forms and added to the running sum."""
    new_vars = tuple(new_variables)
    n = len(new_vars)
    forms = [
        from_dense(
            new_vars,
            {tuple(int(k == j) for k in range(n)): Fraction(c)
             for j, c in enumerate(row) if c != 0},
            degree=1,
        )
        for row in matrix
    ]
    powers = [[MultiPoly.constant(new_vars, 1)] for _ in forms]
    out = MultiPoly.zero(new_vars, degree=f.degree)
    for exps, coeff in dense_terms(f).items():
        term = MultiPoly.constant(new_vars, coeff)
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(poly_mul_validated(powers[i][-1], forms[i]))
            if e:
                term = poly_mul_validated(term, powers[i][e])
        out = poly_add_validated(out, term)
    return out


def lift_by_substitution(cache, G, H, big_vars):
    """`IntervalPolynomials._lift` as it was before the Taylor series: the
    polynomial of [G, H] composed with `project` by substituting the
    linear form t_S - wG t_G - wH t_H for each inner t_S, every power of
    it multiplied out over the larger interval's variables.  Endpoints of
    the larger interval are not variables there, so a row has at most two
    entries."""
    inner = cache.polynomial(G, H)
    col = {S: j for j, S in enumerate(big_vars)}
    rows = []
    for S in inner.vars:
        wG, wH = projection_weights(S, G, H)
        row = {col[S]: 1}
        for end, w in ((G, wG), (H, wH)):
            if end in col:
                row[col[end]] = -w
        rows.append(row)
    return substitute_affine(inner, rows, big_vars)


# The Lorentzian oracles below are the package's earlier per-check
# routines.  Each builds its own Hessian from the package's polynomial
# primitives, by its own chain of derivatives, where the package reads one
# contracted form; inertia comes from `descartes_inertia`.

def contracted_hessian(f, directions):
    """The Hessian H of f contracted along directions[2:], and the full
    contraction v1^T H v2, in `Fraction` arithmetic from the polynomial
    primitives: the package's routine before it scaled to integers."""
    g = f
    for v in directions[2:]:
        g = dir_derivative(g, v)
    H = hessian_of_quadratic(g)
    v1, v2 = ([_coordinate(v, var) for var in f.vars] for v in directions[:2])
    value = sum(
        (x * sum(h * y for h, y in zip(row, v2) if h) for x, row in zip(v1, H)),
        Fraction(0),
    )
    return H, value


class NonpositiveValue(ConepolError):
    pass


class UnsupportedSupport(ConepolError):
    pass


def partial(f, var):
    """Exact partial derivative of a MultiPoly; degree drops by one."""
    if var not in f.vars:
        raise UnknownVariable(f"{var!r} not among the variables")
    i = f.vars.index(var)
    out = {}
    for key, coeff in f.terms.items():
        if i in key:
            p = key.index(i)
            out[key[:p] + key[p + 1:]] = coeff * key.count(i)
    return MultiPoly(f.vars, out, degree=max(f.degree - 1, 0))


def is_irreducible_nonneg_offdiag(A):
    """Off-diagonal entries nonnegative and the graph of strictly positive
    off-diagonal entries connected, for a symmetric matrix A given as a
    list of rows."""
    _check_symmetric(A)
    n = len(A)
    for i, row in enumerate(A):
        if any(v < 0 for v in row[i + 1:]):
            return False
    if n <= 1:
        return True
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop()
        for j in range(n):
            if j != cur and j not in seen and A[cur][j] > 0:
                seen.add(j)
                queue.append(j)
    return len(seen) == n


def first_nonpositive_contraction(f, tuples):
    """Index of the first tuple whose full contraction of f is not
    positive, or None."""
    for idx, tup in enumerate(tuples):
        if full_contraction(f, tup) <= 0:
            return idx
    return None


def first_reducible_hessian(f, tuples):
    """Index of the first tuple for which the Hessian of f, differentiated
    along its first deg - 2 directions, fails the nonnegative off-diagonal
    and connectivity test, or None."""
    for idx, tup in enumerate(tuples):
        g = f
        for v in tup[: f.degree - 2]:
            g = dir_derivative(g, v)
        if not is_irreducible_nonneg_offdiag(hessian_of_quadratic(g)):
            return idx
    return None


def gradient_at(f, point):
    """First partials of f evaluated at a point, in variable order."""
    return [partial(f, v).evaluate(point) for v in f.vars]


def hessian_at(f, point):
    """Dense matrix of second partials of f evaluated at a point."""
    n = len(f.vars)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, vi in enumerate(f.vars):
        fi = partial(f, vi)
        for j in range(i, n):
            rows[i][j] = rows[j][i] = partial(fi, f.vars[j]).evaluate(point)
    return rows


def hessian_one_positive_equivalence(g, point):
    """Whether one positive eigenvalue of the Hessian at the point agrees
    with negative semidefiniteness of d*g*H - (d-1)*grad*grad^T, from the
    second partials and the gradient; raises NonpositiveValue where g is
    not positive."""
    value = g.evaluate(point)
    if value <= 0:
        raise NonpositiveValue(f"g(point) = {value} is not positive")
    d = g.degree
    H = hessian_at(g, point)
    grad = gradient_at(g, point)
    rows = [
        [d * value * h - (d - 1) * gi * gj for h, gj in zip(row, grad)]
        for row, gi in zip(H, grad)
    ]
    return (descartes_inertia(H)[0] == 1) == (descartes_inertia(rows)[0] == 0)


def is_lorentzian_orthant(f):
    """Nonnegative coefficients, at most one positive eigenvalue in the
    Hessian of every (d-2)-fold partial derivative, and a support compared
    with the enumerated degree-d simplex (UnsupportedSupport if they
    differ)."""
    if not f.terms:
        return True
    if any(c < 0 for c in f.terms.values()):
        return False
    d, n = f.degree, len(f.vars)
    if d >= 2:
        for combo in combinations_with_replacement(f.vars, d - 2):
            g = f
            for var in combo:
                g = partial(g, var)
            if descartes_inertia(hessian_of_quadratic(g))[0] > 1:
                return False
    full_support = {
        tuple(combo.count(i) for i in range(n))
        for combo in combinations_with_replacement(range(n), d)
    }
    if set(dense_terms(f)) != full_support:
        raise UnsupportedSupport("support is not the full degree simplex")
    return True
