import random
from itertools import chain, combinations

import pytest

import oracles
from conepol import (
    GradedSubposet,
    UniPoly,
    flats_lattice,
    graphic_matroid,
    is_balanced,
    is_interval_connected,
    is_one_balanced,
    is_semimodular_lattice,
    mobius,
    uniform_matroid,
)
from conepol import poset
from conepol.errors import InvalidParams, NotAnInterval, NotGraded
from conepol.matroid import characteristic_polynomial
from conepol.poset import flats_axioms_hold, interval_flats_axioms_hold
from conepol.subsets import elements, from_elements, is_proper_subset

from side_checks import HypothesisViolation, weisner_check
from test_random_matroids import random_binary_matroid


def boolean_lattice(n):
    sets = [
        from_elements(c)
        for c in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        )
    ]
    return GradedSubposet(n, sets)


def comparability_split(P, K, L):
    """The comparability component of the first atom of (K, L), and the
    rest of (K, L), as element lists, read by the walk that
    `is_interval_connected` runs."""
    component, rest = poset._comparability_split(P, P.index(K), P._open_mask(K, L))
    return P._members(component), P._members(rest)


def two_tower_poset():
    """Graded lattice with a disconnected open interval; not balanced,
    not semimodular."""
    sets = [0, from_elements([0]), from_elements([0, 1]), from_elements([2]),
            from_elements([2, 3]), from_elements([0, 1, 2, 3])]
    return GradedSubposet(4, sets)


def test_boolean_lattice_is_graded():
    B3 = boolean_lattice(3)
    assert B3.interval_rank(0, from_elements([0, 1, 2])) == 3
    assert len(B3) == 8


def test_flats_of_u23_grade(lattices):
    L = lattices["u23"]
    assert L.interval_rank(L.bottom, L.top) == 2


def test_not_graded_counterexample():
    sets = [0, from_elements([0]), from_elements([0, 1]), from_elements([2]),
            from_elements([0, 1, 2])]
    with pytest.raises(NotGraded):
        GradedSubposet(3, sets)


def test_duplicate_elements_rejected():
    with pytest.raises(InvalidParams):
        GradedSubposet(2, [0, 0])


def test_mobius_values(lattices):
    B3 = boolean_lattice(3)
    t = mobius(B3)
    assert t.mu(0, from_elements([0, 1, 2])) == -1
    L = lattices["u23"]
    assert mobius(L).mu(L.bottom, L.top) == 2
    for P in (B3, L):
        for a in P.elements:
            assert mobius(P).mu(a, a) == 1


def test_mobius_recursion_sums_to_zero(lattices):
    for L in lattices.values():
        t = mobius(L)
        for K, top in L.comparable_pairs():
            total = sum(t.mu(K, c) for c in L.interval(K, top))
            assert total == 0


def test_mobius_sign_alternation(lattices):
    for L in lattices.values():
        t = mobius(L)
        for a, b in L.comparable_pairs():
            r = L.interval_rank(a, b)
            assert (-1) ** r * t.mu(a, b) >= 0


def test_weisner_u23(lattices):
    L = lattices["u23"]
    atom = L.elements[1]
    assert weisner_check(L, L.bottom, atom, L.top)


def test_weisner_b3():
    B3 = boolean_lattice(3)
    assert weisner_check(B3, 0, from_elements([0]), from_elements([0, 1, 2]))


def test_weisner_all_valid_triples(lattices):
    for L in lattices.values():
        table = mobius(L)
        for x in L.elements:
            for a in L.upper_covers(x):
                for y in L.elements:
                    if is_proper_subset(a, y):
                        assert weisner_check(L, x, a, y, table)


def test_weisner_hypothesis_violations(lattices):
    L = lattices["u23"]
    atom = L.elements[1]
    with pytest.raises(HypothesisViolation):
        weisner_check(L, L.bottom, L.top, L.top)  # top does not cover bottom
    with pytest.raises(HypothesisViolation):
        weisner_check(L, L.bottom, atom, atom)  # need a < y


def test_balanced_predicates(lattices):
    for L in lattices.values():
        assert is_one_balanced(L)
        assert is_balanced(L)
    assert is_balanced(boolean_lattice(3))


def test_unbalanced_counterexample():
    P = GradedSubposet(2, [0, from_elements([0]), from_elements([0, 1])])
    assert not is_balanced(P)
    assert not is_one_balanced(P)


def test_interval_connected(lattices):
    assert is_interval_connected(lattices["k4"])
    assert is_interval_connected(boolean_lattice(3))


def test_two_tower_poset_is_disconnected():
    P = two_tower_poset()
    assert not is_interval_connected(P)
    left, right = comparability_split(P, 0, from_elements([0, 1, 2, 3]))
    assert len(left) == 2 and len(right) == 2


def test_two_tower_poset_is_not_semimodular_nor_balanced():
    P = two_tower_poset()
    assert not is_semimodular_lattice(P)
    assert not is_balanced(P)


def test_semimodularity(lattices):
    for L in list(lattices.values()) + [flats_lattice(uniform_matroid(4, 5))]:
        assert is_semimodular_lattice(L)
        assert oracles.semimodular_lattice(L)
    assert is_semimodular_lattice(boolean_lattice(3))


def test_flats_axioms(lattices):
    for L in lattices.values():
        assert flats_axioms_hold(L, L.top)


def test_intervals_are_again_lattices_of_flats(lattices):
    for L in lattices.values():
        for K, top in L.comparable_pairs():
            assert interval_flats_axioms_hold(L, K, top)


def test_reextracted_interval_passes_flats_axioms(lattices):
    # rebuild the interval as a standalone poset and check the axioms
    # relative to its own top
    L = lattices["fano"]
    for K, top in L.comparable_pairs():
        sub = GradedSubposet(L.n, L.interval(K, top))
        assert flats_axioms_hold(sub, top)
        assert is_one_balanced(sub)


def random_families(rng):
    """Endless seeded families of subsets of Boolean lattices B_1..B_5, as
    (n, sets); most contain the empty set and the full set."""
    while True:
        n = rng.randint(1, 5)
        full = (1 << n) - 1
        keep = rng.choice([0.3, 0.5, 0.7, 0.9])
        sets = {s for s in range(full + 1) if rng.random() < keep}
        if rng.random() < 0.8:
            sets |= {0, full}
        yield n, sets


def random_graded_subposets(rng, count):
    """Seeded graded subposets of Boolean lattices B_1..B_5; sets that
    fail gradedness are skipped."""
    out = []
    families = random_families(rng)
    while len(out) < count:
        n, sets = next(families)
        try:
            out.append(GradedSubposet(n, sets))
        except NotGraded:
            continue
    return out


def test_semimodular_lattice_matches_pairwise_oracle():
    rng = random.Random(20261018)
    counts = {"not lattice": 0, "lattice only": 0, "semimodular": 0}
    for P in random_graded_subposets(rng, 900):
        got = is_semimodular_lattice(P)
        assert got == oracles.semimodular_lattice(P), P.elements
        if got:
            counts["semimodular"] += 1
        elif oracles.is_lattice(P):
            counts["lattice only"] += 1
        else:
            counts["not lattice"] += 1
    assert min(counts.values()) >= 50, counts


def test_non_lattices_are_not_semimodular_lattices():
    # {0} and {1} lie under both {0,1,2} and {0,1,3}: graded, but no meet
    graded_non_lattice = GradedSubposet(4, [
        0, from_elements([0]), from_elements([1]), from_elements([0, 1, 2]),
        from_elements([0, 1, 3]), from_elements([0, 1, 2, 3])])
    two_maximal = GradedSubposet(2, [0, from_elements([0]), from_elements([1])])
    for P in (graded_non_lattice, two_maximal):
        assert not is_semimodular_lattice(P)
        assert not oracles.semimodular_lattice(P)


def test_comparable_pairs_in_canonical_order(lattices):
    rng = random.Random(7)
    for P in list(lattices.values()) + random_graded_subposets(rng, 60):
        els = P.elements
        expected = [(a, b) for i, a in enumerate(els) for b in els[i + 1:]
                    if a & ~b == 0]
        assert P.comparable_pairs() == expected


def frozen(s):
    return frozenset(e for e in range(s.bit_length()) if (s >> e) & 1)


def braces(f):
    return "{" + ",".join(str(e) for e in sorted(f)) + "}"


def assert_order_matches_oracle(P):
    """Elements, covers, ranks, intervals and the Mobius table of P agree
    with the interval-walk and Mobius-recursion oracles."""
    upper, ranks, failure = oracles.graded_order(P.n, P.elements)
    assert failure is None
    els = [frozen(s) for s in P.elements]
    assert els == list(upper)
    for s, f in zip(P.elements, els):
        assert [frozen(c) for c in P.upper_covers(s)] == upper[f]
        lower = P._lower_covers[P.index(s)]
        assert [frozen(P.elements[j]) for j in lower] == [a for a in els if f in upper[a]]
        assert P.interval_rank(s, s) == 0
    got = [((frozen(K), frozen(L)), P.interval_rank(K, L)) for K, L in P.comparable_pairs()]
    assert got == [(pair, r) for pair, r in ranks.items() if pair[0] != pair[1]]
    for K, L in [(K, K) for K in P.elements] + P.comparable_pairs():
        a, b = frozen(K), frozen(L)
        inside = [c for c in els if a <= c <= b]
        assert [frozen(c) for c in P.interval(K, L)] == inside
        assert [frozen(c) for c in P.open_interval(K, L)] == [c for c in inside if c not in (a, b)]
    table = {(frozen(a), frozen(b)): mu for (a, b), mu in mobius(P).items()}
    assert list(table) == list(ranks)
    assert table == oracles.mobius_table(els)


def test_order_table_matches_interval_walk_oracle():
    rng = random.Random(20261019)
    counts = {"graded": 0, "not graded": 0}
    several_minima = {"graded": 0, "not graded": 0}
    families = random_families(rng)
    for _ in range(2400):
        n, sets = next(families)
        _, _, failure = oracles.graded_order(n, sets)
        minima = [s for s in sets if not any(t != s and t & ~s == 0 for t in sets)]
        if len(minima) >= 2:
            several_minima["graded" if failure is None else "not graded"] += 1
        if failure is None:
            assert_order_matches_oracle(GradedSubposet(n, sets))
            counts["graded"] += 1
            continue
        with pytest.raises(NotGraded) as caught:
            GradedSubposet(n, sets)
        bottom, top = failure
        assert str(caught.value) == (
            f"interval [{braces(bottom)}, {braces(top)}] has maximal chains of different lengths"
        )
        counts["not graded"] += 1
    assert min(counts.values()) >= 300, counts
    assert several_minima["graded"] >= 50 and several_minima["not graded"] >= 10, several_minima


def test_order_table_matches_oracle_on_lattices(lattices):
    k4 = list(combinations(range(4), 2))
    bowtie = k4 + [(a + 3, b + 3) for a, b in k4]  # M(K4.K4), 225 flats
    for L in list(lattices.values()) + [flats_lattice(graphic_matroid(bowtie))]:
        assert_order_matches_oracle(L)


def test_intervals_need_nested_endpoints_in_the_poset():
    P = boolean_lattice(2)
    a, b = from_elements([0]), from_elements([1])
    for K, L in ((a, b), (b, a), (a, from_elements([0, 2]))):
        with pytest.raises(NotAnInterval):
            P.interval(K, L)
        with pytest.raises(NotAnInterval):
            P.open_interval(K, L)


def test_connectivity_matches_component_oracle():
    rng = random.Random(20261020)
    seen = {"witness": 0, "not interval connected": 0}
    for P in random_graded_subposets(rng, 1500):
        els = [frozen(s) for s in P.elements]
        connected = True
        for K, L in P.comparable_pairs():
            a, b = frozen(K), frozen(L)
            mids = [c for c in els if a < c < b]
            components = oracles.comparability_components(mids)
            component, rest = comparability_split(P, K, L)
            first = components[0] if components else []
            assert [frozen(c) for c in component] == first
            assert [frozen(c) for c in rest] == [c for c in mids if c not in first]
            if len(components) <= 1:
                continue
            seen["witness"] += 1
            if P.interval_rank(K, L) >= 3:
                connected = False
        assert is_interval_connected(P) == connected
        seen["not interval connected"] += not connected
    assert min(seen.values()) >= 50, seen


def test_elements_walks_set_bits():
    """Narrow masks and wide ones, read by different walks, on both sides
    of the 64-bit switch and up to 30,000 bits, dense and sparse."""
    rng = random.Random(11)
    cases = [0, 1, 1 << 1999] + [rng.getrandbits(rng.randint(1, 2000)) for _ in range(300)]
    cases += [(1 << 64) - 1, 1 << 64, (1 << 65) - 1, 1 << 29_999, (1 << 30_000) - 1]
    for density in (0.001, 0.05, 0.5, 0.95):
        width = rng.randint(20_000, 30_000)
        cases.append(sum(1 << i for i in range(width) if rng.random() < density))
    for s in cases:
        assert elements(s) == [i for i in range(s.bit_length()) if (s >> i) & 1]


def test_predicates_are_proved_once_per_poset(monkeypatch):
    P = flats_lattice(uniform_matroid(3, 5))
    table = mobius(P)
    assert is_balanced(P)
    assert not flats_axioms_hold(P, from_elements([0]))
    # with the order data gone, only stored results can answer
    for name in ("elements", "_index", "_up", "_down", "_upper_covers", "_lower_covers", "_rank"):
        monkeypatch.setattr(P, name, None)
    # proved while the lattice was built
    assert flats_axioms_hold(P, P.top)
    assert is_one_balanced(P)
    assert is_semimodular_lattice(P)
    assert is_interval_connected(P)
    # proved by the calls above, each keyed by its arguments
    assert mobius(P) is table
    assert is_balanced(P)
    assert not flats_axioms_hold(P, from_elements([0]))


def test_flats_axioms_match_pairwise_oracle(lattices):
    rng = random.Random(20261021)
    seen = {"whole": {}, "interval": {}}

    def check(kind, got, failure):
        assert got == (failure is None)
        seen[kind][failure] = seen[kind].get(failure, 0) + 1

    for P in random_graded_subposets(rng, 1000):
        els = list(P.elements)
        full = (1 << P.n) - 1
        for ground in {full, *els[-1:], *rng.sample(els, min(1, len(els)))}:
            check("whole", flats_axioms_hold(P, ground),
                  oracles.flats_axioms_failure(P, els, ground))
        for K, L in [(K, K) for K in els] + P.comparable_pairs():
            check("interval", interval_flats_axioms_hold(P, K, L),
                  oracles.flats_axioms_failure(P, P.interval(K, L), L))
    for P in lattices.values():
        assert flats_axioms_hold(P, P.top)
        for K, L in P.comparable_pairs():
            assert interval_flats_axioms_hold(P, K, L)
            assert oracles.flats_axioms_failure(P, P.interval(K, L), L) is None
    floors = {
        "whole": ("missing top", "intersection not closed", "covers not partitioning",
                  None),
        "interval": ("intersection not closed", "covers not partitioning", None),
    }
    for kind, failures in floors.items():
        assert min(seen[kind].get(f, 0) for f in failures) >= 50, seen


def test_rank2_connectivity_and_mobius_match_per_pair_oracles(lattices):
    rng = random.Random(20261022)
    seen = {"several minima": 0, "not balanced": 0, "not 1-balanced": 0,
            "not interval connected": 0}
    for P in random_graded_subposets(rng, 2500) + list(lattices.values()):
        got = (is_balanced(P), is_one_balanced(P), is_interval_connected(P))
        expected = (oracles.is_balanced(P), oracles.is_one_balanced(P),
                    oracles.is_interval_connected(P))
        assert got == expected, P.elements
        assert list(mobius(P).items()) == oracles.mobius_items(P)
        seen["several minima"] += sum(1 for d in P._down if d & (d - 1) == 0) >= 2
        seen["not balanced"] += not got[0]
        seen["not 1-balanced"] += not got[1]
        seen["not interval connected"] += not got[2]
    assert min(seen.values()) >= 100, seen


def test_mobius_rows_are_computed_on_demand(lattices):
    L = lattices["k4"]
    M = uniform_matroid(3, 5)
    chi = characteristic_polynomial(M)
    # the characteristic polynomial builds no lattice, so computes no row
    assert M._lattice is None
    P = flats_lattice(M)
    table = mobius(P)
    assert table._rows == {}
    coeffs = [0] * (M.rank_total + 1)
    for F in P.elements:
        coeffs[P.interval_rank(F, P.top)] += table.mu(P.bottom, F)
    assert list(table._rows) == [0]
    assert UniPoly(coeffs) == chi == characteristic_polynomial(M)
    with pytest.raises(NotAnInterval, match="non-comparable pair"):
        table.mu(P.elements[1], P.elements[2])
    with pytest.raises(NotAnInterval, match="non-comparable pair"):
        mobius(L).mu(L.top, L.bottom)
    assert list(table.items()) == oracles.mobius_items(P)


def boolean_lattices_without_layers():
    """B_3..B_5 with one or more inner rank layers removed: still graded,
    and balanced but not 1-balanced whenever a rank-2 interval skips a
    layer (its middles overlap)."""
    for n in (3, 4, 5):
        for drop in range(1, 1 << (n - 1)):
            yield GradedSubposet(n, [
                s for s in range(1 << n)
                if s.bit_count() in (0, n) or not (drop >> (s.bit_count() - 1)) & 1
            ])


def test_balanced_after_one_balanced_matches_per_pair_oracle(lattices):
    """With 1-balancedness proved first, is_balanced reads it; otherwise it
    counts.  Both agree with the per-pair oracle, also on posets that are
    balanced but not 1-balanced."""
    rng = random.Random(20261023)
    posets = (random_graded_subposets(rng, 1500) + list(boolean_lattices_without_layers())
              + list(lattices.values()))
    seen = {"1-balanced": 0, "balanced, not 1-balanced": 0, "not balanced": 0}
    for P in posets:
        one = is_one_balanced(P)
        assert one == oracles.is_one_balanced(P)
        assert is_balanced(P) == oracles.is_balanced(P), P.elements
        if one:
            seen["1-balanced"] += 1
        elif oracles.is_balanced(P):
            seen["balanced, not 1-balanced"] += 1
        else:
            seen["not balanced"] += 1
    assert min(seen.values()) >= 20, seen
    # 1-balanced implies balanced with no counting at all
    P = boolean_lattice(3)
    assert is_one_balanced(P)
    P._upper_covers = None
    assert is_balanced(P)


def _disable_walks(m):
    def walk(*args):
        raise AssertionError("walk ran although its premise was proved")

    m.setattr(poset, "_comparability_split", walk)
    m.setattr(poset, "_rank2_middles", walk)


def test_predicates_read_off_proved_premises_match_oracles(lattices, monkeypatch):
    """With a semimodular lattice and the flats axioms proved and both walks
    disabled, is_interval_connected and is_one_balanced equal the per-pair
    oracle, and the walk on a fresh copy.  U(6,12) is compared with the
    walk only: the per-pair oracle takes about 14 s there on a 2-vCPU host."""
    k4 = list(combinations(range(4), 2))
    bowtie = k4 + [(a + 3, b + 3) for a, b in k4]  # M(K4.K4), 225 flats
    larger = {"k4.k4": graphic_matroid(bowtie), "u6_12": uniform_matroid(6, 12)}
    for name, L in {**lattices, **{k: flats_lattice(M) for k, M in larger.items()}}.items():
        walked = GradedSubposet(L.n, L.elements)
        expected = (is_interval_connected(walked), is_one_balanced(walked))
        if name != "u6_12":
            assert expected == (oracles.is_interval_connected(L), oracles.is_one_balanced(L))
        proved = GradedSubposet(L.n, L.elements)
        assert is_semimodular_lattice(proved) and flats_axioms_hold(proved, L.top)
        with monkeypatch.context() as m:
            _disable_walks(m)
            assert (is_interval_connected(proved), is_one_balanced(proved)) == expected
            # a lattice of flats is built with both premises proved
            assert (is_interval_connected(L), is_one_balanced(L)) == expected


def test_predicates_walk_without_their_premises(monkeypatch):
    """Premise proved false, or not proved at all: the walk runs, and both
    predicates still equal the per-pair oracle."""
    rng = random.Random(20261024)
    walks = {"split": 0, "rank2": 0}

    def counted(name, fn):
        def spy(*args):
            walks[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(poset, "_comparability_split",
                        counted("split", poset._comparability_split))
    monkeypatch.setattr(poset, "_rank2_middles", counted("rank2", poset._rank2_middles))
    seen = {}
    posets = (random_graded_subposets(rng, 1200) + list(boolean_lattices_without_layers())
              + [two_tower_poset()] + [boolean_lattice(n) for n in range(1, 5)])
    for P in posets:
        semimodular = is_semimodular_lattice(P) if rng.random() < 0.7 else None
        flats = None
        if rng.random() < 0.7:
            grounds = {*P.elements[-1:], (1 << P.n) - 1, *rng.sample(P.elements, min(1, len(P)))}
            flats = any([flats_axioms_hold(P, ground) for ground in grounds])
        before = dict(walks)
        got = (is_interval_connected(P), is_one_balanced(P))
        assert got == (oracles.is_interval_connected(P), oracles.is_one_balanced(P)), P.elements
        deep = any(P.interval_rank(K, L) >= 3 for K, L in P.comparable_pairs())
        assert (walks["split"] > before["split"]) == (semimodular is not True and deep)
        assert (walks["rank2"] > before["rank2"]) == (flats is not True)
        for premise, holds, name in ((semimodular, got[0], "connected"),
                                     (flats, got[1], "1-balanced")):
            key = (name, {True: "read off", False: "premise false", None: "unproved"}[premise],
                   holds)
            seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 10 and min(seen.values()) >= 10, seen


def test_proved_intersection_closure_matches_pairwise_oracle(lattices, monkeypatch):
    """A lattice of flats is proved closed under intersection from its
    matroid, with no pass over pairs; the pairwise oracle agrees on the
    catalog, seeded random binary matroids, M(K4.K4) and U(6,12), and so
    does the pairwise pass on a copy that was given no proof."""
    rng = random.Random(20261019)
    k4 = list(combinations(range(4), 2))
    matroids = [random_binary_matroid(rng, rng.choice([3, 4]), rng.randint(4, 8))
                for _ in range(20)]
    matroids += [graphic_matroid(k4 + [(a + 3, b + 3) for a, b in k4]), uniform_matroid(6, 12)]

    def pairwise(*args):
        raise AssertionError("pairwise pass ran although closure was proved")

    with monkeypatch.context() as m:
        m.setattr(poset, "_pairwise_intersection_closed", pairwise)
        built = list(lattices.values()) + [flats_lattice(M) for M in matroids]
    assert len(built[-1]) == 1587
    for L in built:
        assert L._proved[("_intersection_closed",)] is True
        copy = GradedSubposet(L.n, L.elements)
        assert poset._intersection_closed(copy) is True
        assert oracles.intersection_closed(L.elements)
