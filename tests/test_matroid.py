import inspect
import random
import textwrap
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from conepol import (
    FlatLattice,
    GradedSubposet,
    GroundSet,
    Matroid,
    UniPoly,
    characteristic_polynomial,
    fano,
    flats_lattice,
    graphic_matroid,
    matroid,
    mobius,
    poset,
    reduced_characteristic_polynomial,
    uniform_matroid,
)
from conepol.cli import main
from conepol.errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InternalAxiomFailure,
    InvalidParams,
    LoopElement,
    SizeLimitExceeded,
    UnequalBasisSizes,
)
from conepol.subsets import elements, format_elements, from_elements, sort_key

from conftest import K4_EDGES, matroid_from_bases
from test_random_matroids import random_binary_matroid


def test_matroid_from_bases_uniform():
    M = matroid_from_bases(3, [{0, 1}, {0, 2}, {1, 2}])
    assert M.rank_total == 2
    assert M.bases == uniform_matroid(2, 3).bases


def test_single_element_free_matroid():
    M = matroid_from_bases(1, [{0}])
    assert M.rank_total == 1
    assert M.is_loopless()


def test_unequal_basis_sizes_rejected():
    with pytest.raises(UnequalBasisSizes):
        matroid_from_bases(2, [{0}, {0, 1}])


def test_empty_bases_rejected():
    with pytest.raises(EmptyBases):
        matroid_from_bases(2, [])


def test_exchange_axiom_violation_reports_witness():
    with pytest.raises(ExchangeAxiomViolation) as exc:
        matroid_from_bases(4, [{0, 1}, {2, 3}])
    assert "exchange" in str(exc.value)


def test_ground_set_validation():
    with pytest.raises(InvalidParams):
        GroundSet(0)
    with pytest.raises(InvalidParams):
        GroundSet(2, ("a", "a"))
    with pytest.raises(InvalidParams):
        uniform_matroid(3, 2)


def test_uniform_bases_are_all_r_subsets():
    M = uniform_matroid(2, 4)
    assert M.bases == {from_elements(c) for c in combinations(range(4), 2)}


def test_rank_zero_uniform_matroid():
    M = uniform_matroid(0, 2)
    assert M.rank_total == 0
    assert M.loops() == from_elements([0, 1])
    with pytest.raises(LoopElement):
        reduced_characteristic_polynomial(M, 0)


def test_graphic_k4():
    M = graphic_matroid(K4_EDGES)
    assert M.rank_total == 3
    assert len(M.bases) == 16  # Cayley: 4^2 spanning trees


def test_graphic_with_parallel_and_loop_edges():
    M = graphic_matroid([(0, 1), (0, 1), (1, 1)])
    assert M.rank_total == 1
    assert M.loops() == from_elements([2])


def test_fano_counts():
    M = fano()
    assert M.rank_total == 3
    assert len(M.bases) == 28  # 35 triples minus 7 lines
    assert len(flats_lattice(M)) == 16


def test_rank_examples():
    M = uniform_matroid(2, 3)
    assert M.rank(from_elements([0, 1, 2])) == 2
    assert M.rank(0) == 0
    K4 = graphic_matroid(K4_EDGES)
    # edges (0,1), (0,2), (1,2) form a triangle
    assert K4.rank(from_elements([0, 1, 3])) == 2


def test_rank_is_monotone_and_submodular():
    rng = random.Random(0)
    for M in (uniform_matroid(2, 4), graphic_matroid(K4_EDGES), fano()):
        full = M.ground.full_mask
        for _ in range(200):
            S = rng.randrange(full + 1)
            T = rng.randrange(full + 1)
            assert M.rank(S) <= M.rank(S | T)
            assert M.rank(S) + M.rank(T) >= M.rank(S | T) + M.rank(S & T)


def test_closure_examples():
    M = uniform_matroid(2, 3)
    assert M.closure(from_elements([0])) == from_elements([0])
    assert M.closure(from_elements([0, 1])) == from_elements([0, 1, 2])


def test_closure_idempotent():
    rng = random.Random(1)
    for M in (uniform_matroid(3, 4), graphic_matroid(K4_EDGES)):
        full = M.ground.full_mask
        for _ in range(100):
            S = rng.randrange(full + 1)
            cl = M.closure(S)
            assert M.closure(cl) == cl


def test_flat_counts():
    assert len(flats_lattice(uniform_matroid(2, 3))) == 5
    assert len(flats_lattice(uniform_matroid(3, 3))) == 8  # Boolean lattice B_3
    assert len(flats_lattice(uniform_matroid(3, 4))) == 12
    assert len(flats_lattice(graphic_matroid(K4_EDGES))) == 15


def test_flats_lattice_rank_matches_matroid_rank(catalog, lattices):
    for name, M in catalog.items():
        L = lattices[name]
        for F in L.elements:
            assert L.interval_rank(L.bottom, F) == M.rank(F)


def test_characteristic_polynomials_frozen():
    # ascending coefficients pinned by the brute-force Mobius oracle
    assert characteristic_polynomial(uniform_matroid(2, 3)) == UniPoly([2, -3, 1])
    assert characteristic_polynomial(uniform_matroid(3, 3)) == UniPoly([-1, 3, -3, 1])
    assert characteristic_polynomial(uniform_matroid(3, 4)) == UniPoly([-3, 6, -4, 1])
    assert characteristic_polynomial(graphic_matroid(K4_EDGES)) == UniPoly([-6, 11, -6, 1])
    assert characteristic_polynomial(fano()) == UniPoly([-8, 14, -7, 1])


def test_characteristic_polynomial_rejects_loops():
    M = matroid_from_bases(2, [{0}])  # element 1 is a loop
    with pytest.raises(HasLoops):
        characteristic_polynomial(M)


def test_reduced_characteristic_frozen():
    assert reduced_characteristic_polynomial(uniform_matroid(2, 3), 0) == UniPoly([-2, 1])
    assert reduced_characteristic_polynomial(uniform_matroid(3, 3), 0) == UniPoly([1, -2, 1])
    assert reduced_characteristic_polynomial(uniform_matroid(3, 4), 1) == UniPoly([3, -3, 1])
    assert reduced_characteristic_polynomial(graphic_matroid(K4_EDGES), 2) == UniPoly([6, -5, 1])
    assert reduced_characteristic_polynomial(fano(), 3) == UniPoly([8, -6, 1])


def test_reduced_characteristic_independent_of_element(catalog):
    for M in catalog.values():
        polys = {
            reduced_characteristic_polynomial(M, i)
            for i in range(M.ground.n)
        }
        assert len(polys) == 1


def test_reduced_times_t_minus_one_is_chi(catalog):
    t_minus_1 = UniPoly([-1, 1])
    for M in catalog.values():
        chi = characteristic_polynomial(M)
        chibar = reduced_characteristic_polynomial(M, 0)
        assert t_minus_1 * chibar == chi


def test_reduced_characteristic_loop_element():
    M = matroid_from_bases(2, [{0}])
    with pytest.raises(LoopElement):
        reduced_characteristic_polynomial(M, 1)
    with pytest.raises(HasLoops):
        reduced_characteristic_polynomial(M, 0)


def test_unipoly_str_and_eval():
    p = UniPoly([6, -5, 1])
    assert str(p) == "t^2 - 5*t + 6"
    assert p(Fraction(2)) == 0
    assert p(Fraction(1, 2)) == Fraction(1, 4) - Fraction(5, 2) + 6


def closure_cases():
    rng = random.Random(424242)
    binary = [
        random_binary_matroid(rng, rng.choice([2, 3]), rng.randint(3, 5))
        for _ in range(12)
    ]
    loopy = graphic_matroid([(0, 1), (1, 2), (0, 2), (2, 2), (1, 1)])
    multigraph = graphic_matroid(
        [(0, 1), (0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (2, 3), (1, 3)]
    )
    named = [fano(), uniform_matroid(3, 5), graphic_matroid(K4_EDGES), loopy]
    return named + binary + [multigraph]


def test_closure_matches_frozenset_oracle():
    cases = closure_cases()
    for M in cases:
        universe = frozenset(range(M.ground.n))
        bases = [frozenset(elements(B)) for B in M.bases]
        for S in range(M.ground.full_mask + 1):
            expected = oracles.closure_of(universe, bases, elements(S))
            assert elements(M.closure(S)) == sorted(expected), (M, S)
    loopy = cases[3]
    assert loopy.closure(0) == from_elements([3, 4]) == loopy.loops()


def test_flats_lattice_matches_frozenset_oracles():
    cases = closure_cases()
    loopless = 0
    for M in cases:
        universe = frozenset(range(M.ground.n))
        bases = [frozenset(elements(B)) for B in M.bases]
        L = flats_lattice(M)
        flats = {frozenset(elements(F)) for F in L.elements}
        assert flats == oracles.all_flats(universe, bases), M
        for F in L.elements:
            expected = {
                oracles.closure_of(universe, bases, set(elements(F)) | {e})
                for e in universe - set(elements(F))
            }
            covers = [frozenset(elements(G)) for G in L.upper_covers(F)]
            assert len(covers) == len(expected) and set(covers) == expected, (M, F)
        if not M.is_loopless():
            continue
        loopless += 1
        chi = characteristic_polynomial(M)
        assert list(chi.coeffs) == oracles.charpoly_coeffs_ascending(universe, bases)
        reduced = oracles.reduced_coeffs_ascending(universe, bases)
        for i in range(M.ground.n):
            assert list(reduced_characteristic_polynomial(M, i).coeffs) == reduced
    assert loopless == len(cases) - 1


def test_flats_search_closes_each_cover_once(monkeypatch):
    """Building a lattice of flats closes only the bottom flat and asks for
    no rank: every cover comes from the bases carried to the flat below
    it."""
    calls = {"rank": 0, "closure": 0}
    for name in calls:
        original = getattr(Matroid, name)

        def counted(self, S, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, S)

        monkeypatch.setattr(Matroid, name, counted)
    cases = [graphic_matroid(list(combinations(range(5), 2)))] + closure_cases()[4:16]
    assert len(cases) == 13
    for M in cases:
        calls.update(rank=0, closure=0)
        flats_lattice(M)
        assert calls == {"rank": 0, "closure": 1}, M
    assert len(flats_lattice(cases[0])) == 52  # partitions of a 5-set


def counting_pairwise_passes(monkeypatch):
    """Posets whose pass over pairs runs, in order."""
    passes = []
    original = poset._pairwise_intersection_closed

    def counted(P):
        passes.append(P)
        return original(P)

    monkeypatch.setattr(poset, "_pairwise_intersection_closed", counted)
    return passes


def counting_poset_builds(monkeypatch):
    """Sets of every `GradedSubposet` built, in order."""
    builds = []
    original = GradedSubposet.__init__

    def counted(self, n, element_sets, *args, **kwargs):
        builds.append(element_sets)
        original(self, n, element_sets, *args, **kwargs)

    monkeypatch.setattr(GradedSubposet, "__init__", counted)
    return builds


def assert_same_lattice(L, reference):
    for name in ("elements", "bottom", "top", "_up", "_down", "_upper_covers", "_rank"):
        assert getattr(L, name) == getattr(reference, name), name


def test_flat_lattice_takes_any_iterable_and_trusts_no_given_ranks(monkeypatch):
    """A family given by a caller, as a set, a list or a dict of ranks,
    true or not, gives the same lattice as `flats_lattice`, with no pass
    over pairs; one set not closed is refused by name before any poset is
    built."""
    pairwise = counting_pairwise_passes(monkeypatch)
    for M in (uniform_matroid(2, 3), graphic_matroid(K4_EDGES), fano()):
        reference = flats_lattice(M)
        flats = reference.elements
        for family in (set(flats), list(flats), {S: M.rank(S) for S in flats},
                       dict.fromkeys(flats, 7)):
            assert_same_lattice(FlatLattice(M, family), reference)
    assert pairwise == []
    # 0 and 1 parallel, 2 a coloop: {0} is not closed, yet every cover of
    # the family lies one rank up
    M = matroid_from_bases(3, [{0, 2}, {1, 2}])
    family = {S: M.rank(S) for S in (0, 0b001, 0b100, 0b111)}
    assert list(family.values()) == [0, 1, 1, 2] and M.closure(0b001) != 0b001
    builds = counting_poset_builds(monkeypatch)
    with pytest.raises(InternalAxiomFailure, match=r"^flats hold \{0\}, which is not closed$"):
        FlatLattice(M, family)
    assert builds == [] and pairwise == []


def record_of(M, family):
    """The flats search's record of a family of sets: each set's rank,
    the first in canonical order first, and its minimal proper supersets
    in the family as its covers.  Building it checks the record."""
    family = sorted(family, key=sort_key)
    above = {S: [G for G in family if S != G and not S & ~G] for S in family}
    covers = {S: [G for G in ups if not any(G in above[H] for H in ups)]
              for S, ups in above.items()}
    return matroid._FlatsRecord(M, {S: M.rank(S) for S in family}, covers)


def oracle_flats(M):
    """M's flats, as the sets equal to their closure by a scan of the bases."""
    full, bases = M.ground.full_mask, list(M.bases)
    return {S for S in range(full + 1) if oracles.closure_by_scan(full, bases, S) == S}


def test_tampered_flat_families_are_refused_by_name(monkeypatch):
    """A family with a flat (or the bottom or the top) removed, a non-closed
    set added or a rank of flats left out is refused, naming the first set
    in canonical order that it lacks or holds in excess of M's flats, before
    any poset is built or any pair of sets is intersected.  Recorded as the
    search's closed sets with their covers, a family that lacks a flat or
    E, starts above rank 0 (as it does without its least element) or has
    a cover two ranks up is refused while the record is built."""
    pairwise = counting_pairwise_passes(monkeypatch)
    u34 = uniform_matroid(3, 4)
    flats = flats_lattice(u34).elements
    atoms = [F for F in flats if F.bit_count() == 1]
    cases = [  # (matroid, family, whether every set is closed)
        (u34, [F for F in flats if F != atoms[0]], True),  # a flat removed
        (uniform_matroid(2, 2), [0b01, 0b10, 0b11], True),  # the bottom removed
        (u34, [F for F in flats if F not in atoms], True),  # covers two ranks up
        (u34, [F for F in flats if F != u34.ground.full_mask], True),  # no top
        (uniform_matroid(1, 2), [0, 0b01, 0b11], False),  # {0} is not closed
        (uniform_matroid(1, 3), [0, 0b011, 0b111], False),  # nor is {0, 1}
    ]
    for M in (uniform_matroid(2, 3), u34, graphic_matroid(K4_EDGES), fano()):
        found = set(flats_lattice(M).elements)
        for S in range(1, M.ground.full_mask):
            if S not in found:
                cases.append((M, [*found, S], False))
    assert len(cases) == 174, len(cases)
    builds = counting_poset_builds(monkeypatch)
    refusals = set()
    for M, family, closed in cases:
        assert closed == all(M.closure(S) == S for S in family), family
        stray = min(set(family) ^ oracle_flats(M), key=sort_key)
        named = "{" + format_elements(stray) + "}"
        message = (f"flats lack {named}, a flat of rank {M.rank(stray)}" if closed
                   else f"flats hold {named}, which is not closed")
        with pytest.raises(InternalAxiomFailure) as exc:
            FlatLattice(M, family)
        assert str(exc.value) == message, family
        if closed:
            with pytest.raises(InternalAxiomFailure, match="^flats search ") as exc:
                record_of(M, family)
            refusals.add(str(exc.value).split("}")[-1])
    assert builds == [] and pairwise == []
    assert refusals == {", of rank 1", " do not partition the elements outside it",
                        ", not a found set one rank up"}, refusals
    # the search's own flats make a record with the lattice's covers
    for M in (u34, fano()):
        L = flats_lattice(M)
        record = record_of(M, L.elements)
        assert [sorted(L.index(G) for G in record.covers[F]) for F in L.elements] == (
            L._upper_covers)


def test_closed_flats_with_a_short_height_are_refused(monkeypatch):
    """One rank up is the premise that the top and the cover gains miss:
    on {empty set, E} of a loopless matroid of rank at least 2, E is a
    set, the cover gains partition and every flats axiom holds, but E is
    recorded as a cover of the bottom r(E) ranks up."""
    pairwise = counting_pairwise_passes(monkeypatch)
    for M in (uniform_matroid(2, 2), uniform_matroid(2, 4), graphic_matroid(K4_EDGES)):
        family = [0, M.ground.full_mask]
        P = GradedSubposet(M.ground.n, family)
        assert P.interval_rank(0, M.ground.full_mask) == 1 < M.rank_total
        assert poset._gains_partition(P, M.ground.full_mask)
        assert poset.flats_axioms_hold(P, M.ground.full_mask)
        pairwise.clear()
        with pytest.raises(InternalAxiomFailure, match=r"^flats search recorded \{0,1.*\} "
                           r"as a cover of \{\}, not a found set one rank up$"):
            record_of(M, family)
        assert pairwise == []


def test_a_caller_family_must_be_the_matroids_own_flats(monkeypatch):
    """A family that is a lattice satisfying the flats axioms is still
    refused unless it is M's lattice of flats: {empty set, E} of a loopless
    matroid of rank 2 or more lacks the atoms, the Boolean lattice of
    U(1, 2) holds a set that is not closed, {empty set, E} with a loop
    holds the empty set, which is not closed there, and a list holding a
    flat twice is refused too.  No pass over pairs runs."""
    pairwise = counting_pairwise_passes(monkeypatch)
    cases = [
        (M, [0, M.ground.full_mask], r"lack \{0\}, a flat of rank 1")
        for M in (uniform_matroid(2, 2), uniform_matroid(2, 4), graphic_matroid(K4_EDGES))
    ]
    u22_flats = list(flats_lattice(uniform_matroid(2, 2)).elements)
    cases += [
        (uniform_matroid(1, 2), [0, 0b01, 0b10, 0b11], r"hold \{0\}, which is not closed"),
        (matroid_from_bases(2, [{0}]), [0, 0b11], r"hold \{\}, which is not closed"),
        (uniform_matroid(2, 2), u22_flats + u22_flats[:1], "hold a set twice"),
    ]
    for M, family, message in cases:
        with pytest.raises(InternalAxiomFailure, match=f"^flats {message}$"):
            FlatLattice(M, family)
    assert pairwise == []
    # the search's own flats, given by a caller, pass the comparison
    for M in (uniform_matroid(2, 4), graphic_matroid(K4_EDGES), fano()):
        flats = flats_lattice(M).elements
        assert FlatLattice(M, flats).elements == flats


def random_equal_size_family(rng):
    """Bases of a random binary matroid, sometimes with one basis dropped
    or one equal-size set added, or else a random family of r-subsets."""
    n = rng.randint(4, 6)
    if rng.random() < 0.6:
        M = random_binary_matroid(rng, rng.choice([2, 3]), n)
        family = set(M.bases)
        r = M.rank_total
        roll = rng.random()
        if roll < 0.3 and len(family) > 1:
            family.discard(rng.choice(sorted(family)))
        elif roll < 0.6:
            family.add(from_elements(rng.sample(range(n), r)))
    else:
        r = rng.randint(1, n - 1)
        pool = [from_elements(c) for c in combinations(range(n), r)]
        family = set(rng.sample(pool, rng.randint(1, len(pool))))
    return n, frozenset(family)


def exchange_violations(bases, B1):
    """{B2: every x in B1 - B2 with no exchange into B2}, by brute force."""
    out = {}
    for B2 in bases:
        xs = [
            x for x in elements(B1 & ~B2)
            if not any((B1 & ~(1 << x)) | (1 << y) in bases for y in elements(B2 & ~B1))
        ]
        if xs:
            out[B2] = xs
    return out


def uniform_minus_some_bases(rng):
    """r-subsets of an n-set (more than 64 of them) minus one to four; a
    second dropped set one swap away from the first breaks the exchange
    axiom, otherwise the family may still be a matroid."""
    r, n = rng.choice([(4, 9), (5, 10), (3, 11)])
    pool = [from_elements(c) for c in combinations(range(n), r)]
    first = rng.choice(pool)
    dropped = {first}
    if rng.random() < 0.5:
        inside, outside = elements(first), elements(((1 << n) - 1) & ~first)
        dropped.add(first & ~(1 << rng.choice(inside)) | (1 << rng.choice(outside)))
    while len(dropped) < rng.randint(1, 4):
        dropped.add(rng.choice(pool))
    return n, frozenset(B for B in pool if B not in dropped)


def sparse_family(rng):
    """A few r-subsets, far from a matroid: pairs of bases often differ in
    several elements that have no exchange."""
    n = rng.randint(4, 7)
    r = rng.randint(2, n - 2)
    pool = [from_elements(c) for c in combinations(range(n), r)]
    return n, frozenset(rng.sample(pool, rng.randint(2, 5)))


def test_exchange_violation_names_oracle_witness():
    """The first B1 in iteration order, then its first violating B2, then
    the smallest x: pinned on families with several violating B2 for that
    B1, several x for that B2, and bitsets of more than 64 bases."""
    rng = random.Random(5150)
    families = [random_equal_size_family(rng) for _ in range(400)]
    families += [sparse_family(rng) for _ in range(100)]
    families += [uniform_minus_some_bases(rng) for _ in range(40)]
    violations = valid = several_b2 = several_x = wide = high_b2 = 0
    for n, bases in families:
        witness = oracles.first_exchange_violation(bases)
        if witness is None:
            assert Matroid(GroundSet(n), bases).bases == bases
            valid += 1
            continue
        violations += 1
        x, B1, B2 = witness
        found = exchange_violations(bases, B1)
        assert next(iter(found)) == B2 and found[B2][0] == x
        several_b2 += len(found) >= 2
        several_x += len(found[B2]) >= 2
        wide += len(bases) > 64
        high_b2 += list(bases).index(B2) >= 64
        with pytest.raises(ExchangeAxiomViolation) as exc:
            Matroid(GroundSet(n), bases)
        assert str(exc.value) == (
            f"no exchange for element {x} between bases "
            f"{{{format_elements(B1)}}} and {{{format_elements(B2)}}}"
        )
    assert violations >= 30 and valid >= 30, (violations, valid)
    assert several_b2 >= 30 and several_x >= 30, (several_b2, several_x)
    assert wide >= 20 and high_b2 >= 3, (wide, high_b2)


def wide_binary_matroids(rng, count):
    """Seeded random binary matroids of rank up to 5 on 10 to 12 elements;
    most have more than 64 bases, so the incidence bitsets span several
    machine words."""
    return [
        random_binary_matroid(rng, rng.choice([4, 5]), rng.randint(10, 12))
        for _ in range(count)
    ]


def test_exchange_check_per_cocircuit_names_oracle_witness():
    """Binary matroids of rank 4 or 5 with one basis dropped or one
    r-subset added, most with more than 64 bases: read per completing mask
    of B - z, the first violation is still the pairwise walk's."""
    rng = random.Random(31337)
    violations = 0
    for M in wide_binary_matroids(rng, 40):
        n, r = M.ground.n, M.rank_total
        family = set(M.bases)
        if rng.random() < 0.5 and len(family) > 1:
            family.discard(rng.choice(sorted(family)))
        else:
            family.add(from_elements(rng.sample(range(n), r)))
        bases = frozenset(family)
        witness = oracles.first_exchange_violation(bases)
        if witness is None:
            assert Matroid(GroundSet(n), bases).bases == bases
            continue
        violations += 1
        x, B1, B2 = witness
        with pytest.raises(ExchangeAxiomViolation) as exc:
            Matroid(GroundSet(n), bases)
        assert str(exc.value) == (
            f"no exchange for element {x} between bases "
            f"{{{format_elements(B1)}}} and {{{format_elements(B2)}}}"
        )
    assert violations >= 25, violations


def test_spanning_rank_and_closure_match_basis_scan_oracle():
    """Rank, the spanning bases and closure from the bit-sliced counts
    agree with one scan of every basis: on every subset of small ground
    sets, and on 300 seeded subsets of the wide ones."""
    rng = random.Random(20261019)
    wide = 0
    for M in closure_cases() + wide_binary_matroids(rng, 16):
        bases, full = list(M.bases), M.ground.full_mask
        wide += len(bases) > 64
        tested = range(full + 1) if M.ground.n <= 8 else [rng.randrange(full + 1) for _ in range(300)]
        for S in tested:
            r, kept = M._spanning(S)
            assert r == M.rank(S) == oracles.rank_by_scan(bases, S), (M, S)
            assert [bases[i] for i in elements(kept)] == oracles.spanning_bases_scan(bases, S)
            assert M.closure(S) == oracles.closure_by_scan(full, bases, S), (M, S)
    assert wide >= 10, wide


def random_multigraph(rng):
    """Edges on up to 6 vertex names with self-loops, parallel edges,
    vertices touched only by a self-loop, and often several components."""
    names = rng.sample(range(20), rng.randint(1, 6))
    edges = []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.15:
            v = rng.choice(names)
            edges.append((v, v))
        elif roll < 0.3 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append(tuple(rng.sample(names, 2)) if len(names) > 1 else (names[0],) * 2)
    return edges


def components(edges):
    vertices = {v for e in edges for v in e}
    label = {v: v for v in vertices}
    for u, v in edges:
        a, b = label[u], label[v]
        label = {x: a if c == b else c for x, c in label.items()}
    return len(set(label.values()))


def test_graphic_bases_match_combination_scan_oracle():
    """Spanning forests by backtracking are exactly the r-subsets of edges
    that a union-find finds acyclic."""
    rng = random.Random(4242)
    seen = {"self-loop": 0, "parallel": 0, "isolated": 0, "several components": 0}
    for _ in range(300):
        edges = random_multigraph(rng)
        M = graphic_matroid(edges)
        assert M.bases == oracles.graphic_bases_by_combinations(edges), edges
        loops = [e for e in edges if e[0] == e[1]]
        touched = {v for e in edges if e[0] != e[1] for v in e}
        seen["self-loop"] += bool(loops)
        seen["parallel"] += len({frozenset(e) for e in edges}) < len(edges)
        seen["isolated"] += any(e[0] not in touched for e in loops)
        seen["several components"] += components(edges) >= 2
    assert min(seen.values()) >= 30, seen
    for k in (5, 6):
        edges = list(combinations(range(k), 2))
        assert graphic_matroid(edges).bases == oracles.graphic_bases_by_combinations(edges)


def test_basis_cap_refuses_before_or_while_enumerating(monkeypatch):
    # the cap admits M(K7), with 7^5 spanning trees
    assert matroid.MAX_BASES >= 7 ** 5
    monkeypatch.setattr(matroid, "MAX_BASES", 15)
    assert len(uniform_matroid(2, 6).bases) == 15
    with pytest.raises(SizeLimitExceeded, match=r"^20 bases exceed the cap of 15$"):
        uniform_matroid(3, 6)
    # K4 has 16 spanning trees; the walk stops at the 16th
    with pytest.raises(SizeLimitExceeded, match=r"^16 bases found so far exceed the cap of 15$"):
        graphic_matroid(K4_EDGES)
    with pytest.raises(SizeLimitExceeded, match=r"^20 bases exceed the cap of 15$"):
        matroid_from_bases(6, combinations(range(6), 3))
    monkeypatch.setattr(matroid, "MAX_BASES", 16)
    assert len(graphic_matroid(K4_EDGES).bases) == 16


@pytest.mark.parametrize("edges, loops", [
    ([(0, 1), (1, 1), (1, 2), (0, 2), (2, 2)], 0b10010),  # loops join the first cover
    ([(1, 1), (0, 1), (1, 2), (0, 2)], 0b1),  # the first element tried is a loop
])
def test_flats_search_records_a_non_closed_start(monkeypatch, edges, loops):
    """Started from the empty set of a matroid with loops, the search
    sees that set is not closed and refuses it by name, before any lattice
    is built or any pair of sets is intersected."""
    M = graphic_matroid(edges)
    assert M.loops() == loops
    bases, full = list(M.bases), M.ground.full_mask
    assert oracles.closure_by_scan(full, bases, 0) != 0
    monkeypatch.setattr(Matroid, "closure", lambda self, S: S)
    built = []
    lattice_class = matroid.FlatLattice

    def spy_lattice(*args, **kwargs):
        built.append(args)
        return lattice_class(*args, **kwargs)

    monkeypatch.setattr(matroid, "FlatLattice", spy_lattice)
    pairwise = counting_pairwise_passes(monkeypatch)
    with pytest.raises(InternalAxiomFailure, match=r"^flats search found \{\}, which is not closed$"):
        flats_lattice(M)
    assert built == [] and pairwise == []


def forest_walk_input(rng):
    """A random multigraph from `random_multigraph` on vertices
    0..order-1, numbered at random, with up to two isolated vertices."""
    edges = random_multigraph(rng)
    vertices = sorted({v for e in edges for v in e})
    order = len(vertices) + rng.randint(0, 2)
    number = dict(zip(vertices, rng.sample(range(order), order)))
    return order, [(number[u], number[v]) for u, v in edges]


def test_forest_walk_matches_the_recursion_oracle():
    """The looped walk returns the recursion's forests in the recursion's
    order, on multigraphs with parallel edges, self-loops, isolated
    vertices and several components."""
    rng = random.Random(20261020)
    kinds = {"loop": 0, "parallel": 0, "isolated": 0, "components": 0}
    for _ in range(400):
        order, edges = forest_walk_input(rng)
        expected = oracles.spanning_forests_by_recursion(order, edges)
        assert matroid._spanning_forests(order, edges) == expected, (order, edges)
        links = [frozenset(e) for e in edges if e[0] != e[1]]
        kinds["loop"] += len(links) < len(edges)
        kinds["parallel"] += len(set(links)) < len(links)
        kinds["isolated"] += len({v for e in edges for v in e}) < order
        kinds["components"] += components(edges) > 1
    assert min(kinds.values()) >= 40, kinds
    k4 = list(combinations(range(4), 2))
    for order, edges in ((7, k4 + [(a + 3, b + 3) for a, b in k4]),
                         (5, list(combinations(range(5), 2)))):
        expected = oracles.spanning_forests_by_recursion(order, edges)
        assert matroid._spanning_forests(order, edges) == expected
    # with no edge to take, the empty forest is the only one
    assert matroid._spanning_forests(3, [(0, 0), (2, 2)]) == [0]


def test_forest_walk_refuses_mid_walk_at_the_cap(monkeypatch):
    """Past `MAX_BASES` the walk stops with the same message at the same
    count as the recursion would."""
    rng = random.Random(7)
    checked = 0
    while checked < 30:
        order, edges = forest_walk_input(rng)
        count = len(oracles.spanning_forests_by_recursion(order, edges))
        if count < 3:
            continue
        checked += 1
        cap = rng.randrange(1, count)
        monkeypatch.setattr(matroid, "MAX_BASES", cap)
        with pytest.raises(SizeLimitExceeded,
                           match=rf"^{cap + 1} bases found so far exceed the cap of {cap}$"):
            matroid._spanning_forests(order, edges)
        monkeypatch.setattr(matroid, "MAX_BASES", count)
        assert len(matroid._spanning_forests(order, edges)) == count


def test_flats_record_and_weisner_mobius_match_oracles(catalog):
    """On the catalog and seeded random binary matroids (parallel elements
    included): the search's record holds each flat with r(F) and the
    covers of the per-point order table; the order table propagated over
    those covers equals the per-point one, and the interval ranks read off
    the record's ranks equal the walked ones on every comparable pair; and
    chi and chibar read off the record by Weisner's theorem equal the
    frozenset oracles and the sums over the `MobiusTable` bottom row."""
    rng = random.Random(20261020)
    matroids = list(catalog.values()) + [
        random_binary_matroid(rng, rng.choice([2, 3, 4]), rng.randint(3, 7)) for _ in range(25)
    ]
    for M in matroids:
        record = matroid._flats_record(M)
        L = flats_lattice(M)
        P = GradedSubposet(M.ground.n, L.elements)
        assert next(iter(record.ranks)) == L.bottom == 0
        assert sorted(record.ranks, key=sort_key) == list(P.elements)
        assert all(record.ranks[F] == M.rank(F) for F in P.elements)
        assert [sorted(P.index(G) for G in record.covers[F]) for F in P.elements] == (
            P._upper_covers)
        for name in ("_up", "_down", "_upper_covers", "_lower_covers"):
            assert getattr(L, name) == getattr(P, name), name
        pairs = P.comparable_pairs()
        assert [L.interval_rank(K, F) for K, F in pairs] == [
            P.interval_rank(K, F) for K, F in pairs]
        universe = frozenset(range(M.ground.n))
        bases = [frozenset(elements(B)) for B in M.bases]
        table = mobius(P)
        mu = matroid._mobius_from_bottom(record)
        assert mu == {F: table.mu(0, F) for F in P.elements}
        top = M.rank_total
        sums = [0] * (top + 1)
        for F in P.elements:
            sums[top - M.rank(F)] += table.mu(0, F)
        chi = characteristic_polynomial(M)
        assert list(chi.coeffs) == oracles.charpoly_coeffs_ascending(universe, bases) == sums
        reduced = oracles.reduced_coeffs_ascending(universe, bases)
        for i in range(M.ground.n):
            sums = [0] * top
            for F in P.elements:
                if not (F >> i) & 1:
                    sums[top - M.rank(F) - 1] += table.mu(0, F)
            assert list(reduced_characteristic_polynomial(M, i).coeffs) == reduced == sums


def tampered_search(monkeypatch, tamper):
    """Patch the flats search to tamper with its record: `"two ranks up"`
    puts a rank-2 flat in place of the bottom's first cover, `"gain
    missed"` drops the bottom's last cover, whose gain no other cover
    holds, and `"cover twice"` records the bottom's first cover again, so
    that Weisner's sum would count it twice."""
    search = matroid._search_flats

    def patched(M):
        ranks, covers = search(M)
        ups = covers[next(iter(ranks))]
        if tamper == "two ranks up":
            ups[0] = covers[ups[0]][0]
        elif tamper == "gain missed":
            ups.pop()
        else:
            ups.append(ups[0])
        return ranks, covers

    monkeypatch.setattr(matroid, "_search_flats", patched)


TAMPER_MESSAGES = {
    "two ranks up": r"^flats search recorded \{\d+(,\d+)+\} as a cover of \{\}, "
                    r"not a found set one rank up$",
    "gain missed": r"^flats search covers of \{\} do not partition the elements outside it$",
    "cover twice": r"^flats search covers of \{\} do not partition the elements outside it$",
}


@pytest.mark.parametrize("tamper", sorted(TAMPER_MESSAGES))
def test_tampered_search_record_is_refused(monkeypatch, capsys, tamper):
    """A search that records a cover two ranks up, whose cover gains miss
    an element, or that records a cover twice is refused by `charpoly` and
    by `flats_lattice`, and the CLI exits 2 with one line naming it."""
    tampered_search(monkeypatch, tamper)
    for build in (characteristic_polynomial, flats_lattice):
        for M in (fano(), uniform_matroid(3, 5), graphic_matroid(K4_EDGES)):
            with pytest.raises(InternalAxiomFailure, match=TAMPER_MESSAGES[tamper]):
                build(M)
            assert M._flats is None and M._lattice is None
    for command in ("charpoly", "poset-check"):
        code = main([command, "--fano", "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("InternalAxiomFailure: flats search ")


def test_carried_search_matches_the_per_flat_oracle(catalog):
    """Carrying spanning bases down the search gives the record that one
    `_spanning` call per flat gives, ranks in the order found and covers,
    on the catalog, seeded random binary matroids (parallel elements
    included), U(6,7), M(K6) and M(K4.K4)."""
    rng = random.Random(20261022)
    randoms = [
        random_binary_matroid(rng, rng.choice([2, 3, 4]), rng.randint(3, 7)) for _ in range(25)
    ]
    # an atom of more than one element is a class of parallel elements
    assert any(
        any(G.bit_count() > 1 for G in matroid._flats_record(M).covers[0]) for M in randoms
    )
    k4_k4 = K4_EDGES + [(a + 3, b + 3) for a, b in K4_EDGES]
    matroids = [*catalog.values(), *randoms, uniform_matroid(6, 7),
                graphic_matroid(combinations(range(6), 2)), graphic_matroid(k4_k4)]
    for M in matroids:
        ranks, covers = matroid._search_flats(M)
        want_ranks, want_covers = oracles.flats_search_per_flat(M)
        assert list(ranks.items()) == list(want_ranks.items()), M
        assert covers == want_covers, M


def search_carrying(mask):
    """`matroid._search_flats`, compiled from its own source with the mask
    it carries to each newly found cover replaced by the expression
    `mask`."""
    source = textwrap.dedent(inspect.getsource(matroid._search_flats))
    carried = "frontier.append((G, spanning))"
    assert source.count(carried) == 1
    namespace = dict(vars(matroid))
    exec(source.replace(carried, f"frontier.append((G, {mask}))"), namespace)
    return namespace["_search_flats"]


CARRIED_TAMPERS = {
    "parent-mask": ("kept", r"^flats search recorded \{\d+(,\d+)*\} as a cover of "
                            r"\{[\d,]*\}, not a found set one rank up$"),
    "lowest-basis-dropped": ("spanning & (spanning - 1)",
                             r"^flats search found \{\d+(,\d+)*\}, which is not closed$"),
}


@pytest.mark.parametrize("tamper", sorted(CARRIED_TAMPERS))
def test_tampered_carried_masks_are_refused(monkeypatch, tamper):
    """Carrying the parent's mask, whose bases need not hold the cover's
    new element, misreads a cover's rank, and the record refuses it;
    dropping the lowest basis of each carried mask can lose every basis
    through a basis of the cover plus an element outside its closure, so
    the cover, or a flat found from it, looks unclosed, and the search
    refuses it.  Carried untampered, the compiled copy gives the search's
    record."""
    assert search_carrying("spanning")(fano()) == matroid._search_flats(fano())
    mask, message = CARRIED_TAMPERS[tamper]
    monkeypatch.setattr(matroid, "_search_flats", search_carrying(mask))
    for M in (fano(), graphic_matroid(K4_EDGES), uniform_matroid(3, 5)):
        with pytest.raises(InternalAxiomFailure, match=message):
            flats_lattice(M)
        assert M._flats is None and M._lattice is None
