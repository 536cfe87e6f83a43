import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from conepol import (
    GroundSet,
    Matroid,
    UniPoly,
    characteristic_polynomial,
    closure,
    fano,
    flats_lattice,
    graphic_matroid,
    matroid_from_bases,
    rank,
    reduced_characteristic_polynomial,
    uniform_matroid,
)
from conepol.errors import (
    EmptyBases,
    ExchangeAxiomViolation,
    HasLoops,
    InvalidParams,
    LoopElement,
    UnequalBasisSizes,
)
from conepol.subsets import elements, format_elements, from_elements

from conftest import K4_EDGES
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
    assert rank(M, from_elements([0, 1, 2])) == 2
    assert rank(M, 0) == 0
    K4 = graphic_matroid(K4_EDGES)
    # edges (0,1), (0,2), (1,2) form a triangle
    assert rank(K4, from_elements([0, 1, 3])) == 2


def test_rank_is_monotone_and_submodular():
    rng = random.Random(0)
    for M in (uniform_matroid(2, 4), graphic_matroid(K4_EDGES), fano()):
        full = M.ground.full_mask
        for _ in range(200):
            S = rng.randrange(full + 1)
            T = rng.randrange(full + 1)
            assert rank(M, S) <= rank(M, S | T)
            assert rank(M, S) + rank(M, T) >= rank(M, S | T) + rank(M, S & T)


def test_closure_examples():
    M = uniform_matroid(2, 3)
    assert closure(M, from_elements([0])) == from_elements([0])
    assert closure(M, from_elements([0, 1])) == from_elements([0, 1, 2])


def test_closure_idempotent():
    rng = random.Random(1)
    for M in (uniform_matroid(3, 4), graphic_matroid(K4_EDGES)):
        full = M.ground.full_mask
        for _ in range(100):
            S = rng.randrange(full + 1)
            cl = closure(M, S)
            assert closure(M, cl) == cl


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
    return [fano(), uniform_matroid(3, 5), graphic_matroid(K4_EDGES), loopy] + binary


def test_closure_matches_frozenset_oracle():
    cases = closure_cases()
    for M in cases:
        universe = frozenset(range(M.ground.n))
        bases = [frozenset(elements(B)) for B in M.bases]
        for S in range(M.ground.full_mask + 1):
            expected = oracles.closure_of(universe, bases, elements(S))
            assert elements(closure(M, S)) == sorted(expected), (M, S)
    loopy = cases[3]
    assert loopy.closure(0) == from_elements([3, 4]) == loopy.loops()


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


def test_exchange_violation_names_oracle_witness():
    rng = random.Random(5150)
    violations = valid = 0
    for _ in range(400):
        n, bases = random_equal_size_family(rng)
        witness = oracles.first_exchange_violation(bases)
        if witness is None:
            assert Matroid(GroundSet(n), bases).bases == bases
            valid += 1
            continue
        violations += 1
        x, B1, B2 = witness
        with pytest.raises(ExchangeAxiomViolation) as exc:
            Matroid(GroundSet(n), bases)
        assert str(exc.value) == (
            f"no exchange for element {x} between bases "
            f"{{{format_elements(B1)}}} and {{{format_elements(B2)}}}"
        )
    assert violations >= 30 and valid >= 30, (violations, valid)
