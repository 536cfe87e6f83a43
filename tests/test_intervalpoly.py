import random
from fractions import Fraction
from math import factorial

import pytest

from conepol import (
    GradedSubposet,
    IntervalCoords,
    IntervalVector,
    MultiPoly,
    UniPoly,
    alpha_beta_restriction,
    alpha_vector,
    beta_vector,
    canonical_interior_point,
    flats_lattice,
    graphic_matroid,
    interval_polynomial,
    mobius,
    reduced_charpoly_via_interval_poly,
    restrict_to_directions,
    uniform_matroid,
)
from conepol.errors import (
    ElementOutsideInterval,
    InternalCheckError,
    InvalidParams,
    NotAnInterval,
    WrongDegree,
)
from conepol.intervalpoly import cache_for, full_contraction
from conepol.subsets import from_elements, is_proper_subset

from conftest import K4_EDGES
from oracles import dense_terms, from_dense, partial
from side_checks import (
    PrerequisiteNotBalanced,
    alpha_indicator,
    derivative_factorization_witness,
    euler_identity_holds,
    modular_basis,
    modular_shift_invariance,
    sum_of_squares_identity_holds,
)


def test_rank_one_interval_gives_constant_one(lattices):
    L = lattices["u23"]
    atom = L.elements[1]
    f = interval_polynomial(L, L.bottom, atom)
    assert f.degree == 0 and f.constant_value() == 1


def test_rank_two_interval_is_variable_sum(lattices):
    L = lattices["u23"]
    f = interval_polynomial(L, L.bottom, L.top)
    assert f == MultiPoly(f.vars, {(k,): 1 for k in range(3)})


def test_rank_three_matches_pairwise_formula(lattices):
    # coefficient pattern of the degree-2 case: for each middle chain F < G,
    # 2 t_F t_G - t_F^2 |L\\G|/|L\\F| - t_G^2 |F\\K|/|G\\K|, all halved
    for name in ("u33", "k4", "fano"):
        L = lattices[name]
        K, top = L.bottom, L.top
        f = interval_polynomial(L, K, top)
        flats = f.vars
        expected = MultiPoly.zero(flats, degree=2)
        for i, F in enumerate(flats):
            for G in flats[i + 1:]:
                lo, hi = (F, G) if is_proper_subset(F, G) else (G, F)
                if not is_proper_subset(lo, hi):
                    continue
                tlo = MultiPoly.variable(flats, lo)
                thi = MultiPoly.variable(flats, hi)
                expected = expected + 2 * tlo * thi
                expected = expected - tlo * tlo * Fraction(
                    (top & ~hi).bit_count(), (top & ~lo).bit_count()
                )
                expected = expected - thi * thi * Fraction(
                    (lo & ~K).bit_count(), (hi & ~K).bit_count()
                )
        assert 2 * f == expected


def test_interval_polynomial_requires_strict_interval(lattices):
    L = lattices["u23"]
    with pytest.raises(NotAnInterval):
        interval_polynomial(L, L.bottom, L.bottom)
    with pytest.raises(NotAnInterval):
        interval_polynomial(L, L.elements[1], L.elements[2])


def test_derivative_factorization(lattices):
    for name in ("u23", "u33", "k4"):
        L = lattices[name]
        assert derivative_factorization_witness(L, L.bottom, L.top) is None


def test_incomparable_second_partials_vanish(lattices):
    for name in ("u34", "fano"):
        L = lattices[name]
        f = interval_polynomial(L, L.bottom, L.top)
        for i, F in enumerate(f.vars):
            for G in f.vars[i + 1:]:
                if not (is_proper_subset(F, G) or is_proper_subset(G, F)):
                    assert partial(partial(f, F), G).is_zero()


def test_euler_consistency(lattices):
    for L in lattices.values():
        assert euler_identity_holds(interval_polynomial(L, L.bottom, L.top))


def test_modular_shift_invariance(lattices):
    for L in lattices.values():
        assert modular_shift_invariance(L, L.bottom, L.top, trials=20, seed=3)


@pytest.mark.parametrize("trials", [0, -3])
def test_modular_shift_invariance_rejects_zero_trials(lattices, trials):
    L = lattices["fano"]
    with pytest.raises(InvalidParams):
        modular_shift_invariance(L, L.bottom, L.top, trials=trials)


def test_polynomial_vanishes_on_modular_vectors(lattices):
    L = lattices["k4"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    for w in modular_basis(coords):
        assert f.evaluate(w) == 0


def test_invariance_under_alpha_indicator_shift(lattices):
    L = lattices["u34"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    shift = alpha_vector(coords) - alpha_indicator(coords, 2)
    rng = random.Random(8)
    for _ in range(10):
        x = {F: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for F in f.vars}
        moved = {F: x[F] + shift[F] for F in f.vars}
        assert f.evaluate(moved) == f.evaluate(x)


def test_invariance_requires_balanced():
    towers = GradedSubposet(
        4,
        [0, from_elements([0]), from_elements([0, 1]), from_elements([2]),
         from_elements([2, 3]), from_elements([0, 1, 2, 3])],
    )
    with pytest.raises(PrerequisiteNotBalanced):
        modular_shift_invariance(towers, 0, from_elements([0, 1, 2, 3]), trials=1)


def test_alpha_beta_evaluations_on_all_intervals(lattices):
    for L in lattices.values():
        table = mobius(L)
        for K, top in L.comparable_pairs():
            d = L.interval_degree(K, top)
            coords = IntervalCoords(K, top)
            assert interval_polynomial(L, K, top).evaluate(
                alpha_vector(coords)
            ) == Fraction(1, factorial(d))
            assert interval_polynomial(L, K, top).evaluate(
                beta_vector(coords)
            ) == Fraction(abs(table.mu(K, top)), factorial(d))


def test_alpha_beta_restriction_frozen_examples(lattices):
    L = lattices["u23"]
    f = alpha_beta_restriction(L, L.bottom, L.top, 0)
    assert f == from_dense(("s", "t"), {(1, 0): 1, (0, 1): 2})

    B3 = lattices["u33"]
    g = alpha_beta_restriction(B3, B3.bottom, B3.top, 0)
    assert g == from_dense(("s", "t"), {(2, 0): 1, (1, 1): 4, (0, 2): 1})


def test_alpha_beta_restriction_at_t_zero_is_s_power(lattices):
    for L in lattices.values():
        d = L.interval_degree(L.bottom, L.top)
        f = alpha_beta_restriction(L, L.bottom, L.top, 0)
        assert dense_terms(f)[(d, 0)] == 1


def test_alpha_beta_restriction_element_check(lattices):
    L = lattices["u23"]
    with pytest.raises(ElementOutsideInterval):
        alpha_beta_restriction(L, L.bottom, L.top, 9)


def test_reduced_charpoly_via_interval_poly(catalog):
    expected = {
        "u23": UniPoly([-2, 1]),
        "u33": UniPoly([1, -2, 1]),
        "u34": UniPoly([3, -3, 1]),
        "k4": UniPoly([6, -5, 1]),
        "fano": UniPoly([8, -6, 1]),
    }
    for name, M in catalog.items():
        assert reduced_charpoly_via_interval_poly(M) == expected[name]


def test_sum_of_squares_identity(lattices):
    for name in ("u33", "u34", "k4", "fano"):
        L = lattices[name]
        assert sum_of_squares_identity_holds(L, L.bottom, L.top)
    with pytest.raises(NotAnInterval):
        sum_of_squares_identity_holds(lattices["u23"], lattices["u23"].bottom,
                                      lattices["u23"].top)


def test_restricted_coefficients_positive_on_cone_tuples(lattices):
    rng = random.Random(21)
    for name in ("u34", "k4"):
        L = lattices[name]
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        base = canonical_interior_point(coords)
        for m in (2, 3):
            dirs = []
            for _ in range(m):
                delta = [Fraction(rng.randint(-16, 16), 64) for _ in range(coords.m)]
                dirs.append(base + IntervalVector(coords, delta))
            g = restrict_to_directions(f, dirs)
            assert all(c > 0 for c in g.terms.values())


def test_full_contraction_order_independent(lattices):
    L = lattices["u33"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    v = canonical_interior_point(coords)
    a = alpha_vector(coords)
    assert full_contraction(f, [v, a]) == full_contraction(f, [a, v])


@pytest.mark.parametrize("count", [1, 4])
def test_full_contraction_rejects_a_tuple_of_the_wrong_length(lattices, count):
    """Too few directions and too many are both refused, by their count."""
    L = lattices["u33"]
    f = interval_polynomial(L, L.bottom, L.top)
    v = canonical_interior_point(IntervalCoords(L.bottom, L.top))
    assert full_contraction(f, [v, v]) == 24
    with pytest.raises(WrongDegree, match=f"^{count} directions for a degree-2 polynomial$"):
        full_contraction(f, [v] * count)


def test_lift_needs_exactly_one_outer_endpoint(lattices):
    """A lift into (K, L) is of [K, F] or [F, L]; a sub-interval with both
    or neither endpoint among the outer variables is a bug."""
    L = lattices["u33"]
    cache = cache_for(L)
    flats = cache.polynomial(L.bottom, L.top).vars
    F, G = 0b001, 0b011
    assert F in flats and G in flats
    for low, high, count in ((L.bottom, L.top, 0), (F, G, 2)):
        with pytest.raises(InternalCheckError, match=f"^{count} endpoints of "):
            cache._lift(low, high, flats)


def test_graphic_k4_derivative_identity_every_flat(lattices):
    L = flats_lattice(graphic_matroid(K4_EDGES))
    assert derivative_factorization_witness(L, L.bottom, L.top) is None


def test_uniform_interval_polynomial_is_memoized():
    L = flats_lattice(uniform_matroid(3, 4))
    f1 = interval_polynomial(L, L.bottom, L.top)
    f2 = interval_polynomial(L, L.bottom, L.top)
    assert f1 is f2
