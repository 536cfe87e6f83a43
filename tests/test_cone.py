import random
from fractions import Fraction

import pytest

from conepol import (
    IntervalCoords,
    IntervalVector,
    alpha_vector,
    beta_vector,
    canonical_interior_point,
    is_modular,
    is_strictly_submodular,
)
from conepol.cone import diamonds, is_weakly_submodular, submodularity_margin
from conepol.errors import ElementOutsideInterval, InvalidParams
from conepol.subsets import elements, from_elements

import oracles
from oracles import BadNesting, project
from side_checks import (
    NotInCone,
    TrivialInterval,
    alpha_indicator,
    beta_indicator,
    effective_decompose,
    modular_basis,
    modular_vector,
    scaled,
)


def coords_on(k_els, l_els):
    return IntervalCoords(from_elements(k_els), from_elements(l_els))


def random_vector(coords, rng, spread=9):
    return IntervalVector(
        coords,
        [Fraction(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(coords.m)],
    )


def test_coords_indexing():
    c = coords_on([], [0, 1, 2])
    assert c.m == 6
    assert c.subsets[0] == from_elements([0])
    with pytest.raises(InvalidParams):
        coords_on([0], [0])


def test_modular_basis_two_elements():
    c = coords_on([], [0, 1])
    basis = modular_basis(c)
    assert len(basis) == 1
    v = basis[0]
    assert v[from_elements([0])] == 1
    assert v[from_elements([1])] == -1


def test_modular_basis_three_elements_satisfies_modularity():
    c = coords_on([], [0, 1, 2])
    for v in modular_basis(c):
        assert is_modular(v)


def test_modular_basis_trivial_interval():
    with pytest.raises(TrivialInterval):
        modular_basis(coords_on([], [0]))


def test_modular_vector_weight_validation():
    c = coords_on([], [0, 1])
    with pytest.raises(InvalidParams):
        modular_vector(c, {0: Fraction(1)})


def test_strictly_submodular_examples():
    c = coords_on([], [0, 1, 2, 3])
    assert is_strictly_submodular(canonical_interior_point(c))
    assert not is_strictly_submodular(alpha_vector(c))  # boundary point
    assert not is_strictly_submodular(modular_basis(c)[0])


def test_strict_submodularity_on_two_element_interval():
    # the two middles are incomparable, so the cone is an open half-space
    c = coords_on([], [0, 1])
    assert is_strictly_submodular(IntervalVector(c, [3, -1]))
    assert not is_strictly_submodular(IntervalVector(c, [-1, -1]))


def test_effective_decompose_positive_point_keeps_zero_shift_valid():
    c = coords_on([], [0, 1, 2])
    v = canonical_interior_point(c)
    w, eps = effective_decompose(v)
    assert is_modular(w)
    assert all(val > 0 for val in (v + w).values)
    assert eps == 1


def test_effective_decompose_after_modular_drift():
    c = coords_on([], [0, 1, 2, 3])
    v = canonical_interior_point(c)
    drift = scaled(modular_basis(c)[0], 40)
    y = v - drift
    assert is_strictly_submodular(y)
    assert any(val <= 0 for val in y.values)
    w, eps = effective_decompose(y)
    assert is_modular(w)
    assert all(val > 0 for val in (y + w).values)
    assert eps.numerator == 1 and (1 / eps).denominator == 1  # of the form 1/2^k


def test_effective_decompose_rejects_non_cone_points():
    c = coords_on([], [0, 1])
    with pytest.raises(NotInCone):
        effective_decompose(IntervalVector(c, [-1, -1]))


def test_effective_decompose_half_space():
    c = coords_on([], [0, 1])
    y = IntervalVector(c, [3, -1])
    w, _ = effective_decompose(y)
    assert is_modular(w)
    assert all(val > 0 for val in (y + w).values)


def test_project_identity():
    c = coords_on([], [0, 1, 2])
    rng = random.Random(3)
    t = random_vector(c, rng)
    assert project(t, c.K, c.L) == t


def test_project_bad_nesting():
    c = coords_on([], [0, 1, 2])
    t = IntervalVector.zero(c)
    with pytest.raises(BadNesting):
        project(t, from_elements([0]), from_elements([0]))
    with pytest.raises(BadNesting):
        project(t, from_elements([3]), from_elements([0, 3]))


def test_alpha_beta_projection_rules():
    c = coords_on([], [0, 1, 2, 3])
    a, b = alpha_vector(c), beta_vector(c)
    F = from_elements([0, 1])
    assert all(v == 0 for v in project(a, c.K, F).values)
    assert project(a, F, c.L) == alpha_vector(IntervalCoords(F, c.L))
    assert project(b, c.K, F) == beta_vector(IntervalCoords(c.K, F))
    assert all(v == 0 for v in project(b, F, c.L).values)


def test_alpha_beta_lie_in_cone_closure():
    c = coords_on([], [0, 1, 2, 3])
    assert is_weakly_submodular(alpha_vector(c))
    assert is_weakly_submodular(beta_vector(c))


def test_alpha_beta_sum_to_one():
    c = coords_on([1], [1, 2, 3, 5])
    total = alpha_vector(c) + beta_vector(c)
    assert all(v == 1 for v in total.values)


def test_alpha_beta_indicator_differences_are_modular():
    c = coords_on([], [0, 1, 2])
    a, b = alpha_vector(c), beta_vector(c)
    for i in range(3):
        assert is_modular(a - alpha_indicator(c, i))
        assert is_modular(b - beta_indicator(c, i))
    with pytest.raises(ElementOutsideInterval):
        alpha_indicator(c, 5)


def test_alpha_values():
    c = coords_on([], [0, 1, 2])
    a = alpha_vector(c)
    assert a[from_elements([0])] == Fraction(1, 3)
    assert a[from_elements([0, 1])] == Fraction(2, 3)


def test_projection_preserves_modular_and_cone():
    rng = random.Random(7)
    c = coords_on([], [0, 1, 2, 3])
    F, G = from_elements([0]), from_elements([0, 1, 2])
    for vec in modular_basis(c):
        assert is_modular(project(vec, F, G))
        assert is_modular(project(vec, c.K, G))
    for _ in range(10):
        v = canonical_interior_point(c) + scaled(random_vector(c, rng, spread=1), Fraction(1, 8))
        assert is_strictly_submodular(v)
        assert is_strictly_submodular(project(v, F, G))


def test_projection_composition_coherence():
    rng = random.Random(11)
    c = coords_on([], [0, 1, 2, 3, 4])
    G, F = from_elements([0]), from_elements([0, 1, 2, 3])
    for _ in range(10):
        t = random_vector(c, rng)
        direct = project(t, G, F)
        assert project(project(t, c.K, F), G, F) == direct
        assert project(project(t, G, c.L), G, F) == direct


def test_interval_vector_json_roundtrip():
    c = coords_on([], [0, 1, 2])
    rng = random.Random(5)
    v = random_vector(c, rng)
    again = IntervalVector.from_json_obj(v.to_json_obj())
    assert again == v


def test_effective_decompose_random_stress():
    # random cone points built as interior + perturbation + modular drift;
    # the decomposition must always restore positivity with a modular shift
    rng = random.Random(99)
    for span in (2, 3, 4, 5, 6):
        c = coords_on([], list(range(span)))
        base = canonical_interior_point(c)
        basis = modular_basis(c)
        for _ in range(10):
            y = base + IntervalVector(
                c, [Fraction(rng.randint(-16, 16), 64) for _ in range(c.m)]
            )
            for vec in basis:
                y = y + scaled(vec, Fraction(rng.randint(-30, 30), rng.randint(1, 3)))
            assert is_strictly_submodular(y)
            w, eps = effective_decompose(y)
            assert is_modular(w)
            assert all(val > 0 for val in (y + w).values)
            assert eps > 0 and eps.numerator == 1
            # eps is the largest power of 1/2 (at most 1) that keeps
            # y - eps * base weakly submodular
            assert eps == 1 or not is_weakly_submodular(y - scaled(base, 2 * eps))


def test_diamond_predicates_match_pairwise_oracle():
    # random vectors, cone points perturbed across the boundary and drifted
    # by modular vectors, and the alpha/beta/modular boundary points, on
    # intervals with K empty and nonempty
    rng = random.Random(1500)
    seen = {"strict": 0, "weak only": 0, "modular": 0, "outside": 0}
    for span in (2, 3, 4, 5):
        for k_els in ([], [span]):
            c = coords_on(k_els, k_els + list(range(span)))
            base = canonical_interior_point(c)
            basis = modular_basis(c)
            vectors = [base, alpha_vector(c), beta_vector(c), *basis]
            vectors += [random_vector(c, rng) for _ in range(20)]
            for _ in range(30):
                y = base + IntervalVector(
                    c, [Fraction(rng.randint(-2, 2), 4) for _ in range(c.m)]
                )
                for vec in basis:
                    y = y + scaled(vec, rng.randint(-20, 20))
                vectors.append(y)
            for v in vectors:
                margins = oracles.pairwise_submodularity_margins(
                    k_els,
                    elements(c.L),
                    {frozenset(elements(S)): x for S, x in zip(c.subsets, v.values)},
                )
                strict = all(m > 0 for m in margins)
                weak = all(m >= 0 for m in margins)
                modular = all(m == 0 for m in margins)
                assert is_strictly_submodular(v) == strict
                assert is_weakly_submodular(v) == weak
                assert is_modular(v) == modular
                if modular:
                    seen["modular"] += 1
                elif strict:
                    seen["strict"] += 1
                elif weak:
                    seen["weak only"] += 1
                else:
                    seen["outside"] += 1
    assert min(seen.values()) >= 8, seen


def test_canonical_point_has_every_diamond_margin_two():
    for span in range(2, 8):
        for k_els in ([], [span]):
            c = coords_on(k_els, k_els + list(range(span)))
            v = canonical_interior_point(c)
            margins = [submodularity_margin(v, S, T) for S, T in diamonds(c)]
            assert len(margins) == 2 ** (span - 2) * span * (span - 1) // 2
            assert set(margins) == {2}
