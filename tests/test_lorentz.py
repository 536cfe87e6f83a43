import math
import random
from fractions import Fraction

import pytest

from conepol import (
    IntervalCoords,
    IntervalVector,
    MultiPoly,
    beta_vector,
    alpha_vector,
    canonical_interior_point,
    certify_cone_lorentzian,
    dir_derivative,
    flats_lattice,
    hessian_of_quadratic,
    inertia,
    interval_polynomial,
    is_strictly_submodular,
    restrict_to_directions,
    sample_direction_tuples,
    uniform_matroid,
)
from conepol import lorentz
from conepol.cone import diamonds, submodularity_margin
from conepol.errors import (
    DirectionNotInCone,
    InternalCheckError,
    InvalidParams,
    NotSymmetric,
)
from conepol.intervalpoly import cache_for, full_contraction
from conepol.lorentz import _perturbed_direction, _tuple_result

import oracles
from oracles import (
    NonpositiveValue,
    UnsupportedSupport,
    from_dense,
    is_irreducible_nonneg_offdiag,
)
from side_checks import (
    first_uncertified_derivative,
    hessian_one_positive_equivalence,
    is_lorentzian_orthant,
    product_check,
    scaled,
)


def test_charpoly_descending_2x2():
    # det(tI - A) for [[1, 2], [2, 1]] is t^2 - 2t - 3
    assert oracles.charpoly_descending([[1, 2], [2, 1]]) == [1, -2, -3]


def test_inertia_trivial_cases():
    assert inertia([[1, 0], [0, -1]]) == (1, 0, 1)
    assert inertia([[1, 0], [0, 1]]) == (2, 0, 0)
    assert inertia([[0]]) == (0, 1, 0)
    assert inertia([]) == (0, 0, 0)


@pytest.mark.parametrize("check", [inertia, is_irreducible_nonneg_offdiag])
def test_non_square_or_asymmetric_rows_are_refused(check):
    with pytest.raises(NotSymmetric, match=r"^matrix is not square$"):
        check([[1, 2]])
    with pytest.raises(NotSymmetric, match=r"^matrix is not square$"):
        check([[1, 2], [2]])
    with pytest.raises(NotSymmetric, match=r"^entries \(0,1\) and \(1,0\) differ$"):
        check([[1, 2], [3, 4]])
    with pytest.raises(NotSymmetric, match=r"^entries \(1,2\) and \(2,1\) differ$"):
        check([[0, 1, 1], [1, 0, Fraction(1, 2)], [1, Fraction(1, 3), 0]])


def test_inertia_degenerate_spectra():
    assert inertia([[1, 1], [1, 1]]) == (1, 1, 0)  # eigenvalues 2, 0
    assert inertia([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == (0, 3, 0)
    assert inertia([[-2, 1], [1, -2]]) == (0, 0, 2)  # eigenvalues -1, -3
    # repeated eigenvalues: 2I_3
    assert inertia([[2, 0, 0], [0, 2, 0], [0, 0, 2]]) == (3, 0, 0)
    # rank-1 negative: eigenvalues 0, 0, -3
    neg = [[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]]
    assert inertia(neg) == (0, 2, 1)


def test_inertia_u33_hessian(lattices):
    L = lattices["u33"]
    f = interval_polynomial(L, L.bottom, L.top)
    assert inertia(hessian_of_quadratic(2 * f)) == (1, 2, 3)


def test_inertia_agrees_with_float_oracle():
    rng = random.Random(123)
    compared = 0
    for _ in range(100):
        n = rng.randint(1, 10)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                val = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
                rows[i][j] = val
                rows[j][i] = val
        reference = oracles.float_inertia(rows)
        if reference is None:
            continue
        compared += 1
        assert tuple(inertia(rows)) == reference
    assert compared >= 80


def _random_symmetric(rng, n, density=1.0, zero_diagonal=False):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() > density:
                continue
            val = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
            rows[i][j] = rows[j][i] = val
    return rows


def _low_rank(rng, n, rank, sign=0):
    """B^T D B with B of shape rank x n; D random, or +-1 when sign is set."""
    B = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(rank)]
    D = [sign or rng.choice((-2, -1, 1, Fraction(1, 3))) for _ in range(rank)]
    return [
        [sum(B[k][i] * D[k] * B[k][j] for k in range(rank)) for j in range(n)]
        for i in range(n)
    ]


def test_inertia_matches_descartes_oracle():
    rng = random.Random(2024)
    cases = []
    for n in range(1, 13):
        for density in (1.0, 0.3):
            cases.append(_random_symmetric(rng, n, density))
        cases.append(_random_symmetric(rng, n, 0.6, zero_diagonal=True))
        cases.append(_low_rank(rng, n, rng.randint(1, max(1, n - 1))))
        cases.append(_low_rank(rng, n, n, sign=-1))  # negative definite
        cases.append([[0] * n for _ in range(n)])
    # block with a zero diagonal whose off-diagonal pivot leaves a zero block
    cases.append([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    cases.append([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -3], [0, 0, -3, 0]])
    singular = negative_definite = 0
    for rows in cases:
        expected = oracles.descartes_inertia(rows)
        assert tuple(inertia(rows)) == expected, rows
        # the same matrix as int rows, and as Fractions over one denominator
        scale = math.lcm(*(Fraction(v).denominator for row in rows for v in row))
        ints = [[int(v * scale) for v in row] for row in rows]
        over = [[Fraction(v, 12) for v in row] for row in ints]
        assert tuple(inertia(ints)) == tuple(inertia(over)) == expected, rows
        singular += expected[1] > 0
        negative_definite += expected[0] == expected[1] == 0
    assert singular >= 30 and negative_definite >= 12


@pytest.fixture(scope="module")
def uniform_rank_four():
    return {
        "u44": flats_lattice(uniform_matroid(4, 4)),
        "u45": flats_lattice(uniform_matroid(4, 5)),
    }


def test_inertia_matches_descartes_oracle_on_sampled_hessians(
    lattices, uniform_rank_four
):
    seen = set()
    named = {**lattices, **uniform_rank_four}
    for name in ("u33", "fano", "k4", "u45"):
        L = named[name]
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        d = f.degree
        for tup in sample_direction_tuples(coords, d, 2, seed=5):
            g = f
            for v in tup[2:]:
                g = dir_derivative(g, v)
            H = hessian_of_quadratic(g)
            assert tuple(inertia(H)) == oracles.descartes_inertia(H), name
            seen.add((name, len(H)))
        if d == 2:
            # d*f*H - (d-1)*grad*grad^T at a cone point: negative
            # semidefinite and singular, so only an exact oracle can judge it
            point = tup[0]
            value = f.evaluate(point)
            grad = oracles.gradient_at(f, point)
            rows = [
                [2 * value * H[i][j] - gi * gj for j, gj in enumerate(grad)]
                for i, gi in enumerate(grad)
            ]
            expected = oracles.descartes_inertia(rows)
            assert expected[0] == 0 and expected[1] > 0, name
            assert tuple(inertia(rows)) == expected, name
    assert ("u45", 25) in seen


def test_tuple_result_contraction_matches_full_contraction(
    lattices, uniform_rank_four
):
    named = {"fano": lattices["fano"], "k4": lattices["k4"], **uniform_rank_four}
    for name, L in named.items():
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        assert f.degree == (2 if name in ("fano", "k4") else 3)
        tuples = sample_direction_tuples(coords, f.degree, 3, seed=8)
        for tup in tuples:
            value, triple, ok = _tuple_result(f, tup)
            assert value == full_contraction(f, tup), name
            assert ok and triple.n_plus == 1
        plain = tuple({var: v[var] for var in f.vars} for v in tuples[-1])
        assert _tuple_result(f, plain) == _tuple_result(f, tuples[-1])


def test_irreducibility_predicate():
    assert is_irreducible_nonneg_offdiag([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    block = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    assert not is_irreducible_nonneg_offdiag(block)
    assert not is_irreducible_nonneg_offdiag([[0, -1], [-1, 0]])
    assert is_irreducible_nonneg_offdiag([[5]])


def test_contracted_hessian_irreducible_for_k4(lattices):
    L = lattices["k4"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    for tup in sample_direction_tuples(coords, 2, 5, seed=6):
        g = f  # degree 2: Hessian of f itself, directions only checked for (P)
        assert is_irreducible_nonneg_offdiag(hessian_of_quadratic(g))
        assert full_contraction(f, tup) > 0


def test_certify_catalog_full_intervals(lattices):
    for name, L in lattices.items():
        cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=6, seed=2)
        assert cert.verdict, name
        d = L.interval_degree(L.bottom, L.top)
        for sample in cert.samples:
            assert sample.contraction > 0
            if d >= 2:
                assert sample.hessian_inertia.n_plus == 1
            else:
                assert sample.hessian_inertia is None


def test_certify_u33_canonical_sample_inertia(lattices):
    L = lattices["u33"]
    cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=1, seed=0)
    # sample 0 is the all-canonical tuple
    assert cert.samples[0].hessian_inertia == (1, 2, 3)
    assert cert.samples[0].contraction > 0


def test_certify_rank_two_has_p_only_certificate(lattices):
    L = lattices["u23"]
    cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=4, seed=0)
    assert cert.degree == 1
    assert all(s.hessian_inertia is None for s in cert.samples)
    assert cert.verdict


def test_certify_rejects_directions_outside_cone(lattices):
    L = lattices["u33"]
    coords = IntervalCoords(L.bottom, L.top)
    bad = scaled(canonical_interior_point(coords), -1)  # strictly supermodular
    with pytest.raises(DirectionNotInCone) as info:
        certify_cone_lorentzian(
            L, L.bottom, L.top, directions=[(bad, bad)]
        )
    assert str(info.value) == (
        "tuple 0: direction is not strictly submodular: margin -2 at {0} and {1}"
    )


def test_certificate_json_shape(lattices):
    L = lattices["u23"]
    cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=2, seed=5)
    obj = cert.to_json_obj()
    assert obj["verdict"] is True
    assert obj["seed"] == 5
    assert len(obj["samples"]) == 2
    assert obj["samples"][0]["directions"][0]["K"] == []


def test_contraction_permutation_invariance(lattices):
    L = lattices["fano"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    (tup,) = sample_direction_tuples(coords, 2, 1, seed=9)
    v1, v2 = tup
    assert full_contraction(f, [v1, v2]) == full_contraction(f, [v2, v1])


def test_is_lorentzian_orthant_examples():
    square = from_dense(("x", "y"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (x+y)^2
    assert is_lorentzian_orthant(square)
    assert not is_lorentzian_orthant(
        from_dense(("x", "y"), {(2, 0): 1, (0, 2): 1})
    )
    assert is_lorentzian_orthant(MultiPoly.zero(("x", "y"), degree=2))
    with pytest.raises(UnsupportedSupport):
        is_lorentzian_orthant(from_dense(("x", "y"), {(1, 1): 1}))


def test_restrictions_of_certified_polynomials_are_lorentzian(lattices):
    for name in ("u33", "k4"):
        L = lattices[name]
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        (tup,) = sample_direction_tuples(coords, 3, 1, seed=4)
        a, b = alpha_vector(coords), beta_vector(coords)
        assert is_lorentzian_orthant(restrict_to_directions(f, [a, tup[0], b]))
        assert is_lorentzian_orthant(restrict_to_directions(f, list(tup)))


def test_product_check_derivative_factor(lattices):
    L = lattices["k4"]
    coords = IntervalCoords(L.bottom, L.top)
    cache = cache_for(L)
    f = cache.polynomial(L.bottom, L.top)
    F = f.vars[0]
    low = cache._lift(L.bottom, F, f.vars)
    high = cache._lift(F, L.top, f.vars)
    tuples = sample_direction_tuples(coords, 1, 4, seed=3)
    assert product_check(low, high, tuples)


def test_product_check_square_of_linear(lattices):
    L = lattices["u23"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    tuples = sample_direction_tuples(coords, 2, 3, seed=11)
    assert product_check(f, f, tuples)


def test_product_check_zero_convention(lattices):
    L = lattices["u23"]
    f = interval_polynomial(L, L.bottom, L.top)
    zero = MultiPoly.zero(f.vars, degree=1)
    assert product_check(f, zero, [])


def test_equivalence_check_examples():
    g = from_dense(("x",), {(2,): 1})
    assert hessian_one_positive_equivalence(g, {"x": Fraction(1)})
    xy = from_dense(("x", "y"), {(1, 1): 1})
    point = {"x": Fraction(1), "y": Fraction(1)}
    assert hessian_one_positive_equivalence(xy, point)
    sum_sq = from_dense(("x", "y"), {(2, 0): 1, (0, 2): 1})
    assert hessian_one_positive_equivalence(sum_sq, point)
    with pytest.raises(NonpositiveValue):
        hessian_one_positive_equivalence(xy, {"x": Fraction(1), "y": Fraction(-1)})


def test_equivalence_check_on_interval_polynomials(lattices):
    L = lattices["u34"]
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    point = canonical_interior_point(coords)
    assert hessian_one_positive_equivalence(f, point)


def test_alpha_beta_profile_log_concave(lattices):
    from conepol.intervalpoly import normalized_profile
    from conepol.unipoly import is_log_concave

    for L in lattices.values():
        i = next(e for e in range(L.n) if (L.top >> e) & 1 and not (L.bottom >> e) & 1)
        profile = normalized_profile(L, L.bottom, L.top, i)
        assert is_log_concave(profile)
        assert all(a > 0 for a in profile)


def test_partial_derivatives_certify_on_catalog(lattices):
    """On M(K4) and Fano every sampled contraction is positive, every
    contracted Hessian irreducible with nonnegative off-diagonal, and each
    partial derivative certifies on the first d - 1 directions of every
    tuple; a supermodular first direction makes the first one fail."""
    for name in ("k4", "fano"):
        L = lattices[name]
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        tuples = sample_direction_tuples(coords, f.degree, 4, seed=1)
        assert oracles.first_nonpositive_contraction(f, tuples) is None, name
        assert oracles.first_reducible_hessian(f, tuples) is None, name
        assert first_uncertified_derivative(f, tuples) is None, name
        c = canonical_interior_point(coords)
        flipped = tuples + [(scaled(c, -1), c)]
        assert first_uncertified_derivative(f, flipped) == (f.vars[0], len(tuples)), name


def test_rank_two_inertia_matches_sum_of_squares(lattices):
    # the rank-3 interval identity forces exactly one positive eigenvalue
    for name in ("u33", "u34", "k4", "fano"):
        L = lattices[name]
        f = interval_polynomial(L, L.bottom, L.top)
        assert inertia(hessian_of_quadratic(f)).n_plus == 1


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -2}, {"directions": []}])
def test_certify_rejects_zero_tuples(lattices, kwargs):
    L = lattices["u33"]
    with pytest.raises(InvalidParams):
        certify_cone_lorentzian(L, L.bottom, L.top, **kwargs)


def _min_diamond_margin(v):
    return min(submodularity_margin(v, S, T) for S, T in diamonds(v.coords))


@pytest.mark.parametrize("span", range(2, 9))
def test_sampled_directions_pass_the_diamond_scan(span):
    """Each draw is certified by |delta| <= 1/4 alone; the exhaustive
    diamond scan agrees, also for draws with every |delta| at 1/4."""
    L = (1 << span) - 1
    coords = IntervalCoords(0, L)
    base = canonical_interior_point(coords)
    at_bound = False
    for tup in sample_direction_tuples(coords, 3, 4, seed=span):
        for v in tup:
            assert is_strictly_submodular(v)
            at_bound |= any(abs(x) == Fraction(1, 4) for x in (v - base).values)
    assert at_bound

    class Extreme(random.Random):
        def randint(self, a, b):
            return self.choice((a, b))

    rng = Extreme(span)
    margins = []
    for _ in range(3):
        v = _perturbed_direction(base, coords, rng)
        assert all(abs(x) == Fraction(1, 4) for x in (v - base).values)
        assert is_strictly_submodular(v)
        margins.append(_min_diamond_margin(v))
    # a margin falls from 2 by at most 4 * 1/4, and these draws reach that
    # wherever a diamond has four inner corners, which needs span >= 4
    assert min(margins) == {2: Fraction(3, 2), 3: Fraction(5, 4)}.get(span, 1)


def test_draws_past_the_margin_bound_raise(monkeypatch):
    """Mutation: draws with |delta| up to 1/2 fail the bound, and such draws
    can leave the cone, which the diamond scan confirms."""
    span = 5
    coords = IntervalCoords(0, (1 << span) - 1)
    base = canonical_interior_point(coords)

    class Wide(random.Random):
        def randint(self, a, b):
            return super().randint(2 * a, 2 * b)

    monkeypatch.setattr(lorentz.random, "Random", Wide)
    for seed in range(20):
        with pytest.raises(InternalCheckError, match="left the cone"):
            sample_direction_tuples(coords, 3, 2, seed=seed)

    class Replay:
        def __init__(self, draws):
            self._draws = iter(draws)

        def randint(self, a, b):
            return next(self._draws)

    # +1/2 on subsets of even size, -1/2 on odd ones
    draws = [32 if S.bit_count() % 2 == 0 else -32 for S in coords.subsets]
    wide = base + IntervalVector(coords, [Fraction(d, 64) for d in draws])
    assert _min_diamond_margin(wide) == 0
    assert not is_strictly_submodular(wide)
    with pytest.raises(InternalCheckError, match="left the cone"):
        _perturbed_direction(base, coords, Replay(draws))
