import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from oracles import dense_terms, from_dense, partial, restrict_to_directions
from conepol import (
    IntervalCoords,
    IntervalPolynomials,
    MultiPoly,
    alpha_vector,
    beta_vector,
    dir_derivative,
    fano,
    flats_lattice,
    graphic_matroid,
    hessian_of_quadratic,
    interval_polynomial,
    substitute_affine,
    uniform_matroid,
)
from conepol.errors import (
    DimensionMismatch,
    Inhomogeneous,
    InvalidParams,
    MissingCoordinate,
    UnknownVariable,
    WrongDegree,
)
from conepol.cli import main
from conepol.intervalpoly import cache_for
from conepol.multipoly import to_text

from conftest import K4_EDGES


def xy_poly(terms, degree=None):
    return from_dense(("x", "y"), terms, degree=degree)


def random_homogeneous(rng, variables, degree, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(variables)
        for _ in range(degree):
            exps[rng.randrange(len(variables))] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return from_dense(variables, terms, degree=degree)


def test_homogeneity_enforced():
    with pytest.raises(Inhomogeneous):
        xy_poly({(1, 0): 1, (2, 0): 1})


def test_partial_examples():
    f = xy_poly({(2, 1): 1})  # x^2 y
    assert partial(f, "x") == xy_poly({(1, 1): 2})
    assert partial(f, "y") == xy_poly({(2, 0): 1})
    cube = xy_poly({(3, 0): 2, (1, 2): -1})  # 2 x^3 - x y^2
    assert partial(cube, "x") == xy_poly({(2, 0): 6, (0, 2): -1})
    assert partial(cube, "y") == xy_poly({(1, 1): -2})
    assert partial(partial(partial(cube, "x"), "x"), "x").constant_value() == 12
    const = from_dense(("x",), {(0,): 5})
    assert partial(const, "x").is_zero()
    with pytest.raises(UnknownVariable):
        partial(f, "z")


def test_euler_identity_random():
    rng = random.Random(2)
    for degree in (1, 2, 3):
        f = random_homogeneous(rng, ("x", "y", "z"), degree)
        acc = MultiPoly.zero(f.vars, degree=degree)
        for v in f.vars:
            acc = acc + MultiPoly.variable(f.vars, v) * partial(f, v)
        assert acc == degree * f


def test_dir_derivative_linear_case():
    f = xy_poly({(1, 0): 1, (0, 1): 1})
    out = dir_derivative(f, {"x": Fraction(2), "y": Fraction(5)})
    assert out.constant_value() == 7


def test_dir_derivative_commutes_and_is_linear():
    rng = random.Random(4)
    f = random_homogeneous(rng, ("x", "y", "z"), 3)
    v = {"x": Fraction(1), "y": Fraction(-2), "z": Fraction(1, 3)}
    w = {"x": Fraction(5), "y": Fraction(0), "z": Fraction(2)}
    assert dir_derivative(dir_derivative(f, v), w) == dir_derivative(
        dir_derivative(f, w), v
    )
    combo = {k: 3 * v[k] + 7 * w[k] for k in v}
    assert dir_derivative(f, combo) == 3 * dir_derivative(f, v) + 7 * dir_derivative(f, w)


def test_dir_derivative_full_contraction_u23():
    L = flats_lattice(uniform_matroid(2, 3))
    f = interval_polynomial(L, L.bottom, L.top)
    ones = {F: Fraction(1) for F in f.vars}
    assert dir_derivative(f, ones).constant_value() == 3


def test_dir_derivative_missing_coordinate():
    f = xy_poly({(1, 1): 1})
    with pytest.raises(MissingCoordinate):
        dir_derivative(f, {"x": Fraction(1)})


def test_hessian_examples():
    H = hessian_of_quadratic(from_dense(("x",), {(2,): 1}))
    assert H == [[2]] and type(H[0][0]) is Fraction
    assert hessian_of_quadratic(xy_poly({(1, 1): 1})) == [
        [0, 1],
        [1, 0],
    ]
    with pytest.raises(WrongDegree):
        hessian_of_quadratic(xy_poly({(1, 0): 1}))


def test_hessian_of_u33_interval_polynomial():
    L = flats_lattice(uniform_matroid(3, 3))
    f = interval_polynomial(L, L.bottom, L.top)
    H = hessian_of_quadratic(2 * f)
    # variables: three singletons then three pairs; cross entries are 2 for
    # comparable flats, diagonal entries are -2
    expected = [
        [-2, 0, 0, 2, 2, 0],
        [0, -2, 0, 2, 0, 2],
        [0, 0, -2, 0, 2, 2],
        [2, 2, 0, -2, 0, 0],
        [2, 0, 2, 0, -2, 0],
        [0, 2, 2, 0, 0, -2],
    ]
    assert H == expected


def test_substitute_affine_identity_and_zero():
    rng = random.Random(9)
    f = random_homogeneous(rng, ("x", "y"), 2)
    ident = [[1, 0], [0, 1]]
    assert substitute_affine(f, ident, ("x", "y")) == f
    zero = substitute_affine(f, [[0], [0]], ("u",))
    assert zero.is_zero()
    with pytest.raises(DimensionMismatch):
        substitute_affine(f, [[1, 0]], ("u", "v"))


def test_substitute_affine_preserves_homogeneity():
    rng = random.Random(10)
    f = random_homogeneous(rng, ("x", "y", "z"), 3)
    mat = [[1, 2], [0, -1], [Fraction(1, 2), 3]]
    g = substitute_affine(f, mat, ("u", "v"))
    assert g.is_zero() or all(sum(e) == 3 for e in dense_terms(g))


def test_restriction_single_direction_matches_homogeneity():
    rng = random.Random(12)
    f = random_homogeneous(rng, ("x", "y", "z"), 3)
    v = {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(3, 2)}
    g = restrict_to_directions(f, [v], ("y0",))
    assert dense_terms(g).get((3,), Fraction(0)) == f.evaluate(v)


def test_restriction_u23_alpha_beta():
    L = flats_lattice(uniform_matroid(2, 3))
    f = interval_polynomial(L, L.bottom, L.top)
    coords = IntervalCoords(L.bottom, L.top)
    g = restrict_to_directions(
        f, [alpha_vector(coords), beta_vector(coords)], ("s", "t")
    )
    assert g == from_dense(("s", "t"), {(1, 0): 1, (0, 1): 2})
    assert to_text(g) == "s + 2 * t"


def test_to_text_canonical_order():
    L = flats_lattice(uniform_matroid(2, 3))
    f = interval_polynomial(L, L.bottom, L.top)
    assert to_text(f) == "t_{0} + t_{1} + t_{2}"


# -- the trusted fast path against the validated term-at-a-time oracles ------


def assert_contract(p):
    """What `MultiPoly._trusted` relies on and never checks: each key a
    nondecreasing tuple of variable indices, one per power, so its length
    is the degree, and each coefficient a nonzero Fraction."""
    assert isinstance(p.vars, tuple)
    indices = range(len(p.vars))
    for key, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(key) is tuple and len(key) == p.degree
        assert all(type(i) is int and i in indices for i in key)
        assert list(key) == sorted(key)


def assert_same(fast, slow):
    assert_contract(fast)
    assert fast.vars == slow.vars
    assert fast.degree == slow.degree
    assert fast.terms == slow.terms


def random_coeff(rng):
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_poly(rng, variables, degree, n_terms):
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(variables)
        for _ in range(degree):
            exps[rng.randrange(len(variables))] += 1
        terms[tuple(exps)] = random_coeff(rng)
    return from_dense(variables, terms, degree=degree)


def random_row(rng, n):
    if rng.random() < 0.15:
        return [0] * n  # collapses every term that uses this variable
    return [random_coeff(rng) if rng.random() < 0.4 else 0 for _ in range(n)]


def test_products_match_validated_oracle():
    rng = random.Random(31)
    variables = ("a", "b", "c", "d")
    for _ in range(150):
        f = random_poly(rng, variables, rng.randint(0, 3), rng.randint(0, 6))
        g = random_poly(rng, variables, rng.randint(0, 3), rng.randint(0, 6))
        assert_same(f * g, oracles.poly_mul_validated(f, g))
        c = random_coeff(rng)
        assert_same(f * c, MultiPoly(f.vars, {e: c * v for e, v in f.terms.items()}, f.degree))
    x, y = (MultiPoly.variable(("x", "y"), v) for v in "xy")
    # (x + y)(x - y): the cross terms cancel; a zero factor keeps the degree sum
    assert_same((x + y) * (x - y), oracles.poly_mul_validated(x + y, x - y))
    zero = MultiPoly.zero(("x", "y"), degree=2)
    assert_same(zero * (x + y), oracles.poly_mul_validated(zero, x + y))
    assert_same(0 * (x + y), MultiPoly.zero(("x", "y"), degree=1))
    assert_same((x + y) - (x + y), MultiPoly.zero(("x", "y"), degree=1))
    # powers: x^3, x^2 y and their products meet keys with repeated indices
    cube, x2y = x * x * x, x * x * y
    assert_same(cube, xy_poly({(3, 0): 1}))
    assert_same(x2y, xy_poly({(2, 1): 1}))
    for f, g in ((cube, x2y), (x2y, x2y), (cube + x2y, x2y - cube), (x2y, x + y)):
        assert_same(f * g, oracles.poly_mul_validated(f, g))


def test_substitution_matches_validated_oracle():
    rng = random.Random(32)
    old_vars = ("a", "b", "c")
    seen_zero = 0
    for trial in range(200):
        f = random_poly(rng, old_vars, rng.randint(0, 4), rng.randint(0, 7))
        new_vars = tuple(range(rng.randint(1, 4)))
        dense = [random_row(rng, len(new_vars)) for _ in old_vars]
        slow = oracles.substitute_affine_validated(f, dense, new_vars)
        assert_same(substitute_affine(f, dense, new_vars), slow)
        seen_zero += slow.is_zero() and not f.is_zero()
    # a - b with a, b -> u cancels to zero, and so does anything times a zero row
    f = from_dense(("a", "b"), {(2, 0): 1, (0, 2): -1})
    for rows in ([[1], [1]], [[0], [3]]):
        g = substitute_affine(f, rows, ("u",))
        assert_same(g, oracles.substitute_affine_validated(f, rows, ("u",)))
    assert seen_zero >= 5


MATROIDS = {
    "fano": fano,
    "k4": lambda: graphic_matroid(K4_EDGES),
    "u45": lambda: uniform_matroid(4, 5),
    "u55": lambda: uniform_matroid(5, 5),
    "k5": lambda: graphic_matroid(list(combinations(range(5), 2))),
}


@pytest.mark.parametrize("name", ["fano", "k4", "u45", "u55"])
def test_memoised_interval_polynomials_match_validated_oracle(name):
    """Rebuild every memoised sub-interval polynomial one recursion step at a
    time with the validated oracles and the dense projection rows."""
    P = flats_lattice(MATROIDS[name]())
    cache = cache_for(P)
    cache.polynomial(P.bottom, P.top)
    memo = dict(cache._memo)

    def lifted(K, F, L, flats, low):
        inner = memo[(K, F) if low else (F, L)]
        rows = []
        for S in inner.vars:
            row = [Fraction(0)] * len(flats)
            row[flats.index(S)] = Fraction(1)
            if low:
                row[flats.index(F)] -= Fraction((S & ~K).bit_count(), (F & ~K).bit_count())
            else:
                row[flats.index(F)] -= Fraction((L & ~S).bit_count(), (L & ~F).bit_count())
            rows.append(row)
        return oracles.substitute_affine_validated(inner, rows, flats)

    assert len(memo) > 10
    for (K, L), f in memo.items():
        assert_contract(f)
        d = P.interval_degree(K, L)
        if d == 0:
            assert_same(f, MultiPoly.constant((), 1))
            continue
        flats = tuple(P.open_interval(K, L))
        acc = MultiPoly.zero(flats, degree=d)
        for F in flats:
            term = oracles.poly_mul_validated(
                MultiPoly.variable(flats, F),
                oracles.poly_mul_validated(
                    lifted(K, F, L, flats, True), lifted(K, F, L, flats, False)
                ),
            )
            acc = oracles.poly_add_validated(acc, term)
        expected = MultiPoly(flats, {e: c / d for e, c in acc.terms.items()}, degree=d)
        assert_same(f, expected)
        for F in flats[:3]:
            assert_contract(cache._lift(K, F, flats) * cache._lift(F, L, flats))


@pytest.mark.parametrize("name", sorted(MATROIDS))
def test_taylor_lift_matches_substitution_oracle(monkeypatch, name):
    """Every lift met while building the full interval, and the two whose
    product is d f / d t_F at each middle flat F, equals the substitution it
    replaced term for term: variables, keys, Fraction coefficients and
    degree."""
    P = flats_lattice(MATROIDS[name]())
    cache = cache_for(P)
    lifts = []
    original = IntervalPolynomials._lift

    def spy(self, G, H, big_vars):
        out = original(self, G, H, big_vars)
        lifts.append((G, H, big_vars, out))
        return out

    monkeypatch.setattr(IntervalPolynomials, "_lift", spy)
    f = cache.polynomial(P.bottom, P.top)
    built = len(lifts)
    for F in f.vars:
        product = cache._lift(P.bottom, F, f.vars) * cache._lift(F, P.top, f.vars)
        low, high = (oracles.lift_by_substitution(cache, *lifts[i][:3]) for i in (-2, -1))
        assert lifts[-2][:2] == (P.bottom, F) and lifts[-1][:2] == (F, P.top)
        assert_same(product, oracles.poly_mul_validated(low, high))
    assert built > 2 * len(f.vars) and len(lifts) == built + 2 * len(f.vars)
    for G, H, big_vars, out in lifts:
        slow = oracles.lift_by_substitution(cache, G, H, big_vars)
        assert_contract(slow)
        assert_same(out, slow)


# Term keys are nondecreasing tuples of variable indices: on ("x", "y"),
# (0, 0, 1) is x^2 y.


def test_constructor_rejects_negative_exponent():
    """A negative entry names no variable and is no power."""
    with pytest.raises(InvalidParams):
        MultiPoly(("x", "y"), {(-1, 0): 1}, degree=2)


def test_constructor_rejects_non_integer_exponent():
    with pytest.raises(InvalidParams):
        MultiPoly(("x",), {(1.5,): 1})
    assert MultiPoly(("x",), {(Fraction(0), Fraction(0)): 1}).terms == {(0, 0): 1}


def test_constructor_rejects_a_key_out_of_order_or_past_the_variables():
    assert MultiPoly(("x", "y"), {(0, 0, 1): 2}).terms == {(0, 0, 1): 2}
    with pytest.raises(InvalidParams):
        MultiPoly(("x", "y"), {(1, 0, 0): 1})
    with pytest.raises(InvalidParams):
        MultiPoly(("x", "y"), {"01": 1})
    with pytest.raises(DimensionMismatch):
        MultiPoly(("x", "y"), {(0, 2): 1})
    with pytest.raises(Inhomogeneous):
        MultiPoly(("x", "y"), {(0, 1): 1}, degree=3)
    # a zero coefficient drops its key unread, as before
    assert MultiPoly(("x",), {(5, 2): 0}, degree=2).is_zero()


def json_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name", ["fano", "u45", "k5"])
def test_every_trusted_polynomial_of_the_cli_meets_the_contract(monkeypatch, tmp_path, name):
    """Wrap `MultiPoly._trusted` and check its contract on every polynomial
    it builds while `pol`, `certify` and `chow-verify` run."""
    checked = []
    trusted = MultiPoly._trusted

    def spy(*args):
        p = trusted(*args)
        assert_contract(p)
        checked.append(p.degree)
        return p

    monkeypatch.setattr(MultiPoly, "_trusted", staticmethod(spy))
    k5 = tmp_path / "k5.json"
    k5.write_text(json.dumps({"edges": [list(e) for e in combinations(range(5), 2)]}))
    source = {"fano": ["--fano"], "u45": ["--uniform", "4", "5"], "k5": ["--graphic", str(k5)]}[name]
    json_of(["pol", *source, "--eval", "alpha"])
    json_of(["certify", *source, "--samples", "2"])
    json_of(["chow-verify", *source, "--all-intervals", "--max-degree", "2"])
    assert len(checked) > 100 and max(checked) >= 2
