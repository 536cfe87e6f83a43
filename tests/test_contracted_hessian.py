"""Every Lorentzian check reads one contracted Hessian; each must agree
with the earlier routine that built its own (tests/oracles.py), and the
integer build with its atom-kernel reduction must agree with the
`Fraction` build and dense inertia."""

import itertools
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import oracles
from conepol import (
    GradedSubposet,
    IntervalCoords,
    MultiPoly,
    canonical_interior_point,
    fano,
    flats_lattice,
    graphic_matroid,
    inertia,
    lorentz,
    sample_direction_tuples,
    uniform_matroid,
)
from conepol.errors import ConepolError
from conepol.intervalpoly import cache_for, full_contraction
from conepol.subsets import from_elements

from side_checks import hessian_one_positive_equivalence, is_lorentzian_orthant, scaled

TOP4 = from_elements([0, 1, 2, 3])


def two_towers():
    """Two chains {0} < {0,1} and {2} < {2,3} between 0 and {0,1,2,3}."""
    sets = [0, from_elements([0]), from_elements([0, 1]), from_elements([2]),
            from_elements([2, 3]), TOP4]
    return GradedSubposet(4, sets), 0, TOP4


def full_interval(M):
    P = flats_lattice(M)
    return P, P.bottom, P.top


LADDER = {
    "u23": lambda: full_interval(uniform_matroid(2, 3)),
    "u33": lambda: full_interval(uniform_matroid(3, 3)),
    "u34": lambda: full_interval(uniform_matroid(3, 4)),
    "k4": lambda: full_interval(graphic_matroid(oracles.K4_EDGES)),
    "fano": lambda: full_interval(fano()),
    "u44": lambda: full_interval(uniform_matroid(4, 4)),
    "u45": lambda: full_interval(uniform_matroid(4, 5)),
    "towers": two_towers,
}


def k5_interval(lower, upper):
    """An interval of M(K5) between the flats spanned by the edges on which
    `lower` and `upper` hold."""
    edges = list(itertools.combinations(range(5), 2))
    P = flats_lattice(graphic_matroid(edges))

    def span(keep):
        return from_elements([i for i, e in enumerate(edges) if keep(e)])
    return P, span(lower), span(upper)


def interval_above(M, elements):
    """The interval of M's lattice of flats from the flat `elements` to E."""
    P = flats_lattice(M)
    return P, from_elements(elements), P.top


PARITY = {
    **LADDER,
    "u55": lambda: full_interval(uniform_matroid(5, 5)),
    "u56": lambda: full_interval(uniform_matroid(5, 6)),
    "k5[empty,K4]": lambda: k5_interval(lambda e: False, lambda e: max(e) < 4),
    "k5[edge,E]": lambda: k5_interval(lambda e: e == (0, 1), lambda e: True),
    "u45[{0},E]": lambda: interval_above(uniform_matroid(4, 5), [0]),
}


def positive_multiple(H, H0):
    """Whether the int rows H are c * H0 for one rational c > 0."""
    n = len(H0)
    i, j = next((i, j) for i in range(n) for j in range(n) if H0[i][j])
    c = Fraction(H[i][j]) / H0[i][j]
    return c > 0 and all(H[r][s] == c * H0[r][s] for r in range(n) for s in range(n))


@pytest.mark.parametrize("name", list(PARITY))
def test_integer_contraction_matches_fraction_oracle(name):
    """Value exact, Hessian a positive multiple, and the triple read on the
    kernel-reduced matrix equal to dense inertia on the full rational one,
    for canonical, perturbed and plain-dict directions."""
    P, K, L = PARITY[name]()
    f = cache_for(P).polynomial(K, L)
    d = f.degree
    tuples = sample_direction_tuples(IntervalCoords(K, L), d, 3, seed=11)
    tuples.append(tuple({var: v[var] for var in f.vars} for v in tuples[-1]))
    atoms = [F for F in f.vars if P.interval_degree(K, F) == 0]
    for tup in tuples:
        got = lorentz._tuple_result(f, tup)
        if d < 2:
            assert got == (full_contraction(f, tup), None, True), name
            continue
        H0, value0 = oracles.contracted_hessian(f, tup)
        H, value = lorentz._contracted(f, tup)
        assert value == value0 and positive_multiple(H, H0), name
        triple = inertia(H0)
        assert got == (value0, triple, value0 > 0 and triple.n_plus == 1), name
        reduced, dropped = lorentz._drop_atom_kernel(H, f.vars)
        if name != "towers":  # a lattice of flats: every atom's v_a is verified
            assert dropped == len(atoms) - 1 and len(reduced) == len(f.vars) - dropped
            assert got[1].n_zero >= dropped


def test_failing_kernel_vector_keeps_its_atom(monkeypatch):
    """On the two towers H v_{2} != 0 for every sampled tuple: the atom {2}
    stays, inertia sees all four rows, and the triple is the dense one."""
    P, K, L = two_towers()
    f = cache_for(P).polynomial(K, L)
    a0, a2 = from_elements([0]), from_elements([2])
    v = [(F & a0 == a0) - (F & a2 == a2) for F in f.vars]
    real = lorentz.inertia
    orders = []
    monkeypatch.setattr(lorentz, "inertia", lambda A: orders.append(len(A)) or real(A))
    tuples = sample_direction_tuples(IntervalCoords(K, L), f.degree, 4, seed=0)
    for tup in tuples:
        H0, _ = oracles.contracted_hessian(f, tup)
        assert any(sum(h * x for h, x in zip(row, v)) for row in H0)
        H, _ = lorentz._contracted(f, tup)
        assert lorentz._drop_atom_kernel(H, f.vars) == (H, 0)
        assert lorentz._tuple_result(f, tup)[1] == real(H0)
    assert orders == [4] * len(tuples)


def first_failures(f, tuples):
    """Index of the first tuple whose contraction of f is not positive, and
    of the first whose Hessian contracted along its first deg - 2
    directions fails the nonnegative off-diagonal and connectivity test,
    each read off one `_contracted` call with those directions put last;
    None where no tuple fails."""
    d = f.degree
    nonpositive = reducible = None
    for idx, tup in enumerate(tuples):
        if d < 2:
            value = full_contraction(f, tup)
        else:
            H, value = lorentz._contracted(f, tup[d - 2:] + tup[: d - 2])
            if reducible is None and not oracles.is_irreducible_nonneg_offdiag(H):
                reducible = idx
        if nonpositive is None and value <= 0:
            nonpositive = idx
    return nonpositive, reducible


def oracle_failures(f, tuples):
    return (
        oracles.first_nonpositive_contraction(f, tuples),
        oracles.first_reducible_hessian(f, tuples) if f.degree >= 2 else None,
    )


@pytest.mark.parametrize("name", list(LADDER))
def test_first_failures_match_per_check_oracles(name):
    """Positive contractions everywhere, and irreducible Hessians except on
    the two towers, whose open interval has two comparability components."""
    P, K, L = LADDER[name]()
    f = cache_for(P).polynomial(K, L)
    for seed in range(6):
        tuples = sample_direction_tuples(IntervalCoords(K, L), f.degree, 3, seed)
        got = first_failures(f, tuples)
        assert got == oracle_failures(f, tuples), (name, seed)
        assert got == ((None, 0) if name == "towers" else (None, None)), (name, seed)


# f + k * t_a t_b t_c on the full interval of U(4,4): these k put the first
# nonpositive contraction and the first reducible Hessian on different tuples
PERTURBATIONS = [0, Fraction(-1, 8), Fraction(-9, 2), Fraction(-37, 8), Fraction(-19, 4)]


def test_first_failures_match_oracles_on_perturbed_u44():
    P, K, L = full_interval(uniform_matroid(4, 4))
    f = cache_for(P).polynomial(K, L)
    bump = MultiPoly(f.vars, {(0, 1, 2): 1}, degree=3)
    tuples = sample_direction_tuples(IntervalCoords(K, L), 3, 6, seed=0)
    seen = set()
    for k in PERTURBATIONS:
        g = f + k * bump if k else f
        expected = oracle_failures(g, tuples)
        assert first_failures(g, tuples) == expected, k
        seen.add(expected)
    assert seen == {(None, None), (None, 0), (4, 0), (3, 0), (0, 0)}


def test_contracted_form_is_symmetric_in_direction_order():
    """Any d - 2 directions of a tuple may be put last: the full contraction
    is the same under every order, and the Hessian read with directions[2:]
    last is a positive multiple of the oracle's Hessian contracted along
    those.  With a supermodular direction -c in the tuple, the Hessian
    fails the sign test exactly when -c is among the directions put last."""
    for name in ("fano", "u44", "k4"):
        P, K, L = LADDER[name]()
        f = cache_for(P).polynomial(K, L)
        coords = IntervalCoords(K, L)
        c = canonical_interior_point(coords)
        flipped = scaled(c, -1)
        tuples = sample_direction_tuples(coords, f.degree, 3, seed=5)
        tuples.append((flipped,) + (c,) * (f.degree - 1))
        for tup in tuples:
            values = set()
            for order in itertools.permutations(tup):
                H, value = lorentz._contracted(f, order)
                H0, value0 = oracles.contracted_hessian(f, order)
                assert value == value0 and positive_multiple(H, H0), name
                assert oracles.is_irreducible_nonneg_offdiag(H) != (flipped in order[2:])
                values.add(value)
            assert len(values) == 1, name


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConepolError as exc:
        return type(exc).__name__


def random_polynomial(rng):
    """Degree 0-4 in 1-3 variables, on the full simplex or part of it, with
    an occasional negative coefficient."""
    n, d = rng.randint(1, 3), rng.randint(0, 4)
    simplex = [
        tuple(combo.count(i) for i in range(n))
        for combo in combinations_with_replacement(range(n), d)
    ]
    keys = simplex if rng.randint(0, 1) else rng.sample(simplex, rng.randint(1, len(simplex)))
    low = -3 if rng.randint(0, 4) == 0 else 1
    terms = {e: Fraction(rng.randint(low, 6), rng.randint(1, 3)) for e in keys}
    return oracles.from_dense("xyz"[:n], terms, degree=d)


def test_equivalence_and_orthant_match_oracles_on_random_polynomials():
    rng = random.Random(20)
    equivalence, orthant = set(), set()
    for _ in range(300):
        g = random_polynomial(rng)
        point = {v: Fraction(rng.randint(-1, 5), rng.randint(1, 3)) for v in g.vars}
        got = outcome(hessian_one_positive_equivalence, g, point)
        assert got == outcome(oracles.hessian_one_positive_equivalence, g, point), g
        equivalence.add(got)
        got = outcome(is_lorentzian_orthant, g)
        assert got == outcome(oracles.is_lorentzian_orthant, g), g
        orthant.add(got)
    assert equivalence == {True, False, "NonpositiveValue"}
    assert orthant == {True, False, "UnsupportedSupport"}


def test_equivalence_matches_oracle_on_interval_polynomials(lattices):
    for name, P in lattices.items():
        f = cache_for(P).polynomial(P.bottom, P.top)
        coords = IntervalCoords(P.bottom, P.top)
        points = [canonical_interior_point(coords)]
        points += [tup[0] for tup in sample_direction_tuples(coords, 1, 3, seed=7)[1:]]
        for point in points:
            assert hessian_one_positive_equivalence(f, point) == (
                oracles.hessian_one_positive_equivalence(f, point)
            ), name
