import random
from fractions import Fraction

import pytest

from conepol import (
    ChowRing,
    IntervalCoords,
    MultiPoly,
    flats_lattice,
    interval_polynomial,
    uniform_matroid,
)
from conepol.chow import vol_pol_mismatch_witness
from conepol.errors import SizeLimitExceeded

from side_checks import modular_basis, tensor_degree_check, top_degree


def test_u23_degree_one_quotient_is_a_line(lattices):
    L = lattices["u23"]
    ring = ChowRing(L, L.bottom, L.top)
    assert ring.graded_dims == [1, 1]


def test_u33_graded_dims(lattices):
    L = lattices["u33"]
    ring = ChowRing(L, L.bottom, L.top)
    assert ring.graded_dims[0] == 1
    assert ring.graded_dims[-1] == 1


def test_rank_one_interval_is_scalar_ring(lattices):
    L = lattices["u23"]
    atom = L.elements[1]
    ring = ChowRing(L, L.bottom, atom)
    assert ring.degree == 0
    assert ring.graded_dims == [1]
    assert top_degree(ring, {}) == 1
    assert ring.volume_polynomial() == MultiPoly.constant((), 1)


def test_flag_monomials_have_degree_one(lattices):
    for name in ("u33", "k4"):
        L = lattices[name]
        ring = ChowRing(L, L.bottom, L.top)
        for chain in L.maximal_chains(L.bottom, L.top):
            mono = {F: 1 for F in chain[1:-1]}
            assert top_degree(ring, mono) == 1


def test_incomparable_monomials_have_degree_zero(lattices):
    L = lattices["u33"]
    ring = ChowRing(L, L.bottom, L.top)
    a, b = ring.flats[0], ring.flats[1]  # two singletons, incomparable
    assert top_degree(ring, {a: 1, b: 1}) == 0


def test_square_of_singleton_has_degree_minus_one(lattices):
    L = lattices["u33"]
    ring = ChowRing(L, L.bottom, L.top)
    assert top_degree(ring, {ring.flats[0]: 2}) == -1


def test_volume_polynomial_u23(lattices):
    L = lattices["u23"]
    ring = ChowRing(L, L.bottom, L.top)
    vol = ring.volume_polynomial()
    assert vol == interval_polynomial(L, L.bottom, L.top)


def test_volume_modular_invariance(lattices):
    L = lattices["u34"]
    ring = ChowRing(L, L.bottom, L.top)
    vol = ring.volume_polynomial()
    coords = IntervalCoords(L.bottom, L.top)
    rng = random.Random(17)
    for w in modular_basis(coords):
        for _ in range(5):
            x = {F: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for F in vol.vars}
            moved = {F: x[F] + w[F] for F in vol.vars}
            assert vol.evaluate(moved) == vol.evaluate(x)


def test_vol_equals_pol_on_catalog_full_intervals(lattices):
    for L in lattices.values():
        assert vol_pol_mismatch_witness(ChowRing(L, L.bottom, L.top)) is None


def test_vol_equals_pol_on_fano_subintervals(lattices):
    L = lattices["fano"]
    for K, top in L.comparable_pairs():
        if (K, top) == (L.bottom, L.top):
            continue
        assert vol_pol_mismatch_witness(ChowRing(L, K, top)) is None


def test_tensor_degree_check(lattices):
    L = lattices["k4"]
    mids = L.open_interval(L.bottom, L.top)
    for F in (mids[0], mids[-1]):
        assert tensor_degree_check(L, L.bottom, F, L.top, samples=15, seed=1)


def test_tensor_degree_flag_and_incomparable_cases(lattices):
    L = lattices["fano"]
    point = L.elements[1]
    big = ChowRing(L, L.bottom, L.top)
    low = ChowRing(L, L.bottom, point)
    high = ChowRing(L, point, L.top)
    # flags: xi = 1, eta = a line through the point
    line = high.flats[0]
    combined = {point: 1, line: 1}
    assert top_degree(big, combined) == top_degree(low, {}) * top_degree(high, {line: 1})
    # incomparable support vanishes in the big ring
    l2, l3 = [G for G in big.flats if L.interval_rank(L.bottom, G) == 2][:2]
    assert top_degree(big, {l2: 1, l3: 1}) == 0


def test_size_guard():
    M = uniform_matroid(4, 5)
    L = flats_lattice(M)
    with pytest.raises(SizeLimitExceeded):
        ChowRing(L, L.bottom, L.top)
