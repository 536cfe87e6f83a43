"""Degree-3 intervals: the catalog matroids stop at degree 2, so these
free and uniform rank-4 cases are what exercise the nontrivial contraction
paths (Hessian after one directional derivative, certified partial
derivatives, degree-3 quotient rings)."""

from fractions import Fraction

from conepol import (
    ChowRing,
    IntervalCoords,
    UniPoly,
    alpha_vector,
    beta_vector,
    certify_cone_lorentzian,
    flats_lattice,
    interval_polynomial,
    mobius,
    reduced_charpoly_via_interval_poly,
    sample_direction_tuples,
    uniform_matroid,
)
from conepol.chow import vol_pol_mismatch_witness
from conepol.intervalpoly import normalized_profile

import oracles
from side_checks import (
    derivative_factorization_witness,
    euler_identity_holds,
    first_uncertified_derivative,
    modular_shift_invariance,
)


def test_free_matroid_rank_four():
    M = uniform_matroid(4, 4)
    L = flats_lattice(M)
    assert L.interval_degree(L.bottom, L.top) == 3
    f = interval_polynomial(L, L.bottom, L.top)
    assert f.degree == 3
    assert euler_identity_holds(f)
    assert derivative_factorization_witness(L, L.bottom, L.top) is None
    coords = IntervalCoords(L.bottom, L.top)
    assert f.evaluate(alpha_vector(coords)) == Fraction(1, 6)
    assert f.evaluate(beta_vector(coords)) == Fraction(1, 6)  # |mu(B_4)| = 1
    assert normalized_profile(L, L.bottom, L.top, 0) == [1, 3, 3, 1]
    assert reduced_charpoly_via_interval_poly(M) == UniPoly([-1, 3, -3, 1])


def test_free_matroid_rank_four_certification():
    L = flats_lattice(uniform_matroid(4, 4))
    cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=5, seed=3)
    assert cert.verdict
    assert cert.samples[0].hessian_inertia == (1, 3, 10)
    f = interval_polynomial(L, L.bottom, L.top)
    tuples = sample_direction_tuples(IntervalCoords(L.bottom, L.top), 3, 3, seed=1)
    assert oracles.first_reducible_hessian(f, tuples) is None
    assert first_uncertified_derivative(f, tuples) is None


def test_free_matroid_rank_four_chow():
    L = flats_lattice(uniform_matroid(4, 4))
    assert vol_pol_mismatch_witness(ChowRing(L, L.bottom, L.top)) is None


def test_uniform_4_5():
    M = uniform_matroid(4, 5)
    L = flats_lattice(M)
    assert len(L) == 27
    f = interval_polynomial(L, L.bottom, L.top)
    assert derivative_factorization_witness(L, L.bottom, L.top) is None
    assert modular_shift_invariance(L, L.bottom, L.top, trials=10, seed=2)
    coords = IntervalCoords(L.bottom, L.top)
    assert f.evaluate(alpha_vector(coords)) == Fraction(1, 6)
    assert f.evaluate(beta_vector(coords)) == Fraction(
        abs(mobius(L).mu(L.bottom, L.top)), 6
    )
    assert reduced_charpoly_via_interval_poly(M) == UniPoly([-4, 6, -4, 1])
    cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=2, seed=4)
    assert cert.verdict
    assert cert.samples[0].hessian_inertia == (1, 4, 20)
