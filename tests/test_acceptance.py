"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every comparison is exact rational arithmetic; the only floats
appear inside the eigensolver oracle of criterion 7.
"""

import random
import time
from fractions import Fraction
from math import factorial

from conepol import (
    ChowRing,
    IntervalCoords,
    UniPoly,
    alpha_vector,
    beta_vector,
    certify_cone_lorentzian,
    characteristic_polynomial,
    inertia,
    interval_polynomial,
    is_balanced,
    is_interval_connected,
    is_log_concave,
    is_one_balanced,
    is_semimodular_lattice,
    mobius,
    reduced_characteristic_polynomial,
    sample_direction_tuples,
)
from conepol.intervalpoly import normalized_profile
from conepol.poset import flats_axioms_hold
from conepol.subsets import elements, is_proper_subset

import oracles
from oracles import restrict_to_directions
from side_checks import (
    derivative_factorization_witness,
    is_lorentzian_orthant,
    modular_shift_invariance,
    sum_of_squares_identity_holds,
    weisner_check,
)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:>2}] {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def oracle_bases(name):
    from itertools import combinations

    if name == "u23":
        return 3, [frozenset(c) for c in combinations(range(3), 2)]
    if name == "u33":
        return 3, [frozenset(range(3))]
    if name == "u34":
        return 4, [frozenset(c) for c in combinations(range(4), 3)]
    if name == "k4":
        return 6, oracles.spanning_forests(4, oracles.K4_EDGES)
    if name == "fano":
        return 7, oracles.fano_bases()
    raise KeyError(name)


def test_criterion_01_characteristic_polynomials(catalog):
    start = time.monotonic()
    t_minus_1 = UniPoly([-1, 1])
    ok = True
    for name, M in catalog.items():
        n, bases = oracle_bases(name)
        chi = characteristic_polynomial(M)
        chibar = reduced_characteristic_polynomial(M, 0)
        oracle_chi = UniPoly(oracles.charpoly_coeffs_ascending(range(n), bases))
        oracle_red = UniPoly(oracles.reduced_coeffs_ascending(range(n), bases))
        ok = ok and chi == oracle_chi and chibar == oracle_red
        ok = ok and t_minus_1 * chibar == chi
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(1, "chi and chibar match the Mobius oracle, chi = (t-1)*chibar",
           ok, f"{elapsed:.2f}s")


def test_criterion_02_log_concavity(catalog):
    ok = True
    for M in catalog.values():
        coeffs = reduced_characteristic_polynomial(M, 0).abs_coeffs_descending()
        ok = ok and is_log_concave(coeffs)
    k4 = reduced_characteristic_polynomial(catalog["k4"], 0).abs_coeffs_descending()
    fano_c = reduced_characteristic_polynomial(catalog["fano"], 0).abs_coeffs_descending()
    ok = ok and k4[1] ** 2 == 25 and k4[0] * k4[2] == 6
    ok = ok and fano_c[1] ** 2 == 36 and fano_c[0] * fano_c[2] == 8
    report(2, "absolute reduced coefficients are log-concave (K4: 25 >= 6, "
              "Fano: 36 >= 8)", ok)


def test_criterion_03_bivariate_bridge(catalog, lattices):
    ok = True
    for name, M in catalog.items():
        L = lattices[name]
        expected = reduced_characteristic_polynomial(M, 0).abs_coeffs_descending()
        for i in range(M.ground.n):
            # normalized_profile internally verifies the expansion against
            # the binomial-Mobius formula and raises on any mismatch
            profile = normalized_profile(L, L.bottom, L.top, i)
            ok = ok and profile == expected
    report(3, "d!*pol(s*alpha + t*beta) matches the binomial-Mobius expansion "
              "and the reduced coefficients, for every non-loop", ok)


def test_criterion_04_special_evaluations(lattices):
    ok = True
    checked = 0
    for L in lattices.values():
        table = mobius(L)
        for K, top in L.comparable_pairs():
            d = L.interval_degree(K, top)
            coords = IntervalCoords(K, top)
            ok = ok and interval_polynomial(L, K, top).evaluate(
                alpha_vector(coords)
            ) == Fraction(1, factorial(d))
            ok = ok and interval_polynomial(L, K, top).evaluate(
                beta_vector(coords)
            ) == Fraction(abs(table.mu(K, top)), factorial(d))
            checked += 1
            if not ok:
                break
    report(4, "pol(alpha) = 1/d! and pol(beta) = |mu|/d! on every interval",
           ok, f"{checked} intervals")


def test_criterion_05_structural_identities(lattices):
    ok = True
    intervals = 0
    for L in lattices.values():
        for K, top in L.comparable_pairs():
            if L.interval_degree(K, top) > 4:
                continue
            intervals += 1
            ok = ok and derivative_factorization_witness(L, K, top) is None
            ok = ok and modular_shift_invariance(L, K, top, trials=50, seed=13)
            if L.interval_rank(K, top) == 3:
                ok = ok and sum_of_squares_identity_holds(L, K, top)
            if not ok:
                break
    report(5, "derivative splitting, modular-shift invariance (50 pairs), and "
              "the rank-3 sum-of-squares identity hold", ok,
           f"{intervals} intervals")


def test_criterion_06_lorentzian_certification(lattices):
    ok = True
    for name, L in lattices.items():
        cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=20, seed=11)
        ok = ok and cert.verdict
        for sample in cert.samples:
            ok = ok and sample.contraction > 0
            if cert.degree >= 2:
                ok = ok and sample.hessian_inertia.n_plus == 1
    report(6, "20 seeded cone samples per matroid pass positivity and the "
              "one-positive-eigenvalue test", ok)


def test_criterion_07_inertia_oracle():
    rng = random.Random(2024)
    compared = 0
    ok = True
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
        ok = ok and tuple(inertia(rows)) == reference
    ok = ok and compared >= 80
    report(7, "exact inertia matches the floating eigensolver",
           ok, f"{compared}/100 matrices comparable")


def test_criterion_08_chow_verification(lattices):
    start = time.monotonic()
    ok = True
    cases = 0
    for L in lattices.values():
        ring = ChowRing(L, L.bottom, L.top)
        ok = ok and ring.graded_dims[-1] == 1
        ok = ok and ring.volume_polynomial() == interval_polynomial(
            L, L.bottom, L.top
        )
        cases += 1
    fano = lattices["fano"]
    for K, top in fano.comparable_pairs():
        if (K, top) == (fano.bottom, fano.top):
            continue
        if fano.interval_degree(K, top) > 2:
            continue
        ring = ChowRing(fano, K, top)
        ok = ok and ring.graded_dims[-1] == 1
        ok = ok and ring.volume_polynomial() == interval_polynomial(fano, K, top)
        cases += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    report(8, "volume polynomial equals the interval polynomial, top degree "
              "one dimensional with consistent flags", ok,
           f"{cases} intervals in {elapsed:.2f}s")


def test_criterion_09_poset_predicates(lattices):
    ok = True
    for L in lattices.values():
        ok = ok and flats_axioms_hold(L, L.top)
        ok = ok and is_one_balanced(L) and is_balanced(L)
        ok = ok and is_semimodular_lattice(L)
        ok = ok and is_interval_connected(L)
        table = mobius(L)
        for a, b in L.comparable_pairs():
            ok = ok and (-1) ** L.interval_rank(a, b) * table.mu(a, b) >= 0
        for x in L.elements:
            for a in L.upper_covers(x):
                for y in L.elements:
                    if is_proper_subset(a, y):
                        ok = ok and weisner_check(L, x, a, y, table)
    report(9, "flats axioms, 1-balanced, semimodular, interval-connected, "
              "Weisner and sign alternation", ok)


def test_criterion_10_orthant_restrictions(lattices):
    ok = True
    for name, L in lattices.items():
        f = interval_polynomial(L, L.bottom, L.top)
        coords = IntervalCoords(L.bottom, L.top)
        tup = sample_direction_tuples(coords, 3, 2, seed=29)[1]
        ok = ok and is_lorentzian_orthant(restrict_to_directions(f, list(tup[:2])))
        ok = ok and is_lorentzian_orthant(restrict_to_directions(f, list(tup)))
        i = next(
            e for e in range(L.n)
            if (L.top >> e) & 1 and not (L.bottom >> e) & 1
        )
        profile = normalized_profile(L, L.bottom, L.top, i)
        ok = ok and is_log_concave(profile)
    report(10, "bivariate and trivariate cone restrictions are orthant "
               "Lorentzian; alpha/beta profile is log-concave", ok)
