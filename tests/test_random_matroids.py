"""Seeded random binary matroids run through the whole identity net.

Columns are random nonzero vectors over GF(2); bases are the full-rank
column subsets, computed here by an elimination independent of the
package.  Parallel columns and non-uniform structures appear naturally.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial

from conepol import (
    ChowRing,
    IntervalCoords,
    alpha_vector,
    beta_vector,
    certify_cone_lorentzian,
    flats_lattice,
    interval_polynomial,
    is_interval_connected,
    is_one_balanced,
    is_semimodular_lattice,
    mobius,
)
from conepol.chow import vol_pol_mismatch_witness
from conepol.poset import flats_axioms_hold

from conftest import matroid_from_bases
from side_checks import derivative_factorization_witness, modular_shift_invariance


def gf2_rank(vectors):
    rows = list(vectors)
    rank = 0
    for bit in range(8):
        pivot = next(
            (i for i in range(rank, len(rows)) if (rows[i] >> bit) & 1), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def random_binary_matroid(rng, dim, n):
    cols = [rng.randint(1, (1 << dim) - 1) for _ in range(n)]
    r = gf2_rank(cols)
    bases = [
        combo
        for combo in combinations(range(n), r)
        if gf2_rank([cols[i] for i in combo]) == r
    ]
    return matroid_from_bases(n, bases)


def test_random_binary_matroids_full_net():
    rng = random.Random(424242)
    seen = 0
    while seen < 8:
        M = random_binary_matroid(rng, rng.choice([2, 3]), rng.randint(3, 5))
        if M.rank_total < 2:
            continue
        seen += 1
        L = flats_lattice(M)  # construction already validates the axioms
        assert flats_axioms_hold(L, L.top)
        assert is_one_balanced(L)
        assert is_semimodular_lattice(L)
        assert is_interval_connected(L)

        table = mobius(L)
        for K, top in L.comparable_pairs():
            d = L.interval_degree(K, top)
            f = interval_polynomial(L, K, top)
            coords = IntervalCoords(K, top)
            assert f.evaluate(alpha_vector(coords)) == Fraction(1, factorial(d))
            assert f.evaluate(beta_vector(coords)) == Fraction(
                abs(table.mu(K, top)), factorial(d)
            )
            assert derivative_factorization_witness(L, K, top) is None
            assert vol_pol_mismatch_witness(ChowRing(L, K, top)) is None
        assert modular_shift_invariance(L, L.bottom, L.top, trials=10, seed=7)
        cert = certify_cone_lorentzian(L, L.bottom, L.top, samples=3, seed=5)
        assert cert.verdict
