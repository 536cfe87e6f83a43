"""The sparse fraction-free elimination of the quotient ring against the
dense Fraction row reduction in tests/oracles.py."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from conepol import chow, flats_lattice, graphic_matroid, subsets, uniform_matroid
from conepol.chow import ChowRing, _echelon, _kernel_basis, vol_pol_mismatch_witness

from oracles import kernel_basis, rref


def dense(rows, ncols):
    out = [[Fraction(0)] * ncols for _ in rows]
    for row, entries in zip(out, rows):
        for col, v in entries.items():
            row[col] = Fraction(v)
    return out


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def assert_matches_oracle(rows, ncols, kernel=True):
    """Same rank and, when asked, the same kernel basis; returns the rank."""
    echelon = _echelon(rows)
    if kernel:
        want = kernel_basis(dense(rows, ncols), ncols)
        assert _kernel_basis(echelon, ncols) == want
        assert len(echelon) == ncols - len(want)
    else:
        assert len(echelon) == rref(dense(rows, ncols))[0]
    return len(echelon)


def k5_lower_k4():
    """[empty, K4] in M(K5): the edges among vertices 0..3, span 6."""
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    P = flats_lattice(graphic_matroid(edges))
    K4 = subsets.from_elements(i for i, (a, b) in enumerate(edges) if b < 4)
    return P, P.bottom, K4


def full(lattice):
    return lattice, lattice.bottom, lattice.top


RINGS = {
    "u33": lambda lt: full(lt["u33"]),
    "fano": lambda lt: full(lt["fano"]),
    "k4": lambda lt: full(lt["k4"]),
    "u44": lambda lt: full(flats_lattice(uniform_matroid(4, 4))),
    "k5_lower_k4": lambda lt: k5_lower_k4(),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_ranks_and_top_kernel_match_dense_oracle(lattices, name):
    ring = ChowRing(*RINGS[name](lattices))
    assert ring.degree >= 2
    for k, monomials in enumerate(ring.monomials):
        rows = ring._relation_rows(k)
        rank = assert_matches_oracle(rows, len(monomials), kernel=k == ring.degree)
        assert ring.graded_dims[k] == len(monomials) - rank
    assert ring.graded_dims[ring.degree] == 1


def random_matrix(rng, nrows, ncols):
    rows = [
        [rng.choice((0, 0, 0, -2, -1, 1, 2)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for _ in range(rng.randrange(3)):
        if rows:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_random_small_integer_matrices_match_dense_oracle(seed):
    rng = random.Random(seed)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        rows = random_matrix(rng, rng.randint(0, 9), ncols)
        assert_matches_oracle(sparse(rows), ncols)


@pytest.mark.parametrize("ncols", [1, 4, 7])
def test_rank_zero(ncols):
    for rows in ([], [{}], [{}, {}]):
        assert _echelon(rows) == {}
        assert_matches_oracle(rows, ncols)
    assert len(_kernel_basis({}, ncols)) == ncols


@pytest.mark.parametrize("seed", range(4))
def test_full_rank(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 7)
    # upper triangular with a nonzero diagonal, mixed by adding earlier rows
    rows = [
        [0] * i + [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(n - i - 1)]
        for i in range(n)
    ]
    for i in range(1, n):
        for j in range(i):
            if rng.random() < 0.5:
                rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    assert len(_echelon(sparse(rows))) == n
    assert _kernel_basis(_echelon(sparse(rows)), n) == []
    assert_matches_oracle(sparse(rows), n)
    # a duplicated row and a zero row leave the rank at n
    assert_matches_oracle(sparse(rows + [rows[0], [0] * n]), n)


def uncap(monkeypatch):
    monkeypatch.setattr(chow, "MAX_OPEN_FLATS", math.inf)
    monkeypatch.setattr(chow, "MAX_DEGREE", math.inf)


K5_EDGES = [(a, b) for a in range(5) for b in range(a + 1, 5)]

# full intervals past the quotient-ring caps, with their graded dimensions
UNCAPPED = {
    "k5": (lambda: full(flats_lattice(graphic_matroid(K5_EDGES))), [1, 41, 41, 1]),
    "u45": (lambda: full(flats_lattice(uniform_matroid(4, 5))), [1, 21, 21, 1]),
}


def exponents(ring, key):
    """A ring's monomial key as the dense exponent tuple the oracles use."""
    return tuple(key.count(p) for p in range(len(ring.flats)))


def rows_against_pairwise_oracle(ring):
    """Asserts that the multichain walk lists the chain monomials of the
    multiset filter, in the same order, and returns per degree the ring's
    relation rows and the all-pairs rows over the same columns."""
    ground = ring.L & ~ring.K
    new, old = [], []
    for k, keys in enumerate(ring.monomials):
        want = oracles.chain_exponents(ring.flats, k)
        assert [exponents(ring, m) for m in keys] == want
        new.append(ring._relation_rows(k))
        old.append(
            oracles.pairwise_relation_rows(ring.flats, ground, below, want) if k else []
        )
        below = want
    return new, old


def top_values(ring):
    return [ring._top_functional[m] for m in ring.monomials[ring.degree]]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_multichains_and_relations_match_pairwise_oracle(lattices, name):
    ring = ChowRing(*RINGS[name](lattices))
    new, old = rows_against_pairwise_oracle(ring)
    for k, monomials in enumerate(ring.monomials):
        n = len(monomials)
        rank = rref(dense(new[k], n))[0]
        assert rref(dense(old[k], n))[0] == rank
        assert rref(dense(new[k] + old[k], n))[0] == rank
        assert ring.graded_dims[k] == n - rank
    # the kernel of the all-pairs rows, scaled to 1 on a flag monomial
    n = len(ring.monomials[-1])
    (vector,) = kernel_basis(dense(old[-1], n), n)
    chain = ring.poset.maximal_chains(ring.K, ring.L)[0]
    flag = ring.monomials[-1].index(tuple(ring.flats.index(F) for F in chain[1:-1]))
    assert top_values(ring) == [v / vector[flag] for v in vector]


@pytest.mark.parametrize("name", sorted(UNCAPPED))
def test_uncapped_rings_match_pairwise_oracle(monkeypatch, name):
    """Dense reduction of the top degree of M(K5) takes minutes, so the
    ranks here come from the sparse elimination, which the tests above
    check against the dense one."""
    uncap(monkeypatch)
    ring = ChowRing(*UNCAPPED[name][0]())
    new, old = rows_against_pairwise_oracle(ring)
    for k in range(ring.degree + 1):
        rank = len(_echelon(new[k]))
        assert len(_echelon(old[k])) == rank
        assert len(_echelon(new[k] + old[k])) == rank
    # every all-pairs row vanishes on the ring's top functional
    values = top_values(ring)
    assert ring.graded_dims[-1] == 1 and any(values)
    for row in old[-1]:
        assert sum(v * values[c] for c, v in row.items()) == 0


@pytest.mark.parametrize("name", sorted(UNCAPPED))
def test_ring_identities_past_the_caps(monkeypatch, name):
    uncap(monkeypatch)
    build, dims = UNCAPPED[name]
    P, K, L = build()
    ring = ChowRing(P, K, L)
    assert ring.graded_dims == dims
    # Poincare duality
    assert ring.graded_dims == ring.graded_dims[::-1]
    # A^1 is spanned by the open flats modulo one relation per atom but one
    atoms = P.upper_covers(K)
    assert ring.graded_dims[1] == len(ring.flats) - (len(atoms) - 1)
    assert vol_pol_mismatch_witness(ring) is None
