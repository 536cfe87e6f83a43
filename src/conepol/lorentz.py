"""Exact certification of the cone-Lorentzian property.

A degree-d homogeneous polynomial is cone-Lorentzian when every d-fold
directional derivative along cone directions is positive, and the Hessian
of every (d-2)-fold derivative has exactly one positive eigenvalue.  Both
conditions are decided here in exact integer arithmetic: each sampled
tuple scales the polynomial and each direction to integers, builds a
positive integer multiple of the contracted Hessian, drops the kernel
vectors that the atoms of the interval name (degree-one Hodge-Riemann) by
a unimodular congruence, and counts eigenvalue signs by congruence
elimination (Sylvester's law of inertia).

`certify_cone_lorentzian` is the one place these conditions are checked:
for each tuple, the contraction and the Hessian are both read off one
contracted quadratic form (`_contracted`).
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import cone, subsets
from .errors import (
    DirectionNotInCone,
    DimensionMismatch,
    InternalCheckError,
    InvalidParams,
    NotSymmetric,
)
from .intervalpoly import full_contraction, interval_polynomial
from .multipoly import _coordinate, _derivative_terms, _hessian_rows


class InertiaTriple(NamedTuple):
    """Counts (n_plus, n_zero, n_minus) of eigenvalue signs."""

    n_plus: int
    n_zero: int
    n_minus: int


def _check_symmetric(rows):
    """Raise `NotSymmetric` unless the rows form a square symmetric matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSymmetric("matrix is not square")
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if row[j] != rows[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")


def inertia(A):
    """Exact eigenvalue sign counts of a symmetric matrix A, a list of rows
    of ints or `Fraction`s.

    Congruence elimination over the integers: by Sylvester's law of inertia
    a congruence keeps the sign counts, and so does a positive scale.  A is
    checked square and symmetric, then scaled to integers by the lcm of its
    denominators; the int rows the sampled certificates pass are read as
    given, with no `Fraction` built.  Each step takes a nonzero diagonal
    pivot a; when the diagonal is all zero, adding row and column j to row
    and column i for some nonzero entry (i, j) makes the diagonal entry
    2 * M[i][j].  The sign of a is counted and the rest C is replaced by
    sign(a) * (a*C - b*b^T), which is |a| times the Schur complement and so
    has the same inertia, with its content gcd divided out.  The order of
    what is left once no nonzero entry remains is the zero count.
    """
    _check_symmetric(A)
    n = len(A)
    flat, _ = _scaled([v for row in A for v in row])
    M = [flat[i * n:(i + 1) * n] for i in range(n)]
    n_plus = n_minus = 0
    while M:
        m = len(M)
        k = next((i for i in range(m) if M[i][i]), None)
        if k is None:
            pair = next(
                ((i, j) for i in range(m) for j in range(i + 1, m) if M[i][j]),
                None,
            )
            if pair is None:
                break
            k, j = pair
            for r in range(m):
                M[k][r] += M[j][r]
            for r in range(m):
                M[r][k] += M[r][j]
        a = M[k][k]
        sign = 1 if a > 0 else -1
        if sign > 0:
            n_plus += 1
        else:
            n_minus += 1
        b = [row[k] for r, row in enumerate(M) if r != k]
        rest = [row[:k] + row[k + 1:] for r, row in enumerate(M) if r != k]
        M = [
            [sign * (a * c - bi * bj) for c, bj in zip(row, b)]
            for row, bi in zip(rest, b)
        ]
        content = math.gcd(*(c for row in M for c in row))
        if content > 1:
            M = [[c // content for c in row] for row in M]
    return InertiaTriple(n_plus, len(M), n_minus)


# -- sampling ---------------------------------------------------------------


_DENOMINATOR = 64  # perturbations are drawn as k / 64
_MAX_NUMERATOR = _DENOMINATOR // 4  # the margin bound |delta| <= 1/4


def _perturbed_direction(base, coords, rng):
    """Canonical interior point plus a small rational perturbation.

    The canonical point has margin exactly 2 on every diamond, and each
    diamond margin touches at most four coordinates, the endpoints pinned
    at 0, so a perturbation of at most 1/4 per coordinate moves it by at
    most 1 and stays strictly submodular.  That bound, checked in O(m) on
    the drawn numerators over 64, certifies the draw; no diamond is
    scanned.  Each coordinate is then built as one `Fraction`.
    """
    draws = [rng.randint(-16, 16) for _ in range(coords.m)]
    if any(abs(k) > _MAX_NUMERATOR for k in draws):
        raise InternalCheckError("perturbed direction left the cone")
    q = _DENOMINATOR
    return cone.IntervalVector(
        coords,
        [
            Fraction(b.numerator * q + k * b.denominator, b.denominator * q)
            for b, k in zip(base.values, draws)
        ],
    )


def sample_direction_tuples(coords, d, count, seed):
    """Seeded direction tuples: one all-canonical tuple, then perturbations.

    No direction is scanned against the cone: the canonical point has
    every diamond margin 2 (`cone.canonical_interior_point`), and each
    perturbation is certified by its margin bound as it is drawn.
    """
    rng = random.Random(seed)
    base = cone.canonical_interior_point(coords)
    out = []
    for idx in range(count):
        if idx == 0:
            out.append(tuple(base for _ in range(d)))
        else:
            out.append(
                tuple(_perturbed_direction(base, coords, rng) for _ in range(d))
            )
    return out


# -- certificates -------------------------------------------------------------


@dataclass
class SampleResult:
    directions: tuple
    contraction: Fraction
    hessian_inertia: Optional[InertiaTriple]
    passed: bool

    def to_json_obj(self):
        return {
            "directions": [v.to_json_obj() for v in self.directions],
            "contraction": str(self.contraction),
            "inertia": list(self.hessian_inertia)
            if self.hessian_inertia is not None
            else None,
            "passed": self.passed,
        }


@dataclass
class LorentzianCertificate:
    K: int
    L: int
    degree: int
    seed: Optional[int]
    samples: list
    verdict: bool

    def to_json_obj(self):
        return {
            "interval": {
                "K": subsets.elements(self.K),
                "L": subsets.elements(self.L),
            },
            "degree": self.degree,
            "seed": self.seed,
            "samples": [s.to_json_obj() for s in self.samples],
            "verdict": self.verdict,
        }


def _scaled(values):
    """Integers n_i and the least positive integer s with values[i] = n_i / s."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _contracted(f, directions):
    """A positive integer multiple H of the Hessian of f contracted along
    directions[2:], and the full contraction of f along all of them,
    exactly.

    f's coefficients are scaled to integers by their one common denominator
    and each direction by its own.  The terms, under f's own keys (sorted
    variable indices, one entry per power), are contracted in int
    arithmetic one direction at a time (`_derivative_terms`), and the
    quadratic left is read into H.  H is the true Hessian times the
    product of the scales of f and directions[2:], so it has the same
    inertia and the same sign pattern; with v1, v2 the scaled first two
    directions, the full contraction is v1^T H v2 over the product of all
    the scales.

    Every Lorentzian check reads this one quadratic form.  The full
    contraction is symmetric in the directions, so any d - 2 of them may be
    put last to get the Hessian contracted along those.
    """
    coeffs, scale = _scaled(list(f.terms.values()))
    terms = dict(zip(f.terms, coeffs))
    weights = []
    for v in directions:
        w, s = _scaled([_coordinate(v, var) for var in f.vars])
        weights.append(w)
        scale *= s
    for w in weights[2:]:
        terms = _derivative_terms(terms, w)
    H = _hessian_rows(terms.items(), len(f.vars), 0)
    v1, v2 = weights[:2]
    value = sum(
        x * sum(h * y for h, y in zip(row, v2) if h) for x, row in zip(v1, H) if x
    )
    return H, Fraction(value, scale)


def _drop_atom_kernel(H, flats):
    """H without the row and column of each atom a != a0 with H v_a = 0,
    and the number of atoms dropped.

    `flats` are the open interval's flats as int masks; its atoms are the
    minimal ones, a0 the first of them, and v_a[F] = [F >= a0] - [F >= a].
    These are the linear relations of the Chow ring, so on a lattice of
    flats every contracted Hessian of the interval polynomial has them in
    its kernel (degree-one Hodge-Riemann says they span it for directions
    in the cone).  Nothing is
    assumed: H v_a = 0 is checked exactly over the nonzeros of v_a, and an
    atom that fails (a poset that is not a lattice of flats) stays.  Replacing e_a by v_a for every
    dropped atom is a unimodular congruence: v_a is -1 at a and 0 at every
    other dropped atom (atoms do not contain each other, and a0 is kept),
    so the change of basis is triangular with diagonal +-1.  It turns H
    into H' plus a zero block, so inertia(H) is inertia(H') with one more
    zero per dropped atom.
    """
    atoms = [
        i for i, F in enumerate(flats)
        if not any(G != F and G & F == G for G in flats)
    ]
    a0 = flats[atoms[0]]
    dropped = set()
    for a in atoms[1:]:
        A = flats[a]
        support = [
            (j, x) for j, F in enumerate(flats)
            if (x := (F & a0 == a0) - (F & A == A))
        ]
        if all(sum(row[j] * x for j, x in support) == 0 for row in H):
            dropped.add(a)
    kept = [i for i in range(len(H)) if i not in dropped]
    return [[H[i][j] for j in kept] for i in kept], len(dropped)


def _tuple_result(f, directions):
    """Positivity of the full contraction, and when deg >= 2 the inertia of
    the Hessian after contracting along all but the first two directions.

    f's variables are the flats of an open interval; the inertia is read
    on the Hessian with its verified atom kernel dropped."""
    d = f.degree
    if len(directions) != d:
        raise DimensionMismatch(f"need {d} directions, got {len(directions)}")
    if d < 2:
        value = full_contraction(f, directions)
        return value, None, value > 0
    H, value = _contracted(f, directions)
    reduced, dropped = _drop_atom_kernel(H, f.vars)
    n_plus, n_zero, n_minus = inertia(reduced)
    result_inertia = InertiaTriple(n_plus, n_zero + dropped, n_minus)
    return value, result_inertia, value > 0 and n_plus == 1


def certify_cone_lorentzian(P, K, L, samples=20, seed=0, directions=None):
    """Sampled certification of the interval polynomial on its cone.

    Directions may be supplied explicitly as tuples of interval vectors;
    every supplied direction is membership-checked against the strictly
    submodular cone (sampled ones are certified by their margin bound where
    they are drawn).  The certificate records each contraction value and
    inertia.
    """
    d = P.interval_degree(K, L)
    coords = cone.IntervalCoords(K, L)
    if directions is None:
        tuples = sample_direction_tuples(coords, d, samples, seed)
        recorded_seed = seed
    else:
        tuples = [tuple(t) for t in directions]
        recorded_seed = None
        for idx, tup in enumerate(tuples):
            if len(tup) != d:
                raise DimensionMismatch(
                    f"tuple {idx} has {len(tup)} directions, interval degree is {d}"
                )
            for v in tup:
                if v.coords != coords:
                    raise DirectionNotInCone(
                        f"tuple {idx}: direction lives on a different interval"
                    )
                if not cone.is_strictly_submodular(v):
                    S, T, margin = cone.submodularity_witness(v)
                    raise DirectionNotInCone(
                        f"tuple {idx}: direction is not strictly submodular: "
                        f"margin {margin} at {{{subsets.format_elements(S)}}} "
                        f"and {{{subsets.format_elements(T)}}}"
                    )
    if not tuples:
        raise InvalidParams("no direction tuples to certify")
    f = interval_polynomial(P, K, L)
    results = []
    for tup in tuples:
        value, triple, ok = _tuple_result(f, tup)
        results.append(SampleResult(tup, value, triple, ok))
    verdict = all(r.passed for r in results)
    return LorentzianCertificate(K, L, d, recorded_seed, results, verdict)

