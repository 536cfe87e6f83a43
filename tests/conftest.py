import pytest

from conepol import GroundSet, Matroid, fano, flats_lattice, graphic_matroid, uniform_matroid
from conepol.subsets import from_elements

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# matroids whose alpha/beta profile and boundary Hessians are checked,
# each a zero-argument builder; M(K5) and U(5,6) reach degrees 3 and 4
PROFILE_RUNGS = {
    "fano": fano,
    "k4": lambda: graphic_matroid(K4_EDGES),
    "u45": lambda: uniform_matroid(4, 5),
    "k5": lambda: graphic_matroid([(a, b) for a in range(5) for b in range(a + 1, 5)]),
    "u56": lambda: uniform_matroid(5, 6),
}


def matroid_from_bases(n, bases):
    """Validated matroid on n elements from basis bitsets or iterables of
    0-based elements."""
    return Matroid(GroundSet(n), {B if isinstance(B, int) else from_elements(B) for B in bases})


@pytest.fixture(scope="session")
def catalog():
    return {
        "u23": uniform_matroid(2, 3),
        "u33": uniform_matroid(3, 3),
        "u34": uniform_matroid(3, 4),
        "k4": graphic_matroid(K4_EDGES),
        "fano": fano(),
    }


@pytest.fixture(scope="session")
def lattices(catalog):
    return {name: flats_lattice(M) for name, M in catalog.items()}
