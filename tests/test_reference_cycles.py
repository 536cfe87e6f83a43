"""A CLI job's objects are freed by reference counting when it returns.

Reference cycles among a job's objects (a poset and its polynomial cache, a
matroid and its lattice, a self-recursive closure, a fresh argparse parser)
keep the whole job alive until the cyclic collector runs, which is what a
long-lived caller's peak memory then pays for.  With the collector off and DEBUG_SAVEALL on, every
object that only a collection could free lands in `gc.garbage`.
"""

import contextlib
import gc
import io
import types
import weakref

import pytest

from conepol import cli, poset
from conepol.intervalpoly import IntervalPolynomials
from conepol.matroid import Matroid
from conepol.multipoly import MultiPoly
from conepol.poset import GradedSubposet
from conepol.subsets import from_elements

JOBS = [
    ["certify", "--uniform", "4", "5", "--samples", "2"],
    ["pol", "--uniform", "4", "5", "--eval", "alpha"],
    ["chow-verify", "--fano", "--all-intervals"],
    ["poset-check", "--fano"],
    ["charpoly", "--uniform", "3", "5"],
]


def _from_conepol(obj):
    """An instance of a conepol class, or a function defined in conepol."""
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("conepol")
    return type(obj).__module__.startswith("conepol")


@pytest.mark.parametrize("argv", JOBS, ids=lambda argv: argv[0])
def test_cli_job_leaves_no_cyclic_garbage(argv):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        gc.collect()
        leaked = sorted(
            {
                getattr(obj, "__qualname__", type(obj).__qualname__)
                for obj in gc.garbage
                if _from_conepol(obj)
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        gc.collect()
    assert code == 0
    assert leaked == []


JOB_OBJECTS = (Matroid, GradedSubposet, IntervalPolynomials, MultiPoly)


@pytest.mark.parametrize(
    "argv",
    [
        ["charpoly", "--uniform", "3", "5"],
        ["poset-check", "--fano"],
        ["certify", "--uniform", "3", "4", "--samples", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_job_keeps_nothing_alive(argv):
    """No matroid, poset, polynomial cache or polynomial outlives its job,
    so nothing one invocation computes can serve the next."""
    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, JOB_OBJECTS)]
    kept = {id(obj) for obj in before}
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    gc.collect()
    alive = [
        type(obj).__qualname__
        for obj in gc.get_objects()
        if isinstance(obj, JOB_OBJECTS) and id(obj) not in kept
    ]
    assert code == 0
    assert alive == []


def test_poset_and_its_mobius_table_are_freed_by_reference_counting():
    sets = [0, from_elements([0]), from_elements([1]), from_elements([0, 1])]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        P = GradedSubposet(2, sets)
        table = poset.mobius(P)
        assert table.mu(0, from_elements([0, 1])) == 1
        poset_ref, table_ref = weakref.ref(P), weakref.ref(table)
        del table
        # the poset keeps its table; the table does not keep the poset
        assert table_ref() is not None
        del P
        assert poset_ref() is None
        assert table_ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_mobius_table_answers_after_its_poset_is_gone():
    sets = [0, from_elements([0]), from_elements([1]), from_elements([0, 1])]
    table = poset.mobius(GradedSubposet(2, sets))
    assert table.mu(from_elements([0]), from_elements([0, 1])) == -1
    assert [mu for _, mu in table.items()] == [1, -1, -1, 1, 1, -1, 1, -1, 1]
