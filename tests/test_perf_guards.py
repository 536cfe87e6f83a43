"""Guards against re-introducing scans that a proof already replaces, the
substitution that the Taylor-series lift and the mixed contractions of
the alpha/beta profile replace, or the `Fraction`
Hessian and full-order inertia that the integer certificate replaces (and
a `Fraction` copy of its int rows), and pinned CLI output for the commands
those changes sit under.

Sampled directions are certified by their margin bound, so a sampled
`certify` scans no diamond; supplied directions are scanned once each.  A
lattice of flats is built with semimodularity and the flats axioms
proved, so its connectivity and 1-balancedness walks never run, and from
the flats search's checked record, so no pair of flats is intersected,
also when a caller gives the flats, and its heights and cover-gain
partition are read off the record, not walked or scanned.  The search
carries spanning bases down from cl(empty set), its one `_spanning` call.
`charpoly` reads the record by Weisner's theorem and builds no poset.  The
alpha/beta profile is read off mixed contractions, so no path of the
package substitutes.  A size guard refuses before any quotient ring is
built.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import sys
from fractions import Fraction

import pytest

from conepol import (
    FlatLattice, Matroid, UniPoly, chow, cone, flats_lattice, graphic_matroid, interval_polynomial,
    intervalpoly, lorentz, multipoly, poset, uniform_matroid,
)
from conepol.cli import main


def counting(monkeypatch, module, name):
    """Record every call of `module.name`, through whichever conepol
    namespace binds it (`from ... import` included)."""
    calls = []
    fn = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for mod, attr in bindings(fn):
        monkeypatch.setattr(mod, attr, spy)
    return calls


def bindings(fn):
    """Every (conepol module, name) that binds `fn`."""
    return [
        (mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == "conepol"
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


K4 = list(itertools.combinations(range(4), 2))
K4_K4 = K4 + [(a + 3, b + 3) for a, b in K4]  # two K4 sharing a vertex


def test_sampled_certify_scans_no_direction(monkeypatch):
    scans = counting(monkeypatch, cone, "is_strictly_submodular")
    code, out = run_json(["certify", "--fano", "--samples", "3"])
    assert code == 0 and len(json.loads(out)["samples"]) == 3
    assert scans == []


def test_supplied_directions_are_scanned_once_each(monkeypatch, tmp_path):
    coords = cone.IntervalCoords(0, 0b111)
    point = cone.canonical_interior_point(coords).to_json_obj()
    tuples = [[point, point] for _ in range(3)]
    path = tmp_path / "dirs.json"
    path.write_text(json.dumps({"tuples": tuples}))
    scans = counting(monkeypatch, cone, "is_strictly_submodular")
    code, _ = run_json(["certify", "--uniform", "3", "3", "--directions", str(path)])
    assert code == 0
    assert len(scans) == 6


def test_flats_lattice_runs_no_connectivity_or_balance_walk(monkeypatch):
    splits = counting(monkeypatch, poset, "_comparability_split")
    middles = counting(monkeypatch, poset, "_rank2_middles")
    L = flats_lattice(uniform_matroid(6, 12))
    assert len(L) == 1587
    assert poset.is_interval_connected(L) and poset.is_one_balanced(L)
    assert poset.is_balanced(L)
    assert splits == [] and middles == []


def test_flats_lattice_intersects_no_pair_of_flats(monkeypatch):
    pairwise = counting(monkeypatch, poset, "_pairwise_intersection_closed")
    matroids = (uniform_matroid(6, 12), graphic_matroid(K4_K4))
    lattices = [flats_lattice(M) for M in matroids]
    assert [len(L) for L in lattices] == [1587, 225]
    assert pairwise == []
    # the same flats given by a caller are compared with the record's sets
    for M, L in zip(matroids, lattices):
        assert FlatLattice(M, L.elements).elements == L.elements
    assert pairwise == []


def test_flats_lattice_spans_once_and_walks_no_grading(monkeypatch):
    """The flats search asks `_spanning` once, at cl(empty set) (the other
    call is `closure(0)` finding that set), and carries bases down from
    there; a lattice of flats reads its heights off the record's ranks and
    keeps the cover-gain partition the record proved, so neither the
    grading walk nor the partition scan runs.  A poset built from the same
    sets without the record runs both."""
    spans, grades, scans = [], [], []
    spanning = Matroid._spanning
    grade = poset.GradedSubposet._grade_all_intervals
    partition = poset._gains_partition.__wrapped__

    def spy_spanning(self, S):
        spans.append(S)
        return spanning(self, S)

    def spy_grade(self):
        grades.append(self)
        return grade(self)

    @functools.wraps(partition)
    def spy_partition(P, top):
        scans.append(P)
        return partition(P, top)

    monkeypatch.setattr(Matroid, "_spanning", spy_spanning)
    monkeypatch.setattr(poset.GradedSubposet, "_grade_all_intervals", spy_grade)
    monkeypatch.setattr(poset, "_gains_partition", poset._once_per_poset(spy_partition))
    with_loop = graphic_matroid(K4 + [(1, 1)])
    for M, size in ((uniform_matroid(6, 12), 1587), (graphic_matroid(K4_K4), 225),
                    (with_loop, 15)):
        spans.clear()
        L = flats_lattice(M)
        assert len(L) == size and spans == [0, L.bottom]
        assert poset.flats_axioms_hold(L, L.top)
    assert with_loop.loops() == 1 << 6
    assert grades == [] and scans == []
    P = poset.GradedSubposet(L.n, L.elements)
    assert poset.flats_axioms_hold(P, L.top)
    assert grades == [P] and scans == [P]


def test_interval_polynomial_substitutes_nothing(monkeypatch):
    """Sub-interval polynomials are lifted by their Taylor series along the
    one outer variable, not by multiplying out powers of linear forms."""
    original = multipoly.substitute_affine
    substitutions = counting(monkeypatch, multipoly, "substitute_affine")
    assert bindings(original) == []
    L = flats_lattice(uniform_matroid(5, 5))
    f = interval_polynomial(L, L.bottom, L.top)
    assert (len(f.vars), f.degree, len(f.terms)) == (30, 4, 760)
    assert substitutions == []


def test_alpha_beta_profile_substitutes_nothing(monkeypatch):
    """The alpha/beta profile is read off mixed contractions of the
    interval polynomial, and so is the reduced characteristic polynomial
    recovered from it: neither multiplies out a bivariate restriction."""
    substitutions = counting(monkeypatch, multipoly, "substitute_affine")
    M = uniform_matroid(4, 5)
    L = flats_lattice(M)
    assert intervalpoly.normalized_profile(L, L.bottom, L.top, 0) == [1, 4, 6, 4]
    assert intervalpoly.reduced_charpoly_via_interval_poly(M) == UniPoly([-4, 6, -4, 1])
    assert substitutions == []


def test_certify_reads_inertia_on_the_kernel_reduced_hessian(monkeypatch):
    """Each tuple's Hessian is built in integers in one pass, and inertia
    sees it without the rows of the atoms whose kernel vectors check out:
    U(5,5) has 30 open flats and 5 atoms."""
    inertias = counting(monkeypatch, lorentz, "inertia")
    hessians = counting(monkeypatch, multipoly, "hessian_of_quadratic")
    code, out = run_json(["certify", "--uniform", "5", "5", "--samples", "2"])
    assert code == 0 and len(json.loads(out)["samples"]) == 2
    assert [len(args[0]) for args in inertias] == [26, 26]
    assert hessians == []


def test_inertia_reads_int_rows_without_building_a_fraction(monkeypatch):
    """`inertia` checks and eliminates the int H' of a sampled tuple as
    given: with `Fraction` construction made to fail, U(5,5)'s canonical and
    perturbed H' (order 26, 4 atoms dropped) still get their triples."""
    L = flats_lattice(uniform_matroid(5, 5))
    f = interval_polynomial(L, L.bottom, L.top)
    coords = cone.IntervalCoords(L.bottom, L.top)
    reduced = []
    for tup in lorentz.sample_direction_tuples(coords, f.degree, 2, 0):
        H, _ = lorentz._contracted(f, tup)
        rows, dropped = lorentz._drop_atom_kernel(H, f.vars)
        assert (len(rows), dropped) == (26, 4)
        reduced.append(rows)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("inertia built a Fraction")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", refuse)
        triples = [lorentz.inertia(rows) for rows in reduced]
    assert triples == [(1, 0, 25), (1, 0, 25)]


@pytest.mark.parametrize("source", ["k4.k4", "u6_7"])
def test_charpoly_builds_no_order_table(monkeypatch, tmp_path, source):
    """`charpoly` reads chi and chibar off the flats search's record, so it
    constructs no poset: no order table, predicate scan or Mobius row."""
    built = []
    init = poset.GradedSubposet.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(poset.GradedSubposet, "__init__", spy)
    path = tmp_path / "k4k4.json"
    path.write_text(json.dumps({"edges": [list(e) for e in K4_K4]}))
    argv = {"k4.k4": ["--graphic", str(path)], "u6_7": ["--uniform", "6", "7"]}[source]
    code, out = run_json(["charpoly", *argv])
    assert code == 0 and json.loads(out)["log_concave"]
    assert built == []


def test_all_intervals_refusal_builds_no_ring(monkeypatch, capsys):
    rings = counting(monkeypatch, chow, "ChowRing")
    code = main(["chow-verify", "--uniform", "4", "5", "--all-intervals", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (4, "", "SizeLimitExceeded: 25 open flats exceeds the cap of 16\n")
    assert rings == []


# sha256 of `--format json` stdout, recorded before the proofs replaced the
# scans (U(7,14): before intersection closure was proved from the matroid;
# `pol --eval beta`: before the Taylor-series lift; `charpoly` on U(8,16):
# before chi was read off the flats search by Weisner's theorem; U(5,5),
# `chow-verify` and `pol --eval alpha`: before terms were keyed by sorted
# variable indices; `poset-check` on M(K4.K4): before spanning bases were
# carried down the flats search and heights read off its record); certify
# runs `--samples 2` with the default seed 0
PINNED = {
    ("certify", "fano"): "45a4c040ea032fb0d8a86cf9cd097ff44234330c8e3c032ee6af8224b600905a",
    ("certify", "u45"): "1b9fb984a3d2dafeab87f2bed1df7397ba705b7d173eda414e0a78586eb49ea9",
    ("certify", "k5"): "593e569352420788a6f3e126511cbaddbeceafe81504f0517b6b355109232316",
    ("charpoly", "fano"): "e5adc774a647ae6234ce9881010325dce54d19e1479e15ca2314216dea905e1a",
    ("charpoly", "u45"): "550bfea81ac0b6e85e004ead5d5e6a11477592a42f87a937c2c01108f6f03d4a",
    ("charpoly", "k5"): "4eefce4922ba88280bf82a4137fc28770b0275411663274578c78daa227dee74",
    ("poset-check", "fano"): "9f5b67d9926a6bfbcb47a8d93d41b15a2d63cae3917bc7b374ac55292c8fab74",
    ("poset-check", "u45"): "8162179243a701571d2433c660db022dfd007ec3c1324dd5d925a9f3db67e2a7",
    ("poset-check", "k5"): "f06c4d3ae5461d032aedb6e22190ddd181fced37ab9fcd5977d2061b2c3f9080",
    ("charpoly", "u7_14"): "6081f2d6d656c8c34394329f3adc092fa1e848217fe698331dce6d4b07498a13",
    ("charpoly", "u8_16"): "7060a7d39332bf0f32c2a02bf2b1713977f590115def8e5871d4092e26a3350f",
    ("poset-check", "u7_14"): "27c537460dc6ad782e596dfb1000e90520b2a26977ac82c6f031172ac145bb4c",
    ("poset-check", "k4k4"): "c5de48747db7a409f63294b09acc3540c74da7ba89f06c51b372550fa7e9fa01",
    ("pol", "fano"): "70f57da9eef510e310927e29b2b3986c1dd33eda68f8f495bddb42b474010b60",
    ("pol", "u45"): "f1b9e30b876c36b2bbe328eb3e82f0236bf141ce382be1340292dea300d97c68",
    ("pol", "k5"): "e568f6a280f5884a77062a7507f2a6aa246ead2054b84886af16b40bba97b553",
    ("certify", "u55"): "94a5fcfe87ab6c95fdc4bdae18fddcbde2836cb1e2bd2f077769d2a606e11b6a",
    ("pol", "u55"): "b710530ce294ad009687bde85635cfea048445210f704fa709a9e43d0e4675df",
    ("chow-verify", "fano"): "ffc614ec6d23e45276c0e64ddb992280acb541fb856bb8432cdc658d8a43dda8",
    ("chow-verify", "k5"): "5038f912c0830b666bf4c494569cfbb903fbf899b8c9f8c6faef85666d296aa3",
}
# U(5,5) is the first rung with cubes and 30 variables; `pol` on it
# evaluates at alpha rather than beta
EXTRA = {
    ("pol", "u55"): ["--eval", "alpha"],
    ("chow-verify", "fano"): ["--all-intervals"],
    ("chow-verify", "k5"): ["--all-intervals", "--max-degree", "2"],
}


@pytest.mark.parametrize("command, matroid", sorted(PINNED))
def test_json_output_is_pinned(tmp_path, command, matroid):
    k5, k4k4 = tmp_path / "k5.json", tmp_path / "k4k4.json"
    k5.write_text(json.dumps({"edges": [list(e) for e in itertools.combinations(range(5), 2)]}))
    k4k4.write_text(json.dumps({"edges": [list(e) for e in K4_K4]}))
    source = {"fano": ["--fano"], "u45": ["--uniform", "4", "5"], "u55": ["--uniform", "5", "5"],
              "u7_14": ["--uniform", "7", "14"], "u8_16": ["--uniform", "8", "16"],
              "k5": ["--graphic", str(k5)], "k4k4": ["--graphic", str(k4k4)]}[matroid]
    extra = EXTRA.get((command, matroid)) or {
        "certify": ["--samples", "2"], "pol": ["--eval", "beta"],
    }.get(command, [])
    code, out = run_json([command, *source, *extra])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command, matroid]
