"""The benchmark's three CLI job mixes, generated from the workload seed.

A workload is an ordered job list; one pass runs every job once through
`conepol.cli.main(argv)`.  The seed picks edge labels, sub-intervals,
`--eval` points and certificate seeds; the shape of each mix (which
matroids, which commands, how many samples) is fixed, so every seed asks
for the same amount of work.  Graph inputs are written as edge-list files
into a work directory, and only those files and the argv reach the program.
"""

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import oracles
from oracles import RankModel

@dataclass
class Job:
    name: str
    argv: list
    matroid: str
    span: int
    degree: int
    check: Callable[[int, str, str], Optional[str]]
    top: bool = False
    floor: bool = False
    digest: bool = True


@dataclass
class Source:
    """A matroid as the CLI selects it, with the oracle's model of it."""

    label: str
    args: list
    model: RankModel


def uniform(r, n):
    return Source(f"U({r},{n})", ["--uniform", str(r), str(n)], RankModel.uniform(r, n))


def fano():
    return Source("Fano", ["--fano"], RankModel.fano())


def graphic(label, edges, workdir):
    path = Path(workdir) / f"{label}.json"
    path.write_text(json.dumps({"edges": edges}))
    return Source(label, ["--graphic", str(path)], RankModel.graphic(edges))


def relabelled(edges, rng):
    """The same graph with shuffled vertex names and edge order."""
    vertices = sorted({v for e in edges for v in e})
    names = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    out = [sorted((names[u], names[v])) for u, v in edges]
    rng.shuffle(out)
    return out


def complete_graph(k):
    return [list(e) for e in combinations(range(k), 2)]


def mask_of(edges, keep):
    return sum(1 << i for i, e in enumerate(edges) if keep(e))


def interval_arg(mask):
    return ",".join(map(str, oracles.elements(mask))) or "empty"


# -- job constructors ----------------------------------------------------------


def _interval(src, K, L):
    """Masks and --interval arguments; the full interval needs none."""
    K = 0 if K is None else K
    L = src.model.full if L is None else L
    argv = [] if (K, L) == (0, src.model.full) else ["--interval", interval_arg(K), interval_arg(L)]
    return K, L, argv


def certify(src, samples, seed, K=None, L=None, tag="", **flags):
    K, L, iv = _interval(src, K, L)
    return Job(
        f"certify {src.label}{tag}",
        ["certify", *src.args, *iv, "--samples", str(samples), "--seed", str(seed), "--format", "json"],
        src.label,
        (L & ~K).bit_count(),
        src.model.degree(K, L),
        partial(oracles.check_certify, src.model, K, L, samples, seed),
        **flags,
    )


def pol(src, point, K=None, L=None, tag=""):
    K, L, iv = _interval(src, K, L)
    return Job(
        f"pol {src.label}{tag}",
        ["pol", *src.args, *iv, "--eval", point, "--format", "json"],
        src.label,
        (L & ~K).bit_count(),
        src.model.degree(K, L),
        partial(oracles.check_pol, src.model, K, L, point),
    )


def chow(src, all_intervals=False, max_degree=None, refusable=False, **flags):
    argv = ["chow-verify", *src.args]
    if all_intervals:
        argv.append("--all-intervals")
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    if refusable:
        # stdout changes when a later cap admits the job, so no digest
        check = partial(oracles.check_chow_or_refused, src.model, src.model.n)
        flags["digest"] = False
    else:
        limit = src.model.n if max_degree is None else max_degree
        check = partial(oracles.check_chow, src.model, limit, all_intervals)
    return Job(
        f"chow-verify {src.label}" + (" all" if all_intervals else ""),
        argv + ["--format", "json"],
        src.label,
        src.model.n,
        src.model.degree(0, src.model.full),
        check,
        **flags,
    )


def charpoly(src, closed_form=None, **flags):
    """Checked against the uniform closed form when given as (r, n),
    otherwise against the Whitney rank expansion of the oracle's model."""
    return Job(
        f"charpoly {src.label}",
        ["charpoly", *src.args, "--format", "json"],
        src.label,
        src.model.n,
        src.model.degree(0, src.model.full),
        partial(oracles.check_charpoly, src.model, closed_form),
        **flags,
    )


def poset_check(src, **flags):
    return Job(
        f"poset-check {src.label}",
        ["poset-check", *src.args, "--format", "json"],
        src.label,
        src.model.n,
        src.model.degree(0, src.model.full),
        partial(oracles.check_poset, src.model),
        **flags,
    )


def floor_jobs(rng):
    """Three tiny U(3,3) jobs that touch every traced layer, so that no
    layer's self time is identically zero on any workload."""
    u33 = uniform(3, 3)
    return [
        certify(u33, 2, rng.randrange(10**6), floor=True),
        chow(u33, floor=True),
        charpoly(u33, closed_form=(3, 3), floor=True),
    ]


# -- workloads -----------------------------------------------------------------


def k5_with_intervals(rng, workdir):
    """M(K5) with relabelled edges, plus seeded sub-intervals:
    [empty, K4 on four vertices] (span 6, degree 2),
    [empty, triangle + disjoint edge] (span 4, degree 2) and
    [one edge, everything] (span 9, degree 2)."""
    edges = relabelled(complete_graph(5), rng)
    src = graphic("M(K5)", edges, workdir)
    missing = rng.randrange(5)
    k4 = mask_of(edges, lambda e: missing not in e)
    tri = set(rng.sample(range(5), 3))
    rest = sorted(set(range(5)) - tri)
    tri_edge = mask_of(edges, lambda e: set(e) <= tri or e == rest)
    one_edge = 1 << rng.randrange(len(edges))
    return src, k4, tri_edge, one_edge


def certify_mix(rng, workdir):
    def seed():
        return rng.randrange(10**6)

    k5, k4_flat, tri_edge, _ = k5_with_intervals(rng, workdir)
    k4 = graphic("M(K4)", relabelled(complete_graph(4), rng), workdir)
    return [
        certify(fano(), 3, seed()),
        certify(k4, 3, seed()),
        certify(uniform(3, 5), 3, seed()),
        certify(uniform(3, 6), 2, seed()),
        certify(uniform(4, 5), 2, seed()),
        certify(k5, 2, seed(), L=k4_flat, tag="[empty,K4]"),
        certify(k5, 2, seed(), L=tri_edge, tag="[empty,K3+K2]"),
        certify(uniform(5, 5), 2, seed(), top=True),
    ]


def chow_mix(rng, workdir):
    def point():
        return rng.choice(("alpha", "beta"))

    k5, k4_flat, _, one_edge = k5_with_intervals(rng, workdir)
    k4 = graphic("M(K4)", relabelled(complete_graph(4), rng), workdir)
    return [
        chow(fano(), all_intervals=True),
        chow(k4, all_intervals=True),
        chow(k5, all_intervals=True, max_degree=2),
        chow(uniform(4, 5), all_intervals=True, refusable=True),
        pol(fano(), point()),
        pol(k4, point()),
        pol(uniform(3, 6), point()),
        pol(uniform(4, 5), point()),
        pol(k5, point()),
        pol(k5, point(), L=k4_flat, tag="[empty,K4]"),
        pol(k5, point(), K=one_edge, tag="[edge,K5]"),
        chow(uniform(4, 4), top=True),
    ]


def random_simple_graph(rng, vertices, edges):
    return rng.sample(complete_graph(vertices), edges)


def lattice_mix(rng, workdir):
    graphs = [
        graphic(f"G{v}-{m}e-{i}", random_simple_graph(rng, v, m), workdir)
        for v, m, i in [(5, m, i) for m in (6, 7, 8, 9) for i in (1, 2)] + [(6, 6, 1), (6, 7, 1)]
    ]
    k5 = graphic("M(K5)", relabelled(complete_graph(5), rng), workdir)
    k33 = graphic(
        "M(K33)", relabelled([[a, b] for a in range(3) for b in range(3, 6)], rng), workdir
    )
    # Two K4 sharing a vertex: 225 flats.  A ~1 s top rung such as K3,3
    # was too short to time steadily on a noisy host.
    bowtie = complete_graph(4) + [[a + 3, b + 3] for a, b in complete_graph(4)]
    top = graphic("M(K4.K4)", relabelled(bowtie, rng), workdir)
    jobs = []
    for src in graphs + [k5, k33]:
        jobs += [charpoly(src), poset_check(src)]
    for r, n in ((5, 6), (6, 7)):
        jobs += [charpoly(uniform(r, n), closed_form=(r, n)), poset_check(uniform(r, n))]
    jobs.append(poset_check(top, top=True))
    return jobs


MIXES = {"certify-mix": certify_mix, "chow-mix": chow_mix, "lattice-mix": lattice_mix}
WORKLOADS = tuple(MIXES)


def build(workload, seed, workdir):
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = floor_jobs(rng) + MIXES[workload](rng, workdir)
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {workload}: {names}")
    return jobs
