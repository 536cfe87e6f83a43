#!/usr/bin/env python3
"""Benchmark of conepol's CLI: three job mixes, run in-process in a closed loop.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 36 --trace 0

One client, one thread, one workload per interpreter.  The seed generates
the job list (see jobs.py); one pass runs every job through
`conepol.cli.main(argv)` with stdout and stderr captured.  Passes repeat
until `--seconds` would be overrun by more than half a pass (there is
always one).

--trace 0 reports the end-to-end metrics: median pass time (`wall_s`),
median time of the workload's largest job (`top_rung_s`), median of
several fresh-interpreter set-ups (`setup_s`), peak resident memory and
the share of jobs that passed every oracle (`ok_frac`).

--trace 1 runs one untraced pass, then traced passes (spans.py), and
reports per-layer self times and exact counts, the tracing overhead and a
per-job table.  Stdout of every job must be byte-identical traced and
untraced, and every wrapper must be gone afterwards.

Every run also times a fixed pure-Python loop (`host.ref_loop_s`), which
shows how fast the host was; nothing gates on it.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when a result was printed, 2 when conepol
cannot be imported from this checkout's `src/`.

Two further modes, for maintainers: `--self-test` runs each workload's
three floor jobs traced and untraced and checks them; `--record-digests`
rewrites digests.json from the default seed's outputs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

import jobs
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9

PER_LAYER = {
    "cli.load_s": "s", "cli.emit_s": "s", "cli.output_bytes": "bytes", "cli.refused": "count",
    "matroid.construct_s": "s", "matroid.flats_lattice_s": "s", "matroid.charpoly_s": "s",
    "matroid.rank_calls": "count", "matroid.bases": "count", "matroid.flats": "count",
    "poset.mobius_s": "s", "poset.predicates_s": "s", "poset.predicate_calls": "count",
    "cone.membership_s": "s", "cone.membership_calls": "count", "cone.directions": "count",
    "cone.coords_checked": "count", "cone.sample_s": "s",
    "multipoly.substitute_s": "s", "multipoly.mul_s": "s", "multipoly.dir_derivative_s": "s",
    "multipoly.hessian_s": "s", "multipoly.polys_created": "count",
    "intervalpoly.build_s": "s", "intervalpoly.contraction_s": "s",
    "intervalpoly.memo_calls": "count", "intervalpoly.memo_misses": "count",
    "intervalpoly.terms": "count",
    "lorentz.certify_s": "s", "lorentz.inertia_s": "s", "lorentz.inertia_calls": "count",
    "lorentz.matrix_order_max": "rows",
    "chow.ring_s": "s", "chow.rings_built": "count", "chow.intervals_verified": "count",
    "chow.monomials": "count", "chow.volume_s": "s", "chow.compare_s": "s",
    "trace.overhead_s": "s", "host.ref_loop_s": "s",
}


def import_cli():
    """conepol.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import conepol.cli

    if Path(conepol.__file__).resolve().parent != SRC / "conepol":
        raise ImportError(f"conepol was found at {conepol.__file__}, not under {SRC}")
    return conepol.cli


@contextlib.contextmanager
def workdir(tag):
    """A fresh directory for generated inputs, removed afterwards."""
    path = HERE / ".work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def host_ref_loop():
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return perf_counter() - t0


# -- running jobs ----------------------------------------------------------------


class Outcome(NamedTuple):
    rc: Optional[int]
    out: str
    err: str
    seconds: float


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue(), perf_counter() - t0)


def run_pass(cli, job_list):
    t0 = perf_counter()
    outcomes = [run_job(cli, job) for job in job_list]
    return perf_counter() - t0, outcomes


def run_passes(cli, job_list, seconds, before_pass=None, after_pass=None):
    """Passes until `seconds` would be overrun by more than half the
    longest pass so far; always at least one."""
    walls, passes, host = [], [], []
    start = perf_counter()
    while True:
        host.append(host_ref_loop())
        if before_pass:
            before_pass()
        wall, outcomes = run_pass(cli, job_list)
        if after_pass:
            after_pass()
        walls.append(wall)
        passes.append(outcomes)
        if perf_counter() - start + max(walls) / 2 > seconds:
            return walls, passes, host


# -- correctness -----------------------------------------------------------------


def load_digests(workload):
    return json.loads(DIGESTS.read_text()).get(workload, {})


def failures(job_list, passes, digests):
    """Per-pass list of (job name, reason) for every failed job.

    The first pass is checked against the oracles and, for the default
    seed, against the recorded stdout digests; later passes must repeat
    the first pass byte for byte.
    """
    first = passes[0]
    reasons = []
    for job, o in zip(job_list, first):
        try:
            why = job.check(o.rc, o.out, o.err)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            why = f"malformed output: {type(exc).__name__}: {exc}"
        if why is None and digests is not None and job.digest:
            got = hashlib.sha256(o.out.encode()).hexdigest()
            if digests.get(job.name) != got:
                why = f"stdout digest {got[:12]} differs from the recorded one"
        reasons.append(why)
    out = []
    for outcomes in passes:
        bad = []
        for job, o, f, why in zip(job_list, outcomes, first, reasons):
            if why is not None:
                bad.append((job.name, why))
            elif (o.rc, o.out, o.err) != (f.rc, f.out, f.err):
                bad.append((job.name, "output differs from the first pass"))
        out.append(bad)
    return out


# -- set-up ----------------------------------------------------------------------


def setup_once(workload, seed):
    """Input generation; with the interpreter start and the import of
    conepol before it, this is what a user pays before the first job."""
    with workdir(f"probe-{workload}") as wd:
        jobs.build(workload, seed, wd)


def setup_seconds(workload, seed):
    """Median wall time of fresh interpreters doing `setup_once`.

    No timeout: `Popen.wait` with one polls on a sleep schedule, which
    would round every time up to the next poll.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- modes -----------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, args, job_list, digests):
    setup_s = setup_seconds(args.workload, args.seed)
    walls, passes, host = run_passes(cli, job_list, args.seconds)
    bad = failures(job_list, passes, digests)
    top = job_list.index(next(j for j in job_list if j.top))
    attempted = len(job_list) * len(passes)
    failed = sum(len(b) for b in bad)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "top_rung_s": metric(statistics.median(p[top].seconds for p in passes), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "fraction"),
    }
    detail = {"passes": len(passes), "pass_walls_s": walls, "host.ref_loop_s": host}
    return metrics, attempted, bad, detail


def traced(cli, args, job_list, digests):
    base_wall, base = run_pass(cli, job_list)
    tracers = []

    def install():
        tracers.append(spans.Tracer())
        tracers[-1].install()

    walls, passes, host = run_passes(
        cli, job_list, args.seconds, before_pass=install, after_pass=lambda: tracers[-1].uninstall()
    )
    leftover = spans.leftover_wrappers()
    bad = failures(job_list, [base] + passes, digests)
    per_pass = [t.metrics() for t in tracers]
    counts = {k: per_pass[0].get(k, 0) for k in PER_LAYER if not k.endswith("_s")}
    counts["cli.output_bytes"] = sum(len(o.out.encode()) for o in base)
    counts["cli.refused"] = sum(1 for o in base if o.rc == 4)
    problems = [f"wrapper left installed: {name}" for name in leftover]
    for i, m in enumerate(per_pass[1:], 2):
        diff = [k for k in counts if k in m and m[k] != counts[k]]
        if diff:
            problems.append(f"traced pass {i} counts differ from pass 1: {diff}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in counts:
            value = counts[name]
        elif name == "trace.overhead_s":
            value = statistics.median(walls) - base_wall
        elif name == "host.ref_loop_s":
            value = statistics.median(host)
        else:
            value = statistics.median(m.get(name, 0.0) for m in per_pass)
        metrics[name] = metric(value, unit)
    print_job_table(job_list, base, passes[0])
    detail = {"untraced_wall_s": base_wall, "traced_walls_s": walls, "problems": problems}
    return metrics, len(job_list) * (1 + len(passes)), bad, detail


def print_job_table(job_list, untraced, traced_outcomes):
    print(f"{'job':44} {'command':12} {'matroid':10} {'span':>4} {'deg':>3} "
          f"{'untraced_s':>10} {'traced_s':>9} {'exit':>4}")
    for job, o, t in zip(job_list, untraced, traced_outcomes):
        print(f"{job.name:44} {job.argv[0]:12} {job.matroid:10} {job.span:4d} {job.degree:3d} "
              f"{o.seconds:10.4f} {t.seconds:9.4f} {str(o.rc):>4}")


def self_test(cli):
    """Each workload's floor jobs: oracles pass, digests match, traced and
    untraced stdout are byte-identical, and no wrapper is left behind."""
    ok = True
    for workload in jobs.WORKLOADS:
        with workdir(f"selftest-{workload}") as wd:
            floor = [j for j in jobs.build(workload, DEFAULT_SEED, wd) if j.floor]
            _, plain = run_pass(cli, floor)
            tracer = spans.Tracer()
            tracer.install()
            try:
                _, traced_outcomes = run_pass(cli, floor)
            finally:
                tracer.uninstall()
        bad = failures(floor, [plain, traced_outcomes], load_digests(workload))
        leftover = spans.leftover_wrappers()
        for name, why in sorted(set(sum(bad, []))) + [(n, "wrapper left installed") for n in leftover]:
            ok = False
            print(f"FAIL {workload}: {name}: {why}")
        print(f"{workload}: {len(floor)} floor jobs, {'ok' if not bad[0] and not bad[1] else 'FAILED'}")
    return 0 if ok else 1


def record_digests(cli):
    table = {}
    for workload in jobs.WORKLOADS:
        with workdir(f"digests-{workload}") as wd:
            job_list = jobs.build(workload, DEFAULT_SEED, wd)
            _, outcomes = run_pass(cli, job_list)
        bad = failures(job_list, [outcomes], None)[0]
        if bad:
            print(f"not recording {workload}: {bad}", file=sys.stderr)
            return 1
        table[workload] = {
            job.name: hashlib.sha256(o.out.encode()).hexdigest()
            for job, o in zip(job_list, outcomes)
            if job.digest
        }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import conepol: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(cli)
    if args.record_digests:
        return record_digests(cli)
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup_once(args.workload, args.seed)
        return 0
    digests = load_digests(args.workload) if args.seed == DEFAULT_SEED else None
    with workdir(args.workload) as wd:
        job_list = jobs.build(args.workload, args.seed, wd)
        mode = traced if args.trace else end_to_end
        metrics, attempted, bad, detail = mode(cli, args, job_list, digests)
    failed = sum(len(b) for b in bad)
    for name, why in sorted(set(sum(bad, []))):
        print(f"FAILED {name}: {why}")
    problems = detail.get("problems", [])
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
