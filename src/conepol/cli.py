"""Command-line interface.

Commands: charpoly, pol, certify, chow-verify, poset-check.  Rationals are
always serialized as p/q strings and subsets as sorted integer lists, so a
fixed config and seed produce byte-identical JSON.

Exit codes: 0 success/verified, 1 usage, 2 invalid input, 3 certification
or verification failed, 4 size guard.
"""

import argparse
import functools
import json
import sys

from . import chow, cone, intervalpoly, lorentz, matroid, poset, subsets
from .errors import ConepolError, InvalidParams, MalformedInput, SizeLimitExceeded
from .multipoly import to_text
from .unipoly import is_log_concave

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_FAILED = 3
EXIT_SIZE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_matroid_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matroid", metavar="FILE", help="matroid JSON file")
    group.add_argument("--uniform", nargs=2, type=int, metavar=("R", "N"))
    group.add_argument("--graphic", metavar="FILE", help="edge-list JSON file")
    group.add_argument("--fano", action="store_true")


def _add_common_args(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_interval_arg(p):
    p.add_argument("--interval", nargs=2, metavar=("K", "L"),
                   help="comma-separated element lists; 'empty' for the bottom")


class UsageError(Exception):
    """A request that would check nothing; reported as a usage error."""


def _load_json(path):
    """The JSON value in the file at `path`; a file that does not decode or
    parse, or holds too long an integer or too deep a nesting, is refused."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedInput(f"{path} is not readable JSON: {exc}") from None


def load_matroid(args):
    if args.fano:
        return matroid.fano()
    if args.uniform is not None:
        r, n = args.uniform
        return matroid.uniform_matroid(r, n)
    if args.graphic is not None:
        return matroid.graphic_matroid(edges_from_json(_load_json(args.graphic)))
    return matroid_from_json(_load_json(args.matroid))


def _require(ok, message):
    if not ok:
        raise MalformedInput(message)


def _json_int(payload, key):
    value = payload.get(key)
    _require(subsets.is_json_int(value), f"matroid {key!r} must be an integer")
    return value


def edges_from_json(payload):
    """Edge pairs from an {"edges": [...]} object or a bare list of pairs."""
    edges = payload.get("edges") if isinstance(payload, dict) else payload
    _require(
        isinstance(edges, list)
        and all(isinstance(e, list) and len(e) == 2 for e in edges),
        "edges must be a list of vertex pairs",
    )
    kinds = {type(v) for e in edges for v in e}
    _require(
        kinds <= {int} or kinds <= {str},
        "edge vertices must be all integers or all strings",
    )
    return [tuple(e) for e in edges]


def matroid_from_json(payload):
    _require(isinstance(payload, dict), "a matroid must be a JSON object")
    kind = payload.get("type")
    if kind == "uniform":
        return matroid.uniform_matroid(_json_int(payload, "r"), _json_int(payload, "n"))
    if kind == "graphic":
        return matroid.graphic_matroid(edges_from_json(payload))
    if kind == "fano":
        return matroid.fano()
    if kind is not None:
        raise InvalidParams(f"unknown matroid type {kind!r}")
    n = _json_int(payload, "n")
    labels = payload.get("labels")
    _require(
        labels is None
        or isinstance(labels, list) and all(isinstance(x, str) for x in labels),
        "matroid labels must be a list of strings",
    )
    ground = matroid.GroundSet(n, None if labels is None else tuple(labels))
    bases = payload.get("bases")
    _require(isinstance(bases, list), "matroid bases must be a list")
    return matroid.Matroid(
        ground, {subsets.from_json_elements(b, "a basis") for b in bases}
    )


def resolve_interval(args, lattice):
    """[K, L] from --interval, or the whole lattice; on a rank-0 matroid the
    whole lattice is the one flat E, and [E, E] is refused like any other."""
    if args.interval is None:
        K, L = lattice.bottom, lattice.top
    else:
        K = subsets.parse_elements(args.interval[0])
        L = subsets.parse_elements(args.interval[1])
        if K not in lattice or L not in lattice:
            raise InvalidParams("interval endpoints must be flats of the matroid")
    if not subsets.is_proper_subset(K, L):
        raise InvalidParams("interval needs K strictly below L")
    return K, L


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _poly_json(poly):
    return [str(c) for c in poly.coeffs_descending()]


def cmd_charpoly(args):
    M = load_matroid(args)
    chi = matroid.characteristic_polynomial(M)
    i = next(
        e for e in range(M.ground.n) if M.rank(1 << e) == 1
    )
    chibar = matroid.reduced_characteristic_polynomial(M, i)
    abs_coeffs = chibar.abs_coeffs_descending()
    concave = is_log_concave(abs_coeffs)
    _emit(
        args,
        [
            f"matroid: rank {M.rank_total}, {len(M.bases)} bases",
            f"chi(t)    = {chi}",
            f"chibar(t) = {chibar}",
            "abs coeffs (leading first): " + ", ".join(str(c) for c in abs_coeffs),
            f"log-concave: {str(concave).lower()}",
        ],
        {
            "rank": M.rank_total,
            "bases": len(M.bases),
            "chi": _poly_json(chi),
            "chibar": _poly_json(chibar),
            "abs_coeffs": [str(c) for c in abs_coeffs],
            "log_concave": concave,
        },
    )
    return EXIT_OK


def cmd_pol(args):
    M = load_matroid(args)
    lattice = matroid.flats_lattice(M)
    K, L = resolve_interval(args, lattice)
    f = intervalpoly.interval_polynomial(lattice, K, L)
    obj = {
        "interval": {"K": subsets.elements(K), "L": subsets.elements(L)},
        "degree": f.degree,
        "polynomial": to_text(f),
    }
    lines = [to_text(f)]
    if args.eval is not None:
        coords = cone.IntervalCoords(K, L)
        if args.eval == "alpha":
            point = cone.alpha_vector(coords)
        elif args.eval == "beta":
            point = cone.beta_vector(coords)
        else:
            point = cone.IntervalVector.from_json_obj(_load_json(args.eval), coords)
        value = f.evaluate(point)
        obj["value"] = str(value)
        lines.append(f"value: {value}")
    _emit(args, lines, obj)
    return EXIT_OK


def _load_direction_tuples(path, coords):
    payload = _load_json(path)
    tuples = payload.get("tuples") if isinstance(payload, dict) else payload
    _require(
        isinstance(tuples, list) and all(isinstance(t, list) for t in tuples),
        "direction tuples must be a list of lists of interval vectors",
    )
    return [
        tuple(cone.IntervalVector.from_json_obj(v, coords) for v in tup)
        for tup in tuples
    ]


def cmd_certify(args):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    M = load_matroid(args)
    lattice = matroid.flats_lattice(M)
    K, L = resolve_interval(args, lattice)
    directions = None
    if args.directions is not None:
        coords = cone.IntervalCoords(K, L)
        directions = _load_direction_tuples(args.directions, coords)
        if not directions:
            raise UsageError("--directions file holds no direction tuples")
    cert = lorentz.certify_cone_lorentzian(
        lattice, K, L, samples=args.samples, seed=args.seed, directions=directions
    )
    obj = cert.to_json_obj()
    lines = [
        "interval: [{{{}}}, {{{}}}], degree {}".format(
            subsets.format_elements(K), subsets.format_elements(L), cert.degree
        ),
        f"samples: {len(cert.samples)}",
        f"verdict: {str(cert.verdict).lower()}",
    ]
    if not cert.verdict:
        bad, sample = next(
            (i, s) for i, s in enumerate(cert.samples) if not s.passed
        )
        witness = f"contraction {sample.contraction}"
        if sample.hessian_inertia is not None:
            witness += ", inertia " + " ".join(map(str, sample.hessian_inertia))
        lines.append(f"first failing tuple: {bad} ({witness})")
    _emit(args, lines, obj)
    return EXIT_OK if cert.verdict else EXIT_FAILED


def cmd_chow_verify(args):
    if args.max_degree is not None and not args.all_intervals:
        raise UsageError("argument --max-degree: only allowed with --all-intervals")
    M = load_matroid(args)
    lattice = matroid.flats_lattice(M)
    if args.all_intervals:
        limit = chow.MAX_DEGREE if args.max_degree is None else args.max_degree
        pairs = [
            (K, L)
            for K, L in lattice.comparable_pairs()
            if lattice.interval_degree(K, L) <= limit
        ]
        if not pairs:
            raise UsageError(f"no interval has degree at most {limit}")
        for K, L in pairs:  # refuse before any ring is built
            chow.check_caps(lattice, K, L)
    else:
        pairs = [resolve_interval(args, lattice)]
    results = []
    lines = []
    all_ok = True
    for K, L in pairs:
        ring = chow.ChowRing(lattice, K, L)
        witness = chow.vol_pol_mismatch_witness(ring)
        ok = witness is None
        all_ok = all_ok and ok
        entry = {
            "interval": {"K": subsets.elements(K), "L": subsets.elements(L)},
            "graded_dims": ring.graded_dims,
            "equal": ok,
        }
        if witness is not None:
            entry["witness"] = witness
        results.append(entry)
        lines.append(
            "[{}] vol == pol on [{{{}}}, {{{}}}], graded dims {}".format(
                "ok" if ok else "FAIL",
                subsets.format_elements(K),
                subsets.format_elements(L),
                ring.graded_dims,
            )
        )
    lines.append(f"verdict: {str(all_ok).lower()}")
    _emit(args, lines, {"intervals": results, "verdict": all_ok})
    return EXIT_OK if all_ok else EXIT_FAILED


def cmd_poset_check(args):
    M = load_matroid(args)
    lattice = matroid.flats_lattice(M)
    checks = {
        "flats_axioms": poset.flats_axioms_hold(lattice, lattice.top),
        "one_balanced": poset.is_one_balanced(lattice),
        "balanced": poset.is_balanced(lattice),
        "semimodular": poset.is_semimodular_lattice(lattice),
        "interval_connected": poset.is_interval_connected(lattice),
    }
    ok = all(checks.values())
    lines = [f"{name}: {str(val).lower()}" for name, val in sorted(checks.items())]
    lines.append(f"verdict: {str(ok).lower()}")
    _emit(args, lines, {"checks": checks, "flats": len(lattice), "verdict": ok})
    return EXIT_OK if ok else EXIT_FAILED


@functools.cache
def build_parser():
    """The one parser of this process.  An argparse parser is a web of
    reference cycles, so one built per `main` call would linger as garbage
    until a full collection; parsing does not change it, so it is shared."""
    parser = _Parser(prog="conepol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="characteristic polynomials and log-concavity")
    _add_matroid_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("pol", help="interval polynomial, optionally evaluated")
    _add_matroid_args(p)
    _add_common_args(p)
    _add_interval_arg(p)
    p.add_argument("--eval", metavar="alpha|beta|FILE")
    p.set_defaults(func=cmd_pol)

    p = sub.add_parser("certify", help="sampled cone-Lorentzian certification")
    _add_matroid_args(p)
    _add_common_args(p)
    _add_interval_arg(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directions", metavar="FILE",
                   help="JSON file with explicit direction tuples")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("chow-verify", help="volume polynomial vs interval polynomial")
    _add_matroid_args(p)
    _add_common_args(p)
    group = p.add_mutually_exclusive_group()
    _add_interval_arg(group)
    group.add_argument("--all-intervals", action="store_true")
    p.add_argument("--max-degree", type=int)
    p.set_defaults(func=cmd_chow_verify)

    p = sub.add_parser("poset-check", help="lattice-of-flats predicates")
    _add_matroid_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_poset_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"conepol {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitExceeded as exc:
        print(f"SizeLimitExceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ConepolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
