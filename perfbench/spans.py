"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces each public entry point of a conepol layer with
a wrapper, in every namespace that holds it: the defining module, every
module that bound it with `from ... import`, and class attributes (so
`MultiPoly.__rmul__`, an alias of `__mul__`, is wrapped too).
`Tracer.uninstall()` puts every original back.

A span's self time is its duration minus the time of the spans it called,
so nested and recursive entry points (the interval polynomial recursion)
are not counted twice.  Counts and sizes are exact.
"""

import sys
import weakref
from collections import defaultdict
from time import perf_counter

MARK = "_perfbench_span"


def _conepol_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "conepol" or name.startswith("conepol."))
    ]


def _classes():
    seen = []
    for mod in _conepol_modules():
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__.startswith("conepol") and obj not in seen:
                seen.append(obj)
    return seen


def leftover_wrappers():
    """Names still bound to a wrapper; empty once everything is restored."""
    out = []
    for owner in _conepol_modules() + _classes():
        for attr, value in vars(owner).items():
            if hasattr(value, MARK):
                out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return out


def _order(m):
    return m.n if hasattr(m, "n") else len(m)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._children = []
        self._restore = []
        self._directions = set()
        self._memo_keys = weakref.WeakKeyDictionary()
        self._lattices = weakref.WeakSet()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, span=None, after=None):
        """Time `fn` as `span` (self time) and/or call `after(args, result)`."""
        self_s, children = self.self_s, self._children

        if span is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                children.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self_s[span] += dt - children.pop()
                    if children:
                        children[-1] += dt
                if after is not None:
                    after(args, result)
                return result

        setattr(wrapper, MARK, span or fn.__name__)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, original, span=None, after=None):
        """Rebind every conepol name that holds `original`."""
        wrapper = self._wrap(original, span, after)
        owners = _conepol_modules() + _classes()
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _count(self, name, n=1):
        self.counts[name] += n

    # -- hooks that record counts and sizes ------------------------------------

    def _on_matroid(self, args, _):
        self._count("matroid.bases", len(args[0].bases))

    def _on_lattice(self, _, lattice):
        if lattice not in self._lattices:
            self._lattices.add(lattice)
            self._count("matroid.flats", len(lattice))

    def _on_membership(self, args, _):
        v = args[0]
        self._count("cone.membership_calls")
        self._count("cone.coords_checked", v.coords.m)
        self._directions.add((v.coords.K, v.coords.L, tuple(v.values)))

    def _on_polynomial(self, args, result):
        owner, K, L = args[0], args[1], args[2]
        self._count("intervalpoly.memo_calls")
        seen = self._memo_keys.setdefault(owner, set())
        if (K, L) not in seen:
            seen.add((K, L))
            self._count("intervalpoly.memo_misses")
            self._count("intervalpoly.terms", len(result.terms))

    def _on_inertia(self, args, _):
        self._count("lorentz.inertia_calls")
        order = _order(args[0])
        if order > self.counts["lorentz.matrix_order_max"]:
            self.counts["lorentz.matrix_order_max"] = order

    def _on_ring(self, args, _):
        self._count("chow.rings_built")
        self._count("chow.monomials", sum(len(m) for m in args[0].monomials))

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        from conepol import chow, cli, cone, intervalpoly, lorentz, matroid, multipoly, poset

        count = self._count
        M, P = matroid.Matroid, multipoly.MultiPoly
        table = [
            (cli.load_matroid, "cli.load", None),
            (cli._emit, "cli.emit", None),
            (multipoly.to_text, "cli.emit", None),
            (M.__init__, "matroid.construct", self._on_matroid),
            (matroid.uniform_matroid, "matroid.construct", None),
            (matroid.graphic_matroid, "matroid.construct", None),
            (matroid.fano, "matroid.construct", None),
            (matroid.flats_lattice, "matroid.flats_lattice", self._on_lattice),
            (matroid.characteristic_polynomial, "matroid.charpoly", None),
            (matroid.reduced_characteristic_polynomial, "matroid.charpoly", None),
            (M.rank, None, lambda a, r: count("matroid.rank_calls")),
            (poset.mobius, "poset.mobius", None),
            *[
                (fn, "poset.predicates", lambda a, r: count("poset.predicate_calls"))
                for fn in (
                    poset.flats_axioms_hold,
                    poset.interval_flats_axioms_hold,
                    poset.is_one_balanced,
                    poset.is_balanced,
                    poset.is_semimodular_lattice,
                    poset.is_interval_connected,
                )
            ],
            *[
                (fn, "cone.membership", self._on_membership)
                for fn in (cone.is_strictly_submodular, cone.is_modular, cone.is_weakly_submodular)
            ],
            (lorentz.sample_direction_tuples, "cone.sample", None),
            (multipoly.substitute_affine, "multipoly.substitute", None),
            (P.__mul__, "multipoly.mul", None),
            (multipoly.dir_derivative, "multipoly.dir_derivative", None),
            (multipoly.hessian_of_quadratic, "multipoly.hessian", None),
            (P.__init__, None, lambda a, r: count("multipoly.polys_created")),
            (intervalpoly.IntervalPolynomials.polynomial, "intervalpoly.build", self._on_polynomial),
            (intervalpoly.full_contraction, "intervalpoly.contraction", None),
            (lorentz.certify_cone_lorentzian, "lorentz.certify", None),
            (lorentz.inertia, "lorentz.inertia", self._on_inertia),
            (chow.ChowRing.__init__, "chow.ring", self._on_ring),
            (chow.ChowRing.volume_polynomial, "chow.volume", None),
            (chow.vol_pol_mismatch_witness, "chow.compare",
             lambda a, r: count("chow.intervals_verified")),
        ]
        try:
            for original, span, after in table:
                self._patch(original, span, after)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Self times in seconds and exact counts, keyed by metric name."""
        out = {f"{name}_s": t for name, t in self.self_s.items()}
        out.update(self.counts)
        out["cone.directions"] = len(self._directions)
        return out
