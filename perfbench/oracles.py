"""Reference answers for the benchmark's jobs, computed without conepol.

Every expected value here comes from this file's own matroid models: a
rank function on bitmask subsets (union-find for graphs, min(|A|, r) for
uniform matroids, GF(2) rank for the Fano plane).  Nothing is imported from
the program under test, so a wrong answer cannot be confirmed by the code
that produced it.

The checks read one job's exit code, stdout and stderr and return None when
the job is correct, or a one-line reason when it is not.
"""

import json
from fractions import Fraction
from functools import cached_property
from math import comb, factorial


class RankModel:
    """A matroid on {0..n-1} given by its rank function on bitmasks."""

    def __init__(self, n, rank):
        self.n = n
        self.rank = rank
        self.full = (1 << n) - 1

    @classmethod
    def graphic(cls, edges):
        def rank(mask):
            parent = {}

            def find(x):
                while parent.setdefault(x, x) != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            joined = 0
            for i, (u, v) in enumerate(edges):
                if (mask >> i) & 1:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        joined += 1
            return joined

        return cls(len(edges), rank)

    @classmethod
    def uniform(cls, r, n):
        return cls(n, lambda mask: min(mask.bit_count(), r))

    @classmethod
    def fano(cls):
        """PG(2, 2): element i is the nonzero vector i + 1 of GF(2)^3, which
        is the labelling of the `--fano` matroid."""
        points = list(range(1, 8))

        def rank(mask):
            basis = []
            for i, p in enumerate(points):
                if (mask >> i) & 1:
                    for b in basis:
                        p = min(p, p ^ b)
                    if p:
                        basis.append(p)
            return len(basis)

        return cls(7, rank)

    @cached_property
    def flats(self):
        """Every closed set: adding any outside element raises the rank."""
        out = []
        for mask in range(self.full + 1):
            r = self.rank(mask)
            if all(
                self.rank(mask | (1 << e)) > r
                for e in range(self.n)
                if not (mask >> e) & 1
            ):
                out.append(mask)
        return out

    @cached_property
    def bases(self):
        r = self.rank(self.full)
        return sum(
            1
            for mask in range(self.full + 1)
            if mask.bit_count() == r and self.rank(mask) == r
        )

    def degree(self, K, L):
        return self.rank(L) - self.rank(K) - 1

    def interval_flats(self, K, L):
        """Flats F with K <= F <= L."""
        return [F for F in self.flats if F & K == K and F & ~L == 0]

    def charpoly(self, K=0, L=None):
        """Whitney expansion of chi of the minor (M|L)/K, leading first:
        sum over A in L minus K of (-1)^|A| t^(rho - r_K(A))."""
        L = self.full if L is None else L
        rK = self.rank(K)
        rho = self.rank(L) - rK
        coeffs = [0] * (rho + 1)
        free = L & ~K
        sub = free
        while True:
            coeffs[self.rank(sub | K) - rK] += -1 if sub.bit_count() % 2 else 1
            if sub == 0:
                break
            sub = (sub - 1) & free
        return coeffs


def uniform_charpoly(r, n):
    """chi of U(r, n) = sum_{k<r} (-1)^k C(n, k) (t^(r-k) - 1), leading first."""
    coeffs = [0] * (r + 1)
    for k in range(r):
        sign = -1 if k % 2 else 1
        coeffs[k] += sign * comb(n, k)
        coeffs[r] -= sign * comb(n, k)
    return coeffs


def divide_by_t_minus_1(coeffs):
    """Synthetic division by (t - 1); None when the remainder is nonzero."""
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out if acc + coeffs[-1] == 0 else None


def log_concave(seq):
    return all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))


def elements(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def parse_vector(obj):
    """Interval vector JSON as {mask: value}; omitted subsets are zero."""
    values = {}
    for key, text in obj["values"].items():
        mask = 0
        for part in key.split(","):
            mask |= 1 << int(part)
        values[mask] = Fraction(text)
    return values


def strictly_submodular(values, K, L):
    """v(S) + v(T) > v(S & T) + v(S | T) on every incomparable pair of
    strict intermediate sets, with both endpoints pinned at zero."""
    free = L & ~K
    inner = []
    sub = free
    while True:
        if sub not in (0, free):
            inner.append(K | sub)
        if sub == 0:
            break
        sub = (sub - 1) & free

    def v(S):
        return values.get(S, Fraction(0))

    for i, S in enumerate(inner):
        for T in inner[i + 1:]:
            if S & T not in (S, T) and v(S) + v(T) <= v(S & T) + v(S | T):
                return False
    return True


# -- checks on one job's output ------------------------------------------------


def _json(out):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _interval_matches(obj, K, L):
    got = obj.get("interval", {})
    return got.get("K") == elements(K) and got.get("L") == elements(L)


def check_charpoly(model, closed_form, rc, out, err):
    """chi from the uniform closed form when `closed_form` is (r, n),
    otherwise from the Whitney rank expansion."""
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    obj, bad = _json(out)
    if bad:
        return bad
    expected_chi = uniform_charpoly(*closed_form) if closed_form else model.charpoly()
    chibar = divide_by_t_minus_1(expected_chi)
    rank = len(expected_chi) - 1
    if obj["chi"] != [str(c) for c in expected_chi]:
        return f"chi {obj['chi']} != oracle {expected_chi}"
    if obj["chibar"] != [str(c) for c in chibar]:
        return f"chibar {obj['chibar']} != oracle {chibar}"
    if obj["abs_coeffs"] != [str(abs(c)) for c in chibar]:
        return "abs_coeffs differ from |chibar|"
    if obj["rank"] != rank or obj["bases"] != model.bases:
        return f"rank/bases {obj['rank']}/{obj['bases']} != {rank}/{model.bases}"
    if obj["log_concave"] is not True or not log_concave([abs(c) for c in chibar]):
        return "log-concavity verdict is not true"
    return None


def check_poset(model, rc, out, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    obj, bad = _json(out)
    if bad:
        return bad
    if obj["verdict"] is not True or not all(obj["checks"].values()):
        return f"checks not all true: {obj['checks']}"
    if len(obj["checks"]) != 5:
        return f"expected 5 predicates, got {sorted(obj['checks'])}"
    if obj["flats"] != len(model.flats):
        return f"flats {obj['flats']} != oracle {len(model.flats)}"
    return None


def check_certify(model, K, L, samples, seed, rc, out, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    obj, bad = _json(out)
    if bad:
        return bad
    d = model.degree(K, L)
    open_flats = len(model.interval_flats(K, L)) - 2
    if obj["verdict"] is not True:
        return "verdict is not true"
    if not _interval_matches(obj, K, L) or obj["degree"] != d or obj["seed"] != seed:
        return "interval, degree or seed differ from the request"
    if len(obj["samples"]) != samples:
        return f"{len(obj['samples'])} samples, {samples} requested"
    for idx, s in enumerate(obj["samples"]):
        if s["passed"] is not True or Fraction(s["contraction"]) <= 0:
            return f"sample {idx} not passed"
        if len(s["directions"]) != d:
            return f"sample {idx} has {len(s['directions'])} directions, degree {d}"
        if d >= 2 and (s["inertia"][0] != 1 or sum(s["inertia"]) != open_flats):
            return f"sample {idx} inertia {s['inertia']} on {open_flats} open flats"
        for v in s["directions"]:
            if not strictly_submodular(parse_vector(v), K, L):
                return f"sample {idx} direction is not strictly submodular"
    return None


def check_pol(model, K, L, point, rc, out, err):
    """d! pol(alpha) = 1 and d! pol(beta) = |chibar(0)| of the minor (M|L)/K."""
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    obj, bad = _json(out)
    if bad:
        return bad
    d = model.degree(K, L)
    if not _interval_matches(obj, K, L) or obj["degree"] != d:
        return "interval or degree differ from the request"
    if point == "alpha":
        want = Fraction(1, factorial(d))
    else:
        chibar = divide_by_t_minus_1(model.charpoly(K, L))
        want = Fraction(abs(chibar[-1]), factorial(d))
    if Fraction(obj["value"]) != want:
        return f"pol({point}) = {obj['value']}, oracle {want}"
    return None


def check_chow(model, max_degree, all_intervals, rc, out, err):
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    obj, bad = _json(out)
    if bad:
        return bad
    if obj["verdict"] is not True:
        return "verdict is not true"
    if all_intervals:
        flats = model.flats
        want = {
            (tuple(elements(K)), tuple(elements(L)))
            for K in flats
            for L in flats
            if K != L and K & L == K and model.degree(K, L) <= max_degree
        }
    else:
        want = {((), tuple(range(model.n)))}
    got = [(tuple(e["interval"]["K"]), tuple(e["interval"]["L"])) for e in obj["intervals"]]
    if not got or set(got) != want or len(got) != len(want):
        return f"{len(got)} intervals verified, oracle lists {len(want)}"
    for entry, (K, L) in zip(obj["intervals"], got):
        dims = entry["graded_dims"]
        d = model.degree(sum(1 << i for i in K), sum(1 << i for i in L))
        if entry["equal"] is not True or "witness" in entry:
            return f"vol != pol on {K}, {L}"
        if len(dims) != d + 1 or dims[0] != 1 or dims != dims[::-1]:
            return f"graded dims {dims} on {K}, {L} are not palindromic of degree {d}"
    return None


def check_chow_or_refused(model, max_degree, rc, out, err):
    """The size guard may refuse the job with exit 4 and a one-line
    SizeLimitExceeded, or, once the cap is raised, verify it in full."""
    if rc == 4:
        lines = err.strip().splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("SizeLimitExceeded: "):
            return f"refusal is not one SizeLimitExceeded line: {err!r}"
        return None
    return check_chow(model, max_degree, True, rc, out, err)
