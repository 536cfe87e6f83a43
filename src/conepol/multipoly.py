"""Sparse homogeneous multivariate polynomials with exact rational coefficients.

Variables are arbitrary hashable keys held in a fixed ordered tuple; terms
map dense exponent tuples to nonzero Fractions.  No floating point enters
this module.
"""

from fractions import Fraction

from . import subsets
from .errors import (
    DimensionMismatch,
    Inhomogeneous,
    MissingCoordinate,
    NotSymmetric,
    UnknownVariable,
    WrongDegree,
)


class MultiPoly:
    __slots__ = ("vars", "terms", "degree", "_pos")

    def __init__(self, variables, terms, degree=None):
        vs = tuple(variables)
        cleaned = {}
        deg = degree
        for exps, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vs):
                raise DimensionMismatch("exponent tuple length != variable count")
            total = sum(exps)
            if deg is None:
                deg = total
            elif total != deg:
                raise Inhomogeneous(
                    f"term of degree {total} in a degree-{deg} polynomial"
                )
            cleaned[exps] = cleaned.get(exps, Fraction(0)) + c
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        self.vars = vs
        self.terms = cleaned
        self.degree = deg if deg is not None else (degree if degree is not None else 0)
        self._pos = {v: i for i, v in enumerate(vs)}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables, degree=0):
        return cls(variables, {}, degree=degree)

    @classmethod
    def constant(cls, variables, value):
        vs = tuple(variables)
        return cls(vs, {tuple([0] * len(vs)): Fraction(value)}, degree=0)

    @classmethod
    def variable(cls, variables, key):
        vs = tuple(variables)
        if key not in vs:
            raise UnknownVariable(f"{key!r} not among the variables")
        exps = tuple(1 if v == key else 0 for v in vs)
        return cls(vs, {exps: Fraction(1)}, degree=1)

    # -- structure -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        if self.degree != 0 and self.terms:
            raise WrongDegree("polynomial is not constant")
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def _check_compatible(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch("polynomials live on different variable tuples")

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise Inhomogeneous("sum of different homogeneous degrees")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, out, degree=self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(
            self.vars, {e: -c for e, c in self.terms.items()}, degree=self.degree
        )

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return MultiPoly(self.vars, out, degree=self.degree + other.degree)
        c = Fraction(other)
        return MultiPoly(
            self.vars, {e: c * v for e, v in self.terms.items()}, degree=self.degree
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def evaluate(self, point):
        acc = Fraction(0)
        values = [_coordinate(point, v) for v in self.vars]
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val ** e
            acc += term
        return acc

    def sorted_terms(self):
        """Terms in canonical order: exponent tuples descending."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def __repr__(self):
        return f"MultiPoly({to_text(self)})"


def _coordinate(point, key):
    try:
        return Fraction(point[key])
    except KeyError:
        raise MissingCoordinate(f"no value supplied for variable {key!r}") from None


def partial(f, var):
    """Exact partial derivative; degree drops by one."""
    if var not in f._pos:
        raise UnknownVariable(f"{var!r} not among the variables")
    i = f._pos[var]
    out = {}
    for exps, coeff in f.terms.items():
        e = exps[i]
        if e == 0:
            continue
        new = list(exps)
        new[i] = e - 1
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + coeff * e
    return MultiPoly(f.vars, out, degree=max(f.degree - 1, 0))


def dir_derivative(f, v):
    """Directional derivative sum_F v_F * d f / d t_F.

    v may be an interval vector or any mapping that covers f's variables.
    """
    weights = [_coordinate(v, var) for var in f.vars]
    out = {}
    for exps, coeff in f.terms.items():
        for i, e in enumerate(exps):
            if e and weights[i]:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                out[key] = out.get(key, 0) + coeff * e * weights[i]
    return MultiPoly(f.vars, out, degree=max(f.degree - 1, 0))


def hessian_of_quadratic(f):
    """Constant symmetric matrix of second partials of a quadratic."""
    if f.degree != 2:
        raise WrongDegree(f"need a quadratic, got degree {f.degree}")
    n = len(f.vars)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in f.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = 2 * coeff
        else:
            i, j = support
            rows[i][j] = coeff
            rows[j][i] = coeff
    return SymMatrix(rows, labels=f.vars)


def hessian_at(f, point):
    """Symmetric matrix of second partials evaluated at a point."""
    n = len(f.vars)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, vi in enumerate(f.vars):
        fi = partial(f, vi)
        for j in range(i, n):
            val = partial(fi, f.vars[j]).evaluate(point)
            rows[i][j] = val
            rows[j][i] = val
    return SymMatrix(rows, labels=f.vars)


def gradient_at(f, point):
    return [partial(f, v).evaluate(point) for v in f.vars]


def substitute_affine(f, matrix, new_variables):
    """Compose f with a linear map: old variable i becomes the linear form
    with coefficients matrix[i] over the new variables."""
    new_vars = tuple(new_variables)
    if len(matrix) != len(f.vars):
        raise DimensionMismatch("matrix rows != old variable count")
    for row in matrix:
        if len(row) != len(new_vars):
            raise DimensionMismatch("matrix columns != new variable count")
    forms = [
        MultiPoly(
            new_vars,
            {
                tuple(1 if k == j else 0 for k in range(len(new_vars))): Fraction(c)
                for j, c in enumerate(row)
                if c != 0
            },
            degree=1,
        )
        for row in matrix
    ]
    power_cache = [{} for _ in forms]

    def form_power(i, e):
        cache = power_cache[i]
        if e not in cache:
            if e == 0:
                cache[e] = MultiPoly.constant(new_vars, 1)
            else:
                cache[e] = form_power(i, e - 1) * forms[i]
        return cache[e]

    out = MultiPoly.zero(new_vars, degree=f.degree)
    for exps, coeff in f.terms.items():
        term = MultiPoly.constant(new_vars, coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * form_power(i, e)
        if term.degree != f.degree:
            # a factor collapsed to zero
            if term.is_zero():
                continue
            raise Inhomogeneous("affine substitution broke homogeneity")
        out = out + term
    return out


def restrict_to_directions(f, directions, new_variables=None):
    """f(y_1 v_1 + ... + y_m v_m) as an exact polynomial in y_1..y_m."""
    m = len(directions)
    new_vars = tuple(new_variables) if new_variables is not None else tuple(range(m))
    if len(new_vars) != m:
        raise DimensionMismatch("one new variable per direction")
    matrix = [[_coordinate(v, var) for v in directions] for var in f.vars]
    return substitute_affine(f, matrix, new_vars)


def default_var_label(key):
    if isinstance(key, int):
        return "t_{" + subsets.format_elements(key) + "}"
    return str(key)


def to_text(f, var_label=None):
    """Canonical text form: terms in descending exponent order."""
    label = var_label if var_label is not None else default_var_label
    if f.is_zero():
        return "0"
    pieces = []
    for exps, coeff in f.sorted_terms():
        factors = []
        for var, e in zip(f.vars, exps):
            if e == 1:
                factors.append(label(var))
            elif e > 1:
                factors.append(f"{label(var)}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = " * ".join(factors)
        else:
            body = " * ".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


class SymMatrix:
    """Exact rational symmetric matrix."""

    __slots__ = ("rows", "labels")

    def __init__(self, rows, labels=None):
        mat = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(mat)
        for row in mat:
            if len(row) != n:
                raise NotSymmetric("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
        self.rows = mat
        self.labels = tuple(labels) if labels is not None else None

    @property
    def n(self):
        return len(self.rows)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def to_lists(self):
        return [list(row) for row in self.rows]

    def __repr__(self):
        return f"SymMatrix({self.to_lists()})"
