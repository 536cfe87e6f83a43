"""Sparse homogeneous multivariate polynomials with exact rational coefficients.

Variables are arbitrary hashable keys held in a fixed ordered tuple; terms
map dense exponent tuples to nonzero Fractions.  No floating point enters
this module.

Two constructors share one contract.  The public `MultiPoly(variables,
terms, degree)` accepts any rational coefficients and nonnegative integer
exponents, normalises them, merges duplicate keys, drops zeros and raises
on any other exponent or a key of the wrong length or degree.
`MultiPoly._trusted` wraps data that already meets the contract without
looking at it: `vars` a tuple, `terms` a dict from exponent tuples of
length len(vars), each summing to `degree`, to nonzero Fractions, and
`_pos` the index of each variable, shared with the operands rather than
rebuilt.  Sums, negations, scalar and polynomial products, `partial`,
`dir_derivative` and `substitute_affine` build their results with it, and
so does the interval polynomials' Taylor-series lift; everything read
from outside goes through the public one.
"""

from fractions import Fraction
from operator import add

from . import subsets
from .errors import (
    DimensionMismatch,
    Inhomogeneous,
    InvalidParams,
    MissingCoordinate,
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
            key = tuple(int(e) for e in exps)
            if key != exps or any(e < 0 for e in key):
                raise InvalidParams(
                    f"exponents must be nonnegative integers, got {exps!r}"
                )
            exps = key
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

    @classmethod
    def _trusted(cls, variables, terms, degree, pos):
        """Wrap terms that already meet the module's contract, unchecked."""
        self = object.__new__(cls)
        self.vars = variables
        self.terms = terms
        self.degree = degree
        self._pos = pos
        return self

    def _like(self, terms, degree):
        return MultiPoly._trusted(self.vars, terms, degree, self._pos)

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
        _accumulate(out, other.terms.items())
        return self._like(out, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()}, self.degree)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            out = {}
            for e1, c1 in self.terms.items():
                _accumulate(
                    out,
                    ((tuple(map(add, e1, e2)), c1 * c2) for e2, c2 in other.terms.items()),
                )
            return self._like(out, self.degree + other.degree)
        c = Fraction(other)
        if not c:
            return self._like({}, self.degree)
        return self._like({e: c * v for e, v in self.terms.items()}, self.degree)

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


def _accumulate(out, items):
    """Add (key, nonzero coefficient) pairs into the dict `out`, dropping
    every key whose coefficient cancels to zero."""
    pop = out.pop
    for key, c in items:
        old = pop(key, None)
        if old is not None:
            c += old
            if not c:
                continue
        out[key] = c


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
        if e:
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = coeff * e
    return f._like(out, max(f.degree - 1, 0))


def dir_derivative(f, v):
    """Directional derivative sum_F v_F * d f / d t_F.

    v may be an interval vector or any mapping that covers f's variables.
    """
    weights = [_coordinate(v, var) for var in f.vars]
    out = {}
    for exps, coeff in f.terms.items():
        _accumulate(
            out,
            (
                (exps[:i] + (e - 1,) + exps[i + 1:], coeff * e * weights[i])
                for i, e in enumerate(exps)
                if e and weights[i]
            ),
        )
    return f._like(out, max(f.degree - 1, 0))


def hessian_of_quadratic(f):
    """Second partials of a quadratic, as a list of `Fraction` rows."""
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
    return rows


def substitute_affine(f, matrix, new_variables):
    """Compose f with a linear map: old variable i becomes the linear form
    with coefficients matrix[i] over the new variables.

    A row is either a sequence with one coefficient per new variable or a
    sparse mapping from column index to coefficient.
    """
    new_vars = tuple(new_variables)
    n = len(new_vars)
    if len(matrix) != len(f.vars):
        raise DimensionMismatch("matrix rows != old variable count")
    pos = {v: i for i, v in enumerate(new_vars)}
    one = MultiPoly._trusted(new_vars, {(0,) * n: Fraction(1)}, 0, pos)
    forms = [MultiPoly._trusted(new_vars, _form_terms(row, n), 1, pos) for row in matrix]
    powers = [[one] for _ in forms]
    out = {}
    for exps, coeff in f.terms.items():
        term = one * coeff
        for i, e in enumerate(exps):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * forms[i])
                term = term * powers[i][e]
        _accumulate(out, term.terms.items())
    return MultiPoly._trusted(new_vars, out, f.degree, pos)


def _form_terms(row, n):
    """Terms of the linear form given by a dense or {column: value} row."""
    if isinstance(row, dict):
        if any(not (isinstance(j, int) and 0 <= j < n) for j in row):
            raise DimensionMismatch("matrix column index outside the new variables")
        items = row.items()
    else:
        if len(row) != n:
            raise DimensionMismatch("matrix columns != new variable count")
        items = enumerate(row)
    coeffs = ((j, Fraction(c)) for j, c in items)
    return {tuple(int(k == j) for k in range(n)): c for j, c in coeffs if c}


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

