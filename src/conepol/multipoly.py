"""Sparse homogeneous multivariate polynomials with exact rational coefficients.

Variables are arbitrary hashable keys held in a fixed ordered tuple.  A
term is keyed by the nondecreasing tuple of its variables' indices, one
entry per power, so x_i^2 x_j with i < j is (i, i, j) and every key's
length is the degree; terms map these keys to nonzero Fractions.  No
floating point enters this module.

Two constructors share one contract.  The public `MultiPoly(variables,
terms, degree)` accepts any rational coefficients, normalises them, merges
duplicate keys, drops zeros and raises on a key that is not a
nondecreasing tuple of nonnegative integers, names an index past the
variables, or has the wrong length for the degree.  `MultiPoly._trusted`
wraps data that already meets the contract without looking at it: `vars`
a tuple, `terms` a dict from nondecreasing tuples of indices in
range(len(vars)), each of length `degree`, to nonzero Fractions.  Sums,
negations, scalar and polynomial products,
`dir_derivative` and `substitute_affine` build their results with it, and
so does the interval polynomials' Taylor-series lift; everything read
from outside goes through the public one.  A partial derivative is the
directional derivative along a unit vector, so no separate one is kept.
`substitute_affine` takes dense rows, one coefficient per new variable;
no path of the package substitutes, since the interval recursion lifts by
a Taylor series and the alpha/beta profile is read off contractions.
"""

from fractions import Fraction
from itertools import groupby

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
    __slots__ = ("vars", "terms", "degree")

    def __init__(self, variables, terms, degree=None):
        vs = tuple(variables)
        cleaned = {}
        deg = degree
        for key, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            idx = tuple(int(i) for i in key)
            if idx != key or any(i < 0 for i in idx) or list(idx) != sorted(idx):
                raise InvalidParams(
                    f"a term key must be nondecreasing variable indices, got {key!r}"
                )
            if idx and idx[-1] >= len(vs):
                raise DimensionMismatch(f"variable index {idx[-1]} past {len(vs)} variables")
            if deg is None:
                deg = len(idx)
            elif len(idx) != deg:
                raise Inhomogeneous(
                    f"term of degree {len(idx)} in a degree-{deg} polynomial"
                )
            cleaned[idx] = cleaned.get(idx, Fraction(0)) + c
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        self.vars = vs
        self.terms = cleaned
        self.degree = deg if deg is not None else (degree if degree is not None else 0)

    @classmethod
    def _trusted(cls, variables, terms, degree):
        """Wrap terms that already meet the module's contract, unchecked."""
        self = object.__new__(cls)
        self.vars = variables
        self.terms = terms
        self.degree = degree
        return self

    def _like(self, terms, degree):
        return MultiPoly._trusted(self.vars, terms, degree)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables, degree=0):
        return cls(variables, {}, degree=degree)

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {(): Fraction(value)}, degree=0)

    @classmethod
    def variable(cls, variables, key):
        vs = tuple(variables)
        if key not in vs:
            raise UnknownVariable(f"{key!r} not among the variables")
        return cls(vs, {(vs.index(key),): Fraction(1)}, degree=1)

    # -- structure -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        if self.degree != 0 and self.terms:
            raise WrongDegree("polynomial is not constant")
        return self.terms.get((), Fraction(0))

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
                    ((tuple(sorted(e1 + e2)), c1 * c2) for e2, c2 in other.terms.items()),
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
        for key, coeff in self.terms.items():
            for i in key:
                coeff *= values[i]
            acc += coeff
        return acc

    def sorted_terms(self):
        """Terms in canonical order: keys ascending, which at one degree is
        the order of exponent vectors descending."""
        return sorted(self.terms.items(), key=lambda item: item[0])

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


def dir_derivative(f, v):
    """Directional derivative sum_F v_F * d f / d t_F.

    v may be an interval vector or any mapping that covers f's variables.
    """
    weights = [_coordinate(v, var) for var in f.vars]
    return f._like(_derivative_terms(f.terms, weights), max(f.degree - 1, 0))


def _derivative_terms(terms, weights):
    """sum_i weights[i] * d/dx_i of `terms`, over any exact coefficient
    type: a key drops its first copy of each index i with a nonzero
    weight, and i's multiplicity multiplies in only when i repeats."""
    out = {}
    for key, coeff in terms.items():
        items = []
        for p, i in enumerate(key):
            if weights[i] and (not p or key[p - 1] != i):  # first copy of i
                c = coeff * weights[i]
                if key[p + 1:p + 2] == (i,):  # i repeats
                    c *= key.count(i)
                items.append((key[:p] + key[p + 1:], c))
        _accumulate(out, items)
    return out


def hessian_of_quadratic(f):
    """Second partials of a quadratic, as a list of `Fraction` rows."""
    if f.degree != 2:
        raise WrongDegree(f"need a quadratic, got degree {f.degree}")
    return _hessian_rows(f.terms.items(), len(f.vars), Fraction(0))


def _hessian_rows(quadratic, n, zero):
    """The n x n Hessian of the quadratic given as ((i, j), c) terms:
    c x_i x_j adds c at (i, j) and at (j, i), so 2c on the diagonal."""
    rows = [[zero] * n for _ in range(n)]
    for (i, j), c in quadratic:
        rows[i][j] += c
        rows[j][i] += c
    return rows


def substitute_affine(f, matrix, new_variables):
    """Compose f with a linear map: old variable i becomes the linear form
    with coefficients matrix[i], one per new variable."""
    new_vars = tuple(new_variables)
    n = len(new_vars)
    if len(matrix) != len(f.vars):
        raise DimensionMismatch("matrix rows != old variable count")
    forms = [MultiPoly._trusted(new_vars, _form_terms(row, n), 1) for row in matrix]
    out = {}
    for key, coeff in f.terms.items():
        term = MultiPoly._trusted(new_vars, {(): coeff}, 0)
        for i in key:
            term = term * forms[i]
        _accumulate(out, term.terms.items())
    return MultiPoly._trusted(new_vars, out, f.degree)


def _form_terms(row, n):
    """Terms of the linear form given by a dense row."""
    if len(row) != n:
        raise DimensionMismatch("matrix columns != new variable count")
    coeffs = ((j, Fraction(row[j])) for j in range(n))
    return {(j,): c for j, c in coeffs if c}


def default_var_label(key):
    if isinstance(key, int):
        return "t_{" + subsets.format_elements(key) + "}"
    return str(key)


def to_text(f, var_label=None):
    """Canonical text form: terms in `sorted_terms` order."""
    label = var_label if var_label is not None else default_var_label
    if f.is_zero():
        return "0"
    pieces = []
    for key, coeff in f.sorted_terms():
        factors = []
        for i, run in groupby(key):
            e = len(list(run))
            factors.append(label(f.vars[i]) if e == 1 else f"{label(f.vars[i])}^{e}")
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

