"""Dense univariate polynomials over the rationals."""

from fractions import Fraction


class UniPoly:
    """Polynomial in t with exact rational coefficients, stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def coeffs_descending(self):
        return list(reversed(self.coeffs)) if self.coeffs else [Fraction(0)]

    def abs_coeffs_descending(self):
        return [abs(c) for c in self.coeffs_descending()]

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        return UniPoly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


def is_log_concave(seq):
    """a_k^2 >= a_{k-1} * a_{k+1} for all interior k, by exact comparison."""
    vals = [Fraction(v) for v in seq]
    return all(
        vals[k] * vals[k] >= vals[k - 1] * vals[k + 1]
        for k in range(1, len(vals) - 1)
    )
