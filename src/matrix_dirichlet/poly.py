"""Exact multivariate polynomials over the rationals.

Used for the exact boundary checks on the scalar simplex: whether
Gamma(x_i, P) is divisible by P with an affine quotient.  Division is by a
single divisor in lexicographic order, which detects exact divisibility
(the remainder is zero iff the divisor divides the polynomial).
"""

from fractions import Fraction

from .errors import VariableMismatch


class MultiPoly:
    """Polynomial in named variables with Fraction coefficients.

    terms: dict mapping exponent tuples to nonzero Fractions.
    """

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(exps)] = c

    @classmethod
    def const(cls, c, variables):
        z = tuple(0 for _ in variables)
        return cls(variables, {z: Fraction(c)})

    @classmethod
    def var(cls, name, variables):
        variables = tuple(variables)
        i = variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    def _check(self, other):
        if self.variables != other.variables:
            raise VariableMismatch(
                "%r vs %r" % (self.variables, other.variables))

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.variables)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c2 = terms.get(e, Fraction(0)) + c
            if c2 == 0:
                terms.pop(e, None)
            else:
                terms[e] = c2
        return MultiPoly(self.variables, terms)

    def __neg__(self):
        return MultiPoly(self.variables,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(other, self.variables)
        return self + (-other)

    def __rmul__(self, scalar):
        return MultiPoly(self.variables,
                         {e: Fraction(scalar) * c
                          for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.__rmul__(other)
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = terms.get(e, Fraction(0)) + c1 * c2
                if c == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = c
        return MultiPoly(self.variables, terms)

    def diff(self, name):
        i = self.variables.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            terms[e2] = c * e[i]
        return MultiPoly(self.variables, terms)

    def _leading(self):
        e = max(self.terms)  # lexicographic on exponent tuples
        return e, self.terms[e]

    def divmod_by(self, divisor):
        """Division by a single polynomial: self = q * divisor + r.

        The remainder is zero exactly when divisor divides self.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = MultiPoly(self.variables)
        r = MultiPoly(self.variables)
        f = self
        de, dc = divisor._leading()
        while not f.is_zero():
            fe, fc = f._leading()
            if all(a >= b for a, b in zip(fe, de)):
                me = tuple(a - b for a, b in zip(fe, de))
                mono = MultiPoly(self.variables, {me: fc / dc})
                q = q + mono
                f = f - mono * divisor
            else:
                mono = MultiPoly(self.variables, {fe: fc})
                r = r + mono
                f = f - mono
        return q, r

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join("%s^%d" % (v, p) if p > 1 else v
                            for v, p in zip(self.variables, e) if p)
            bits.append(("%s*%s" % (c, mono)) if mono else str(c))
        return " + ".join(bits)


def poly_gamma_apply(gamma_polys, f, g):
    """Exact Gamma(f, g) = sum_ij g^ij d_i f d_j g for polynomial co-metrics.

    gamma_polys is a nested list indexed like the coordinates; all entries
    share one variable tuple with f and g.
    """
    variables = f.variables
    if g.variables != variables:
        raise VariableMismatch("%r vs %r" % (variables, g.variables))
    out = MultiPoly(variables)
    n = len(gamma_polys)
    dfs = [f.diff(variables[i]) for i in range(n)]
    dgs = [g.diff(variables[j]) for j in range(n)]
    for i in range(n):
        if dfs[i].is_zero():
            continue
        for j in range(n):
            gp = gamma_polys[i][j]
            if gp.variables != variables:
                raise VariableMismatch(
                    "%r vs %r" % (variables, gp.variables))
            if dgs[j].is_zero() or gp.is_zero():
                continue
            out = out + gp * dfs[i] * dgs[j]
    return out


def check_boundary_affine_exact(gamma_polys, P):
    """Exact boundary test: is Gamma(x_i, P) = L_i * P with affine L_i?

    Returns (quotients, is_affine_vector): one quotient per coordinate and a
    single flag that is True iff every remainder vanished and every quotient
    has degree <= 1.  (Gamma(x_i, log P) = Gamma(x_i, P)/P.)
    """
    variables = P.variables
    n = len(gamma_polys)
    quotients = []
    ok = True
    for i in range(n):
        xi = MultiPoly.var(variables[i], variables)
        gi = poly_gamma_apply(gamma_polys, xi, P)
        q, r = gi.divmod_by(P)
        quotients.append(q)
        if not r.is_zero() or q.degree() > 1:
            ok = False
    return quotients, ok
