"""Exact scalars for the operator engine: Q(sqrt2)[k, omega, nu, alpha].

Every coefficient that appears anywhere in the engine is a Coeff: a
polynomial in the four formal parameters k, omega, nu, alpha whose scalar
part is a + b*sqrt(2) with rational a, b.  This ring covers every constant
the generator families and the model Hamiltonians need, and it is small
enough that equality of values is literal equality of term maps.

Coeff values are immutable and canonical: zero terms are never stored, and
the term order is fixed (lexicographic in the exponent vector of
k, omega, nu, alpha).  Keeping k, omega, nu, alpha as true polynomial
indeterminates means that an identity verified on Coeff level holds for
every parameter value at once, not just for sampled ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

PARAMS = ("k", "omega", "nu", "alpha")

_ZEXP = (0, 0, 0, 0)
_F0 = Fraction(0)
_F1 = Fraction(1)

# a + b*sqrt(2) is stored as the pair (a, b) of Fractions ("QP" below).


class CoeffError(ArithmeticError):
    """Impossible exact-arithmetic request (bad inverse, inexact division)."""


def qp_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def qp_mul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def qp_neg(p):
    return (-p[0], -p[1])


def qp_inv(p):
    a, b = p
    n = a * a - 2 * b * b
    if n == 0:
        raise CoeffError("zero has no inverse in Q(sqrt2)")
    return (a / n, -b / n)


def qp_is_zero(p):
    return not (p[0] or p[1])


def qp_float(p):
    return float(p[0]) + float(p[1]) * 1.4142135623730951


class Coeff:
    """Element of Q(sqrt2)[k, omega, nu, alpha]."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, tuple] | None = None):
        clean = {}
        if terms:
            for exps, pair in terms.items():
                a = Fraction(pair[0])
                b = Fraction(pair[1])
                if a or b:
                    clean[tuple(exps)] = (a, b)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, a, b=0) -> "Coeff":
        """The constant a + b*sqrt(2)."""
        return cls({_ZEXP: (Fraction(a), Fraction(b))})

    @classmethod
    def zero(cls) -> "Coeff":
        return cls()

    @classmethod
    def one(cls) -> "Coeff":
        return cls.rational(1)

    @classmethod
    def sqrt2(cls) -> "Coeff":
        return cls.rational(0, 1)

    @classmethod
    def param(cls, name: str) -> "Coeff":
        i = PARAMS.index(name)
        exps = tuple(1 if j == i else 0 for j in range(4))
        return cls({exps: (_F1, _F0)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, pair in other.terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = pair
            else:
                s = qp_add(cur, pair)
                if qp_is_zero(s):
                    del out[exps]
                else:
                    out[exps] = s
        c = Coeff.__new__(Coeff)
        c.terms = out
        return c

    __radd__ = __add__

    def __neg__(self):
        c = Coeff.__new__(Coeff)
        c.terms = {e: qp_neg(p) for e, p in self.terms.items()}
        return c

    def __sub__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                prod = qp_mul(p1, p2)
                cur = out.get(e)
                s = prod if cur is None else qp_add(cur, prod)
                if qp_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        c = Coeff.__new__(Coeff)
        c.terms = out
        return c

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise CoeffError("negative powers are not polynomial")
        out = Coeff.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {_ZEXP}

    def constant_pair(self):
        """The (a, b) of a parameter-free value a + b*sqrt(2)."""
        if not self.terms:
            return (_F0, _F0)
        if set(self.terms) != {_ZEXP}:
            raise CoeffError("value still carries formal parameters: %s" % self)
        return self.terms[_ZEXP]

    def to_float(self) -> float:
        return qp_float(self.constant_pair())

    def sorted_terms(self):
        """Terms in the canonical (lexicographic) order."""
        return sorted(self.terms.items())

    # -- parameter binding and division -------------------------------------

    def substitute(self, bindings: Mapping[str, Union[int, Fraction]]) -> "Coeff":
        """Bind some of k, omega, nu, alpha to rationals; others stay formal."""
        for name in bindings:
            if name not in PARAMS:
                raise ValueError("unknown parameter %r" % name)
        if not bindings or not self.terms:
            return self
        values = [Fraction(bindings[p]) if p in bindings else None for p in PARAMS]
        out = Coeff.zero()
        for exps, (a, b) in self.terms.items():
            factor = _F1
            new = list(exps)
            for i, v in enumerate(values):
                if v is not None and exps[i]:
                    factor *= v ** exps[i]
                    new[i] = 0
            out = out + Coeff({tuple(new): (a * factor, b * factor)})
        return out

    def inverse(self) -> "Coeff":
        """Field inverse; defined for nonzero parameter-free values only."""
        return Coeff({_ZEXP: qp_inv(self.constant_pair())})

    def exact_div(self, other: "Coeff") -> "Coeff":
        """Exact polynomial division; raises CoeffError on a nonzero remainder."""
        other = as_coeff(other)
        if other.is_zero():
            raise CoeffError("division by zero")
        if other.is_constant():
            return self * other.inverse()
        quo = Coeff.zero()
        rem = self
        lead_e = max(other.terms)
        lead_p = other.terms[lead_e]
        lead_inv = qp_inv(lead_p)
        while rem.terms:
            e = max(rem.terms)
            diff = tuple(a - b for a, b in zip(e, lead_e))
            if any(d < 0 for d in diff):
                raise CoeffError("inexact division")
            q = Coeff({diff: qp_mul(rem.terms[e], lead_inv)})
            quo = quo + q
            rem = rem - q * other
        return quo

    # -- display -----------------------------------------------------------

    def __repr__(self):
        from .render import coeff_str

        return coeff_str(self)


def as_coeff(x) -> "Coeff":
    if isinstance(x, Coeff):
        return x
    if isinstance(x, (int, Fraction)):
        return Coeff.rational(x)
    return NotImplemented


ZERO = Coeff.zero()
ONE = Coeff.one()
SQRT2 = Coeff.sqrt2()
K = Coeff.param("k")
OMEGA = Coeff.param("omega")
NU = Coeff.param("nu")
ALPHA = Coeff.param("alpha")
