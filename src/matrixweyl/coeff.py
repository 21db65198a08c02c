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

The scalar a + b*sqrt(2) of a term is the pair (a, b), and each half is
stored in one canonical form: an int when it is integral, a Fraction
otherwise, and b is the int 0 when the value has no sqrt(2) part.  Both
types expose .numerator and .denominator, hash and compare alike on equal
values (hash(3) == hash(Fraction(3))) and print alike ('3'), so equality
stays literal term-map equality.  Most values the engine meets are
rational and many are integers, so qp_add and qp_mul skip the sqrt(2) half
when both b's are 0, and integer halves never pay for Fraction's gcd.

Every sum of pairs in the engine goes through _add_pair or _add_product,
which add into a raw term map {exps: pair} and drop a pair that cancels at
once; the caller wraps each finished map once with Coeff._raw.  That holds
for operator + and - too: a key of both operands gets one new Coeff.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

PARAMS = ("k", "omega", "nu", "alpha")

_ZEXP = (0, 0, 0, 0)

# a + b*sqrt(2) is stored as the pair (a, b) of canonical halves ("QP" below).


class CoeffError(ArithmeticError):
    """Impossible exact-arithmetic request (zero inverse, unbound parameter)."""


def _half(x):
    """A rational as a canonical half: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def qp_add(p, q):
    a, b = p
    c, d = q
    s = a + c
    if type(s) is not int and s.denominator == 1:
        s = s.numerator
    if b or d:
        return (s, _half(b + d))
    return (s, 0)


def qp_mul(p, q):
    a, b = p
    c, d = q
    if not (b or d):
        s = a * c
        if type(s) is not int and s.denominator == 1:
            s = s.numerator
        return (s, 0)
    return (_half(a * c + 2 * b * d), _half(a * d + b * c))


def qp_neg(p):
    return (-p[0], -p[1])


def qp_inv(p):
    a, b = p
    n = a * a - 2 * b * b
    if n == 0:
        raise CoeffError("zero has no inverse in Q(sqrt2)")
    return (_half(Fraction(a, n)), _half(Fraction(-b, n)))


def qp_is_zero(p):
    return not (p[0] or p[1])


def qp_float(p):
    return float(p[0]) + float(p[1]) * 1.4142135623730951


def _add_pair(acc, key, pair):
    """acc[key] += pair for a nonzero pair, dropping the key when the sum is 0."""
    cur = acc.get(key)
    if cur is not None:
        pair = qp_add(cur, pair)
        if not (pair[0] or pair[1]):
            del acc[key]
            return
    acc[key] = pair


def _add_product(acc, t1, t2, f=1):
    """acc += f * t1 * t2, for raw term maps {exps: pair} and a nonzero int f.

    A pair that cancels is dropped at once, so acc keeps its keys in the
    order a running sum of Coeff values would.
    """
    for e1, p1 in t1.items():
        if f != 1:
            p1 = qp_mul(p1, (f, 0))
        for e2, p2 in t2.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            p = qp_mul(p1, p2)
            cur = acc.get(e)
            if cur is not None:
                p = qp_add(cur, p)
                if not (p[0] or p[1]):
                    del acc[e]
                    continue
            acc[e] = p


class Coeff:
    """Element of Q(sqrt2)[k, omega, nu, alpha]."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, tuple] | None = None):
        clean = {}
        if terms:
            for exps, pair in terms.items():
                a = _half(pair[0])
                b = _half(pair[1])
                if a or b:
                    clean[tuple(exps)] = (a, b)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms) -> "Coeff":
        """A value holding terms as given: canonical pairs, none of them zero."""
        c = cls.__new__(cls)
        c.terms = terms
        return c

    @classmethod
    def rational(cls, a, b=0) -> "Coeff":
        """The constant a + b*sqrt(2)."""
        return cls({_ZEXP: (a, b)})

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
        return cls({exps: (1, 0)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = as_coeff(other)
        if other is NotImplemented:
            return NotImplemented
        # values are immutable, so a zero summand hands back the other one
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for exps, pair in other.terms.items():
            _add_pair(out, exps, pair)
        return Coeff._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Coeff._raw({e: qp_neg(p) for e, p in self.terms.items()})

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
        _add_product(out, self.terms, other.terms)
        return Coeff._raw(out)

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
            return (0, 0)
        if set(self.terms) != {_ZEXP}:
            raise CoeffError("value still carries formal parameters: %s" % self)
        return self.terms[_ZEXP]

    def sorted_terms(self):
        """Terms in the canonical (lexicographic) order."""
        return sorted(self.terms.items())

    # -- parameter binding ---------------------------------------------------

    def substitute(self, bindings: Mapping[str, Union[int, Fraction]]) -> "Coeff":
        """Bind some of k, omega, nu, alpha to rationals; others stay formal."""
        for name in bindings:
            if name not in PARAMS:
                raise ValueError("unknown parameter %r" % name)
        if not bindings or not self.terms:
            return self
        values = [_half(bindings[p]) if p in bindings else None for p in PARAMS]
        out = {}
        for exps, (a, b) in self.terms.items():
            factor = 1
            new = list(exps)
            for i, v in enumerate(values):
                if v is not None and exps[i]:
                    factor *= v ** exps[i]
                    new[i] = 0
            if factor:
                _add_pair(out, tuple(new), (_half(a * factor), _half(b * factor)))
        return Coeff._raw(out)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        from .render import coeff_str

        return coeff_str(self)


def as_coeff(x) -> "Coeff":
    if isinstance(x, Coeff):
        return x
    if isinstance(x, (int, Fraction)):
        a = _half(x)
        return Coeff._raw({_ZEXP: (a, 0)} if a else {})
    return NotImplemented


ZERO = Coeff.zero()
ONE = Coeff.one()
SQRT2 = Coeff.sqrt2()
K = Coeff.param("k")
OMEGA = Coeff.param("omega")
NU = Coeff.param("nu")
ALPHA = Coeff.param("alpha")
