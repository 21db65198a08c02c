"""The integer-aware Q(sqrt2) kernel against the all-Fraction one it replaced.

`_FracCoeff` below is the earlier `Coeff` arithmetic, kept verbatim in
substance: every half of every pair is a `Fraction` and every product is the
full (ac + 2bd, ad + bc).  The engine's `Coeff` stores integral halves as
`int` and skips the sqrt2 half of rational operands; these property tests
check that it computes the same term maps, hashes alike, and keeps its
canonical form (a half is an `int` exactly when it is integral, and b is the
int 0 when there is no sqrt2 part).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from matrixweyl import Coeff, CoeffError
from matrixweyl.coeff import PARAMS, as_coeff, qp_add, qp_inv, qp_mul

_ZEXP = (0, 0, 0, 0)


# -- the all-Fraction oracle ----------------------------------------------------


def _f_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _f_mul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _f_inv(p):
    a, b = p
    n = a * a - 2 * b * b
    if n == 0:
        raise CoeffError("zero has no inverse in Q(sqrt2)")
    return (a / n, -b / n)


class _FracCoeff:
    """Element of Q(sqrt2)[k, omega, nu, alpha] with Fraction halves only."""

    def __init__(self, terms=None):
        self.terms = {}
        for exps, pair in (terms or {}).items():
            a, b = Fraction(pair[0]), Fraction(pair[1])
            if a or b:
                self.terms[tuple(exps)] = (a, b)

    @staticmethod
    def of(x):
        if isinstance(x, _FracCoeff):
            return x
        if isinstance(x, Coeff):
            return _FracCoeff(x.terms)
        return _FracCoeff({_ZEXP: (x, 0)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, p in _FracCoeff.of(other).terms.items():
            s = _f_add(out[e], p) if e in out else p
            if s[0] or s[1]:
                out[e] = s
            else:
                out.pop(e, None)
        return _FracCoeff(out)

    __radd__ = __add__

    def __neg__(self):
        return _FracCoeff({e: (-a, -b) for e, (a, b) in self.terms.items()})

    def __sub__(self, other):
        return self + (-_FracCoeff.of(other))

    def __rsub__(self, other):
        return _FracCoeff.of(other) + (-self)

    def __mul__(self, other):
        out = {}
        for e1, p1 in self.terms.items():
            for e2, p2 in _FracCoeff.of(other).terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prod = _f_mul(p1, p2)
                s = prod if e not in out else _f_add(out[e], prod)
                if s[0] or s[1]:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _FracCoeff(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _FracCoeff({_ZEXP: (1, 0)})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == _FracCoeff.of(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def constant_pair(self):
        if not self.terms:
            return (Fraction(0), Fraction(0))
        if set(self.terms) != {_ZEXP}:
            raise CoeffError("value still carries formal parameters")
        return self.terms[_ZEXP]

    def substitute(self, bindings):
        values = [Fraction(bindings[p]) if p in bindings else None for p in PARAMS]
        out = _FracCoeff()
        for exps, (a, b) in self.terms.items():
            factor = Fraction(1)
            new = list(exps)
            for i, v in enumerate(values):
                if v is not None and exps[i]:
                    factor *= v ** exps[i]
                    new[i] = 0
            out = out + _FracCoeff({tuple(new): (a * factor, b * factor)})
        return out


# -- strategies -----------------------------------------------------------------

_BIG = 2**200
_MID = 2**100

halves = st.one_of(
    st.integers(-3, 3),
    st.integers(-_BIG, _BIG),
    st.fractions(max_denominator=12),
    st.builds(
        Fraction,
        st.integers(-_MID, _MID),
        st.integers(1, _MID),
    ),
)
# b is 0 for most of the engine's values, so it is drawn 0 half the time
sqrt2_halves = st.one_of(st.just(0), halves)
exponents = st.tuples(*[st.integers(0, 2)] * 4)
pairs = st.tuples(halves, sqrt2_halves)
raw_terms = st.dictionaries(
    st.one_of(st.just(_ZEXP), exponents), pairs, max_size=3
)
constant_terms = st.builds(lambda p: {_ZEXP: p}, pairs)
scalars = st.one_of(st.integers(-5, 5), st.booleans(), st.fractions(max_denominator=9))


def _canonical_half(x):
    if x.denominator == 1:
        return type(x) is int
    return type(x) is Fraction


def assert_canonical(c):
    for exps, pair in c.terms.items():
        assert type(pair) is tuple and len(pair) == 2
        a, b = pair
        assert a or b, "zero term stored at %r" % (exps,)
        assert _canonical_half(a), pair
        assert _canonical_half(b), pair


def assert_same(new, old):
    assert isinstance(new, Coeff)
    assert_canonical(new)
    assert new.terms == old.terms
    assert hash(new) == hash(old)


def both(terms):
    return Coeff(terms), _FracCoeff(terms)


# -- properties ---------------------------------------------------------------

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@_SETTINGS
@given(raw_terms, raw_terms)
def test_ring_operations_match_the_fraction_kernel(t1, t2):
    x, fx = both(t1)
    y, fy = both(t2)
    assert_same(x, fx)
    assert_same(x + y, fx + fy)
    assert_same(x - y, fx - fy)
    assert_same(x * y, fx * fy)
    assert_same(-x, -fx)
    assert_same(x - x, _FracCoeff())


@_SETTINGS
@given(raw_terms, st.integers(0, 3))
def test_powers_match(t, n):
    x, fx = both(t)
    assert_same(x**n, fx**n)


@_SETTINGS
@given(raw_terms, raw_terms)
def test_equality_and_hash_agree(t1, t2):
    x, fx = both(t1)
    y, fy = both(t2)
    assert (x == y) == (fx == fy)
    # the same value built another way: as a sum of its terms
    rebuilt = sum((Coeff({e: p}) for e, p in t1.items()), Coeff.zero())
    assert rebuilt == x and hash(rebuilt) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@_SETTINGS
@given(constant_terms)
def test_constant_pair_matches(t):
    x, fx = both(t)
    pair = x.constant_pair()
    assert pair == fx.constant_pair()
    assert all(_canonical_half(h) for h in pair)
    if x.is_zero():
        assert pair == (0, 0) and type(pair[0]) is int and type(pair[1]) is int


@_SETTINGS
@given(
    raw_terms,
    st.dictionaries(
        st.sampled_from(PARAMS),
        st.one_of(st.integers(-7, 7), st.fractions(max_denominator=10), halves),
    ),
)
def test_substitute_matches(t, bindings):
    x, fx = both(t)
    assert_same(x.substitute(bindings), fx.substitute(bindings))


@_SETTINGS
@given(raw_terms, scalars)
def test_mixed_operands_match(t, s):
    x, fx = both(t)
    assert_same(x + s, fx + s)
    assert_same(s + x, s + fx)
    assert_same(x - s, fx - s)
    assert_same(s - x, s - fx)
    assert_same(x * s, fx * s)
    assert_same(s * x, s * fx)
    assert (x == s) == (fx == s)
    c = as_coeff(s)
    assert_same(c, _FracCoeff.of(s))
    assert_same(x * c, fx * s)
    assert_same(c * x, s * fx)


@_SETTINGS
@given(pairs, pairs)
def test_pair_kernel_matches(p, q):
    fp = tuple(map(Fraction, p))
    fq = tuple(map(Fraction, q))
    for got, want in ((qp_add(p, q), _f_add(fp, fq)), (qp_mul(p, q), _f_mul(fp, fq))):
        assert got == want
        assert all(_canonical_half(h) for h in got)
        if not want[1]:
            assert type(got[1]) is int
    if fp[0] or fp[1]:
        got = qp_inv(p)
        assert got == _f_inv(fp) and all(_canonical_half(h) for h in got)


def test_constructors_store_the_canonical_form():
    for c in (
        Coeff.rational(Fraction(6, 3)),
        Coeff.rational(2, Fraction(0)),
        Coeff.rational("4/2", "0/5"),
        Coeff({_ZEXP: (Fraction(2), Fraction(0))}),
        as_coeff(Fraction(2)),
        as_coeff(2),
    ):
        assert c.terms == {_ZEXP: (2, 0)}
        assert type(c.terms[_ZEXP][0]) is int and type(c.terms[_ZEXP][1]) is int
    assert Coeff.param("nu").terms == {(0, 0, 1, 0): (1, 0)}
    assert_canonical(Coeff.param("nu"))
    assert Coeff.rational(Fraction(1, 2), 3).terms[_ZEXP] == (Fraction(1, 2), 3)
    assert as_coeff(0).terms == {} and as_coeff(Fraction(0)).terms == {}


def test_bool_operands_are_integers():
    assert as_coeff(True).terms == {_ZEXP: (1, 0)}
    assert type(as_coeff(True).terms[_ZEXP][0]) is int
    assert as_coeff(False).is_zero()
    assert Coeff.sqrt2() * True == Coeff.sqrt2()
    assert True + Coeff.one() == Coeff.rational(2)
    assert as_coeff(1.5) is NotImplemented
    assert as_coeff("1") is NotImplemented


def test_str_of_integral_and_fractional_halves_is_unchanged():
    assert repr(Coeff.rational(3)) == "3"
    assert repr(Coeff.rational(Fraction(-3, 1), 2)) == "-3+2*sqrt2"
    assert repr(Coeff.rational(Fraction(1, 3), Fraction(-2, 4))) == "1/3-1/2*sqrt2"
