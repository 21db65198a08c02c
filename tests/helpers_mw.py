"""Shared helpers for the test modules."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial
from operator import add, mul
import random

from matrixweyl import Coeff, MatrixDiffOp, Polynomial, PolySpinor, ScalarDiffOp
from matrixweyl.weyl import DiffMonomial, commutator


def C(a, b=0):
    return Coeff.rational(a, b)


def poly(nvars, *terms):
    """poly(2, ((1,0), 1), ((0,2), -3)) -> x1 - 3 x2^2."""
    out = Polynomial.zero(nvars)
    for mono, c in terms:
        out = out + Polynomial.monomial(mono, c, nvars)
    return out


def spinor(nvars, *components):
    """Each component is a list of (mono, coeff) pairs."""
    return PolySpinor([poly(nvars, *comp) for comp in components], nvars)


def random_coeff(rng: random.Random, with_params=True) -> Coeff:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        if with_params:
            exps = tuple(rng.randint(0, 1) for _ in range(4))
        else:
            exps = (0, 0, 0, 0)
        terms[exps] = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
    return Coeff(terms)


def random_scalar_op(rng: random.Random, nvars=2, nterms=3, maxdeg=2) -> ScalarDiffOp:
    terms = {}
    for _ in range(nterms):
        xp = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        dp = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[(xp, dp)] = random_coeff(rng)
    return ScalarDiffOp(nvars, terms)


def random_matrix_op(rng: random.Random, dim=2, nvars=2) -> MatrixDiffOp:
    return MatrixDiffOp(
        [
            [random_scalar_op(rng, nvars, nterms=2, maxdeg=1) for _ in range(dim)]
            for _ in range(dim)
        ]
    )


def commutator_oracle(a, b):
    """a o b - b o a as two products and a difference: the commutator's
    definition, built the way weyl.commutator's one accumulation avoids."""
    return a * b - b * a


def odometer_product_expansion(m1, m2):
    """(x^A d^B)(x^C d^D) normal-ordered, as a tuple of (f, DiffMonomial),
    for m1 = (A, B) and m2 = (C, D): weyl._product_expansion as it was
    written, one odometer over the contraction vectors j (0 <= j_i <=
    min(B_i, C_i), j_1 turning fastest) with f = prod binom(B_i, j_i)
    binom(C_i, j_i) j_i! built per vector.  The oracle of the expansion
    from per-variable contraction tables, terms and order."""
    (A, B), (C, D) = m1, m2
    limits = [min(b, c) for b, c in zip(B, C)]
    js = [0] * len(B)
    out = []
    while True:
        f = 1
        for b, c, j in zip(B, C, js):
            if j:
                f *= comb(b, j) * comb(c, j) * factorial(j)
        xp = tuple(a + c - j for a, c, j in zip(A, C, js))
        dp = tuple(b - j + d for b, d, j in zip(B, D, js))
        out.append((f, DiffMonomial(xp, dp)))
        i = 0
        while i < len(js):
            if js[i] < limits[i]:
                js[i] += 1
                break
            js[i] = 0
            i += 1
        else:
            return tuple(out)


def in_key_order(op):
    """The terms of an operator as (key, sorted Coeff terms), in key order."""
    return [(key, c.sorted_terms()) for key, c in sorted(op.terms.items(), key=lambda kv: kv[0])]


# -- Q(sqrt2) on Fraction pairs, and the echelon built on them -----------------


def fq_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def fq_mul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def fq_neg(p):
    return (-p[0], -p[1])


def fq_inv(p):
    a, b = p
    n = a * a - 2 * b * b
    return (a / n, -b / n)


def fq_is_zero(p):
    return not (p[0] or p[1])


class FracEchelon:
    """The earlier QPEchelon: rows of Fraction pairs normalized to pivot 1,
    kept in a list sorted by pivot and reduced row by row.

    pick chooses a new row's pivot among its columns: max, the rule of
    linalg.QPEchelon, or min, the rule QPEchelon had before, the reference
    that no membership, rank or combination depends on.  A tracked insert
    of a dependent vector leaves its combination in `combination`, as
    QPEchelon's does, so the two can stand in for each other.
    """

    def __init__(self, track=False, pick=max):
        self.rows = []  # list of (pivot, row dict, combo dict or None)
        self.track = track
        self.pick = pick
        self.inserted = 0
        self.combination = None

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        cur = {c: (Fraction(a), Fraction(b)) for c, (a, b) in vec.items()}
        combo = {} if self.track else None
        for pivot, row, rcombo in self.rows:
            f = cur.get(pivot)
            if f is None or fq_is_zero(f):
                continue
            for col, val in row.items():
                s = fq_add(cur.get(col, (0, 0)), fq_neg(fq_mul(f, val)))
                if fq_is_zero(s):
                    cur.pop(col, None)
                else:
                    cur[col] = s
            if self.track:
                for k, v in rcombo.items():
                    s = fq_add(combo.get(k, (0, 0)), fq_mul(f, v))
                    if fq_is_zero(s):
                        combo.pop(k, None)
                    else:
                        combo[k] = s
        cur = {c: v for c, v in cur.items() if not fq_is_zero(v)}
        return cur, combo

    def insert(self, vec):
        label = self.inserted
        self.inserted += 1
        res, proj = self.reduce(vec)
        if not res:
            self.combination = proj
            return None
        pivot = self.pick(res)
        inv = fq_inv(res[pivot])
        row = {c: fq_mul(v, inv) for c, v in res.items()}
        combo = None
        if self.track:
            combo = {k: fq_neg(fq_mul(v, inv)) for k, v in proj.items()}
            combo[label] = inv
        for i, (p, r, c) in enumerate(self.rows):
            f = r.get(pivot)
            if f is None or fq_is_zero(f):
                continue
            nr = dict(r)
            for col, val in row.items():
                s = fq_add(nr.get(col, (0, 0)), fq_neg(fq_mul(f, val)))
                if fq_is_zero(s):
                    nr.pop(col, None)
                else:
                    nr[col] = s
            nc = c
            if self.track:
                nc = dict(c)
                for k, v in combo.items():
                    s = fq_add(nc.get(k, (0, 0)), fq_neg(fq_mul(f, v)))
                    if fq_is_zero(s):
                        nc.pop(k, None)
                    else:
                        nc[k] = s
            self.rows[i] = (p, nr, nc)
        self.rows.append((pivot, row, combo))
        self.rows.sort(key=lambda t: t[0])
        return pivot


def cycle_trace(e, idx, power):
    """The sum of e[a1, a2] e[a2, a3] ... e[ap, a1] over a1 .. ap in idx, one
    product per cycle summed by +: the trace invariant by its definition,
    the oracle of identities._trace."""
    cycles = product(idx, repeat=power)
    return reduce(add, (reduce(mul, (e[ab] for ab in zip(c, c[1:] + c[:1]))) for c in cycles))


def random_poly(rng: random.Random, nvars=2, nterms=3, maxdeg=3) -> Polynomial:
    out = Polynomial.zero(nvars)
    for _ in range(nterms):
        mono = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        out = out + Polynomial.monomial(mono, random_coeff(rng), nvars)
    return out


def random_spinor(rng: random.Random, dim=2, nvars=2) -> PolySpinor:
    return PolySpinor(
        [random_poly(rng, nvars, nterms=2, maxdeg=2) for _ in range(dim)], nvars
    )


def mat_mul(A, B):
    """Square matrix product over any ring: no zero element is needed.

    Entry (i, j) starts from A[i][0] * B[0][j] and adds, in order of l, only
    the products A[i][l] * B[l][j] whose two factors are nonzero.
    """
    d = len(A)
    out = []
    for Ai in A:
        nonzero = [(l, Ai[l]) for l in range(1, d) if Ai[l]]
        row = []
        for j in range(d):
            s = Ai[0] * B[0][j]
            for l, a in nonzero:
                b = B[l][j]
                if b:
                    s = s + a * b
            row.append(s)
        out.append(row)
    return out


def faddeev_leverrier(matrix):
    """Monic characteristic polynomial [c_0, ..., c_{n-1}, 1] of a Coeff
    matrix by the Faddeev-LeVerrier recursion (divisions by integers only):
    the oracle of linalg.charpoly.
    """
    n = len(matrix)
    coeffs = [Coeff.zero()] * n + [Coeff.one()]
    M = [list(row) for row in matrix]
    for m in range(1, n + 1):
        if m > 1:
            shifted = [[M[i][j] + (c if i == j else Coeff.zero()) for j in range(n)] for i in range(n)]
            M = mat_mul(matrix, shifted)
        c = sum((M[i][i] for i in range(n)), Coeff.zero()) * Fraction(-1, m)
        coeffs[n - m] = c
    return coeffs


def _divide_linear(f, r):
    """(quotient, remainder) of sum f_i t^i divided by (t - r)."""
    n = len(f) - 1
    out = [0] * n
    carry = f[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = f[i] + carry * r
    return out, carry


def fraction_rational_roots(coeffs):
    """linalg.rational_roots as it was written on Fraction halves: each
    candidate root r divides A and B by (t - r) in Q[t].  The oracle of the
    integer division by (L t - u) on the primitive halves.
    """
    from matrixweyl.linalg import _deriv, _integer_roots, _integral, _zdiv, _zgcd

    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    roots = []
    while len(coeffs) > 1 and coeffs[0].is_zero():
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots, coeffs
    a, b = (list(half) for half in zip(*(c.constant_pair() for c in coeffs)))
    parts = [_integral(half) for half in (a, b) if any(half)]
    g = parts[0] if len(parts) == 1 else _zgcd(*parts)
    if len(g) == 1:
        return roots, coeffs
    s = _zdiv(g, _zgcd(g, _deriv(g)))
    n = len(s) - 1
    lead = s[n]
    m = [c * lead ** (n - 1 - i) for i, c in enumerate(s[:n])] + [1]
    for r in sorted(Fraction(u, lead) for u in _integer_roots(m)):
        while True:
            qa, ra = _divide_linear(a, r)
            qb, rb = _divide_linear(b, r)
            if ra or rb:
                break
            roots.append(r)
            a, b = qa, qb
    return roots, [Coeff.rational(x, y) for x, y in zip(a, b)]


def apply_orbit_closure(named_ops, seed, degree_cap):
    """spaces.orbit_closure as it was written on PolySpinor values, every
    op recorded: every op is applied to every vector by MatrixDiffOp.apply
    and its image scalarized from its Coeff coordinates, rejected images
    included.  The oracle of the raw closure.
    """
    from matrixweyl.linalg import Indexer, QPEchelon, scalarize
    from matrixweyl.spaces import SpaceNotClosedError, SpinorBasis

    ix = Indexer()
    ech = QPEchelon(track=True)
    basis = []
    position = {}

    def add(w):
        tag = ech.inserted
        if ech.insert(scalarize(w.coords(), ix)) is None:
            return None
        position[tag] = len(basis)
        basis.append(w)
        return position[tag]

    add(seed)
    columns = [[] for _ in named_ops]
    i = 0
    while i < len(basis):
        v = basis[i]
        for (_, op), cols in zip(named_ops, columns):
            w = op.apply(v)
            if w.is_zero():
                cols.append({})
                continue
            if w.total_degree() > degree_cap:
                raise SpaceNotClosedError(degree_cap, w)
            at = add(w)
            if at is None:
                cols.append({position[t]: p for t, p in ech.combination.items()})
            else:
                cols.append({at: (1, 0)})
        i += 1
    action = {name: tuple(cols) for (name, _), cols in zip(named_ops, columns)}
    raws = [{key: c.constant_pair() for key, c in v.terms.items()} for v in basis]
    return SpinorBasis(raws, (seed.dim, seed.nvars), action)


def dense_block_scan(entries, grades):
    """The block checks models.spectrum made cell by cell over the dense grid
    of a matrix on a grade-sorted basis: the oracle of models._grade_blocks,
    which reads the same blocks off any basis order.

    Returns (blocks, diagonal, first): blocks are the (start, end) runs of
    equal grade; first is the first entry below the block diagonal that the
    scan meets, block by block, rows then columns, or None, and diagonal is
    None when first is not.
    """
    n = len(grades)
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or grades[i] != grades[start]:
            blocks.append((start, i))
            start = i
    for s, e in blocks:
        for i in range(e, n):
            for j in range(s, e):
                if not entries[i][j].is_zero():
                    return blocks, None, (i, j)
    diagonal = True
    for s, e in blocks:
        for i in range(s, e):
            for j in range(s, e):
                if i != j and not entries[i][j].is_zero():
                    diagonal = False
    return blocks, diagonal, None


def unfiltered_spectrum(kind, words, k, d, bindings):
    """models.spectrum with every word composed: the flag records every
    generator the words use, the matrix is the bound sum of all the words,
    and the same grades off basis.weights, _grade_blocks and _eigenvalues
    read it.  The oracle of spectrum, which composes only the words that do
    not lower the grade; returns the SpectrumResult or raises what those
    steps raise."""
    from matrixweyl.models import (
        GRADINGS, SpectrumResult, _eigenvalues, _grade_blocks, flag_basis,
    )
    from matrixweyl.spaces import matrix_of

    bind = {name: Fraction(v) for name, v in bindings.items()}
    words = tuple((c.substitute(bind), word) for c, word in words)
    basis = flag_basis(k, d, {name for _, word in words for name in word})
    opm = matrix_of(words, basis)
    form = GRADINGS[kind]
    grades = [form[0] * w1 + form[1] * w2 for w1, w2 in basis.weights]
    blocks, diagonal = _grade_blocks(opm, grades)
    eigs, charpolys = _eigenvalues(opm, blocks, diagonal)
    sizes = [len(rows) for rows in blocks.values()]
    return SpectrumResult(kind, k, d, bind, basis.dim, sizes, diagonal, eigs, charpolys)


def ordered_canonical_failures(rep):
    """[M_ij, M_kl] = delta_jk M_il - delta_il M_kj over all n^4 ordered
    pairs, each residual built from the commutator by subtraction: the
    oracle of matrixreps.check_canonical, which visits each unordered pair
    once.  Returns the ((i, j), (k, l), residual) of every pair that fails."""
    M = rep.ops
    failures = []
    for (i, j), A in M.items():
        for (k, l), B in M.items():
            res = commutator(A, B)
            if j == k:
                res = res - M[(i, l)]
            if i == l:
                res = res + M[(k, j)]
            if not res.is_zero():
                failures.append(((i, j), (k, l), res))
    return failures


def art_left_sides(gens):
    """{name: left side} of the nine quadratic relations, each written out
    by hand in the generators: the oracle of identities.ART_WORDS."""
    E, E0, Tm, Tp = gens.E, gens.E0, gens.Tminus, gens.Tplus
    one = MatrixDiffOp.identity(gens.dim, gens.nvars)
    return {
        "Art.1": -(Tp[1] * E[(2, 2)]) + Tp[2] * E[(1, 2)],
        "Art.2": -(Tp[2] * E[(1, 1)]) + Tp[1] * E[(2, 1)],
        "Art.3": -(E[(1, 2)] * (E0 + one)) + Tp[1] * Tm[2],
        "Art.4": -(E[(2, 1)] * (E0 + one)) + Tp[2] * Tm[1],
        "Art.5": Tp[1] * Tm[1] - E[(1, 1)] * (one + E0),
        "Art.6": Tp[2] * Tm[2] - E[(2, 2)] * (one + E0),
        "Art.7": E[(1, 2)] * E[(2, 1)] - E[(1, 1)] * E[(2, 2)] - E[(1, 1)],
        "Art.8": E[(2, 2)] * Tm[1] - E[(2, 1)] * Tm[2],
        "Art.9": E[(1, 2)] * Tm[1] - E[(1, 1)] * Tm[2],
    }


def fraction_pattern_verdict(result, omega):
    """models.pattern_verdict as it was written on sorted Fraction pairs:
    the scalar pattern -2 omega (2 p1 + 3 p2), p1 + p2 <= k, built as pairs
    and compared with the sorted exact eigenvalues, and each eigenvalue
    tested by q = a / (-2 omega).  The oracle of the comparison of the
    integers n = 2 p1 + 3 p2."""
    scalar = sorted(
        (Fraction(-2) * omega * (2 * p1 + 3 * p2), Fraction(0))
        for p1 in range(result.k + 1)
        for p2 in range(result.k + 1 - p1)
    )
    computed = sorted(e.pair for e in result.eigenvalues if e.exact)
    multiset_equal = result.all_exact() and computed == scalar
    step = Fraction(-2) * omega

    def on_pattern(a, b):
        # the pattern values are the rationals step * (2 p1 + 3 p2), all 0 at omega = 0
        if b or not step:
            return not b and not a
        q = a / step
        return q.denominator == 1 and q >= 0 and q != 1

    subset = result.all_exact() and all(on_pattern(a, b) for a, b in computed)
    return {
        "multiset_equal_to_scalar": multiset_equal,
        "subset_of_pattern": subset,
    }
