"""Exact linear algebra over Q(sqrt2), plus characteristic polynomials.

Vectors coming out of the operator engine have Coeff coordinates.  For rank
and solve work every coordinate is scalarized: the pair (coordinate key,
parameter exponent vector) becomes one axis with a value in Q(sqrt2).  An
identity or membership established this way holds for all parameter values
at once, because the admitted combination coefficients are parameter-free.

Every span question builds one QPEchelon over its spanning vectors and
reduces all of its targets against it; a caller with a nested family of
spans (the g^(m) closure filtration) grows a single echelon instead of
rebuilding one per span.  Combination tracking is switched on only by the
solvers that report coefficients (solve_combination, coeff_matrix_solve)
and by spaces.orbit_closure when it records a column.

Inside the echelon no Fraction is built.  Each row is a map of integer
pairs (A, B), meaning (A + B*sqrt2)/D, over one positive integer D per row,
with the pivot entry (D, 0) and the row in lowest terms; a pivot with a
sqrt2 part is normalized by multiplying the row by its conjugate, so that
D = |a^2 - 2b^2|.  The rows are kept fully reduced (no row has an entry in
another row's pivot column), so reducing a vector subtracts vec[p] * row_p
for exactly the pivots p it holds, in any order and over one common
multiplier, and the result is the same as row-by-row elimination: the
fully reduced echelon of a span under a fixed column order is unique.
A new row takes its pivot at the residual's highest column, which under
Indexer numbering is the key seen last, and the echelon keeps `held`, the
columns any stored row has held: a pivot outside it (a fresh column) needs
no back-substitution, so no stored row is visited.  Membership, rank and
combinations do not depend on the pivot rule; only the stored rows and the
residual of a non-member do.  Residuals and combinations leave the echelon
as canonical pairs.

Characteristic polynomials come from a Hessenberg reduction and recurrence
on raw Q(sqrt2) pairs (O(n^3) pair operations).  Rational roots are found
in integer arithmetic alone by p-adic expansion (Loos 1983): the square-free
part of gcd(A, B), for p = A + B*sqrt2, is made monic over Z, its simple
roots modulo a small prime are Hensel-lifted (Zassenhaus 1969) past the
Cauchy bound, and every candidate u/L is checked, and its multiplicity
set, by exact division of the primitive integer halves by L t - u.
Whatever remains is split into square-free parts over Q(sqrt2) (Yun 1976,
with gcds in Q(sqrt2)[t] on the pair arithmetic) and each part is located
numerically at high precision (mpmath, imported only then) with a certified
inclusion radius.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, nextafter
from typing import Mapping, Sequence

from .coeff import (
    _ZEXP,
    Coeff,
    CoeffError,
    _add_pair,
    qp_add,
    qp_inv,
    qp_is_zero,
    qp_mul,
    qp_neg,
)


class Indexer:
    """Stable key -> column index assignment, grown on first sight."""

    def __init__(self):
        self.index = {}
        self.keys = []

    def __call__(self, key):
        i = self.index.get(key)
        if i is None:
            i = len(self.keys)
            self.index[key] = i
            self.keys.append(key)
        return i


def scalarize(vec: Mapping, ix: Indexer):
    """Coeff-coordinate vector -> sparse Q(sqrt2) vector over (key, exps)."""
    out = {}
    for key, c in vec.items():
        for exps, pair in c.terms.items():
            out[ix((key, exps))] = pair
    return out


def _int_pairs(vec: Mapping):
    """(V, E) with vec = V / E: V maps column -> integer pair, zeros dropped."""
    E = 1
    exact = True
    for a, b in vec.values():
        if type(a) is not int or type(b) is not int:
            exact = False
            E = lcm(E, a.denominator, b.denominator)
    if exact:
        return {c: p for c, p in vec.items() if p[0] or p[1]}, 1
    return {
        c: (a.numerator * (E // a.denominator), b.numerator * (E // b.denominator))
        for c, (a, b) in vec.items()
        if a or b
    }, E


def _axpy(acc: dict, fa: int, fb: int, row: Mapping) -> None:
    """acc += (fa + fb*sqrt2) * row over integer pairs, dropping zeros."""
    get = acc.get
    if fb:
        for c, (ra, rb) in row.items():
            pa = fa * ra + 2 * fb * rb
            pb = fa * rb + fb * ra
            x = get(c)
            if x is not None:
                pa += x[0]
                pb += x[1]
                if not (pa or pb):
                    del acc[c]
                    continue
            acc[c] = (pa, pb)
        return
    for c, (ra, rb) in row.items():
        x = get(c)
        if x is None:
            acc[c] = (fa * ra, fa * rb)
        else:
            pa = x[0] + fa * ra
            pb = x[1] + fa * rb
            if pa or pb:
                acc[c] = (pa, pb)
            else:
                del acc[c]


def _times(row: Mapping, fa: int, fb: int) -> dict:
    """(fa + fb*sqrt2) * row, for a nonzero factor, as a new dict."""
    if fb:
        return {c: (fa * a + 2 * fb * b, fa * b + fb * a) for c, (a, b) in row.items()}
    if fa == 1:
        return dict(row)
    return {c: (fa * a, fa * b) for c, (a, b) in row.items()}


def _lowest(D: int, row: dict, combo):
    """(D, row, combo) divided by the gcd of D and every integer they hold."""
    g = D
    for part in (row, combo or {}):
        for a, b in part.values():
            g = gcd(g, a, b)
            if g == 1:
                return D, row, combo
    if combo is not None:
        combo = {k: (a // g, b // g) for k, (a, b) in combo.items()}
    return D // g, {c: (a // g, b // g) for c, (a, b) in row.items()}, combo


def _over(x: int, n: int):
    """x / n as a canonical half: an int when integral, else a Fraction."""
    return x // n if x % n == 0 else Fraction(x, n)


def _canonical(ints: dict, n: int) -> dict:
    """Integer pairs over the common denominator n -> canonical pairs."""
    if n == 1:
        return ints
    return {c: (_over(a, n), _over(b, n) if b else 0) for c, (a, b) in ints.items()}


class QPEchelon:
    """Incremental reduced echelon form over Q(sqrt2) with combo tracking.

    Each stored row is a sparse dict of column index -> integer pair (A, B),
    meaning (A + B*sqrt2) / D over one positive integer D per row, with
    R[pivot] = (D, 0) and the row (with its combination) in lowest terms.
    Rows are kept in a dict by pivot and fully reduced: no row has an entry
    in another row's pivot column.  Subtracting vec[p] * row_p for one pivot
    p therefore leaves every other pivot entry of vec unchanged, so reduce()
    subtracts, in any order, exactly the rows whose pivots vec holds, all
    over one multiplier L = lcm of their D's.  A new row's pivot is its
    highest column, and `held` is the set of every column a stored row has
    held: insert() visits the stored rows to clear the new pivot from them
    only when the pivot is in `held`.  reduce() and insert() take and return
    canonical pairs (see coeff).  When track=True every stored
    row also carries its expression in terms of the inserted vectors, over
    the same D, which turns reduce() into an exact solver, and an insert()
    that finds its vector dependent leaves the combination it computed in
    `combination`: vec = sum combination[i] * v_i, over the labels i (the
    insert() call count) of the vectors that were inserted.
    """

    def __init__(self, track: bool = False):
        self.rows = {}  # pivot -> (D, row, combo or None)
        self.held = set()  # every column any stored row has held
        self.track = track
        self.inserted = 0
        self.combination = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: Mapping):
        """(res, combo, N): vec = (res + sum combo[i] * v_i) / N in integer pairs."""
        cur, E = _int_pairs(vec)
        rows = self.rows
        hits = [(p, cur[p]) for p in cur if p in rows]
        combo = {} if self.track else None
        if not hits:
            return cur, combo, E
        L = 1
        for p, _ in hits:
            L = lcm(L, rows[p][0])
        if L != 1:
            cur = _times(cur, L, 0)
        for p, (va, vb) in hits:
            D, row, rcombo = rows[p]
            m = L // D
            _axpy(cur, -va * m, -vb * m, row)
            if combo is not None:
                _axpy(combo, va * m, vb * m, rcombo)
        return cur, combo, E * L

    def reduce(self, vec: Mapping):
        """Return (residual, combo) where vec = residual + sum combo[i] * v_i."""
        res, combo, N = self._eliminate(vec)
        return _canonical(res, N), combo if combo is None else _canonical(combo, N)

    def insert(self, vec: Mapping):
        """Add vec to the span; returns its pivot column or None if dependent."""
        label = self.inserted
        self.inserted += 1
        res, proj, N = self._eliminate(vec)
        if not res:
            if self.track:
                self.combination = _canonical(proj, N)
            return None
        pivot = max(res)
        # multiply by the conjugate of the pivot entry a + b*sqrt2, signed so
        # that the pivot becomes D = |a^2 - 2b^2| > 0 (D = |a| when b = 0)
        a, b = res[pivot]
        if b:
            n = a * a - 2 * b * b
            ca, cb = (a, -b) if n > 0 else (-a, b)
        else:
            n = a
            ca, cb = (1, 0) if a > 0 else (-1, 0)
        row = _times(res, ca, cb)
        combo = None
        if self.track:
            # res = N*vec - sum proj_k v_k in integers, so the row is
            # (N*vec - sum proj_k v_k) * conj / D in terms of inserted vectors.
            combo = _times(proj, -ca, -cb)
            combo[label] = (N * ca, N * cb)
        D, row, combo = _lowest(abs(n), row, combo)
        # keep stored rows fully reduced: r/Dp - (f/Dp)(row/D), where
        # f/D = (f/h)/(D/h) with h = gcd(D, f) keeps the scale small; a
        # pivot outside `held` is in no stored row, so nothing is visited
        if pivot in self.held:
            for p, (Dp, r, c) in self.rows.items():
                f = r.get(pivot)
                if f is None:
                    continue
                h = gcd(D, *f)
                s = D // h
                fa, fb = -f[0] // h, -f[1] // h
                nr = _times(r, s, 0)
                _axpy(nr, fa, fb, row)
                nc = None
                if self.track:
                    nc = _times(c, s, 0)
                    _axpy(nc, fa, fb, combo)
                self.rows[p] = _lowest(Dp * s, nr, nc)
        self.held.update(row)
        self.rows[pivot] = (D, row, combo)
        return pivot


def _echelon(vectors: Sequence[Mapping], ix: Indexer, track: bool = False) -> QPEchelon:
    """One QPEchelon over the scalarized vectors, inserted in order."""
    ech = QPEchelon(track)
    for v in vectors:
        ech.insert(scalarize(v, ix))
    return ech


def rank_of(vectors: Sequence[Mapping]) -> int:
    """Rank over Q(sqrt2) of Coeff-coordinate vectors (scalarized)."""
    return _echelon(vectors, Indexer()).rank


def solve_combination(basis: Sequence[Mapping], target: Mapping):
    """Parameter-free coefficients c with target = sum c_i basis_i, or None."""
    ix = Indexer()
    res, combo = _echelon(basis, ix, track=True).reduce(scalarize(target, ix))
    if res:
        return None
    out = [(0, 0)] * len(basis)
    for k, v in combo.items():
        out[k] = v
    return out


def span_contains(basis: Sequence[Mapping], vectors: Sequence[Mapping]) -> bool:
    ix = Indexer()
    ech = _echelon(basis, ix)
    return not any(ech.reduce(scalarize(v, ix))[0] for v in vectors)


# -- constant matrices -------------------------------------------------------


def coeff_matrix_solve(columns: Sequence[Mapping], targets: Sequence[Mapping]):
    """Solve sum_j c_j * columns[j] = target with Coeff coefficients, per target.

    The columns must be parameter-free (CoeffError otherwise); a target may
    carry parameters, in which case the solve is done per parameter
    monomial, on the columns' (key, _ZEXP) axes, and the parts are
    recombined.  The tracked echelon of the columns is built once (_echelon)
    and every target is reduced against it.  Returns one (coords, residual)
    per target: coords is the sparse map {j: c_j} of its nonzero
    coordinates, and residual is a nonempty sparse map exactly when that
    target is not in the span.
    """
    if not all(c.is_constant() for col in columns for c in col.values()):
        raise CoeffError("the columns of a Coeff solve must be parameter-free")
    ix = Indexer()
    ech = _echelon(columns, ix, track=True)

    out = []
    for target in targets:
        groups = {}
        for key, c in target.items():
            for exps, pair in c.terms.items():
                groups.setdefault(exps, {})[ix((key, _ZEXP))] = pair

        sums = {}  # column -> {exps: pair}
        residual = {}
        for exps, flat in sorted(groups.items()):
            res, combo = ech.reduce(flat)
            for col, pair in res.items():
                _add_pair(residual.setdefault(ix.keys[col][0], {}), exps, pair)
            for j, pair in combo.items():
                _add_pair(sums.setdefault(j, {}), exps, pair)
        coords = {j: Coeff._raw(t) for j, t in sums.items() if t}
        residual = {key: Coeff._raw(t) for key, t in residual.items() if t}
        out.append((coords, residual))
    return out


def charpoly(matrix: Sequence[Sequence[Coeff]]):
    """Monic characteristic polynomial [c_0, ..., c_{n-1}, 1] of a
    parameter-free exact matrix, p(t) = sum c_i t^i + t^n.

    The matrix is brought to upper Hessenberg form H by similarity over
    Q(sqrt2) pairs, swapping a row below a zero subdiagonal pivot in (with
    its column), and p_m = (t - H_mm) p_{m-1} - sum_{i<m} H_im (H_{i+1,i}
    ... H_{m,m-1}) p_{i-1} (Cohen, A Course in Computational Algebraic
    Number Theory, 2.2.9): O(n^3) pair operations, one Coeff per c_i.
    """
    H = [[c.constant_pair() for c in row] for row in matrix]
    n = len(H)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1] != (0, 0)), m)
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        if H[m][m - 1] == (0, 0):
            continue
        # row_i -= u_i row_m for every i > m, then column_m += sum u_i
        # column_i: one similarity, since these eliminations commute
        Hm = H[m]
        inv = qp_inv(Hm[m - 1])
        support = [j for j in range(m - 1, n) if Hm[j] != (0, 0)]
        us = []
        for i, Hi in enumerate(H[m + 1 :], m + 1):
            if Hi[m - 1] != (0, 0):
                u = qp_mul(Hi[m - 1], inv)
                us.append((i, u))
                for j in support:
                    Hi[j] = qp_add(Hi[j], qp_neg(qp_mul(u, Hm[j])))
        for row in H:
            for i, u in us:
                if row[i] != (0, 0):
                    row[m] = qp_add(row[m], qp_mul(u, row[i]))
    polys = [[(1, 0)]]  # p_0, ..., p_m: polys[i] has degree i
    for m in range(n):
        p = [(0, 0)] + polys[m]  # t polys[m], then minus the column m terms
        scale = (-1, 0)
        for i in range(m, -1, -1):
            f = qp_mul(scale, H[i][m])
            if f != (0, 0):
                for j, c in enumerate(polys[i]):
                    p[j] = qp_add(p[j], qp_mul(f, c))
            if i == 0 or H[i][i - 1] == (0, 0):
                break
            scale = qp_mul(scale, H[i][i - 1])
        polys.append(p)
    return [Coeff.rational(*pair) for pair in polys[n]]


# -- polynomial roots ---------------------------------------------------------
#
# Integer polynomials below are coefficient lists, lowest degree first, with
# no trailing (leading-degree) zeros.


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    c = 0
    for x in f:
        c = gcd(c, x)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f]


def _integral(fracs):
    """Primitive integer polynomial proportional to a Fraction polynomial."""
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    return _primitive(_trim([x.numerator * (den // x.denominator) for x in fracs]))


def _prem(f, g):
    """Pseudo-remainder of f by g in Z[t] (some lc(g)^e * f mod g)."""
    r = list(f)
    dg = len(g) - 1
    lc = g[-1]
    while len(r) > dg:
        c = r[-1]
        shift = len(r) - 1 - dg
        r = [x * lc for x in r]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
        _trim(r)
    return r


def _zgcd(f, g):
    """Primitive gcd in Z[t] of two nonzero integer polynomials."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        r = _prem(f, g)
        if not r:
            return g
        f, g = g, _primitive(r)
    return [1]


def _zdiv(f, g):
    """Exact quotient f / g of integer polynomials with g | f in Z[t]."""
    r = list(f)
    dg = len(g) - 1
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] // g[-1]
        q[k] = c
        for i, y in enumerate(g):
            r[k + i] -= c * y
    return q


def _deriv(f):
    return [i * c for i, c in enumerate(f)][1:]


def _horner(f, x, mod=None):
    v = 0
    for c in reversed(f):
        v = v * x + c
        if mod is not None:
            v %= mod
    return v


def _squarefree_mod(f, p):
    """Whether the monic f stays square-free mod p: gcd(f, f') = 1 in F_p[t]."""
    a = _trim([c % p for c in f])
    b = _trim([c % p for c in _deriv(f)])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % p
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _integer_roots(m):
    """Integer roots of a monic square-free integer polynomial, by p-adic lifting.

    Simple roots mod the smallest odd prime p keeping m square-free are
    Newton-lifted until p^e exceeds twice the Cauchy bound on |root|; each
    symmetric residue is then checked exactly.
    """
    bound = 1 + max(abs(c) for c in m[:-1])
    dm = _deriv(m)
    odd_primes = []
    p = 3
    while True:
        if all(p % q for q in odd_primes):
            if _squarefree_mod(m, p):
                break
            odd_primes.append(p)
        p += 2
    out = []
    for r in range(p):
        if _horner(m, r, p):
            continue
        q = p
        while q <= 2 * bound:
            q *= q
            r = (r - _horner(m, r, q) * pow(_horner(dm, r, q), -1, q)) % q
        u = r if 2 * r < q else r - q
        if _horner(m, u) == 0:
            out.append(u)
    return out


def _zdiv_linear(f, L, u):
    """f / (L t - u) in Z[t], or None when it leaves a remainder."""
    q = [0] * len(f)  # q_(i-1) = (f_i + u q_i) / L, from the top down
    for i in range(len(f) - 1, 0, -1):
        q[i - 1], rem = divmod(f[i] + u * q[i], L)
        if rem:
            return None
    return None if f and f[0] + u * q[0] else q[:-1]


def rational_roots(coeffs):
    """All rational roots (with multiplicity) of a Q(sqrt2)[t] polynomial.

    Returns (roots, deflated) where deflated has no rational roots left: the
    roots t = 0 first, then the others in increasing order, each repeated by
    its multiplicity.  Writing p = A + B*sqrt2 with A, B in Q[t], a rational
    root is a root of g = gcd(A, B); the integer roots u of the monic
    m(u) = L^(n-1) s(u/L), for s the primitive square-free part of g with
    leading coefficient L, give the candidates u/L, and exact division of
    the primitive integer parts of A and B by L t - u in Z[t] gives each
    multiplicity, with the scales carried beside them.
    """
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    roots = []
    # strip t = 0 roots
    while len(coeffs) > 1 and coeffs[0].is_zero():
        roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots, coeffs

    # each half of p is scale * X for a primitive integer X ([] for 0)
    parts = []
    for half in zip(*(c.constant_pair() for c in coeffs)):
        X = _integral(half) if any(half) else []
        parts.append((Fraction(half[len(X) - 1]) / X[-1] if X else 0, X))
    live = [X for _, X in parts if X]
    g = live[0] if len(live) == 1 else _zgcd(*live)
    if len(g) == 1:
        return roots, coeffs
    s = _zdiv(g, _zgcd(g, _deriv(g)))
    n = len(s) - 1
    lead = s[n]
    m = [c * lead ** (n - 1 - i) for i, c in enumerate(s[:n])] + [1]
    size = len(coeffs)
    for r in sorted(Fraction(u, lead) for u in _integer_roots(m)):
        # X / (t - u/L) = L X / (L t - u), and the quotient of a primitive X
        # by the primitive L t - u is primitive again (Gauss)
        while True:
            quotients = [_zdiv_linear(X, r.denominator, r.numerator) for _, X in parts]
            if None in quotients:
                break
            roots.append(r)
            size -= 1
            parts = [(scale * r.denominator, Q) for (scale, _), Q in zip(parts, quotients)]
    a, b = ([scale * x for x in X] + [0] * (size - len(X)) for scale, X in parts)
    return roots, [Coeff.rational(x, y) for x, y in zip(a, b)]


# -- Q(sqrt2)[t] on pairs, for the square-free split --------------------------
#
# Pair polynomials are lists of (a, b) pairs, lowest degree first, with no
# trailing zero pairs.


def _qp_trim(f):
    while f and qp_is_zero(f[-1]):
        f.pop()
    return f


def _qp_monic(f):
    inv = qp_inv(f[-1])
    return [qp_mul(c, inv) for c in f]


def _qp_sub(f, g):
    n = max(len(f), len(g))
    f = f + [(0, 0)] * (n - len(f))
    g = g + [(0, 0)] * (n - len(g))
    return _qp_trim([qp_add(x, qp_neg(y)) for x, y in zip(f, g)])


def _qp_deriv(f):
    return [qp_mul((i, 0), c) for i, c in enumerate(f)][1:]


def _qp_divmod(f, g):
    """(quotient, remainder) of a pair polynomial f by a monic one g."""
    r = list(f)
    dg = len(g) - 1
    q = [(0, 0)] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg]
        q[k] = c
        if not qp_is_zero(c):
            for i, y in enumerate(g):
                r[k + i] = qp_add(r[k + i], qp_neg(qp_mul(c, y)))
    return q, _qp_trim(r[:dg])


def _qp_gcd(f, g):
    """Monic gcd of a nonzero pair polynomial f and a pair polynomial g."""
    while g:
        g = _qp_monic(g)
        f, g = g, _qp_divmod(f, g)[1]
    return _qp_monic(f)


def _squarefree_parts(f):
    """Yun's decomposition f = lc * prod s_i^i: the nonconstant (s_i, i).

    Each s_i is monic and square-free, and they are pairwise coprime, so
    every root of f is a simple root of exactly one s_i, of multiplicity i.
    """
    df = _qp_deriv(f)
    a = _qp_gcd(f, df)
    b = _qp_divmod(f, a)[0]
    c = _qp_divmod(df, a)[0]
    parts = []
    i = 1
    while len(b) > 1:
        d = _qp_sub(c, _qp_deriv(b))
        a = _qp_gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b = _qp_divmod(b, a)[0]
        c = _qp_divmod(d, a)[0]
        i += 1
    return parts


_NUMERIC_ATTEMPTS = 4
_NUMERIC_DPS = 50  # decimal digits of the approximations numeric_roots returns


def numeric_roots(coeffs):
    """High-precision roots of the residual factor, with a certified radius.

    Returns (roots, err): roots are _NUMERIC_DPS-digit mpmath
    approximations, each repeated by its multiplicity, and every root of
    the polynomial lies within err of one of them.  The factor is first
    split into square-free parts over Q(sqrt2), so every part has simple
    roots only; err is the largest inclusion radius over the parts (see
    _certified_roots).
    """
    import mpmath

    roots = []
    err = 0.0
    pairs = [c.constant_pair() for c in coeffs]
    with mpmath.workdps(_NUMERIC_DPS):
        for part, mult in _squarefree_parts(pairs):
            found, part_err = _certified_roots(part, _NUMERIC_DPS)
            roots.extend(z for z in found for _ in range(mult))
            err = max(err, part_err)
    return roots, err


def _certified_roots(pairs, dps):
    """polyroots of a square-free pair polynomial, with its certified radius.

    The radius is the largest n |p(z_i)| / |lc prod_{j!=i} (z_i - z_j)| (the
    Weierstrass disks, whose union holds every root), evaluated in interval
    arithmetic and rounded up to a float.  When polyroots does not converge,
    or two approximations coincide, the solve is repeated with twice the
    extra working precision and twice the steps, _NUMERIC_ATTEMPTS times in
    all; after that CoeffError is raised.
    """
    import mpmath
    from mpmath.libmp import NoConvergence

    extraprec, maxsteps = 120, 200
    s2 = mpmath.sqrt(2)
    # mpmath wants highest degree first
    cs = [
        mpmath.mpf(a.numerator) / a.denominator
        + (mpmath.mpf(b.numerator) / b.denominator) * s2
        for a, b in reversed(pairs)
    ]
    for _ in range(_NUMERIC_ATTEMPTS):
        try:
            roots = mpmath.polyroots(cs, maxsteps=maxsteps, extraprec=extraprec)
        except NoConvergence:
            pass
        else:
            err = _inclusion_radius(pairs, roots, 2 * dps)
            if err is not None:
                return roots, err
        extraprec *= 2
        maxsteps *= 2
    raise CoeffError(
        "no certified numeric roots of a degree-%d factor after %d attempts "
        "(up to %d extra bits, %d steps)"
        % (len(pairs) - 1, _NUMERIC_ATTEMPTS, extraprec // 2, maxsteps // 2)
    )


def _inclusion_radius(pairs, roots, dps):
    """Upper bound (float) on the disk radii around roots, or None if unbounded."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.dps = dps
    n = len(pairs) - 1
    s2 = iv.sqrt(2)
    cs = [
        iv.mpf(a.numerator) / a.denominator
        + (iv.mpf(b.numerator) / b.denominator) * s2
        for a, b in pairs
    ]
    zs = [iv.mpc(z.real, z.imag) for z in roots]
    worst = 0.0
    for i, z in enumerate(zs):
        val = cs[n]
        for c in reversed(cs[:n]):
            val = val * z + c
        den = abs(cs[n])
        for j, w in enumerate(zs):
            if j != i:
                den = den * abs(z - w)
        if not den.a > 0:
            return None
        worst = max(worst, float((n * abs(val) / den).b))
    return nextafter(worst, inf)
