"""Three-body Calogero and Sutherland operators and their matrix extensions.

Each model exists in three forms:

  differential   scalar operator in the symmetric-invariant coordinates,
                 which the engine identifies as x1, x2;
  liealgebraic   the same combination written in the gl_3 generators, here
                 instantiated with the generators of any [k, d-1] block;
  matrix         the reference d x d matrix display with the block entries
                 written out term by term.

The lie-algebraic substitution is the normative object.  It is written once
per model in WORDS, (coefficient, generator names) pairs standing for
sum c * (product of the generators), and its operator is built from them.
calogero and sutherland return the operator of one form at a formal k; no
form carries k, and a bound k is substituted into it.  model_checks builds
the three forms, proves the lie-algebraic form at [k, 0] equal to the
differential one, and diffs the matrix display against the lie-algebraic
form, recording the exact residual instead of asserting zero, because the
display is a cross-check target, not ground truth.

Spectra are computed from the words and an integer k on the invariant flag
[k, d-1], without building the operator.  Both models share one flag, the
gl_3 irrep V(k, d-1, 0), and each grades its weights (w1, w2) by a linear
form (GRADINGS).  Each generator moves the weight by a fixed root (SHIFTS),
so a word that lowers the grade writes only entries above the block
diagonal; such words are neither recorded nor composed (Calogero's T1- and
E12 E12, Sutherland's T1- words).  What is left of Calogero is a
polynomial in the Cartan generators E11, E22 and E0 (CARTAN): its spectrum
is that polynomial at each weight of the flag, and flag_weights lists
those weights off the Gelfand-Tsetlin patterns of [k, d-1], with no
generator, closure or matrix.  Any other word (every Sutherland input) is
read on the discovered flag (flag_basis), in discovery order: the flag
discovery records the parameter-free matrix of each generator the words
use, nu and omega/alpha are bound on the word coefficients only, and the
matrix of the model is the bound combination of products of generator
matrices, block triangular in the grading; the Sutherland grading w1 + w2
leaves blocks that are resolved per block by exact characteristic
polynomials.  Every flag that spectrum or the `space` command discovers
is certified against flag_weights (certify_flag).
"""

from __future__ import annotations

from collections import Counter
from decimal import ROUND_CEILING, Decimal
from fractions import Fraction
from functools import cmp_to_key
from math import prod
from typing import Dict, List, Optional, Tuple

from .coeff import ALPHA, NU, OMEGA, PARAMS, ZERO, K, _half, qp_float
from .generators import _word, _word_sum, _x_d_ops, build_gl_np1, gl_labels
from .identities import _report
from .linalg import charpoly, numeric_roots, rational_roots
from .matrixreps import gl2_irrep
from .spaces import (
    SpinorBasis,
    matrix_of,
    orbit_closure,
    record_action,
    scalar_basis,
)
from .weyl import MatrixDiffOp, PolySpinor

_F = Fraction


_A2 = ALPHA * ALPHA
# each model's lie-algebraic form: sum c * (product of the generators)
WORDS = {
    "calogero": (
        _word(-2, "E11", "T1-"),
        _word(-6, "E22", "T1-"),
        _word(_F(2, 3), "E12", "E12"),
        _word(OMEGA * -4, "E11"),
        _word((NU * 3 + 1) * -2, "T1-"),
        _word(OMEGA * -6, "E22"),
    ),
    "sutherland": (
        _word(-2, "E11", "T1-"),
        _word(-6, "E22", "T1-"),
        _word(_F(2, 3), "E12", "E12"),
        _word((NU * 3 + 1) * -2, "T1-"),
        _word(_A2 * _A2 * _F(1, 24), "E21", "E21"),
        _word(_A2 * _F(-1, 2), "E11", "E11"),
        _word(_A2 * _F(-4, 3), "E11", "E22"),
        _word(_A2 * _F(-1, 2), "E22", "E22"),
        _word((NU * 12 + 1) * _A2 * _F(-1, 6), "E11"),
        _word((NU * 12 + 1) * _A2 * _F(-1, 6), "E22"),
    ),
}


def calogero(form: str, d: int = 1) -> MatrixDiffOp:
    """The rational model at a formal k: differential, lie-algebraic or
    matrix form (the differential form is scalar whatever d)."""
    w = OMEGA
    nu = NU
    if form == "differential":
        x1, x2, d1, d2 = _x_d_ops(1)
        op = (
            x1 * d1 * d1 * (-2)
            - x2 * d1 * d2 * 6
            + x1 * x1 * d2 * d2 * _F(2, 3)
            - (x1 * w * 4 + (nu * 3 + 1) * 2) * d1
            - x2 * d2 * (w * 6)
        )
        return op
    if form == "liealgebraic":
        return _word_sum(WORDS["calogero"], build_gl_np1(K, gl2_irrep(d)))
    if form == "matrix":
        x1, x2, d1, d2 = _x_d_ops(d)
        M = gl2_irrep(d).ops
        ident = MatrixDiffOp.identity(d, 2)
        n = d - 1
        op = (
            x1 * d1 * d1 * (-2)
            - x2 * d1 * d2 * 6
            + x1 * x1 * d2 * d2 * _F(2, 3)
            - (x1 * (w * 2) + ident * (nu * 3 + 1) + ident * n - M[(2, 2)] * 2) * d1 * 2
            - (x2 * (w * 6) - M[(1, 2)] * x1 * _F(4, 3)) * d2
            + M[(1, 2)] * M[(1, 2)] * _F(2, 3)
            - ident * (w * (4 * n))
            - M[(2, 2)] * (w * 2)
        )
        return op
    raise ValueError("unknown form %r" % form)


def sutherland(form: str, d: int = 1) -> MatrixDiffOp:
    """The trigonometric model at a formal k: differential, lie-algebraic or
    matrix form (the differential form is scalar whatever d)."""
    nu = NU
    a2 = ALPHA * ALPHA
    a4 = a2 * a2
    if form == "differential":
        x1, x2, d1, d2 = _x_d_ops(1)
        op = (
            -(x1 * 2 + x1 * x1 * a2 * _F(1, 2) - x2 * x2 * a4 * _F(1, 24)) * d1 * d1
            - (MatrixDiffOp.identity(1, 2) * 6 + x1 * a2 * _F(4, 3)) * x2 * d1 * d2
            + (x1 * x1 * _F(2, 3) - x2 * x2 * a2 * _F(1, 2)) * d2 * d2
            - ((nu * 3 + 1) * 2 + x1 * a2 * (nu + _F(1, 3)) * 2) * d1
            - x2 * d2 * (a2 * (nu + _F(1, 3)) * 2)
        )
        return op
    if form == "liealgebraic":
        return _word_sum(WORDS["sutherland"], build_gl_np1(K, gl2_irrep(d)))
    if form == "matrix":
        x1, x2, d1, d2 = _x_d_ops(d)
        M = gl2_irrep(d).ops
        ident = MatrixDiffOp.identity(d, 2)
        n = d - 1
        op = (
            -(x1 * 2 + x1 * x1 * a2 * _F(1, 2) - x2 * x2 * a4 * _F(1, 24)) * d1 * d1
            - (ident * 6 + x1 * a2 * _F(4, 3)) * x2 * d1 * d2
            + (x1 * x1 * _F(2, 3) - x2 * x2 * a2 * _F(1, 2)) * d2 * d2
            - (
                ident * (nu * 3 + 1)
                + x1 * a2 * (nu + _F(1, 3))
                + ident * n
                - M[(2, 2)] * 2
            )
            * d1
            * 2
            + M[(2, 1)] * x2 * d1 * a4 * _F(1, 24)
            + (x2 * (a2 * (nu + _F(1, 3)) * 2) - M[(1, 2)] * x1 * _F(4, 3)) * d2
            - (
                (x1 * d1 + x2 * d2) * (3 * n)
                + M[(1, 1)] * x2 * d2
                + M[(2, 2)] * x1 * d1
            )
            * a2
            * _F(1, 3)
            + M[(1, 2)] * M[(1, 2)] * _F(2, 3)
            + M[(2, 1)] * M[(2, 1)] * a4 * _F(1, 24)
            - (M[(1, 1)] * M[(2, 2)] * 2 + ident * ((nu * 12 + 1 + 3 * n) * n))
            * a2
            * _F(1, 6)
        )
        return op
    raise ValueError("unknown form %r" % form)


MODELS = {"calogero": calogero, "sutherland": sutherland}
# the linear form in the weights (w1, w2) that grades each model's flag
GRADINGS = {"calogero": (2, 3), "sutherland": (1, 1)}
# the weight shift eps_a - eps_b (eps_0 = 0) of the gl_3 generator for e_ab
SHIFTS = {
    name: tuple((i == a) - (i == b) for i in (1, 2)) for name, (a, b) in gl_labels(2).items()
}
# the Cartan generators, e_aa: E11, E22 and E0
CARTAN = frozenset(name for name, (a, b) in gl_labels(2).items() if a == b)


def model_checks(kind: str, d: int):
    """({form: operator}, [scalar report, display report]) of one model at
    a formal k: the lie-algebraic combination at [k, 0] against the
    differential form, and the matrix display at [k, d-1] against the
    lie-algebraic combination there, which at d = 1 is the one operator
    both checks read."""
    build = MODELS[kind]
    lie1 = build("liealgebraic", 1)
    diff = build("differential", 1)
    lie = lie1 if d == 1 else build("liealgebraic", d)
    mat = build("matrix", d)
    reports = [
        _report("%s lie[k,0] = differential" % kind, lie1, diff),
        _report("%s matrix display vs lie [d=%d]" % (kind, d), mat, lie),
    ]
    return {"differential": diff, "liealgebraic": lie, "matrix": mat}, reports


# -- spectra ---------------------------------------------------------------------


class EigRecord:
    def __init__(
        self, exact: bool, pair: Optional[Tuple[Fraction, Fraction]], approx_re: float,
        approx_im: float = 0.0, err: Optional[float] = None
    ):
        self.exact = exact
        self.pair = pair  # a + b sqrt2 when exact
        self.approx_re = approx_re
        self.approx_im = approx_im
        self.err = err

    def sort_key(self):
        """Float order, a tie broken exactly (_exact_order)."""
        return (self.approx_re, self.approx_im, cmp_to_key(_exact_order)(self))

    def to_json(self) -> dict:
        if self.exact:
            a, b = self.pair
            return {"exact": True, "a": str(a), "b": str(b)}
        return {
            "exact": False,
            "re": "%.12e" % self.approx_re,
            "im": "%.12e" % self.approx_im,
            "err": _sci_up(self.err if self.err is not None else 0.0),
        }


def _exact_order(e: EigRecord, f: EigRecord) -> int:
    """-1, 0 or 1 as e sorts before, with or after f at equal floats: two
    exact values by the sign of their difference a + b sqrt2, and an exact
    value before an inexact one."""
    if not (e.exact and f.exact):
        return f.exact - e.exact
    a, b = e.pair[0] - f.pair[0], e.pair[1] - f.pair[1]
    if a * b >= 0:
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    return (a > 0) - (a < 0) if a * a > 2 * b * b else (b > 0) - (b < 0)


def _sci_up(x: float) -> str:
    """x >= 0 in "%.3e" form, rounded up so the printed bound is not below x."""
    d = Decimal(x)
    if not d:
        return "%.3e" % x
    d = d.quantize(Decimal(1).scaleb(d.adjusted() - 3), rounding=ROUND_CEILING)
    # formatted from the decimal itself: a float in between could round down
    mantissa, exponent = format(d, ".3e").split("e")
    return "%se%+03d" % (mantissa, int(exponent))


class SpectrumResult:
    def __init__(
        self, kind: str, k: int, d: int, bindings: Dict[str, Fraction],
        basis_dim: int, block_sizes: List[int], diagonal: bool, eigenvalues: List[EigRecord],
        charpolys: Optional[List[List[str]]] = None
    ):
        self.kind = kind
        self.k = k
        self.d = d
        self.bindings = bindings
        self.basis_dim = basis_dim
        self.block_sizes = block_sizes
        self.diagonal = diagonal
        self.eigenvalues = eigenvalues
        self.charpolys = [] if charpolys is None else charpolys

    def all_exact(self) -> bool:
        return all(e.exact for e in self.eigenvalues)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "form": "liealgebraic",
            "k": self.k,
            "d": self.d,
            "bindings": {k: str(v) for k, v in sorted(self.bindings.items())},
            "dim": self.basis_dim,
            "block_sizes": self.block_sizes,
            "diagonal": self.diagonal,
            "eigenvalues": [e.to_json() for e in self.eigenvalues],
            "charpolys": self.charpolys,
        }


class NotTriangularError(RuntimeError):
    pass


class WeightCertificateError(RuntimeError):
    """A discovered flag whose weight multiset is not that of flag_weights."""


# the generators that lower the highest-weight seed of [k, d-1] to all of it
LOWERING = ("E12", "T2+")


def _check_label(k: int, d: int):
    """ValueError unless [k, d-1] labels a flag: k >= d-1, then d >= 1."""
    if k < d - 1:
        # the label [k, d-1] needs k >= d-1: below that the triangle is
        # empty (d = 1) or the orbit of the seed never closes
        raise ValueError("no finite flag for k=%d with d=%d (needs k >= %d)" % (k, d, d - 1))
    if d < 1:
        raise ValueError("dimension must be at least 1")


def flag_weights(k: int, d: int) -> List[Tuple[int, int]]:
    """The weight (w1, w2) of each vector of a Gelfand-Tsetlin basis of the
    flag [k, d-1], the gl_3 irrep V(k, d-1, 0) (flag_basis): one per
    pattern (l12, l22, l11) with k >= l12 >= d-1 >= l22 >= 0 and l12 >= l11
    >= l22.  With the gl_3 indices ordered (0, 2, 1), E0, E22 and E11 take
    the values l11, l12 + l22 - l11 and k + d-1 - l12 - l22 on it.
    ValueError as flag_basis for a label with no flag.
    """
    _check_label(k, d)
    top = k + d - 1
    return [
        (top - l12 - l22, l12 + l22 - l11)
        for l12 in range(d - 1, k + 1)
        for l22 in range(d)
        for l11 in range(l22, l12 + 1)
    ]


def flag_basis(k: int, d: int, recorded=()) -> SpinorBasis:
    """The invariant flag of both models: the polynomial triangle for d = 1,
    the orbit closure of the seed e_(d-1) for the matrix extensions, in
    discovery order.

    The flag records the columns of E11, E22 (which give the weights) and
    of the gl_3 generators named in recorded (ValueError naming any other
    name), and no other.  For d >= 2, T1-, T2- and E21 kill the seed, so it
    is the highest-weight vector of [k, d-1] and the flag is U(n-) applied
    to it, n- spanned by E12, T2+ and T1+ = [E12, T2+]: the closure under
    E12 and T2+ alone is the whole flag.  The seed is closed under those two
    and the recorded generators outside CARTAN, recording only the latter.
    One record_action then adds every recorded column the basis lacks: all
    of them on the triangle, by one solve over their images, and the
    Cartan columns on the closure, read off its weight vectors.  The flag
    is returned through certify_flag, which reads its weights
    (basis.weights); the basis keeps them for its caller.
    """
    _check_label(k, d)
    gens = build_gl_np1(k, gl2_irrep(d)).named()
    unknown = set(recorded) - {name for name, _ in gens}
    if unknown:
        raise ValueError("unknown gl_3 generator %s" % ", ".join(sorted(unknown)))
    recorded = {"E11", "E22", *recorded}
    if d == 1:
        basis = scalar_basis(k, 1)
    else:
        roots = recorded - CARTAN
        ops = [(name, op) for name, op in gens if name in roots or name in LOWERING]
        basis = orbit_closure(ops, PolySpinor.unit(d - 1, d, 2), k + 2, roots)
    ops = [(name, op) for name, op in gens if name in recorded - basis.action.keys()]
    return certify_flag(record_action(ops, basis), k, d)


def certify_flag(basis: SpinorBasis, k: int, d: int) -> SpinorBasis:
    """basis, a discovered flag [k, d-1] with the columns of E11 and E22,
    once every vector is a weight vector and its weights (basis.weights)
    are those of flag_weights with multiplicity; else
    WeightCertificateError names the first vector that is not a weight
    vector, or else the first weight whose multiplicity differs.  Equal
    multisets have equal sizes, so this certifies the dimension too.  It is
    the one place a basis is refused for its weights.
    """
    weights = basis.weights
    if None in weights:
        raise WeightCertificateError(
            "basis vector %d is not a weight vector" % weights.index(None)
        )
    got = Counter(weights)
    want = Counter(flag_weights(k, d))
    for w in [*want, *got]:
        if got[w] != want[w]:
            raise WeightCertificateError(
                "flag [%d, %d] has weight %s %d times, its Gelfand-Tsetlin patterns %d times"
                % (k, d - 1, w, got[w], want[w])
            )
    return basis


def _grade_blocks(opm, grades):
    """({grade: [row, ...]}, diagonal) of an OperatorMatrix, from its nonzero
    entries: the rows of each grade in index order, the grades ascending.
    An entry (i, j) with grades[i] > grades[j] lies below the block diagonal
    and raises NotTriangularError, naming the entry with the least
    (grades[j], grades[i], i, j), the first a scan of the grade-sorted
    matrix meets.
    """
    blocks = {}
    for i in sorted(range(len(grades)), key=grades.__getitem__):
        blocks.setdefault(grades[i], []).append(i)
    below = [(grades[j], grades[i], i, j) for i, j in opm.terms if grades[i] > grades[j]]
    if below:
        *_, i, j = min(below)
        raise NotTriangularError("entry (%d,%d) breaks block triangularity" % (i, j))
    return blocks, not any(i != j and grades[i] == grades[j] for i, j in opm.terms)


def _lowers(word, form) -> bool:
    """Whether word lowers the grade form . w of every weight vector: each
    name a gl_3 generator and form . delta < 0 for the weight shift delta,
    the sum of their SHIFTS."""
    return all(name in SHIFTS for name in word) and sum(
        f * s for name in word for f, s in zip(form, SHIFTS[name])
    ) < 0


def spectrum(
    kind: str, words: tuple, k: int, d: int, bindings: Dict[str, object]
) -> SpectrumResult:
    """Exact spectrum of the model kind written as words (WORDS[kind], or
    any words in the gl_3 generators) on its invariant flag [k, d-1].

    The parameters are bound on the word coefficients only, and each one
    the words carry is required; every name must be a gl_3 generator
    (ValueError naming the others).  Then the words whose bound coefficient
    is 0 are dropped, and so are the words that lower the model's grade
    (_lowers): a word of weight shift delta has entry (i, j) 0 unless w_i =
    w_j + delta, so with form . delta < 0 it writes only entries strictly
    above the block diagonal, which change no block, eigenvalue or verdict.
    When every name left is a Cartan generator (CARTAN; so every Calogero
    input), the spectrum is read off the flag's weights (_weight_spectrum).
    Otherwise the flag is rediscovered from one generator set, which
    records the parameter-free matrix of every generator the other words
    use, and the matrix is their bound combination of products of those
    generator matrices (the flag is invariant, so the matrix of a product
    is the product of the matrices).  The model's grading must make it
    block upper triangular (_grade_blocks); _eigenvalues reads it.
    """
    bind = {name: Fraction(v) for name, v in bindings.items()}
    words = tuple((c.substitute(bind), word) for c, word in words)
    for i, name in enumerate(PARAMS):
        if any(exps[i] for c, _ in words for exps in c.terms):
            raise ValueError("binding for %s is required" % name)
    unknown = {name for _, word in words for name in word} - SHIFTS.keys()
    if unknown:
        raise ValueError("unknown gl_3 generator %s" % ", ".join(sorted(unknown)))
    form = GRADINGS[kind]
    words = tuple((c, word) for c, word in words if not c.is_zero() and not _lowers(word, form))
    names = {name for _, word in words for name in word}
    if names <= CARTAN:
        return _weight_spectrum(kind, words, k, d, bind)
    basis = flag_basis(k, d, names)
    grades = [form[0] * w1 + form[1] * w2 for w1, w2 in basis.weights]
    opm = matrix_of(words, basis)
    blocks, diagonal = _grade_blocks(opm, grades)
    eigs, charpolys = _eigenvalues(opm, blocks, diagonal)
    sizes = [len(rows) for rows in blocks.values()]
    return SpectrumResult(kind, k, d, bind, basis.dim, sizes, diagonal, eigs, charpolys)


def _weight_spectrum(kind, words, k, d, bind) -> SpectrumResult:
    """The spectrum of bound words in the Cartan generators alone.  Their
    matrix on a weight basis of the flag is diagonal, and its entry at the
    weight (w1, w2) is the words at E11 = w1, E22 = w2 and E0 = k + d-1 - w1
    - w2 (E0 + E11 + E22 acts as k + d-1 on V(k, d-1, 0)).  Each weight of
    flag_weights is one eigenvalue, evaluated once per distinct weight, and
    the grade blocks count the weights of each grade."""
    form = GRADINGS[kind]
    counts = Counter(flag_weights(k, d))
    top = k + d - 1
    pairs = [(c.constant_pair(), word) for c, word in words]
    records = {}
    sizes = Counter()
    for w, n in counts.items():
        at = {"E11": w[0], "E22": w[1], "E0": top - w[0] - w[1]}
        a = b = 0
        for (ca, cb), word in pairs:
            m = prod(at[name] for name in word)
            a += ca * m
            b += cb * m
        pair = (_half(a), _half(b))
        records[w] = EigRecord(True, pair, qp_float(pair))
        sizes[form[0] * w[0] + form[1] * w[1]] += n
    order = sorted(counts, key=lambda w: records[w].sort_key())
    eigs = [records[w] for w in order for _ in range(counts[w])]
    blocks = [sizes[g] for g in sorted(sizes)]
    return SpectrumResult(kind, k, d, bind, sum(counts.values()), blocks, True, eigs)


def _eigenvalues(opm, blocks, diagonal):
    """(eigenvalues in sort order, charpolys) of an OperatorMatrix with the
    blocks of _grade_blocks: read off the diagonal when the blocks are
    diagonal, else the roots of each block's characteristic polynomial,
    rational ones exact and the rest numeric."""
    eigs: List[EigRecord] = []
    charpolys: List[List[str]] = []
    if diagonal:
        for rows in blocks.values():
            for i in rows:
                pair = opm.terms.get((i, i), ZERO).constant_pair()
                eigs.append(EigRecord(True, pair, qp_float(pair)))
    else:
        for rows in blocks.values():
            poly = charpoly([[opm.terms.get((i, j), ZERO) for j in rows] for i in rows])
            charpolys.append([repr(c) for c in poly])
            roots, deflated = rational_roots(poly)
            for r in roots:
                eigs.append(EigRecord(True, (r, _F(0)), float(r)))
            if len(deflated) > 1:
                numeric, err = numeric_roots(deflated)
                for z in map(complex, numeric):
                    eigs.append(
                        EigRecord(False, None, z.real, z.imag, err)
                    )
    eigs.sort(key=EigRecord.sort_key)
    return eigs, charpolys


def _pattern_index(pair, step):
    """The integer n with pair = step * n, or None: each value of the
    scalar pattern is step * (2 p1 + 3 p2), and every one is 0 at step 0."""
    a, b = pair
    if b:
        return None
    if not step:
        return None if a else 0
    n, r = divmod(a.numerator * step.denominator, a.denominator * step.numerator)
    return None if r else n


def pattern_verdict(result: SpectrumResult, omega: Fraction) -> dict:
    """How the computed multiset relates to the scalar eigenvalue pattern
    -2 omega (2 p1 + 3 p2), p1 + p2 <= k: compared as the integers n of
    step * n, step = -2 omega (n = 0 for every value at omega = 0)."""
    step = Fraction(-2) * omega
    ns = [_pattern_index(e.pair, step) if e.exact else None for e in result.eigenvalues]
    if None in ns:
        return {"multiset_equal_to_scalar": False, "subset_of_pattern": False}
    k = result.k
    pattern = [
        2 * p1 + 3 * p2 if step else 0 for p1 in range(k + 1) for p2 in range(k + 1 - p1)
    ]
    return {
        "multiset_equal_to_scalar": sorted(ns) == sorted(pattern),
        "subset_of_pattern": all(n >= 0 and n != 1 for n in ns),
    }
