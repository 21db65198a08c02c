"""Exact verification suites: commutation tables, Casimirs, quadratic
relations, gradings, and the g^(m) structure checks.

Every check here is an identity of normal-ordered operators with k (and any
other parameter) kept symbolic, so a pass is a proof for all parameter
values, and a failure carries the exact residual operator rather than a
boolean.  Discrepancies against the engine's reference forms are reportable
data: the suites never patch a formula to force agreement.  The commutation
table and the Casimir traces hold for any n; the Casimir closed forms, the
nine relations and the gradings are the n = 2 (gl_3) statements.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .generators import GeneratorSet, GmGeneratorSet, _word, _word_sum, _x_d_ops
from .linalg import (
    Indexer,
    QPEchelon,
    rank_of,
    scalarize,
    solve_combination,
)
from .matrixreps import structure_constants
from .weyl import MatrixDiffOp, _coeffs, commutator


class IdentityReport:
    """One verified identity: lhs = rhs with residual = lhs - rhs."""

    def __init__(
        self, name: str, lhs: MatrixDiffOp, rhs: MatrixDiffOp, residual: MatrixDiffOp
    ):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.residual = residual

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()

    @property
    def residual_terms(self) -> int:
        return self.residual.term_count()

    def record(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "residual_terms": self.residual_terms,
        }


def _report(name, lhs, rhs) -> IdentityReport:
    return IdentityReport(name, lhs, rhs, lhs - rhs)


# -- gl_{n+1} commutation table -------------------------------------------------


def commutation_table(gens: GeneratorSet) -> List[IdentityReport]:
    """All pairwise commutators against the gl_{n+1} structure constants.

    Each generator stands for a unit matrix e_ab of gl_{n+1}
    (GeneratorSet.labelled), so the expected value of [g, h] is read off
    [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb (structure_constants).
    """
    e = gens.labelled()
    return [
        _report("[%s,%s]" % (e[p][0], e[q][0]), lhs, rhs)
        for p, q, lhs, rhs in structure_constants(_units(gens))
    ]


# -- Casimir operators -----------------------------------------------------------


def _trace(e, idx, power: int) -> MatrixDiffOp:
    """tr(E^power) for the operator matrix E = (e[a, b]), a, b in idx.

    F = E^(power - 1) entry by entry, F_ac = sum_b e_ab F'_bc, then tr(F E),
    each a sum of products in one raw accumulation: 27 + 9 products for C3
    at n = 2.
    """
    if power == 1:
        return sum((e[a, a] for a in idx[1:]), e[idx[0], idx[0]])
    F = e
    for _ in range(power - 2):
        F = {(a, c): _sum_of_products((e[a, b], F[b, c]) for b in idx) for a in idx for c in idx}
    return _sum_of_products((F[a, c], e[c, a]) for a in idx for c in idx)


def _sum_of_products(pairs) -> MatrixDiffOp:
    """The sum of x o y over the (x, y) in pairs, as commutator sums its two."""
    acc = {}
    for x, y in pairs:
        x._compose_into(acc, y, 1)
    return x._like(_coeffs(acc))


def _units(gens: GeneratorSet) -> Dict[Tuple[int, int], MatrixDiffOp]:
    """Label (a, b) -> the generator that stands for e_ab."""
    return {label: op for label, (_, op) in gens.labelled().items()}


def _casimirs_c1_c2(gens: GeneratorSet):
    """(C1, C2): the linear and quadratic trace invariants."""
    e, idx = _units(gens), range(gens.n + 1)
    return _trace(e, idx, 1), _trace(e, idx, 2)


def casimirs_gl3(gens: GeneratorSet):
    """(C1, C2, C3) built from the generators.

    C1 and C2 are the linear and quadratic trace invariants; C3 is the cubic
    trace invariant sum e_ab e_bc e_ca over the labels of
    GeneratorSet.labelled, whose closed form in C1, C2 is checked by
    casimir_closed_form_reports.  C3 is the dearest of the three, so a caller
    builds the triple once and passes it on; the relation suite, which needs
    only C1 and C2, never builds it.
    """
    C1, C2 = _casimirs_c1_c2(gens)
    return C1, C2, _trace(_units(gens), range(gens.n + 1), 3)


def casimir_closed_form_reports(
    gens: GeneratorSet, casimirs: Tuple[MatrixDiffOp, MatrixDiffOp, MatrixDiffOp]
) -> List[IdentityReport]:
    """C1, C2 against their matrix-block closed forms; C3 against C1, C2.

    casimirs is the triple (C1, C2, C3) that casimirs_gl3(gens) returns.
    C1(M) and C2(M) are the same traces over the blocks M_ij, i, j in 1..n.
    """
    n, d = gens.nvars, gens.dim
    k = gens.k
    C1, C2, C3 = casimirs
    ident = MatrixDiffOp.identity(d, n)
    M, idx = gens.rep.ops, range(1, n + 1)
    c1m, c2m = _trace(M, idx, 1), _trace(M, idx, 2)
    out = [
        _report("C1 = k + C1(M)", C1, ident * k + c1m),
        _report("C2 = k(k+2) + C2(M) - C1(M)", C2, ident * (k * (k + 2)) + c2m - c1m),
    ]
    half = Fraction(1, 2)
    threehalves = Fraction(3, 2)
    closed = (
        (C1 * C1 * C1) * (-half)
        + (C1 * C2) * threehalves
        + C2 * 3
        - (C1 * C1) * 2
        - C1 * 2
    )
    out.append(_report("C3 = -C1^3/2 + 3C1C2/2 + 3C2 - 2C1^2 - 2C1", C3, closed))
    return out


def casimir_centrality(C: MatrixDiffOp, gens: GeneratorSet, cname: str) -> List[IdentityReport]:
    zero = MatrixDiffOp.zero(gens.dim, gens.nvars)
    return [
        _report("[%s,%s]" % (cname, name), commutator(C, op), zero)
        for name, op in gens.named()
    ]


# -- the nine quadratic relations -------------------------------------------------


# The left side of each relation as words (generators._word), its two
# quadratic words first: the products the grading audit grades.
ART_WORDS = {
    "Art.1": (_word(-1, "T1+", "E22"), _word(1, "T2+", "E12")),
    "Art.2": (_word(-1, "T2+", "E11"), _word(1, "T1+", "E21")),
    "Art.3": (_word(-1, "E12", "E0"), _word(1, "T1+", "T2-"), _word(-1, "E12")),
    "Art.4": (_word(-1, "E21", "E0"), _word(1, "T2+", "T1-"), _word(-1, "E21")),
    "Art.5": (_word(1, "T1+", "T1-"), _word(-1, "E11", "E0"), _word(-1, "E11")),
    "Art.6": (_word(1, "T2+", "T2-"), _word(-1, "E22", "E0"), _word(-1, "E22")),
    "Art.7": (_word(1, "E12", "E21"), _word(-1, "E11", "E22"), _word(-1, "E11")),
    "Art.8": (_word(1, "E22", "T1-"), _word(-1, "E21", "T2-")),
    "Art.9": (_word(1, "E12", "T1-"), _word(-1, "E11", "T2-")),
}


def art_relations(gens: GeneratorSet) -> List[IdentityReport]:
    """The nine quadratic relations, left sides from their words
    (ART_WORDS), right sides from their closed mixed forms in x_i, d_i,
    M_ij and k."""
    x1, x2, d1, d2 = _x_d_ops(gens.dim, gens.nvars)
    M = gens.rep.ops
    M11, M12, M21, M22 = M[(1, 1)], M[(1, 2)], M[(2, 1)], M[(2, 2)]
    one = MatrixDiffOp.identity(gens.dim, gens.nvars)
    kI = one * gens.k
    rhs = {
        "Art.1": x1 * (M22 * x1 * d1 + M11 * x2 * d2 + (M11 - kI) * M22 - M21 * M12)
        - x2 * (x1 * d1 - kI - one) * M12
        - M21 * x1 * x1 * d2,
        "Art.2": x2 * (M22 * x1 * d1 + M11 * x2 * d2 + (M22 - kI) * M11 - M12 * M21)
        - x1 * (x2 * d2 - kI - one) * M21
        - M12 * x2 * x2 * d1,
        "Art.3": M12 * (x1 * d1 - kI - one) - M11 * x1 * d2,
        "Art.4": M21 * (x2 * d2 - kI - one) - M22 * x2 * d1,
        "Art.5": M11 * x2 * d2 - M12 * x2 * d1 - (kI + one) * M11,
        "Art.6": M22 * x1 * d1 - M21 * x1 * d2 - (kI + one) * M22,
        "Art.7": M12 * x2 * d1
        + M21 * x1 * d2
        - M22 * x1 * d1
        - M11 * x2 * d2
        + M12 * M21
        - M11 * M22
        - M11,
        "Art.8": M22 * d1 - M21 * d2,
        "Art.9": M12 * d1 - M11 * d2,
    }
    return [
        _report(name, _word_sum(words, gens), rhs[name]) for name, words in ART_WORDS.items()
    ]


class DependencyResult:
    """The affine combination tying relations 5, 6, 7 to the Casimir C2."""

    def __init__(self, coefficients: Dict[str, Fraction], reports: List[IdentityReport]):
        self.coefficients = coefficients
        self.reports = reports

    @property
    def passed(self) -> bool:
        return bool(self.coefficients) and all(r.passed for r in self.reports)


_DEP_NAMES = ("art5", "art6", "art7", "C1^2", "C1", "1")


def _dependency_basis(gens: GeneratorSet, relations: Sequence[IdentityReport]):
    A5, A6, A7 = (relations[i].lhs for i in (4, 5, 6))
    C1, C2 = _casimirs_c1_c2(gens)
    ident = MatrixDiffOp.identity(gens.dim, gens.nvars)
    return [A5, A6, A7, C1 * C1, C1, ident], C2


def art_dependency(
    gens_list: Sequence[GeneratorSet], relations: Sequence[Sequence[IdentityReport]]
) -> DependencyResult:
    """Solve C2 = c5 A5 + c6 A6 + c7 A7 + a C1^2 + b C1 + c, exactly.

    A5, A6, A7 are the left sides of relations 5-7, read from relations[i],
    the reports art_relations(gens_list[i]) returned.  One representation
    alone underdetermines the coefficients (its Casimirs collapse to
    scalars), so the solve is joint over several generator sets; the
    rational solution then makes the combination an identity in every one
    of them, symbolically in k.
    """

    def vec(tag, op):
        return {(tag,) + key: c for key, c in op.coords().items()}

    stacked = [dict() for _ in _DEP_NAMES]
    target = {}
    per_gens = []
    for tag, (gens, reports) in enumerate(zip(gens_list, relations)):
        basis, C2 = _dependency_basis(gens, reports)
        per_gens.append((gens, basis, C2))
        for acc, op in zip(stacked, basis):
            acc.update(vec(tag, op))
        target.update(vec(tag, C2))

    sol = solve_combination(stacked, target)
    coeffs: Dict[str, Fraction] = {}
    if sol is not None and all(not pair[1] for pair in sol):
        coeffs = {name: pair[0] for name, pair in zip(_DEP_NAMES, sol)}

    reports = []
    for gens, basis, C2 in per_gens:
        combo = MatrixDiffOp.zero(gens.dim, gens.nvars)
        if coeffs:
            for name, op in zip(_DEP_NAMES, basis):
                combo = combo + op * coeffs[name]
        reports.append(
            _report("C2 from Art.5+6+7 (dim %d)" % gens.dim, C2, combo)
        )
    return DependencyResult(coeffs, reports)


# -- gradings ---------------------------------------------------------------------

# Reference grading decompositions for the nine relations.
REFERENCE_GRADINGS = {
    "Art.1": (((1, 0), (0, 0)), ((0, 1), (1, -1))),
    "Art.2": (((0, 1), (0, 0)), ((1, 0), (-1, 0))),
    "Art.3": (((1, -1), (0, 0)), ((1, 0), (0, -1))),
    "Art.4": (((-1, 1), (0, 0)), ((0, 1), (-1, 0))),
    "Art.5": (((1, 0), (-1, 0)), ((0, 0), (0, 0))),
    "Art.6": (((0, 1), (0, -1)), ((0, 0), (0, 0))),
    "Art.7": (((1, -1), (-1, 1)), ((0, 0), (0, 0))),
    "Art.8": (((0, 0), (-1, 0)), ((-1, 1), (0, -1))),
    "Art.9": (((0, 0), (0, -1)), ((1, -1), (-1, 0))),
}


class GradingLine:
    def __init__(self, name: str, computed: tuple, balanced: bool, matches_reference: bool):
        self.name = name
        self.computed = computed  # ((g,g),(g,g)) for the two products
        self.balanced = balanced
        self.matches_reference = matches_reference


class GradingReport:
    def __init__(self, generator_grades: Dict[str, tuple], lines: List[GradingLine]):
        self.generator_grades = generator_grades
        self.lines = lines

    @property
    def all_balanced(self) -> bool:
        return all(l.balanced for l in self.lines)

    def mismatched_lines(self):
        return [l.name for l in self.lines if not l.matches_reference]


def grading_audit(gens: GeneratorSet) -> GradingReport:
    """Vector grading of the scalar-representation generators and of the
    two products in each quadratic relation, its quadratic words."""
    if gens.dim != 1:
        raise ValueError("the grading audit runs on the scalar representation")
    grades = {}
    for name, op in gens.named():
        g = op.entries[0][0].grade_vector()
        if g is None:
            raise ValueError("generator %s is not grading-homogeneous" % name)
        grades[name] = g
    lines = []
    for name, words in ART_WORDS.items():
        c1, c2 = (tuple(map(grades.get, word)) for _, word in words if len(word) == 2)
        total1 = tuple(a + b for a, b in zip(*c1))
        total2 = tuple(a + b for a, b in zip(*c2))
        ref = REFERENCE_GRADINGS[name]
        matches = {c1, c2} == {ref[0], ref[1]}
        lines.append(
            GradingLine(
                name=name,
                computed=(c1, c2),
                balanced=total1 == total2,
                matches_reference=matches,
            )
        )
    return GradingReport(grades, lines)


# -- g^(m) structure ---------------------------------------------------------------


def gm_tower_reports(gm: GmGeneratorSet, tower) -> List[IdentityReport]:
    """Commutativity inside each tower and nilpotency one step past U_m.

    tower is gm_commutator_tower(gm), built once and shared with
    gm_tower_constants.
    """
    zero = MatrixDiffOp.zero(gm.dim, 2)
    out = []
    for i in range(gm.m + 1):
        for j in range(i + 1, gm.m + 1):
            out.append(
                _report(
                    "[T%d-,T%d-]" % (i, j),
                    commutator(gm.Tminus[i], gm.Tminus[j]),
                    zero,
                )
            )
            out.append(
                _report("[U%d,U%d]" % (i, j), commutator(gm.U[i], gm.U[j]), zero)
            )
    out.append(_report("U%d = 0" % (gm.m + 1), tower[gm.m + 1], zero))
    return out


def gm_tower_constants(gm: GmGeneratorSet, tower):
    """Exact ratios between the commutator-built tower and the closed forms.

    Returns a list of Fractions c_i with  [..[U_0, J21], .., J21] (i times)
    (tower[i] of gm_commutator_tower(gm)) equal to c_i * U_i, or None
    entries where no exact ratio exists.
    """
    ratios = []
    for i in range(1, gm.m + 1):
        sol = solve_combination([gm.U[i].coords()], tower[i].coords())
        if sol is None or sol[0][1]:
            ratios.append(None)
        else:
            ratios.append(sol[0][0])
    return ratios


def _pbw_tiers(gm: GmGeneratorSet, max_degree: int):
    """Ordered products of the Cartan-part generators, one list per degree.

    Yields the products of degree 0, 1, ..., max_degree in turn, so the
    concatenation of the first deg + 1 lists spans filtration degree deg.
    """
    ops = [g for _, g in gm.cartan()]
    frontier = [(MatrixDiffOp.identity(gm.dim, 2), 0)]
    yield [frontier[0][0]]
    for _ in range(max_degree):
        frontier = [
            (op * ops[idx], idx)
            for op, start in frontier
            for idx in range(start, len(ops))
        ]
        yield [op for op, _ in frontier]


class ClosureReport:
    """Membership of each [T_i^-, U_j] in the Cartan enveloping filtration."""

    def __init__(self, degree_cap: int, memberships: Dict[Tuple[int, int], int | None]):
        self.degree_cap = degree_cap
        self.memberships = memberships  # (i, j) -> minimal degree

    @property
    def closed(self) -> bool:
        return all(v is not None for v in self.memberships.values())

    @property
    def max_degree(self):
        degs = [v for v in self.memberships.values() if v is not None]
        return max(degs) if degs else None


def gm_closure_check(gm: GmGeneratorSet) -> ClosureReport:
    """Find the minimal filtration degree containing every [T_i^-, U_j].

    Filtration degree deg is spanned by the PBW products of degree <= deg
    times powers k^0 .. k^(m+1).  A product P times k^t has P's own
    (key, exps, pair) terms with t added to the k exponent, so each copy is
    inserted from P's terms with no Coeff product.  One echelon grows tier
    by tier; after each tier only the targets not yet inside are reduced,
    and a target's degree is the first tier that leaves it no residual.
    """
    ix = Indexer()
    memberships = {}
    pending = {}
    for i in range(gm.m + 1):
        for j in range(gm.m + 1):
            target = commutator(gm.Tminus[i], gm.U[j]).coords()
            if target:
                memberships[(i, j)] = None
                pending[(i, j)] = scalarize(target, ix)
            else:
                memberships[(i, j)] = 0

    ech = QPEchelon()
    for deg, prods in enumerate(_pbw_tiers(gm, gm.m)):
        if not pending:
            break
        for op in prods:
            terms = [
                (key, exps, pair)
                for key, c in op.terms.items()
                for exps, pair in c.terms.items()
            ]
            for t in range(gm.m + 2):
                ech.insert(
                    {ix((key, (e[0] + t, *e[1:]))): pair for key, e, pair in terms}
                )
        for key, vec in list(pending.items()):
            res, _ = ech.reduce(vec)
            if res:
                # res differs from the target by a vector of this tier, so
                # it lies in a later tier exactly when the target does
                pending[key] = res
            else:
                memberships[key] = deg
                del pending[key]
    return ClosureReport(gm.m, memberships)


def g1_matches_gl3(gm: GmGeneratorSet, gl3: GeneratorSet):
    """Span equality of the g^(1) family with the scalar gl_3 family.

    Both spans have dimension 9 over Q(sqrt2) with k symbolic (they are the
    same nine-dimensional operator space).  The spans are equal exactly when
    both ranks equal the rank of their union.  Returns (equal, dim_g1, dim_gl3).
    """
    a = [op.coords() for _, op in gm.named()]
    b = [op.coords() for _, op in gl3.named()]
    ra, rb = rank_of(a), rank_of(b)
    return ra == rb == rank_of(a + b), ra, rb
