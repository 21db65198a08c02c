"""Exact verification suites: commutation tables, Casimirs, quadratic
relations, gradings, and the g^(m) structure checks.

Every check here is an identity of normal-ordered operators with k (and any
other parameter) kept symbolic, so a pass is a proof for all parameter
values, and a failure carries the exact residual operator rather than a
boolean.  Discrepancies against the engine's reference forms are reportable
data: the suites never patch a formula to force agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

from .coeff import Coeff
from .generators import GeneratorSet, GmGeneratorSet, gm_commutator_tower
from .linalg import (
    Indexer,
    QPEchelon,
    rank_of,
    scalarize,
    solve_combination,
)
from .weyl import MatrixDiffOp, ScalarDiffOp, commutator


@dataclass
class IdentityReport:
    """One verified identity: lhs = rhs with residual = lhs - rhs."""

    name: str
    lhs: MatrixDiffOp
    rhs: MatrixDiffOp
    residual: MatrixDiffOp

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


# -- gl_3 commutation table ----------------------------------------------------

# The unit-matrix labels e_ab of gl_3 (index 0 extra) of an n = 2
# generator set, in the order of GeneratorSet.named():
# E_ij = e_ij, E0 = e_00, T_i^- = e_0i, T_i^+ = e_i0.
_NAMED_LABELS = ((1, 1), (1, 2), (2, 1), (2, 2), (0, 0), (0, 1), (0, 2), (1, 0), (2, 0))


def _by_label(gens: GeneratorSet) -> Dict[Tuple[int, int], Tuple[str, MatrixDiffOp]]:
    """Label (a, b) -> (name, operator)."""
    return dict(zip(_NAMED_LABELS, gens.named()))


def commutation_table(gens: GeneratorSet) -> List[IdentityReport]:
    """All pairwise commutators against the gl_3 structure constants.

    The family matches the unit-matrix basis e_ab of gl_3 via
    E0 = e_00, T_i^- = e_0i, T_i^+ = e_i0, E_ij = e_ij, so the expected
    value of [g, h] is read off [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb.
    """
    if gens.n != 2:
        raise ValueError("the gl_3 table needs an n = 2 generator set")
    e = _by_label(gens)
    out = []
    zero = MatrixDiffOp.zero(gens.dim, gens.nvars)
    for (a, b), (c, d) in combinations_with_replacement(sorted(e), 2):
        (gname, g), (hname, h) = e[(a, b)], e[(c, d)]
        rhs = zero
        if b == c:
            rhs = rhs + e[(a, d)][1]
        if a == d:
            rhs = rhs - e[(c, b)][1]
        out.append(_report("[%s,%s]" % (gname, hname), commutator(g, h), rhs))
    return out


def block_commutation_reports(gens: GeneratorSet) -> List[IdentityReport]:
    """Matrix blocks commute with every pure differential part."""
    spec = gens.spec
    n, d = gens.n, gens.dim
    out = []
    pure = []
    for i in range(n):
        for j in range(n):
            pure.append(
                (
                    "x%dd%d" % (i + 1, j + 1),
                    MatrixDiffOp.from_scalar(
                        ScalarDiffOp.x(i, n) * ScalarDiffOp.d(j, n), d
                    ),
                )
            )
        pure.append(
            ("d%d" % (i + 1), MatrixDiffOp.from_scalar(ScalarDiffOp.d(i, n), d))
        )
    zero = MatrixDiffOp.zero(d, n)
    for bi in range(1, n + 1):
        for bj in range(1, n + 1):
            M = MatrixDiffOp.from_coeff_matrix(spec.rep.block(bi, bj), n)
            for pname, P in pure:
                out.append(
                    _report("[M%d%d,%s]" % (bi, bj, pname), commutator(M, P), zero)
                )
    return out


# -- Casimir operators -----------------------------------------------------------


def casimirs_gl3(gens: GeneratorSet):
    """(C1, C2, C3) built from the generators.

    C1 and C2 are the linear and quadratic trace invariants; C3 is the cubic trace
    invariant sum e_ab e_bc e_ca in the same labeling, whose closed form in
    C1, C2 is checked by casimir_closed_form_reports.
    """
    E, E0, Tm, Tp = gens.E, gens.E0, gens.Tminus, gens.Tplus
    C1 = E[(1, 1)] + E[(2, 2)] + E0
    C2 = (
        E[(1, 2)] * E[(2, 1)]
        + E[(2, 1)] * E[(1, 2)]
        + Tp[1] * Tm[1]
        + Tm[1] * Tp[1]
        + Tp[2] * Tm[2]
        + Tm[2] * Tp[2]
        + E[(1, 1)] * E[(1, 1)]
        + E[(2, 2)] * E[(2, 2)]
        + E0 * E0
    )
    e = {label: op for label, (_, op) in _by_label(gens).items()}
    C3 = MatrixDiffOp.zero(gens.dim, gens.nvars)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                C3 = C3 + e[(a, b)] * e[(b, c)] * e[(c, a)]
    return C1, C2, C3


def casimir_closed_form_reports(gens: GeneratorSet) -> List[IdentityReport]:
    """C1, C2 against their matrix-block closed forms; C3 against C1, C2."""
    spec = gens.spec
    n, d = gens.nvars, gens.dim
    k = spec.k
    C1, C2, C3 = casimirs_gl3(gens)
    M11 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(1, 1), n)
    M22 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(2, 2), n)
    M12 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(1, 2), n)
    M21 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(2, 1), n)
    ident = MatrixDiffOp.identity(d, n)
    c1m = M11 + M22
    c2m = M11 * M11 + M22 * M22 + M12 * M21 + M21 * M12
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


def casimir_value_report(gens: GeneratorSet, name: str, C: MatrixDiffOp, value: Coeff) -> IdentityReport:
    """C equals value times the identity, as a polynomial identity in k."""
    ident = MatrixDiffOp.identity(gens.dim, gens.nvars)
    return _report("%s = %r" % (name, value), C, ident * value)


def casimir_centrality(C: MatrixDiffOp, gens: GeneratorSet, cname: str) -> List[IdentityReport]:
    zero = MatrixDiffOp.zero(gens.dim, gens.nvars)
    return [
        _report("[%s,%s]" % (cname, name), commutator(C, op), zero)
        for name, op in gens.named()
    ]


# -- the nine quadratic relations -------------------------------------------------


def art_relations(gens: GeneratorSet) -> List[IdentityReport]:
    """The nine quadratic relations, left sides from generators, right sides
    from their closed mixed forms in x_i, d_i, M_ij and k."""
    spec = gens.spec
    n, dm = gens.nvars, gens.dim
    k = spec.k
    E, E0, Tm, Tp = gens.E, gens.E0, gens.Tminus, gens.Tplus

    x1 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(0, n), dm)
    x2 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(1, n), dm)
    d1 = MatrixDiffOp.from_scalar(ScalarDiffOp.d(0, n), dm)
    d2 = MatrixDiffOp.from_scalar(ScalarDiffOp.d(1, n), dm)
    M11 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(1, 1), n)
    M12 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(1, 2), n)
    M21 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(2, 1), n)
    M22 = MatrixDiffOp.from_coeff_matrix(spec.rep.block(2, 2), n)
    one = MatrixDiffOp.identity(dm, n)
    kI = one * k

    rel = []
    rel.append(
        (
            "Art.1",
            -(Tp[1] * E[(2, 2)]) + Tp[2] * E[(1, 2)],
            x1 * (M22 * x1 * d1 + M11 * x2 * d2 + (M11 - kI) * M22 - M21 * M12)
            - x2 * (x1 * d1 - kI - one) * M12
            - M21 * x1 * x1 * d2,
        )
    )
    rel.append(
        (
            "Art.2",
            -(Tp[2] * E[(1, 1)]) + Tp[1] * E[(2, 1)],
            x2 * (M22 * x1 * d1 + M11 * x2 * d2 + (M22 - kI) * M11 - M12 * M21)
            - x1 * (x2 * d2 - kI - one) * M21
            - M12 * x2 * x2 * d1,
        )
    )
    rel.append(
        (
            "Art.3",
            -(E[(1, 2)] * (E0 + one)) + Tp[1] * Tm[2],
            M12 * (x1 * d1 - kI - one) - M11 * x1 * d2,
        )
    )
    rel.append(
        (
            "Art.4",
            -(E[(2, 1)] * (E0 + one)) + Tp[2] * Tm[1],
            M21 * (x2 * d2 - kI - one) - M22 * x2 * d1,
        )
    )
    rel.append(
        (
            "Art.5",
            Tp[1] * Tm[1] - E[(1, 1)] * (one + E0),
            M11 * x2 * d2 - M12 * x2 * d1 - (kI + one) * M11,
        )
    )
    rel.append(
        (
            "Art.6",
            Tp[2] * Tm[2] - E[(2, 2)] * (one + E0),
            M22 * x1 * d1 - M21 * x1 * d2 - (kI + one) * M22,
        )
    )
    rel.append(
        (
            "Art.7",
            E[(1, 2)] * E[(2, 1)] - E[(1, 1)] * E[(2, 2)] - E[(1, 1)],
            M12 * x2 * d1
            + M21 * x1 * d2
            - M22 * x1 * d1
            - M11 * x2 * d2
            + M12 * M21
            - M11 * M22
            - M11,
        )
    )
    rel.append(
        (
            "Art.8",
            E[(2, 2)] * Tm[1] - E[(2, 1)] * Tm[2],
            M22 * d1 - M21 * d2,
        )
    )
    rel.append(
        (
            "Art.9",
            E[(1, 2)] * Tm[1] - E[(1, 1)] * Tm[2],
            M12 * d1 - M11 * d2,
        )
    )
    return [_report(name, lhs, rhs) for name, lhs, rhs in rel]


@dataclass
class DependencyResult:
    """The affine combination tying relations 5, 6, 7 to the Casimir C2."""

    coefficients: Dict[str, Fraction]
    reports: List[IdentityReport]

    @property
    def passed(self) -> bool:
        return bool(self.coefficients) and all(r.passed for r in self.reports)


_DEP_NAMES = ("art5", "art6", "art7", "C1^2", "C1", "1")


def _dependency_basis(gens: GeneratorSet):
    reports = art_relations(gens)
    A5, A6, A7 = (reports[i].lhs for i in (4, 5, 6))
    C1, C2, _ = casimirs_gl3(gens)
    ident = MatrixDiffOp.identity(gens.dim, gens.nvars)
    return [A5, A6, A7, C1 * C1, C1, ident], C2


def art_dependency(gens_list: Sequence[GeneratorSet]) -> DependencyResult:
    """Solve C2 = c5 A5 + c6 A6 + c7 A7 + a C1^2 + b C1 + c, exactly.

    A5, A6, A7 are the left sides of relations 5-7.  One representation
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
    for tag, gens in enumerate(gens_list):
        basis, C2 = _dependency_basis(gens)
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

# Relation r is the statement P1 = P2 with P1, P2 products of two named
# generators (scalar representation); the audit checks each product grading.
_ART_FACTORS = {
    "Art.1": (("T1+", "E22"), ("T2+", "E12")),
    "Art.2": (("T2+", "E11"), ("T1+", "E21")),
    "Art.3": (("E12", "E0"), ("T1+", "T2-")),
    "Art.4": (("E21", "E0"), ("T2+", "T1-")),
    "Art.5": (("T1+", "T1-"), ("E11", "E0")),
    "Art.6": (("T2+", "T2-"), ("E22", "E0")),
    "Art.7": (("E12", "E21"), ("E11", "E22")),
    "Art.8": (("E22", "T1-"), ("E21", "T2-")),
    "Art.9": (("E12", "T1-"), ("E11", "T2-")),
}

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


@dataclass
class GradingLine:
    name: str
    factors: tuple
    computed: tuple  # ((g,g),(g,g)) for the two products
    balanced: bool
    matches_reference: bool


@dataclass
class GradingReport:
    generator_grades: Dict[str, tuple]
    lines: List[GradingLine]

    @property
    def all_balanced(self) -> bool:
        return all(l.balanced for l in self.lines)

    def mismatched_lines(self):
        return [l.name for l in self.lines if not l.matches_reference]


def grading_audit(gens: GeneratorSet) -> GradingReport:
    """Vector grading of the scalar-representation generators and of the
    two products in each quadratic relation."""
    if gens.dim != 1:
        raise ValueError("the grading audit runs on the scalar representation")
    grades = {}
    for name, op in gens.named():
        g = op.entries[0][0].grade_vector()
        if g is None:
            raise ValueError("generator %s is not grading-homogeneous" % name)
        grades[name] = g
    lines = []
    for name, (p1, p2) in _ART_FACTORS.items():
        c1 = (grades[p1[0]], grades[p1[1]])
        c2 = (grades[p2[0]], grades[p2[1]])
        total1 = tuple(a + b for a, b in zip(*c1))
        total2 = tuple(a + b for a, b in zip(*c2))
        ref = REFERENCE_GRADINGS[name]
        matches = {c1, c2} == {ref[0], ref[1]} or (c1, c2) == ref
        lines.append(
            GradingLine(
                name=name,
                factors=(p1, p2),
                computed=(c1, c2),
                balanced=total1 == total2,
                matches_reference=matches,
            )
        )
    return GradingReport(grades, lines)


# -- g^(m) structure ---------------------------------------------------------------


def gm_tower_reports(gm: GmGeneratorSet) -> List[IdentityReport]:
    """Commutativity inside each tower and nilpotency one step past U_m."""
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
    tower = gm_commutator_tower(gm)
    out.append(_report("U%d = 0" % (gm.m + 1), tower[gm.m + 1], zero))
    return out


def gm_tower_constants(gm: GmGeneratorSet):
    """Exact ratios between the commutator-built tower and the closed forms.

    Returns a list of Fractions c_i with  [..[U_0, J21], .., J21] (i times)
    equal to c_i * U_i, or None entries where no exact ratio exists.
    """
    tower = gm_commutator_tower(gm)
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


@dataclass
class ClosureReport:
    """Membership of each [T_i^-, U_j] in the Cartan enveloping filtration."""

    m: int
    degree_cap: int
    memberships: Dict[Tuple[int, int], int | None]  # (i, j) -> minimal degree

    @property
    def closed(self) -> bool:
        return all(v is not None for v in self.memberships.values())

    @property
    def max_degree(self):
        degs = [v for v in self.memberships.values() if v is not None]
        return max(degs) if degs else None


def gm_closure_check(gm: GmGeneratorSet, degree_cap: int | None = None) -> ClosureReport:
    """Find the minimal filtration degree containing every [T_i^-, U_j].

    Filtration degree deg is spanned by the PBW products of degree <= deg
    times powers k^0 .. k^(cap+1).  One echelon grows tier by tier; after
    each tier only the targets not yet inside are reduced, and a target's
    degree is the first tier that leaves it no residual.
    """
    cap = degree_cap if degree_cap is not None else gm.m
    kpowers = [Coeff.param("k") ** t for t in range(1, cap + 2)]
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
    for deg, prods in enumerate(_pbw_tiers(gm, cap)):
        if not pending:
            break
        for op in prods:
            base = op.coords()
            ech.insert(scalarize(base, ix))
            for kt in kpowers:
                ech.insert(scalarize({key: c * kt for key, c in base.items()}, ix))
        for key, vec in list(pending.items()):
            res, _ = ech.reduce(vec)
            if res:
                # res differs from the target by a vector of this tier, so
                # it lies in a later tier exactly when the target does
                pending[key] = res
            else:
                memberships[key] = deg
                del pending[key]
    return ClosureReport(gm.m, cap, memberships)


def g1_matches_gl3(gm: GmGeneratorSet, gl3: GeneratorSet):
    """Span equality of the g^(1) family with the scalar gl_3 family.

    Both spans have dimension 9 over Q(sqrt2) with k symbolic (they are the
    same nine-dimensional operator space).  The spans are equal exactly when
    both ranks equal the rank of their union.  Returns (equal, dim_g1, dim_gl3).
    """
    a = [op.coords() for op in gm.all_ops()]
    b = [op.coords() for op in gl3.all_ops()]
    ra, rb = rank_of(a), rank_of(b)
    return ra == rb == rank_of(a + b), ra, rb
