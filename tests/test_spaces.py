from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from matrixweyl import (
    Coeff,
    DiffMonomial,
    MatrixDiffOp,
    Polynomial,
    PolySpinor,
    ScalarDiffOp,
    build_gl_np1,
    gl2_irrep,
)
from matrixweyl.identities import casimirs_gl3
from matrixweyl.models import (
    GRADINGS,
    WORDS,
    WeightCertificateError,
    calogero,
    certify_flag,
    flag_basis,
    sutherland,
)
from matrixweyl.spaces import (
    NotInvariantError,
    SpaceNotClosedError,
    SpinorBasis,
    basis_contains,
    hexagon_audit,
    matrix_of,
    orbit_closure,
    record_action,
    scalar_basis,
    top_layer_spinors,
)
from matrixweyl import spaces
from matrixweyl.linalg import QPEchelon, rank_of, span_contains
from helpers_mw import C, apply_orbit_closure, spinor


S2 = Coeff.sqrt2()


def closure(k, d, cap=None):
    gens = build_gl_np1(k, gl2_irrep(d))
    seed = PolySpinor.unit(d - 1, d, 2)
    return orbit_closure(
        gens.named(), seed, degree_cap=cap if cap is not None else k + 2
    )


def test_scalar_basis_counts_and_monomials():
    b = scalar_basis(2, 1)
    assert b.dim == 6
    monos = {v.components[0].terms.copy().popitem()[0] for v in b.vectors}
    assert monos == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}

    assert scalar_basis(0, 3).dim == 1

    b32 = scalar_basis(3, 2)
    monos = {v.components[0].terms.copy().popitem()[0] for v in b32.vectors}
    assert monos == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)}


def test_each_basis_gets_its_own_action():
    raws = scalar_basis(1, 1).raws
    a, b = SpinorBasis(raws, (1, 2)), SpinorBasis(raws, (1, 2))
    a.action["E0"] = ()
    assert a.action is not b.action and b.action == {}


def test_orbit_dimensions():
    expected = {(1, 2): 3, (2, 2): 8, (3, 2): 15, (4, 2): 24, (2, 3): 6, (3, 3): 15}
    for (k, d), dim in expected.items():
        assert closure(k, d).dim == dim


def test_orbit_k1_matches_reference_triplet():
    basis = closure(1, 2)
    reference = [
        spinor(2, [], [((0, 0), 1)]),                  # P-
        spinor(2, [((0, 0), 1)], []),                  # P+
        spinor(2, [((0, 1), 1)], [((1, 0), -1)]),      # Y1
    ]
    assert basis_contains(basis, reference)
    assert rank_of([v.coords() for v in reference]) == basis.dim


def octet_vectors():
    return [
        spinor(2, [], [((0, 0), 1)]),
        spinor(2, [((0, 0), 1)], []),
        spinor(2, [], [((0, 1), 1)]),              # P-^(1)
        spinor(2, [], [((1, 0), 1)]),              # Y1^(1)
        spinor(2, [((0, 1), 1)], []),              # Y1^(2)
        spinor(2, [((1, 0), 1)], []),              # P+^(1)
        spinor(2, [((0, 2), 1)], [((1, 1), -1)]),  # Y2
        spinor(2, [((1, 1), 1)], [((2, 0), -1)]),  # Y3
    ]


def test_orbit_k2_matches_reference_octet():
    basis = closure(2, 2)
    reference = octet_vectors()
    assert basis_contains(basis, reference)
    assert rank_of([v.coords() for v in reference]) == 8


def test_orbit_k3_contains_all_reference_vectors():
    basis = closure(3, 2)
    reference = octet_vectors()[:6] + [
        spinor(2, [], [((0, 2), 1)]),              # P-^(2)
        spinor(2, [((2, 0), 1)], []),              # P+^(2)
        spinor(2, [], [((1, 1), 1)]),              # Y2^(1)
        spinor(2, [((0, 2), 1)], []),              # Y2^(2)
        spinor(2, [], [((2, 0), 1)]),              # Y3^(1)
        spinor(2, [((1, 1), 1)], []),              # Y3^(2)
        spinor(2, [((0, 3), 1)], [((1, 2), -1)]),  # Y8
        spinor(2, [((1, 2), 1)], [((2, 1), -1)]),  # Y9
        spinor(2, [((2, 1), 1)], [((3, 0), -1)]),  # Y10
    ]
    assert basis_contains(basis, reference)
    assert rank_of([v.coords() for v in reference]) == 15


def test_containment_chain():
    v1, v2, v3 = closure(1, 2), closure(2, 2), closure(3, 2)
    assert basis_contains(v2, v1.vectors)
    assert basis_contains(v3, v2.vectors)
    assert not basis_contains(v1, v2.vectors)


def test_central_vector_linear_relation():
    # Y1 = -Y1^(1) + Y1^(2) among the reference octet vectors
    y1 = spinor(2, [((0, 1), 1)], [((1, 0), -1)])
    y1_1 = spinor(2, [], [((1, 0), 1)])
    y1_2 = spinor(2, [((0, 1), 1)], [])
    assert -y1_1 + y1_2 == y1


def test_di_antiquark_multiplet_k2_d3():
    basis = closure(2, 3)
    reference = [
        spinor(2, [], [], [((0, 0), 1)]),
        spinor(2, [], [((0, 0), 1)], []),
        spinor(2, [((0, 0), 1)], [], []),
        spinor(2, [], [((0, 1), 1)], [((1, 0), -S2)]),
        spinor(2, [((0, 1), -S2)], [((1, 0), 1)], []),
        spinor(2, [((0, 2), 1)], [((1, 1), -S2)], [((2, 0), 1)]),
    ]
    assert basis_contains(basis, reference)
    assert rank_of([v.coords() for v in reference]) == 6


def test_k3_d3_fifteen_reference_vectors():
    basis = closure(3, 3)
    reference = [
        spinor(2, [], [], [((0, 0), 1)]),
        spinor(2, [], [((0, 0), 1)], []),
        spinor(2, [((0, 0), 1)], [], []),
        spinor(2, [], [((0, 1), 1)], []),
        spinor(2, [], [], [((1, 0), 1)]),
        spinor(2, [((0, 1), 1)], [], []),
        spinor(2, [], [((1, 0), 1)], []),
        spinor(2, [], [], [((0, 1), 1)]),
        spinor(2, [((1, 0), 1)], [], []),
        spinor(2, [((0, 2), -S2)], [((1, 1), 1)], []),
        spinor(2, [], [((1, 1), 1)], [((2, 0), -S2)]),
        spinor(2, [], [((0, 2), -S2)], [((1, 1), 2)]),
        spinor(2, [((1, 1), 2)], [((2, 0), -S2)], []),
        spinor(2, [((0, 3), 1)], [((1, 2), -S2)], [((2, 1), 1)]),
        spinor(2, [((1, 2), 1)], [((2, 1), -S2)], [((3, 0), 1)]),
    ]
    assert basis_contains(basis, reference)
    assert rank_of([v.coords() for v in reference]) == 15


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hexagon_audit(k):
    basis = closure(k, 2)
    # the audit counts the multiplicities that the certificate checks
    assert certify_flag(basis, k, 2) is basis
    report = hexagon_audit(basis, k)
    assert report.passed, report.issues
    assert basis.dim == k * (k + 2)
    assert report.layer_sizes == _expected_layers(k)
    # top layer spans the reference homogeneous pattern
    assert len(top_layer_spinors(k)) == k


def _doctored_audit(k, doctor):
    """hexagon_audit of the [k, 1] basis whose pair maps are doctor(raws,
    degrees) of the closure's, with its Cartan columns added."""
    basis = closure(k, 2)
    degrees = [v.total_degree() for v in basis.vectors]
    doctored = SpinorBasis(doctor(list(basis.raws), degrees), basis.shape)
    cartan = [(name, op) for name, op in build_gl_np1(k, gl2_irrep(2)).named()
              if name in ("E11", "E22")]
    return hexagon_audit(record_action(cartan, doctored), k)


def _expected_layers(k):
    return tuple(2 * (t + 1) for t in range(k)) + (k,)


_CONTAINS = "degree<=k-1 spinors are not all contained"
_TOP = "top layer does not match the expected k-vector pattern"


@pytest.mark.parametrize(
    "k, layers", [(1, (2,)), (2, (2, 4, 1)), (3, (2, 4, 6, 2)), (4, (2, 4, 6, 8, 3))]
)
def test_the_audit_finds_a_missing_top_layer_vector(k, layers):
    def doctor(raws, degrees):
        del raws[degrees.index(k)]
        return raws

    report = _doctored_audit(k, doctor)
    assert report.issues == ("layers %s, expected %s" % (layers, _expected_layers(k)), _TOP)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_audit_finds_a_top_layer_vector_off_the_pattern(k):
    # x^(i, k-i) e_0 has the degree of the top layer, not its span
    for i in range(k):
        def doctor(raws, degrees):
            raws[[j for j, t in enumerate(degrees) if t == k][i]] = {(0, (i, k - i)): (1, 0)}
            return raws

        assert _doctored_audit(k, doctor).issues == (_TOP,)


@pytest.mark.parametrize(
    "k, layers", [(1, (1, 1)), (2, (2, 3, 2)), (3, (2, 4, 5, 3)), (4, (2, 4, 6, 7, 4))]
)
def test_the_audit_finds_a_missing_low_degree_vector(k, layers):
    def doctor(raws, degrees):
        del raws[degrees.index(k - 1)]
        return raws

    report = _doctored_audit(k, doctor)
    assert report.issues == ("layers %s, expected %s" % (layers, _expected_layers(k)), _CONTAINS)


def reference_weight(v, d):
    """Oracle: the weight of a spinor from its terms, x^p e_j having weight
    (p1 + M11[j][j], p2 + M22[j][j]); None when the terms disagree."""
    rep = gl2_irrep(d)
    diag = [
        [rep.block(i, i)[j][j].constant_pair()[0] for j in range(d)] for i in (1, 2)
    ]
    found = {(p[0] + diag[0][j], p[1] + diag[1][j]) for j, p in v.coords()}
    return found.pop() if len(found) == 1 else None


@pytest.mark.parametrize(
    "kind, k, d",
    [(kind, k, d) for kind in ("calogero", "sutherland") for d in (1, 2, 3)
     for k in range(d - 1, 5)],
)
def test_flag_column_weights_equal_the_reference_weights(kind, k, d):
    basis = flag_basis(k, d)
    reference = [reference_weight(v, d) for v in basis.vectors]
    assert list(basis.weights) == reference
    assert None not in basis.weights
    # the grades spectrum reads off basis.weights, against the reference's
    form = GRADINGS[kind]
    grades = [form[0] * w1 + form[1] * w2 for w1, w2 in basis.weights]
    assert grades == [form[0] * w1 + form[1] * w2 for w1, w2 in reference]


def test_reference_weight_of_reference_vectors():
    y1 = spinor(2, [((0, 1), 1)], [((1, 0), -1)])
    assert reference_weight(y1, 2) == (1, 1)
    assert reference_weight(PolySpinor.unit(1, 2, 2), 2) == (0, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closure_column_weights_equal_the_reference_weights(k):
    # the bases of `space --d 2`, in discovery order
    basis = closure(k, 2)
    assert list(basis.weights) == [reference_weight(v, 2) for v in basis.vectors]


def test_non_weight_seed_is_reported_by_the_audit():
    # e_0 + e_1 has weights (1, 0) and (0, 1) in its two components; it spans
    # the flag [2, 1] with the rest, so the audit's checks of the span pass,
    # and the certificate, which `space` runs before the audit, refuses it
    # as it does for the spectrum's grading (test_models)
    seed = PolySpinor.unit(0, 2, 2) + PolySpinor.unit(1, 2, 2)
    gens = build_gl_np1(2, gl2_irrep(2))
    basis = orbit_closure(gens.named(), seed, degree_cap=4)
    assert basis.weights[0] is None
    with pytest.raises(WeightCertificateError, match="^basis vector 0 is not a weight vector$"):
        certify_flag(basis, 2, 2)


def test_matrix_of_euler_complement_diagonal():
    basis = scalar_basis(1, 1)
    gens = build_gl_np1(1, gl2_irrep(1))
    m = matrix_of(gens.E0, basis)
    rows = m.rows()
    assert rows[0][0] == Coeff.one()
    for i in (1, 2):
        assert rows[i][i].is_zero()
    offdiag = [rows[i][j] for i in range(3) for j in range(3) if i != j]
    assert all(c.is_zero() for c in offdiag)


def test_matrix_of_lowering_single_entry():
    basis = scalar_basis(1, 1)  # ordered 1, x1, x2
    gens = build_gl_np1(1, gl2_irrep(1))
    m = matrix_of(gens.Tminus[1], basis)
    rows = m.rows()
    nonzero = {
        (i, j) for i in range(3) for j in range(3) if not rows[i][j].is_zero()
    }
    assert nonzero == {(0, 1)}
    assert rows[0][1] == Coeff.one()


def test_casimir_matrix_is_four_identity_on_triplet():
    gens = build_gl_np1(1, gl2_irrep(2))
    _, C2, _ = casimirs_gl3(gens)
    basis = closure(1, 2)
    m = matrix_of(C2, basis)
    rows = m.rows()
    for i in range(3):
        for j in range(3):
            expected = Coeff.rational(4) if i == j else Coeff.zero()
            assert rows[i][j] == expected


def test_every_generator_preserves_the_space():
    for k, d in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        basis = closure(k, d)
        gens = build_gl_np1(k, gl2_irrep(d))
        for name, op in gens.named():
            matrix_of(op, basis)  # raises on failure


def test_not_invariant_error_carries_residual():
    basis = scalar_basis(1, 1)
    x1 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(0, 2) * ScalarDiffOp.x(0, 2), 1)
    with pytest.raises(NotInvariantError) as err:
        matrix_of(x1, basis)
    assert not err.value.residual.is_zero()


@pytest.mark.parametrize("build,k,d", [(calogero, 4, 2), (sutherland, 3, 2)])
def test_matrix_of_reconstructs_every_image(build, k, d):
    # sum_i M[i][j] b_i == op(b_j) exactly, parameters (omega, nu, alpha) kept
    op = build("liealgebraic", d)
    basis = flag_basis(k, d)
    m = matrix_of(op, basis)
    zero = PolySpinor.zero(d, 2)
    for j, bj in enumerate(basis.vectors):
        rebuilt = zero
        for i, bi in enumerate(basis.vectors):
            rebuilt = rebuilt + bi.scale(m.entries[i][j])
        assert rebuilt == op.apply(bj), "column %d" % j


def test_not_invariant_error_names_first_failing_column():
    # basis 1, x1, x2 under multiplication by x1: 1 -> x1 stays inside,
    # x1 -> x1^2 is the first image to leave the span
    basis = scalar_basis(1, 1)
    x1 = MatrixDiffOp.from_scalar(ScalarDiffOp.x(0, 2), 1)
    with pytest.raises(NotInvariantError) as err:
        matrix_of(x1, basis)
    assert err.value.index == 1
    assert err.value.residual == spinor(2, [((2, 0), 1)])


def test_orbit_cap_failure_reports():
    # k bound to a non-integer rational never closes: the cap must trip
    halfgens = build_gl_np1(Fraction(1, 2), gl2_irrep(1))
    seed = PolySpinor.unit(0, 1, 2)
    with pytest.raises(SpaceNotClosedError):
        orbit_closure(halfgens.named(), seed, degree_cap=6)


# -- the generator action the orbit closure records ------------------------------

GL3_NAMES = ("E11", "E12", "E21", "E22", "E0", "T1-", "T2-", "T1+", "T2+")
FLAGS = [(k, d) for d in (1, 2, 3) for k in range(max(d - 1, 0), 5)] + [(8, 3)]


def recorded_matrix(basis, name):
    """The recorded columns of name on basis as an N x N Coeff grid."""
    n = basis.dim
    rows = [[Coeff.zero()] * n for _ in range(n)]
    for j, col in enumerate(basis.action[name]):
        for i, pair in col.items():
            rows[i][j] = Coeff.rational(*pair)
    return rows


@pytest.mark.parametrize("k, d", FLAGS)
def test_recorded_generator_columns_equal_matrix_of(k, d):
    # oracle: apply the generator to every basis vector and solve
    basis = flag_basis(k, d, GL3_NAMES)
    assert set(basis.action) == set(GL3_NAMES)
    gens = build_gl_np1(k, gl2_irrep(d))
    for name, op in gens.named():
        cols = basis.action[name]
        assert len(cols) == basis.dim
        assert all(pair[0] or pair[1] for col in cols for pair in col.values())
        assert recorded_matrix(basis, name) == matrix_of(op, basis).rows(), name


def test_flag_basis_records_only_the_named_generators_on_the_triangle():
    # E11 and E22 always: their columns give the weights the flag is graded by
    assert set(flag_basis(3, 1).action) == {"E11", "E22"}
    basis = flag_basis(3, 1, {"E12", "T1-"})
    assert set(basis.action) == {"E11", "E22", "E12", "T1-"}
    # the orbit closure also closes under the lowering pair E12 and T2+,
    # but records only the weights and the names asked for
    weights = {"E11", "E22"}
    assert set(flag_basis(3, 2).action) == weights
    for names in ({"T1-"}, {"E21", "E11"}, set(GL3_NAMES)):
        assert set(flag_basis(3, 2, names).action) == weights | names


def test_closure_records_each_op_under_its_name():
    basis = closure(2, 2)
    gens = build_gl_np1(2, gl2_irrep(2))
    assert set(basis.action) == set(GL3_NAMES)
    for name, op in gens.named():
        assert recorded_matrix(basis, name) == matrix_of(op, basis).rows(), name


@pytest.mark.parametrize(
    "kind, nu, cancelled",
    [
        ("calogero", Fraction(-1, 3), {("T1-",)}),
        ("sutherland", Fraction(-1, 3), {("T1-",)}),
        ("sutherland", Fraction(-1, 12), {("E11",), ("E22",)}),
    ],
)
def test_matrix_of_skips_a_word_whose_coefficient_is_zero(kind, nu, cancelled, monkeypatch):
    words = WORDS[kind]
    bind = {"nu": nu, "omega": 1, "alpha": 1}
    bound = tuple((c.substitute(bind), word) for c, word in words)
    assert {word for c, word in bound if c.is_zero()} == cancelled
    basis = flag_basis(3, 2, {name for _, word in words for name in word})
    # oracle: the formal matrix, every word composed, then bound
    want = matrix_of(words, basis).substitute(bind)
    seen = []

    def spy(word, j, action):
        seen.append(word)
        return word_column(word, j, action)

    word_column = spaces._word_column
    monkeypatch.setattr(spaces, "_word_column", spy)
    got = matrix_of(bound, basis)
    assert not cancelled & set(seen)
    assert set(seen) == {word for _, word in words} - cancelled
    assert got == want and repr(got) == repr(want)


# -- the diagonal read-off ---------------------------------------------------------

_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def diagonal_op_and_spinor(draw):
    """A d x d op of terms (j, j, x^A d^A) and a nonzero spinor."""
    d = draw(st.integers(1, 3))
    entries = [[ScalarDiffOp.zero(2) for _ in range(d)] for _ in range(d)]
    for j in range(d):
        terms = draw(st.dictionaries(_exps, _rationals.filter(bool), max_size=3))
        entries[j][j] = ScalarDiffOp(2, {DiffMonomial(A, A): c for A, c in terms.items()})
    op = MatrixDiffOp(entries)
    vterms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, d - 1), st.tuples(st.integers(0, 3), st.integers(0, 3))),
            _rationals.filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    comps = [{} for _ in range(d)]
    for (j, P), c in vterms.items():
        comps[j][P] = c
    v = PolySpinor([Polynomial(2, t) for t in comps], 2)
    return op, v


def _sigma(op, j, P, d):
    """The scalar op multiplies x^P e_j by, read off apply."""
    comps = [Polynomial.zero(2) for _ in range(d)]
    comps[j] = Polynomial.monomial(P, 1, 2)
    image = op.apply(PolySpinor(comps, 2))
    return image.terms.get((j, P), Coeff.zero())


def _assert_columns_rebuild_images(basis, name, op):
    """Every recorded column of name rebuilds the image of its vector."""
    for j, bj in enumerate(basis.vectors):
        rebuilt = PolySpinor.zero(bj.dim, 2)
        for i, pair in basis.action[name][j].items():
            rebuilt = rebuilt + basis.vectors[i].scale(Coeff.rational(*pair))
        assert rebuilt == op.apply(bj)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diagonal_op_and_spinor())
def test_record_action_reads_a_constant_sigma_off_and_solves_a_mixed_one(case):
    op, v = case
    sigmas = {_sigma(op, j, P, v.dim) for j, P in v.terms}
    image = op.apply(v)
    # the closure of v under op, nothing recorded: an invariant basis
    basis = orbit_closure([("op", op)], v, degree_cap=6, recorded=())
    assert basis.vectors[0] == v and basis.action == {}
    solves = []
    real_solve = spaces._solve_images

    def spy(ops, on):
        solves.append(len(ops))
        return real_solve(ops, on)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_solve_images", spy)
        got = record_action([("op", op)], basis)
    assert got.raws == basis.raws
    col = got.action["op"][0]
    if len(sigmas) == 1:
        event("constant sigma")
        (sigma,) = sigmas
        assert solves == [] and basis.dim == 1
        assert col == ({0: sigma.constant_pair()} if sigma else {})
        assert image == v.scale(sigma)
    else:
        event("mixed sigma")
        # v is not scaled, so every column of op comes from the one solve
        assert solves == [1]
    _assert_columns_rebuild_images(got, "op", op)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diagonal_op_and_spinor())
def test_the_closure_applies_a_diagonal_op_to_every_vector_in_one_tracked_echelon(case):
    op, v = case
    sigmas = {_sigma(op, j, P, v.dim) for j, P in v.terms}
    calls = []
    real_image = spaces._image

    # the closure applies op through the compiled pair kernel
    def spy(rules, raw):
        calls.append(dict(raw))
        return real_image(rules, raw)

    tracks = []

    def echelon(track=False):
        tracks.append(track)
        return QPEchelon(track)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_image", spy)
        mp.setattr(spaces, "QPEchelon", echelon)
        # the basis comes in discovery order, seed first
        basis = orbit_closure([("op", op)], v, degree_cap=6)
    # op is recorded: one echelon, tracked, and op applied to every vector
    assert tracks == [True]
    assert calls == list(map(dict, basis.raws))
    assert basis.vectors[0] == v
    assert list(calls[0].items()) == [(key, c.constant_pair()) for key, c in v.terms.items()]
    if len(sigmas) == 1:
        event("constant sigma")
        (sigma,) = sigmas
        assert basis.dim == 1
        assert basis.action["op"][0] == ({0: sigma.constant_pair()} if sigma else {})
    else:
        event("mixed sigma")
    _assert_columns_rebuild_images(basis, "op", op)


# -- the compiled pair kernel ---------------------------------------------------

_halves = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_pairs = st.tuples(_halves, st.just(0) | _halves)


@st.composite
def parameter_free_op_and_spinor(draw):
    """A d x d op of random terms (i, j, x^A d^B) and a spinor, every
    coefficient a + b sqrt2 with rational a, b."""
    d = draw(st.integers(1, 3))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), exps, exps),
            _pairs.filter(any),
            max_size=6,
        )
    )
    entries = [[{} for _ in range(d)] for _ in range(d)]
    for (i, j, A, B), pair in terms.items():
        entries[i][j][DiffMonomial(A, B)] = Coeff.rational(*pair)
    op = MatrixDiffOp([[ScalarDiffOp(2, t) for t in row] for row in entries])
    vterms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, d - 1), st.tuples(st.integers(0, 3), st.integers(0, 3))),
            _pairs.filter(any),
            max_size=5,
        )
    )
    comps = [{} for _ in range(d)]
    for (j, P), pair in vterms.items():
        comps[j][P] = Coeff.rational(*pair)
    return op, PolySpinor([Polynomial(2, t) for t in comps], 2)


def _cancelling_case():
    """x1 e_0 + x1 e_1 under an op whose x1 e_0 image cancels and then comes
    back from column 1: the key moves behind x1 x2 e_0, as in apply."""
    x, one = DiffMonomial((1, 0), (1, 0)), DiffMonomial((0, 0), (0, 0))
    x2 = DiffMonomial((0, 1), (0, 0))
    top = [ScalarDiffOp(2, {x: 1, x2: 1, one: -1}), ScalarDiffOp(2, {one: S2})]
    op = MatrixDiffOp([top, [ScalarDiffOp.zero(2)] * 2])
    return op, spinor(2, [((1, 0), 1)], [((1, 0), Fraction(1, 2))])


def _late_term_case():
    """1 + x1 under x1 d1 + x1 + 1: x1 d1 and 1 form one group, whose first
    term vanishes on 1, so apply meets the key 1 only after x1's keys, while
    the group sums both terms at once and meets it first."""
    xd, x = DiffMonomial((1, 0), (1, 0)), DiffMonomial((1, 0), (0, 0))
    one = DiffMonomial((0, 0), (0, 0))
    op = MatrixDiffOp([[ScalarDiffOp(2, {xd: 1, x: 1, one: 1})]])
    return op, spinor(2, [((0, 0), 1), ((1, 0), 1)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parameter_free_op_and_spinor())
@example(_cancelling_case())
@example(_late_term_case())
def test_compiled_pair_action_equals_apply(case):
    op, v = case
    raw = {key: c.constant_pair() for key, c in v.terms.items()}
    got = spaces._image(spaces._rules("op", op), raw)
    want = {key: c.constant_pair() for key, c in op.apply(v).terms.items()}
    # same keys and values, same canonical halves; a group's terms are
    # summed before the key is added, so the key order may differ
    assert got == want
    assert {key: tuple(map(type, p)) for key, p in got.items()} == {
        key: tuple(map(type, p)) for key, p in want.items()
    }


def test_a_parametric_op_is_refused_by_name():
    from matrixweyl import K

    seed = PolySpinor.unit(0, 1, 2)
    kI = MatrixDiffOp.identity(1, 2) * K
    with pytest.raises(ValueError, match="'kI'"):
        orbit_closure([("kI", kI)], seed, degree_cap=3)
    with pytest.raises(ValueError, match="'kI'"):
        record_action([("kI", kI)], scalar_basis(1, 1))
    with pytest.raises(ValueError, match="the seed must be parameter-free"):
        orbit_closure([("I", MatrixDiffOp.identity(1, 2))], seed.scale(K), degree_cap=3)


def test_a_zero_seed_is_refused():
    with pytest.raises(ValueError, match="need a nonzero seed"):
        orbit_closure([("I", MatrixDiffOp.identity(2, 2))], PolySpinor.zero(2, 2), degree_cap=3)


# -- the raw closure against the apply-based closure it replaced ---------------


def _assert_same_basis(got, want):
    """Same vectors with the same term order and recorded columns."""
    def terms(basis):
        return [
            [(key, list(c.terms.items())) for key, c in v.terms.items()]
            for v in basis.vectors
        ]

    assert terms(got) == terms(want)
    assert got.action == want.action


def _closure_args(k, d, cap=None):
    gens = build_gl_np1(k, gl2_irrep(d))
    return gens.named(), PolySpinor.unit(d - 1, d, 2), k + 2 if cap is None else cap


@pytest.mark.parametrize("k, d", [(k, d) for d in (2, 3) for k in range(d - 1, 9)])
def test_every_flag_equals_the_apply_closure(k, d):
    want = apply_orbit_closure(*_closure_args(k, d))
    _assert_same_basis(orbit_closure(*_closure_args(k, d)), want)
    # asked for all nine generators, the flag is the nine-generator closure
    _assert_same_basis(flag_basis(k, d, GL3_NAMES), want)
    # closed under fewer, it is another basis of the same space, whose
    # recorded columns are the generators' matrices on it
    basis = flag_basis(k, d)
    assert basis.dim == want.dim
    assert span_contains(basis.coords_list(), want.coords_list())
    assert span_contains(want.coords_list(), basis.coords_list())
    for name, op in _closure_args(k, d)[0]:
        if name in basis.action:
            assert recorded_matrix(basis, name) == matrix_of(op, basis).rows(), name


@pytest.mark.parametrize(
    "k, d, cap",
    [(k, d, None) for d in (1, 2, 3) for k in range(4)] + [(2, 3, 1), (2, 2, 1)],
)
def test_every_space_closure_equals_the_apply_closure(k, d, cap):
    try:
        want = apply_orbit_closure(*_closure_args(k, d, cap))
    except SpaceNotClosedError as exc:
        with pytest.raises(SpaceNotClosedError) as got:
            orbit_closure(*_closure_args(k, d, cap))
        assert str(got.value) == str(exc)
        assert got.value.vector == exc.vector
        return
    _assert_same_basis(orbit_closure(*_closure_args(k, d, cap)), want)
