"""Generator factories: the mixed gl_{n+1} family and the polynomial g^(m).

build_gl_np1(k, rep) produces, for the parameter k (a number, or the formal
K) and a matrix block family rep, M_ij on R^n with n = rep.n,

    E_ij   = x_i d_j + M_ij
    T_i^-  = d_i
    E_0    = k - sum_j x_j d_j
    T_i^+  = x_i (k - sum_j x_j d_j) - sum_j x_j M_ij

whose span closes into gl_{n+1}.  build_gm produces the two-variable family
with an (m+1)-long lowering tower x^i d_y and raising tower built on y d_x^m;
for m = 1 it spans the same operator space as the scalar gl_3 family.

A word (_word) is a coefficient and the names of generators, standing for
the coefficient times their product; _word_sum builds a sum of words in a
GeneratorSet, and _x_d_ops lifts x_i, d_i to matrix operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Dict

from .coeff import ONE, as_coeff
from .matrixreps import MatrixRep, gl2_irrep
from .weyl import MatrixDiffOp, ScalarDiffOp, commutator


_MINUS_ONE = -ONE


def _word(c, *names):
    return (as_coeff(c), names)


def _x_d_ops(dim: int, n: int = 2):
    """(x_1, .., x_n, d_1, .., d_n) on R^n, each lifted to a dim x dim
    operator."""
    return tuple(
        MatrixDiffOp.from_scalar(f(i, n), dim)
        for f in (ScalarDiffOp.x, ScalarDiffOp.d)
        for i in range(n)
    )


class GeneratorSet:
    """The named generators of the mixed gl_{n+1} representation with
    parameter k and matrix block family rep on R^n, n = rep.n."""

    def __init__(self, k, rep: MatrixRep):
        n = rep.n
        d = rep.dim
        self.k = k = as_coeff(k)
        self.rep = rep
        self.n = n
        self.dim = d
        self.nvars = n

        xs = [ScalarDiffOp.x(i, n) for i in range(n)]
        ds = [ScalarDiffOp.d(i, n) for i in range(n)]
        euler = ScalarDiffOp.zero(n)
        for x, dd in zip(xs, ds):
            euler = euler + x * dd
        e0_scalar = ScalarDiffOp.constant(k, n) - euler
        M = rep.ops
        lifted = _x_d_ops(d, n)

        self.E: Dict[tuple, MatrixDiffOp] = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                self.E[(i, j)] = MatrixDiffOp.from_scalar(xs[i - 1] * ds[j - 1], d) + M[(i, j)]
        self.E0 = MatrixDiffOp.from_scalar(e0_scalar, d)
        self.Tminus = {i: lifted[n + i - 1] for i in range(1, n + 1)}
        self.Tplus = {}
        for i in range(1, n + 1):
            op = MatrixDiffOp.from_scalar(xs[i - 1] * e0_scalar, d)
            for j in range(1, n + 1):
                op = op - lifted[j - 1] * M[(i, j)]
            self.Tplus[i] = op
        self._by_name = dict(self.named())

    def named(self):
        """(name, operator) pairs in the fixed order of gl_labels(n)."""
        by_label = {(0, 0): self.E0, **self.E}
        by_label.update(((0, i), op) for i, op in self.Tminus.items())
        by_label.update(((i, 0), op) for i, op in self.Tplus.items())
        return [(name, by_label[label]) for name, label in gl_labels(self.n).items()]

    def labelled(self) -> Dict[tuple, tuple]:
        """{(a, b): (name, operator)}, the labels of gl_labels(n)."""
        return {label: (name, self._by_name[name]) for name, label in gl_labels(self.n).items()}


def gl_labels(n: int) -> Dict[str, tuple]:
    """{name: (a, b)} in the order of GeneratorSet.named(), with e_ab the
    unit matrix of gl_{n+1} (index 0 extra) each generator stands for:
    E_ij = e_ij, E0 = e_00, T_i^- = e_0i, T_i^+ = e_i0."""
    idx = range(1, n + 1)
    labels = {"E%d%d" % (i, j): (i, j) for i in idx for j in idx}
    labels["E0"] = (0, 0)
    labels.update(("T%d-" % i, (0, i)) for i in idx)
    labels.update(("T%d+" % i, (i, 0)) for i in idx)
    return labels


def build_gl_np1(k, rep: MatrixRep) -> GeneratorSet:
    return GeneratorSet(k, rep)


def _word_sum(words, gens: GeneratorSet) -> MatrixDiffOp:
    """sum c * (product of the generators) over the (nonempty) words, in
    gens, from the first word on; a word of coefficient 1 or -1 is added or
    subtracted unscaled."""
    out = None
    for c, word in words:
        op = reduce(mul, (gens._by_name[name] for name in word))
        minus = c == _MINUS_ONE
        if not minus and c != ONE:
            op = op * c
        if out is None:
            out = -op if minus else op
        else:
            out = out - op if minus else out + op
    return out


class GmGeneratorSet:
    """Generators of g^(m) on the (x, y) plane.

    J generators carry the matrix blocks; the towers T^-_i = x^i d_y and
    U_i = y d_x^(m-i) J0 (J0+1) ... (J0+i-1) are scalar and act as multiples
    of the identity in the matrix space.
    """

    def __init__(self, m: int, k, rep: MatrixRep):
        if m < 1:
            raise ValueError("m must be at least 1")
        if rep.n != 2:
            raise ValueError("g^(m) takes a gl_2 matrix block family")
        k = as_coeff(k)
        self.m = m
        self.k = k
        self.rep = rep
        d = rep.dim
        self.dim = d
        self.nvars = 2

        x = ScalarDiffOp.x(0, 2)
        y = ScalarDiffOp.x(1, 2)
        dx = ScalarDiffOp.d(0, 2)
        dy = ScalarDiffOp.d(1, 2)
        kc = ScalarDiffOp.constant(k, 2)
        M = rep.ops

        third = Fraction(1, 3)
        j0_scalar = x * dx + (y * dy) * m - kc
        self.J12 = MatrixDiffOp.from_scalar(dx, d) + M[(1, 2)]
        self.J11 = MatrixDiffOp.from_scalar(-(x * dx) + kc * third, d) + M[(1, 1)]
        self.J22 = MatrixDiffOp.from_scalar(-(x * dx) + (y * dy) * m, d) + M[(2, 2)]
        self.J21 = (
            MatrixDiffOp.from_scalar(x * x * dx + (x * y * dy) * m - kc * x, d)
            + M[(2, 1)]
        )
        self.J0 = MatrixDiffOp.from_scalar(j0_scalar, d)

        self.Tminus = [
            MatrixDiffOp.from_scalar((x ** i) * dy, d) for i in range(m + 1)
        ]

        self.U = []
        for i in range(m + 1):
            op = y * (dx ** (m - i))
            for t in range(i):
                op = op * (j0_scalar + t)
            self.U.append(MatrixDiffOp.from_scalar(op, d))

    def cartan(self):
        """The gl_2 (+) identity part, in a fixed order."""
        return [
            ("J11", self.J11),
            ("J12", self.J12),
            ("J21", self.J21),
            ("J22", self.J22),
            ("J0", self.J0),
        ]

    def named(self):
        out = self.cartan()
        for i, op in enumerate(self.Tminus):
            out.append(("T%d-" % i, op))
        for i, op in enumerate(self.U):
            out.append(("U%d" % i, op))
        return out


def build_gm(m: int, k, rep: MatrixRep | None = None) -> GmGeneratorSet:
    if rep is None:
        rep = gl2_irrep(1)
    return GmGeneratorSet(m, k, rep)


def gm_commutator_tower(gm: GmGeneratorSet):
    """Raising tower rebuilt by iterated commutators with J21.

    Returns the list [V_0 .. V_m, V_{m+1}] where V_0 = U_0 and
    V_{i+1} = [V_i, J21]; the last element witnesses nilpotency.
    """
    tower = [gm.U[0]]
    for _ in range(gm.m + 1):
        tower.append(commutator(tower[-1], gm.J21))
    return tower
