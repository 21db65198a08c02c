"""Generator factories: the mixed gl_{n+1} family and the polynomial g^(m).

build_gl_np1 produces, for a matrix block family M_ij on R^n,

    E_ij   = x_i d_j + M_ij
    T_i^-  = d_i
    E_0    = k - sum_j x_j d_j
    T_i^+  = x_i (k - sum_j x_j d_j) - sum_j x_j M_ij

whose span closes into gl_{n+1}.  build_gm produces the two-variable family
with an (m+1)-long lowering tower x^i d_y and raising tower built on y d_x^m;
for m = 1 it spans the same operator space as the scalar gl_3 family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .coeff import Coeff, as_coeff
from .matrixreps import MatrixRep, gl2_irrep
from .weyl import MatrixDiffOp, ScalarDiffOp, commutator


@dataclass(frozen=True)
class RepSpec:
    """Recipe (n, k, matrix block family) naming one mixed representation."""

    n: int
    k: Coeff
    rep: MatrixRep

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.rep.n != self.n:
            raise ValueError("matrix block family is for gl_%d, not gl_%d" % (self.rep.n, self.n))

    @classmethod
    def gl3(cls, k, d: int) -> "RepSpec":
        """The n = 2 spec with the standard d-dimensional gl_2 block."""
        return cls(2, as_coeff(k) if not isinstance(k, Coeff) else k, gl2_irrep(d))


class GeneratorSet:
    """The named generators of one mixed gl_{n+1} representation."""

    def __init__(self, spec: RepSpec):
        n = spec.n
        d = spec.rep.dim
        self.spec = spec
        self.n = n
        self.dim = d
        self.nvars = n
        k = spec.k

        xs = [ScalarDiffOp.x(i, n) for i in range(n)]
        ds = [ScalarDiffOp.d(i, n) for i in range(n)]
        euler = ScalarDiffOp.zero(n)
        for x, dd in zip(xs, ds):
            euler = euler + x * dd
        e0_scalar = ScalarDiffOp.constant(k, n) - euler

        M = {
            (i, j): MatrixDiffOp.from_coeff_matrix(spec.rep.block(i, j), n)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }

        self.E: Dict[tuple, MatrixDiffOp] = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                self.E[(i, j)] = MatrixDiffOp.from_scalar(xs[i - 1] * ds[j - 1], d) + M[(i, j)]
        self.E0 = MatrixDiffOp.from_scalar(e0_scalar, d)
        self.Tminus = {
            i: MatrixDiffOp.from_scalar(ds[i - 1], d) for i in range(1, n + 1)
        }
        self.Tplus = {}
        for i in range(1, n + 1):
            op = MatrixDiffOp.from_scalar(xs[i - 1] * e0_scalar, d)
            for j in range(1, n + 1):
                op = op - MatrixDiffOp.from_scalar(xs[j - 1], d) * M[(i, j)]
            self.Tplus[i] = op

    def named(self):
        """(name, operator) pairs in a fixed order."""
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                out.append(("E%d%d" % (i, j), self.E[(i, j)]))
        out.append(("E0", self.E0))
        for i in range(1, self.n + 1):
            out.append(("T%d-" % i, self.Tminus[i]))
        for i in range(1, self.n + 1):
            out.append(("T%d+" % i, self.Tplus[i]))
        return out

    def all_ops(self) -> List[MatrixDiffOp]:
        return [op for _, op in self.named()]


def build_gl_np1(spec: RepSpec) -> GeneratorSet:
    return GeneratorSet(spec)


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
        k = as_coeff(k) if not isinstance(k, Coeff) else k
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

        M = {
            (i, j): MatrixDiffOp.from_coeff_matrix(rep.block(i, j), 2)
            for i in range(1, 3)
            for j in range(1, 3)
        }

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

    def all_ops(self):
        return [op for _, op in self.named()]


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
