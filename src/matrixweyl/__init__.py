"""Exact engine for gl(n+1) algebras of matrix differential operators.

The package builds mixed matrix-plus-differential-operator representations,
verifies their algebraic identities exactly (symbolic parameters included),
discovers the finite-dimensional invariant spinor spaces, and assembles and
diagonalizes the algebraic three-body Calogero and Sutherland operators and
their matrix extensions on those spaces.  All arithmetic is exact over
Q(sqrt2)[k, omega, nu, alpha]; there is no floating point anywhere except in
the clearly marked high-precision fallback for characteristic-polynomial
roots that are not rational.
"""

from .coeff import ALPHA, K, NU, OMEGA, SQRT2, Coeff, CoeffError
from .generators import (
    GeneratorSet,
    GmGeneratorSet,
    build_gl_np1,
    build_gm,
    gm_commutator_tower,
)
from .matrixreps import CanonicalReport, MatrixRep, check_canonical, gl2_irrep
from .weyl import (
    DiffMonomial,
    MatrixDiffOp,
    Polynomial,
    PolySpinor,
    ScalarDiffOp,
    ShapeError,
    commutator,
)

__all__ = [
    "ALPHA",
    "K",
    "NU",
    "OMEGA",
    "SQRT2",
    "CanonicalReport",
    "Coeff",
    "CoeffError",
    "DiffMonomial",
    "GeneratorSet",
    "GmGeneratorSet",
    "MatrixDiffOp",
    "MatrixRep",
    "Polynomial",
    "PolySpinor",
    "ScalarDiffOp",
    "ShapeError",
    "build_gl_np1",
    "build_gm",
    "check_canonical",
    "commutator",
    "gl2_irrep",
    "gm_commutator_tower",
]
