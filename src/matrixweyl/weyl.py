"""Normal-ordered differential operators with matrix coefficients.

The algebra is generated by commuting variables x_1..x_n and derivations
d_1..d_n with d_i x_j - x_j d_i = delta_ij.  A ScalarDiffOp is a finite sum
of normal-ordered terms c * x^A d^B (all multiplication operators to the
left of all derivations); a MatrixDiffOp is a square array of those and is
the container for every generator and Hamiltonian in the package.
Operators act on PolySpinor values: columns of exact polynomials.

Composition normal-orders eagerly, so equality of operators is equality of
term maps and no separate simplifier exists or is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Mapping, NamedTuple, Sequence

from .coeff import Coeff, as_coeff
from .matrixreps import mat_mul


class ShapeError(ValueError):
    """Operands with incompatible dimension or variable count."""


class DiffMonomial(NamedTuple):
    """x^xpow d^dpow, understood normal-ordered (x factors left of d)."""

    xpow: tuple
    dpow: tuple


def _as_scalar_coeff(x):
    if isinstance(x, (int, Fraction, Coeff)):
        return as_coeff(x)
    return None


class ScalarDiffOp:
    """Finite sum of normal-ordered terms over n commuting variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[DiffMonomial, Coeff] | None = None):
        if nvars < 1:
            raise ShapeError("nvars must be positive")
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = as_coeff(c)
                if not c.is_zero():
                    if len(mono[0]) != nvars or len(mono[1]) != nvars:
                        raise ShapeError("monomial arity does not match nvars")
                    clean[DiffMonomial(tuple(mono[0]), tuple(mono[1]))] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ScalarDiffOp":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "ScalarDiffOp":
        z = (0,) * nvars
        return cls(nvars, {DiffMonomial(z, z): as_coeff(c)})

    @classmethod
    def x(cls, i: int, nvars: int) -> "ScalarDiffOp":
        xp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {DiffMonomial(xp, (0,) * nvars): Coeff.one()})

    @classmethod
    def d(cls, i: int, nvars: int) -> "ScalarDiffOp":
        dp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {DiffMonomial((0,) * nvars, dp): Coeff.one()})

    # -- algebra -------------------------------------------------------------

    def _require_same_vars(self, other):
        if self.nvars != other.nvars:
            raise ShapeError(
                "variable counts differ: %d vs %d" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            other = ScalarDiffOp.constant(c, self.nvars)
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        self._require_same_vars(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        r = ScalarDiffOp.__new__(ScalarDiffOp)
        r.nvars = self.nvars
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = ScalarDiffOp.__new__(ScalarDiffOp)
        r.nvars = self.nvars
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __sub__(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            other = ScalarDiffOp.constant(c, self.nvars)
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Composition self o other: other acts first."""
        c = _as_scalar_coeff(other)
        if c is not None:
            r = ScalarDiffOp.__new__(ScalarDiffOp)
            r.nvars = self.nvars
            r.terms = {}
            if not c.is_zero():
                for m, v in self.terms.items():
                    p = v * c
                    if not p.is_zero():
                        r.terms[m] = p
            return r
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        self._require_same_vars(other)
        out = {}
        for (A, B), c1 in self.terms.items():
            for (C, D), c2 in other.terms.items():
                base = c1 * c2
                # d^B x^C = sum_j binom(B,j) binom(C,j) j! x^(C-j) d^(B-j)
                _accumulate_product(out, A, B, C, D, base, self.nvars)
        r = ScalarDiffOp.__new__(ScalarDiffOp)
        r.nvars = self.nvars
        r.terms = out
        return r

    def __rmul__(self, other):
        c = _as_scalar_coeff(other)
        if c is None:
            return NotImplemented
        return self * c

    def __pow__(self, n: int):
        out = ScalarDiffOp.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- action and binding ----------------------------------------------------

    def apply_poly(self, p: "Polynomial") -> "Polynomial":
        if p.nvars != self.nvars:
            raise ShapeError(
                "variable counts differ: %d vs %d" % (self.nvars, p.nvars)
            )
        out = {}
        for (A, B), c in self.terms.items():
            for P, cp in p.terms.items():
                if any(b > q for b, q in zip(B, P)):
                    continue
                f = 1
                for b, q in zip(B, P):
                    f *= perm(q, b)
                mono = tuple(a + q - b for a, q, b in zip(A, P, B))
                v = c * cp * f
                cur = out.get(mono)
                s = v if cur is None else cur + v
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Polynomial(self.nvars, out, _clean=False)

    def substitute(self, bindings) -> "ScalarDiffOp":
        out = {}
        for m, c in self.terms.items():
            c2 = c.substitute(bindings)
            if not c2.is_zero():
                out[m] = c2
        r = ScalarDiffOp.__new__(ScalarDiffOp)
        r.nvars = self.nvars
        r.terms = out
        return r

    # -- structure queries -----------------------------------------------------

    def grade_vector(self):
        """Net per-variable degree shift if homogeneous, else None."""
        grade = None
        for (A, B) in self.terms:
            g = tuple(a - b for a, b in zip(A, B))
            if grade is None:
                grade = g
            elif g != grade:
                return None
        return grade

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].xpow, kv[0].dpow))

    def __repr__(self):
        from .render import scalar_op_str

        return scalar_op_str(self)


def _accumulate_product(out, A, B, C, D, base, nvars):
    # Enumerate contraction vectors j with 0 <= j_i <= min(B_i, C_i).
    limits = [min(b, c) for b, c in zip(B, C)]
    js = [0] * nvars
    while True:
        f = 1
        for b, c, j in zip(B, C, js):
            if j:
                f *= comb(b, j) * comb(c, j) * factorial(j)
        xp = tuple(a + c - j for a, c, j in zip(A, C, js))
        dp = tuple(b - j + d for b, d, j in zip(B, D, js))
        mono = DiffMonomial(xp, dp)
        v = base * f
        cur = out.get(mono)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = s
        # advance the odometer
        i = 0
        while i < nvars:
            if js[i] < limits[i]:
                js[i] += 1
                break
            js[i] = 0
            i += 1
        else:
            return


class Polynomial:
    """Exact polynomial in x_1..x_n: a map from power tuple to Coeff."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None, _clean=True):
        self.nvars = nvars
        if _clean:
            clean = {}
            if terms:
                for mono, c in terms.items():
                    c = as_coeff(c)
                    if not c.is_zero():
                        clean[tuple(mono)] = c
            self.terms = clean
        else:
            self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Coeff.one()})

    @classmethod
    def monomial(cls, xpow: Sequence[int], c, nvars: int) -> "Polynomial":
        return cls(nvars, {tuple(xpow): as_coeff(c)})

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.nvars, out, _clean=False)

    def __neg__(self):
        return Polynomial(
            self.nvars, {m: -c for m, c in self.terms.items()}, _clean=False
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = as_coeff(c)
        out = {}
        for m, v in self.terms.items():
            p = v * c
            if not p.is_zero():
                out[m] = p
        return Polynomial(self.nvars, out, _clean=False)

    def substitute(self, bindings) -> "Polynomial":
        out = {}
        for m, c in self.terms.items():
            c2 = c.substitute(bindings)
            if not c2.is_zero():
                out[m] = c2
        return Polynomial(self.nvars, out, _clean=False)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Maximum total degree, or None for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=None)

    def __repr__(self):
        from .render import poly_str

        return poly_str(self)


class MatrixDiffOp:
    """Square matrix of ScalarDiffOp entries sharing one variable set."""

    __slots__ = ("dim", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[ScalarDiffOp]]):
        dim = len(entries)
        if dim < 1 or any(len(row) != dim for row in entries):
            raise ShapeError("entries must form a square matrix")
        nvars = entries[0][0].nvars
        for row in entries:
            for e in row:
                if e.nvars != nvars:
                    raise ShapeError("entries disagree on variable count")
        self.dim = dim
        self.nvars = nvars
        self.entries = tuple(tuple(row) for row in entries)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, nvars: int) -> "MatrixDiffOp":
        z = ScalarDiffOp.zero(nvars)
        return cls([[z] * dim for _ in range(dim)])

    @classmethod
    def identity(cls, dim: int, nvars: int) -> "MatrixDiffOp":
        z = ScalarDiffOp.zero(nvars)
        one = ScalarDiffOp.constant(1, nvars)
        return cls([[one if i == j else z for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_scalar(cls, op: ScalarDiffOp, dim: int) -> "MatrixDiffOp":
        """op times the identity matrix."""
        z = ScalarDiffOp.zero(op.nvars)
        return cls([[op if i == j else z for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_coeff_matrix(cls, rows, nvars: int) -> "MatrixDiffOp":
        """Constant matrix: Coeff entries become degree-zero operators."""
        return cls(
            [[ScalarDiffOp.constant(c, nvars) for c in row] for row in rows]
        )

    # -- algebra -------------------------------------------------------------

    def _coerce(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            return MatrixDiffOp.from_scalar(
                ScalarDiffOp.constant(c, self.nvars), self.dim
            )
        if isinstance(other, ScalarDiffOp):
            return MatrixDiffOp.from_scalar(other, self.dim)
        if isinstance(other, MatrixDiffOp):
            return other
        return None

    def _require_compatible(self, other):
        if self.dim != other.dim:
            raise ShapeError("matrix dims differ: %d vs %d" % (self.dim, other.dim))
        if self.nvars != other.nvars:
            raise ShapeError(
                "variable counts differ: %d vs %d" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_compatible(other)
        return MatrixDiffOp(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return MatrixDiffOp([[-e for e in row] for row in self.entries])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Matrix product; operator factors of self act after those of other."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._require_compatible(other)
        return MatrixDiffOp(mat_mul(self.entries, other.entries))

    def __rmul__(self, other):
        c = _as_scalar_coeff(other)
        if c is not None:
            return self * c
        if isinstance(other, ScalarDiffOp):
            return self * other  # scalar times identity commutes
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.nvars == other.nvars
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, self.nvars, self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def term_count(self) -> int:
        return sum(len(e.terms) for row in self.entries for e in row)

    def coords(self):
        """Sparse coordinates keyed by (row, column, differential monomial)."""
        out = {}
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                for mono, c in e.terms.items():
                    out[(i, j, mono)] = c
        return out

    # -- action and binding ----------------------------------------------------

    def apply(self, v: "PolySpinor") -> "PolySpinor":
        if v.dim != self.dim:
            raise ShapeError("matrix dim %d vs spinor dim %d" % (self.dim, v.dim))
        if v.nvars != self.nvars:
            raise ShapeError(
                "variable counts differ: %d vs %d" % (self.nvars, v.nvars)
            )
        comps = []
        for i in range(self.dim):
            acc = Polynomial.zero(self.nvars)
            for j in range(self.dim):
                acc = acc + self.entries[i][j].apply_poly(v.components[j])
            comps.append(acc)
        return PolySpinor(comps, self.nvars)

    def substitute(self, bindings) -> "MatrixDiffOp":
        return MatrixDiffOp(
            [[e.substitute(bindings) for e in row] for row in self.entries]
        )

    def scalar_part(self) -> ScalarDiffOp:
        if self.dim != 1:
            raise ShapeError("scalar_part needs dim 1, got %d" % self.dim)
        return self.entries[0][0]

    def __repr__(self):
        from .render import matrix_op_str

        return matrix_op_str(self)


class PolySpinor:
    """Column of dim exact polynomials; the objects operators act on."""

    __slots__ = ("dim", "nvars", "components")

    def __init__(self, components: Sequence[Polynomial], nvars: int | None = None):
        comps = tuple(components)
        if not comps:
            raise ShapeError("spinor needs at least one component")
        if nvars is None:
            nvars = comps[0].nvars
        for c in comps:
            if c.nvars != nvars:
                raise ShapeError("components disagree on variable count")
        self.dim = len(comps)
        self.nvars = nvars
        self.components = comps

    @classmethod
    def zero(cls, dim: int, nvars: int) -> "PolySpinor":
        return cls([Polynomial.zero(nvars) for _ in range(dim)], nvars)

    @classmethod
    def unit(cls, index: int, dim: int, nvars: int) -> "PolySpinor":
        comps = [Polynomial.zero(nvars) for _ in range(dim)]
        comps[index] = Polynomial.one(nvars)
        return cls(comps, nvars)

    def __add__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        if other.dim != self.dim:
            raise ShapeError("spinor dims differ: %d vs %d" % (self.dim, other.dim))
        return PolySpinor(
            [a + b for a, b in zip(self.components, other.components)], self.nvars
        )

    def __neg__(self):
        return PolySpinor([-c for c in self.components], self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PolySpinor":
        return PolySpinor([p.scale(c) for p in self.components], self.nvars)

    def substitute(self, bindings) -> "PolySpinor":
        return PolySpinor(
            [p.substitute(bindings) for p in self.components], self.nvars
        )

    def __eq__(self, other):
        if not isinstance(other, PolySpinor):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    def __hash__(self):
        return hash((self.nvars, self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def total_degree(self):
        degs = [c.total_degree() for c in self.components if not c.is_zero()]
        return max(degs) if degs else None

    def coords(self):
        """Sparse coordinates keyed by (component index, power tuple)."""
        out = {}
        for i, p in enumerate(self.components):
            for mono, c in p.terms.items():
                out[(i, mono)] = c
        return out

    def __repr__(self):
        from .render import spinor_str

        return spinor_str(self)


def commutator(a: MatrixDiffOp, b: MatrixDiffOp) -> MatrixDiffOp:
    """a o b - b o a, exactly."""
    return a * b - b * a


def scalar_commutator(a: ScalarDiffOp, b: ScalarDiffOp) -> ScalarDiffOp:
    return a * b - b * a
