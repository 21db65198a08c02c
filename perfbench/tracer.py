"""Per-layer tracing of matrixweyl from outside the package.

The tracer wraps the public entry points of each layer and patches the
wrapper in at every place the original is bound: module globals (names
imported with ``from ... import`` included), class attributes (aliases such
as ``__rmul__ = __mul__`` included), values of dicts and lists held in module
globals (such as a table of model builders) and function defaults.  An
original found where it cannot be replaced, or still reachable after
patching, raises ``BindingError``, so no call escapes its span unnoticed.

Spans are aggregated in memory per (layer, parent layer) as calls, total
seconds and self seconds; self time is the span's duration minus the time
its child spans cover.  Observers read the values some entry points return
(pivots, polynomial degrees, coefficient heights, basis sizes, output bytes)
into counters.  ``report()`` hands the aggregate back at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "matrixweyl"

# Named entry points: (layer, module, attribute path).
NAMED = (
    ("coeff.mul", "coeff", "Coeff.__mul__"),
    ("coeff.mul", "coeff", "Coeff.__rmul__"),
    ("coeff.mul", "coeff", "qp_mul"),
    ("coeff.add", "coeff", "Coeff.__add__"),
    ("coeff.add", "coeff", "Coeff.__radd__"),
    ("coeff.add", "coeff", "qp_add"),
    ("weyl.compose", "weyl", "ScalarDiffOp.__mul__"),
    ("weyl.compose", "weyl", "MatrixDiffOp.__mul__"),
    ("weyl.commutator", "weyl", "commutator"),
    ("weyl.commutator", "weyl", "scalar_commutator"),
    ("weyl.apply", "weyl", "MatrixDiffOp.apply"),
    ("linalg.echelon.build", "linalg", "QPEchelon.__init__"),
    ("linalg.echelon.insert", "linalg", "QPEchelon.insert"),
    ("linalg.echelon.reduce", "linalg", "QPEchelon.reduce"),
    ("linalg.solve", "linalg", "solve_combination"),
    ("linalg.solve", "linalg", "coeff_matrix_solve"),
    ("linalg.solve", "linalg", "span_contains"),
    ("linalg.solve", "linalg", "rank_of"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("linalg.rational_roots", "linalg", "rational_roots"),
    ("linalg.numeric_roots", "linalg", "numeric_roots"),
    ("spaces.orbit_closure", "spaces", "orbit_closure"),
    ("spaces.matrix_of", "spaces", "matrix_of"),
    ("serialize.dumps", "serialize", "dumps"),
)
# Every other public function defined in these modules is traced under the
# module's name, so the modules' own work is split from the layers they call.
GROUPED = ("generators", "identities", "spaces", "models", "serialize", "cli")


class BindingError(RuntimeError):
    """An original entry point is reachable where the tracer cannot see it."""


def _height(coeffs) -> int:
    """Largest numerator or denominator bit length over Coeff values."""
    best = 0
    for c in coeffs:
        for a, b in c.terms.values():
            best = max(
                best,
                abs(a.numerator).bit_length(),
                a.denominator.bit_length(),
                abs(b.numerator).bit_length(),
                b.denominator.bit_length(),
            )
    return best


def _set_default(fn, index):
    def setter(value):
        d = list(fn.__defaults__)
        d[index] = value
        fn.__defaults__ = tuple(d)

    return setter


def _places(mod):
    """(where, value, setter) for every place in mod that can bind a function.

    setter is None where the binding cannot be replaced (a tuple item).
    """
    funcs = []
    for name, obj in list(vars(mod).items()):
        yield name, obj, lambda v, n=name: setattr(mod, n, v)
        if isinstance(obj, dict):
            for k, v in list(obj.items()):
                yield "%s[%r]" % (name, k), v, lambda v, k=k, o=obj: o.__setitem__(k, v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                yield "%s[%d]" % (name, i), v, lambda v, i=i, o=obj: o.__setitem__(i, v)
        elif isinstance(obj, tuple):
            for i, v in enumerate(obj):
                yield "%s[%d]" % (name, i), v, None
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, v in list(vars(obj).items()):
                where = "%s.%s" % (name, attr)
                yield where, v, lambda v, c=obj, a=attr: setattr(c, a, v)
                if inspect.isfunction(v):
                    funcs.append((where, v))
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            funcs.append((name, obj))
    for where, fn in funcs:
        for i, v in enumerate(fn.__defaults__ or ()):
            yield "%s(default %d)" % (where, i), v, _set_default(fn, i)


class Tracer:
    """Span aggregation for one process: create, install(), run, report()."""

    def __init__(self):
        self.spans = {}  # (layer, parent) -> [calls, total_s, self_s]
        self.sums = {}
        self.maxes = {}
        self._stack = [["root", 0.0]]
        self._wrappers = {}  # id(original) -> (original, wrapper)

    # -- counters -------------------------------------------------------------

    def _add(self, name, n):
        self.sums[name] = self.sums.get(name, 0) + n

    def _max(self, name, v):
        if v > self.maxes.get(name, 0):
            self.maxes[name] = v

    def _observers(self):
        """Observers by the qualified name of the entry point they watch."""

        def insert(result):
            if result is not None:
                self._add("linalg.echelon.pivots", 1)

        def charpoly(result):
            self._max("linalg.charpoly.degree_max", len(result) - 1)
            self._max("coeff.height_bits", _height(result))

        def rational_roots(result):
            roots, deflated = result
            self._add("linalg.roots.exact", len(roots))
            self._add("linalg.roots.inexact", max(len(deflated) - 1, 0))

        def basis(result):
            self._max("spaces.basis_dim_max", result.dim)

        def matrix_of(result):
            basis(result)
            self._max(
                "coeff.height_bits",
                _height(c for row in result.entries for c in row),
            )

        def dumps(result):
            self._add("serialize.dumps.bytes", len(result.encode()))

        return {
            "QPEchelon.insert": insert,
            "charpoly": charpoly,
            "rational_roots": rational_roots,
            "orbit_closure": basis,
            "scalar_basis": basis,
            "matrix_of": matrix_of,
            "dumps": dumps,
        }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, layer, observe):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                rec = spans.get((layer, parent[0]))
                if rec is None:
                    rec = spans[(layer, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[1]
                parent[1] += t1 - t0
            if observe is not None:
                observe(result)
                # observer time is charged to no layer
                parent[1] += clock() - t1
            return result

        return traced

    def _targets(self):
        """(layer, original) for every entry point."""
        out = []
        for layer, mod, path in NAMED:
            owner = importlib.import_module("%s.%s" % (PACKAGE, mod))
            *head, attr = path.split(".")
            for part in head:
                owner = getattr(owner, part)
            out.append((layer, vars(owner)[attr]))
        named = {id(fn) for _, fn in out}
        for mod in GROUPED:
            m = importlib.import_module("%s.%s" % (PACKAGE, mod))
            for name, obj in vars(m).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == m.__name__
                    and id(obj) not in named
                ):
                    out.append((mod, obj))
        return out

    def _lookup(self, obj):
        hit = self._wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    def install(self):
        """Patch every binding of every entry point in every loaded module of
        the package, then check(); returns self."""
        importlib.import_module(PACKAGE + ".cli")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        observers = self._observers()
        for layer, fn in self._targets():
            if id(fn) not in self._wrappers:
                observe = observers.get(fn.__qualname__)
                self._wrappers[id(fn)] = (fn, self._wrap(fn, layer, observe))
        for mod in modules:
            for where, value, setter in _places(mod):
                wrapper = self._lookup(value)
                if wrapper is None:
                    continue
                if setter is None:
                    raise BindingError("cannot patch %s.%s" % (mod.__name__, where))
                setter(wrapper)
        self.check(modules)
        return self

    def check(self, modules):
        """Raise BindingError if any original is still bound in modules."""
        left = [
            "%s.%s" % (mod.__name__, where)
            for mod in modules
            for where, value, _ in _places(mod)
            if self._lookup(value) is not None
        ]
        if left:
            raise BindingError("unpatched bindings: %s" % ", ".join(sorted(left)))

    # -- output ---------------------------------------------------------------

    def report(self) -> dict:
        return {
            "spans": [
                [layer, parent, calls, total, own]
                for (layer, parent), (calls, total, own) in sorted(self.spans.items())
            ],
            "sums": dict(sorted(self.sums.items())),
            "maxes": dict(sorted(self.maxes.items())),
        }
