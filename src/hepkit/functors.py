"""Parametric function expressions over point tuples.

Expressions are immutable trees closed under +, -, *, / and functional
composition.  Leaves own their parameters; an interior node aggregates the
leaf parameters by reference, in stable (left to right) order.  Parameter
values are the only mutable state, read at evaluation time, so a value set
on a leaf is visible to the next evaluation of any expression containing
that leaf.

Evaluation is vectorized: ``eval`` receives a tuple with one float64 array
(or scalar) per argument and applies numpy ufuncs, so a user closure must
be written with numpy-compatible operations.

``partials`` is forward-mode differentiation on the same tree: a node
returns its value, bitwise that of ``eval``, and its partial derivatives
with respect to the leaf parameters it depends on, keyed by
``id(parameter)``.  Arguments may carry partials of their own (tangents),
which is how a composition applies the chain rule.  The Gaussian and
exponential leaves are analytic, operators apply the sum, product and
quotient rules, and a closure, whose body is opaque, falls back to
central differences.  On plain data, a node whose ``second_order`` is set
also returns its exact second partials: the Gaussian and exponential
leaves, a coordinate, and +, -, *, / over such nodes.  A closure and a
composition have none.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .kinematics import Parameter
from .parallel import run_batches
from .store import ColumnStore

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# relative step of a closure's central differences: truncation error
# ~h^2 and rounding ~eps/h balance near 1e-5
_CLOSURE_STEP = 1e-5

Partials = dict[int, np.ndarray]
"""Partial derivatives keyed by ``id`` of the parameter."""

SecondPartials = dict[tuple[int, int], np.ndarray]
"""Second partial derivatives keyed by ``pair_key`` of two parameter ids;
a missing pair is zero."""


def pair_key(a: int, b: int) -> tuple[int, int]:
    """The key of the mixed partial over parameters with ids a and b."""
    return (a, b) if a <= b else (b, a)


def _accumulate(out, key, term) -> None:
    out[key] = out[key] + term if key in out else term


def _mixed(out: SecondPartials, a: int, b: int, term) -> None:
    """Add the term of d2/da db that belongs to two distinct symbols: when
    both are the same parameter it occurs twice in the second derivative."""
    _accumulate(out, pair_key(a, b), 2.0 * term if a == b else term)


def _cross(out: SecondPartials, dx: Partials, dy: Partials, scale) -> None:
    """Add scale * (dx_a dy_b + dx_b dy_a) to every pair (a, b): the cross
    term of the second derivative of a product."""
    for a, da in dx.items():
        for b, db in dy.items():
            _mixed(out, a, b, scale * da * db)


def _chain(out: Partials, dfdx, tangent: Partials) -> None:
    """Add df/dx * dx/dp for every parameter p the argument x depends on."""
    for key, dx in tangent.items():
        _accumulate(out, key, dfdx * dx)


class EvaluationError(ValueError):
    """An expression could not be evaluated at a concrete point."""


class ParamSet:
    """Ordered parameter collection, addressable by name and by index."""

    def __init__(self, params: Iterable[Parameter] = ()):
        self._params: list[Parameter] = []
        self._index: dict[str, int] = {}
        for p in params:
            self.add(p)

    def add(self, param: Parameter) -> None:
        if param.name in self._index:
            raise ValueError(f"duplicate parameter name {param.name!r}")
        self._index[param.name] = len(self._params)
        self._params.append(param)

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key: str | int) -> Parameter:
        if isinstance(key, str):
            return self._params[self._index[key]]
        return self._params[key]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._params)

    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self._params)

    def set_values(self, values: Sequence[float]) -> None:
        if len(values) != len(self._params):
            raise ValueError("value count does not match parameter count")
        for p, v in zip(self._params, values):
            p.set(v)

    def free(self) -> list[Parameter]:
        return [p for p in self._params if not p.fixed]


class FunctorExpr:
    """Base expression node.  Subclasses define ``arity`` and ``eval``."""

    arity: int = 1
    second_order: bool = False
    """Whether ``partials(args, second=True)`` has closed forms."""

    def eval(self, args: tuple):
        raise NotImplementedError

    def partials(
        self,
        args: tuple,
        tangents: tuple[Partials, ...] | None = None,
        second: bool = False,
    ):
        """``(eval(args), partials)``: the value, bitwise, and its partial
        derivatives with respect to each leaf parameter it depends on,
        keyed by ``id(parameter)``.  ``tangents`` holds one such dict per
        argument, the arguments' own partials; None means plain data.

        With ``second``, on plain data and only where ``second_order`` is
        set, a third item holds the exact second partials, keyed by
        ``pair_key``; the first two are bitwise those without it.  On plain
        data a node with ``second_order`` returns arrays of its own, which
        the caller may update in place."""
        raise NotImplementedError

    def __call__(self, *point):
        if len(point) != self.arity:
            raise EvaluationError(
                f"expression consumes {self.arity} arguments, got {len(point)}"
            )
        out = self.eval(tuple(point))
        if np.isscalar(point[0]) and not np.isscalar(out):
            return float(np.asarray(out).reshape(()))
        return out

    def leaf_params(self) -> list[Parameter]:
        """Leaf parameter lists concatenated left to right, deduplicated
        by object identity (a shared Parameter appears once)."""
        out: list[Parameter] = []
        seen: set[int] = set()
        for p in self._collect_params():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def param_set(self) -> ParamSet:
        return ParamSet(self.leaf_params())

    def _collect_params(self) -> Iterable[Parameter]:
        return ()

    # operator algebra
    def __add__(self, other):
        return combine("+", self, other)

    def __sub__(self, other):
        return combine("-", self, other)

    def __mul__(self, other):
        return combine("*", self, other)

    def __truediv__(self, other):
        return combine("/", self, other)


class GaussianShape(FunctorExpr):
    """Normalized density exp(-(x-mu)^2 / (2 sigma^2)) / (sigma sqrt(2 pi))."""

    arity = 1
    second_order = True

    def __init__(self, mean: Parameter, sigma: Parameter):
        self.mean = mean
        self.sigma = sigma

    def _terms(self, x):
        s = self.sigma.value
        if not s > 0:
            raise EvaluationError(f"sigma must be positive, got {s}")
        # in place where the operand is a fresh array: the same arithmetic,
        # in the same order, with fewer temporaries
        z = x - self.mean.value
        z /= s
        f = -0.5 * z
        f *= z
        f = np.exp(f)
        f /= s * _SQRT_2PI
        return s, z, f

    def eval(self, args):
        return self._terms(args[0])[2]

    def partials(self, args, tangents=None, second=False):
        s, z, f = self._terms(args[0])
        dmean = f * z    # dmean = f z / s, also -df/dx
        dmean /= s
        dsigma = dmean * z
        dsigma -= f / s
        out: Partials = {}
        mean, sigma = id(self.mean), id(self.sigma)
        _accumulate(out, mean, dmean)
        _accumulate(out, sigma, dsigma)
        if tangents:
            _chain(out, -dmean, tangents[0])
        if not second:
            return f, out
        # f (z^2 - 1), f z (z^2 - 3) and f ((z^2 - 5) z^2 + 2), over s^2,
        # in place: no z**4 (a float power of negative bases is slow) and
        # no temporary beyond z^2 and f / s^2
        z2 = z * z
        fs2 = f / (s * s)
        mm, ms, ss = z2 - 1.0, z2 - 3.0, z2 - 5.0
        mm *= fs2
        ms *= z
        ms *= fs2
        ss *= z2
        ss += 2.0
        ss *= fs2
        out2: SecondPartials = {}
        _accumulate(out2, (mean, mean), mm)
        _mixed(out2, mean, sigma, ms)
        _accumulate(out2, (sigma, sigma), ss)
        return f, out, out2

    def _collect_params(self):
        return (self.mean, self.sigma)


class ExponentialShape(FunctorExpr):
    """Unnormalized shape exp(-x / tau); normalization is applied downstream."""

    arity = 1
    second_order = True

    def __init__(self, tau: Parameter):
        self.tau = tau

    def eval(self, args):
        t = self.tau.value
        if t == 0:
            raise EvaluationError("tau must be non-zero")
        e = -np.asarray(args[0], dtype=float)
        e /= t
        return np.exp(e)

    def partials(self, args, tangents=None, second=False):
        f = self.eval(args)
        t = self.tau.value
        x = np.asarray(args[0], dtype=float)
        dtau = f * x
        dtau /= t * t
        out: Partials = {id(self.tau): dtau}
        if tangents:
            _chain(out, -f / t, tangents[0])
        if not second:
            return f, out
        return f, out, {(id(self.tau), id(self.tau)): dtau * (x - 2.0 * t) / (t * t)}

    def _collect_params(self):
        return (self.tau,)


class Closure(FunctorExpr):
    """User function of (point, params) lifted into the algebra."""

    def __init__(self, fn: Callable, params: ParamSet, arity: int = 1):
        self.fn = fn
        self.params = params
        self.arity = arity

    def eval(self, args):
        return self.fn(args, self.params)

    def partials(self, args, tangents=None, second=False):
        """Central differences: each parameter steps in a copy of the
        parameter set, so concurrent evaluations never see a shifted value;
        each argument with a tangent steps in a copy of the point.  There
        are no second partials."""
        if second:
            raise NotImplementedError("a closure has no second partials")
        value = self.eval(args)
        out: Partials = {}
        for i, p in enumerate(self.params):
            h = _CLOSURE_STEP * (1.0 + abs(p.value))
            shifted = []
            for sign in (1.0, -1.0):
                q = copy.copy(p)
                q.value = p.value + sign * h    # unchecked: a step may cross a bound
                ps = ParamSet(q if j == i else r for j, r in enumerate(self.params))
                shifted.append(np.asarray(self.fn(args, ps), dtype=float))
            _accumulate(out, id(p), (shifted[0] - shifted[1]) / (2.0 * h))
        for j, tangent in enumerate(tangents or ()):
            if tangent:
                x = np.asarray(args[j], dtype=float)
                h = _CLOSURE_STEP * (1.0 + np.abs(x))
                up = self.fn(args[:j] + (x + h,) + args[j + 1 :], self.params)
                down = self.fn(args[:j] + (x - h,) + args[j + 1 :], self.params)
                _chain(out, (np.asarray(up) - np.asarray(down)) / (2.0 * h), tangent)
        return value, out

    def _collect_params(self):
        return tuple(self.params)


class _BinaryOp(FunctorExpr):
    _ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

    def __init__(self, op: str, left: FunctorExpr, right: FunctorExpr):
        if op not in self._ops:
            raise ValueError(f"unknown operator {op!r}")
        if left.arity != right.arity:
            raise ValueError(
                f"operand arities differ: {left.arity} vs {right.arity}"
            )
        self.op = op
        self.left = left
        self.right = right
        self.arity = left.arity
        self.second_order = left.second_order and right.second_order

    def _apply(self, a, b, args):
        if self.op == "/":
            zero = np.asarray(b) == 0
            if np.any(zero):
                j = int(np.argmax(np.asarray(zero).ravel()))
                point = tuple(
                    float(np.asarray(c).ravel()[j] if not np.isscalar(c) else c) for c in args
                )
                raise EvaluationError(f"division by zero at point {point}")
        return self._ops[self.op](a, b)

    def eval(self, args):
        return self._apply(self.left.eval(args), self.right.eval(args), args)

    def partials(self, args, tangents=None, second=False):
        left = self.left.partials(args, tangents, second)
        right = self.right.partials(args, tangents, second)
        (a, da), (b, db) = left[:2], right[:2]
        value = self._apply(a, b, args)
        out: Partials = {}
        for key, term in self._rule(a, da, b, db, value):
            _accumulate(out, key, term)
        if not second:
            return value, out
        # the same rules on the second partials, plus the cross terms of a
        # product, d(ab) = a_x b_y + a_y b_x, and of a quotient, where
        # (a/b)_xy = (a_xy - (a/b)_x b_y - (a/b)_y b_x - (a/b) b_xy) / b
        out2: SecondPartials = {}
        for key, term in self._rule(a, left[2], b, right[2], value):
            _accumulate(out2, key, term)
        if self.op == "*":
            _cross(out2, da, db, 1.0)
        elif self.op == "/":
            _cross(out2, out, db, -1.0 / b)
        return value, out, out2

    def _rule(self, a, da, b, db, value):
        """The sum, difference, product or quotient rule, term by term,
        over the partials ``da`` of a and ``db`` of b."""
        if self.op == "+":
            return [*da.items(), *db.items()]
        if self.op == "-":
            return [*da.items(), *((k, -d) for k, d in db.items())]
        if self.op == "*":
            return [*((k, d * b) for k, d in da.items()), *((k, a * d) for k, d in db.items())]
        # d(a/b) = (da - (a/b) db) / b
        return [*((k, d / b) for k, d in da.items()),
                *((k, -value * d / b) for k, d in db.items())]

    def _collect_params(self):
        yield from self.left._collect_params()
        yield from self.right._collect_params()


class Composition(FunctorExpr):
    """outer(inner_1(x), ..., inner_k(x)); inners share the input arity."""

    def __init__(self, outer: FunctorExpr, inners: Sequence[FunctorExpr]):
        if outer.arity != len(inners):
            raise ValueError(
                f"outer consumes {outer.arity} arguments, got {len(inners)} inners"
            )
        arities = {f.arity for f in inners}
        if len(arities) != 1:
            raise ValueError(f"inner arities differ: {sorted(arities)}")
        self.outer = outer
        self.inners = tuple(inners)
        self.arity = arities.pop()

    def eval(self, args):
        return self.outer.eval(tuple(f.eval(args) for f in self.inners))

    def partials(self, args, tangents=None, second=False):
        if second:
            raise NotImplementedError("a composition has no second partials")
        # the inners' partials are the tangents of the outer's arguments
        values, inner = zip(*(f.partials(args, tangents) for f in self.inners))
        return self.outer.partials(values, inner)

    def _collect_params(self):
        yield from self.outer._collect_params()
        for f in self.inners:
            yield from f._collect_params()


class Coordinate(FunctorExpr):
    """Projection of an n-dimensional point onto one component."""

    second_order = True

    def __init__(self, index: int, arity: int = 1):
        if not 0 <= index < arity:
            raise ValueError(f"index {index} out of range for arity {arity}")
        self.index = index
        self.arity = arity

    def eval(self, args):
        return np.asarray(args[self.index], dtype=float) + 0.0

    def partials(self, args, tangents=None, second=False):
        value, out = self.eval(args), dict(tangents[self.index]) if tangents else {}
        return (value, out, {}) if second else (value, out)


def shape_gaussian(mean: Parameter, sigma: Parameter) -> FunctorExpr:
    if not sigma.value > 0:
        raise ValueError(f"sigma must be positive, got {sigma.value}")
    return GaussianShape(mean, sigma)


def shape_exponential(tau: Parameter) -> FunctorExpr:
    if tau.value == 0:
        raise ValueError("tau must be non-zero")
    return ExponentialShape(tau)


def wrap_closure(fn: Callable, params: ParamSet | Iterable[Parameter] = (), arity: int = 1) -> FunctorExpr:
    """Lift ``fn(point, params)`` into the expression algebra."""
    if not isinstance(params, ParamSet):
        params = ParamSet(params)
    return Closure(fn, params, arity)


def combine(op: str, a: FunctorExpr, b: FunctorExpr) -> FunctorExpr:
    """Pointwise arithmetic on two expressions of identical arity."""
    return _BinaryOp(op, a, b)


def compose(outer: FunctorExpr, inners: Sequence[FunctorExpr]) -> FunctorExpr:
    return Composition(outer, inners)


def coordinate(index: int, arity: int) -> FunctorExpr:
    return Coordinate(index, arity)


def identity() -> FunctorExpr:
    return Coordinate(0, 1)


def map_evaluate(
    expr: FunctorExpr,
    store: ColumnStore,
    arg_columns: Sequence[str],
    workers: int | None = 1,
) -> np.ndarray:
    """Evaluate ``expr`` on every row projection; returns a float64 column
    aligned index-for-index with the store.

    Rows are processed in fixed-size batches regardless of the worker
    count, so the result is bitwise identical for any number of workers.
    Parameter values must not be mutated while this runs.
    """
    if len(arg_columns) != expr.arity:
        raise ValueError(
            f"expression consumes {expr.arity} arguments, got {len(arg_columns)} columns"
        )
    cols = []
    for name in arg_columns:
        col = store.column(name)
        if col.dtype != np.float64:
            raise ValueError(f"column {name!r} is not real64")
        cols.append(col)
    out = np.empty(len(store))

    def batch(a: int, b: int) -> None:
        out[a:b] = expr.eval(tuple(c[a:b] for c in cols))

    run_batches(batch, len(store), workers)
    out.flags.writeable = False
    return out
