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

Both run a *tape*, the CPU analogue of fusing a functor expression into
one kernel at compile time (the graph-to-flat-program step of numexpr and
Theano).  Each node's ``emit`` writes its value, first and second partials
into a ``Tape`` as ufunc calls on symbolic operands: the dicts of partials
are resolved once, when the tape is built, into register numbers.
``Tape.compile`` drops the calls whose results nothing reads and assigns
the rest to a few reused registers, writing in place where an operand is
read for the last time, so a run is one flat list of ``out=`` calls over
one register file.  Scalars (parameter values and what is derived from
them) are read once per run, so a compiled tape follows the parameters.
Every call keeps the operands and the order of the tree evaluation it
replaces, so the bits are those of that evaluation.  A closure's body is
an opaque step that calls it and writes its result into a register, and
a composition emits its outer node over its inners' symbols.  ``eval``
and ``partials`` compile their tape on first use and keep it.
"""

from __future__ import annotations

import copy
import functools
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

Sym = tuple[int, dict, "dict | None"]
"""What an emission returns, and receives per argument: the tape operand of
a value, those of its first partials keyed by ``id(parameter)``, and those
of its second partials keyed by ``pair_key`` (None when not asked for)."""


def pair_key(a: int, b: int) -> tuple[int, int]:
    """The key of the mixed partial over parameters with ids a and b."""
    return (a, b) if a <= b else (b, a)


class EvaluationError(ValueError):
    """An expression could not be evaluated at a concrete point."""


# ---------------------------------------------------------------------------
# the tape

_REGISTER, _INPUT, _SCALAR, _CONST, _OBJECT = range(5)


class Tape:
    """A straight-line program under construction.

    Operands are integers.  ``input`` names the next run-time input (an
    array or scalar), ``read`` scalars that a reader computes from an
    object once per run, ``const`` a literal and ``object`` an object of
    the run's object table; ``apply`` appends one ufunc call and returns
    the register that receives it, written once.  ``call`` appends an
    opaque step, ``fn(*inputs, *outputs)``, which writes its outputs
    itself.  A compiled tape names objects only by their place in
    ``objects``, so it runs as well over another table of the same kinds.
    """

    def __init__(self):
        self._steps: list[tuple] = []    # (fn, ins, outs, pure, in_place)
        self._kind: list[int] = []
        self._slot: list[int] = []       # index within the operand's kind
        self._readers: list[tuple[Callable, int]] = []
        self._counts = [0] * 5
        self._consts: dict[str, int] = {}
        self._objects: dict[int, int] = {}
        self.objects: list = []

    def _new(self, kind: int) -> int:
        self._kind.append(kind)
        self._slot.append(self._counts[kind])
        self._counts[kind] += 1
        return len(self._kind) - 1

    def input(self) -> int:
        return self._new(_INPUT)

    def object(self, obj) -> int:
        if id(obj) not in self._objects:
            self._objects[id(obj)] = self._new(_OBJECT)
            self.objects.append(obj)
        return self._objects[id(obj)]

    def read(self, reader: Callable, obj, count: int) -> list[int]:
        """``count`` scalars that ``reader(obj)`` returns at the start of
        each run, in order; the reader may raise to reject the values."""
        self._readers.append((reader, self._slot[self.object(obj)]))
        return [self._new(_SCALAR) for _ in range(count)]

    def const(self, value: float) -> int:
        key = float(value).hex()
        if key not in self._consts:
            self._consts[key] = self._new(_CONST)
        return self._consts[key]

    def apply(self, ufunc: np.ufunc, *ins: int) -> int:
        out = self._new(_REGISTER)
        self._steps.append((ufunc, ins, (out,), True, True))
        return out

    def call(self, fn: Callable, ins: Sequence[int], outs: int, pure: bool = True) -> list[int]:
        """An opaque step with ``outs`` new registers; an impure one (a
        check) is kept even when nothing reads what it writes."""
        regs = [self._new(_REGISTER) for _ in range(outs)]
        self._steps.append((fn, tuple(ins), tuple(regs), pure, False))
        return regs

    def compile(self, outputs: Sequence[int] = (), pinned: Sequence[int] = ()) -> Program:
        """The program that computes ``outputs`` and ``pinned``: register i
        holds ``pinned[i]`` (each written by a step, read by none), the
        others are shared by values whose lifetimes do not overlap."""
        steps, kind = self._steps, self._kind
        end = len(steps)
        last = {r: end for r in (*outputs, *pinned)}    # operand -> its last reading step
        kept = []
        for i in range(end - 1, -1, -1):
            fn, ins, outs, pure, _ = steps[i]
            if pure and not any(o in last for o in outs):
                continue
            kept.append(i)
            for r in ins:
                last.setdefault(r, i)
        # register i also holds the chain of values that pinned[i] is
        # computed from in place, each read last by the step that makes
        # the next: no other value ever enters it
        defined = {o: i for i in kept for o in steps[i][2]}
        phys = {}
        for k, r in enumerate(pinned):
            while r not in phys:
                phys[r] = k
                fn, ins, outs, _, in_place = steps[defined[r]]
                chain = [x for x in ins if in_place and kind[x] == _REGISTER and last[x] == defined[r]]
                if chain:
                    r = chain[0]
        free: list[int] = []
        top = len(pinned)
        placed = []
        for i in reversed(kept):
            fn, ins, outs, _, in_place = steps[i]
            dying = [r for r in dict.fromkeys(ins)
                     if kind[r] == _REGISTER and last[r] == i and phys[r] >= len(pinned)]
            if in_place and dying and outs[0] not in phys:
                phys[outs[0]] = phys[dying.pop(0)]
            for o in outs:
                if o not in phys:
                    if free:
                        phys[o] = free.pop()
                    else:
                        phys[o], top = top, top + 1
            free.extend(phys[r] for r in dying)
            free.extend(phys[o] for o in outs if o not in last)
            placed.append((fn, ins, outs, in_place))
        base = [0, top]
        for k in (_INPUT, _SCALAR, _CONST):
            base.append(base[-1] + self._counts[k])
        slot = self._slot

        def at(r: int) -> int:
            return phys[r] if kind[r] == _REGISTER else base[kind[r]] + slot[r]

        program = []
        for fn, ins, outs, in_place in placed:
            if not in_place:
                program.append((fn, tuple(map(at, (*ins, *outs))), None, None))
            elif len(ins) == 2:
                program.append((fn, at(ins[0]), at(ins[1]), at(outs[0])))
            else:
                program.append((fn, at(ins[0]), None, at(outs[0])))
        consts = [float.fromhex(k) for k in self._consts]
        return Program(program, top, self._readers, consts, [at(r) for r in outputs])


class Program:
    """A compiled tape.  A run's operand table holds ``registers`` rows of
    registers, the inputs, the scalars, the constants and the objects, in
    that order; each step addresses it by position."""

    def __init__(self, steps, registers, readers, consts, outputs):
        self.steps = steps
        self.registers = registers
        self.readers = readers
        self.consts = consts
        self.outputs = outputs

    def scalars(self, objects: Sequence) -> list:
        """Every reader's scalars, the constants and the objects: the
        tail of the operand table, read once per run."""
        out: list = []
        for read, k in self.readers:
            out.extend(read(objects[k]))
        out.extend(self.consts)
        out.extend(objects)
        return out

    def run(self, registers, inputs: Sequence, scalars: list) -> list:
        """Execute every step over the register rows (a sequence, or an
        array of them), the inputs and ``scalars``; returns the table."""
        env = [*registers, *inputs, *scalars]
        for fn, a, b, o in self.steps:
            if b is not None:
                fn(env[a], env[b], env[o])
            elif o is not None:
                fn(env[a], env[o])
            else:
                fn(*[env[i] for i in a])
        return env

    def __call__(self, inputs: Sequence, objects: Sequence) -> list:
        """One run on fresh registers shaped like the broadcast inputs; the
        outputs, each an array of its own or the input it passes through.
        Each register is allocated on its own, so the caller keeps only the
        outputs' memory, not every register's."""
        scalars = self.scalars(objects)
        shape = np.broadcast_shapes(*(np.shape(x) for x in inputs))
        regs = [np.empty(shape) for _ in range(self.registers)]
        env = self.run(regs, inputs, scalars)
        return [env[i] for i in self.outputs]


class Walk:
    """Numbers the objects of a structure in first-seen order.

    ``structure`` methods describe a tree with it: two trees of equal
    structure emit the same tape, over objects that their walks number
    alike, so one compiled tape serves both (see ``shared``)."""

    def __init__(self):
        self.objects: list = []
        self._index: dict[int, int] = {}

    def __call__(self, obj) -> int:
        k = self._index.get(id(obj))
        if k is None:
            k = self._index[id(obj)] = len(self.objects)
            self.objects.append(obj)
        return k

    def of(self, ident: int):
        """The number of the object with this ``id``: a partial's key."""
        return self._index.get(ident, ("id", ident))


_SHARED: dict = {}


def shared(key, walk: Walk, build: Callable[[Tape], tuple]) -> tuple:
    """``build(tape)`` returns a compiled program (and anything else that
    follows from the structure); it runs once per ``key``, a structure
    from ``walk``.  Returns what it returned and this walk's objects in the
    order of the program's object table."""
    entry = _SHARED.get(key)
    if entry is None:
        tape = Tape()
        made = build(tape)
        order = [walk.of(id(o)) for o in tape.objects]
        if not all(isinstance(k, int) for k in order):    # an object the walk missed
            return made, tape.objects
        entry = _SHARED[key] = (made, order)
    made, order = entry
    return made, [walk.objects[k] for k in order]


class Kernel:
    """``emit(tape, args)`` compiled on its own for ``arity`` arguments:
    ``order`` 0 gives the value, 1 also the first partials, 2 also the
    second (on plain data).  ``tangent_keys`` lists, per argument, the
    keys of the partials that argument carries in."""

    def __init__(self, emit, arity: int, order: int, tangent_keys=None):
        tape = Tape()
        args = tuple(
            (tape.input(), {k: tape.input() for k in keys}, None)
            for keys in (tangent_keys or ((),) * arity)
        )
        value, first, second = emit(tape, args)
        self.order = order
        self.first = list(first) if order else []
        self.second = list(second) if order == 2 else []
        outs = [value, *(first[k] for k in self.first), *(second[k] for k in self.second)]
        self.program = tape.compile(outs)
        self.objects = tape.objects

    def __call__(self, args: tuple, tangents=None):
        inputs = []
        for j, x in enumerate(args):
            inputs.append(x)
            if tangents:
                inputs.extend(tangents[j].values())
        outs = self.program(inputs, self.objects)
        if not self.order:
            return outs[0]
        f = len(self.first) + 1
        first = dict(zip(self.first, outs[1:f]))
        if self.order == 1:
            return outs[0], first
        return outs[0], first, dict(zip(self.second, outs[f:]))


def _accumulate(tape: Tape, out: dict, key, term: int) -> None:
    """out[key] + term, or term where out has no key yet."""
    out[key] = tape.apply(np.add, out[key], term) if key in out else term


def _mixed(tape: Tape, out: dict, a: int, b: int, term: int) -> None:
    """Add the term of d2/da db that belongs to two distinct symbols: when
    both are the same parameter it occurs twice in the second derivative."""
    if a == b:
        term = tape.apply(np.multiply, tape.const(2.0), term)
    _accumulate(tape, out, pair_key(a, b), term)


def _cross(tape: Tape, out: dict, dx: dict, dy: dict, scale: int | None) -> None:
    """Add scale * (dx_a dy_b + dx_b dy_a) to every pair (a, b): the cross
    term of the second derivative of a product (no scale: 1)."""
    for a, da in dx.items():
        for b, db in dy.items():
            term = da if scale is None else tape.apply(np.multiply, scale, da)
            _mixed(tape, out, a, b, tape.apply(np.multiply, term, db))


def _chain(tape: Tape, out: dict, dfdx: int, tangent: dict) -> None:
    """Add df/dx * dx/dp for every parameter p the argument x depends on."""
    for key, dx in tangent.items():
        _accumulate(tape, out, key, tape.apply(np.multiply, dfdx, dx))


# ---------------------------------------------------------------------------
# expressions

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
    """Base expression node.  Subclasses define ``arity`` and ``emit``."""

    arity: int = 1
    second_order: bool = False
    """Whether ``partials(args, second=True)`` has closed forms."""

    def emit(self, tape: Tape, args: tuple[Sym, ...], second: bool) -> Sym:
        """Append this node's value and partials over ``args`` to the tape;
        with ``second`` (plain arguments only) also its second partials."""
        raise NotImplementedError

    def structure(self, walk: Walk) -> tuple:
        """A hashable description of the tree, over ``walk``'s numbers of
        its nodes and parameters: what its emission depends on."""
        raise NotImplementedError

    def _kernel(self, order: int, tangent_keys=None) -> Kernel:
        kernels = self.__dict__.setdefault("_kernels", {})
        key = (order, tangent_keys)
        if key not in kernels:
            kernels[key] = Kernel(
                lambda tape, args: self.emit(tape, args, order == 2), self.arity, order, tangent_keys
            )
        return kernels[key]

    def eval(self, args: tuple):
        return self._kernel(0)(args)

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
        ``pair_key`` (a missing pair is zero); the first two are bitwise
        those without it.  Every array but a tangent passed through is the
        caller's own."""
        keys = tuple(tuple(t) for t in tangents) if tangents else None
        return self._kernel(2 if second else 1, keys)(args, tangents)

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

    def _scalars(self) -> tuple[float, ...]:
        s = self.sigma.value
        if not s > 0:
            raise EvaluationError(f"sigma must be positive, got {s}")
        return self.mean.value, s, s * _SQRT_2PI, s * s

    def emit(self, tape, args, second):
        op = tape.apply
        x, dx, _ = args[0]
        mean, s, scale, s2 = tape.read(GaussianShape._scalars, self, 4)
        z = op(np.divide, op(np.subtract, x, mean), s)
        f = op(np.multiply, op(np.multiply, tape.const(-0.5), z), z)
        f = op(np.divide, op(np.exp, f), scale)
        dmean = op(np.divide, op(np.multiply, f, z), s)    # f z / s, also -df/dx
        dsigma = op(np.subtract, op(np.multiply, dmean, z), op(np.divide, f, s))
        out: dict = {}
        m, sg = id(self.mean), id(self.sigma)
        _accumulate(tape, out, m, dmean)
        _accumulate(tape, out, sg, dsigma)
        if dx:
            _chain(tape, out, op(np.negative, dmean), dx)
        if not second:
            return f, out, None
        # f (z^2 - 1), f z (z^2 - 3) and f ((z^2 - 5) z^2 + 2), over s^2: no
        # z**4 (a float power of negative bases is slow)
        z2 = op(np.multiply, z, z)
        fs2 = op(np.divide, f, s2)
        mm = op(np.multiply, op(np.subtract, z2, tape.const(1.0)), fs2)
        ms = op(np.multiply, op(np.multiply, op(np.subtract, z2, tape.const(3.0)), z), fs2)
        ss = op(np.multiply, op(np.subtract, z2, tape.const(5.0)), z2)
        ss = op(np.multiply, op(np.add, ss, tape.const(2.0)), fs2)
        out2: dict = {}
        _accumulate(tape, out2, (m, m), mm)
        _mixed(tape, out2, m, sg, ms)
        _accumulate(tape, out2, (sg, sg), ss)
        return f, out, out2

    def structure(self, walk):
        return ("gauss", walk(self), walk(self.mean), walk(self.sigma))

    def _collect_params(self):
        return (self.mean, self.sigma)


class ExponentialShape(FunctorExpr):
    """Unnormalized shape exp(-x / tau); normalization is applied downstream."""

    arity = 1
    second_order = True

    def __init__(self, tau: Parameter):
        self.tau = tau

    def _scalars(self) -> tuple[float, ...]:
        t = self.tau.value
        if t == 0:
            raise EvaluationError("tau must be non-zero")
        return t, t * t, 2.0 * t

    def emit(self, tape, args, second):
        op = tape.apply
        x, dx, _ = args[0]
        t, tt, t2 = tape.read(ExponentialShape._scalars, self, 3)
        f = op(np.exp, op(np.divide, op(np.negative, x), t))
        dtau = op(np.divide, op(np.multiply, f, x), tt)
        out: dict = {}
        _accumulate(tape, out, id(self.tau), dtau)
        if dx:
            _chain(tape, out, op(np.divide, op(np.negative, f), t), dx)
        if not second:
            return f, out, None
        d2 = op(np.divide, op(np.multiply, dtau, op(np.subtract, x, t2)), tt)
        return f, out, {(id(self.tau), id(self.tau)): d2}

    def structure(self, walk):
        return ("exp", walk(self), walk(self.tau))

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

    def emit(self, tape, args, second):
        """Two opaque steps, the value and the central differences; the
        chain rule over arguments with tangents is emitted.  There are no
        second partials."""
        if second:
            raise NotImplementedError("a closure has no second partials")
        xs = [tape.object(self), *(x for x, _, _ in args)]
        (value,) = tape.call(Closure._value_step, xs, 1)
        moving = tuple(j for j, (_, d, _) in enumerate(args) if d)
        diffs = tape.call(functools.partial(_closure_differences, moving), xs,
                          len(self.params) + len(moving))
        out = {id(p): d for p, d in zip(self.params, diffs)}
        for j, dfdx in zip(moving, diffs[len(self.params):]):
            _chain(tape, out, dfdx, args[j][1])
        return value, out, None

    def _value_step(self, *refs):
        np.copyto(refs[-1], self.fn(refs[:-1], self.params))

    def structure(self, walk):
        return ("closure", walk(self), self.arity, tuple(walk(p) for p in self.params))

    def _collect_params(self):
        return tuple(self.params)


def _closure_differences(moving: tuple[int, ...], closure: Closure, *refs) -> None:
    """A closure's central differences over its parameters, then over the
    arguments in ``moving``, into the last registers of ``refs``.  Each
    parameter steps in a copy of the parameter set, so concurrent
    evaluations never see a shifted value; each argument steps in a copy
    of the point."""
    fn, params = closure.fn, closure.params
    args, outs = refs[: closure.arity], refs[closure.arity :]
    for i, p in enumerate(params):
        h = _CLOSURE_STEP * (1.0 + abs(p.value))
        shifted = []
        for sign in (1.0, -1.0):
            q = copy.copy(p)
            q.value = p.value + sign * h    # unchecked: a step may cross a bound
            ps = ParamSet(q if j == i else r for j, r in enumerate(params))
            shifted.append(np.asarray(fn(args, ps), dtype=float))
        np.divide(shifted[0] - shifted[1], 2.0 * h, out=outs[i])
    for j, out in zip(moving, outs[len(params):]):
        x = np.asarray(args[j], dtype=float)
        h = _CLOSURE_STEP * (1.0 + np.abs(x))
        up = fn(args[:j] + (x + h,) + args[j + 1 :], params)
        down = fn(args[:j] + (x - h,) + args[j + 1 :], params)
        np.divide(np.asarray(up) - np.asarray(down), 2.0 * h, out=out)


def _check_divisor(b, *args) -> None:
    """Name the first point where the divisor b is zero."""
    if not np.all(b):
        j = int(np.argmax(np.asarray(b).ravel() == 0))
        point = tuple(
            float(np.asarray(c).ravel()[j] if not np.isscalar(c) else c) for c in args
        )
        raise EvaluationError(f"division by zero at point {point}")


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

    def emit(self, tape, args, second):
        a, da, d2a = self.left.emit(tape, args, second)
        b, db, d2b = self.right.emit(tape, args, second)
        if self.op == "/":
            tape.call(_check_divisor, [b, *(x for x, _, _ in args)], 0, pure=False)
        value = tape.apply(self._ops[self.op], a, b)
        out: dict = {}
        for key, term in self._rule(tape, a, da, b, db, value):
            _accumulate(tape, out, key, term)
        if not second:
            return value, out, None
        # the same rules on the second partials, plus the cross terms of a
        # product, d(ab) = a_x b_y + a_y b_x, and of a quotient, where
        # (a/b)_xy = (a_xy - (a/b)_x b_y - (a/b)_y b_x - (a/b) b_xy) / b
        out2: dict = {}
        for key, term in self._rule(tape, a, d2a, b, d2b, value):
            _accumulate(tape, out2, key, term)
        if self.op == "*":
            _cross(tape, out2, da, db, None)
        elif self.op == "/":
            _cross(tape, out2, out, db, tape.apply(np.divide, tape.const(-1.0), b))
        return value, out, out2

    def _rule(self, tape, a, da, b, db, value):
        """The sum, difference, product or quotient rule, term by term,
        over the partials ``da`` of a and ``db`` of b."""
        op = tape.apply
        if self.op == "+":
            return [*da.items(), *db.items()]
        if self.op == "-":
            return [*da.items(), *((k, op(np.negative, d)) for k, d in db.items())]
        if self.op == "*":
            return [*((k, op(np.multiply, d, b)) for k, d in da.items()),
                    *((k, op(np.multiply, a, d)) for k, d in db.items())]
        # d(a/b) = (da - (a/b) db) / b
        minus = op(np.negative, value)
        return [*((k, op(np.divide, d, b)) for k, d in da.items()),
                *((k, op(np.divide, op(np.multiply, minus, d), b)) for k, d in db.items())]

    def structure(self, walk):
        return (self.op, self.left.structure(walk), self.right.structure(walk))

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

    def emit(self, tape, args, second):
        if second:
            raise NotImplementedError("a composition has no second partials")
        # the inners' partials are the tangents of the outer's arguments
        return self.outer.emit(tape, tuple(f.emit(tape, args, False) for f in self.inners), False)

    def structure(self, walk):
        return ("compose", self.outer.structure(walk), tuple(f.structure(walk) for f in self.inners))

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

    def emit(self, tape, args, second):
        x, dx, _ = args[self.index]
        return tape.apply(np.add, x, tape.const(0.0)), dict(dx), {} if second else None

    def structure(self, walk):
        return ("coordinate", self.index, self.arity)


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
