"""Extended unbinned maximum-likelihood fitting.

A Pdf pairs a non-negative shape expression with a normalizer (analytic
closed form or numerical integration) and caches the normalization, and
the partials of its logarithm, until a shape parameter changes.  An
ExtendedModel is a yield-weighted sum of normalized p.d.f.s; its objective
is the extended negative log-likelihood

    nll = sum_k N_k - sum_e ln( sum_k N_k pdf_k(x_e) )

with additive constants dropped.  Every likelihood pass of a fit is one
data-parallel event loop with a fixed-order chunk reduction, so its values
are bitwise identical for any worker count.  The same pass sums the score
rows s_e = d ln density_e / d theta of the parameters it is given: a
yield's row is r_k = pdf_k / density, a shape parameter's row is
sum_k N_k dpdf_k/dtheta / density, from the functor tree's forward-mode
partials and the normalizer's log-derivative.  They give the exact
gradient

    dnll/dtheta = d(sum_k N_k)/dtheta - sum_e s_e,

and, on request, S^T S: the BHHH (Fisher) estimate of the Hessian, whose
yield block sum_e r_k r_j is exact.  Where the p.d.f.s have closed-form
second partials the pass instead gives the exact observed Hessian

    d2nll/dtheta dphi = sum_e s_theta s_phi - sum_e D_theta,phi / D,

D the density: the second-derivative term is zero for two yields,
dpdf_k/dphi for the yield of component k and a shape parameter phi, and
N_k d2pdf_k for two shape parameters.

Each kind of pass is one compiled tape (see ``functors``): every
component's pdf with the partials the pass needs, the rows, the density
and its log, as a flat list of ufunc calls over one register file.  The
tape depends only on the structure of the model and of the parameters
asked for, so the models that ``toys`` builds afresh for every fit share
one; scalars (yields, norms and their log-derivatives, shape parameters)
are read once per pass.  A pass of at most one batch keeps its registers
in its thread's ``parallel.workspace``, so the many passes of a small fit
allocate no array of the data's size.

Minimization is BFGS, the variable-metric method of Minuit's MIGRAD, over
internal coordinates in which bounded parameters ride smooth transforms.
A fit seeds the inverse metric B with (S^T S)^-1 from its first pass and
stops when the estimated distance to the minimum, EDM = g^T B g / 2, falls
below a fixed absolute tolerance.  The free yields are then
Newton-polished onto their exact stationary point.  1-sigma
uncertainties, following the delta-NLL = 0.5 convention, come from the
inverse of the exact Hessian, from one pass at the final point.  Only a
parameter of a shape without second partials (a closure or a
composition) has its Hessian column differenced: the central difference
of the exact gradient (see ``numeric_errors``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functors import FunctorExpr, Kernel, ParamSet, Tape, Walk, pair_key, shared
from .integrate import gk_adaptive, plain_mc
from .kinematics import Parameter
from .parallel import CHUNK, EVAL_BATCH, chunk_sums, fold, run_batches, workspace
from .rng import BoundedRegion, RngKey, poisson_deviate, sample_pdf
from .store import ColumnStore


class FitStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    HESSIAN_NOT_POS_DEF = "HessianNotPosDef"


@dataclass
class FitResult:
    params: ParamSet
    errors: dict[str, float] | None
    nll_min: float
    status: FitStatus
    n_calls: int


class Pdf:
    """Shape divided by its integral over the range, with caches of the
    norm and of its log-derivatives on the exact tuple of shape-parameter
    values.

    ``partials`` gives the first partials over the shape parameters and,
    when ``second_order`` is set (a shape with second partials and a
    normalizer with closed-form ``log_second_partials``), the exact second
    ones too.  Both, and ``value``, run the tape of ``emit``."""

    def __init__(
        self,
        shape: FunctorExpr,
        normalizer: Callable[[BoundedRegion], float] | None,
        region: BoundedRegion,
    ):
        if shape.arity != region.dim:
            raise ValueError(
                f"shape consumes {shape.arity} arguments, range has {region.dim}"
            )
        self.shape = shape
        self.region = region
        self._norm_fn = normalizer or self._numeric_norm
        self._params = shape.leaf_params()
        self._cache_key: tuple[float, ...] | None = None
        self._cache_value = 0.0
        self._log_partials: dict[int, float] | None = None
        self._log_second_partials: dict[tuple[int, int], float] | None = None
        self.second_order = shape.second_order and hasattr(self._norm_fn, "log_second_partials")
        self.norm_computations = 0    # test hook for the cache contract
        self._kernels: dict[int, Kernel] = {}

    def _numeric_norm(self, region: BoundedRegion) -> float:
        if region.dim == 1:
            lo, hi = region.bounds[0]
            return gk_adaptive(self.shape, lo, hi, rel_tol=1e-12).value
        # sampling norm for multidimensional shapes; fixed key keeps it
        # deterministic so the cache stays coherent
        return plain_mc(self.shape, region, 200_000, RngKey(0, stream=3)).value

    def norm(self) -> float:
        key = tuple(p.value for p in self._params)
        if key != self._cache_key:
            value = float(self._norm_fn(self.region))
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"normalization must be positive and finite, got {value!r}")
            self._cache_key = key
            self._cache_value = value
            self._log_partials = None
            self._log_second_partials = None
            self.norm_computations += 1
        return self._cache_value

    def log_norm_partials(self) -> dict[int, float]:
        """d ln norm / d theta for each shape parameter, keyed by ``id`` and
        cached with the norm: in closed form when the normalizer has
        ``log_partials``, else by central differences of the norm."""
        norm = self.norm()
        if self._log_partials is None:
            closed = getattr(self._norm_fn, "log_partials", None)
            self._log_partials = closed(self.region) if closed else self._numeric_log_partials(norm)
        return self._log_partials

    def log_norm_second_partials(self) -> dict[tuple[int, int], float]:
        """d2 ln norm / d theta d phi in closed form, keyed by ``pair_key``
        and cached with the norm; only where ``second_order`` is set."""
        self.norm()
        if self._log_second_partials is None:
            self._log_second_partials = self._norm_fn.log_second_partials(self.region)
        return self._log_second_partials

    def _numeric_log_partials(self, norm: float) -> dict[int, float]:
        out = {}
        for p in self._params:
            v, h = p.value, 1e-4 * (abs(p.value) or p.step)
            try:
                p.value = v + h    # unchecked: a step may cross a bound
                up = float(self._norm_fn(self.region))
                p.value = v - h
                down = float(self._norm_fn(self.region))
            finally:
                p.value = v
            out[id(p)] = (up - down) / (2.0 * h * norm)
        return out

    def emit(self, tape: Tape, args: tuple, first: bool = True, second: bool = False):
        """Append pdf = shape / norm to the tape, with ``first`` its partials
        over the shape parameters, dshape/dtheta / norm - pdf * dln
        norm/dtheta, and with ``second`` (where ``second_order`` is set)
        also the second partials, keyed by ``pair_key``: with p the first
        partials and L the log-norm partials,

            d2pdf/dx dy = d2shape/dx dy / norm - p_x L_y - p_y L_x
                          - pdf (L_xy + L_x L_y).

        The norm and its log-derivatives are scalars read once per run.
        """
        shape, d, d2 = self.shape.emit(tape, args, second)
        if not first:
            (norm,) = tape.read(Pdf._norm_scalars, self, 1)
            return tape.apply(np.divide, shape, norm), {}, None
        keys = list(self.log_norm_partials())
        pairs = list(self.log_norm_second_partials()) if second else []
        n = len(keys)
        reader = Pdf._second_scalars if second else Pdf._first_scalars
        scalars = tape.read(reader, self, 1 + 2 * n + len(pairs))
        norm, lp, lp2, l2 = scalars[0], scalars[1 : 1 + n], scalars[1 + n : 1 + 2 * n], scalars[1 + 2 * n :]
        value = tape.apply(np.divide, shape, norm)
        out = {key: tape.apply(np.divide, r, norm) for key, r in d.items()}
        for key, dln in zip(keys, lp):
            _subtract(tape, out, key, tape.apply(np.multiply, value, dln))
        if not second:
            return value, out, None
        out2 = {key: tape.apply(np.divide, r, norm) for key, r in d2.items()}
        for x, dx in out.items():
            for y, dln, dln2 in zip(keys, lp, lp2):
                _subtract(tape, out2, pair_key(x, y), tape.apply(np.multiply, dln2 if x == y else dln, dx))
        for pair, c in zip(pairs, l2):
            _subtract(tape, out2, pair, tape.apply(np.multiply, c, value))
        return value, out, out2

    def _norm_scalars(self) -> tuple[float]:
        return (self.norm(),)

    def _first_scalars(self) -> list[float]:
        """The norm, each log-norm partial and twice it."""
        lp = list(self.log_norm_partials().values())
        return [self.norm(), *lp, *(2.0 * v for v in lp)]

    def _second_scalars(self) -> list[float]:
        """``_first_scalars``, then L_xy + L_x L_y for each log-norm second
        partial."""
        log = self.log_norm_partials()
        l2 = self.log_norm_second_partials()
        return [*self._first_scalars(), *(v + log[x] * log[y] for (x, y), v in l2.items())]

    def structure(self, walk: Walk, first: bool, second: bool) -> tuple:
        """What ``emit(first=first, second=second)`` depends on: the shape's
        structure and the order of the log-norm partials."""
        shape = self.shape.structure(walk)
        keys = tuple(map(walk.of, self.log_norm_partials())) if first else ()
        pairs = tuple((walk.of(x), walk.of(y)) for x, y in self.log_norm_second_partials()) if second else ()
        return ("pdf", walk(self), shape, first, second, keys, pairs)

    def _kernel(self, order: int) -> Kernel:
        if order not in self._kernels:
            self._kernels[order] = Kernel(
                lambda tape, args: self.emit(tape, args, order > 0, order == 2), self.shape.arity, order
            )
        return self._kernels[order]

    def value(self, args: tuple) -> np.ndarray:
        return self._kernel(0)(args)

    def partials(self, args: tuple, second: bool = False):
        """``value(args)``, bitwise, and its partials over the shape
        parameters (see ``emit``); with ``second`` also the second ones."""
        return self._kernel(2 if second else 1)(args)


def _subtract(tape: Tape, out: dict, key, term: int) -> None:
    """out[key] - term, or -term where out has no key yet."""
    out[key] = tape.apply(np.subtract, out[key], term) if key in out else tape.apply(np.negative, term)


def make_pdf(
    shape: FunctorExpr,
    normalizer: Callable[[BoundedRegion], float] | None,
    region: BoundedRegion,
) -> Pdf:
    return Pdf(shape, normalizer, region)


def gaussian_norm(shape) -> Callable[[BoundedRegion], float]:
    """Closed-form integral of the normalized Gaussian over an interval;
    its ``log_partials`` are the closed-form d ln norm / d(mean, sigma) and
    its ``log_second_partials`` the second ones."""

    def norm(region: BoundedRegion) -> float:
        lo, hi = region.bounds[0]
        mu, s = shape.mean.value, shape.sigma.value
        rt2 = math.sqrt(2.0)
        return 0.5 * (math.erf((hi - mu) / (s * rt2)) - math.erf((lo - mu) / (s * rt2)))

    def log_partials(region: BoundedRegion) -> dict[int, float]:
        lo, hi = region.bounds[0]
        mu, s = shape.mean.value, shape.sigma.value
        a, b = (lo - mu) / s, (hi - mu) / s
        pa, pb = math.exp(-0.5 * a * a), math.exp(-0.5 * b * b)
        scale = 1.0 / (math.sqrt(2.0 * math.pi) * s * norm(region))
        return {id(shape.mean): (pa - pb) * scale, id(shape.sigma): (a * pa - b * pb) * scale}

    def log_second_partials(region: BoundedRegion) -> dict[tuple[int, int], float]:
        # with t = (bound - mean) / sigma and phi the unit Gaussian, the
        # norm's second partials over (mean, mean), (mean, sigma) and
        # (sigma, sigma) are [t phi], [(t^2 - 1) phi] and [(t^3 - 2t) phi]
        # over sigma^2, [g] = g(a) - g(b)
        lo, hi = region.bounds[0]
        mu, s = shape.mean.value, shape.sigma.value
        a, b = (lo - mu) / s, (hi - mu) / s
        pa, pb = math.exp(-0.5 * a * a), math.exp(-0.5 * b * b)
        scale = 1.0 / (math.sqrt(2.0 * math.pi) * s * s * norm(region))
        first = log_partials(region)
        lm, ls = first[id(shape.mean)], first[id(shape.sigma)]
        mean, sigma = id(shape.mean), id(shape.sigma)
        return {
            (mean, mean): (a * pa - b * pb) * scale - lm * lm,
            pair_key(mean, sigma): ((a * a - 1.0) * pa - (b * b - 1.0) * pb) * scale - lm * ls,
            (sigma, sigma): ((a**3 - 2.0 * a) * pa - (b**3 - 2.0 * b) * pb) * scale - ls * ls,
        }

    norm.log_partials = log_partials
    norm.log_second_partials = log_second_partials
    return norm


def exponential_norm(shape) -> Callable[[BoundedRegion], float]:
    """Closed-form integral of exp(-x/tau) over an interval; its
    ``log_partials`` are the closed-form d ln norm / d tau and its
    ``log_second_partials`` the closed-form d2 ln norm / d tau2."""

    def norm(region: BoundedRegion) -> float:
        lo, hi = region.bounds[0]
        tau = shape.tau.value
        return tau * (math.exp(-lo / tau) - math.exp(-hi / tau))

    def log_partials(region: BoundedRegion) -> dict[int, float]:
        lo, hi = region.bounds[0]
        tau = shape.tau.value
        el, eh = math.exp(-lo / tau), math.exp(-hi / tau)
        return {id(shape.tau): (el * (1.0 + lo / tau) - eh * (1.0 + hi / tau)) / (tau * (el - eh))}

    def log_second_partials(region: BoundedRegion) -> dict[tuple[int, int], float]:
        # d2 norm / d tau2 = (lo^2 e^(-lo/tau) - hi^2 e^(-hi/tau)) / tau^3
        lo, hi = region.bounds[0]
        tau = shape.tau.value
        el, eh = math.exp(-lo / tau), math.exp(-hi / tau)
        first = log_partials(region)[id(shape.tau)]
        second = (el * lo * lo - eh * hi * hi) / (tau**4 * (el - eh))
        return {(id(shape.tau), id(shape.tau)): second - first * first}

    norm.log_partials = log_partials
    norm.log_second_partials = log_second_partials
    return norm


class ExtendedModel:
    """Yield-weighted sum of normalized p.d.f.s sharing one observable range."""

    def __init__(self, components: Sequence[tuple[Parameter, Pdf]]):
        if len(components) < 1:
            raise ValueError("model needs at least one component")
        arities = {pdf.shape.arity for _, pdf in components}
        if len(arities) != 1:
            raise ValueError("component p.d.f.s must share the observable arity")
        self.components = list(components)
        self._programs: dict = {}    # compiled tapes, by pass kind

    @property
    def arity(self) -> int:
        return self.components[0][1].shape.arity

    def species(self) -> list[str]:
        return [y.name for y, _ in self.components]

    def second_order_ids(self) -> set[int]:
        """ids of the parameters the likelihood pass has an exact Hessian
        for: every yield and shape parameter except those of a p.d.f.
        without second partials."""
        opaque = {
            id(p) for _, pdf in self.components if not pdf.second_order
            for p in pdf.shape.leaf_params()
        }
        return {id(p) for p in self.param_set() if id(p) not in opaque}

    def yields(self) -> list[Parameter]:
        return [y for y, _ in self.components]

    def expected_total(self) -> float:
        return sum(y.value for y, _ in self.components)

    def param_set(self) -> ParamSet:
        out = ParamSet()
        seen: set[int] = set()
        for y, pdf in self.components:
            for p in [y, *pdf.shape.leaf_params()]:
                if id(p) not in seen:
                    seen.add(id(p))
                    out.add(p)
        return out

    def emit(self, tape: Tape, args: tuple, first=None, second=None):
        """Append every component's pdf (component k with its partials
        where ``first[k]``, and its second partials where ``second[k]``)
        and the density sum_k N_k pdf_k, a left fold in component order.
        Returns the yields (scalars read once per run), the pdfs'
        emissions and the density."""
        k = len(self.components)
        yields = tape.read(ExtendedModel._yield_values, self, k)
        pdfs = [
            pdf.emit(tape, args, f, s)
            for (_, pdf), f, s in zip(self.components, first or [False] * k, second or [False] * k)
        ]
        total = None
        for y, (p, _, _) in zip(yields, pdfs):
            term = tape.apply(np.multiply, y, p)
            total = term if total is None else tape.apply(np.add, total, term)
        return yields, pdfs, total

    def _yield_values(self) -> list[float]:
        return [y.value for y, _ in self.components]

    def structure(self, walk: Walk, first: Sequence[bool], second: Sequence[bool]) -> tuple:
        """What ``emit(first=first, second=second)`` depends on."""
        return ("model", walk(self), tuple(
            (walk(y), pdf.structure(walk, f, s))
            for (y, pdf), f, s in zip(self.components, first, second)
        ))

    def evaluate(self, args: tuple) -> tuple[list[np.ndarray], np.ndarray]:
        """Each component's pdf_k(x) and the density of ``emit``; norms
        come from the per-pdf cache."""
        if "evaluate" not in self._programs:
            tape = Tape()
            _, pdfs, dens = self.emit(tape, tuple((tape.input(), {}, None) for _ in range(self.arity)))
            program = tape.compile([*(p for p, _, _ in pdfs), dens])
            self._programs["evaluate"] = program, tape.objects
        program, objects = self._programs["evaluate"]
        *pdfs, dens = program(args, objects)
        return pdfs, dens

    def density(self, args: tuple) -> np.ndarray:
        """sum_k N_k pdf_k(x); norms come from the per-pdf cache."""
        return self.evaluate(args)[1]


def check_density(dens: np.ndarray, offset: int) -> None:
    """Reject a density that is not positive and finite, naming the first
    bad event by its store index (``offset`` is the slice's first event)."""
    bad = ~(dens > 0) | ~np.isfinite(dens)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(
            f"model density {float(dens[j])!r} is not positive at event {offset + j}")


def add_pdfs(yields: Sequence[Parameter], pdfs: Sequence[Pdf]) -> ExtendedModel:
    if len(yields) != len(pdfs):
        raise ValueError(f"{len(yields)} yields for {len(pdfs)} p.d.f.s")
    return ExtendedModel(list(zip(yields, pdfs)))


class _PassPlan:
    """What a likelihood pass over ``params`` (with ``second``: the exact
    Hessian rows) needs: its pairs of second-order parameters, its row
    count and its compiled tape, which depend only on the structure of the
    model and of ``params``.

    The tape computes each component's pdf (with its partials where
    ``differentiate`` asks, and its second partials where ``order2``
    does), the density, the rows of the pass and the log of the density,
    into registers 0 .. rows - 1 (the rows) and ``rows`` (the logs).  A
    row takes its terms in component order, each scaled by N_k where the
    row asks, sums them left to right and divides by the density: a row of
    one term is one division.
    """

    def __init__(self, tape: Tape, model: ExtendedModel, params: Sequence[Parameter],
                 second: bool, differentiate: list[bool], order2: list[bool]):
        q = len(params)
        yields = model.yields()
        depends = [{id(p) for p in pdf.shape.leaf_params()} for _, pdf in model.components]
        exact = model.second_order_ids() if second else set()
        ids = [id(p) for p in params]
        self.pairs = [
            (i, j) for i in range(q) for j in range(i, q)
            if ids[i] in exact and ids[j] in exact and any(
                {ids[i], ids[j]} <= ({id(y)} | dep) and (ids[i] in dep or ids[j] in dep)
                for y, dep in zip(yields, depends)
            )
        ]
        self.rows = q + len(self.pairs)
        self.counts = np.array([sum(y is p for y in yields) for p in params], dtype=float)
        self.opaque = [i for i in range(q) if ids[i] not in exact]

        args = tuple((tape.input(), {}, None) for _ in range(model.arity))
        factors, pdfs, dens = model.emit(tape, args, differentiate, order2)
        terms: list[list[tuple[int, int | None]]] = [[] for _ in range(self.rows)]
        for (y, _), factor, (pk, dp, d2p) in zip(model.components, factors, pdfs):
            d2p = d2p or {}
            for r, p in enumerate(params):
                if y is p:
                    terms[r].append((pk, None))
                if id(p) in dp:
                    terms[r].append((dp[id(p)], factor))
            for r, (i, j) in enumerate(self.pairs, q):
                if id(y) == ids[i] and ids[j] in dp:
                    terms[r].append((dp[ids[j]], None))
                if id(y) == ids[j] and ids[i] in dp:
                    terms[r].append((dp[ids[i]], None))
                if pair_key(ids[i], ids[j]) in d2p:
                    terms[r].append((d2p[pair_key(ids[i], ids[j])], factor))
        rows = []
        for row in terms:
            total = None
            for term, factor in row:
                if factor is not None:
                    term = tape.apply(np.multiply, factor, term)
                total = term if total is None else tape.apply(np.add, total, term)
            if total is None:
                rows.extend(tape.call(_fill_zero, (), 1))
            else:
                rows.append(tape.apply(np.divide, total, dens))
        self.program = tape.compile(pinned=[*rows, tape.apply(np.log, dens)])


def _pass_plan(model: ExtendedModel, params: Sequence[Parameter], second: bool):
    """The ``_PassPlan`` of a pass, shared by every model of the same
    structure, with this model's object table; which components the pass
    differentiates; and to which order."""
    wanted = {id(p) for p in params}
    differentiate = [bool(wanted & {id(p) for p in pdf.shape.leaf_params()})
                     for _, pdf in model.components]
    order2 = [second and d and pdf.second_order
              for (_, pdf), d in zip(model.components, differentiate)]
    walk = Walk()
    key = ("pass", model.structure(walk, differentiate, order2), tuple(map(walk, params)), second)
    plan, objects = shared(
        key, walk, lambda tape: _PassPlan(tape, model, params, second, differentiate, order2)
    )
    return plan, objects, differentiate, order2


def _fill_zero(row: np.ndarray) -> None:
    row.fill(0.0)


def _likelihood_pass(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None,
    params: Sequence[Parameter] = (),
    outer: bool = False,
    second: bool = False,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """One data-parallel pass over the store: the extended NLL, its
    gradient over ``params`` and a Hessian over them: S^T S with
    ``outer``, the exact observed Hessian with ``second``.

    Each component's pdf is evaluated once per batch (with its partials
    when a parameter of its shape is wanted) and the density is
    ``ExtendedModel.emit``'s left fold, so the NLL is bitwise that of a
    density-then-log pass.  The score row of theta is
    (sum_k [N_k is theta] pdf_k + N_k dpdf_k/dtheta) / density, exactly
    r_k = pdf_k / density for the yield of one component.  With
    ``second``, each pair of ``second_order_ids`` parameters that some
    component depends on both of gets the row of

        d2 density / d theta d phi = sum_k [N_k is theta] dpdf_k/dphi
            + [N_k is phi] dpdf_k/dtheta + N_k d2pdf_k/dtheta dphi

    over the density, which the Hessian subtracts from S^T S; its row and
    column of any other parameter are NaN.

    The model is lowered once per kind of pass and structure (a
    ``_PassPlan``) and every batch runs that tape.  A pass of one batch
    keeps its registers in its thread's ``workspace``; a larger pass
    allocates them per batch, a cost its arithmetic amortizes, and holds
    no memory once it returns.  A batch returns one row per chunk: the sum of each
    row, the log sum and the flattened chunk S^T S; every total is the
    fixed-order ``fold`` of those rows.  A non-positive or non-finite
    density makes a chunk's log sum non-finite; only then is the first bad
    event of the batch named.
    """
    n = len(store)
    if n == 0:
        raise ValueError("the store is empty: a likelihood needs at least one event")
    if len(observable_columns) != model.arity:
        raise ValueError(
            f"model consumes {model.arity} observables, got {len(observable_columns)}"
        )
    cols = store.columns(observable_columns)
    q = len(params)
    key = (tuple(map(id, params)), second)
    if key not in model._programs:
        # the entry holds the parameters, so that their ids stay theirs
        model._programs[key] = (tuple(params), *_pass_plan(model, params, second))
    _, plan, objects, differentiate, order2 = model._programs[key]
    for (_, pdf), d, d2 in zip(model.components, differentiate, order2):
        # every cache first, serially: a bad norm is reported before a bad
        # shape parameter, which the readers check component by component
        pdf.norm()
        if d:
            pdf.log_norm_partials()
        if d2:
            pdf.log_norm_second_partials()
    program, rows = plan.program, plan.rows
    scalars = program.scalars(objects)

    def batch(a: int, b: int) -> np.ndarray:
        args = tuple(c[a:b] for c in cols)
        if n <= EVAL_BATCH:
            regs = workspace(program.registers, b - a)
        else:
            regs = np.empty((program.registers, b - a))
        # a bad density is named below, not warned about on the way
        with np.errstate(divide="ignore", invalid="ignore"):
            program.run(regs, args, scalars)
        sums = chunk_sums(regs[: rows + 1])
        if not math.isfinite(sum(sums[:, rows].tolist())):
            check_density(model.density(args), a)
        if not (q and (outer or second)):
            return sums
        # one BLAS product per chunk: chunk_sums of the s_i s_j rows would
        # round the exact yield block differently
        s = regs[:q]
        sts = [sc @ sc.T for sc in (s[:, c : c + CHUNK] for c in range(0, b - a, CHUNK))]
        return np.hstack([sums, np.reshape(sts, (len(sums), q * q))])

    totals = fold(run_batches(batch, n, workers))
    value = model.expected_total() - float(totals[rows])
    if not q:
        return value, None, None
    grad = plan.counts - totals[:q]
    if not (outer or second):
        return value, grad, None
    hess = totals[1 + rows :].reshape(q, q)
    if second:
        for (i, j), t in zip(plan.pairs, totals[q:rows]):
            hess[i, j] -= t
            if i != j:
                hess[j, i] -= t
        hess[plan.opaque, :] = math.nan
        hess[:, plan.opaque] = math.nan
    return value, grad, hess


def nll(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None = 1,
) -> float:
    """Extended negative log-likelihood over the store.

    Raises if the model density is not positive at some event, naming the
    event index.  Parameters are frozen for the duration of the call.
    """
    return _likelihood_pass(model, store, observable_columns, workers)[0]


# ---------------------------------------------------------------------------
# bound transforms and the variable-metric minimizer

EDM_TOLERANCE = 1e-6
"""Default bound on the estimated distance to minimum, in objective units."""

_EPS = np.finfo(float).eps

# a value-only gradient differences over this fraction of a parameter's
# internal step
_GRADIENT_STEP = 1e-4

_LINE_SEARCH_TRIALS = 30

Gradient = Callable[[ParamSet, bool], tuple[float, np.ndarray, np.ndarray | None]]
"""``gradient(params, hessian)``: the objective, its gradient over
``params.free()`` and, when ``hessian`` is set, a Hessian estimate or None."""


class _Transform:
    """Map an unconstrained internal coordinate onto the parameter range."""

    def __init__(self, p: Parameter):
        self.lower, self.upper = p.lower, p.upper

    def external(self, z: float) -> float:
        lo, hi = self.lower, self.upper
        if lo is not None and hi is not None:
            return lo + (hi - lo) * (math.sin(z) + 1.0) / 2.0
        if lo is not None:
            return lo - 1.0 + math.sqrt(z * z + 1.0)
        if hi is not None:
            return hi + 1.0 - math.sqrt(z * z + 1.0)
        return z

    def internal(self, v: float) -> float:
        lo, hi = self.lower, self.upper
        if lo is not None and hi is not None:
            u = 2.0 * (v - lo) / (hi - lo) - 1.0
            return math.asin(min(1.0, max(-1.0, u)))
        if lo is not None:
            return math.sqrt(max((v - lo + 1.0) ** 2 - 1.0, 0.0))
        if hi is not None:
            return math.sqrt(max((hi - v + 1.0) ** 2 - 1.0, 0.0))
        return v

    def derivative(self, z: float) -> float:
        """d external / d internal at z."""
        lo, hi = self.lower, self.upper
        if lo is not None and hi is not None:
            return (hi - lo) * math.cos(z) / 2.0
        if lo is not None:
            return z / math.sqrt(z * z + 1.0)
        if hi is not None:
            return -z / math.sqrt(z * z + 1.0)
        return 1.0

    def internal_step(self, z0: float, step: float) -> float:
        d = self.derivative(z0)
        if abs(d) > 1e-12:
            return step / abs(d)
        return math.sqrt(2.0 * step)


def _inverse_metric(hess: np.ndarray) -> np.ndarray:
    """hess^-1 when positive definite; otherwise the inverse of its
    diagonal, with unit metric along a direction without positive
    curvature."""
    try:
        np.linalg.cholesky(hess)
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return np.diag([1.0 / d if d > 0 else 1.0 for d in np.diag(hess)])


def minimize(
    objective: Callable[[ParamSet], float],
    params: ParamSet,
    max_iterations: int = 2000,
    tolerance: float = EDM_TOLERANCE,
    compute_errors: bool = True,
    gradient: Gradient | None = None,
) -> FitResult:
    """BFGS over the free parameters of ``params`` in internal coordinates.

    With ``gradient`` the objective is not called; without, gradients are
    central differences of ``objective``.  The inverse metric B starts as
    the inverse of the first Hessian estimate or, lacking one, of the
    central second differences over each ``Parameter.step`` (MIGRAD's
    seed); a direction whose second difference is lost in rounding gets
    unit metric, so a tiny step cannot fake a small EDM.  Each iteration is
    a backtracking line search along -B g and a BFGS update.  Converged
    when EDM = g^T B g / 2 < ``tolerance``; MaxIterations after
    ``max_iterations`` iterations, or when no step decreases the objective.
    ``n_calls`` counts objective or ``gradient`` calls.  Errors, on
    convergence, come from ``numeric_errors``.  Fixed parameters never move.
    """
    free = params.free()
    calls = 0

    def evaluate() -> float:
        nonlocal calls
        calls += 1
        return float(objective(params))

    if not free:
        value = evaluate()
        return FitResult(params, {}, value, FitStatus.CONVERGED, calls)

    transforms = [_Transform(p) for p in free]
    x = np.array([t.internal(p.value) for t, p in zip(transforms, free)])
    steps = [t.internal_step(z, p.step) for t, p, z in zip(transforms, free, x)]

    def set_point(x: np.ndarray) -> None:
        for p, t, z in zip(free, transforms, x):
            p.set(t.external(float(z)))

    def shifted(x: np.ndarray, i: int, h: float) -> float:
        y = x.copy()
        y[i] += h
        set_point(y)
        return evaluate()

    def curvature(x: np.ndarray, f0: float, i: int) -> float:
        h = steps[i]
        second = shifted(x, i, h) - 2.0 * f0 + shifted(x, i, -h)
        return second / (h * h) if second > 8.0 * _EPS * (1.0 + abs(f0)) else 0.0

    def at(x: np.ndarray, hessian: bool = False):
        """Objective, internal gradient and (with ``hessian``) internal
        Hessian estimate at x."""
        nonlocal calls
        set_point(x)
        hess = None
        if gradient is None:
            f = evaluate()
            g = np.array([
                (shifted(x, i, h) - shifted(x, i, -h)) / (2.0 * h)
                for i, h in enumerate(_GRADIENT_STEP * s for s in steps)
            ])
        else:
            calls += 1
            f, g, hess = gradient(params, hessian)
            jac = np.array([t.derivative(z) for t, z in zip(transforms, x)])
            g = np.asarray(g, dtype=float) * jac
            if hess is not None:
                hess = np.asarray(hess, dtype=float) * np.outer(jac, jac)
        if hessian and hess is None:
            hess = np.diag([curvature(x, f, i) for i in range(len(x))])
        set_point(x)
        return float(f), g, hess

    f, g, hess = at(x, hessian=True)
    seed = metric = _inverse_metric(hess)
    status = FitStatus.MAX_ITERATIONS
    for iteration in range(max_iterations + 1):
        if 0.5 * g @ metric @ g < tolerance:
            status = FitStatus.CONVERGED
            break
        if iteration == max_iterations:
            break
        direction = -metric @ g
        slope = g @ direction
        if not slope < 0:    # rounding broke the metric: restart from the seed
            metric = seed
            direction = -metric @ g
            slope = g @ direction
        alpha = 1.0
        for _ in range(_LINE_SEARCH_TRIALS):
            try:
                f1, g1, _ = at(x + alpha * direction)
            except ValueError:    # the trial point left the model's domain
                f1 = math.inf
            if f1 <= f + 1e-4 * alpha * slope:
                break
            # minimum of the parabola through f, slope and f1, within [0.1, 0.5]
            ratio = -slope * alpha / (2.0 * (f1 - f - slope * alpha))
            alpha *= min(0.5, max(0.1, ratio))
        else:
            break
        s = alpha * direction
        y = g1 - g
        sy = s @ y
        if sy > _EPS * math.sqrt((s @ s) * (y @ y)):
            v = np.eye(len(x)) - np.outer(s, y) / sy
            metric = v @ metric @ v.T + np.outer(s, s) / sy
        x, f, g = x + s, f1, g1
    set_point(x)

    errors: dict[str, float] | None = None
    if compute_errors and status is FitStatus.CONVERGED:
        errors = numeric_errors(objective, params, gradient)
        if errors is None:
            status = FitStatus.HESSIAN_NOT_POS_DEF
    return FitResult(params, errors, f, status, calls)


def numeric_errors(
    objective: Callable[[ParamSet], float],
    params: ParamSet,
    gradient: Gradient | None = None,
    exact: Sequence[str] = (),
) -> dict[str, float] | None:
    """1-sigma uncertainties from the inverse Hessian of an NLL-type
    objective at the current parameter values.  Each free parameter steps
    by h = max(1e-4 |value|, 1e-6), at most half its distance to a bound.
    Returns None when a parameter sits on a bound (h = 0) or the Hessian is
    not positive definite.

    ``gradient`` is ``minimize``'s; without it the gradient is the central
    difference of ``objective`` over the same steps.  The Hessian block of
    the parameters named in ``exact`` is the one ``gradient`` returns at
    the centre, which ``fit`` makes the exact observed Hessian; every other
    column is the differenced fallback, the central difference of the
    gradient over its parameter's step, and a pair of such parameters gets
    the mean of its two differences.  So s differenced parameters take 2s
    gradient evaluations, plus one at the centre when ``exact`` names any:
    a fit of Gaussian and exponential shapes takes that one alone.
    """
    free = params.free()
    if not free:
        return {}
    center = [p.value for p in free]
    steps = []
    for p in free:
        h = max(1e-4 * abs(p.value), 1e-6)
        if p.upper is not None:
            h = min(h, max((p.upper - p.value) * 0.5, 0.0))
        if p.lower is not None:
            h = min(h, max((p.value - p.lower) * 0.5, 0.0))
        if h <= 0:
            return None
        steps.append(h)

    if gradient is None:
        def gradient(ps: ParamSet, hessian: bool):
            g = np.empty(len(free))
            for j, (p, h) in enumerate(zip(free, steps)):
                v = p.value
                p.set(v + h)
                up = objective(ps)
                p.set(v - h)
                down = objective(ps)
                p.set(v)
                g[j] = (up - down) / (2.0 * h)
            return None, g, None

    def gradient_at(i: int, offset: float) -> np.ndarray:
        free[i].set(center[i] + offset)
        try:
            return np.asarray(gradient(params, False)[1], dtype=float)
        finally:
            free[i].set(center[i])

    n = len(free)
    hess = np.empty((n, n))
    given = [i for i, p in enumerate(free) if p.name in exact]
    if given:
        hess[np.ix_(given, given)] = np.asarray(gradient(params, True)[2])[np.ix_(given, given)]
    differenced = [i for i in range(n) if i not in given]
    cols = np.empty((n, len(differenced)))
    for c, i in enumerate(differenced):
        cols[:, c] = (gradient_at(i, steps[i]) - gradient_at(i, -steps[i])) / (2.0 * steps[i])
    hess[:, differenced] = cols
    hess[differenced, :] = cols.T
    block = cols[differenced]
    hess[np.ix_(differenced, differenced)] = 0.5 * (block + block.T)
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    cov = np.linalg.inv(hess)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return None
    return {p.name: float(math.sqrt(d)) for p, d in zip(free, diag)}


# ---------------------------------------------------------------------------
# full fit with yield refinement

_POLISH_TOL = 1e-12        # the yield polish's gradient target
_POLISH_ITERATIONS = 40    # and its Newton step budget


def _polish_yields(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None,
) -> None:
    """Newton-refine the free yields to the exact stationary point of the
    extended NLL (shape parameters held where the minimizer left them).

    The sWeights identities and the extended-ML yield-sum identity hold
    only at this stationary point, beyond what the EDM bound asks.
    """
    free = [y for y in model.yields() if not y.fixed]
    if not free:
        return
    last = math.inf
    for _ in range(_POLISH_ITERATIONS):
        _, grad, hess = _likelihood_pass(
            model, store, observable_columns, workers, free, outer=True
        )
        worst = float(np.max(np.abs(grad)))
        if worst < _POLISH_TOL or worst >= last:
            break
        last = worst
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        for y, d in zip(free, delta):
            new = y.value - float(d)
            if y.lower is not None:
                new = max(new, y.lower)
            if y.upper is not None:
                new = min(new, y.upper)
            y.set(new)


def fit(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None = 1,
    max_iterations: int = 2000,
) -> FitResult:
    """Extended maximum-likelihood fit of yields and shape parameters.

    ``minimize`` runs on the likelihood pass's exact gradient, its metric
    seeded with the first pass's S^T S.  After it converges the free yields
    are Newton-polished onto their exact stationary point, and ``nll_min``
    is one ``nll`` pass there.  Through ``numeric_errors``, one pass with
    the exact observed Hessian at the final parameters gives the
    uncertainties; only the parameters outside
    ``ExtendedModel.second_order_ids`` have their Hessian columns
    differenced.
    """
    params = model.param_set()
    free = params.free()

    def objective(ps: ParamSet) -> float:
        return nll(model, store, observable_columns, workers=workers)

    def gradient(ps: ParamSet, hessian: bool):
        return _likelihood_pass(model, store, observable_columns, workers, free, outer=hessian)

    result = minimize(
        objective, params,
        max_iterations=max_iterations,
        compute_errors=False,
        gradient=gradient,
    )
    if result.status is FitStatus.CONVERGED:
        _polish_yields(model, store, observable_columns, workers)
    nll_min = nll(model, store, observable_columns, workers=workers)

    def exact_gradient(ps: ParamSet, hessian: bool):
        return _likelihood_pass(model, store, observable_columns, workers, free, second=hessian)

    exact_ids = model.second_order_ids()
    exact = [p.name for p in free if id(p) in exact_ids]
    errors: dict[str, float] | None = None
    status = result.status
    if status is FitStatus.CONVERGED:
        errors = numeric_errors(objective, params, exact_gradient, exact)
        if errors is None:
            status = FitStatus.HESSIAN_NOT_POS_DEF
    return FitResult(params, errors, nll_min, status, result.n_calls)


# ---------------------------------------------------------------------------
# toy generation

def generate_model_sample(
    model: ExtendedModel,
    key: RngKey,
    poisson: bool = True,
    workers: int | None = 1,
) -> ColumnStore:
    """Draw a data set from the model at its current parameter values.

    Component c draws from ``key.child(c)``: its count, Poisson(N_c) (or
    exactly round(N_c) when ``poisson`` is false), from that key's child 0,
    and its events, by accept-reject on its shape, from its child 1.
    """
    parts: list[ColumnStore] = []
    for c, (y, pdf) in enumerate(model.components):
        comp_key = key.child(c)
        count = poisson_deviate(comp_key.child(0), y.value) if poisson else int(round(y.value))
        if count == 0:
            continue
        parts.append(sample_pdf(pdf.shape, pdf.region, count, comp_key.child(1), workers=workers))
    if not parts:
        raise ValueError("model yields produced an empty sample")
    schema = parts[0].schema
    cols = [
        np.concatenate([p.column(name) for p in parts]) for name in schema.names
    ]
    return ColumnStore.from_columns(schema, cols)
