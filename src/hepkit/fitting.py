"""Extended unbinned maximum-likelihood fitting.

A Pdf pairs a non-negative shape expression with a normalizer (analytic
closed form or numerical integration) and caches the normalization until a
shape parameter changes.  An ExtendedModel is a yield-weighted sum of
normalized p.d.f.s; its objective is the extended negative log-likelihood

    nll = sum_k N_k - sum_e ln( sum_k N_k pdf_k(x_e) )

with additive constants dropped.  Every likelihood pass of a fit is one
data-parallel event loop with a fixed-order chunk reduction, so its values
are bitwise identical for any worker count.  The same pass can also return
the yield moments sum_e r and r^T r, r_k = pdf_k / density: they give the
Newton step that polishes the yields and, since

    dnll/dN_k = 1 - sum_e r_k,    d2nll/dN_k dN_j = sum_e r_k r_j,

the exact yield gradient and yield-yield Hessian block.  Minimization is a
Nelder-Mead simplex over transformed coordinates (bounded parameters ride
a smooth sine transform).  1-sigma uncertainties, following the
delta-NLL = 0.5 convention, come from the inverse Hessian: the yield block
exact, each yield-shape entry the central difference of the exact yield
gradient over a shape step, the shape diagonal a central second
difference, and each shape pair the second difference along the diagonal
step (+h_i, +h_j) and its mirror, which reuses the diagonal passes (see
``numeric_errors``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .functors import FunctorExpr, ParamSet
from .integrate import gk_adaptive, plain_mc
from .kinematics import Parameter
from .parallel import CHUNK, chunk_sums, fold, run_batches
from .rng import BoundedRegion, RngKey, raw64, sample_pdf
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
    """Shape divided by its integral over the range, with a value cache on
    the exact tuple of shape-parameter values."""

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
        self.norm_computations = 0    # test hook for the cache contract

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
            self.norm_computations += 1
        return self._cache_value

    def value(self, args: tuple) -> np.ndarray:
        return np.asarray(self.shape.eval(args), dtype=float) / self.norm()


def make_pdf(
    shape: FunctorExpr,
    normalizer: Callable[[BoundedRegion], float] | None,
    region: BoundedRegion,
) -> Pdf:
    return Pdf(shape, normalizer, region)


def gaussian_norm(shape) -> Callable[[BoundedRegion], float]:
    """Closed-form integral of the normalized Gaussian over an interval."""

    def norm(region: BoundedRegion) -> float:
        lo, hi = region.bounds[0]
        mu, s = shape.mean.value, shape.sigma.value
        rt2 = math.sqrt(2.0)
        return 0.5 * (math.erf((hi - mu) / (s * rt2)) - math.erf((lo - mu) / (s * rt2)))

    return norm


def exponential_norm(shape) -> Callable[[BoundedRegion], float]:
    """Closed-form integral of exp(-x/tau) over an interval."""

    def norm(region: BoundedRegion) -> float:
        lo, hi = region.bounds[0]
        tau = shape.tau.value
        return tau * (math.exp(-lo / tau) - math.exp(-hi / tau))

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

    @property
    def arity(self) -> int:
        return self.components[0][1].shape.arity

    def species(self) -> list[str]:
        return [y.name for y, _ in self.components]

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

    def evaluate(self, args: tuple) -> tuple[list[np.ndarray], np.ndarray]:
        """Each component's pdf_k(x) and the density sum_k N_k pdf_k(x), a
        left fold in component order; norms come from the per-pdf cache."""
        pdfs = [pdf.value(args) for _, pdf in self.components]
        total = None
        for (y, _), p in zip(self.components, pdfs):
            term = y.value * p
            total = term if total is None else total + term
        return pdfs, total

    def density(self, args: tuple) -> np.ndarray:
        """sum_k N_k pdf_k(x); norms come from the per-pdf cache."""
        return self.evaluate(args)[1]


def check_density(dens: np.ndarray, offset: int) -> None:
    """Reject a density that is not positive and finite, naming the first
    bad event by its store index (``offset`` is the slice's first event)."""
    bad = ~(dens > 0) | ~np.isfinite(dens)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"model density {dens[j]!r} is not positive at event {offset + j}")


def add_pdfs(yields: Sequence[Parameter], pdfs: Sequence[Pdf]) -> ExtendedModel:
    if len(yields) != len(pdfs):
        raise ValueError(f"{len(yields)} yields for {len(pdfs)} p.d.f.s")
    return ExtendedModel(list(zip(yields, pdfs)))


def _likelihood_pass(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None,
    moments: bool = False,
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """One data-parallel pass over the store: the extended NLL and, when
    ``moments`` is set, sum_e r and r^T r with r_k = pdf_k / density.

    Each component's pdf is evaluated once per batch and the density is
    ``ExtendedModel.evaluate``'s left fold, so the NLL is bitwise that of a
    density-then-log pass.  A batch returns one row per chunk: the log sum,
    then with moments sum r (k) and the flattened chunk r^T r (k^2), and
    every total is the fixed-order ``fold`` of those rows.  A non-positive
    or non-finite density makes a chunk's log sum non-finite; only then is
    the first bad event of the batch located and named.
    """
    n = len(store)
    if n == 0:
        raise ValueError("the store is empty: a likelihood needs at least one event")
    if len(observable_columns) != model.arity:
        raise ValueError(
            f"model consumes {model.arity} observables, got {len(observable_columns)}"
        )
    cols = store.columns(observable_columns)
    k = len(model.components)
    for _, pdf in model.components:
        pdf.norm()    # fill caches serially before the parallel section

    def batch(a: int, b: int) -> np.ndarray:
        pdfs, dens = model.evaluate(tuple(c[a:b] for c in cols))
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = chunk_sums(np.log(dens)[None, :])
        if not math.isfinite(sum(sums[:, 0].tolist())):
            check_density(dens, a)
        if not moments:
            return sums
        r = np.empty((k, b - a))
        for row, p in zip(r, pdfs):
            np.divide(p, dens, out=row)
        # r^T r stays one BLAS product per chunk: chunk_sums of the r_k r_j
        # rows would round the exact yield Hessian block differently
        rtr = [rc @ rc.T for rc in (r[:, s : s + CHUNK] for s in range(0, b - a, CHUNK))]
        return np.hstack([sums, chunk_sums(r), np.reshape(rtr, (len(sums), k * k))])

    totals = fold(run_batches(batch, n, workers))
    value = model.expected_total() - float(totals[0])
    if not moments:
        return value, None, None
    return value, totals[1 : 1 + k], totals[1 + k :].reshape(k, k)


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
# bound transforms and the simplex minimizer

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

    def internal_step(self, z0: float, step: float) -> float:
        eps = 1e-3
        d = (self.external(z0 + eps) - self.external(z0 - eps)) / (2.0 * eps)
        if abs(d) > 1e-12:
            return step / abs(d)
        return math.sqrt(2.0 * step)


def minimize(
    objective: Callable[[ParamSet], float],
    params: ParamSet,
    max_iterations: int = 2000,
    tolerance: float = 1e-8,
    compute_errors: bool = True,
) -> FitResult:
    """Nelder-Mead over the free parameters of ``params``.

    Converges when the simplex function-value spread falls below
    ``tolerance * (1 + |best|)``.  On convergence (and a positive definite
    Hessian) per-parameter 1-sigma errors come from the inverse numeric
    Hessian in external coordinates.  Fixed parameters never move.
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
    x0 = np.array([t.internal(p.value) for t, p in zip(transforms, free)])

    def set_point(x: np.ndarray) -> None:
        for p, t, z in zip(free, transforms, x):
            p.set(t.external(float(z)))

    def f(x: np.ndarray) -> float:
        set_point(x)
        return evaluate()

    ndim = len(free)
    simplex = [x0]
    for i, (t, p) in enumerate(zip(transforms, free)):
        v = x0.copy()
        v[i] += t.internal_step(x0[i], p.step)
        simplex.append(v)
    values = [f(x) for x in simplex]

    status = FitStatus.MAX_ITERATIONS
    for _ in range(max_iterations):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] <= tolerance * (1.0 + abs(values[0])):
            status = FitStatus.CONVERGED
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = f(xr)
        if fr < values[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid - 0.5 * (centroid - simplex[-1])
            fc = f(xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                best = simplex[0]
                for i in range(1, ndim + 1):
                    simplex[i] = best + 0.5 * (simplex[i] - best)
                    values[i] = f(simplex[i])

    order = np.argsort(values, kind="stable")
    best_x = simplex[order[0]]
    nll_min = values[order[0]]
    set_point(best_x)

    errors: dict[str, float] | None = None
    if compute_errors and status is FitStatus.CONVERGED:
        errors = numeric_errors(objective, params)
        if errors is None:
            status = FitStatus.HESSIAN_NOT_POS_DEF
    return FitResult(params, errors, nll_min, status, calls)


def numeric_errors(
    objective: Callable[[ParamSet], float],
    params: ParamSet,
    yield_derivatives: Callable[[ParamSet], tuple[float, dict[str, float], np.ndarray]]
    | None = None,
) -> dict[str, float] | None:
    """1-sigma uncertainties from the inverse Hessian of an NLL-type
    objective at the current parameter values.  Each free parameter steps
    by h = max(1e-4 |value|, 1e-6), at most half its distance to a bound.
    Returns None when a parameter sits on a bound (h = 0) or the Hessian is
    not positive definite.

    ``yield_derivatives(params)``, when given, returns the objective, its
    gradient with respect to some free parameters (a dict by name; call
    them yields) and the Hessian block of those parameters, ordered as the
    dict.  That block is then exact, and each yield-shape entry is the
    central difference of the yield gradient over a shape step, taken from
    the two passes that give the shape's diagonal.  Every other parameter
    (a shape) has the central-difference diagonal
    [f(+i) - 2 f0 + f(-i)] / h_i^2, and each shape pair reuses it:

        H_ij = [f(+i+j) - f(+i) - f(+j) + 2 f0 - f(-i) - f(-j) + f(-i-j)]
               / (2 h_i h_j)

    so s shapes and any number of yields take 1 + 2s + s(s-1) passes.
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

    def at(offsets: dict[int, float], derivatives: bool = False):
        for i, p in enumerate(free):
            p.set(center[i] + offsets.get(i, 0.0))
        if derivatives and yield_derivatives is not None:
            f, grad, block = yield_derivatives(params)
        else:
            f, grad, block = objective(params), {}, None
        for i, p in enumerate(free):
            p.set(center[i])
        return float(f), grad, block

    n = len(free)
    hess = np.empty((n, n))
    f0, grad0, block = at({}, derivatives=True)
    yields = [i for i, p in enumerate(free) if p.name in grad0]
    shapes = [i for i in range(n) if i not in yields]
    if yields:
        rows = [list(grad0).index(free[i].name) for i in yields]
        hess[np.ix_(yields, yields)] = np.asarray(block)[np.ix_(rows, rows)]
    plus, minus = {}, {}
    for i in shapes:
        hi = steps[i]
        plus[i], g_up, _ = at({i: hi}, derivatives=True)
        minus[i], g_down, _ = at({i: -hi}, derivatives=True)
        hess[i, i] = (plus[i] - 2.0 * f0 + minus[i]) / (hi * hi)
        for j in yields:
            name = free[j].name
            hess[i, j] = hess[j, i] = (g_up[name] - g_down[name]) / (2.0 * hi)
    for a, i in enumerate(shapes):
        hi = steps[i]
        for j in shapes[a + 1 :]:
            hj = steps[j]
            hess[i, j] = hess[j, i] = (
                at({i: hi, j: hj})[0]
                - plus[i]
                - plus[j]
                + 2.0 * f0
                - minus[i]
                - minus[j]
                + at({i: -hi, j: -hj})[0]
            ) / (2.0 * hi * hj)
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

def _yield_stationarity(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals g_k = sum_e pdf_k/density - 1 and the matrix
    A_kj = sum_e pdf_k pdf_j / density^2 at the current parameters."""
    _, sum_r, rtr = _likelihood_pass(model, store, observable_columns, workers, moments=True)
    return sum_r - 1.0, rtr


def _polish_yields(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None,
    tol: float = 1e-12,
    max_iter: int = 40,
) -> None:
    """Newton-refine the free yields to the exact stationary point of the
    extended NLL (shape parameters held where the simplex left them).

    The sWeights identities and the extended-ML yield-sum identity hold
    only at this stationary point, far beyond simplex accuracy.
    """
    free_idx = [i for i, (y, _) in enumerate(model.components) if not y.fixed]
    if not free_idx:
        return
    last = math.inf
    for _ in range(max_iter):
        g, amat = _yield_stationarity(model, store, observable_columns, workers)
        gf = g[free_idx]
        worst = float(np.max(np.abs(gf)))
        if worst < tol or worst >= last:
            break
        last = worst
        sub = amat[np.ix_(free_idx, free_idx)]
        try:
            delta = np.linalg.solve(sub, gf)
        except np.linalg.LinAlgError:
            break
        for i, di in zip(free_idx, delta):
            y = model.components[i][0]
            new = y.value + float(di)
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
    tolerance: float = 1e-8,
    polish_yields: bool = True,
) -> FitResult:
    """Extended maximum-likelihood fit of yields and shape parameters.

    After the simplex converges the free yields are Newton-polished onto
    their exact stationary point, then uncertainties are computed at the
    final parameters, with the yield Hessian block taken exactly from the
    likelihood pass.
    """
    params = model.param_set()

    def objective(ps: ParamSet) -> float:
        return nll(model, store, observable_columns, workers=workers)

    result = minimize(
        objective, params,
        max_iterations=max_iterations,
        tolerance=tolerance,
        compute_errors=False,
    )
    if result.status is FitStatus.CONVERGED and polish_yields:
        _polish_yields(model, store, observable_columns, workers)
    nll_min = nll(model, store, observable_columns, workers=workers)

    # yields entering the density once and no shape have an exact Hessian
    # block; any other free parameter is differenced
    shape_ids = {id(p) for _, pdf in model.components for p in pdf.shape.leaf_params()}
    uses = [id(y) for y in model.yields()]
    exact = [
        k for k, y in enumerate(model.yields())
        if not y.fixed and id(y) not in shape_ids and uses.count(id(y)) == 1
    ]

    def yield_derivatives(ps: ParamSet) -> tuple[float, dict[str, float], np.ndarray]:
        f, sum_r, rtr = _likelihood_pass(
            model, store, observable_columns, workers, moments=True
        )
        grad = {model.components[k][0].name: 1.0 - float(sum_r[k]) for k in exact}
        return f, grad, rtr[np.ix_(exact, exact)]

    errors: dict[str, float] | None = None
    status = result.status
    if status is FitStatus.CONVERGED:
        errors = numeric_errors(objective, params, yield_derivatives if exact else None)
        if errors is None:
            status = FitStatus.HESSIAN_NOT_POS_DEF
    return FitResult(params, errors, nll_min, status, result.n_calls)


# ---------------------------------------------------------------------------
# toy generation

def _poisson_count(lam: float, key: RngKey, tag: int) -> int:
    """Poisson draw addressed by (key, tag), via a counter-based generator."""
    words = raw64(key, np.arange(2, dtype=np.uint64) + np.uint64(2 * tag))
    gen = np.random.Generator(np.random.Philox(key=[int(words[0]), int(words[1])]))
    return int(gen.poisson(lam))


def generate_model_sample(
    model: ExtendedModel,
    key: RngKey,
    poisson: bool = True,
    workers: int | None = 1,
) -> ColumnStore:
    """Draw a data set from the model at its current parameter values.

    Component counts are Poisson(N_k) (or exactly round(N_k) when
    ``poisson`` is false); each component is sampled by accept-reject on
    its shape with a per-component counter block.
    """
    parts: list[ColumnStore] = []
    for c, (y, pdf) in enumerate(model.components):
        lam = y.value
        count = _poisson_count(lam, key, c) if poisson else int(round(lam))
        if count == 0:
            continue
        comp_key = key.offset((c + 1) << 32)
        parts.append(sample_pdf(pdf.shape, pdf.region, count, comp_key, workers=workers))
    if not parts:
        raise ValueError("model yields produced an empty sample")
    schema = parts[0].schema
    cols = [
        np.concatenate([p.column(name) for p in parts]) for name in schema.names
    ]
    return ColumnStore.from_columns(schema, cols)
