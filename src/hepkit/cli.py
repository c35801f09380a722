"""Batch command-line front end.

Subcommands: phsp, integrate, fit, toys, splot, hist.  Results go
to stdout or --output as CSV; stderr carries diagnostics only (including
the fully resolved configuration of every run).  Exit codes: 0 success,
1 domain error (single-line diagnostic), 2 usage error.

Randomized subcommands require an explicit --seed when run
non-interactively; in a terminal the seed defaults to 0 and is printed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .fitting import (
    ExtendedModel,
    FitStatus,
    add_pdfs,
    exponential_norm,
    fit,
    gaussian_norm,
    generate_model_sample,
    make_pdf,
    nll,    # unused here; perfbench/tracer.py rebinds cli.nll
)
from .functors import (
    FunctorExpr,
    ParamSet,
    compose,
    coordinate,
    shape_exponential,
    shape_gaussian,
    wrap_closure,
)
from .integrate import gk15_static, gk_adaptive, plain_mc, vegas
from .kinematics import KinematicsError, Parameter
from .phasespace import DecaySpec, FourVector, phsp_generate, phsp_max_weight, phsp_unweight
from .rng import BoundedRegion, RngKey
from .store import ColumnSchema, ColumnStore, read_csv, write_workers
from .splot import splot_matrix, splot_weights

STREAM_SAMPLING = 0
STREAM_PHASESPACE = 1
STREAM_TOYS = 2
STREAM_INTEGRATION = 3
STREAM_UNWEIGHT = 4

_RANDOMIZED = {"phsp", "toys"}


class UsageError(Exception):
    pass


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_range(text: str) -> tuple[float, float]:
    vals = _parse_floats(text)
    if len(vals) != 2 or not vals[0] < vals[1]:
        raise UsageError(f"expected 'lo,hi' with lo < hi, got {text!r}")
    return vals[0], vals[1]


def _parse_assignments(text: str | None) -> dict[str, float]:
    out: dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"expected name=value, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad value in {item!r}") from exc
    return out


def _parse_names(text: str | None) -> set[str]:
    return {t.strip() for t in text.split(",") if t.strip()} if text else set()


# ---------------------------------------------------------------------------
# model and integrand builders

def build_model(
    model_str: str,
    bounds: tuple[float, float],
    init: dict[str, float],
    fixed: set[str],
    default_total: float | None = None,
) -> ExtendedModel:
    """Build an extended model from a component string like 'gauss+exp'.

    Shape parameters are mean/sigma (gauss) and tau (exp); yields are
    named n_<component>.  Initial values come from ``init``; missing
    yields split ``default_total`` evenly.
    """
    lo, hi = bounds
    span = hi - lo
    names = [c.strip() for c in model_str.split("+") if c.strip()]
    if not names:
        raise UsageError(f"empty model string {model_str!r}")
    if len(set(names)) != len(names):
        raise UsageError("duplicate components are not supported; use distinct shapes")
    region = BoundedRegion(((lo, hi),))

    def par(name: str, default: float | None, step: float,
            lower: float | None = None, upper: float | None = None) -> Parameter:
        if name in init:
            value = init[name]
        elif default is not None:
            value = default
        else:
            raise UsageError(f"missing initial value for parameter {name!r}")
        return Parameter(name, value, step=step, lower=lower, upper=upper,
                         fixed=name in fixed)

    yields: list[Parameter] = []
    pdfs = []
    for comp in names:
        if comp == "gauss":
            mean = par("mean", lo + 0.5 * span, step=0.05 * span)
            sigma = par("sigma", 0.1 * span, step=0.02 * span, lower=1e-6 * span)
            shape = shape_gaussian(mean, sigma)
            pdfs.append(make_pdf(shape, gaussian_norm(shape), region))
        elif comp == "exp":
            tau = par("tau", 0.5 * span, step=0.05 * span, lower=1e-6 * span)
            shape = shape_exponential(tau)
            pdfs.append(make_pdf(shape, exponential_norm(shape), region))
        else:
            raise UsageError(f"unknown model component {comp!r} (use gauss, exp)")
    for comp in names:
        yname = f"n_{comp}"
        default = default_total / len(names) if default_total else None
        value = init.get(yname, default)
        if value is None:
            raise UsageError(f"missing initial yield {yname!r}")
        yields.append(
            Parameter(yname, value, step=max(np.sqrt(max(value, 1.0)), 1.0),
                      lower=0.0, fixed=yname in fixed)
        )
    return add_pdfs(yields, pdfs)


def build_integrand(name: str, params: dict[str, float], dim: int) -> FunctorExpr:
    """Named integrands for the integrate subcommand; multidimensional
    versions are per-coordinate products sharing one parameter set."""
    if dim < 1:
        raise UsageError(f"--dim must be at least 1, got {dim}")
    if name == "gauss":
        mean = Parameter("mean", params.get("mean", 0.5))
        sigma = Parameter("sigma", params.get("sigma", 0.1))
        base = shape_gaussian(mean, sigma)
    elif name == "exp":
        tau = Parameter("tau", params.get("tau", 1.0))
        base = shape_exponential(tau)
    elif name == "power":
        k = Parameter("k", params.get("k", 2.0))
        base = wrap_closure(lambda x, p: np.asarray(x[0], dtype=float) ** p["k"].value,
                            ParamSet([k]))
    else:
        raise UsageError(f"unknown function {name!r} (use gauss, exp, power)")
    if dim == 1:
        return base
    factors = [compose(base, [coordinate(d, dim)]) for d in range(dim)]
    return functools.reduce(lambda a, b: a * b, factors)


# ---------------------------------------------------------------------------
# subcommand implementations

def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_table(table: ColumnStore, args) -> None:
    """The table as CSV to --output or stdout, formatted on --workers."""
    with write_workers(args.workers):
        table.write_csv(args.output or sys.stdout)


def cmd_phsp(args) -> int:
    masses = _parse_floats(args.masses)
    spec = DecaySpec(args.mother_mass, tuple(masses))
    mother = FourVector.at_rest(args.mother_mass)
    key = RngKey(args.seed, stream=STREAM_PHASESPACE)
    block = phsp_generate(spec, mother, args.events, key, workers=args.workers)
    if args.unweight:
        w_max = phsp_max_weight(spec)
        block = phsp_unweight(block, w_max, RngKey(args.seed, stream=STREAM_UNWEIGHT),
                              workers=args.workers)
    _write_table(block, args)
    return 0


def cmd_integrate(args) -> int:
    lo, hi = _parse_range(args.range)
    expr = build_integrand(args.function, _parse_assignments(args.params), args.dim)
    if args.method in ("gk", "gk-adaptive"):
        if args.dim != 1:
            raise UsageError("quadrature methods are one-dimensional (--dim 1)")
        if args.method == "gk":
            result = gk15_static(expr, lo, hi)
        else:
            result = gk_adaptive(expr, lo, hi, rel_tol=args.rel_tol,
                                 max_intervals=args.max_intervals)
    else:
        region = BoundedRegion.cube(lo, hi, args.dim)
        key = RngKey(args.seed, stream=STREAM_INTEGRATION)
        if args.method == "plain":
            result = plain_mc(expr, region, args.calls, key, workers=args.workers)
        else:
            result, _ = vegas(expr, region, args.calls, key,
                              iterations=args.iterations, alpha=args.alpha,
                              bins=args.bins, workers=args.workers)
    text = "value,error,chi2_per_dof,calls_used\n" + (
        f"{result.value:.17g},{result.error:.17g},"
        f"{result.chi2_per_dof:.17g},{result.calls_used}\n"
    )
    _write_output(text, args.output)
    return 0


def _param_rows(result, model: ExtendedModel) -> list[str]:
    """One ``name,value,error,status`` row per model parameter."""
    status = result.status.value
    rows = []
    for p in model.param_set():
        err = ""
        if result.errors and p.name in result.errors:
            err = f"{result.errors[p.name]:.17g}"
        rows.append(f"{p.name},{p.value:.17g},{err},{status}")
    return rows


def _fit_csv(result, model: ExtendedModel) -> str:
    lines = ["name,value,error,status", *_param_rows(result, model)]
    lines.append(f"nll_min,{result.nll_min:.17g},,{result.status.value}")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    store = read_csv(args.input)
    bounds = _parse_range(args.range)
    init = _parse_assignments(args.init)
    model = build_model(args.model, bounds, init, _parse_names(args.fix),
                        default_total=float(len(store)))
    result = fit(model, store, [args.column], workers=args.workers,
                 max_iterations=args.max_iterations)
    _write_output(_fit_csv(result, model), args.output)
    return 0 if result.status is not FitStatus.MAX_ITERATIONS else 1


def cmd_toys(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    bounds = _parse_range(args.range)
    init = _parse_assignments(args.init)
    fixed = _parse_names(args.fix)
    if args.events is not None:
        probe = build_model(args.model, bounds, init, fixed)
        total = probe.expected_total()
        scale = args.events / total
        for y in probe.yields():
            init[y.name] = y.value * scale
    lines = ["toy,name,value,error,status"]
    for t in range(args.n):
        model = build_model(args.model, bounds, init, fixed)
        key = RngKey(args.seed, stream=STREAM_TOYS).child(t)
        sample = generate_model_sample(model, key, workers=args.workers)
        result = fit(model, sample, ["x0"], workers=args.workers,
                     max_iterations=args.max_iterations)
        lines += [f"{t},{row}" for row in _param_rows(result, model)]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _read_fit_result(path: str) -> dict[str, float]:
    """Parameter values of a ``hepkit fit`` result CSV, by name.

    Blank lines and lines with an empty name are skipped; a line without a
    value field, or with a value that is not a float, is rejected naming
    the line and the column.
    """
    values: dict[str, float] = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["name", "value"]:
            raise ValueError(f"{path} is not a fit-result CSV (header {header})")
        for ln, line in enumerate(fh, start=2):
            toks = line.strip().split(",")
            if toks == [""]:
                continue
            if len(toks) < 2:
                raise ValueError(
                    f"{path}: line {ln}, column 'value': missing (1 field, expected at least 2)"
                )
            if not toks[0]:
                continue
            try:
                values[toks[0]] = float(toks[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {ln}, column 'value': expected a float, got {toks[1]!r}"
                ) from None
    return values


def cmd_splot(args) -> int:
    store = read_csv(args.input)
    bounds = _parse_range(args.range)
    fitted = _read_fit_result(args.fit_result)
    fitted.pop("nll_min", None)
    model = build_model(args.model, bounds, fitted, set())
    V = splot_matrix(model, store, [args.column], workers=args.workers)
    table = splot_weights(model, store, [args.column], V, workers=args.workers)
    _write_table(table, args)
    return 0


def cmd_hist(args) -> int:
    store = read_csv(args.input)
    data = store.column(args.column)
    if args.bins < 1 or not args.lo < args.hi:
        raise UsageError("need --bins >= 1 and --lo < --hi")
    weights = None
    if args.weight_column:
        wsource = read_csv(args.weight_input) if args.weight_input else store
        weights = wsource.column(args.weight_column)
        if len(weights) != len(data):
            raise ValueError("weight column length does not match data")
    edges = np.linspace(args.lo, args.hi, args.bins + 1)
    in_range = (data >= args.lo) & (data <= args.hi)
    if weights is None:
        counts, _ = np.histogram(data[in_range], bins=edges)
        errors = np.sqrt(counts)
        counts = counts.astype(float)
    else:
        counts, _ = np.histogram(data[in_range], bins=edges, weights=weights[in_range])
        sumw2, _ = np.histogram(data[in_range], bins=edges,
                                weights=weights[in_range] ** 2)
        errors = np.sqrt(sumw2)
    centers = 0.5 * (edges[:-1] + edges[1:])
    table = ColumnStore.from_columns(ColumnSchema.real64("bin_center", "count", "error"),
                                     [centers, counts, errors])
    _write_table(table, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed (u64)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker threads, 0 = auto (results do not depend on this)")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p.add_argument("--config", default=None,
                   help="key=value defaults file; flags take precedence")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by name, built once per process:
    parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="hepkit",
                                     description="batch analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("phsp", help="n-body phase-space generation")
    p.add_argument("--mother-mass", type=float, required=True)
    p.add_argument("--masses", required=True, help="daughter masses m1,m2,...")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--unweight", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_phsp)

    p = sub.add_parser("integrate", help="numerical integration")
    p.add_argument("--method", choices=["plain", "vegas", "gk", "gk-adaptive"],
                   required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--function", default="gauss", help="gauss, exp or power")
    p.add_argument("--params", default=None, help="shape parameters name=value,...")
    p.add_argument("--range", default="0,1", help="per-dimension bounds lo,hi")
    p.add_argument("--calls", type=int, default=100000)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--max-intervals", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("fit", help="extended maximum-likelihood fit")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, help="component string, e.g. gauss+exp")
    p.add_argument("--range", required=True, help="observable bounds lo,hi")
    p.add_argument("--init", default=None, help="initial values name=value,...")
    p.add_argument("--fix", default=None, help="fixed parameter names")
    p.add_argument("--column", default="x0", help="observable column name")
    p.add_argument("--max-iterations", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("toys", help="repeated toy generation and fits")
    p.add_argument("--n", type=int, required=True, help="number of toys")
    p.add_argument("--events", type=float, default=None,
                   help="rescale yields so the expected total matches")
    p.add_argument("--model", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--init", required=True, help="truth values name=value,...")
    p.add_argument("--fix", default=None)
    p.add_argument("--max-iterations", type=int, default=2000)
    _add_common(p)
    p.set_defaults(func=cmd_toys)

    p = sub.add_parser("splot", help="sWeights from a fitted model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--range", required=True)
    p.add_argument("--fit-result", required=True, help="CSV from the fit subcommand")
    p.add_argument("--column", default="x0")
    _add_common(p)
    p.set_defaults(func=cmd_splot)

    p = sub.add_parser("hist", help="histogram a CSV column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--weight-column", default=None)
    p.add_argument("--weight-input", default=None,
                   help="separate aligned CSV holding the weight column")
    _add_common(p)
    p.set_defaults(func=cmd_hist)

    for name, action in sub.choices.items():
        registry[name] = action
    return parser, registry


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config(args: argparse.Namespace, subparser: argparse.ArgumentParser) -> None:
    if not args.config:
        return
    cfg = _load_config(args.config)
    actions = {a.dest: a for a in subparser._actions}
    for key, raw in cfg.items():
        action = actions.get(key)
        if action is None or not hasattr(args, key):
            raise UsageError(f"config key {key!r} is not a flag of {args.command!r}")
        if getattr(args, key) != action.default:
            continue    # flag was given explicitly, it wins
        if action.const is True and action.nargs == 0:    # store_true flag
            setattr(args, key, raw.lower() in ("1", "true", "yes"))
        elif action.type is not None:
            setattr(args, key, action.type(raw))
        else:
            setattr(args, key, raw)


def _resolve_seed(args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is not None:
        return
    if args.command in _RANDOMIZED or (
        args.command == "integrate" and args.method in ("plain", "vegas")
    ):
        if sys.stdin.isatty():
            args.seed = 0
            print("# seed not given, defaulting to 0", file=sys.stderr)
        else:
            raise UsageError(
                f"{args.command} is randomized: --seed is required in scripted use"
            )
    else:
        args.seed = 0


def _print_resolved(args: argparse.Namespace) -> None:
    skip = {"func", "config"}
    items = sorted(
        (k, v) for k, v in vars(args).items() if k not in skip and v is not None
    )
    rendered = " ".join(f"{k}={v}" for k, v in items)
    print(f"# resolved-config: {rendered}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _apply_config(args, registry[args.command])
        _resolve_seed(args)
        _print_resolved(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (KinematicsError, ValueError, KeyError, IndexError, OSError, RuntimeError) as exc:
        msg = str(exc) or type(exc).__name__
        print(f"error: {msg.splitlines()[0]}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
