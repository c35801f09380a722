"""The benchmark workloads, each driving hepkit the way a user does.

A workload owns its inputs (made from the run seed), runs one operation at
a time, and checks that operation's outputs outside the timed region.
Every operation returns an ``OpResult``; its ``outputs`` are the bytes a
user would keep, which the traced run compares across worker counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from hepkit import cli
from hepkit.phasespace import phsp_schema
from hepkit.rng import RngKey
from hepkit.store import ColumnSchema, ColumnStore

def derive_seed(seed: int, *tags) -> int:
    """63-bit seed derived from the run seed and a tag path."""
    text = ":".join(str(t) for t in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


@dataclass
class OpResult:
    """What one operation produced: output bytes by name (``files`` are read
    into ``outputs`` after the timer stops), the work units it completed
    (toys, integrand calls, generated or input events) and its headline
    relative uncertainty, which ``check`` fills in."""

    outputs: dict[str, bytes] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    units: float = 0.0
    rel_err: float = math.nan
    detail: dict = field(default_factory=dict)


def _call_main(argv: list[str]) -> None:
    """hepkit.cli.main with its stderr diagnostics captured; a nonzero exit
    code raises with the diagnostic it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        lines = [ln for ln in err.getvalue().splitlines() if not ln.startswith("#")]
        raise RuntimeError(f"hepkit {argv[0]} exited {code}: {' '.join(lines)[:200]}")


def _parse_table(data: bytes) -> tuple[list[str], np.ndarray]:
    """Header names and an (rows, cols) float array from CSV bytes."""
    head, _, body = data.partition(b"\n")
    names = head.decode().split(",")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return names, table.reshape(-1, len(names))


def _parse_fit(data: bytes) -> dict[str, tuple[float, float | None, str]]:
    """name -> (value, error or None, status) from a fit-result CSV."""
    out = {}
    for line in data.decode().splitlines()[1:]:
        name, value, err, status = line.split(",")
        out[name] = (float(value), float(err) if err else None, status)
    return out


def _pull_failures(fitted, truth: dict[str, float], label: str) -> list[str]:
    out = []
    for name, want in truth.items():
        value, err, _ = fitted[name]
        if err is None or not err > 0:
            out.append(f"{label}: {name} has no error")
        elif abs(value - want) > 5.0 * err:
            out.append(f"{label}: {name}={value:.6g} is {abs(value - want) / err:.1f} sigma "
                       f"from truth {want:.6g}")
    return out


class Workload:
    name = ""
    unit = ""          # what one throughput unit is

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Make the workload's inputs from the seed (part of set-up time)."""

    def warmup(self, workers: int) -> None:
        """One small operation, so that lazy set-up is paid before timing."""

    def op(self, i: int, workers: int) -> OpResult:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Make operation ``i``'s own input, outside the timed region."""

    def check(self, i: int, result: OpResult) -> list[str]:
        """Failure messages for operation ``i``, empty when it is correct;
        sets ``result.rel_err``."""
        return []

    def reset(self) -> None:
        """Forget state that checks accumulate across a pass."""


class Toys(Workload):
    """One toy of ``hepkit toys``: build, sample with key (seed, 2, t << 40), fit.

    False-failure rate of the check: five parameters at 5 sigma give
    about 2.9e-6 per toy; the duplicate-sample check has none.
    """

    name = "toys"
    unit = "toys"
    truth = {"mean": 5.0, "sigma": 0.5, "tau": 3.0, "n_gauss": 4000.0, "n_exp": 6000.0}

    def __init__(self, workdir: str, seed: int, scale: float = 1.0):
        super().__init__(workdir, seed)
        self.truth = dict(self.truth)
        for y in ("n_gauss", "n_exp"):
            self.truth[y] *= scale
        self.toy_seed = derive_seed(seed, self.name)
        self.reset()

    def reset(self) -> None:
        self._samples: dict[bytes, int] = {}

    def _model(self):
        return cli.build_model("gauss+exp", (0.0, 10.0), dict(self.truth), set())

    def sample(self, model, t: int, key_seed: int, workers: int):
        key = RngKey(key_seed, stream=cli.STREAM_TOYS, counter=t << 40)
        return cli.generate_model_sample(model, key, workers=workers)

    def run_toy(self, t: int, key_seed: int, workers: int):
        model = self._model()
        sample = self.sample(model, t, key_seed, workers)
        result = cli.fit(model, sample, ["x0"], workers=workers)
        return model, sample, result

    def warmup(self, workers: int) -> None:
        self.run_toy(0, derive_seed(self.seed, self.name, "warmup"), workers)

    def op(self, t: int, workers: int) -> OpResult:
        model, sample, result = self.run_toy(t, self.toy_seed, workers)
        status = result.status.value
        lines = []
        fitted = {}
        for p in model.param_set():
            err = result.errors.get(p.name) if result.errors else None
            fitted[p.name] = (p.value, err, status)
            lines.append(f"{t},{p.name},{p.value:.17g},{'' if err is None else f'{err:.17g}'},"
                         f"{status}\n")
        res = OpResult(outputs={"fit": "".join(lines).encode()}, units=1.0)
        res.detail["sample"] = hashlib.sha256(sample.column("x0").tobytes()).digest()
        res.detail["fitted"] = fitted
        return res

    def check(self, t: int, result: OpResult) -> list[str]:
        label = f"toy {t}"
        out = []
        fitted = result.detail["fitted"]
        n_gauss, err, status = fitted["n_gauss"]
        result.rel_err = err / n_gauss if err else math.nan
        if status != "Converged":
            out.append(f"{label}: status {status}")
        else:
            out += _pull_failures(fitted, self.truth, label)
        first = self._samples.setdefault(result.detail["sample"], t)
        if first != t:
            out.append(f"{label}: sample identical to toy {first}")
        return out


class ToyFits(Toys):
    """The fit of one toy, as ``toys`` runs it, on a sample drawn with numpy
    from a seed derived per operation: Poisson(4000) truncated Gaussian and
    Poisson(6000) truncated exponential events.  The sample is drawn before
    the timer starts, so only ``fit`` is timed, and hepkit's RNG does not
    make the input.

    False-failure rate of the check: as ``toys``, about 2.9e-6 per fit.
    """

    name = "toy_fits"
    unit = "fits"

    def prepare(self, i: int) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, self.name, i))
        x = draw_events(rng, int(rng.poisson(self.truth["n_gauss"])),
                        int(rng.poisson(self.truth["n_exp"])))
        self._next = ColumnStore.from_columns(ColumnSchema.real64("x0"), [x])

    def sample(self, model, t: int, key_seed: int, workers: int):
        return self._next

    def warmup(self, workers: int) -> None:
        self.prepare(0)
        self.run_toy(0, 0, workers)


class Vegas10d(Workload):
    """``hepkit integrate --method vegas --dim 10 --function gauss``.

    False-failure rate of the check: the 5 sigma pull 5.7e-7; relative
    error < 1% none (it sits near 0.04%); chi2/dof < 3 would fail 1.4e-3
    for 9 consistent iterations, but fails about 2% of operations at this
    commit because the first, unadapted iteration enters the chi2.
    """

    name = "vegas_10d"
    unit = "integrand calls"

    def __init__(self, workdir: str, seed: int, calls: int = 500_000, iterations: int = 10):
        super().__init__(workdir, seed)
        self.calls = calls
        self.iterations = iterations
        # integral over [0,1]^10 of a product of normalized N(0.5, 0.1)
        self.truth = math.erf(0.5 / (0.1 * math.sqrt(2.0))) ** 10

    def _run(self, seed: int, workers: int, calls: int, iterations: int) -> str:
        out = self.path("vegas.csv")
        _call_main(["integrate", "--method", "vegas", "--dim", "10", "--function", "gauss",
                    "--params", "mean=0.5,sigma=0.1", "--calls", str(calls),
                    "--iterations", str(iterations), "--seed", str(seed),
                    "--workers", str(workers), "--output", out])
        return out

    def warmup(self, workers: int) -> None:
        self._run(derive_seed(self.seed, self.name, "warmup"), workers, 20_000, 2)

    def op(self, i: int, workers: int) -> OpResult:
        path = self._run(derive_seed(self.seed, self.name, i), workers,
                         self.calls, self.iterations)
        return OpResult(files={"vegas.csv": path}, units=float(self.calls * self.iterations))

    def check(self, i: int, result: OpResult) -> list[str]:
        names, row = _parse_table(result.outputs["vegas.csv"])
        if names != ["value", "error", "chi2_per_dof", "calls_used"] or row.shape != (1, 4):
            return [f"op {i}: malformed integrate output"]
        value, error, chi2 = row[0, :3]
        result.rel_err = error / value
        out = []
        if not abs(value - self.truth) <= 5.0 * error:
            out.append(f"op {i}: value {value!r} is {abs(value - self.truth) / error:.1f} "
                       f"sigma from truth {self.truth!r}")
        if not error / value < 0.01:
            out.append(f"op {i}: relative error {error / value:.3g} >= 1%")
        if not chi2 < 3.0:
            out.append(f"op {i}: chi2/dof {chi2:.3g} >= 3")
        if int(row[0, 3]) != self.calls * self.iterations:
            out.append(f"op {i}: calls_used {int(row[0, 3])}")
        return out


class PhspCsv(Workload):
    """``hepkit phsp --mother-mass 1 --masses 0.1,0.1,0.1 --unweight`` to a file.

    The check is exact arithmetic on the written values, so its
    false-failure rate is zero.
    """

    name = "phsp_csv"
    unit = "generated events"
    masses = (0.1, 0.1, 0.1)

    def __init__(self, workdir: str, seed: int, events: int = 250_000):
        super().__init__(workdir, seed)
        self.events = events

    def _run(self, seed: int, workers: int, events: int) -> str:
        out = self.path("phsp.csv")
        _call_main(["phsp", "--mother-mass", "1", "--masses",
                    ",".join(str(m) for m in self.masses), "--events", str(events),
                    "--unweight", "--seed", str(seed), "--workers", str(workers),
                    "--output", out])
        return out

    def warmup(self, workers: int) -> None:
        self._run(derive_seed(self.seed, self.name, "warmup"), workers, 20_000)

    def op(self, i: int, workers: int) -> OpResult:
        path = self._run(derive_seed(self.seed, self.name, i), workers, self.events)
        return OpResult(files={"phsp.csv": path}, units=float(self.events))

    def check(self, i: int, result: OpResult) -> list[str]:
        names, table = _parse_table(result.outputs["phsp.csv"])
        if tuple(names) != phsp_schema(len(self.masses)).names:
            return [f"op {i}: header {names} is not phsp_schema(3)"]
        if not 0 < len(table) <= self.events:
            return [f"op {i}: {len(table)} rows from {self.events} events"]
        result.rel_err = 1.0 / math.sqrt(len(table))
        out = []
        bad = np.flatnonzero(table[:, 0] != 1.0)
        if bad.size:
            out.append(f"op {i}: row {bad[0]} weight {table[bad[0], 0]!r} is not 1")
        four = table[:, 1:].reshape(len(table), len(self.masses), 4)
        total = four.sum(axis=1)
        miss = np.abs(total - np.array([1.0, 0.0, 0.0, 0.0])).max(axis=1)
        bad = np.flatnonzero(~(miss <= 1e-9))
        if bad.size:
            out.append(f"op {i}: row {bad[0]} violates four-momentum by {miss[bad[0]]:.3g}")
        e, p = four[..., 0], four[..., 1:]
        m = np.sqrt(np.maximum(e * e - np.sum(p * p, axis=2), 0.0))
        want = np.array(self.masses)
        off = (np.abs(m - want) / want).max(axis=1)
        bad = np.flatnonzero(~(off <= 1e-9))
        if bad.size:
            out.append(f"op {i}: row {bad[0]} is off shell by {off[bad[0]]:.3g} relative")
        return out


def draw_events(rng: np.random.Generator, n_gauss: int, n_exp: int) -> np.ndarray:
    """Truncated Gaussian (5, 0.5) plus truncated exponential (tau 3) events
    on [0, 10], shuffled."""
    g = rng.normal(5.0, 0.5, n_gauss)
    while True:
        out = (g < 0.0) | (g > 10.0)
        if not out.any():
            break
        g[out] = rng.normal(5.0, 0.5, int(out.sum()))
    span = -math.expm1(-10.0 / 3.0)
    e = -3.0 * np.log1p(-rng.random(n_exp) * span)
    return rng.permutation(np.concatenate([g, e]))


def write_fit_input(path: str, seed: int, n_gauss: int, n_exp: int) -> np.ndarray:
    """``draw_events`` written as %.17g under header x0, which reads back
    exactly; returns the events."""
    x = draw_events(np.random.default_rng(seed), n_gauss, n_exp)
    with open(path, "w") as fh:
        np.savetxt(fh, x, fmt="%.17g", header="x0", comments="")
    return x


def stationary_yields(x: np.ndarray, mean: float, sigma: float, tau: float) -> np.ndarray:
    """Yields (n_gauss, n_exp) at the stationary point of the extended NLL
    of events ``x`` with the shapes held fixed, by Newton steps in numpy."""
    rt2 = math.sqrt(2.0)
    gnorm = 0.5 * (math.erf((10.0 - mean) / (sigma * rt2)) - math.erf(-mean / (sigma * rt2)))
    z = (x - mean) / sigma
    p = np.stack([np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi) * gnorm),
                  np.exp(-x / tau) / (tau * -math.expm1(-10.0 / tau))], axis=1)
    yields = np.array([0.5, 0.5]) * len(x)
    for _ in range(50):
        r = p / (p @ yields)[:, None]
        g = r.sum(axis=0) - 1.0
        if np.max(np.abs(g)) < 1e-12:
            break
        yields = yields + np.linalg.solve(r.T @ r, g)
    return yields


def sweight_failures(label: str, names: list[str], sw: np.ndarray,
                     yields: dict[str, float], rows: int) -> list[str]:
    """The sPlot identities: each event's weights sum to 1 within 1e-9 and
    each species' weights sum to its yield within 1e-6 relative."""
    if names != [f"sw_{y}" for y in yields] or len(sw) != rows:
        return [f"{label}: sWeight table {names} with {len(sw)} rows"]
    out = []
    off = np.abs(sw.sum(axis=1) - 1.0)
    bad = np.flatnonzero(~(off <= 1e-9))
    if bad.size:
        out.append(f"{label}: event {bad[0]} sWeights sum to 1{off[bad[0]]:+.3g}")
    for k, (name, want) in enumerate(yields.items()):
        got = math.fsum(sw[:, k])
        if not abs(got - want) <= 1e-6 * abs(want):
            out.append(f"{label}: sum of sw_{name} {got!r} != yield {want!r}")
    return out


class FitCsv(Workload):
    """``hepkit fit`` on a 1e6-event CSV, then ``hepkit splot`` with that result.

    False-failure rate of the check: five parameters at 5 sigma give about
    2.9e-6 per operation; the sWeight identities are exact at the polished
    optimum and have none.
    """

    name = "fit_csv"
    unit = "input events"
    model = ("--model", "gauss+exp", "--range", "0,10")

    def __init__(self, workdir: str, seed: int, n_gauss: int = 400_000, n_exp: int = 600_000):
        super().__init__(workdir, seed)
        self.n_gauss, self.n_exp = n_gauss, n_exp
        self.truth = {"mean": 5.0, "sigma": 0.5, "tau": 3.0,
                      "n_gauss": float(n_gauss), "n_exp": float(n_exp)}

    def setup(self) -> None:
        write_fit_input(self.path("data.csv"), derive_seed(self.seed, self.name),
                        self.n_gauss, self.n_exp)

    def _fit(self, data: str, workers: int) -> str:
        out = self.path("fit.csv")
        _call_main(["fit", "--input", data, *self.model,
                    "--init", "mean=4.8,sigma=0.55,tau=2.7",
                    "--workers", str(workers), "--output", out])
        return out

    def _splot(self, data: str, fit_result: str, workers: int) -> str:
        out = self.path("sweights.csv")
        _call_main(["splot", "--input", data, *self.model, "--fit-result", fit_result,
                    "--workers", str(workers), "--output", out])
        return out

    def warmup(self, workers: int) -> None:
        small = self.path("warmup.csv")
        write_fit_input(small, derive_seed(self.seed, self.name, "warmup"), 4000, 6000)
        self._splot(small, self._fit(small, workers), workers)

    def op(self, i: int, workers: int) -> OpResult:
        data = self.path("data.csv")
        fit_out = self._fit(data, workers)
        return OpResult(files={"fit.csv": fit_out,
                               "sweights.csv": self._splot(data, fit_out, workers)},
                        units=float(self.n_gauss + self.n_exp))

    def check(self, i: int, result: OpResult) -> list[str]:
        fitted = _parse_fit(result.outputs["fit.csv"])
        value, err, status = fitted["n_gauss"]
        result.rel_err = err / value if err else math.nan
        if status != "Converged":
            return [f"op {i}: fit status {status}"]
        yields = {y: fitted[y][0] for y in ("n_gauss", "n_exp")}
        return _pull_failures(fitted, self.truth, f"op {i}") + sweight_failures(
            f"op {i}", *_parse_table(result.outputs["sweights.csv"]), yields,
            self.n_gauss + self.n_exp)


class SplotCsv(FitCsv):
    """``hepkit splot`` on a 1e5-event CSV made like that of ``fit_csv``,
    with a fit result that set-up solves in numpy: the shapes at their truth
    and the yields at the stationary point of the extended NLL.

    The check is the sPlot identities, which are exact at that point, so
    its false-failure rate is zero.
    """

    name = "splot_csv"

    def __init__(self, workdir: str, seed: int, n_gauss: int = 40_000, n_exp: int = 60_000):
        super().__init__(workdir, seed, n_gauss, n_exp)

    def setup(self) -> None:
        x = write_fit_input(self.path("data.csv"), derive_seed(self.seed, self.name),
                            self.n_gauss, self.n_exp)
        self.yields = self.write_fit_result(x, self.path("truth_fit.csv"))

    def write_fit_result(self, x: np.ndarray, out: str) -> dict[str, float]:
        shapes = {k: self.truth[k] for k in ("mean", "sigma", "tau")}
        n_gauss, n_exp = stationary_yields(x, **shapes)
        yields = {"n_gauss": float(n_gauss), "n_exp": float(n_exp)}
        rows = [f"{k},{v:.17g},,Converged" for k, v in {**shapes, **yields}.items()]
        with open(out, "w") as fh:
            fh.write("\n".join(["name,value,error,status", *rows]) + "\n")
        return yields

    def warmup(self, workers: int) -> None:
        small, fit_result = self.path("warmup.csv"), self.path("warmup_fit.csv")
        x = write_fit_input(small, derive_seed(self.seed, self.name, "warmup"), 4000, 6000)
        self.write_fit_result(x, fit_result)
        self._splot(small, fit_result, workers)

    def op(self, i: int, workers: int) -> OpResult:
        sw = self._splot(self.path("data.csv"), self.path("truth_fit.csv"), workers)
        return OpResult(files={"sweights.csv": sw}, units=float(self.n_gauss + self.n_exp))

    def check(self, i: int, result: OpResult) -> list[str]:
        names, sw = _parse_table(result.outputs["sweights.csv"])
        # the sPlot variance of the signal yield is the sum of its squared weights
        result.rel_err = math.sqrt(float(np.sum(sw[:, 0] ** 2))) / self.yields["n_gauss"]
        return sweight_failures(f"op {i}", names, sw, self.yields, self.n_gauss + self.n_exp)


# Workloads the benchmark runs.  The others run only when named: some of
# their operations fail at this commit (see README.md).
WORKLOADS = {w.name: w for w in (ToyFits, PhspCsv, SplotCsv)}
ALL_WORKLOADS = {**WORKLOADS, **{w.name: w for w in (Toys, Vegas10d, FitCsv)}}
