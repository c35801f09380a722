"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with -s to see them
live).  Tolerances are pinned here and nowhere else.  The two throughput
clauses are scoped to an 8-core host and skip, loudly, on smaller machines.

Every statistical check states its false-failure rate: the chance that it
fails on a correct program.  The rate comes from the statistic's
distribution, or is measured where none is analytic.  Exact identities,
precision and runtime bounds, and the failed-fit count state none.
"""

import functools
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

import hepkit as hk
from hepkit.cli import main as cli_main
from hepkit.fitting import FitStatus, generate_model_sample
from hepkit.rng import gaussian_array, poisson_deviate
from toymodel import build_model, truth_for

CORES = os.cpu_count() or 1


def _report(name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(flag for _, flag in checks)
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    for label, flag in checks:
        print(f"    {'ok  ' if flag else 'FAIL'} {label}")
    assert ok, f"{name}: " + "; ".join(l for l, f in checks if not f)


# ---------------------------------------------------------------------------
# criterion 1: VEGAS on the 10-D product Gaussian

def test_criterion_1_vegas_10d_gaussian():
    dim, sigma, mu = 10, 0.1, 0.5
    # truth from an independent erf-product evaluation, frozen
    truth = math.erf(mu / (sigma * math.sqrt(2.0))) ** dim
    assert truth == pytest.approx(0.999994266983353, rel=1e-14)

    mean = hk.Parameter("mean", mu)
    sig = hk.Parameter("sigma", sigma)
    g = hk.shape_gaussian(mean, sig)
    expr = functools.reduce(
        lambda a, b: a * b,
        [hk.compose(g, [hk.coordinate(d, dim)]) for d in range(dim)],
    )
    region = hk.BoundedRegion.cube(0.0, 1.0, dim)

    t0 = time.perf_counter()
    result, _ = hk.vegas(
        expr, region, calls_per_iteration=500_000, key=hk.RngKey(1, 3),
        iterations=10, workers=0,
    )
    elapsed = time.perf_counter() - t0

    _report("criterion 1 (VEGAS 10-D Gaussian)", [
        (f"|value - truth| = {abs(result.value - truth):.2e} <= 3*error = {3 * result.error:.2e} "
         f"(false-failure rate 0.27%)",
         abs(result.value - truth) <= 3 * result.error),
        (f"relative error {result.error / abs(result.value):.2e} < 1%",
         result.error / abs(result.value) < 0.01),
        # chi2(9) > 27 alone gives 0.14%; the unadapted first iteration
        # enters the chi2, and about 2% was measured on this configuration
        (f"chi2/dof = {result.chi2_per_dof:.2f} < 3 (false-failure rate ~2%, measured)",
         result.chi2_per_dof < 3.0),
        (f"runtime {elapsed:.1f} s <= 300 s", elapsed <= 300.0),
    ])


# ---------------------------------------------------------------------------
# criterion 2: phase-space correctness at one million events

def _dalitz_s23_bounds(s12, M, m1, m2, m3):
    rs = np.sqrt(s12)
    e2 = (s12 - m1 * m1 + m2 * m2) / (2.0 * rs)
    e3 = (M * M - s12 - m3 * m3) / (2.0 * rs)
    p2 = np.sqrt(np.maximum(e2 * e2 - m2 * m2, 0.0))
    p3 = np.sqrt(np.maximum(e3 * e3 - m3 * m3, 0.0))
    lo = (e2 + e3) ** 2 - (p2 + p3) ** 2
    hi = (e2 + e3) ** 2 - (p2 - p3) ** 2
    return lo, hi


def test_criterion_2_phase_space():
    M, masses = 1.0, (0.1, 0.1, 0.1)
    m1, m2, m3 = masses
    spec = hk.DecaySpec(M, masses)
    mother = hk.FourVector.at_rest(M)

    t0 = time.perf_counter()
    block = hk.phsp_generate(spec, mother, 1_000_000, hk.RngKey(2, 1), workers=0)

    e = sum(np.asarray(block.column(f"p{k}_e")) for k in (1, 2, 3))
    px = sum(np.asarray(block.column(f"p{k}_px")) for k in (1, 2, 3))
    py = sum(np.asarray(block.column(f"p{k}_py")) for k in (1, 2, 3))
    pz = sum(np.asarray(block.column(f"p{k}_pz")) for k in (1, 2, 3))
    cons = max(
        float(np.max(np.abs(e - M))), float(np.max(np.abs(px))),
        float(np.max(np.abs(py))), float(np.max(np.abs(pz))),
    ) / M

    onshell = 0.0
    for k, m in enumerate(masses, start=1):
        m2_col = (
            block.column(f"p{k}_e") ** 2 - block.column(f"p{k}_px") ** 2
            - block.column(f"p{k}_py") ** 2 - block.column(f"p{k}_pz") ** 2
        )
        dev = np.abs(np.sqrt(np.maximum(m2_col, 0.0)) - m) / max(m, 1e-6)
        onshell = max(onshell, float(np.max(dev)))

    # two-body weight constancy
    two = hk.phsp_generate(hk.DecaySpec(1.0, (0.3, 0.3)), mother, 100_000, hk.RngKey(3, 1))
    w2 = np.asarray(two.column("weight"))
    w2_rel_var = float(np.var(w2)) / float(np.mean(w2)) ** 2

    # flat Dalitz on the unweighted sample
    flat = hk.phsp_unweight(block, hk.phsp_max_weight(spec), hk.RngKey(2, 4), workers=0)
    d1 = tuple(np.asarray(flat.column(f"p1_{c}")) for c in ("e", "px", "py", "pz"))
    d2 = tuple(np.asarray(flat.column(f"p2_{c}")) for c in ("e", "px", "py", "pz"))
    d3 = tuple(np.asarray(flat.column(f"p3_{c}")) for c in ("e", "px", "py", "pz"))
    s12 = (d1[0] + d2[0]) ** 2 - sum((d1[i] + d2[i]) ** 2 for i in (1, 2, 3))
    s23 = (d2[0] + d3[0]) ** 2 - sum((d2[i] + d3[i]) ** 2 for i in (1, 2, 3))

    s12_lo, s12_hi = (m1 + m2) ** 2, (M - m3) ** 2
    s23_lo, s23_hi = (m2 + m3) ** 2, (M - m1) ** 2
    nb = 20
    e12 = np.linspace(s12_lo, s12_hi, nb + 1)
    e23 = np.linspace(s23_lo, s23_hi, nb + 1)
    counts, _, _ = np.histogram2d(s12, s23, bins=[e12, e23])

    interior = np.zeros((nb, nb), dtype=bool)
    for i in range(nb):
        scan = np.linspace(e12[i], e12[i + 1], 33)
        lo_b, hi_b = _dalitz_s23_bounds(scan, M, m1, m2, m3)
        for j in range(nb):
            interior[i, j] = bool(np.max(lo_b) <= e23[j] and np.min(hi_b) >= e23[j + 1])
    inside = counts[interior]
    expected = inside.sum() / inside.size
    chi2 = float(np.sum((inside - expected) ** 2 / expected))
    pval = float(scipy.stats.chi2.sf(chi2, inside.size - 1))
    elapsed = time.perf_counter() - t0

    _report("criterion 2 (phase space, 1e6 three-body events)", [
        (f"conservation {cons:.2e} <= 1e-9 relative", cons <= 1e-9),
        (f"on-shell {onshell:.2e} <= 1e-9 relative", onshell <= 1e-9),
        (f"two-body weight relative variance {w2_rel_var:.2e} <= 1e-12", w2_rel_var <= 1e-12),
        (f"Dalitz flatness over {inside.size} interior bins: p = {pval:.4f} > 0.001 "
         f"(false-failure rate 0.1%)",
         pval > 0.001),
        (f"runtime {elapsed:.1f} s <= 120 s", elapsed <= 120.0),
    ])


@pytest.mark.skipif(
    CORES < 8,
    reason=f"criterion is scoped to an 8-core host; this machine has {CORES} cores",
)
def test_criterion_2_throughput_8_workers():
    spec = hk.DecaySpec(1.0, (0.1, 0.1, 0.1))
    mother = hk.FourVector.at_rest(1.0)

    def best_time(workers):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            hk.phsp_generate(spec, mother, 1_000_000, hk.RngKey(4, 1), workers=workers)
            best = min(best, time.perf_counter() - t0)
        return best

    t1, t8 = best_time(1), best_time(8)
    _report("criterion 2 (generation throughput)", [
        (f"speedup(8) = {t1 / t8:.2f} >= 4.0", t1 / t8 >= 4.0),
    ])


# ---------------------------------------------------------------------------
# criterion 3: extended likelihood fit at desk scale

def test_criterion_3_single_large_fit():
    model = build_model(scale=20.0)    # one million expected events
    truth = truth_for(scale=20.0)
    data = generate_model_sample(model, hk.RngKey(5, 2), workers=0)

    start = model.param_set()
    start["mean"].set(4.8)
    start["sigma"].set(0.55)
    start["tau"].set(2.7)

    t0 = time.perf_counter()
    result = hk.fit(model, data, ["x0"], workers=8)
    elapsed = time.perf_counter() - t0

    checks = [(f"status {result.status.value} == Converged",
               result.status is FitStatus.CONVERGED),
              (f"fit runtime {elapsed:.1f} s <= 180 s", elapsed <= 180.0)]
    for name in ("mean", "sigma", "tau", "n_sig", "n_bkg"):
        fitted = start[name].value
        err = result.errors[name]
        pull = (fitted - truth[name]) / err
        checks.append((f"{name} = {fitted:.5g} within 5 sigma of {truth[name]:.5g} "
                       f"(pull {pull:+.2f}; false-failure rate 5.7e-7, 2.9e-6 over five)",
                       abs(pull) < 5.0))
    _report("criterion 3 (single 1e6-event fit)", checks)


def test_criterion_3_pull_calibration():
    n_toys = 200
    truth = truth_for(scale=0.2)    # 10k expected events per toy
    pulls: dict[str, list[float]] = {name: [] for name in truth}
    failed_fits = 0
    for t in range(n_toys):
        model = build_model(scale=0.2)
        key = hk.RngKey(6, 2).child(t)
        sample = generate_model_sample(model, key)
        result = hk.fit(model, sample, ["x0"])
        if result.status is not FitStatus.CONVERGED:
            failed_fits += 1
            continue
        ps = model.param_set()
        for name in pulls:
            pulls[name].append((ps[name].value - truth[name]) / result.errors[name])

    checks = [(f"failed fits {failed_fits} <= 2", failed_fits <= 2)]
    # Calibrated pulls are N(0, 1): the mean of n is N(0, 1/n) and
    # (n - 1) s^2 is chi2(n - 1).  Each of the ten two-sided bounds fails a
    # calibrated fit with probability alpha = 1e-4, so the family-wise
    # false-failure rate is <= 1e-3 by the union bound, which holds for the
    # correlated pulls of one toy.  At n = 200 the bounds are |mean| < 0.275
    # and width in [0.810, 1.199]; a parameter's check fails with
    # probability 0.96 when its pulls are biased by 0.4 and 0.94 when its
    # errors are 30% too small (pull width 1.3).
    alpha = 1e-4
    for name, vals in pulls.items():
        arr = np.asarray(vals)
        n, m, w = len(arr), float(np.mean(arr)), float(np.std(arr, ddof=1))
        mean_bound = scipy.stats.norm.isf(alpha / 2) / math.sqrt(n)
        lo, hi = (math.sqrt(scipy.stats.chi2.isf(q, n - 1) / (n - 1))
                  for q in (1 - alpha / 2, alpha / 2))
        checks.append((f"{name}: pull mean {m:+.3f}, |mean| < {mean_bound:.3f} "
                       f"(false-failure rate {alpha:g})", abs(m) < mean_bound))
        checks.append((f"{name}: pull width {w:.3f} in [{lo:.3f}, {hi:.3f}] "
                       f"(false-failure rate {alpha:g}); 1e-3 over all ten", lo <= w <= hi))
    _report(f"criterion 3 ({n_toys} toys x 1e4 events)", checks)


@pytest.mark.skipif(
    CORES < 8,
    reason=f"criterion is scoped to an 8-core host; this machine has {CORES} cores",
)
def test_criterion_3_nll_speedup():
    model = build_model(scale=20.0)
    data = generate_model_sample(model, hk.RngKey(7, 2), poisson=False, workers=0)

    def best_time(workers, reps=20):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                hk.nll(model, data, ["x0"], workers=workers)
            best = min(best, time.perf_counter() - t0)
        return best

    times = {w: best_time(w) for w in (1, 2, 4, 8)}
    speedups = {w: times[1] / times[w] for w in times}
    monotone = all(
        speedups[b] >= speedups[a] * 0.95
        for a, b in ((1, 2), (2, 4), (4, 8))
    )
    _report("criterion 3 (NLL-evaluation scaling)", [
        (f"speedup(8) = {speedups[8]:.2f} >= 4.0", speedups[8] >= 4.0),
        (f"monotone in worker count {speedups}", monotone),
    ])


# ---------------------------------------------------------------------------
# criterion 4: sPlot identities on the fitted toy

def test_criterion_4_splot_identities():
    model = build_model(scale=0.2)
    key = hk.RngKey(8, 2)
    # observable sample plus an independent control variable per species:
    # signal control ~ N(0,1), background control ~ N(1.5, 1.2)
    parts = []
    controls = []
    for c, (y, pdf) in enumerate(model.components):
        comp_key = key.child(c)    # as generate_model_sample keys component c
        count = poisson_deviate(comp_key.child(0), y.value)
        parts.append(hk.sample_pdf(pdf.shape, pdf.region, count, comp_key.child(1)))
        ctrl_key = hk.RngKey(9, 2, counter=(c + 1) << 33)
        z = gaussian_array(ctrl_key, np.arange(count, dtype=np.uint64))
        controls.append(z if c == 0 else 1.5 + 1.2 * z)
    x = np.concatenate([p.column("x0") for p in parts])
    control = np.concatenate(controls)
    data = hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x0"), [x])

    result = hk.fit(model, data, ["x0"], workers=0)
    assert result.status is FitStatus.CONVERGED
    ps = model.param_set()

    V = hk.splot_matrix(model, data, ["x0"], workers=0)
    table = hk.splot_weights(model, data, ["x0"], V, workers=0)
    sw_sig = np.asarray(table.column("sw_n_sig"))
    sw_bkg = np.asarray(table.column("sw_n_bkg"))

    sum_dev = float(np.max(np.abs(sw_sig + sw_bkg - 1.0)))
    sig_dev = abs(float(np.sum(sw_sig)) - ps["n_sig"].value) / ps["n_sig"].value
    bkg_dev = abs(float(np.sum(sw_bkg)) - ps["n_bkg"].value) / ps["n_bkg"].value

    # brute-force matrix from closed-form densities, fully independent
    lo, hi = 0.0, 10.0
    mu, s, tau = ps["mean"].value, ps["sigma"].value, ps["tau"].value
    gn = 0.5 * (math.erf((hi - mu) / (s * math.sqrt(2)))
                - math.erf((lo - mu) / (s * math.sqrt(2))))
    en = tau * (math.exp(-lo / tau) - math.exp(-hi / tau))
    p_sig = np.exp(-0.5 * ((x - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi)) / gn
    p_bkg = np.exp(-x / tau) / en
    dens = ps["n_sig"].value * p_sig + ps["n_bkg"].value * p_bkg
    vinv = np.array([
        [np.sum(p_sig * p_sig / dens**2), np.sum(p_sig * p_bkg / dens**2)],
        [np.sum(p_sig * p_bkg / dens**2), np.sum(p_bkg * p_bkg / dens**2)],
    ])
    v_dev = float(np.max(np.abs((V - np.linalg.inv(vinv)) / np.linalg.inv(vinv))))

    # weighted KS of the sweighted control distribution against the true
    # signal control law N(0,1), with the effective sample size
    order = np.argsort(control)
    wsorted = sw_sig[order]
    csorted = control[order]
    ecdf = np.cumsum(wsorted) / np.sum(wsorted)
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(csorted / math.sqrt(2.0)))
    dist = float(np.max(np.abs(ecdf - cdf)))
    n_eff = float(np.sum(wsorted)) ** 2 / float(np.sum(wsorted**2))
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * dist
    pval = float(scipy.stats.kstwobign.sf(lam))

    _report("criterion 4 (sPlot identities)", [
        (f"per-event weight sums: max |sum - 1| = {sum_dev:.2e} <= 1e-9", sum_dev <= 1e-9),
        (f"signal yield reproduced to {sig_dev:.2e} (<= 1e-6)", sig_dev <= 1e-6),
        (f"background yield reproduced to {bkg_dev:.2e} (<= 1e-6)", bkg_dev <= 1e-6),
        (f"V vs independent accumulation: {v_dev:.2e} <= 1e-8", v_dev <= 1e-8),
        (f"sweighted signal control KS p = {pval:.4f} > 0.001 (false-failure rate 0.1%)",
         pval > 0.001),
    ])


# ---------------------------------------------------------------------------
# criterion 5: byte-identical outputs across worker counts

def _run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = cli_main(args + ["--output", str(out)])
    assert code == 0, f"command failed: {args}"
    return out.read_bytes()


def test_criterion_5_determinism(tmp_path):
    data_csv = tmp_path / "data.csv"
    model = build_model(scale=0.4)
    generate_model_sample(model, hk.RngKey(10, 2)).write_csv(str(data_csv))
    fit_csv = tmp_path / "fit.csv"
    assert cli_main(["fit", "--input", str(data_csv), "--model", "gauss+exp",
                     "--range", "0,10", "--init", "mean=4.9,sigma=0.55,tau=2.8",
                     "--seed", "1", "--output", str(fit_csv)]) == 0

    commands = {
        "phsp": ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                 "--events", "50000", "--seed", "11", "--unweight"],
        "integrate": ["integrate", "--method", "vegas", "--dim", "3",
                      "--function", "gauss", "--params", "mean=0.5,sigma=0.2",
                      "--range", "0,1", "--calls", "6000", "--iterations", "5",
                      "--seed", "12"],
        "fit": ["fit", "--input", str(data_csv), "--model", "gauss+exp",
                "--range", "0,10", "--init", "mean=4.9,sigma=0.55,tau=2.8",
                "--seed", "13"],
        "toys": ["toys", "--n", "2", "--model", "gauss+exp", "--range", "0,10",
                 "--init", "mean=5.0,sigma=0.5,tau=3.0,n_gauss=800,n_exp=1200",
                 "--seed", "14"],
        "splot": ["splot", "--input", str(data_csv), "--model", "gauss+exp",
                  "--range", "0,10", "--fit-result", str(fit_csv), "--seed", "15"],
    }
    checks = []
    for name, args in commands.items():
        outputs = {
            w: _run_to_file(tmp_path, f"{name}_w{w}.csv", args + ["--workers", w])
            for w in ("1", "2", "8")
        }
        same = outputs["1"] == outputs["2"] == outputs["8"]
        checks.append((f"{name}: byte-identical for workers 1, 2, 8", same))
    _report("criterion 5 (determinism across workers)", checks)


# ---------------------------------------------------------------------------
# criterion 6: quadrature and cross-method oracles

def test_criterion_6_quadrature():
    rng = np.random.default_rng(1234)

    worst_poly = 0.0
    for _ in range(25):
        coeffs = rng.uniform(-2.0, 2.0, size=14)    # degree 13
        a, b = -1.0, 1.5
        anti = np.polyint(coeffs)
        truth = float(np.polyval(anti, b) - np.polyval(anti, a))
        expr = hk.wrap_closure(
            lambda x, p, c=coeffs: np.polyval(c, np.asarray(x[0], dtype=float))
        )
        got = hk.gk15_static(expr, a, b).value
        worst_poly = max(worst_poly, abs(got - truth) / max(abs(truth), 1.0))

    sqrt_expr = hk.wrap_closure(lambda x, p: np.sqrt(np.asarray(x[0], dtype=float)))
    adaptive = hk.gk_adaptive(sqrt_expr, 0.0, 1.0, rel_tol=1e-9)
    sqrt_dev = abs(adaptive.value - 2.0 / 3.0)

    # plain MC vs VEGAS: each cross pull is N(0, 1) when both stated errors
    # are calibrated.  Two bounds, each failing a calibrated pair with
    # probability alpha, so the clause's false-failure rate is <= 2 * alpha:
    # sum pull^2 against chi2(n) catches errors mis-scaled across the family,
    # max |pull| against the Sidak bound catches one integrand gone wrong.
    n_trials, alpha = 100, 5e-4
    chi2_bound = scipy.stats.chi2.isf(alpha, n_trials)
    max_bound = scipy.stats.norm.isf((1.0 - (1.0 - alpha) ** (1.0 / n_trials)) / 2.0)
    pulls = []
    region = hk.BoundedRegion(((0.0, 1.0),))
    for trial in range(n_trials):
        c = rng.uniform(-1.0, 1.0, size=3)
        mu, sg = rng.uniform(0.2, 0.8), rng.uniform(0.1, 0.5)

        def f(x, p, c=c, mu=mu, sg=sg):
            t = np.asarray(x[0], dtype=float)
            return (np.polyval(c, t) ** 2 + 0.1) * np.exp(-0.5 * ((t - mu) / sg) ** 2)

        expr = hk.wrap_closure(f)
        pm = hk.plain_mc(expr, region, 200_000, hk.RngKey(300 + trial, 3))
        vg, _ = hk.vegas(expr, region, 10_000, hk.RngKey(400 + trial, 3), iterations=5)
        pulls.append((pm.value - vg.value) / math.hypot(pm.error, vg.error))
    pulls = np.asarray(pulls)
    sum_sq = float(np.sum(pulls**2))
    max_pull = float(np.max(np.abs(pulls)))
    p_sum = float(scipy.stats.chi2.sf(sum_sq, n_trials))
    p_max = float(-np.expm1(n_trials * np.log1p(-2.0 * scipy.stats.norm.sf(max_pull))))

    _report("criterion 6 (quadrature oracles)", [
        (f"gk15 degree-13 exactness: worst relative dev {worst_poly:.2e} <= 1e-13",
         worst_poly <= 1e-13),
        (f"gk_adaptive sqrt: |value - 2/3| = {sqrt_dev:.2e} <= 1e-9", sqrt_dev <= 1e-9),
        (f"plain vs VEGAS on {n_trials} integrands: sum pull^2 = {sum_sq:.2f} "
         f"<= {chi2_bound:.2f} (chi2 p = {p_sum:.3f} > {alpha:g})",
         sum_sq <= chi2_bound),
        (f"plain vs VEGAS on {n_trials} integrands: max |pull| = {max_pull:.2f} "
         f"<= {max_bound:.3f} (Sidak p = {p_max:.3f} > {alpha:g}); "
         f"false-failure rate of both bounds <= {2 * alpha:g}",
         max_pull <= max_bound),
    ])
