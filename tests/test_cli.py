import io
import math

import numpy as np
import pytest

import hepkit as hk
from hepkit.cli import build_parser, main
from hepkit.store import CSV_BLOCK, read_csv


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_usage_error_missing_required(self, capsys):
        assert run_cli("phsp", "--events", "10") == 2

    def test_missing_seed_in_scripted_use(self, capsys, tmp_path):
        # stdin is not a TTY under pytest: randomized commands demand --seed
        code = run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1",
                       "--events", "10")
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_domain_error_below_threshold(self, capsys):
        code = run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.6,0.6",
                       "--events", "10", "--seed", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("mother, masses, events, error", [
        ("inf", "0.5,1.0", "3", "mother mass inf is not finite"),
        ("5.0", "nan,1.0", "3", "daughter 1 mass nan is not finite"),
        ("5.0", "0.5,1.0", "-3", "event count -3 is negative"),
    ])
    def test_phsp_input_rejected_in_one_line(self, capsys, mother, masses, events, error):
        code = run_cli("phsp", "--mother-mass", mother, "--masses", masses,
                       "--events", events, "--seed", "1")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            f"error: {error}"
        ]

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    @pytest.mark.parametrize("command", [
        ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1", "--events", "10"],
        ["toys", "--n", "1", "--model", "gauss", "--range", "0,10",
         "--init", "mean=5.0,sigma=1.0,n_gauss=100"],
        ["integrate", "--method", "plain", "--calls", "1000"],
    ])
    def test_seed_outside_u64_rejected_in_one_line(self, capsys, command, seed):
        # it wrapped: 2**64 wrote the bytes of seed 0, and -1 those of 2**64 - 1
        assert run_cli(*command, "--seed", seed) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"usage error: --seed {seed} is outside [0, 2**64)"
        ]

    def test_largest_seed_accepted(self, capsys):
        assert run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1",
                       "--events", "3", "--seed", str(2**64 - 1)) == 0
        assert capsys.readouterr().out.count("\n") == 4

    def test_success(self, tmp_path):
        out = tmp_path / "ev.csv"
        code = run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                       "--events", "100", "--seed", "7", "--output", str(out))
        assert code == 0
        assert out.exists()


class TestPhsp:
    def test_csv_schema_and_conservation(self, tmp_path):
        out = tmp_path / "ev.csv"
        run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                "--events", "1000", "--seed", "7", "--output", str(out))
        store = read_csv(str(out))
        assert len(store) == 1000
        assert store.schema.names[:5] == ("weight", "p1_e", "p1_px", "p1_py", "p1_pz")
        e = sum(np.asarray(store.column(f"p{k}_e")) for k in (1, 2, 3))
        assert np.max(np.abs(e - 1.0)) <= 1e-9

    def test_unweight_flag(self, tmp_path):
        out = tmp_path / "ev.csv"
        run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                "--events", "2000", "--seed", "7", "--unweight", "--output", str(out))
        store = read_csv(str(out))
        assert 0 < len(store) < 2000
        assert np.all(store.column("weight") == 1.0)


class TestIntegrate:
    def test_gk_quadratic(self, capsys):
        code = run_cli("integrate", "--method", "gk", "--function", "power",
                       "--params", "k=2", "--range", "0,1", "--seed", "0")
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value,error,chi2_per_dof,calls_used"
        value = float(out[1].split(",")[0])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_vegas_gaussian(self, capsys):
        code = run_cli("integrate", "--method", "vegas", "--dim", "2",
                       "--function", "gauss", "--params", "mean=0.5,sigma=0.2",
                       "--range", "0,1", "--calls", "4000", "--iterations", "6",
                       "--seed", "3")
        assert code == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        value, error = float(fields[0]), float(fields[1])
        truth = math.erf(0.5 / (0.2 * math.sqrt(2))) ** 2
        assert abs(value - truth) < 4 * error

    def test_plain_requires_seed(self, capsys):
        assert run_cli("integrate", "--method", "plain", "--range", "0,1") == 2

    def test_quadrature_rejects_multidim(self, capsys):
        code = run_cli("integrate", "--method", "gk", "--dim", "2",
                       "--range", "0,1", "--seed", "0")
        assert code == 2

    @pytest.mark.parametrize("method, dim", [("plain", "0"), ("vegas", "-2")])
    def test_dimension_below_one_rejected_in_one_line(self, capsys, method, dim):
        code = run_cli("integrate", "--method", method, "--dim", dim, "--seed", "0")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            f"usage error: --dim must be at least 1, got {dim}"
        ]


    @pytest.mark.parametrize("args, code, error", [
        (["--method", "plain", "--range", "0,inf"], 2,
         "usage error: range bound inf in '0,inf' is not finite"),
        (["--method", "gk", "--range", "0,inf"], 2,
         "usage error: range bound inf in '0,inf' is not finite"),
        (["--method", "vegas", "--range", "nan,1"], 2,
         "usage error: range bound nan in 'nan,1' is not finite"),
        (["--method", "vegas", "--alpha", "nan"], 1,
         "error: alpha must be finite and >= 0, got nan"),
        (["--method", "vegas", "--alpha", "-1"], 1,
         "error: alpha must be finite and >= 0, got -1.0"),
        (["--method", "gk-adaptive", "--rel-tol", "nan"], 1,
         "error: rel_tol must be finite and >= 1e-14, got nan"),
        (["--method", "gk-adaptive", "--max-intervals", "0"], 1,
         "error: max_intervals must be >= 1, got 0"),
    ])
    def test_setting_rejected_in_one_line(self, capsys, args, code, error):
        assert run_cli("integrate", *args, "--calls", "1000", "--bins", "5",
                       "--seed", "0") == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [error]


def _write_toy_sample(path, seed=90, scale=0.04):
    from toymodel import build_model

    model = build_model(scale=scale)
    data = hk.generate_model_sample(model, hk.RngKey(seed, 2))
    data.write_csv(str(path))
    return len(data)


_MODEL = ("--model", "gauss+exp", "--range", "0,10")


@pytest.mark.parametrize("command, args", [
    ("phsp", ("--mother-mass", "1.0", "--masses", "0.1,0.1", "--events", "10")),
    ("integrate", ("--method", "gk", "--function", "power", "--params", "k=2",
                   "--range", "0,1")),
    ("fit", ("--input", "{data}", *_MODEL)),
    ("toys", ("--n", "1", *_MODEL, "--init",
              "mean=5.0,sigma=0.5,tau=3.0,n_gauss=40,n_exp=60")),
    ("splot", ("--input", "{data}", *_MODEL, "--fit-result", "{fit}")),
    ("hist", ("--input", "{data}", "--column", "x0", "--bins", "4", "--lo", "0",
              "--hi", "10")),
])
def test_every_command_rejects_a_negative_worker_count(tmp_path, capsys, command, args):
    # valid input otherwise, so that only the worker count can fail the call
    data, fit = tmp_path / "data.csv", tmp_path / "fit.csv"
    _write_toy_sample(data, seed=95, scale=0.1)
    assert run_cli("fit", "--input", str(data), *_MODEL, "--init",
                   "mean=4.9,sigma=0.55,tau=2.9", "--seed", "1", "--output", str(fit)) == 0
    args = [a.format(data=data, fit=fit) for a in args]
    out = tmp_path / "out.csv"
    assert run_cli(command, *args, "--seed", "1", "--workers", "-1",
                   "--output", str(out)) == 1
    captured = capsys.readouterr()
    assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
        "error: workers must be >= 0, got -1"
    ]
    assert captured.out == "" and not out.exists()
    assert run_cli(command, *args, "--seed", "1", "--workers", "1",
                   "--output", str(out)) == 0
    assert out.exists()


class TestFitCommand:
    def test_fit_recovers_parameters(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        n = _write_toy_sample(data_csv)
        code = run_cli("fit", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10",
                       "--init", "mean=4.8,sigma=0.6,tau=2.7",
                       "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "name,value,error,status"
        rows = {line.split(",")[0]: line.split(",") for line in out[1:]}
        assert float(rows["mean"][1]) == pytest.approx(5.0, abs=0.1)
        assert float(rows["sigma"][1]) == pytest.approx(0.5, abs=0.1)
        assert rows["mean"][3] == "Converged"
        total = float(rows["n_gauss"][1]) + float(rows["n_exp"][1])
        assert total == pytest.approx(n, rel=1e-6)
        assert "nll_min" in rows

    def test_fix_flag(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        _write_toy_sample(data_csv)
        code = run_cli("fit", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10",
                       "--init", "mean=5.0,sigma=0.5,tau=3.0", "--fix", "mean,tau",
                       "--seed", "1")
        assert code == 0
        rows = {l.split(",")[0]: l.split(",") for l in capsys.readouterr().out.splitlines()[1:]}
        assert float(rows["mean"][1]) == 5.0
        assert float(rows["tau"][1]) == 3.0
        assert rows["mean"][2] == ""    # fixed parameters carry no error

    def test_non_finite_range_rejected_in_one_line(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        _write_toy_sample(data_csv)
        assert run_cli("fit", "--input", str(data_csv), "--model", "exp",
                       "--range", "0,inf", "--init", "tau=2.0") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            "usage error: range bound inf in '0,inf' is not finite"
        ]


class TestToysCommand:
    def test_toy_output_format(self, capsys):
        code = run_cli("toys", "--n", "2", "--model", "gauss+exp", "--range", "0,10",
                       "--init", "mean=5.0,sigma=0.5,tau=3.0,n_gauss=400,n_exp=600",
                       "--seed", "5")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "toy,name,value,error,status"
        toys = {line.split(",")[0] for line in lines[1:]}
        assert toys == {"0", "1"}

    @pytest.mark.parametrize("n, code, out", [
        ("-1", 2, ""),
        ("0", 0, "toy,name,value,error,status\n"),
    ])
    def test_toy_count(self, capsys, n, code, out):
        assert run_cli("toys", "--n", n, "--model", "gauss+exp", "--range", "0,10",
                       "--init", "mean=5.0,sigma=0.5,tau=3.0,n_gauss=400,n_exp=600",
                       "--seed", "5") == code
        captured = capsys.readouterr()
        assert captured.out == out
        errors = [l for l in captured.err.splitlines() if not l.startswith("# ")]
        assert errors == ([f"usage error: --n must be at least 0, got {n}"] if code else [])


    @pytest.mark.parametrize("events", ["nan", "inf", "0", "-5"])
    def test_event_count_rejected_in_one_line(self, capsys, events):
        assert run_cli("toys", "--n", "1", "--events", events, "--model", "gauss+exp",
                       "--range", "0,10",
                       "--init", "mean=5.0,sigma=0.5,tau=3.0,n_gauss=400,n_exp=600",
                       "--seed", "5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            f"usage error: --events must be finite and > 0, got {float(events)}"
        ]

    def test_undrawable_yield_rejected_by_name_before_any_toy(self, capsys, monkeypatch):
        # it ended in a counter-wrap message with a 300-digit event count
        import hepkit.cli as cli

        drawn = []
        monkeypatch.setattr(cli, "generate_model_sample", lambda *a, **k: drawn.append(a))
        assert run_cli("toys", "--n", "3", "--events", "1e300", "--model", "gauss+exp",
                       "--range", "0,10",
                       "--init", "mean=5.0,sigma=0.5,tau=3.0,n_gauss=400,n_exp=600",
                       "--seed", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and drawn == []
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            "error: n_gauss: expected yield 4e+299 is too large to draw"
        ]


class TestSplotCommand:
    def test_splot_pipeline(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        fit_csv = tmp_path / "fit.csv"
        sw_csv = tmp_path / "sw.csv"
        n = _write_toy_sample(data_csv, seed=91, scale=0.1)
        assert run_cli("fit", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--init", "mean=4.9,sigma=0.55,tau=2.9",
                       "--seed", "1", "--output", str(fit_csv)) == 0
        assert run_cli("splot", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--fit-result", str(fit_csv),
                       "--seed", "1", "--output", str(sw_csv)) == 0
        table = read_csv(str(sw_csv))
        assert table.schema.names == ("sw_n_gauss", "sw_n_exp")
        assert len(table) == n
        sums = np.asarray(table.column("sw_n_gauss")) + np.asarray(table.column("sw_n_exp"))
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_unknown_column_named_in_one_line(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        fit_csv = tmp_path / "fit.csv"
        _write_toy_sample(data_csv, seed=93, scale=0.01)
        fit_csv.write_text("name,value,error,status\nmean,5,,converged\nsigma,0.5,,converged\n"
                           "tau,3,,converged\nn_gauss,40,,converged\nn_exp,60,,converged\n")
        assert run_cli("splot", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--fit-result", str(fit_csv), "--column", "nope",
                       "--seed", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [
            "error: unknown column 'nope'"
        ]


class TestHist:
    def test_single_bin_counts_everything(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        store = hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x"), [np.linspace(0.05, 0.95, 100)]
        )
        store.write_csv(str(csv))
        code = run_cli("hist", "--input", str(csv), "--column", "x",
                       "--bins", "1", "--lo", "0", "--hi", "1")
        assert code == 0
        line = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(line[1]) == 100.0
        assert float(line[2]) == 10.0

    def test_uniform_data_poisson_consistency(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        rng = np.random.default_rng(17)
        store = hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x"), [rng.uniform(0, 1, size=10_000)]
        )
        store.write_csv(str(csv))
        run_cli("hist", "--input", str(csv), "--column", "x",
                "--bins", "10", "--lo", "0", "--hi", "1")
        lines = capsys.readouterr().out.splitlines()[1:]
        counts = np.array([float(l.split(",")[1]) for l in lines])
        assert counts.sum() == 10_000
        assert np.all(np.abs(counts - 1000) < 5 * math.sqrt(1000))

    def test_weighted_histogram(self, tmp_path, capsys):
        csv = tmp_path / "xw.csv"
        store = hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x", "w"),
            [np.array([0.25, 0.75, 0.75]), np.array([1.0, 2.0, 3.0])],
        )
        store.write_csv(str(csv))
        run_cli("hist", "--input", str(csv), "--column", "x", "--bins", "2",
                "--lo", "0", "--hi", "1", "--weight-column", "w")
        lines = capsys.readouterr().out.splitlines()[1:]
        first = lines[0].split(",")
        second = lines[1].split(",")
        assert float(first[1]) == 1.0
        assert float(second[1]) == 5.0
        assert float(second[2]) == pytest.approx(math.sqrt(13.0), rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_are_the_formatted_bins(self, tmp_path, capsys, weighted):
        # the table writer gives the bytes of one f-string row per bin
        rng = np.random.default_rng(23)
        x = rng.normal(0.5, 0.3, size=5000)
        w = rng.uniform(-0.5, 2.0, size=5000)
        csv = tmp_path / "xw.csv"
        hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x", "w"), [x, w]).write_csv(str(csv))
        extra = ["--weight-column", "w"] if weighted else []
        out = tmp_path / "h.csv"
        assert run_cli("hist", "--input", str(csv), "--column", "x", "--bins", "37",
                       "--lo", "-0.3", "--hi", "1.1", "--output", str(out), *extra) == 0
        edges = np.linspace(-0.3, 1.1, 38)
        keep = (x >= -0.3) & (x <= 1.1)
        if weighted:
            counts, _ = np.histogram(x[keep], bins=edges, weights=w[keep])
            errors = np.sqrt(np.histogram(x[keep], bins=edges, weights=w[keep] ** 2)[0])
        else:
            counts, _ = np.histogram(x[keep], bins=edges)
            errors = np.sqrt(counts)
            counts = counts.astype(float)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows = [f"{c:.17g},{n:.17g},{e:.17g}" for c, n, e in zip(centers, counts, errors)]
        assert out.read_text() == "\n".join(["bin_center,count,error", *rows]) + "\n"

    def test_unknown_column(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x"), [np.array([1.0])]
        ).write_csv(str(csv))
        code = run_cli("hist", "--input", str(csv), "--column", "nope",
                       "--bins", "1", "--lo", "0", "--hi", "1")
        assert code == 1
        # the message itself, without the quotes of a KeyError's str()
        assert [l for l in capsys.readouterr().err.splitlines() if not l.startswith("# ")] == [
            "error: unknown column 'nope'"
        ]

    @pytest.mark.parametrize("lo, hi, error", [
        ("0", "inf", "usage error: --hi inf is not finite"),
        ("nan", "1", "usage error: --lo nan is not finite"),
    ])
    def test_non_finite_bound_rejected_in_one_line(self, tmp_path, capsys, lo, hi, error):
        csv = tmp_path / "x.csv"
        hk.ColumnStore.from_columns(
            hk.ColumnSchema.real64("x"), [np.array([1.0])]
        ).write_csv(str(csv))
        code = run_cli("hist", "--input", str(csv), "--column", "x",
                       "--bins", "3", "--lo", lo, "--hi", hi)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [l for l in captured.err.splitlines() if not l.startswith("# ")] == [error]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# toy settings\nevents=50\nseed=9\n")
        out = tmp_path / "a.csv"
        code = run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1",
                       "--events", "25", "--config", str(cfg), "--output", str(out))
        assert code == 0
        # --events was explicit so it wins; seed comes from the file
        assert len(read_csv(str(out))) == 25
        err = capsys.readouterr().err
        assert "seed=9" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1",
                       "--events", "10", "--seed", "1", "--config", str(cfg))
        assert code == 2

    def test_each_call_resolves_its_own_config(self, tmp_path, capsys):
        # the parser is built once per process, so nothing that one call's
        # config file or flags resolve may reach the next call
        assert build_parser() is build_parser()
        runs = [("seed=4\n", "30", "seed=4 unweight=False"),
                ("seed=5\nunweight=true\n", "200", "seed=5 unweight=True"),
                (None, "10", "seed=6 unweight=False")]
        for k, (config, events, resolved) in enumerate(runs):
            out = tmp_path / f"{k}.csv"
            args = ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                    "--events", events, "--output", str(out)]
            if config is None:
                args += ["--seed", "6"]
            else:
                cfg = tmp_path / f"{k}.cfg"
                cfg.write_text(config)
                args += ["--config", str(cfg)]
            assert run_cli(*args) == 0
            err = capsys.readouterr().err
            assert f"events={events} " in err and resolved in err, err
            rows = len(read_csv(str(out)))
            assert rows == int(events) if "unweight=False" in resolved else rows < int(events)

    def test_resolved_config_printed(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        run_cli("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1",
                "--events", "10", "--seed", "3", "--output", str(out))
        err = capsys.readouterr().err
        assert "resolved-config" in err
        assert "seed=3" in err


class TestWorkerByteIdentity:
    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_phsp_output_identical(self, tmp_path, workers):
        base = tmp_path / "w1.csv"
        other = tmp_path / f"w{workers}.csv"
        args = ["phsp", "--mother-mass", "1.0", "--masses", "0.1,0.1,0.1",
                "--events", "5000", "--seed", "11"]
        assert run_cli(*args, "--workers", "1", "--output", str(base)) == 0
        assert run_cli(*args, "--workers", workers, "--output", str(other)) == 0
        assert base.read_bytes() == other.read_bytes()

    def _outputs(self, tmp_path, *args):
        """The bytes ``hepkit *args`` writes at 1, 2 and 8 workers."""
        out = []
        for workers in ("1", "2", "8"):
            path = tmp_path / f"w{workers}.csv"
            assert run_cli(*args, "--workers", workers, "--output", str(path)) == 0
            out.append(path.read_bytes())
        return out

    def test_unweighted_phsp_over_many_blocks_identical(self, tmp_path):
        # 13 columns: phsp generates and formats its ranges on the worker pool
        w1, w2, w8 = self._outputs(tmp_path, "phsp", "--mother-mass", "1.0", "--masses",
                                   "0.1,0.1,0.1", "--events", "100000", "--unweight",
                                   "--seed", "12")
        assert w1.count(b"\n") - 1 > 3 * CSV_BLOCK
        assert len({w1, w2, w8}) == 1, "the bytes depend on the worker count"

    def test_splot_output_identical(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        assert _write_toy_sample(data_csv, seed=94, scale=0.4) > 2 * CSV_BLOCK
        fit_csv = tmp_path / "fit.csv"
        assert run_cli("fit", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--init", "mean=4.9,sigma=0.55,tau=2.9",
                       "--seed", "1", "--output", str(fit_csv)) == 0
        w1, w2, w8 = self._outputs(tmp_path, "splot", "--input", str(data_csv), "--model",
                                   "gauss+exp", "--range", "0,10", "--fit-result",
                                   str(fit_csv), "--seed", "1")
        assert len({w1, w2, w8}) == 1, "the bytes depend on the worker count"

    def test_hist_output_identical(self, tmp_path):
        csv = tmp_path / "x.csv"
        x = np.random.default_rng(18).normal(0.5, 0.2, 50_000)
        hk.ColumnStore.from_columns(hk.ColumnSchema.real64("x"), [x]).write_csv(str(csv))
        w1, w2, w8 = self._outputs(tmp_path, "hist", "--input", str(csv), "--column", "x",
                                   "--bins", str(3 * CSV_BLOCK + 5), "--lo", "0", "--hi", "1")
        assert w1.count(b"\n") - 1 == 3 * CSV_BLOCK + 5
        assert len({w1, w2, w8}) == 1, "the bytes depend on the worker count"


class TestStreamedTables:
    """phsp and splot write their tables block by block straight to the
    destination; a file and stdout get the same bytes, which are those of
    ``ColumnStore.to_csv``."""

    def _file_and_stdout(self, tmp_path, capsys, *args):
        out = tmp_path / "out.csv"
        assert run_cli(*args, "--output", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*args) == 0
        stdout = capsys.readouterr().out.encode()
        assert out.read_bytes() == stdout
        return stdout

    def test_phsp(self, tmp_path, capsys):
        from hepkit.cli import STREAM_PHASESPACE

        args = ("phsp", "--mother-mass", "1.0", "--masses", "0.1,0.2,0.3",
                "--events", "20000", "--seed", "13")
        written = self._file_and_stdout(tmp_path, capsys, *args)
        table = hk.phsp_generate(hk.DecaySpec(1.0, (0.1, 0.2, 0.3)),
                                 hk.FourVector.at_rest(1.0), 20000,
                                 hk.RngKey(13, stream=STREAM_PHASESPACE))
        assert written == table.to_csv().encode()

    def test_splot(self, tmp_path, capsys):
        from hepkit.cli import build_model

        data_csv = tmp_path / "data.csv"
        fit_csv = tmp_path / "fit.csv"
        n = _write_toy_sample(data_csv, seed=92, scale=0.4)
        assert n > 2 * CSV_BLOCK
        assert run_cli("fit", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--init", "mean=4.9,sigma=0.55,tau=2.9",
                       "--seed", "1", "--output", str(fit_csv)) == 0
        written = self._file_and_stdout(
            tmp_path, capsys, "splot", "--input", str(data_csv), "--model",
            "gauss+exp", "--range", "0,10", "--fit-result", str(fit_csv), "--seed", "1")
        fitted = {line.split(",")[0]: float(line.split(",")[1])
                  for line in fit_csv.read_text().splitlines()[1:-1]}
        model = build_model("gauss+exp", (0.0, 10.0), fitted, set())
        store = read_csv(str(data_csv))
        V = hk.splot_matrix(model, store, ["x0"])
        assert written == hk.splot_weights(model, store, ["x0"], V).to_csv().encode()


def test_fit_names_the_bad_line_and_column(tmp_path, capsys):
    x = np.linspace(0.5, 9.5, CSV_BLOCK + 200)
    lines = ["x0"] + [f"{v:.17g}" for v in x]
    lines[CSV_BLOCK + 100] = "abc"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = run_cli("fit", "--input", str(bad), "--model", "gauss+exp",
                   "--range", "0,10", "--seed", "1")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [l for l in captured.err.splitlines() if not l.startswith("# ")]
    assert errors == [
        f"error: line {CSV_BLOCK + 101}, column 'x0': expected a finite real, got 'abc'"
    ]


class TestFitResultReader:
    HEADER = "name,value,error,status\n"

    def _splot(self, tmp_path, capsys, fit_text):
        data_csv = tmp_path / "data.csv"
        _write_toy_sample(data_csv, seed=93, scale=0.02)
        fit_csv = tmp_path / "fit.csv"
        fit_csv.write_text(fit_text)
        code = run_cli("splot", "--input", str(data_csv), "--model", "gauss+exp",
                       "--range", "0,10", "--fit-result", str(fit_csv), "--seed", "1")
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if not l.startswith("# ")]
        return code, errors, fit_csv

    def test_valid_file_values(self, tmp_path):
        from hepkit.cli import _read_fit_result

        path = tmp_path / "fit.csv"
        path.write_text(self.HEADER + "mean,5.25,0.01,Converged\n\n"
                        "n_gauss, 1e3 ,,Converged\r\nnll_min,-3.5,,Converged\n")
        assert _read_fit_result(str(path)) == {"mean": 5.25, "n_gauss": 1000.0, "nll_min": -3.5}

    def test_non_float_value_names_line_and_column(self, tmp_path, capsys):
        code, errors, path = self._splot(
            tmp_path, capsys,
            self.HEADER + "n_gauss,400,,Converged\nmean,abc,,Converged\n")
        assert code == 1
        assert errors == [f"error: {path}: line 3, column 'value': expected a float, got 'abc'"]

    def test_short_line_names_line_and_column(self, tmp_path, capsys):
        # was skipped, so the run failed later on "missing initial yield"
        code, errors, path = self._splot(
            tmp_path, capsys,
            self.HEADER + "n_gauss,400,,Converged\n\nmean\nn_exp,600,,Converged\n")
        assert code == 1
        assert errors == [
            f"error: {path}: line 4, column 'value': missing (1 field, expected at least 2)"
        ]
