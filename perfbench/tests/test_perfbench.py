"""Tests of the benchmark itself: its declared metrics, the tracer's
restore, each workload's checks at a smoke size, and that the checks fail
on corrupted output."""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
from hepkit import cli, fitting, store  # noqa: E402
from workloads import (  # noqa: E402
    ALL_WORKLOADS, WORKLOADS, FitCsv, PhspCsv, SplotCsv, ToyFits, Toys, Vegas10d)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as fh:
        return json.load(fh)


def test_benchmark_json_caps(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16 and 1 <= len(spec["command"]) <= 32
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_emitted_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    rec = run.Record(0, 1.0, units=1.0, rel_err=0.1, host=run.PROBE_REF_S)
    metrics, _ = run.end_to_end([rec], [0.5], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    emitted = {f"{name}.{tag}": unit for tag in ("w1", "wn")
               for name, unit in tr.LAYER_METRICS.items() if name not in tr.UNGATED}
    emitted.update(tr.RUN_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert set(tr.layer_metrics([], 1, {})) == set(tr.LAYER_METRICS)


def test_times_are_scaled_to_the_reference_host_speed():
    recs = [run.Record(i, 1.0, units=2.0, host=2 * run.PROBE_REF_S) for i in range(3)]
    metrics, extra = run.end_to_end(recs, [0.6], 0.5)
    assert metrics["op_p50_s"][0] == 0.5 and metrics["throughput"][0] == 4.0
    assert metrics["setup_s"][0] == 0.3 and extra["shown"]["op_p50_wall_s"][0] == 1.0


def test_tail_has_ten_beyond():
    walls = [float(i) for i in range(100)]
    assert run.tail(walls) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def smoke(name: str, workdir: str):
    return {
        "toys": lambda: Toys(workdir, 5, scale=0.2),
        "toy_fits": lambda: ToyFits(workdir, 5, scale=0.2),
        # the chi2/dof check is calibrated at the full size only
        "vegas_10d": lambda: Vegas10d(workdir, 5),
        "phsp_csv": lambda: PhspCsv(workdir, 5, events=20_000),
        "fit_csv": lambda: FitCsv(workdir, 5, n_gauss=8_000, n_exp=12_000),
        "splot_csv": lambda: SplotCsv(workdir, 5, n_gauss=8_000, n_exp=12_000),
    }[name]()


@pytest.mark.parametrize("name", list(ALL_WORKLOADS))
def test_workload_passes_checks_and_is_worker_invariant(name, tmp_path):
    wl = smoke(name, str(tmp_path))
    wl.setup()
    wl.warmup(2)
    two = run.closed_loop(wl, 2, ops=1)
    one = run.closed_loop(wl, 1, ops=1)
    for rec in two + one:
        assert rec.failures == [] and rec.units > 0 and rec.rel_err > 0
    assert [r.digests for r in one] == [r.digests for r in two]


def wrapped_attributes():
    out = [(mod, attr) for _, mods, attr, _ in tr.FUNCTIONS for mod in mods]
    out += [(cls, attr) for cls, attr in tr.METHODS]
    out += [(mod, "run_batches") for mod in tr.RUN_BATCHES_MODULES]
    return out + [(fitting.Pdf, "value"), (cli, "build_integrand")]


def test_traced_pass_restores_every_attribute(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in wrapped_attributes()]
    wl = Toys(str(tmp_path), 3, scale=0.2)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not value for owner, attr, value in originals)
        recs = run.closed_loop(wl, 2, ops=1, tracer=tracer)
        vegas = Vegas10d(str(tmp_path), 3, calls=20_000, iterations=2)
        vegas.warmup(2)
    finally:
        tracer.restore()
    for owner, attr, value in originals:
        assert owner.__dict__[attr] is value, f"{owner.__name__}.{attr}"
    assert recs[0].failures == []
    metrics = tr.layer_metrics(tracer.spans, 1, {})
    assert metrics["fitting.nll_calls_per_fit"] > 0 and metrics["rng.sample_pdf_s"] > 0
    assert metrics["integrate.vegas_s"] > 0 and metrics["functors.eval_s"] > 0
    assert metrics["rng.accept_rate"] > 0 and 0 < metrics["parallel.efficiency"] <= 1


def corrupt_row(data: bytes, row: int, col: int) -> bytes:
    lines = data.split(b"\n")
    fields = lines[row + 1].split(b",")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6) + 1e-9).encode()
    lines[row + 1] = b",".join(fields)
    return b"\n".join(lines)


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_phsp_check_flags_a_perturbed_row(tmp_path):
    wl = PhspCsv(str(tmp_path), 5, events=5_000)
    res = wl.op(0, 1)
    res.outputs["phsp.csv"] = read(res.files["phsp.csv"])
    assert wl.check(0, res) == []
    res.outputs["phsp.csv"] = corrupt_row(res.outputs["phsp.csv"], 7, 2)
    failures = wl.check(0, res)
    assert failures and "row 7" in failures[0]


def test_check_in_a_child_reports_its_failures(tmp_path):
    wl = PhspCsv(str(tmp_path), 5, events=5_000)
    res = wl.op(0, 1)
    failures, rel_err = run.check_apart(wl, 0, res)
    assert failures == [] and rel_err > 0
    path = res.files["phsp.csv"]
    data = corrupt_row(read(path), 7, 2)
    with open(path, "wb") as fh:
        fh.write(data)
    failures, _ = run.check_apart(wl, 0, res)
    assert failures and "row 7" in failures[0]


def test_traced_write_counts_the_bytes_of_either_writer(tmp_path):
    cols = [np.array([0.1, 2.0]), np.array([3.0, -4.5])]
    table = store.ColumnStore.from_columns(store.ColumnSchema.real64("a", "b"), cols)
    tracer = tr.Tracer()
    tracer.install()
    try:
        text = table.to_csv()
        table.write_csv(str(tmp_path / "t.csv"))
    finally:
        tracer.restore()
    spans = [sp for sp in tracer.spans if sp.name == "store.write_csv"]
    assert [sp.attrs for sp in spans] == [{"rows": 2, "bytes": len(text)}] * 2


def test_splot_check_flags_a_perturbed_sweight(tmp_path):
    wl = SplotCsv(str(tmp_path), 5, n_gauss=8_000, n_exp=12_000)
    wl.setup()
    res = wl.op(0, 1)
    res.outputs["sweights.csv"] = read(res.files["sweights.csv"])
    assert wl.check(0, res) == []
    res.outputs["sweights.csv"] = corrupt_row(res.outputs["sweights.csv"], 11, 0)
    assert any("event 11" in f for f in wl.check(0, res))


def test_vegas_check_flags_a_wrong_value(tmp_path):
    wl = Vegas10d(str(tmp_path), 5)
    res = wl.op(0, 2)
    res.outputs["vegas.csv"] = read(res.files["vegas.csv"])
    assert wl.check(0, res) == []
    names, row = res.outputs["vegas.csv"].split(b"\n")[:2]
    value, rest = row.split(b",", 1)
    res.outputs["vegas.csv"] = names + b"\n" + repr(float(value) * 1.1).encode() + b"," + rest
    assert any("sigma from truth" in f for f in wl.check(0, res))


def test_toys_check_flags_a_repeated_sample(tmp_path):
    wl = Toys(str(tmp_path), 5, scale=0.2)
    res = wl.op(3, 1)
    assert wl.check(3, res) == []
    assert wl.check(259, res) == ["toy 259: sample identical to toy 3"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toys",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_write_floor_formats_like_the_store():
    cols = [np.array([0.1, 1.0 / 3.0]), np.array([2.0, -1e-300])]
    table = store.ColumnStore.from_columns(store.ColumnSchema.real64("a", "b"), cols)
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(cols), fmt="%.17g", delimiter=",")
    assert table.to_csv().split("\n", 1)[1] == buf.getvalue()
