"""Run one hepkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Before it come a line that
starts with ``provenance`` and records the host, versions, seed and worker
counts, and a table of every metric with its unit.

--trace 0 times the workload untraced and reports the end-to-end metrics,
their times scaled to a reference host speed (see HostProbe).
--trace 1 runs the untraced pass for a third of the time, then replays
the same operations traced at one worker and at nproc workers, and
reports per-layer metrics.
Every output of the one-worker pass must equal the untraced output byte
for byte; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import hepkit"
# After each operation the host-speed probe runs for at least this share
# of the operation's time, and at least once.
PROBE_SHARE = 0.2
# Median probe time that the reported times are scaled to: about the
# probe's time on an idle core of the host this was written on.
PROBE_REF_S = 0.00125


class HostProbe:
    """A fixed pure-Python loop, timed between operations.  The workloads
    spend most of their time in the interpreter (the simplex, CSV
    formatting and parsing), so the probe slows when they do, and it does
    not touch hepkit, so a change to hepkit does not change it."""

    def __init__(self):
        self.times: list[float] = []

    @staticmethod
    def _once() -> int:
        s = 0
        for i in range(20_000):
            s += i * i % 7
        return s

    def run(self, seconds: float) -> list[float]:
        """Probe at least once, and until ``seconds`` of probing have passed;
        the times of these probes."""
        window: list[float] = []
        while not window or sum(window) < seconds:
            t0 = time.perf_counter()
            self._once()
            window.append(time.perf_counter() - t0)
        self.times += window
        return window

    def scale(self) -> float:
        """Factor that brings times measured in this run to the reference
        host speed."""
        return PROBE_REF_S / statistics.median(self.times)


@dataclass
class Record:
    """One operation of a pass: its wall time, what it produced (outputs
    reduced to digests once checked) and its failures."""

    index: int
    wall: float
    units: float = 0.0
    rel_err: float = float("nan")
    host: float = float("nan")    # host-speed probe time around the operation
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def run_op(wl, i: int, workers: int, tracer=None, check: bool = True) -> Record:
    """Time operation ``i``; check it outside the timed region."""
    if tracer is not None:
        tracer.op = i
    wl.prepare(i)
    t0 = time.perf_counter()
    try:
        res = wl.op(i, workers)
    except Exception as exc:    # an operation that raises is a failed operation
        return Record(i, time.perf_counter() - t0,
                      failures=[f"op {i}: {type(exc).__name__}: {exc}"])
    rec = Record(i, time.perf_counter() - t0, res.units)
    if check:
        if res.files:
            rec.failures, rec.rel_err = check_apart(wl, i, res)
        else:
            rec.failures = wl.check(i, res)
            rec.rel_err = res.rel_err
    rec.digests = {k: hashlib.sha256(v).hexdigest() for k, v in res.outputs.items()}
    for name, path in res.files.items():
        with open(path, "rb") as fh:
            rec.digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return rec


def check_apart(wl, i: int, res) -> tuple[list[str], float]:
    """``wl.check`` of an operation that wrote files, run in a forked child
    that reads them, so that the check's memory stays out of this process's
    peak RSS.  Such checks keep no state across operations."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            for name, path in res.files.items():
                with open(path, "rb") as fh:
                    res.outputs[name] = fh.read()
            reply = [wl.check(i, res), res.rel_err]
        except BaseException as exc:
            reply = [[f"op {i}: check raised {type(exc).__name__}: {exc}"], math.nan]
        try:
            with os.fdopen(wfd, "w") as fh:
                json.dump(reply, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    if not text:
        return [f"op {i}: check process died"], math.nan
    failures, rel_err = json.loads(text)
    return failures, rel_err


def closed_loop(wl, workers: int, seconds: float | None = None, ops: int | None = None,
                tracer=None, check: bool = True, setups: list[float] | None = None,
                probe: HostProbe | None = None) -> list[Record]:
    """One operation in flight at a time, for ``seconds`` of operation time
    or over exactly ``ops`` operations.  ``setups``, holding the time of the
    set-up before the loop, receives SETUP_REPEATS - 1 more, spread evenly
    over the operation time, so that they meet the host as the operations
    do.  ``probe`` runs before the first operation and after each; an
    operation's ``host`` is the median of the probes just before and just
    after it."""
    wl.reset()
    records: list[Record] = []
    busy = 0.0
    window = probe.run(0.0) if probe is not None else []
    while (len(records) < ops) if ops is not None else (busy < seconds):
        while setups is not None and busy >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(set_up(wl, workers))
        rec = run_op(wl, len(records), workers, tracer, check)
        busy += rec.wall
        records.append(rec)
        if probe is not None:
            before, window = window, probe.run(PROBE_SHARE * rec.wall)
            rec.host = statistics.median(before + window)
    while setups is not None and len(setups) < SETUP_REPEATS:
        setups.append(set_up(wl, workers))
    return records


def set_up(wl, workers: int) -> float:
    """Wall time of one set-up: a fresh interpreter importing hepkit, the
    workload's input generation, and one small warm-up operation."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, timeout=120)
    wl.setup()
    wl.warmup(workers)
    return time.perf_counter() - t0


def tail(walls: list[float]) -> tuple[float, float]:
    """(latency, percentile): the highest percentile with at least ten
    operations beyond it; with fewer than eleven, the slowest operation."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records: list[Record], setups: list[float], scale: float) -> tuple[dict, dict]:
    """The gated metrics, their times scaled to the reference host speed:
    each operation's by the probes around it, the set-ups' by ``scale``.
    The wall-clock values are printed beside them."""
    walls = [r.wall for r in records]
    scaled = [r.wall * PROBE_REF_S / r.host for r in records]
    done = [r for r in records if not r.failures]
    tail_s, tail_pct = tail(scaled)
    rel = [r.rel_err for r in done if r.rel_err == r.rel_err]
    throughput = sum(r.units for r in done) / sum(walls)
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "throughput": (sum(r.units for r in done) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rel_err": (statistics.median(rel) if rel else 1.0, "ratio"),
    }
    # printed, not gated: the tail spreads more between runs than any bound,
    # and wall-clock times follow the host's speed
    shown = {"op_tail_s": (tail_s, "s"),
             "setup_wall_s": (statistics.median(setups), "s"),
             "throughput_wall": (throughput, "1/s"),
             "op_p50_wall_s": (statistics.median(walls), "s"),
             "op_tail_wall_s": (tail(walls)[0], "s")}
    extra = {"shown": shown, "op_tail_percentile": tail_pct, "host_scale": scale,
             "probe_median_s": PROBE_REF_S / scale, "ops": len(records),
             "op_walls_s": walls, "op_probe_s": [r.host for r in records],
             "setup_runs_s": setups}
    return metrics, extra


def scaled_median(records: list[Record]) -> float:
    """Median operation time of a pass at the reference host speed."""
    return statistics.median(r.wall * PROBE_REF_S / r.host for r in records)


def traced(wl, workers: int, seconds: float) -> tuple[dict, dict, list[Record]]:
    """Untraced pass at nproc, then the same operations traced at one
    worker and at nproc; per-layer metrics of both traced passes."""
    import floors
    import tracer as tr

    # the two replays take about as long as the untraced pass each
    base = closed_loop(wl, workers, seconds=seconds / 3, probe=HostProbe())
    ops = len(base)
    records = list(base)
    passes = {}
    last = None
    for tag, w in (("w1", 1), ("wn", workers)):
        tracer = tr.Tracer()
        tracer.install()
        try:
            # outputs equal to the checked untraced pass need no check of their own
            recs = closed_loop(wl, w, ops=ops, tracer=tracer, check=False, probe=HostProbe())
        finally:
            tracer.restore()
        for a, b in zip(base, recs):
            if a.digests != b.digests:
                b.failures.append(f"op {b.index}: outputs at {w} workers differ from "
                                  f"the untraced pass at {workers}")
        records += recs
        passes[tag] = (tracer, recs)
        last = tracer

    floor = {"uniform": floors.uniform_s_per_draw()}
    spans = last.spans
    if any(sp.name == "integrate.vegas" for sp in spans):
        floor["gauss10"] = floors.gauss10_s_per_point()
    sizes = [sp.attrs["events"] for sp in spans if sp.name == "fitting.nll" and sp.attrs]
    if sizes:
        floor["nll"] = floors.nll_s_per_event(int(statistics.median(sizes)))
    if last.last_read:
        floor["read"] = floors.read_s_per_row(last.last_read)
    if last.last_written is not None:
        floor["write"] = floors.write_s_per_row(list(last.last_written.columns()))

    metrics, ungated = {}, {}
    for tag, (tracer, _) in passes.items():
        layer = tr.layer_metrics(tracer.spans, ops, floor)
        for name, value in layer.items():
            into = ungated if name in tr.UNGATED else metrics
            into[f"{name}.{tag}"] = (value, tr.LAYER_METRICS[name])
    # medians of scaled times: the host's drift between passes cancels, and
    # the slower first operations of the process weigh on the untraced pass
    # no more than on the others
    untraced = scaled_median(base)
    traced_n = scaled_median(passes["wn"][1])
    traced_1 = scaled_median(passes["w1"][1])
    metrics["parallel.speedup"] = (traced_1 / traced_n, "ratio")
    metrics["trace.overhead_frac"] = (traced_n / untraced - 1.0, "ratio")
    extra = {"shown": ungated, "ops_per_pass": ops, "floor_s_per_unit": floor,
             "spans": {tag: len(p[0].spans) for tag, p in passes.items()}}
    return metrics, extra, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hepkit", "__init__.py")):
        print("run.py: no src/hepkit here; run it from the root of a hepkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import provenance
    from workloads import ALL_WORKLOADS

    if args.workload not in ALL_WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r} (use {', '.join(ALL_WORKLOADS)})",
              file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl = ALL_WORKLOADS[args.workload](workdir, args.seed)
        setups = [set_up(wl, workers)]
        if args.trace:
            metrics, extra, records = traced(wl, workers, args.seconds)
        else:
            probe = HostProbe()
            records = closed_loop(wl, workers, seconds=args.seconds, setups=setups,
                                  probe=probe)
            metrics, extra = end_to_end(records, setups, probe.scale())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass    # another run still uses it

    table = [(name, value, unit) for name, (value, unit) in
             {**metrics, **extra.pop("shown")}.items()]
    failed = [r for r in records if r.failures]
    for r in failed[:20]:
        print("FAIL " + "; ".join(r.failures), file=sys.stderr)
    record = provenance.record(root, workload=args.workload, seed=args.seed,
                               seconds=args.seconds, trace=args.trace,
                               workers={"nproc": workers, "traced": [1, workers]
                                        if args.trace else []},
                               throughput_unit=f"{wl.unit}/s", **extra)
    print("provenance " + json.dumps(record))
    table.append(("fail_frac", len(failed) / len(records), "ratio"))
    for name, value, unit in table:
        print(f"{args.workload:10s} {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
