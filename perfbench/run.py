"""CLI-level benchmark of bddcheck.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Until S seconds have passed, the benchmark
writes the workload's netlists, made from the seed, under
``.perfbench_work/`` (the set-up), then runs the workload's ``bddcheck``
command through ``bddcheck.cli.main`` in a fresh interpreter, one child at
a time.  Every child's outputs are checked (exit code, verdict, poly
bound, round trip, chain size), and its machine-free counters must equal
those of the first child.

``--trace 0`` reports the end-to-end metrics: median wall time and peak
RSS of one CLI run, median set-up time and the share of runs that passed.
``--trace 1`` repeats cycles of three children (untraced, traced, traced
without the live tracker; see ``traced.py``) and reports the per-layer
metrics, each the median over the cycles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only the
standard library and ``bddcheck`` are used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "bdd.ite_s": "s",
    "bdd.ite_entries": "count",
    "bdd.created": "count",
    "bdd.unique_entries": "count",
    "bdd.created_per_ite": "ratio",
    "bdd.size_s": "s",
    "bdd.size_visits": "count",
    "simulate.total_s": "s",
    "simulate.ite_share": "ratio",
    "simulate.size_share": "ratio",
    "simulate.live_s": "s",
    "simulate.peak_live": "count",
    "simulate.bookkeeping_s": "s",
    "netlist.parse_s": "s",
    "netlist.serialize_s": "s",
    "circuit.topo_s": "s",
    "circuit.dfs_order_s": "s",
    "cli.report_s": "s",
    "cli.other_s": "s",
    "equivalence.miter_s": "s",
    "bddcircuit.expand_s": "s",
    "bddcircuit.roundtrip_s": "s",
    "bddcircuit.roundtrip_created": "count",
    "python.gc_s": "s",
    "python.gc_collections": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "process.cpu_s": "s",
}

# span name -> per-layer metric that sums the spans' self times
SELF_TIME_METRICS = {
    "netlist.parse": "netlist.parse_s",
    "netlist.serialize": "netlist.serialize_s",
    "circuit.topo": "circuit.topo_s",
    "circuit.dfs_order": "circuit.dfs_order_s",
    "cli.report": "cli.report_s",
    "cli.main": "cli.other_s",
    "equivalence.miter": "equivalence.miter_s",
    "bddcircuit.expand": "bddcircuit.expand_s",
    "bddcircuit.roundtrip": "bddcircuit.roundtrip_s",
}


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    cpu_s: float
    errors: list[str]
    counters: dict | None


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Bench:
    """Runs the children of one workload and keeps the failure count."""

    def __init__(self, workload, work: Path):
        self.w = workload
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.timed_out = False

    def _spawn(self, argv: list[str], ignore: tuple[str, ...] = ()) -> Sample:
        self.attempted += 1
        work = self.work
        with open(work / "stdout.txt", "wb") as out, \
                open(work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=work, env=self.env,
                                    stdout=out, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.kill()
                proc.wait()
                raise
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors, counters = self._check(proc.returncode, ignore)
        if errors:
            self.failed += 1
            sys.stderr.write(f"run {self.attempted} failed: "
                             + "; ".join(errors) + "\n")
        return Sample(wall, usage.ru_maxrss / 1024,
                      usage.ru_utime + usage.ru_stime, errors, counters)

    def _check(self, code: int, ignore):
        try:
            errors, counters = self.w.check(self.work, code)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"exit code {code}, unreadable output: {exc!r}"], None
        mine = {k: v for k, v in counters.items() if k not in ignore}
        if self.reference is None:
            self.reference = counters
        else:
            ref = {k: v for k, v in self.reference.items() if k not in ignore}
            if mine != ref:
                errors.append(f"counters {mine} differ from first run {ref}")
        return errors, counters

    def run(self, argv_prefix: list[str], ignore=()) -> Sample | None:
        if self.timed_out:             # keeps the whole run within its limit
            return None
        try:
            return self._spawn(argv_prefix + self.w.argv, ignore)
        except ChildTimeout:
            self.failed += 1
            self.timed_out = True
            sys.stderr.write(f"run {self.attempted} exceeded "
                             f"{CHILD_TIMEOUT_S} s and was killed\n")
            return None

    def cli(self) -> Sample | None:
        return self.run([sys.executable, "-m", "bddcheck.cli"])

    def traced(self, live: bool):
        """One traced child; returns its sample and its span document."""
        spans = self.work / "spans.json"
        spans.unlink(missing_ok=True)
        opts = [] if live else ["--no-live"]
        sample = self.run([sys.executable, str(HERE / "traced.py"),
                           str(spans), *opts, "--"],
                          ignore=() if live else ("peak_live",))
        if sample is None:
            return None, None
        try:
            with open(spans, encoding="utf-8") as fh:
                return sample, json.load(fh)
        except (OSError, ValueError) as exc:
            if not sample.errors:
                self.failed += 1
            sys.stderr.write(f"run {self.attempted}: no span file: {exc!r}\n")
            return None, None


def set_up(workload, seed: int, work: Path) -> float:
    """Write the workload's netlists; returns the time it took."""
    t0 = time.perf_counter()
    for name, text in workload.files(seed).items():
        (work / name).write_text(text, encoding="utf-8")
    return time.perf_counter() - t0


def measure(bench: Bench, seed: int, seconds: int) -> dict:
    # the set-up is repeated before every child, so that set-up and CLI
    # times sample the same stretch of machine load
    setups, samples = [], []
    deadline = time.perf_counter() + seconds
    while not bench.timed_out and (len(samples) < MIN_SAMPLES
                                   or time.perf_counter() < deadline):
        setups.append(set_up(bench.w, seed, bench.work))
        s = bench.cli()
        if s is not None:
            samples.append(s)
    if not samples:
        return {}
    walls = [s.wall_s for s in samples]
    print(f"wall_s samples ({len(walls)}): "
          + " ".join(f"{x:.4f}" for x in walls))
    if len(walls) >= 2:
        q = statistics.quantiles(walls, n=4)
        print(f"wall_s quartiles: {q[0]:.4f} {q[2]:.4f}")
    print(f"cpu_s median: {statistics.median(s.cpu_s for s in samples):.4f}")
    print(f"counters: {bench.reference}")
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "ok_ratio": (bench.attempted - bench.failed) / bench.attempted,
    }


def _span_totals(doc: dict) -> dict:
    """Layer sums of one span document: self times, leaf times and counts."""
    spans = doc["spans"]
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    leaf_s = {"bdd.ite": 0.0, "bdd.size": 0.0}
    in_simulate_s = {"bdd.ite": 0.0, "bdd.size": 0.0}
    size_visits = 0
    for name, parent, _calls, secs, value in doc["leaves"]:
        leaf_s[name] += secs
        size_visits += value                  # only size() adds a value
        if parent is not None:
            own[parent] -= secs
            if spans[parent][0] == "simulate":
                in_simulate_s[name] += secs
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    sim_total = sim_self = 0.0
    for (name, _, start, end), self_s in zip(spans, own):
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += self_s
        elif name == "simulate":
            sim_total += end - start
            sim_self += self_s

    sims = doc["sims"]
    created = sum(s["created"] for s in sims)
    ite_entries = sum(s["ite_entries"] for s in sims)
    peaks = [s["peak_live"] for s in sims if s["peak_live"] is not None]
    out.update({
        "bdd.ite_s": leaf_s["bdd.ite"],
        "bdd.ite_entries": ite_entries,
        "bdd.created": created,
        "bdd.unique_entries": sum(s["unique_entries"] for s in sims),
        "bdd.created_per_ite": created / ite_entries if ite_entries else 0.0,
        "bdd.size_s": leaf_s["bdd.size"],
        "bdd.size_visits": size_visits,
        "simulate.total_s": sim_total,
        "simulate.self_s": sim_self,
        "simulate.ite_share": in_simulate_s["bdd.ite"] / sim_total,
        "simulate.size_share": in_simulate_s["bdd.size"] / sim_total,
        "simulate.peak_live": max(peaks) if peaks else 0,
        "python.gc_s": doc["gc_s"],
        "python.gc_collections": doc["gc_collections"],
    })
    return out


def measure_traced(bench: Bench, seed: int, seconds: int) -> dict:
    set_up(bench.w, seed, bench.work)
    cycles = []
    deadline = time.perf_counter() + seconds
    while not bench.timed_out:
        if bench.attempted and time.perf_counter() >= deadline:
            break
        plain = bench.cli()
        traced, doc = bench.traced(live=True)
        _, nolive_doc = bench.traced(live=False)
        if plain is None or doc is None or nolive_doc is None:
            continue
        m = _span_totals(doc)
        nolive = _span_totals(nolive_doc)
        # the live tracker runs inside simulate's own loop, so its cost is
        # the change in simulate's self time when it is switched off
        m["simulate.live_s"] = m["simulate.self_s"] - nolive["simulate.self_s"]
        m["simulate.bookkeeping_s"] = nolive["simulate.self_s"]
        m["bddcircuit.roundtrip_created"] = traced.counters.get(
            "roundtrip_created", 0)
        m["trace.wall_s"] = traced.wall_s
        m["trace.untraced_wall_s"] = plain.wall_s
        m["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
        m["process.cpu_s"] = plain.cpu_s
        cycles.append(m)
    print(f"traced cycles: {len(cycles)}")
    print(f"counters: {bench.reference}")
    if not cycles:
        return {}
    return {name: statistics.median(c[name] for c in cycles)
            for name in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bddcheck" / "cli.py").is_file():
        sys.stderr.write(f"error: no bddcheck sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import bddcheck.cli  # noqa: F401  (compiles it before the first child)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("error: --seconds must be at least 1\n")
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    work = WORK_ROOT / f"{workload.name}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, work)
    if args.trace:
        values = measure_traced(bench, args.seed, args.seconds)
        units = PER_LAYER
    else:
        values = measure(bench, args.seed, args.seconds)
        units = END_TO_END
    if not values:
        sys.stderr.write("error: no run completed\n")
        return 1
    for name, unit in units.items():
        print(f"{name:30s} {values[name]:>16.6f} {unit}")
    if bench.failed:
        sys.stderr.write(f"{bench.failed} of {bench.attempted} runs failed; "
                         f"outputs kept in {work}\n")
    else:
        if args.trace:
            shutil.copyfile(work / "spans.json",
                            WORK_ROOT / f"{work.name}.spans.json")
        shutil.rmtree(work)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
