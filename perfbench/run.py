"""Benchmark of qcfrob verification campaigns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The seed generates the workload's
campaign config; the program sees only that config.  Every campaign runs in
a fresh process, because uqn keeps module-level caches that would
otherwise carry over from one measurement to the next.

--trace 0 launches `python3 -m qcfrob.cli` on the config, one campaign at a
time (a closed loop with one client), for about S seconds, and reports the
end-to-end metrics.  --trace 1 makes one untraced launch, one serial
in-process run, one traced serial in-process run and the layer kernels,
and reports the per-layer metrics.  Both print info lines starting with
'#', then one JSON result line.  Every report passes through a correctness
gate; a record that breaches it counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
PY = sys.executable
SETUP_PROBES = 11
COMMUTATION_PROBES = 3
RUN_BUDGET_S = 170          # a run must end within 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "checks_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "pass_share": "ratio",
}

# Sums of record millis per check, from an untraced launch.
RECORD_GROUPS = {
    "lambda-oracle": "cli.lambda_ms", "theorem": "cli.theorem_ms",
    "minor-base-case": "cli.base_case_ms", "minor-power": "cli.minor_power_ms",
    "splitting-axioms": "cli.modp_ms", "splitting-reduction": "cli.modp_ms",
}
TRACED_MS = (
    "qtorus.mul.laurent", "qtorus.mul.one", "qtorus.mul.eps", "qtorus.mul.modp",
    "frobsplit.monomial", "frobsplit.session_init", "cluster.mutate_seed",
    "qtorus.exact_right_divide", "uqn.word_splits", "uqn.commutation_matrix",
    "uqn.check_frobenius_on_minor", "uqn.check_minor_power",
)
TRACED_CALLS = (
    "qtorus.mul.laurent", "qtorus.mul.one", "qtorus.mul.eps", "qtorus.mul.modp",
    "frobsplit.monomial", "cluster.mutate_seed", "qtorus.exact_right_divide",
    "uqn.word_splits",
)
TRACED_COUNTS = tuple(
    [f"qtorus.mul.{k}.{c}" for k in ("laurent", "one", "eps", "modp")
     for c in ("term_pairs", "terms_out")]
    + ["frobsplit.monomial.terms_out", "uqn.word_splits.splits_out"])
KERNELS = {
    "coeff.cyclo_mul_us.l3": "us", "coeff.cyclo_mul_us.l5": "us",
    "coeff.laurent_mul_us": "us", "coeff.ratfunc_add_gcd_us": "us",
    "coeff.specialize_eps_us": "us", "qtorus.mul_us.laurent": "us",
    "qtorus.mul_us.one": "us", "qtorus.mul_us.eps": "us",
    "qtorus.right_divide_us": "us", "cluster.mutate_seed_ms": "ms",
    "frobsplit.expander_box_ms": "ms", "uqn.word_splits_us": "us",
    "uqn.commutation_matrix_ms.A3": "ms",
}


def per_layer_units() -> dict:
    units = {name: "ms" for name in sorted(set(RECORD_GROUPS.values()))}
    units["cli.worker_busy_share"] = "ratio"
    units.update({f"{name}.ms": "ms" for name in TRACED_MS})
    units.update({f"{name}.calls": "count" for name in TRACED_CALLS})
    units.update({name: "count" for name in TRACED_COUNTS})
    units["trace_overhead_s"] = "s"
    units.update(KERNELS)
    units.update({"input.batches": "count", "input.vectors": "count",
                  "input.prefix_reuse": "ratio", "env.src_lines": "count"})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Launch:
    wall: float
    started: float
    status: int
    out: bytes
    err: bytes
    cpu: float
    rss_mb: float


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, *,
                 tiny: bool = False):
        if not (root / "src" / "qcfrob" / "cli.py").is_file():
            raise BenchError(f"no qcfrob sources under {root / 'src'}")
        if workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}; choose from "
                             f"{sorted(workloads.WORKLOADS)}")
        self.root = root
        self.work = root / ".perfbench-work"
        self.work.mkdir(exist_ok=True)
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.began = time.monotonic()
        self.config = workloads.make_config(workload, seed, tiny=tiny)
        self.config_path = self.work / f"{workload}.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.expected = workloads.expected_records(self.config)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0

    # -- processes ---------------------------------------------------------

    def launch(self, args) -> Launch:
        """Run one child to completion; wall time runs from just before the
        spawn to the return of wait4, whose rusage covers reaped workers."""
        remaining = RUN_BUDGET_S - (time.monotonic() - self.began)
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen([PY, *map(str, args)], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Launch(wall, started, proc.returncode, out_path.read_bytes(),
                      err_path.read_bytes(), usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024)

    def child(self, *args) -> Launch:
        """Run child.py; it must exit 0."""
        got = self.launch([HERE / "child.py", *args])
        if got.status != 0:
            raise BenchError(f"child {args[0]} failed with status {got.status}:\n"
                             + got.err.decode(errors="replace")[-2000:])
        return got

    def campaign(self, *, deterministic: bool) -> Launch:
        args = ["-m", "qcfrob.cli", "--config", self.config_path,
                "--format", "json", "--jobs", self.workload.jobs]
        if deterministic:
            args.append("--deterministic")
        return self.launch(args)

    def setup_probe(self) -> float:
        """Seconds from spawn until Campaign.from_dict returns."""
        got = self.child("setup", self.config_path)
        return json.loads(got.out)["ready"] - got.started

    # -- correctness gate --------------------------------------------------

    def gate(self, report) -> int:
        """Count the report's records as attempted, and those that breach
        the gate as failed; all of them when the report is missing.
        Returns the breaches."""
        breaches = count_breaches(report, self.expected)
        self.attempted += len(self.expected)
        self.failed += breaches
        return breaches

    # -- the two kinds of run ----------------------------------------------

    def timed(self) -> dict:
        # Setup probes go between launches, so a burst of load on the box
        # skews few of them.
        setups = [self.setup_probe()]
        walls, rates, cpus, rss = [], [], [], []
        reference = None
        start = time.monotonic()
        while True:
            setups.append(self.setup_probe())
            got = self.campaign(deterministic=True)
            report = parse_report(got)
            if reference is None and report is not None:
                reference = got.out
            if report is not None and got.out != reference:
                report = None           # not byte-identical across launches
            self.gate(report)
            walls.append(got.wall)
            cpus.append(got.cpu)
            rss.append(got.rss_mb)
            checked = sum(r["checked"] for r in report["checks"]) if report else 0
            rates.append(checked / got.wall)
            # Start another launch only if it should end within the run.
            if time.monotonic() - start + statistics.median(walls) > self.seconds:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        print(f"# launches {len(walls)} wall_s " + " ".join(f"{w:.4f}" for w in walls))
        return {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                "checks_per_s": statistics.median(rates),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": statistics.median(rss),
                "pass_share": 1 - self.failed / self.attempted}

    def traced(self) -> dict:
        metrics = {}
        setup = statistics.median(self.setup_probe() for _ in range(SETUP_PROBES))
        launched = self.campaign(deterministic=False)
        report = parse_report(launched)
        breaches = self.gate(report)
        records = report["checks"] if report and not breaches else []
        metrics.update({name: 0 for name in RECORD_GROUPS.values()})
        for rec in records:
            metrics[RECORD_GROUPS[rec["name"]]] += rec["millis"]
        busy = sum(rec["millis"] for rec in records) / 1e3
        metrics["cli.worker_busy_share"] = busy / (self.workload.jobs
                                                   * (launched.wall - setup))

        plain = json.loads(self.child("run", self.config_path).out)
        spans_path = self.work / f"spans-{self.workload.name}.tsv"
        traced = json.loads(self.child("run", self.config_path, spans_path).out)
        for got in (plain, traced):
            same = (got["sha256"] == plain["sha256"]
                    and (breaches or zero_millis(report) == got["report"]))
            self.gate(got["report"] if same else None)

        layers, counts = traced["layers"], traced["counts"]
        empty = {"calls": 0, "ms": 0.0}
        for name in TRACED_MS:
            metrics[f"{name}.ms"] = layers.get(name, empty)["ms"]
        for name in TRACED_CALLS:
            metrics[f"{name}.calls"] = layers.get(name, empty)["calls"]
        for name in TRACED_COUNTS:
            metrics[name] = counts.get(name, 0)
        metrics["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
        print("# layers " + json.dumps(
            {n: {k: round(v, 3) for k, v in s.items()} for n, s in layers.items()}))
        print("# counts " + json.dumps(counts, sort_keys=True))

        metrics.update(json.loads(self.child("kernels", self.seed).out))
        metrics["uqn.commutation_matrix_ms.A3"] = 1e3 * statistics.median(
            json.loads(self.child("commutation").out)["seconds"]
            for _ in range(COMMUTATION_PROBES))
        props = workloads.input_properties(self.config)
        metrics.update({f"input.{k}": v for k, v in props.items()})
        metrics["env.src_lines"] = src_lines(self.root)
        return metrics

    def result(self, trace: bool) -> dict:
        values = self.traced() if trace else self.timed()
        units = per_layer_units() if trace else END_TO_END
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}


def parse_report(got: Launch):
    """The launch's JSON report, or None when it exited nonzero or printed
    something else."""
    if got.status != 0:
        return None
    try:
        report = json.loads(got.out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def zero_millis(report: dict) -> dict:
    return {**report, "checks": [{**r, "millis": 0} for r in report["checks"]]}


def count_breaches(report, expected) -> int:
    """Records that are missing, out of place, not PASS, or whose checked
    count differs from what the generated inputs imply."""
    records = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(records, list) or len(records) != len(expected):
        return len(expected)
    bad = 0
    for rec, (name, params, checked) in zip(records, expected):
        if not (isinstance(rec, dict) and rec.get("name") == name
                and rec.get("params") == params and rec.get("verdict") == "PASS"
                and rec.get("checked") == checked):
            bad += 1
    return bad


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "src_lines": src_lines(root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = Bench(Path.cwd(), args.workload, args.seed, args.seconds)
        print("# env " + json.dumps(environment(bench.root)))
        print("# inputs " + json.dumps(workloads.input_properties(bench.config)))
        result = bench.result(bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
