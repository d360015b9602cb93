"""Benchmark driver for goldman.

    python3 bench/run.py --workload golden|inner-z2|homology-s12|all \
        [--seed N] [--seconds S] [--trace 0|1] [--box M]
    python3 bench/run.py --self-test

One client, closed loop: every goldman command runs in a fresh Python
process (``probe.py``, which calls ``goldman.cli.main``), one at a time.
Every report passes its workload's correctness gate before a number is
kept.  With ``--trace 0`` the run measures end-to-end metrics: set-up
probes, then untraced runs of the command until ``--seconds`` have
passed (at least one).  With ``--trace 1`` it makes one untraced and
one traced run, and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 when every unit passed its gate, 1 when some did not, and 2 when
the benchmark could not run at all (then no JSON line is printed).
Full results, the machine record and the kept spans are written under
``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hooks import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBE = os.path.join(HERE, "probe.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7      # set-up-only processes per --trace 0 run
RUN_DEADLINE = 175.0   # seconds; the whole run must end before 180
EXTRA_LAYER_METRICS = [("cli.cpu_s", "s"), ("cli.cpu_per_wall", "ratio"),
                       ("trace.overhead_ratio", "ratio")]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Sample:
    """One probe process: its clock stamps, exit status, usage and report."""

    def __init__(self, spawned, side, status, usage, report, stderr):
        self.spawned = spawned
        self.side = side
        self.status = status
        self.usage = usage
        self.report = report
        self.stderr = stderr

    @property
    def setup_s(self):
        return self.side["t_first"] - self.spawned

    @property
    def wall_s(self):
        return self.side["t_end"] - self.side["t_first"]

    @property
    def cpu_s(self):
        return self.usage.ru_utime + self.usage.ru_stime

    @property
    def peak_rss_mib(self):
        return self.usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux


class Runner:
    """Spawns probe processes for one benchmark run, within its deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline

    def spawn(self, goldman_args, mode, label):
        side_path = os.path.join(self.workdir, "side.json")
        out_path = os.path.join(self.workdir, "report.out")
        err_path = os.path.join(self.workdir, "stderr.out")
        if os.path.exists(side_path):
            os.remove(side_path)
        cmd = [sys.executable, PROBE, "--side", side_path, "--mode", mode,
               "--label", label, "--"] + goldman_args
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            status, usage = self._reap(proc)
        with open(out_path, "rb") as fh:
            report = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        try:
            with open(side_path) as fh:
                side = json.load(fh)
        except (OSError, ValueError):
            side = {}
        if not side.get("t_first"):
            raise BenchError("%s probe (status %s) never reached a certification "
                             "call:\n%s" % (mode, status, stderr[-2000:]))
        if mode != "setup" and "t_end" not in side:
            raise BenchError("%s probe (status %s) did not finish:\n%s"
                             % (mode, status, stderr[-2000:]))
        return Sample(spawned, side, status, usage, report, stderr)

    def _reap(self, proc):
        """Wait for proc; returns (exit status, its resource usage).

        The wait blocks: a polling parent would wake the other core about
        a hundred times a second, which slows the measured process.
        """
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        if time.monotonic() > self.deadline:
            raise BenchError("run exceeded its %.0f s deadline" % RUN_DEADLINE)
        return proc.returncode, usage


def corrupt(report):
    """A deliberately wrong report: the first certified verdict refuted."""
    return report.replace(b'"verdict": "certified"', b'"verdict": "refuted"', 1)


def machine_record():
    record = {"nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "platform": platform.platform(),
              "commit": None, "dirty": None}
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            record["commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True).stdout.strip()
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True,
                text=True, check=True).stdout
            record["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return record


def measure(workload, seed, seconds, trace, box, broken=False):
    """Run one workload; returns the result dict (see the module doc)."""
    if not os.path.exists(os.path.join(ROOT, "src", "goldman", "cli.py")):
        raise BenchError("no goldman sources under %s" % os.path.join(ROOT, "src"))
    try:
        workload.prepare(ROOT)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot prepare %s: %s" % (workload.name, exc))
    box = workload.box if box is None else box
    args = workload.argv(seed, box)
    label = workload.name
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE)
        # Warm-up: compiles bytecode and fills the page cache; not recorded.
        runner.spawn(args, "setup", label)
        setups = []
        if not trace:
            setups = [runner.spawn(args, "setup", label) for _ in range(SETUP_SAMPLES)]
        runs = []
        started = time.monotonic()
        while not runs or (not trace and time.monotonic() - started < seconds):
            runs.append(runner.spawn(args, "full", label))
        traced = runner.spawn(args, "trace", label) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    problems = []
    for i, sample in enumerate(runs + ([traced] if traced else [])):
        report = corrupt(sample.report) if broken else sample.report
        units, bad, why = workload.gate(report, sample.status, seed, box)
        if sample.report != runs[0].report:
            bad = units
            why = why + ["report bytes differ from the first run's"]
        attempted += units
        failed += bad
        problems.extend("run %d: %s" % (i, w) for w in why)

    if trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in traced.side["metrics"].items()}
        untraced = runs[0]
        metrics["cli.cpu_s"] = {"value": untraced.cpu_s, "unit": "s"}
        metrics["cli.cpu_per_wall"] = {
            "value": untraced.cpu_s / (untraced.side["t_end"] - untraced.spawned),
            "unit": "ratio"}
        metrics["trace.overhead_ratio"] = {
            "value": traced.wall_s / untraced.wall_s, "unit": "ratio"}
        absent = traced.side["absent"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s.wall_s for s in runs), "unit": "s"},
            "setup_s": {"value": statistics.median(s.setup_s for s in setups + runs),
                        "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(s.peak_rss_mib for s in runs),
                             "unit": "MiB"},
        }
        absent = {}
    return {
        "workload": workload.name, "seed": seed, "box": box, "trace": int(trace),
        "command": ["goldman"] + args,
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": metrics, "absent": absent, "problems": problems,
        "runs": len(runs), "setup_samples": len(setups) + len(runs),
        "machine": machine_record(),
        "spans": traced.side["spans"] if traced else [],
    }


def save(result):
    """Write the full result and its spans under .bench_out/."""
    stem = os.path.join(OUT_DIR, "%s-seed%d-box%d-trace%d" % (
        result["workload"], result["seed"], result["box"], result["trace"]))
    spans = result.pop("spans")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    if spans:
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def print_result(result):
    print("== %s (seed %d, box %d, %s) ==" % (
        result["workload"], result["seed"], result["box"],
        "traced" if result["trace"] else "untraced"))
    print("  runs: %d, set-up samples: %d, units: %d attempted, %d failed"
          % (result["runs"], result["setup_samples"], result["attempted"],
             result["failed"]))
    for name, m in sorted(result["metrics"].items()):
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-48s %14.6g ratio" % ("fail_ratio", result["fail_ratio"]))
    for prefix, why in sorted(result["absent"].items()):
        print("  %-48s absent (%s)" % (prefix, why))
    for line in result["problems"][:40]:
        print("  FAILED %s" % line)
    m = result["machine"]
    print("  machine: nproc=%s python=%s platform=%s commit=%s dirty=%s"
          % (m["nproc"], m["python"], m["platform"], m["commit"], m["dirty"]))


def summary_line(result):
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]},
                      sort_keys=True)


def benchmark_metric_names():
    """The metric names BENCHMARK.json promises, by trace setting."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def self_test():
    """Run every workload at box 1 through this driver, then a corrupted one."""
    end_to_end, per_layer = benchmark_metric_names()
    expected_layer = {n for n, _ in metric_names()} | {n for n, _ in EXTRA_LAYER_METRICS}
    checks = []
    if per_layer != expected_layer:
        checks.append("BENCHMARK.json per_layer differs from the hooks: %s"
                      % sorted(per_layer ^ expected_layer))

    def invoke(*extra):
        cmd = [sys.executable, os.path.abspath(__file__), "--seconds", "0",
               "--box", "1"] + list(extra)
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        try:
            return proc.returncode, json.loads(lines[-1]), proc
        except (IndexError, ValueError):
            return proc.returncode, None, proc

    for name in WORKLOADS:
        for trace in ("0", "1"):
            status, line, proc = invoke("--workload", name, "--trace", trace)
            want = end_to_end if trace == "0" else per_layer
            if status != 0 or not line or not line["correct"]:
                checks.append("%s trace %s: status %d\n%s%s"
                              % (name, trace, status, proc.stdout, proc.stderr))
            elif set(line["metrics"]) != want:
                checks.append("%s trace %s: metrics differ from BENCHMARK.json: %s"
                              % (name, trace, sorted(set(line["metrics"]) ^ want)))
            print("self-test %s trace %s: %s" % (name, trace, "ok" if not checks else "FAILED"))
    for name in WORKLOADS:
        status, line, proc = invoke("--workload", name, "--corrupt")
        caught = (status not in (0, 2) and line is not None and not line["correct"]
                  and line["failed"] >= 1)
        if not caught:
            checks.append("%s: a corrupted report was not caught (status %d)\n%s"
                          % (name, status, proc.stdout))
        print("self-test %s corrupted report: %s" % (name, "caught" if caught else "MISSED"))
    for line in checks:
        print("FAILED " + line)
    return 1 if checks else 0


def main():
    parser = argparse.ArgumentParser(
        description="goldman benchmark: end-to-end and per-layer metrics")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--box", type=int, help="override the workload's box")
    parser.add_argument("--corrupt", action="store_true",
                        help="gate a deliberately corrupted report (self-test)")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.workload:
        parser.error("--workload or --self-test is required")
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = []
    try:
        for name in names:
            result = measure(WORKLOADS[name], opts.seed, opts.seconds,
                             bool(opts.trace), opts.box, opts.corrupt)
            save(result)
            print_result(result)
            results.append(result)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        print(summary_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(summary_line(r)) for r in results},
                         sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
