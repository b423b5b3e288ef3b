"""The tropgeom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition of the workload
runs in a fresh worker process (`worker.py`), one after another: one
closed-loop, single-threaded caller.  The seed fixes the order of the runs
within each repetition (another order for each), the `seed=` of the sampled
soundness check and the workers' PYTHONHASHSEED.

With --trace 0 the benchmark repeats the workload for about --seconds and
prints the end-to-end metrics, whose times are CPU times in reference
seconds (`speedclock.py`); with --trace 1 it runs the workload once
untraced and once traced, each followed by the tracer self-test runs, and
prints the per-layer metrics.  Every run's output is hashed and compared with `reference.json`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record, with the run
conditions, goes to `perfbench/out/`.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import METRICS as LAYER_METRICS  # noqa: E402

WORKLOADS = ("lemma-g0n5", "lemma-g1n3", "unimodular-g2n2", "moduli-g0n6")
# extra set-up-only processes per run, on top of each repetition's own set-up
SETUP_SAMPLES = 3
# repetitions stop by this many seconds into the run and every worker is
# killed 25 s after it, so a run always ends inside three minutes
HARD_LIMIT_S = 150.0


def by_label(reps):
    """Each run's times across repetitions: label -> [seconds]."""
    out = {}
    for rep in reps:
        for run in rep["runs"]:
            out.setdefault(run["label"], []).append(run["run_s"])
    return out


class WorkerFailed(Exception):
    pass


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line[len(prefix):].lstrip(" \t:").strip()
    except OSError:
        pass
    return None


def steal_s():
    """Time the host took the CPUs away from this machine, all CPUs summed."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tropgeom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.hash_seed = seed % 2**32
        self.env = dict(
            os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(self.hash_seed)
        )
        self.started = time.perf_counter()
        self.steal_at_start = steal_s()
        with open(HERE / "reference.json") as f:
            self.reference = json.load(f)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def worker(self, mode, trace=0, repetition=0):
        budget = HARD_LIMIT_S + 25 - (time.perf_counter() - self.started)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            self.workload, str(self.seed), mode, str(trace), str(repetition),
        ]
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode}: worker timed out") from exc
        if done.returncode != 0:
            raise WorkerFailed(f"{mode}: worker exited {done.returncode}\n{done.stderr}")
        try:
            return json.loads(done.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise WorkerFailed(f"{mode}: unreadable worker output {done.stdout[-200:]!r}") from exc

    def check(self, rep):
        """Count each run that raised, failed a check, or changed its output."""
        for run in rep["runs"]:
            self.attempted += 1
            if run["error"] or not run["passed"] or run["hash"] != self.reference.get(run["label"]):
                self.failed += 1
                self.problems.append(
                    f"{run['label']}: passed={run['passed']} "
                    f"hash={run['hash']} error={run['error']}"
                )

    def elapsed(self):
        return time.perf_counter() - self.started

    def end_to_end(self, seconds):
        self.worker("setup")  # unmeasured: fills the bytecode cache
        # repeat while another repetition, as long as the last one, still
        # ends inside the run
        reps, last = [], 0.0
        while not reps or self.elapsed() + last <= min(seconds, HARD_LIMIT_S):
            t0 = time.perf_counter()
            rep = self.worker("run", repetition=len(reps))
            last = time.perf_counter() - t0
            self.check(rep)
            reps.append(rep)
        setups = [r["setup_s"] for r in reps]
        setups += [self.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        runs = by_label(reps)
        # each run's median over the repetitions, which ran it at different
        # positions (see worker.py)
        run_times = [statistics.median(times) for times in runs.values()]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
            "run_p50_s": (nearest_rank(run_times, 0.5), "s"),
            "run_p90_s": (nearest_rank(run_times, 0.9), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
        detail = {
            # raw wall time includes host steal, so it is reported, not bounded
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "repetitions": len(reps),
            "setup_samples": setups,
            "runs": runs,
            # setup_s and cpu_s are reference CPU seconds, raw_* and wall_s
            # unscaled; probe_p50_s, the median probe CPU time, gives the
            # machine's speed during the repetition
            "per_repetition": [
                {k: r[k] for k in (
                    "setup_s", "cpu_s", "raw_setup_s", "raw_cpu_s", "wall_s",
                    "probes", "probe_p50_s", "runq_wait_s", "peak_rss_mb",
                )}
                for r in reps
            ],
        }
        return metrics, detail

    def traced(self):
        # both processes run the workload followed by the tracer self-test
        # runs, so the traced repetition enters every layer and its outputs
        # can be compared with the untraced ones
        plain = self.worker("check", 0)
        self.check(plain)
        rep = self.worker("check", 1)
        self.check(rep)
        if rep["uncalled"]:
            self.problems.append(f"traced run never reached {rep['uncalled']}")
        if [r["hash"] for r in plain["runs"]] != [r["hash"] for r in rep["runs"]]:
            self.problems.append("traced outputs differ from untraced ones")
        units = dict(LAYER_METRICS)
        metrics = {name: (rep["layers"][name], units[name]) for name, _ in LAYER_METRICS}
        metrics["trace.wall_s"] = (rep["wall_s"], "s")
        metrics["trace.overhead_s"] = (rep["wall_s"] - plain["wall_s"], "s")
        detail = {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": rep["wall_s"],
            "spans_file": rep["spans_file"],
            "runq_wait_s": [plain["runq_wait_s"], rep["runq_wait_s"]],
        }
        return metrics, detail

    def conditions(self):
        now = steal_s()
        return {
            "nproc": os.cpu_count(),
            "cpu_model": read_first("/proc/cpuinfo", "model name"),
            "python": sys.version.split()[0],
            "commit": commit(),
            "source_sha256": source_digest(),
            "hash_seed": self.hash_seed,
            "loadavg": read_first("/proc/loadavg", ""),
            "run_s": self.elapsed(),
            "host_steal_s": None if self.steal_at_start is None or now is None
            else now - self.steal_at_start,
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropgeom" / "__init__.py").is_file():
        print(f"error: no tropgeom sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics, detail = bench.traced()
        else:
            metrics, detail = bench.end_to_end(args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "conditions": bench.conditions(),
        "detail": detail,
        "failed_frac": bench.failed / bench.attempted,
        "problems": bench.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in bench.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    if "wall_s" in detail:
        print(f"{args.workload} wall_s {detail['wall_s']:.6g} s (raw, not bounded)")
    print(f"{args.workload} failed_frac {record['failed_frac']:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")
    print(f"conditions {json.dumps(record['conditions'], sort_keys=True)}")
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
