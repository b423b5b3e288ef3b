"""One repetition of a benchmark workload, in a fresh Python process.

    python3 perfbench/worker.py WORKLOAD SEED MODE TRACE REPETITION

MODE is `setup` (import and build the bases only), `run` (set up, then
time each of the workload's runs) or `check` (as `run`, followed by the
tracer self-test runs).  TRACE is 0 or 1; with 1 the tracer wraps
every layer before set-up.  The seed and the REPETITION number fix the
order in which the runs are issued.  The worker prints one JSON object on
stdout.
`run.py` starts it with `src/` on PYTHONPATH and PYTHONHASHSEED pinned.

Each repetition needs its own process because the library keeps module level
caches (`exactgeom._cone_cache`, `_intersect_cache`,
`curves._enumeration_cache`) for the life of the process: repeating inside
one process would time warm caches.

In the end-to-end modes (`setup` and `run`) the set-up and run times are
CPU times in reference seconds, read from a `SpeedClock` started first
thing (see `speedclock.py`); the raw times go into the output beside them.
`check` times raw wall time.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

from speedclock import SpeedClock  # noqa: E402

CLOCK = None
if sys.argv[3:4] != ["check"]:
    CLOCK = SpeedClock()
    CLOCK.start()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from itertools import combinations_with_replacement  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def now():
    """Reference CPU seconds when the speed clock runs, else wall seconds."""
    return time.perf_counter() if CLOCK is None else CLOCK.now()


def runq_wait_s():
    """Time this process has spent runnable but waiting for a CPU."""
    try:
        with open("/proc/self/schedstat") as f:
            return int(f.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return None


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# contact data, as the acceptance suite enumerates it


def _partitions(d):
    if d == 0:
        return [()]
    out = []

    def rec(rest, most, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, most), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(d, d, [])
    return out


def contact_vectors(n, max_degree):
    """Contact vectors up to marking permutation, total degree bounded."""
    seen = []
    for d in range(max_degree + 1):
        if d == 0:
            seen.append((0,) * n)
            continue
        for pos in _partitions(d):
            for neg in _partitions(d):
                if len(pos) + len(neg) > n:
                    continue
                vec = (
                    tuple(sorted(pos, reverse=True))
                    + (0,) * (n - len(pos) - len(neg))
                    + tuple(sorted((-x for x in neg), reverse=True))
                )
                if vec not in seen:
                    seen.append(vec)
    return seen


def _degree(a):
    return sum(x for x in a if x > 0)


# ---------------------------------------------------------------------------
# workloads: each builds its bases from the seed and returns its runs; a run
# is (label, thunk) and a thunk returns (passed, deterministic output)


def _report(report):
    return report.all_passed, report.to_json()


def lemma_sweep(g, n):
    """Criterion 2's sweep on one moduli space: every single-factor vector of
    contact degree at most 3, and every unordered pair of total degree at most
    3, all over one prebuilt base."""

    def make(seed):
        from tropgeom.curves import build_moduli_complex
        from tropgeom.pipeline import product_run, single_factor_run

        base = build_moduli_complex(g, n)
        vectors = contact_vectors(n, 3)
        runs = [
            (f"single {g} {n} {list(a)}",
             lambda a=a: _report(single_factor_run(g, n, a, seed=seed, base=base)))
            for a in vectors
        ]
        runs += [
            (f"product {g} {n} {list(a1)} {list(a2)}",
             lambda a1=a1, a2=a2: _report(
                 product_run(g, n, a1, a2, seed=seed, base=base)))
            for a1, a2 in combinations_with_replacement(vectors, 2)
            if _degree(a1) + _degree(a2) <= 3
        ]
        return runs

    return make


def unimodular_g2n2(seed):
    """The paper's worked example at full scale, then the unimodularized
    single-factor runs on M_{1,3}."""
    from tropgeom.curves import build_moduli_complex
    from tropgeom.pipeline import single_factor_run

    b22 = build_moduli_complex(2, 2, 3)
    b13 = build_moduli_complex(1, 3)
    runs = [
        ("single 2 2 [3, -3] unimodular max_edges=3",
         lambda: _report(single_factor_run(
             2, 2, (3, -3), unimodularize=True, seed=seed, base=b22, max_edges=3)))
    ]
    runs += [
        (f"single 1 3 {list(a)} unimodular",
         lambda a=a: _report(single_factor_run(
             1, 3, a, unimodularize=True, seed=seed, base=b13)))
        for a in contact_vectors(3, 3)
    ]
    return runs


def moduli_g0n6(seed):
    """Build M_{0,6} from a cold process: the measured work is the build."""
    import tropgeom  # noqa: F401  (set-up is the import alone)

    def build():
        from tropgeom.curves import build_moduli_complex

        built = build_moduli_complex(0, 6)
        data = built.complex.to_json()
        data["graphs"] = {cid: built.graphs[cid].to_json() for cid in built.complex.ids()}
        return len(data["cones"]) == 236, data

    return [("moduli-complex 0 6", build)]


def selftest(seed):
    """The tracer self-test input: small runs that together reach every
    wrapped function."""
    from tropgeom.pipeline import product_run, single_factor_run

    return [
        ("product 1 2 [1, -1] [1, -1]",
         lambda: _report(product_run(1, 2, (1, -1), (1, -1), seed=seed))),
        ("single 1 2 [3, -3] unimodular",
         lambda: _report(single_factor_run(1, 2, (3, -3), unimodularize=True, seed=seed))),
    ]


WORKLOADS = {
    "lemma-g0n5": lemma_sweep(0, 5),
    "lemma-g1n3": lemma_sweep(1, 3),
    "unimodular-g2n2": unimodular_g2n2,
    "moduli-g0n6": moduli_g0n6,
}


# ---------------------------------------------------------------------------


def main(argv):
    workload, seed, mode, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    repetition = int(argv[4])
    tracer = None
    if trace:
        import tropgeom  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = WORKLOADS[workload](seed)
    # the speed clock starts at 0 just after T_START
    setup_s = now() - (T_START if CLOCK is None else 0.0)
    out = {"setup_s": setup_s, "raw_setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    # runs share the library's caches, so a run's time depends on how many
    # ran before it: repetitions come in pairs, the second running the
    # first's order backwards, so that over a pair every run sits at the
    # middle position on average
    random.Random(f"{seed}:{repetition // 2}").shuffle(runs)
    if repetition % 2:
        runs.reverse()
    if mode == "check":
        runs += selftest(seed)
    results = []
    probes0 = 0 if CLOCK is None else len(CLOCK.probes)
    q0, w0, c0, t_start = runq_wait_s(), time.perf_counter(), time.process_time(), now()
    for label, thunk in runs:
        t0 = now()
        try:
            passed, output = thunk()
            error = None
        except Exception:  # a run that raises is a failed run, not a crash
            passed, output, error = False, None, traceback.format_exc(limit=3)
        results.append((label, now() - t0, passed, output, error))
    t_end, w1, c1, q1 = now(), time.perf_counter(), time.process_time(), runq_wait_s()
    out.update(
        wall_s=w1 - w0,
        raw_cpu_s=c1 - c0,
        runq_wait_s=None if q0 is None or q1 is None else q1 - q0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        runs=[
            {
                "label": label,
                "run_s": run_s,
                "passed": passed,
                "hash": None if output is None else digest(output),
                "error": error,
            }
            for label, run_s, passed, output, error in results
        ],
    )
    if CLOCK is not None:
        CLOCK.stop()
        probes = sorted(CLOCK.probes[probes0:] or CLOCK.probes[-1:])
        out.update(
            cpu_s=t_end - t_start, probes=len(probes), probe_p50_s=probes[len(probes) // 2]
        )
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["uncalled"] = tracer.uncalled()
        OUT_DIR.mkdir(exist_ok=True)
        out["spans_file"] = str(tracer.write_spans(OUT_DIR / f"spans-{workload}-{seed}.csv.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # an armed timer would kill the interpreter once it drops the handler
        if CLOCK is not None:
            CLOCK.stop()
    sys.exit(code)
