"""The vortexre benchmark: one workload, one seed, one run.

    python3 vortexbench/run.py --workload certify|find|dynamics \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  The run issues jobs one after another through vortexre.cli.main
(closed loop, one client), checks every output against the benchmark's
own answers (pools.json from oracle.py, formulas from reference.py) and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 one round runs under tracing.py and the metrics are the
per-layer ones.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools pinned to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".vortexbench")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402

WORKLOADS = ("certify", "find", "dynamics")
SETUP_SAMPLES = 5        # fresh interpreters timed per run for setup_s
KEPT_BUDGET_S = 3.0      # wall budget of the four-weight certify attempt
# Four-weight vectors for the kept failure, one per round, fixed (never
# drawn from the seed) so every run attempts the same failing operation.
FOUR_WEIGHTS = ["1,2,3,4", "2,3,5,7", "1,3,4,9", "1,1,2,3", "3,4,5,6",
                "1,2,5,8", "2,5,6,9", "1,4,6,7", "3,5,8,9", "1,5,7,8",
                "2,3,7,9", "4,5,6,7"]


# This machine's speed swings by up to 2x over spells of a few seconds
# (shared cores), far beyond any bound a change could be held to.  So a
# run also times a fixed task that shares no code with vortexre: three
# times at every job boundary, and once every CAL_INTERVAL_S during a job,
# from a timer signal.  A job's wall time, less the time those in-job
# samples took, is scaled by CAL_REFERENCE_S / (mean of the samples taken
# around and during it): its seconds on a machine that runs the task in
# CAL_REFERENCE_S.  The unscaled medians are printed on the "raw" line.
CAL_REFERENCE_S = 0.004
CAL_SAMPLES = 3          # calibration timings per job boundary; their median counts
CAL_INTERVAL_S = 0.25


def _calibration_task():
    """Sparse polynomial product over Fractions with tuple monomials, then
    small numpy solves: the kinds of work vortexre's jobs are made of."""
    from fractions import Fraction

    import numpy as np

    p = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    q = {(i, (i + j) % 4, j): Fraction(2 * i - 3, j + 1) for i in range(6) for j in range(5)}
    a = np.arange(16.0).reshape(4, 4) + 6.0 * np.eye(4)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out.get(m, 0) + c1 * c2
        max(out, key=lambda m: (sum(m), m))
        for _ in range(60):
            d = a[:, None] - a[None, :]
            np.linalg.solve(a, np.sin(d).sum(axis=1)[0])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def boundary_calibration():
    return statistics.median(_calibration_task() for _ in range(CAL_SAMPLES))


class Calibrated:
    """Runs jobs with calibration samples around and during them."""

    def __init__(self):
        self.before = boundary_calibration()
        self.during = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.during.append(_calibration_task())
        self.spent += time.perf_counter() - t0

    def restart(self):
        self.before = boundary_calibration()

    def run(self, fn):
        """(wall seconds less in-job sampling, scaled seconds, fn's result)."""
        self.during, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        after = boundary_calibration()
        seconds = elapsed - self.spent
        samples = [self.before, after] + self.during
        self.before = after
        return seconds, seconds * CAL_REFERENCE_S / statistics.fmean(samples), result


@dataclass
class Job:
    metric: str          # the end-to-end metric its time feeds
    argv: list
    check: object        # callable(stdout, files) -> list of problems
    files: list = field(default_factory=list)


# -- inputs ---------------------------------------------------------------------

def _fmt(values):
    return ",".join(repr(v) for v in values)


def _weights(rng, base):
    c = round(rng.uniform(1.0, 3.0), 4)
    return [round(c * m, 6) for m in base]


def _interleave(*classes):
    """Spread the job classes evenly over a round, so a slow spell of the
    machine hits every class alike."""
    keyed = [((k + 0.5) / len(jobs), c, job)
             for c, jobs in enumerate(classes) for k, job in enumerate(jobs)]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


def _certify_job(entry):
    return Job("n3_job_s", ["certify", "--mu=" + _fmt(entry["mu"]), "--format", "json"],
               lambda out, _: checks.check_certify(json.loads(out), entry["mu"],
                                                   entry["real"]))


def _build_job(entry, metric):
    return Job(metric, ["build-system", "--mu=" + _fmt(entry["mu"]), "--format", "json"],
               lambda out, _: checks.check_build(json.loads(out), entry["mu"],
                                                 entry["point"]))


def certify_rounds(seed, pools):
    rng = random.Random(f"certify:{seed}")
    release = pools["certify_n3"][:4]
    n3 = pools["certify_n3"][4:]
    b4, b5 = list(pools["build_n4"]), list(pools["build_n5"])
    for pool in (n3, b4, b5):
        rng.shuffle(pool)
    for r in range(len(FOUR_WEIGHTS)):
        # round r: 12 certify at N=3 (the release vectors lead round 0),
        # 6 builds at N=4 and 6 at N=5, each pool consumed without repeats
        start = 12 * r - (4 if r else 0)
        cert = (release if r == 0 else []) + n3[start:12 * (r + 1) - 4]
        builds4 = b4[6 * r:6 * (r + 1)]
        builds5 = b5[6 * r:6 * (r + 1)]
        if len(cert) < 12 or len(builds4) < 6 or len(builds5) < 6:
            return
        yield FOUR_WEIGHTS[r], _interleave([_certify_job(e) for e in cert],
                                           [_build_job(e, "mid_job_s") for e in builds4],
                                           [_build_job(e, "large_job_s") for e in builds5])


def find_rounds(seed, pools):
    rng = random.Random(f"find:{seed}")
    seen = set()
    for _ in range(20):
        jobs = []
        for n, metric in ((3, "n3_job_s"), (4, "mid_job_s"), (5, "large_job_s")):
            entry = pools["find"][str(n)]
            mu = _weights(rng, entry["base"])
            if tuple(mu) in seen:
                return
            seen.add(tuple(mu))
            jobs.append(Job(metric, ["find", "--mu=" + _fmt(mu), "--format", "json"],
                            lambda out, _, mu=mu, want=entry["count"]:
                            checks.check_find(json.loads(out), mu, want)))
        yield None, jobs


def _schedule_length(eps, step):
    # the CLI walks eps = step, 2*step, ... below eps - 1e-12, then eps itself
    k = 1
    while step * k < eps - 1e-12:
        k += 1
    return k


def dynamics_rounds(seed, pools):
    rng = random.Random(f"dynamics:{seed}")
    starts = list(pools["continue_n3"])
    rng.shuffle(starts)
    work = os.path.join(OUT, "work")
    for r in range(20):
        small, large, sims = [], [], []
        for k in range(30):
            entry = starts[(30 * r + k) % len(starts)]
            step = round(rng.uniform(3e-4, 5e-4), 7)
            eps = round(60 * step, 7)
            small.append(Job(
                "n3_job_s", ["continue", "--mu=" + _fmt(entry["mu"]),
                       "--start-angles=" + _fmt(entry["angles"]),
                       "--eps", repr(eps), "--step", repr(step), "--format", "json"],
                lambda out, _, e=entry, n=_schedule_length(eps, step):
                checks.check_continue(json.loads(out), e["mu"], e["angles"], n)))
        # One step size for every polygon, and weights of at least 1 (Newton
        # needs 2 iterations a step at weight 0.5 but 3 from weight 1 up),
        # so the median job, which sits between sizes, does not move with
        # the draw.
        for n in (8, 9, 10, 11, 12) * 3:
            c = round(rng.uniform(1.0, 2.0), 4)
            step = 8e-4
            eps = round(30 * step, 7)
            angles = [2.0 * math.pi * k / n for k in range(n)]
            large.append(Job(
                "large_job_s", ["continue", "--polygon", str(n), "--mu", repr(c),
                          "--eps", repr(eps), "--step", repr(step), "--format", "json"],
                lambda out, _, c=c, n=n, a=angles, m=_schedule_length(eps, step):
                checks.check_continue(json.loads(out), [c] * n, a, m, polygon=True)))
        for k in range(20):
            n = 4 + k % 3
            c = round(rng.uniform(0.5, 2.0), 4)
            eps = round(rng.uniform(0.02, 0.08), 5)
            path = os.path.join(work, f"sim{r}_{k}.csv")
            circ = [1.0] + [eps * c] * n
            sims.append(Job(
                "mid_job_s", ["simulate", "--polygon", str(n), "--mu", repr(c),
                        "--eps", repr(eps), "--periods", "3", "--out", path],
                lambda out, files, circ=circ: checks.check_simulate(files[0], circ),
                files=[path]))
        yield None, _interleave(small, sims, large)


ROUNDS = {"certify": certify_rounds, "find": find_rounds, "dynamics": dynamics_rounds}


# -- measurement ----------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds():
    """Interpreter start until vortexre.cli is imported, in a fresh process.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    Import work is page faults, file reads and unmarshalling, which the
    calibration task does not follow, so this stays unscaled wall time.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "import time, vortexre.cli; print(repr(time.perf_counter()))"],
        env=_child_env(), capture_output=True, text=True, check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def kept_failure(weights):
    """certify with four weights in a separate interpreter, killed at the
    budget.  True when it answered in time and the answer passed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "vortexre.cli", "certify", "--mu=" + weights,
         "--format", "json"],
        env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, _ = proc.communicate(timeout=KEPT_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return False
    if proc.returncode != 0:
        return False
    payload = json.loads(out)
    real = payload.get("real_distinct")
    return not checks.check_certify(payload, [int(w) for w in weights.split(",")], real)


def run_job(cli, job, clock):
    """(exit code, wall seconds, scaled seconds, stdout, stderr) of one job."""
    buf = io.StringIO()
    err = io.StringIO()

    def call():
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            return cli.main(job.argv)

    if clock is None:
        t0 = time.perf_counter()
        rc = call()
        seconds = scaled = time.perf_counter() - t0
    else:
        seconds, scaled, rc = clock.run(call)
    return rc, seconds, scaled, buf.getvalue(), err.getvalue()


def environment():
    import numpy
    import scipy

    import vortexre

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": vortexre.backend_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="vortexre benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vortexre", "cli.py")):
        print(f"error: no vortexre sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "pools.json"), encoding="utf-8") as fh:
        pools = json.load(fh)
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)

    setup = [setup_seconds() for _ in range(0 if args.trace else SETUP_SAMPLES)]

    import vortexre.cli as cli

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    job_metrics = ("n3_job_s", "mid_job_s", "large_job_s")
    times = {name: [] for name in job_metrics}
    raw = {name: [] for name in job_metrics}
    clock = None if tracer else Calibrated()
    attempted = failed = 0
    problems = []
    # Whole rounds only, so the kept failure is the same share of every
    # run; another round starts only if one more of the last round's
    # length still fits.  A traced run makes exactly one round, so its
    # counts repeat.
    start = time.perf_counter()
    last_round = 0.0
    rounds = 0
    for kept, jobs in ROUNDS[args.workload](args.seed, pools):
        if rounds and (tracer is not None or
                       time.perf_counter() - start + last_round > args.seconds):
            break
        rounds += 1
        round_start = time.perf_counter()
        if kept is not None:
            attempted += 1
            if not kept_failure(kept):
                failed += 1
            if clock is not None:
                clock.restart()
        for job in jobs:
            attempted += 1
            if tracer is not None:
                span = tracer.begin("job." + job.metric)
            rc, seconds, scaled, out, err = run_job(cli, job, clock)
            if tracer is not None:
                tracer.end(span)
            if rc != 0:
                failed += 1
                print(f"job failed (exit {rc}): {' '.join(job.argv)}\n{err}",
                      file=sys.stderr)
                continue
            times[job.metric].append(scaled)
            raw[job.metric].append(seconds)
            files = []
            for path in job.files:
                with open(path, encoding="utf-8") as fh:
                    files.append(fh.read())
                os.remove(path)
            found = job.check(out, files)
            if found:
                problems += found
                print("wrong output: " + "; ".join(found), file=sys.stderr)
        last_round = time.perf_counter() - round_start

    shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)
    if tracer is not None:
        import layers

        metrics = layers.metrics(tracer)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                       "accounting": layers.accounting(tracer),
                       **tracer.dump()}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        if not all(times.values()):
            print("error: a job class produced no timing", file=sys.stderr)
            return 1
        print("raw " + json.dumps({"setup_s": statistics.median(setup),
                                   **{k: statistics.median(v) for k, v in raw.items()}}),
              flush=True)
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   **{k: {"value": statistics.median(v), "unit": "s"}
                      for k, v in times.items()}}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
