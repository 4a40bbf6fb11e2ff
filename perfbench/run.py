"""nearsq benchmark: one workload per process, timed end to end or traced per layer.

    python3 perfbench/run.py --workload dense-count --seed 2024 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's own ``src/``; without it the run exits with code 2 and prints
no result.  A run repeats the workload's fixed job (its list of
operations) until the next job would end after ``--seconds``, always
completing at least one job, or one untraced and one traced job with
``--trace 1``.  Before each job the set-up (import and input draws) is
timed twice more on a fresh copy of the workload; ``setup_s`` is the
median of all these set-ups.  Every output is checked after its job,
outside the timed region.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (environment, tail percentiles, working set, failures).  With
``--trace 1`` the spans are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from tracing import NullTracer, Tracer, self_times, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2024
HELDOUT_SEED = 7919  # claims of a speed-up must also hold on this seed
SETUPS_PER_JOB = 2  # set-ups timed before each job, so the median spans the whole run

# every span name a workload may open, in report order
LAYERS = (
    "experiments.count_near_squares",
    "experiments.almost_prime_count",
    "experiments.weighted_sum",
    "experiments.sifting_function",
    "experiments.sieve_decomposition",
    "experiments.normalized_residual",
    "arith.build_prime_table",
    "sievefn.lower_closed",
    "sievefn.table_lower",
    "sievefn.build_sieve_table",
    "sievefn.mertens_product",
    "constants.weighted_sieve_constant",
    "constants.sieve_lower_constant",
    "expsum.bilinear_sum_check",
    "expsum.quadruple_count",
    "expsum.pair_count",
    "cli.main",
)
WORK_RATE_NAMES = {"pairs": "pairs_per_s", "evaluations": "evals_per_s", "terms": "terms_per_s"}


@dataclass
class Job:
    seconds: float
    traced: bool
    op_seconds: list[float]
    work: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    rss_mib: float = 0.0  # peak resident set once the operations ran, before any check


def run_job(ops, tr, state: dict, first_op: int) -> Job:
    """One pass over the operation list; checks run after the clock stops."""
    outputs = []
    op_seconds = []
    t0 = time.perf_counter()
    with tr.span("job"):
        for i, op in enumerate(ops):
            tr.op = first_op + i
            s = time.perf_counter()
            try:
                with tr.span("op." + op.kind):
                    outputs.append((op.run(tr, state), None))
            except Exception as exc:  # a failed operation is counted, the run goes on
                outputs.append((None, f"{op.kind} raised {type(exc).__name__}: {exc}"))
            op_seconds.append(time.perf_counter() - s)
    job = Job(time.perf_counter() - t0, tr.enabled, op_seconds, attempted=len(ops),
              rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    for op, (out, error) in zip(ops, outputs):
        try:
            problems = [error] if error else op.check(out)
        except Exception as exc:
            problems = [f"{op.kind} check raised {type(exc).__name__}: {exc}"]
        if problems:
            job.failed += 1
            job.failures += problems
        else:
            job.work += op.work(out)
    return job


def run_jobs(wl, seconds: float, trace: bool, tracer, before_job) -> list[Job]:
    """Repeat the job until the next one would overrun; alternate untraced/traced when tracing.

    ``before_job()`` runs ahead of every job, outside its timing.
    """
    null = NullTracer()
    ops = wl.ops()
    jobs: list[Job] = []
    state: dict = {}
    start = time.perf_counter()
    while True:
        before_job()
        traced = trace and len(jobs) % 2 == 1
        jobs.append(run_job(ops, tracer if traced else null, state, len(jobs) * len(ops)))
        elapsed = time.perf_counter() - start
        longest = max(j.seconds for j in jobs)
        if len(jobs) >= (2 if trace else 1) and elapsed + longest > seconds:
            return jobs


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(jobs: list[Job], setup_s: float) -> dict:
    times = [j.seconds for j in jobs]
    return {
        "setup_s": setup_s,
        "job_s": statistics.median(times),
        "work_per_s": statistics.median(_ratio(j.work, j.seconds) for j in jobs),
        # the first job's reading: the references that checks build come later
        "peak_rss_mib": jobs[0].rss_mib,
    }


def per_layer(tracer, setup_tracers, jobs: list[Job], extras: dict) -> dict:
    """Per-job layer metrics from the traced jobs' spans, and the tracing overhead."""
    traced = [j for j in jobs if j.traced]
    untraced = [j for j in jobs if not j.traced]
    n = len(traced)
    job_total = sum(j.seconds for j in traced)
    selfs = self_times(tracer.spans)
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    durations = defaultdict(list)
    harness = 0.0
    for s in tracer.spans:
        if s.name == "job" or s.name.startswith("op."):
            harness += selfs[s.id]
            continue
        busy[s.name] += s.duration
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
        durations[s.name].append(s.duration)
        for key, v in s.counts.items():
            counts[s.name][key] = max(counts[s.name][key], v) if key == "limit" else counts[s.name][key] + v

    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer] / n
        m[f"{layer}.self_share"] = _ratio(own[layer], job_total)
    m["harness.self_share"] = _ratio(harness, job_total)

    cnt = counts["experiments.count_near_squares"]
    count_busy = busy["experiments.count_near_squares"]
    m["experiments.count_near_squares.pairs"] = cnt["pairs"] / n
    m["experiments.count_near_squares.pairs_per_s"] = _ratio(cnt["pairs"], count_busy)
    m["experiments.count_near_squares.exact_fallbacks"] = cnt["exact_fallbacks"] / n
    m["experiments.count_near_squares.fallback_ratio"] = _ratio(cnt["exact_fallbacks"], cnt["pairs"])
    m["experiments.count_near_squares.hit_ratio"] = _ratio(cnt["hits"], cnt["pairs"])
    # certified pairs/s over floor pairs/s, on the same instances
    m["experiments.count_near_squares.floor_ratio"] = _ratio(extras.get("floor_s", 0.0), count_busy / n)
    for layer in ("experiments.almost_prime_count", "experiments.weighted_sum"):
        m[f"{layer}.values_per_s"] = _ratio(counts[layer]["values"], busy[layer])
    m["experiments.almost_prime_count.values"] = counts["experiments.almost_prime_count"]["values"] / n
    m["experiments.generate_subset.busy_s"] = statistics.median(
        sum(s.duration for s in t.spans) for t in setup_tracers
    )
    m["arith.build_prime_table.limit"] = counts["arith.build_prime_table"]["limit"]
    m["sievefn.lower_closed.calls"] = calls["sievefn.lower_closed"] / n
    wsc = "constants.weighted_sieve_constant"
    m[f"{wsc}.calls"] = calls[wsc] / n
    m[f"{wsc}.call_p50_ms"] = 1e3 * statistics.median(durations[wsc]) if durations[wsc] else 0.0
    wsc_tail = tail(durations[wsc])
    m[f"{wsc}.call_tail_ms"] = 1e3 * wsc_tail[1] if wsc_tail else 0.0
    bil = "expsum.bilinear_sum_check"
    m[f"{bil}.terms"] = counts[bil]["terms"] / n
    m[f"{bil}.terms_per_s"] = _ratio(counts[bil]["terms"], busy[bil])
    cli_calls = durations["cli.main"]
    m["cli.overhead_s"] = (
        statistics.median(cli_calls) - extras["cli_library_s"] if cli_calls and "cli_library_s" in extras else 0.0
    )
    m["trace.overhead_ratio"] = statistics.median(j.seconds for j in traced) / statistics.median(
        j.seconds for j in untraced
    )
    return m


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(root / ".git" / ref)
    if direct:
        return direct
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def write_spans(tracer, workload: str, seed: int) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps([s.__dict__ for s in tracer.spans]))
    return path


def import_nearsq() -> float:
    """Import the package afresh (numpy stays loaded) and return the seconds it took."""
    for name in [m for m in sys.modules if m == "nearsq" or m.startswith("nearsq.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("nearsq")
    importlib.import_module("nearsq.cli")
    return time.perf_counter() - t0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one process, no extra threads, set before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    numpy_import_s = time.perf_counter() - t0
    try:
        import_nearsq()
    except ImportError as exc:
        print(f"error: cannot import nearsq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    nearsq = sys.modules["nearsq"]
    if not Path(nearsq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: nearsq was imported from {nearsq.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    template = workloads.WORKLOADS[args.workload]()
    setup_times, setup_tracers = [], []

    def set_up():
        """One set-up, timed: the package imported afresh and every input drawn, into a fresh workload."""
        wl = copy.deepcopy(template)
        tr = Tracer() if args.trace else NullTracer()
        import_s = import_nearsq()
        s = time.perf_counter()
        wl.setup(args.seed, tr)
        setup_times.append(import_s + time.perf_counter() - s)
        setup_tracers.append(tr)
        return wl

    def more_setups():
        for _ in range(SETUPS_PER_JOB):
            set_up()

    wl = set_up()
    tracer = Tracer()
    jobs = run_jobs(wl, args.seconds, bool(args.trace), tracer, more_setups)
    setup_s = statistics.median(setup_times)
    extras = wl.traced_extras() if args.trace else {}

    if args.trace:
        metrics = per_layer(tracer, setup_tracers, jobs, extras)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(jobs, setup_s)
        declared = spec["end_to_end"]
    if set(metrics) != {d["name"] for d in declared}:
        print(f"error: metrics {sorted(set(metrics) ^ {d['name'] for d in declared})} "
              f"disagree with {spec_path.name}", file=sys.stderr)
        return 2

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    op_times = [t for j in jobs for t in j.op_seconds]
    op_tail = tail(op_times)
    work_rate = statistics.median(_ratio(j.work, j.seconds) for j in jobs)
    detail = {
        "workload": wl.name,
        "environment": environment(args.seed),
        "numpy_import_s": numpy_import_s,
        "jobs": len(jobs),
        "traced_jobs": sum(j.traced for j in jobs),
        "ops_per_job": len(wl.ops()),
        "fail_ratio": failed / attempted,
        WORK_RATE_NAMES[wl.work_unit]: work_rate,
        "op_p50_s": statistics.median(op_times),
        "op_tail": (
            {"percentile": op_tail[0], "value_s": op_tail[1], "samples": op_tail[2]}
            if op_tail else {"percentile": None, "samples": len(op_times)}
        ),
        "working_set_bytes_computed": wl.working_set(),
        "failures": [f for j in jobs for f in j.failures][:20],
    }
    if args.trace:
        detail["extras"] = extras
        detail["spans_file"] = str(write_spans(tracer, wl.name, args.seed).relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    units = {d["name"]: d["unit"] for d in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
