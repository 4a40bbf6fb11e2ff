"""Tests of the benchmark itself: its checks catch wrong answers, its statistics are right.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer, self_times, tail  # noqa: E402


def small(name):
    """The workload at sizes that run in about a second."""
    return {
        "dense-count": lambda: workloads.DenseCount(N=300, cli_N=200),
        "sparse-roots": lambda: workloads.SparseRoots(N=10**6, size=200),  # as sparse as the workload
        "analytic-scan": lambda: workloads.AnalyticScan(c4_points=3, c5_points=2, u_points=3, mertens_z=1000),
        "expsum-bounds": lambda: workloads.ExpsumBounds(bilinear=[], pair_sets=3),
    }[name]()


def one_job(wl, seed=5):
    wl.setup(seed, NullTracer())
    return run.run_job(wl.ops(), NullTracer(), {}, 0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks(name):
    job = one_job(small(name))
    assert job.failed == 0, job.failures
    assert job.attempted == len(job.op_seconds) > 0


def _fail_ratio(job):
    return job.failed / job.attempted


def test_corrupted_count_raises_fail_ratio(monkeypatch):
    real = workloads.count_near_squares

    def shifted(A, B, delta):
        nsc = real(A, B, delta)
        nsc.multiplicities[:] = nsc.multiplicities[::-1].copy()  # right total, wrong roots
        return nsc

    monkeypatch.setattr(workloads, "count_near_squares", shifted)
    job = one_job(small("dense-count"))
    assert _fail_ratio(job) >= 4 / 5  # every experiment; the CLI keeps the real counter
    assert any("differ from the reference count" in f for f in job.failures)


def test_one_dropped_pair_in_a_sparse_count_fails(monkeypatch):
    real = workloads.count_near_squares

    def dropped(A, B, delta):
        nsc = real(A, B, delta)
        i = int(np.nonzero(nsc.multiplicities)[0][-1])
        nsc.multiplicities[i] -= 1  # H and the distinct count stay consistent with the vector
        nsc.H_count -= 1
        nsc.distinct_count = int(np.count_nonzero(nsc.multiplicities))
        return nsc

    monkeypatch.setattr(workloads, "count_near_squares", dropped)
    job = one_job(small("sparse-roots"))
    assert _fail_ratio(job) == 1.0
    assert sum("differ from the reference count at 1 roots" in f for f in job.failures) == job.attempted


@pytest.mark.parametrize(
    "target, corrupt",
    [
        ("almost_prime_count", lambda r: replace(r, multiset_count=r.multiset_count + 1)),
        ("weighted_sum", lambda r: r + 1),
        ("sifting_function", lambda r: r - 1),
    ],
)
def test_corrupted_root_analysis_raises_fail_ratio(monkeypatch, target, corrupt):
    real = getattr(workloads, target)
    monkeypatch.setattr(workloads, target, lambda *a, **k: corrupt(real(*a, **k)))
    assert _fail_ratio(one_job(small("sparse-roots"))) == 1.0


def test_corrupted_constant_raises_fail_ratio(monkeypatch):
    real = workloads.weighted_sieve_constant
    monkeypatch.setattr(
        workloads, "weighted_sieve_constant",
        lambda d, k, tol: replace(real(d, k, tol=tol), value_unsimplified=real(d, k, tol=tol).value_unsimplified + 1e-7),
    )
    job = one_job(small("analytic-scan"))
    assert job.failed == 5  # the 3 + 2 constants, nothing else


def test_corrupted_bilinear_and_raising_ops_count_as_failed(monkeypatch):
    real = workloads.bilinear_sum_check
    monkeypatch.setattr(
        workloads, "bilinear_sum_check",
        lambda *a, **k: replace(real(*a, **k), measured_value=real(*a, **k).measured_value * 1.01),
    )

    def broken(*a, **k):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(workloads, "quadruple_count", broken)
    job = one_job(small("expsum-bounds"))
    assert job.failed == 4 + 4  # the bilinear sweep and the quadruple sweep
    assert any("ZeroDivisionError" in f for f in job.failures)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = small("dense-count")
    wl.setup(5, NullTracer())
    tracer = Tracer()
    jobs = run.run_jobs(wl, 0.0, True, tracer, lambda: None)
    layer = run.per_layer(tracer, [Tracer()], jobs, wl.traced_extras())
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert set(run.end_to_end(jobs, 0.1)) == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    shares = [v for k, v in layer.items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-3)  # the rest is outside the root span


def test_self_times_subtract_children():
    tr = Tracer()
    with tr.span("job"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    job, a, b = tr.spans
    selfs = self_times(tr.spans)
    assert a.parent == b.parent == job.id
    assert selfs[job.id] == pytest.approx(job.duration - a.duration - b.duration)
    assert selfs[a.id] == a.duration


def test_tail_is_the_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail([float(x) for x in range(1, 21)]) == (50.0, 10.0, 20)
    pct, value, n = tail([float(x) for x in range(1000)])
    assert (pct, value, n) == (99.0, 989.0, 1000)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "expsum-bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
