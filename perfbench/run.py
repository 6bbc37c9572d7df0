#!/usr/bin/env python3
"""Benchmark of verified outsourcing on BFV-encrypted data.

Run from the root of a checkout:

    python3 perfbench/run.py                    # every workload, one table
    python3 perfbench/run.py --workload pp-ride --seed 1 --seconds 50 --trace 0

One workload run sets up from cold caches at least ``SETUP_REPEATS`` times
and for at least ``SETUP_MIN_S`` seconds, at most ``SETUP_MAX_REPEATS``
times (the median is ``setup_s``), then runs verified jobs in a closed loop
until ``--seconds`` have passed, checking every answer against the
plaintext oracle.  Its last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

``--trace 0`` reports the end-to-end metrics (medians over the run's jobs):

- ``setup_s``: preset and prime search, NTT tables, HE keygen with every
  relinearization and rotation key the workload needs, serializing the
  public evaluation keys and loading them into the cloud backend, and lazy
  first-use work.
- ``job_s``: wall seconds per verified job, first ``*_auth`` call to verdict.
- ``client_s`` / ``cloud_s``: data-owner / evaluator seconds per job, less
  the time blocked in a receive.
- ``bytes_up`` / ``bytes_down``: serialized uploads plus client-sent frames /
  result containers plus cloud-sent frames, per job.
- ``eval_key_bytes``: the serialized public key set the cloud receives.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

``fail_ratio`` (failed jobs over attempted jobs) is carried by the
``attempted``/``failed`` fields and printed in the table.

``--trace 1`` spends half of ``--seconds`` on untraced jobs and half on
jobs traced at every layer boundary (see ``layers.py``), and reports the
per-layer metrics per traced job, the tracing overhead and how much of
``job_s`` the layers' self times cover.  Spans are written to
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import vhe  # noqa: E402

if not Path(vhe.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"vhe was imported from {vhe.__file__}, not from this checkout's src/")

import layers  # noqa: E402
import workloads as W  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

clock = time.perf_counter

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("client_s", "s"),
    ("cloud_s", "s"),
    ("bytes_up", "bytes"),
    ("bytes_down", "bytes"),
    ("eval_key_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)
LOOPBACK_NOTE = (
    "sessions ran over loopback TCP (127.0.0.1) or in-memory channels; "
    "no real network behaviour is claimed"
)


def run_jobs(workload, seconds: float, first: int = 0, tracer: Tracer | None = None) -> list:
    """Closed loop: start the next job only after the previous verdict, until
    `seconds` have passed (at least one job)."""
    jobs: list = []
    t0 = clock()
    while not jobs or clock() - t0 < seconds:
        index = first + len(jobs)
        if tracer is None:
            rec = workload.run_job(index)
            rec.result_cts = []  # kept only for the traced run's noise check
        else:
            tracer.job_id = index
            with tracer.span("bench.job"):
                rec = workload.run_job(index)
            tracer.job_id = -1
        jobs.append(rec)
    return jobs


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            return f"p{p} {q:.4g}"
    return "no tail percentile (under 10 samples beyond p75)"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name: str, seed: int, seconds: float):
    setups = []
    workload = None
    while len(setups) < W.SETUP_REPEATS or (
        sum(setups) < W.SETUP_MIN_S and len(setups) < W.SETUP_MAX_REPEATS
    ):
        workload = None  # let the previous set-up's keys go first
        gc.collect()
        workload = W.WORKLOADS[name]()
        W.clear_caches()
        t0 = clock()
        workload.setup(seed)
        setups.append(clock() - t0)
    jobs = run_jobs(workload, seconds)
    ok = [j for j in jobs if j.ok] or jobs
    samples = {
        "setup_s": setups,
        "job_s": [j.job_s for j in ok],
        "client_s": [j.client_s for j in ok],
        "cloud_s": [j.cloud_s for j in ok],
        "bytes_up": [j.bytes_up for j in ok],
        "bytes_down": [j.bytes_down for j in ok],
    }
    he = getattr(workload, "he", None)
    if he is not None:
        samples["eval_key_bytes"] = [he.eval_key_bytes]
    samples["peak_rss_mb"] = [peak_rss_mb()]
    units = dict(END_TO_END)
    if not workload.outsourced:  # no upload, wire or keys to report
        samples = {k: samples[k] for k in ("setup_s", "job_s", "peak_rss_mb")}
    metrics = {k: (statistics.median(v), units[k]) for k, v in samples.items()}
    detail = {k: {"n": len(v), "tail": tail(v)} for k, v in samples.items()}
    return workload, jobs, metrics, detail


def traced(name: str, seed: int, seconds: float):
    tracer = Tracer()
    targets = layers.targets()
    workload = W.WORKLOADS[name]()
    W.clear_caches()
    with tracer.installed(targets, layers.PATCHED_MODULES):
        workload.setup(seed)
    untraced_jobs = run_jobs(workload, seconds / 2)
    with tracer.installed(targets, layers.PATCHED_MODULES):
        traced_jobs = run_jobs(workload, seconds / 2, len(untraced_jobs), tracer)
    he = getattr(workload, "he", None)
    cts = [ct for j in traced_jobs if j.ok for ct in j.result_cts]
    noise = min((he.client.noise_budget(ct) for ct in cts), default=0.0) if he else 0.0
    table = SpanTable(tracer, range(len(untraced_jobs), len(untraced_jobs) + len(traced_jobs)))
    metrics = layers.per_layer_metrics(
        tracer, SpanTable(tracer, [-1]), table, traced_jobs, untraced_jobs, noise
    )
    if isinstance(workload, W.ReqLookup):
        metrics.update(layers.req_metrics(table, traced_jobs))
    if isinstance(workload, W.AttackSim):
        metrics.update(layers.attack_metrics(table, traced_jobs))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{name}-seed{seed}-spans.npz")
    detail = {"traced_jobs": len(traced_jobs), "untraced_jobs": len(untraced_jobs)}
    return workload, untraced_jobs + traced_jobs, metrics, detail


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(workload, seed: int, trace: bool) -> dict:
    params = getattr(workload, "params", None)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "preset": params.describe() if params is not None else None,
        "threads": workload.threads,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "note": LOOPBACK_NOTE,
    }


def run_one(args) -> int:
    measure = traced if args.trace else end_to_end
    workload, jobs, metrics, detail = measure(args.workload, args.seed, args.seconds)
    failed = [j for j in jobs if not j.ok]
    env = environment(workload, args.seed, bool(args.trace))
    report = {
        "environment": env,
        "detail": detail,
        "jobs": [
            {"job_s": j.job_s, "client_s": j.client_s, "cloud_s": j.cloud_s, "ok": j.ok,
             "error": j.error}
            for j in jobs
        ],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(json.dumps(env))
    for j in failed:
        print(f"failed job: {j.error}")
    for name, (value, unit) in metrics.items():
        extra = detail.get(name)
        note = f"  (n={extra['n']}, {extra['tail']})" if isinstance(extra, dict) else ""
        print(f"{name:40s} {value:16.6g} {unit}{note}")
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    status = 0
    rows = []
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        if proc.returncode or not result["correct"]:
            status = 1
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        print(f"{name}: {result['attempted']} job(s), {result['failed']} failed", flush=True)
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:40s} {value:16.6g} {unit}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *W.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
