"""Amortized per-slot timing of homomorphic operations under each scheme.

Every row is the fastest of `repeats` samples of thread CPU time after one
warmup, on the real backend (noise only adds time); the rows are sampled
round-robin.  Amortization follows directly from each scheme's layout:

- baseline: one ciphertext operation serves all n slots;
- replication at λ: one operation on an extended ciphertext serves n/λ
  logical slots, so per-slot cost grows linearly in λ;
- polynomial encoding at degree d: linear gates touch all d+1 components and
  a product of degree d takes (d/2+1)(d/2+2)/2 backend products (Karatsuba)
  while the slot count stays n — per-slot cost is independent of λ.

Absolute numbers are hardware-dependent; only ratios and trends are stable.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .. import bfv
from ..circuit import ProgramBuilder
from ..errors import ParameterError
from ..params import preset
from ..pe import PeAuth, pe_eval
from .usecases import make_backend

BENCH_OPS = ("add", "mul_const", "rot", "relin", "mul")


@dataclass
class BenchRow:
    scheme: str
    op: str
    lam: int | None  # replication factor (None where layout ignores it)
    degree: int | None  # result degree for polynomial-encoding rows
    n: int
    slots: int  # logical slots one measured operation serves
    best_op_s: float
    per_slot_us: float
    repeats: int

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _time_best(fns, repeats: int, min_sample_s: float = 0.005) -> list[float]:
    """Per function, the fastest of `repeats` samples of thread CPU time per
    call.  Samples are taken round-robin, so a stretch of load on a shared
    machine slows one sample of every function, which the minimum drops."""
    inner = []
    for fn in fns:
        t0 = time.thread_time()
        fn()  # warmup: primes caches (NTT tables, extended basis) and sizes batches
        # fast operations run in batches, well above the clock's resolution
        inner.append(max(1, math.ceil(min_sample_s / max(time.thread_time() - t0, 1e-9))))
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.thread_time()
            for _ in range(inner[i]):
                fn()
            best[i] = min(best[i], (time.thread_time() - t0) / inner[i])
    return best


def _gate_program(n: int, op: str):
    b = ProgramBuilder(n, name=f"bench-{op}")
    x = b.input("x")
    if op == "add":
        out = b.add(x, b.input("y"))
    elif op == "mul_const":
        out = b.mul_plain(x, [3] * n)
    elif op == "rot":
        out = b.rotate(x, 1)
    elif op == "mul":
        out = b.mul(x, b.input("y"))
    else:
        raise ParameterError(f"no gate program for op {op!r}")
    return b.build(out, output_block=(0, 1))


def run_bench(
    preset_name: str = "mock1024",
    lams=(16, 32, 64),
    degrees=(2, 4, 8),
    ops=BENCH_OPS,
    repeats: int = 5,
    seed: int = 0,
) -> list[BenchRow]:
    """Measure per-slot costs; returns one row per (scheme, op, λ/degree)."""
    params = preset(preset_name)
    t, n = params.t, params.n
    row = n // 2
    for lam in lams:
        if n % lam or lam >= row:
            raise ParameterError(f"λ={lam} does not divide into the {n}-slot layout")
    bad = [op for op in ops if op not in BENCH_OPS]
    if bad:
        raise ParameterError(f"unknown ops {bad}; choose from {BENCH_OPS}")

    rng = random.Random(seed)
    keys = bfv.keygen(
        params,
        rotation_steps={1, *lams},
        rng=np.random.default_rng(rng.getrandbits(64)),
    )
    backend = make_backend(params, keys, rng)

    def vec():
        return [rng.randrange(t) for _ in range(n)]

    a, b = backend.encrypt(vec()), backend.encrypt(vec())
    const = [rng.randrange(1, t) for _ in range(n)]
    deg3 = backend.mul_no_relin(a, b)

    def tuple_of(degree: int) -> PeAuth:
        return PeAuth(tuple(backend.encrypt(vec()) for _ in range(degree + 1)))

    def ct_fn(op: str, step: int):
        return {
            "add": lambda: backend.add(a, b),
            "mul_const": lambda: backend.mul_plain(a, const),
            "rot": lambda: backend.rotate(a, step),
            "relin": lambda: backend.relinearize(deg3),
            "mul": lambda: backend.mul(a, b),
        }[op]

    jobs: list = []  # ((scheme, op, λ, degree, slots), timed function)

    def measure(scheme, op, lam, degree, slots, fn):
        jobs.append(((scheme, op, lam, degree, slots), fn))

    for op in ops:
        measure("baseline", op, None, None, n, ct_fn(op, 1))

    # one operation on an extended ciphertext covers n/λ logical slots;
    # a logical step-1 rotation moves λ physical slots
    for lam in lams:
        for op in ops:
            measure("rep", op, lam, None, n // lam, ct_fn(op, lam))

    # λ ≤ 32 mirrors the replication sweep for ratio comparisons; the
    # encoding itself has no replication axis, so the same degree-2
    # pipeline is simply measured once per λ value
    base_deg = min(degrees)
    linear_in = [tuple_of(base_deg), tuple_of(base_deg)]
    deg3s = [backend.mul_no_relin(a, b) for _ in range(base_deg + 1)]
    for lam in (l for l in lams if l <= 32):
        for op in ops:
            if op == "mul":
                continue
            if op == "relin":
                fn = lambda: [backend.relinearize(c) for c in deg3s]
            else:
                prog = _gate_program(n, op)
                args = linear_in[: prog.num_inputs]
                fn = lambda prog=prog, args=args: pe_eval(prog, args, backend)
            measure("pe", op, lam, base_deg, n, fn)
    if "mul" in ops:
        prog = _gate_program(n, "mul")
        for degree in degrees:
            half = tuple_of(degree // 2)
            other = tuple_of(degree // 2)
            measure(
                "pe",
                "mul",
                None,
                degree,
                n,
                lambda h=half, o=other: pe_eval(prog, [h, o], backend),
            )
    best = _time_best([fn for _, fn in jobs], repeats)
    return [
        BenchRow(scheme, op, lam, degree, n, slots, b, b / slots * 1e6, repeats)
        for ((scheme, op, lam, degree, slots), _), b in zip(jobs, best)
    ]


def bench_summary(rows) -> str:
    """Human-readable table plus the headline scaling ratios."""
    out = [
        f"{'scheme':<9} {'op':<10} {'λ':>4} {'deg':>4} {'slots':>6} "
        f"{'op time':>12} {'per slot':>12}"
    ]
    for r in rows:
        out.append(
            f"{r.scheme:<9} {r.op:<10} "
            f"{r.lam if r.lam is not None else '-':>4} "
            f"{r.degree if r.degree is not None else '-':>4} "
            f"{r.slots:>6} {r.best_op_s * 1e3:>10.3f}ms "
            f"{r.per_slot_us:>10.3f}µs"
        )

    def per_slot(scheme, op, lam):
        for r in rows:
            if r.scheme == scheme and r.op == op and r.lam == lam:
                return r.per_slot_us
        return None

    for scheme, band in (("rep", "linear-in-λ"), ("pe", "λ-independent")):
        lo, hi = per_slot(scheme, "add", 16), per_slot(scheme, "add", 32)
        if lo and hi:
            out.append(
                f"{scheme} add per-slot ratio λ32:λ16 = {hi / lo:.2f} ({band})"
            )
    mul_rows = [r for r in rows if r.scheme == "pe" and r.op == "mul"]
    if len(mul_rows) > 1:
        trend = " < ".join(
            f"d{r.degree}:{r.per_slot_us:.2f}µs"
            for r in sorted(mul_rows, key=lambda r: r.degree)
        )
        out.append(f"pe mul per-slot by degree: {trend}")
    return "\n".join(out)
