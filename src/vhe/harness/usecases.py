"""Desk-scale use-case pipelines run end to end (client → cloud → client).

Four workload shapes, each with a pure-Python oracle:

- ``ride-hailing``: drivers pack their coordinates into disjoint slots, the
  rider replicates hers everywhere; the cloud squares the difference and the
  rider picks the nearest driver.
- ``dot-product``: a user offloads a SNP vector, an institution offloads a
  weight vector; the cloud returns their scalar product.
- ``lookup``: an encrypted exact-match search — the query's bit pattern is
  XOR-compared against every database entry (XOR(a,b) = a + b − 2ab over
  bits), per-entry match bits are AND-folded with rotate-and-multiply steps,
  and the masked entry ids are aggregated into one slot.  Deliberately deep
  (multiplicative depth 8 at 16-character entries).
- ``aggregation``: additive federated averaging over per-client weight
  vectors; no multiplications at all.

A run always executes the unauthenticated pipeline first (same seed, same
parameters) so every report carries ratios against its own baseline, then
the authenticated pipeline for ``auth`` ∈ {rep, pe, pe+pp, pe+req}; under
``none`` the baseline is the run.  Every mode runs one verified session
(``protocols.cloud_session`` against ``protocols.client_session``, whose
first message names the mode).  Stage accounting groups work the way
deployment would bill it: *create* is the data owner's key generation
plus authentication, *eval* is the cloud's circuit execution up to the
return of ``rep_eval`` or ``pe_eval`` (including any reduction
interaction), *verify* is the rest: the result or packed-proof exchange
and the decrypting client's checks.
"""

from __future__ import annotations

import contextlib
import random
import string
import time
from dataclasses import dataclass, field

import numpy as np

from .. import bfv
from ..circuit import Program, ProgramBuilder, eval_he
from ..errors import LayoutError, ParameterError
from ..mock import MockBackend
from ..params import Params, preset
from ..pe import degree_schedule, pe_auth, pe_eval, pe_keygen
from ..protocols import client_session, cloud_session, pp_required_steps, run_session
from ..rep import rep_auth, rep_eval, rep_keygen

USECASES = ("ride-hailing", "dot-product", "lookup", "aggregation")
AUTH_MODES = ("none", "rep", "pe", "pe+pp", "pe+req")

# per use case: (packed-layout preset, replication preset, replication factor)
_DEFAULTS = {
    "ride-hailing": ("n4096", "n4096", 32),
    "dot-product": ("n4096", "n8192", 8),
    "lookup": ("n8192_deep", "n8192_deep", 16),
    "aggregation": ("n4096", "n4096", 32),
}


@dataclass(frozen=True)
class UseCaseSpec:
    """A fully pinned workload: shape knobs, parameter preset, seed."""

    name: str
    preset_name: str
    lam: int
    seed: int = 0
    drivers: int = 8
    vector_length: int = 1024
    db_entries: int = 32
    entry_chars: int = 16
    clients: int = 4
    weight_length: int = 4096


def usecase_spec(
    name: str,
    auth: str = "none",
    preset_name: str | None = None,
    lam: int | None = None,
    seed: int = 0,
    **knobs,
) -> UseCaseSpec:
    """Build a spec with workable per-use-case defaults for `auth`."""
    if name not in USECASES:
        raise ParameterError(f"unknown use case {name!r}; one of {USECASES}")
    packed_preset, rep_preset, rep_lam = _DEFAULTS[name]
    if preset_name is None:
        preset_name = rep_preset if auth == "rep" else packed_preset
    if lam is None:
        lam = rep_lam
    spec = UseCaseSpec(name=name, preset_name=preset_name, lam=lam, seed=seed, **knobs)
    if name == "lookup" and spec.db_entries > 26**spec.entry_chars:
        raise ParameterError(
            f"{spec.db_entries} distinct {spec.entry_chars}-letter entries do not exist "
            f"(at most {26**spec.entry_chars})"
        )
    return spec


@dataclass
class Instance:
    """One seeded, layout-bound workload ready to encrypt and run."""

    program: Program
    labels: list
    values: list  # logical input vectors, values[k] has len == lengths[k]
    lengths: list
    decode: object  # callable: output-block values -> answer
    expected: object  # the plaintext oracle's answer
    client_input: int = 0  # which input the canonical offloading client owns


def _is_pow2(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


def _bits(text: str):
    """Little-endian bit expansion of each character's ASCII code."""
    return [(ord(ch) >> k) & 1 for ch in text for k in range(8)]


def _sum_all_slots(b: ProgramBuilder, wire: int, span: int) -> int:
    """Sum `span` leading slots into slot 0 (span a power of two)."""
    row = b.width // 2
    if span <= row:
        return b.inner_sum(wire, span)
    if span != b.width:
        raise ParameterError(f"cannot sum a {span}-slot span at width {b.width}")
    s = b.inner_sum(wire, row)
    return b.add(s, b.row_swap(s))


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def _domain(spec: UseCaseSpec, t: int) -> dict:
    """Raw seeded problem data, independent of layout and width."""
    rng = random.Random(spec.seed)
    if spec.name == "ride-hailing":
        # coordinates < 128 keep every squared distance below a 16-bit modulus
        drivers = [(rng.randrange(128), rng.randrange(128)) for _ in range(spec.drivers)]
        rider = (rng.randrange(128), rng.randrange(128))
        return {"drivers": drivers, "rider": rider}
    if spec.name == "dot-product":
        snps = [rng.randrange(3) for _ in range(spec.vector_length)]
        weights = [rng.randrange(16) for _ in range(spec.vector_length)]
        return {"snps": snps, "weights": weights}
    if spec.name == "lookup":
        entries: list[str] = []
        while len(entries) < spec.db_entries:
            e = "".join(rng.choice(string.ascii_lowercase) for _ in range(spec.entry_chars))
            if e not in entries:
                entries.append(e)
        query_idx = rng.randrange(spec.db_entries)
        return {"entries": entries, "query_idx": query_idx}
    if spec.name == "aggregation":
        weights = [
            [rng.randrange(t) for _ in range(spec.weight_length)]
            for _ in range(spec.clients)
        ]
        return {"weights": weights}
    raise ParameterError(f"unknown use case {spec.name!r}")


def _instance_ride_hailing(spec, width, t, dom) -> Instance:
    drivers, rider = dom["drivers"], dom["rider"]
    count = 2 * spec.drivers
    if count > width:
        raise ParameterError(f"{spec.drivers} drivers do not fit a width of {width}")
    dists = [(rider[0] - x) ** 2 + (rider[1] - y) ** 2 for x, y in drivers]
    best = min(range(spec.drivers), key=lambda i: (dists[i], i))
    expected = {"best": best, "distances": [d % t for d in dists]}

    rider_vec = list(rider) * spec.drivers
    driver_vecs = []
    for i, (x, y) in enumerate(drivers):
        v = [0] * count
        v[2 * i], v[2 * i + 1] = x, y
        driver_vecs.append(v)

    b = ProgramBuilder(width, name="ride-hailing")
    rid = b.input("rider")
    drs = [b.input(f"driver{i}") for i in range(spec.drivers)]
    acc = drs[0]
    for w in drs[1:]:
        acc = b.add(acc, w)
    diff = b.sub(rid, acc)
    prog = b.build(b.mul(diff, diff), output_block=(0, count))

    def decode(vals):
        ds = [(vals[2 * i] + vals[2 * i + 1]) % t for i in range(spec.drivers)]
        return {"best": min(range(spec.drivers), key=lambda i: (ds[i], i)), "distances": ds}

    return Instance(
        program=prog,
        labels=["rider"] + [f"driver{i}" for i in range(spec.drivers)],
        values=[rider_vec] + driver_vecs,
        lengths=[count] * (spec.drivers + 1),
        decode=decode,
        expected=expected,
    )


def _instance_dot_product(spec, width, t, dom) -> Instance:
    l = spec.vector_length
    if not _is_pow2(l) or l > width:
        raise ParameterError(f"vector length {l} must be a power of two ≤ {width}")
    snps, weights = dom["snps"], dom["weights"]
    expected = sum(w * s for w, s in zip(weights, snps)) % t

    b = ProgramBuilder(width, name="dot-product")
    s = b.input("snps")
    w = b.input("weights")
    prog = b.build(_sum_all_slots(b, b.mul(w, s), l), output_block=(0, 1))

    return Instance(
        program=prog,
        labels=["snps", "weights"],
        values=[list(snps), list(weights)],
        lengths=[l, l],
        decode=lambda vals: vals[0],
        expected=expected,
    )


def _not_xor(b: ProgramBuilder, q: int, e: int, ones_minus_q: int):
    """1 − XOR(q, e) per bit-slot: (1 − q − e) + 2·q·e."""
    prod2 = b.mul_plain(b.mul(q, e), [2] * b.width)
    return b.add(b.sub(ones_minus_q, e), prod2)


def _fold_all_ones(b: ProgramBuilder, wire: int, span: int) -> int:
    """AND-fold `span` adjacent slots multiplicatively; result lands on every
    slot whose index is a multiple of span (others hold mixed products)."""
    step = span // 2
    while step >= 1:
        wire = b.mul(wire, b.rotate(wire, step))
        step //= 2
    return wire


def _instance_lookup(spec, width, t, dom, layout) -> Instance:
    entries, query_idx = dom["entries"], dom["query_idx"]
    E, B = spec.db_entries, 8 * spec.entry_chars
    expected = query_idx + 1
    query_bits = _bits(entries[query_idx])
    entry_bits = [_bits(e) for e in entries]
    row = width // 2
    if not _is_pow2(B) or B > row:
        raise ParameterError(f"entries of {B} bits need a row of at least {B}")

    if layout == "packed":
        if E * B > row:
            raise ParameterError(
                f"{E} entries × {B} bits exceed a row of {row}; "
                "use a wider ring or the replicated layout"
            )
        used = E * B
        db_vec = [bit for bits in entry_bits for bit in bits]
        q_vec = query_bits * E
        ones_vec = [1] * used
        ids = [0] * width
        for j in range(E):
            ids[j * B] = j + 1

        b = ProgramBuilder(width, name="lookup")
        q = b.input("query")
        db = b.input("db")
        ones = b.input("ones")
        y = _not_xor(b, q, db, b.sub(ones, q))
        y = _fold_all_ones(b, y, B)
        y = b.mul_plain(y, ids)
        prog = b.build(_sum_all_slots(b, y, width), output_block=(0, 1))
        return Instance(
            program=prog,
            labels=["query", "db", "ones"],
            values=[q_vec, db_vec, ones_vec],
            lengths=[used, used, used],
            decode=lambda vals: vals[0],
            expected=expected,
        )

    # replicated layout: one input per database entry, everything single-block
    b = ProgramBuilder(width, name="lookup")
    q = b.input("query")
    ones = b.input("ones")
    ent = [b.input(f"entry{j}") for j in range(E)]
    ones_minus_q = b.sub(ones, q)
    acc = None
    for j in range(E):
        y = _not_xor(b, q, ent[j], ones_minus_q)
        y = _fold_all_ones(b, y, B)
        mask = [0] * width
        mask[0] = j + 1
        y = b.mul_plain(y, mask)
        acc = y if acc is None else b.add(acc, y)
    prog = b.build(acc, output_block=(0, 1))
    return Instance(
        program=prog,
        labels=["query", "ones"] + [f"entry{j}" for j in range(E)],
        values=[query_bits, [1] * B] + entry_bits,
        lengths=[B] * (E + 2),
        decode=lambda vals: vals[0],
        expected=expected,
    )


def _instance_aggregation(spec, width, t, dom) -> Instance:
    K, L = spec.clients, spec.weight_length
    weights = dom["weights"]
    expected = [sum(w[i] for w in weights) % t for i in range(L)]
    if L % width and width % L:
        raise ParameterError(f"weight length {L} must align with width {width}")

    b = ProgramBuilder(width, name="aggregation")
    ins = [b.input(f"client{k}") for k in range(K)]
    acc = ins[0]
    for w in ins[1:]:
        acc = b.add(acc, w)
    prog = b.build(acc, output_block=(0, min(L, width)))

    return Instance(
        program=prog,
        labels=[f"client{k}" for k in range(K)],
        values=[list(w) for w in weights],
        lengths=[L] * K,
        decode=lambda vals: [v % t for v in vals[:L]],
        expected=expected,
    )


def build_instance(spec: UseCaseSpec, width: int, layout: str, t: int) -> Instance:
    dom = _domain(spec, t)
    if spec.name == "ride-hailing":
        return _instance_ride_hailing(spec, width, t, dom)
    if spec.name == "dot-product":
        return _instance_dot_product(spec, width, t, dom)
    if spec.name == "lookup":
        return _instance_lookup(spec, width, t, dom, layout)
    return _instance_aggregation(spec, width, t, dom)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class UseCaseReport:
    """Outcome, stage timings, and ciphertext accounting for one run."""

    usecase: str
    auth: str
    preset: str
    n: int
    t: int
    lam: int | None
    real: bool
    verdict: bool | None
    answer: object
    expected: object
    match: bool
    stages: dict
    baseline_stages: dict
    ratios: dict
    cts_sent_per_client: int
    cts_received_client: int
    cts_client_interactive_sent: int
    baseline_cts_sent_per_client: int
    baseline_cts_received_client: int
    result_degree: int | None
    req_rounds: int | None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["answer"] = _jsonable(self.answer)
        d["expected"] = _jsonable(self.expected)
        return d

    def summary(self) -> str:
        verdict = {True: "ACCEPT", False: "REJECT", None: "(not verified)"}[self.verdict]
        lines = [
            f"use case   : {self.usecase} [{self.auth}] on {self.preset}"
            + (f", λ={self.lam}" if self.auth == "rep" else "")
            + (" (real backend)" if self.real else " (mock backend)"),
            f"verdict    : {verdict}; oracle match: {'yes' if self.match else 'NO'}",
            f"answer     : {_short(self.answer)}",
            "stage      :   create      eval    verify   (seconds, ×baseline)",
            "  this run : "
            + "  ".join(f"{self.stages[k]:8.4f}" for k in ("create", "eval", "verify")),
            "  baseline : "
            + "  ".join(
                f"{self.baseline_stages[k]:8.4f}" for k in ("create", "eval", "verify")
            ),
            "  ratio    : "
            + "  ".join(f"{self.ratios[k]:8.2f}" for k in ("create", "eval", "verify")),
            f"ciphertexts: client sends {self.cts_sent_per_client} "
            f"(baseline {self.baseline_cts_sent_per_client}), receives "
            f"{self.cts_received_client} (baseline {self.baseline_cts_received_client})",
        ]
        if self.req_rounds:
            lines.append(
                f"interaction: {self.req_rounds} reduction round(s), "
                f"{self.cts_client_interactive_sent} ciphertext(s) sent back"
            )
        for n in self.notes:
            lines.append(f"note       : {n}")
        return "\n".join(lines)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _short(x) -> str:
    s = repr(_jsonable(x))
    return s if len(s) <= 100 else s[:97] + "..."


def _pad(values, width):
    return list(values) + [0] * (width - len(values))


class _Timer:
    def __init__(self):
        self.stages: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0


def make_backend(params: Params, keys, rng: random.Random | None = None):
    """The real backend over `keys`, or the mock where there are none; its
    randomness comes from `rng` (the mock draws from `rng` itself), or
    without one from the OS."""
    if keys is None:
        return MockBackend(params, rng=rng)
    gen = None if rng is None else np.random.default_rng(rng.getrandbits(64))
    return bfv.BfvBackend(params, keys, rng=gen)


def _cloud_and_client(params: Params, keys, seed: int):
    """Public-only material for the cloud; without keys, two mocks on one
    generator act as one."""
    rng = random.Random(seed)
    return (make_backend(params, None if keys is None else keys.public(), rng),
            make_backend(params, keys, rng))


def _feasibility(inst: Instance, params: Params, auth: str):
    """Reject parameter/depth mismatches before any cryptographic work."""
    depth = inst.program.depth
    if params.depth_budget is not None and depth > params.depth_budget:
        raise ParameterError(
            f"circuit depth {depth} exceeds the {params.name!r} depth budget "
            f"of {params.depth_budget}; choose a deeper preset"
        )
    if auth in ("pe", "pe+pp", "pe+req"):
        # raises DegreeLimitError when the encoding cannot carry the circuit
        degree_schedule(inst.program, use_reducer=auth == "pe+req")


def _run_baseline(inst: Instance, params: Params, real: bool, seed: int):
    n = params.n
    keys = None
    if real:
        keys = bfv.program_keys(params, (inst.program,), rng=np.random.default_rng(seed + 0x5EED))
    cloud, client = _cloud_and_client(params, keys, seed)
    timer = _Timer()
    with timer.stage("create"):
        cts = client.encrypt_many(_pad(v, n) for v in inst.values)
    with timer.stage("eval"):
        out = eval_he(inst.program, cts, cloud)
    with timer.stage("verify"):
        slots = client.decrypt(out)
        start, count = inst.program.output_block
        answer = inst.decode(slots[start : start + count])
    return timer.stages, answer


def run_usecase(spec: UseCaseSpec, auth: str = "none", real: bool = False) -> UseCaseReport:
    """End-to-end pipeline for one use case under one authenticator mode."""
    if auth not in AUTH_MODES:
        raise ParameterError(f"unknown auth mode {auth!r}; one of {AUTH_MODES}")
    params = preset(spec.preset_name)
    n, t = params.n, params.t
    notes: list[str] = []

    if auth == "rep":
        if n % spec.lam:
            raise ParameterError(f"λ={spec.lam} must divide the slot count {n}")
        inst = build_instance(spec, n // spec.lam, "replicated", t)
    else:
        inst = build_instance(spec, n, "packed", t)
    _feasibility(inst, params, auth)

    # the unauthenticated pipeline, same seed and parameters
    base_inst = (
        inst if inst.program.width == n else build_instance(spec, n, "packed", t)
    )
    if auth == "rep" and spec.name == "lookup":
        notes.append(
            "replication uses one input per database entry (rotations must stay "
            "inside one ciphertext); the baseline packs all entries into one"
        )
    baseline_stages, base_answer = _run_baseline(base_inst, params, real, spec.seed)
    if base_answer != base_inst.expected:
        raise LayoutError("baseline pipeline diverged from the plaintext oracle")

    timer = _Timer()
    rng = random.Random(spec.seed ^ 0xA5A5A5)

    if auth == "none":  # the baseline already ran this very pipeline
        stages, answer = baseline_stages, base_answer
        verdict = result_degree = req_rounds = None
        sent, received, interactive_sent = 1, 1, 0
        notes.append("no authenticator: result correctness is not verified")
    else:  # one verified session
        rep = auth == "rep"
        use_pp = auth == "pe+pp"
        use_req = auth == "pe+req"
        with timer.stage("create"):
            if rep:
                secret = rep_keygen(params, spec.lam, (inst.program,), rng, make_he_keys=real)
            else:
                extra = pp_required_steps(n) if use_pp else ()
                secret = pe_keygen(params, (inst.program,), extra, rng, make_he_keys=real)
            cloud, client = _cloud_and_client(params, secret.he_keys, spec.seed)
            auths = [
                rep_auth(secret, client, v, label) if rep else pe_auth(secret, client, _pad(v, n), label)
                for v, label in zip(inst.values, inst.labels)
            ]
        evaluated: list[float] = []

        def evaluate(reducer):
            res = (rep_eval(inst.program, auths, cloud, lam=spec.lam) if rep
                   else pe_eval(inst.program, auths, cloud, reducer=reducer))
            evaluated.append(time.perf_counter())
            return res

        def client_fn(ep):
            return client_session(
                secret, client, inst.program, ep, use_req, use_pp,
                rng=random.Random(spec.seed ^ 0xC11E),
            )

        t0 = time.perf_counter()
        (result, reducer, tr), (verdict, claim) = run_session(
            lambda ep: (*cloud_session(cloud, ep, evaluate), ep.transcript), client_fn
        )
        req_rounds = None if reducer is None else reducer.rounds
        answer = inst.decode(claim)
        # eval ends when the cloud's evaluation returns; verify is the rest
        (t_eval,) = evaluated
        stages = dict(timer.stages, eval=t_eval - t0, verify=time.perf_counter() - t_eval)
        result_degree = None if rep else result.degree
        sent = len(auths[inst.client_input].cts)
        received = tr.cts_sent()  # everything the cloud sent the client
        interactive_sent = tr.cts_received()  # the blinded ReQ terms

    stages = {k: stages.get(k, 0.0) for k in ("create", "eval", "verify")}
    baseline_stages = {k: baseline_stages.get(k, 0.0) for k in ("create", "eval", "verify")}
    ratios = {
        k: stages[k] / max(baseline_stages[k], 1e-9) for k in stages
    }
    return UseCaseReport(
        usecase=spec.name,
        auth=auth,
        preset=spec.preset_name,
        n=n,
        t=t,
        lam=spec.lam if auth == "rep" else None,
        real=real,
        verdict=verdict,
        answer=answer,
        expected=inst.expected,
        match=answer == inst.expected,
        stages=stages,
        baseline_stages=baseline_stages,
        ratios=ratios,
        cts_sent_per_client=sent,
        cts_received_client=received,
        cts_client_interactive_sent=interactive_sent,
        baseline_cts_sent_per_client=1,
        baseline_cts_received_client=1,
        result_degree=result_degree,
        req_rounds=req_rounds,
        notes=notes,
    )
