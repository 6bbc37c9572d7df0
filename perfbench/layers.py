"""The layer boundaries the traced run wraps, and the per-layer metrics.

Which end-to-end metric each per-layer metric should move, and where:

- ``ring.ntt_*``: ``cloud_s`` on pp-ride (and req-lookup), ``client_s`` on
  rep-agg, ``setup_s`` everywhere.
- ``bfv.keygen_s``: ``setup_s``.
- ``bfv.encrypt_*``, ``bfv.decrypt_*``: ``client_s`` on rep-agg.
- ``bfv.mul_no_relin_*``, ``bfv.relinearize_*``: ``cloud_s`` on pp-ride's
  PE product (and on req-lookup, where they dominate).
- ``bfv.rotate_*`` (rotations and row swaps): ``cloud_s`` on pp-ride.
- ``bfv.linear_s`` (add, sub, neg, mul_plain): ``cloud_s``.
- ``bfv.noise_budget_bits``: no timing; a guard that a faster ``bfv`` does
  not quietly spend the noise margin.
- ``labels.*``: ``client_s`` on rep-agg, less so on pp-ride.
- ``circuit.eval_plain_*`` (the challenge recomputation): ``client_s`` on
  rep-agg.
- ``rep.*``: rep-agg.  ``pe.*``: pp-ride.
- ``protocols.pp_*`` and the per-tag ``protocols.*.pp-*``: pp-ride.
- ``serialize.*``: ``bytes_up``/``bytes_down`` everywhere, ``client_s`` on
  rep-agg.
- ``pe.verify_s``, ``pe.offset_walk_s``, ``pe.pad_encrypts`` and
  ``pe.pad_encrypt_ratio`` (encryptions of zero spent on padding, as a share
  of all encryptions: wasted work), ``protocols.req_*`` and the per-tag
  figures of the ReQ and result messages: reported by req-lookup's traced
  run only (see :func:`req_metrics`).
- ``layer.mock_s``, ``layer.attacks_s``, ``mock.*``, ``attacks.*``: reported
  by attack-sim's traced run only (see :func:`attack_metrics`).

No registered workload reaches the layers of the last two items, so they
are not in BENCHMARK.json.  Key-switching, ``mul_no_relin`` and PE-product
changes should not move rep-agg or attack-sim; PRF and encoding changes
should barely move req-lookup.

``layer.<name>_s`` are self times per traced job; ``trace.coverage`` is
their sum (less ``bench`` glue and receive waits) over ``job_s``.  The
remainder, ``trace.uncovered_s``, is starting the cloud thread, the
loopback connect, decoding the answer and the tracer's own bookkeeping; it
can read slightly below zero because the PRF key and α draw, made before
the job clock starts, count as covered.  On attack-sim the coverage
exceeds 1: ``simulate_adversary`` waits while its pool threads run, and
pool threads sharing the interpreter lock overlap in wall time.
"""

from __future__ import annotations

import statistics

from vhe import bfv, circuit, labels, mock, pe, protocols, rep, ring, serialize
from vhe.harness import attacks

from spans import WAIT_SPAN, SpanTable

# modules whose namespaces get patched: the program and this benchmark
PATCHED_MODULES = ("vhe", "workloads")

BFV_OPS = (
    "encrypt", "encrypt_zero", "decrypt", "add", "sub", "neg", "mul_plain",
    "mul_no_relin", "relinearize", "mul", "rotate", "row_swap", "inner_sum",
)
MOCK_OPS = (
    "encrypt", "encrypt_zero", "decrypt", "add", "sub", "neg", "mul",
    "mul_plain", "rotate", "row_swap", "inner_sum",
)
SAVES = ("save_keyset", "save_ciphertext", "save_pe_auth", "save_rep_auth", "save_rep_result")
LOADS = ("load_keyset", "load_ciphertext", "load_pe_auth", "load_rep_auth", "load_rep_result")
PP_TAGS = ("pp-result", "pp-challenge", "pp-response")
REQ_TAGS = tuple(t for t in protocols.TAG_NAMES.values() if t not in PP_TAGS)
STRATEGIES = ("slot-perturb", "tamper-req-message")
LAYERS = (
    "ring", "bfv", "labels", "circuit", "rep", "pe", "protocols", "serialize", "bench",
)
ATTACK_LAYERS = ("mock", "attacks")


def _methods(cls, layer, names):
    return [(cls, m, f"{layer}.{m}", False) for m in names]


def _functions(module, layer, names):
    return [(module, f, f"{layer}.{f}", False) for f in names]


def targets() -> list:
    memory_endpoint = type(protocols.memory_channel()[0])
    return [
        *_methods(ring.Modulus, "ring", ("ntt", "intt")),
        (bfv, "keygen", "bfv.keygen", False),
        *_methods(bfv.BfvBackend, "bfv", BFV_OPS),
        *_functions(labels, "labels", ("prf_zt", "prf_tag", "fold_tags", "hash_tree_eval")),
        *_functions(circuit, "circuit", (
            "eval_plain", "eval_he", "challenge_input_pe", "challenge_input_rep",
            "eval_challenge_pe", "eval_challenge_rep",
        )),
        *_functions(rep, "rep", (
            "rep_keygen", "rep_extend", "rep_auth", "rep_eval",
            "rep_challenge_value", "rep_decode", "rep_verify",
        )),
        *_functions(pe, "pe", (
            "pe_keygen", "pe_auth", "pe_add", "pe_sub", "pe_mul", "pe_map",
            "pe_eval", "degree_schedule", "offset_walk", "final_offset", "pe_verify",
        )),
        *_functions(protocols, "protocols", ("pp_prove", "pp_verify", "pack_cts", "unpack_cts")),
        (protocols.ReqCloudSession, "reduce", "protocols.req_reduce", False),
        (protocols.ReqClientSession, "respond", "protocols.req_respond", False),
        (protocols.ReqClientSession, "serve", "protocols.req_serve", False),
        (protocols.TcpEndpoint, "send", "protocols.send", False),
        (protocols.TcpEndpoint, "recv", WAIT_SPAN, False),
        (memory_endpoint, "send", "protocols.send", False),
        (memory_endpoint, "recv", WAIT_SPAN, False),
        *[(serialize, f, f"serialize.{f}", f == "save_ciphertext") for f in SAVES + LOADS],
        *_methods(mock.MockBackend, "mock", MOCK_OPS),
        (attacks, "simulate_adversary", "attacks.simulate_adversary", False),
    ]


def _names(layer, ops):
    return tuple(f"{layer}.{op}" for op in ops)


def per_layer_metrics(tracer, setup_table: SpanTable, table: SpanTable, traced, untraced,
                      noise_bits: float) -> dict:
    """Per-layer metrics, per traced job, as {name: (value, unit)}."""
    jobs = max(1, len(traced))
    per = lambda x: x / jobs  # noqa: E731
    m: dict = {}

    layer_self = table.layer_self()
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = (per(layer_self.get(layer, 0.0)), "s")
    covered = sum(v for k, v in layer_self.items() if k not in ("wait", "bench"))
    traced_s = [j.job_s for j in traced]
    untraced_s = [j.job_s for j in untraced]
    job_s = statistics.median(traced_s)
    m["trace.job_s"] = (job_s, "s")
    m["trace.untraced_job_s"] = (statistics.median(untraced_s), "s")
    m["trace.overhead_s"] = (job_s - statistics.median(untraced_s), "s")
    m["trace.coverage"] = (covered / sum(traced_s), "ratio")
    m["trace.uncovered_s"] = (per(sum(traced_s) - covered), "s")

    m["ring.ntt_calls"] = (per(table.count("ring.ntt", "ring.intt")), "count")
    m["ring.ntt_s"] = (per(table.busy("ring.ntt", "ring.intt")), "s")
    m["bfv.keygen_s"] = (setup_table.wall("bfv.keygen"), "s")
    for metric, ops in (
        ("encrypt", ("encrypt",)),
        ("decrypt", ("decrypt",)),
        ("mul_no_relin", ("mul_no_relin",)),
        ("relinearize", ("relinearize",)),
        ("rotate", ("rotate", "row_swap")),
    ):
        names = _names("bfv", ops)
        m[f"bfv.{metric}_calls"] = (per(table.count(*names)), "count")
        m[f"bfv.{metric}_s"] = (per(table.busy(*names)), "s")
    m["bfv.linear_s"] = (per(table.busy(*_names("bfv", ("add", "sub", "neg", "mul_plain")))), "s")
    m["bfv.noise_budget_bits"] = (noise_bits, "bits")

    m["labels.prf_calls"] = (per(table.count("labels.prf_zt")), "count")
    m["labels.prf_s"] = (per(table.busy("labels.prf_zt")), "s")
    m["labels.hash_s"] = (per(table.busy(*_names("labels", ("prf_tag", "fold_tags", "hash_tree_eval")))), "s")
    m["circuit.eval_plain_calls"] = (per(table.count("circuit.eval_plain")), "count")
    m["circuit.eval_plain_s"] = (per(table.busy("circuit.eval_plain")), "s")
    m["circuit.eval_he_s"] = (per(table.busy("circuit.eval_he")), "s")

    for op in ("auth", "eval", "decode", "verify"):
        m[f"rep.{op}_s"] = (per(table.busy(f"rep.rep_{op}")), "s")
    for op in ("auth", "eval"):
        m[f"pe.{op}_s"] = (per(table.busy(f"pe.pe_{op}")), "s")
    m["pe.backend_muls"] = (per(table.count_under(("bfv.mul", "mock.mul"), ("pe.pe_mul",))), "count")
    degrees = [j.info["result_degree"] for j in traced if "result_degree" in j.info]
    m["pe.result_degree"] = (statistics.mean(degrees) if degrees else 0, "count")

    m["protocols.pp_prove_s"] = (per(table.busy("protocols.pp_prove")), "s")
    m["protocols.pp_verify_s"] = (per(table.busy("protocols.pp_verify")), "s")
    frames = [f for j in traced for f in j.frames]  # (waiting side, tag, bytes, wait)
    for side in ("client", "cloud"):
        m[f"protocols.{side}_wait_s"] = (per(sum(f[3] for f in frames if f[0] == side)), "s")
    m["protocols.messages"] = (per(len(frames)), "count")
    m["protocols.msg_bytes"] = (per(sum(f[2] for f in frames)), "bytes")
    m.update(tag_metrics(frames, PP_TAGS, jobs))

    m["serialize.save_s"] = (per(table.self_time(*_names("serialize", SAVES))), "s")
    m["serialize.load_s"] = (per(table.self_time(*_names("serialize", LOADS))), "s")
    ct_bytes = sum(v for (job, name), v in tracer.sizes.items()
                   if job >= 0 and name == "serialize.save_ciphertext")
    m["serialize.ct_bytes"] = (per(ct_bytes), "bytes")

    return m


def tag_metrics(frames, tags, jobs: int) -> dict:
    """Messages, bytes and receive waits per job for each of `tags`."""
    m = {}
    for tag in tags:
        mine = [f for f in frames if f[1] == tag]
        m[f"protocols.messages.{tag}"] = (len(mine) / jobs, "count")
        m[f"protocols.msg_bytes.{tag}"] = (sum(f[2] for f in mine) / jobs, "bytes")
        m[f"protocols.wait_s.{tag}"] = (sum(f[3] for f in mine) / jobs, "s")
    return m


def req_metrics(table: SpanTable, traced) -> dict:
    """The PE verification and ReQ figures of req-lookup's traced jobs."""
    jobs = max(1, len(traced))
    per = lambda x: x / jobs  # noqa: E731
    m = {
        "pe.verify_s": (per(table.busy("pe.pe_verify")), "s"),
        "pe.offset_walk_s": (per(table.busy("pe.offset_walk")), "s"),
    }
    pads = table.count_under(("bfv.encrypt_zero", "mock.encrypt_zero"), ("pe.pe_add", "pe.pe_sub"))
    encrypts = table.count("bfv.encrypt", "mock.encrypt")
    m["pe.pad_encrypts"] = (per(pads), "count")
    m["pe.pad_encrypt_ratio"] = (pads / encrypts if encrypts else 0.0, "ratio")
    rounds = table.count("protocols.req_reduce")
    m["protocols.req_rounds"] = (per(rounds), "count")
    m["protocols.req_round_s"] = (table.wall("protocols.req_reduce") / rounds if rounds else 0.0, "s")
    m["protocols.req_respond_s"] = (per(table.busy("protocols.req_respond")), "s")
    m.update(tag_metrics([f for j in traced for f in j.frames], REQ_TAGS, jobs))
    return m


def attack_metrics(table: SpanTable, traced) -> dict:
    """The mock backend and adversary figures of attack-sim's traced jobs."""
    jobs = max(1, len(traced))
    per = lambda x: x / jobs  # noqa: E731
    layer_self = table.layer_self()
    m = {f"layer.{layer}_s": (per(layer_self.get(layer, 0.0)), "s") for layer in ATTACK_LAYERS}
    mock_names = _names("mock", MOCK_OPS)
    m["mock.op_calls"] = (per(table.count(*mock_names)), "count")
    m["mock.op_s"] = (per(table.self_time(*mock_names)), "s")
    reports = [r for j in traced for r in j.info.get("attacks", ())]
    m["attacks.trials"] = (per(sum(r["trials"] for r in reports)), "count")
    # trials verify at the root of a pool thread; run serially they verify
    # inside simulate_adversary on the calling thread
    workers = table.root_threads("rep.rep_verify", "pe.pe_verify") or int(bool(reports))
    m["attacks.workers"] = (workers, "count")
    for s in STRATEGIES:
        mine = [r for r in reports if r["strategy"] == s]
        trials = sum(r["trials"] for r in mine)
        m[f"attacks.accept_rate.{s}"] = (sum(r["accepts"] for r in mine) / trials if trials else 0.0, "ratio")
        m[f"attacks.bound.{s}"] = (mine[0]["analytic_bound"] if mine else 0.0, "ratio")
    return m
