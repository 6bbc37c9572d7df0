"""Workloads of the verified-outsourcing benchmark.

Each workload is a closed loop of verified jobs driven through vhe's public
API the way a deployment uses it: the data owner authenticates and uploads
serialized containers, the cloud loads them, evaluates and interacts, and
the data owner decrypts and verifies.  The next job starts only after the
previous one reached its verdict.

HE keys are made once in set-up and shared by every job (the cloud gets
them as a serialized public key set).  Each job draws fresh instance data
from ``usecases.build_instance``, a fresh PRF key and a fresh α (or
challenge set), all seeded from the workload seed and the job index.
"""

from __future__ import annotations

import dataclasses
import queue
import random
import threading
import time

import numpy as np

from vhe import bfv, params as vparams, ring, serialize
from vhe.circuit import required_rotation_steps
from vhe.harness.attacks import AttackSpec, simulate_adversary, wilson_interval
from vhe.harness.usecases import build_instance, usecase_spec
from vhe.pe import PeAuth, pe_auth, pe_eval, pe_keygen, pe_verify
from vhe.protocols import (
    TAG_NAMES,
    TAG_REQ_BLINDED,
    TAG_REQ_HIGH_TERMS,
    TAG_RESULT,
    ReqClientSession,
    ReqCloudSession,
    message_ct_count,
    pack_cts,
    pp_prove,
    pp_required_steps,
    pp_verify,
    run_session,
    tcp_connect,
    tcp_listen,
    unpack_cts,
)
from vhe.rep import rep_auth, rep_decode, rep_eval, rep_keygen, rep_verify

clock = time.perf_counter

# Set-up is repeated from cold caches at least SETUP_REPEATS times and until
# SETUP_MIN_S seconds have gone into it (at most SETUP_MAX_REPEATS times), so
# that a cheap set-up (rep-agg's takes a quarter of a second) still yields a
# steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPEATS = 25
LOOPBACK = "127.0.0.1"
SESSION_TIMEOUT_S = 120.0

# The attack check runs once per job over thousands of jobs, so a 99%
# interval would reject honest code about once per 200 jobs; z = 5.73
# (two-sided 1e-8) keeps false alarms out.  At AttackSim's trial counts one
# job catches a slot-perturb verifier that accepts at 2x its bound (1/70)
# with probability 0.42, and at 3x with 0.999.  tamper-req-message fails a
# job at 2 accepts of 200, so one job catches a verifier at about 35x its
# bound (2.4e-4) with probability 1/2; a verifier that accepts every
# forgery fails on both strategies at once.
ATTACK_Z = 5.730729


class JobFailure(Exception):
    """A job produced a wrong answer, a rejected honest result, or broke a
    structural promise of the protocol (such as the ciphertext count)."""


@dataclasses.dataclass
class Job:
    """What one verified job cost and whether it was right."""

    job_s: float = 0.0
    client_s: float = 0.0
    cloud_s: float = 0.0
    bytes_up: int = 0
    bytes_down: int = 0
    ok: bool = False
    error: str = ""
    # (side that waited, tag name, frame bytes, seconds blocked) per message
    frames: list = dataclasses.field(default_factory=list)
    # ciphertexts the client decrypted as the result (noise guard, traced run)
    result_cts: list = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)


def job_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def pad(values, width):
    return list(values) + [0] * (width - len(values))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class TimedEndpoint:
    """Wraps an endpoint and records the time blocked in ``recv`` per tag."""

    def __init__(self, inner, side: str):
        self.inner = inner
        self.side = side
        self.wait_s = 0.0
        self.waits: list = []  # (tag, seconds)

    @property
    def transcript(self):
        return self.inner.transcript

    def send(self, tag, payload):
        self.inner.send(tag, payload)

    def recv(self):
        t0 = clock()
        tag, payload = self.inner.recv()
        waited = clock() - t0
        self.wait_s += waited
        self.waits.append((tag, waited))
        return tag, payload

    def close(self):
        self.inner.close()


def frame_log(ep: TimedEndpoint) -> list:
    """(waiting side, tag name, frame bytes, seconds blocked) per received
    message, read from the endpoint's transcript."""
    out = []
    for (tag, payload), (_, waited) in zip(ep.transcript.received, ep.waits):
        framed = 5 + len(payload)  # u32 length ‖ u8 tag ‖ payload
        out.append((ep.side, TAG_NAMES.get(tag, str(tag)), framed, waited))
    return out


def sent_bytes(ep) -> int:
    return len(ep.transcript.sent_bytes())


def sent_cts(ep, tags=None) -> int:
    return sum(
        message_ct_count(tag, payload)
        for tag, payload in ep.transcript.sent
        if tags is None or tag in tags
    )


def tcp_session(cloud_fn, client_fn):
    """Run ``cloud_fn`` on a thread behind a loopback listener and
    ``client_fn`` here, connected over TCP as ``vhe serve``/``connect`` are.

    Returns (cloud result, client result, cloud endpoint, client endpoint).
    """
    ports: queue.Queue = queue.Queue()
    box: dict = {}

    def cloud_main():
        try:
            ep, _ = tcp_listen(LOOPBACK, 0, ready=ports.put)
        except BaseException as exc:
            box["error"] = (clock(), exc)
            ports.put(None)
            return
        ep = TimedEndpoint(ep, "cloud")
        box["ep"] = ep
        try:
            box["result"] = cloud_fn(ep)
        except BaseException as exc:
            box["error"] = (clock(), exc)
        finally:
            ep.close()

    worker = threading.Thread(target=cloud_main, name="cloud", daemon=True)
    worker.start()
    client_error = None
    try:
        port = ports.get(timeout=SESSION_TIMEOUT_S)
        if port is not None:
            client_ep = TimedEndpoint(tcp_connect(LOOPBACK, port, SESSION_TIMEOUT_S), "client")
            try:
                client_result = client_fn(client_ep)
            except Exception as exc:
                client_error = (clock(), exc)
            finally:
                client_ep.close()
    except Exception as exc:
        client_error = (clock(), exc)
    worker.join(SESSION_TIMEOUT_S)
    # the side that failed first is the cause: the other side then only
    # sees the connection it was using close under it
    failures = [e for e in (box.get("error"), client_error) if e is not None]
    if failures:
        raise min(failures, key=lambda e: e[0])[1]
    if worker.is_alive():
        raise JobFailure("cloud thread did not finish")
    return box["result"], client_result, box["ep"], client_ep


def memory_session(cloud_fn, client_fn):
    """Same interface as :func:`tcp_session`, over ``protocols.run_session``."""
    eps: dict = {}

    def cloud(ep):
        eps["cloud"] = TimedEndpoint(ep, "cloud")
        return cloud_fn(eps["cloud"])

    def client(ep):
        eps["client"] = TimedEndpoint(ep, "client")
        return client_fn(eps["client"])

    cloud_result, client_result = run_session(cloud, client)
    return cloud_result, client_result, eps["cloud"], eps["client"]


# ---------------------------------------------------------------------------
# set-up helpers
# ---------------------------------------------------------------------------


def clear_caches():
    """Drop the program's process-wide caches so every set-up starts cold:
    prime search, NTT tables and Galois permutations are rebuilt."""
    vparams.preset.cache_clear()
    ring.get_modulus.cache_clear()
    bfv._eval_permutation.cache_clear()


@dataclasses.dataclass
class HeSetup:
    """Keys and backends shared by every job of a run."""

    client: object  # backend holding the secret key
    cloud: object  # backend built from the serialized public key set
    eval_key_bytes: int


def he_setup(params, steps, row_swap: bool, seed: int, multiplies: bool) -> HeSetup:
    keys = bfv.keygen(
        params,
        rotation_steps=sorted(steps),
        row_swap=row_swap,
        rng=np.random.default_rng(seed),
    )
    blob = serialize.save_keyset(keys.public())
    cloud = bfv.BfvBackend(
        params, serialize.load_keyset(blob), rng=np.random.default_rng(seed + 1)
    )
    client = bfv.BfvBackend(params, keys, rng=np.random.default_rng(seed + 2))
    # lazy first-use work (plaintext NTT tables, the extended multiplication
    # basis) belongs to set-up, not to the first job
    zero = cloud.encrypt_zero()
    if multiplies:
        cloud.mul(zero, zero)
    client.decrypt(client.encrypt_zero())
    return HeSetup(client, cloud, len(blob))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named closed loop of jobs; ``setup`` once, then ``job(i)``."""

    name = ""
    registered = True  # listed in BENCHMARK.json
    outsourced = True  # has a client/cloud split, uploads, wire bytes and keys
    threads = "1"

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def job(self, index: int) -> Job:
        raise NotImplementedError

    def run_job(self, index: int) -> Job:
        """One job; any exception is a failed job, never retried."""
        try:
            return self.job(index)
        except Exception as exc:  # the benchmark must keep counting
            return Job(ok=False, error=f"{type(exc).__name__}: {exc}")


class PeWorkload(Workload):
    """Polynomial encoding on the real backend; subclasses run the session."""

    usecase = ""
    auth = ""

    def __init__(self, preset_name: str):
        self.preset_name = preset_name

    def instance(self, seed: int):
        spec = usecase_spec(self.usecase, auth=self.auth, seed=seed, **self.knobs)
        return build_instance(spec, self.params.n, "packed", self.params.t)

    def extra_steps(self, n: int):
        return set()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.params = vparams.preset(self.preset_name)
        n = self.params.n
        steps, swap = required_rotation_steps(
            self.instance(seed).program, stride=1, n_slots=n
        )
        extra = self.extra_steps(n)
        self.he = he_setup(
            self.params, set(steps) | extra, swap or bool(extra), seed, multiplies=True
        )

    def authenticate(self, index: int):
        """Fresh instance and secret; returns (inst, secret, blobs, t_start)."""
        s = job_seed(self.seed, index)
        inst = self.instance(s)
        secret = pe_keygen(self.params, rng=random.Random(s), make_he_keys=False)
        n = self.params.n
        t0 = clock()
        blobs = [
            serialize.save_pe_auth(pe_auth(secret, self.he.client, pad(v, n), label))
            for v, label in zip(inst.values, inst.labels)
        ]
        return inst, secret, blobs, t0


class PpRide(PeWorkload):
    """Ride-hailing under pe+pp; the packed proof runs over loopback TCP."""

    name = "pp-ride"
    usecase = "ride-hailing"
    auth = "pe+pp"
    threads = "2: the client and the cloud thread of each session"

    def __init__(self, preset_name: str = "n4096", drivers: int = 8):
        super().__init__(preset_name)
        self.knobs = {"drivers": drivers}

    def extra_steps(self, n: int):
        return set(pp_required_steps(n))

    def job(self, index: int) -> Job:
        he = self.he
        inst, secret, blobs, t0 = self.authenticate(index)
        t_up = clock()
        program = inst.program
        box: dict = {}

        def cloud_fn(ep):
            c0 = clock()
            auths = [serialize.load_pe_auth(b) for b in blobs]
            result = pe_eval(program, auths, he.cloud)
            pp_prove(he.cloud, result, ep)
            box["cloud_s"] = clock() - c0 - ep.wait_s
            return result.degree

        def client_fn(ep):
            c0 = clock()
            out = pp_verify(
                secret, he.client, program, ep,
                rng=random.Random(job_seed(self.seed, index) ^ 0xBEEF),
            )
            box["client_s"] = clock() - c0 - ep.wait_s
            return out

        degree, (accepted, m), cloud_ep, client_ep = tcp_session(cloud_fn, client_fn)
        c0 = clock()
        start, count = program.output_block
        answer = inst.decode(m[start : start + count])
        t_end = clock()
        rec = Job(
            job_s=t_end - t0,
            client_s=(t_up - t0) + box["client_s"] + (t_end - c0),
            cloud_s=box["cloud_s"],
            bytes_up=sum(map(len, blobs)) + sent_bytes(client_ep),
            bytes_down=sent_bytes(cloud_ep),
            frames=frame_log(client_ep) + frame_log(cloud_ep),
            result_cts=[ct for _, p in client_ep.transcript.received for ct in unpack_cts(p)],
            info={"result_degree": degree},
        )
        down = sent_cts(cloud_ep)
        if down != 2:
            raise JobFailure(f"packed proof sent {down} ciphertexts down, not 2")
        check(accepted, answer, inst.expected)
        rec.ok = True
        return rec


class ReqLookup(PeWorkload):
    """Encrypted lookup under pe+req: depth 4, three ReQ rounds.

    Not registered in BENCHMARK.json: a job takes about 14 s, so a 50 s run
    holds three or four jobs, and its median then follows a shared
    machine's speed swings rather than the program.  Run it by name to measure ReQ, ``mul_no_relin`` and
    relinearization at depth.
    """

    name = "req-lookup"
    registered = False
    usecase = "lookup"
    auth = "pe+req"
    threads = "2: the client and the cloud thread of each session"

    def __init__(self, preset_name: str = "n4096", entries: int = 16, chars: int = 1):
        super().__init__(preset_name)
        if entries > 26**chars:
            # usecases draws distinct lowercase entries until it has enough,
            # so an impossible shape would loop forever
            raise ValueError(
                f"{entries} distinct entries of {chars} lowercase character(s) "
                f"do not exist (at most {26**chars})"
            )
        self.knobs = {"db_entries": entries, "entry_chars": chars}

    def job(self, index: int) -> Job:
        he = self.he
        inst, secret, blobs, t0 = self.authenticate(index)
        t_up = clock()
        program = inst.program
        s = job_seed(self.seed, index)
        box: dict = {}

        def cloud_fn(ep):
            c0 = clock()
            auths = [serialize.load_pe_auth(b) for b in blobs]
            reducer = ReqCloudSession(he.cloud, ep)
            result = pe_eval(program, auths, he.cloud, reducer=reducer)
            ep.send(TAG_RESULT, pack_cts(list(result.cts)))
            box["cloud_s"] = clock() - c0 - ep.wait_s
            return reducer.rounds, result.degree

        def client_fn(ep):
            c0 = clock()
            session = ReqClientSession(secret, he.client, program, rng=random.Random(s ^ 0xC11E))
            session.serve(ep)
            tag, payload = ep.recv()
            if tag != TAG_RESULT:
                raise JobFailure(f"expected the result, got {TAG_NAMES.get(tag, tag)}")
            result = PeAuth(tuple(unpack_cts(payload)))
            start, count = program.output_block
            claim = he.client.decrypt(result.cts[0])[start : start + count]
            accepted = pe_verify(
                secret, he.client, program, result,
                claimed=claim, offset=session.final_offset(),
            )
            box["client_s"] = clock() - c0 - ep.wait_s
            return accepted, claim, result, session.expected_rounds

        (rounds, degree), (accepted, claim, result, expected_rounds), cloud_ep, client_ep = (
            memory_session(cloud_fn, client_fn)
        )
        c0 = clock()
        answer = inst.decode(claim)
        t_end = clock()
        rec = Job(
            job_s=t_end - t0,
            client_s=(t_up - t0) + box["client_s"] + (t_end - c0),
            cloud_s=box["cloud_s"],
            bytes_up=sum(map(len, blobs)) + sent_bytes(client_ep),
            bytes_down=sent_bytes(cloud_ep),
            frames=frame_log(client_ep) + frame_log(cloud_ep),
            result_cts=list(result.cts),
            info={"result_degree": degree, "req_rounds": rounds},
        )
        req_cts = sent_cts(cloud_ep, (TAG_REQ_HIGH_TERMS,)) + sent_cts(client_ep, (TAG_REQ_BLINDED,))
        if rounds != expected_rounds or req_cts != 4 * rounds:
            raise JobFailure(
                f"{rounds} ReQ round(s) (expected {expected_rounds}) moved "
                f"{req_cts} ciphertexts, not 4 per round"
            )
        check(accepted, answer, inst.expected)
        rec.ok = True
        return rec


class RepAgg(Workload):
    """Federated aggregation under replication; client-bound, no products."""

    name = "rep-agg"

    def __init__(self, preset_name: str = "n4096", lam: int = 32, clients: int = 4,
                 weights: int = 4096):
        self.preset_name = preset_name
        self.lam = lam
        self.knobs = {"clients": clients, "weight_length": weights}

    def instance(self, seed: int):
        spec = usecase_spec("aggregation", auth="rep", lam=self.lam, seed=seed, **self.knobs)
        return build_instance(spec, self.params.n // self.lam, "replicated", self.params.t)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.params = vparams.preset(self.preset_name)
        steps, swap = required_rotation_steps(
            self.instance(seed).program, stride=self.lam, n_slots=self.params.n
        )
        self.he = he_setup(self.params, steps, swap, seed, multiplies=False)

    def job(self, index: int) -> Job:
        he, lam = self.he, self.lam
        s = job_seed(self.seed, index)
        inst = self.instance(s)
        program = inst.program
        secret = rep_keygen(self.params, lam=lam, rng=random.Random(s), make_he_keys=False)
        t0 = clock()
        blobs = [
            serialize.save_rep_auth(rep_auth(secret, he.client, v, label))
            for v, label in zip(inst.values, inst.labels)
        ]
        t1 = clock()
        auths = [serialize.load_rep_auth(b) for b in blobs]
        down = serialize.save_rep_result(rep_eval(program, auths, he.cloud, lam=lam))
        t2 = clock()
        result = serialize.load_rep_result(down)
        claim = rep_decode(secret, he.client, result, program)
        accepted = rep_verify(secret, he.client, program, result, claim, inst.lengths)
        answer = inst.decode(claim)
        t3 = clock()
        rec = Job(
            job_s=t3 - t0,
            client_s=(t1 - t0) + (t3 - t2),
            cloud_s=t2 - t1,
            bytes_up=sum(map(len, blobs)),
            bytes_down=len(down),
            result_cts=list(result.cts),
            info={},
        )
        check(accepted, answer, inst.expected)
        rec.ok = True
        return rec


class AttackSim(Workload):
    """Seeded adversary batches on the mock backend, as ``vhe attack`` runs
    them.  No lattice arithmetic runs here.

    Not registered in BENCHMARK.json: a batch has no upload, no wire and no
    evaluation keys, so it has no client/cloud split or byte counts to report.
    """

    name = "attack-sim"
    registered = False
    outsourced = False
    threads = (
        "simulate_adversary's pool (min(32, nproc) workers), plus one "
        "session thread per tamper-req-message trial"
    )
    STRATEGIES = (
        ("slot-perturb", {"auth": "rep", "lam": 8}),
        ("tamper-req-message", {"auth": "pe", "degree": 4}),
    )

    preset_name = "mock64"

    def __init__(self, trials=(2000, 200)):
        self.trials = trials

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.params = vparams.preset(self.preset_name)

    def job(self, index: int) -> Job:
        s = job_seed(self.seed, index)
        t0 = clock()
        reports = [
            simulate_adversary(
                AttackSpec(strategy=name, trials=n, seed=s, preset_name=self.preset_name, **kw)
            )
            for (name, kw), n in zip(self.STRATEGIES, self.trials)
        ]
        rec = Job(job_s=clock() - t0, info={"attacks": [r.to_dict() for r in reports]})
        for r in reports:
            low, _ = wilson_interval(r.accepts, r.trials, z=ATTACK_Z)
            if low > r.analytic_bound:
                raise JobFailure(
                    f"{r.strategy}: {r.accepts}/{r.trials} accepted, Wilson lower "
                    f"bound {low:.3g} exceeds the analytic bound {r.analytic_bound:.3g}"
                )
        rec.ok = True
        return rec


def check(accepted: bool, answer, expected) -> None:
    if not accepted:
        raise JobFailure("the verifier rejected an honest result")
    if answer != expected:
        raise JobFailure("the decoded answer differs from the plaintext oracle")


WORKLOADS = {w.name: w for w in (PpRide, ReqLookup, RepAgg, AttackSim)}
