"""Acceptance gate: one test per numbered criterion, each a self-contained
experiment with its tolerance stated in the docstring.  `pytest -v` prints
one PASSED/FAILED line per criterion."""

import math
import random
import time

import numpy as np
import pytest

from vhe import bfv
from vhe.circuit import (
    ProgramBuilder,
    eval_he,
    eval_plain,
    random_program,
    required_rotation_steps,
)
from vhe.harness import AttackSpec, run_bench, run_usecase, simulate_adversary, usecase_spec
from vhe.mock import MockBackend
from vhe.params import preset
from vhe.pe import PeAuth, pe_auth, pe_eval, pe_keygen, pe_verify
from vhe.protocols import (
    TAG_PP_RESPONSE,
    TAG_REQ_BLINDED,
    TAG_REQ_HIGH_TERMS,
    TAG_RESULT,
    ReqClientSession,
    ReqCloudSession,
    client_session,
    cloud_session,
    message_ct_count,
    pack_cts,
    pp_prove,
    pp_verify,
    run_session,
    unpack_cts,
)
from vhe.rep import RepResult, rep_auth, rep_decode, rep_eval, rep_keygen, rep_verify

SEED = 20260815


def test_criterion_1_oracle_equivalence():
    """200 seeded random programs (≤8 gates, depth ≤3) at N=4096: the real
    backend, the mock backend, and the plaintext oracle agree exactly, and
    honest replication and polynomial-encoding pipelines both accept.
    Tolerance: exact equality; runtime < 10 minutes."""
    t0 = time.perf_counter()
    params = preset("n4096")
    t, n = params.t, params.n
    rng = random.Random(SEED)
    programs = [
        random_program(rng, n, t, num_inputs=rng.randint(1, 3), name=f"rnd{i}")
        for i in range(200)
    ]

    steps: set[int] = set()
    swap = False
    for prog in programs:
        s, sw = required_rotation_steps(prog, stride=1, n_slots=n)
        steps |= s
        swap = swap or sw
    keys = bfv.keygen(
        params, rotation_steps=sorted(steps), row_swap=swap, rng=np.random.default_rng(SEED)
    )
    real = bfv.BfvBackend(params, keys, rng=np.random.default_rng(SEED + 1))
    mock = MockBackend(params, rng=random.Random(SEED + 2))

    for i, prog in enumerate(programs):
        vals = [
            [rng.randrange(t) for _ in range(n)] for _ in range(prog.num_inputs)
        ]
        expected = eval_plain(prog, vals, t)
        assert mock.decrypt(eval_he(prog, [mock.encrypt(v) for v in vals], mock)) == expected
        assert real.decrypt(eval_he(prog, [real.encrypt(v) for v in vals], real)) == expected

        # polynomial-encoding pipeline on the same program
        pe_sec = pe_keygen(params, rng=random.Random(SEED + i), make_he_keys=False)
        pe_auths = [
            pe_auth(pe_sec, mock, v, prog.inputs[k]) for k, v in enumerate(vals)
        ]
        res = pe_eval(prog, pe_auths, mock)
        start, count = prog.output_block
        claim = mock.decrypt(res.cts[0])[start : start + count]
        assert pe_verify(pe_sec, mock, prog, res, claimed=claim)

    # replication pipeline: same generator and budgets on the λ-scaled layout
    lam = 8
    rng2 = random.Random(SEED)
    for i in range(200):
        prog = random_program(
            rng2, n // lam, t, num_inputs=rng2.randint(1, 3), name=f"rnd{i}"
        )
        vals = [
            [rng2.randrange(t) for _ in range(n // lam)]
            for _ in range(prog.num_inputs)
        ]
        sec = rep_keygen(params, lam=lam, rng=random.Random(SEED + i), make_he_keys=False)
        auths = [
            rep_auth(sec, mock, v, prog.inputs[k]) for k, v in enumerate(vals)
        ]
        res = rep_eval(prog, auths, mock, lam=lam)
        claim = rep_decode(sec, mock, res, prog)
        assert rep_verify(sec, mock, prog, res, claim, [len(v) for v in vals])
        start, count = prog.output_block
        assert claim == eval_plain(prog, vals, t)[start : start + count]

    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"oracle-equivalence sweep took {elapsed:.0f}s"
    print(f"criterion 1: 200 programs agree across backends in {elapsed:.0f}s")


def test_criterion_2_rep_forgery_statistics():
    """λ=8 slot-perturb with subset size 4, 10^5 mock trials: the 99% Wilson
    interval of the empirical acceptance rate covers 1/C(8,4) = 1/70.
    Runtime < 5 minutes."""
    t0 = time.perf_counter()
    report = simulate_adversary(
        AttackSpec(strategy="slot-perturb", trials=100_000, seed=SEED, lam=8, subset=4)
    )
    assert report.analytic_bound == pytest.approx(1 / 70)
    assert report.wilson_low <= 1 / 70 <= report.wilson_high, (
        f"rate {report.rate:.5f}, interval "
        f"[{report.wilson_low:.5f}, {report.wilson_high:.5f}] misses 1/70"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(
        f"criterion 2: rate {report.rate:.5f} vs 1/70 = {1 / 70:.5f} "
        f"(interval [{report.wilson_low:.5f}, {report.wilson_high:.5f}]) "
        f"in {elapsed:.0f}s"
    )


def test_criterion_3_pe_tamper_rejection():
    """10^4 random coefficient tampers against a degree-8 encoding at
    t ≈ 2^40: zero acceptances (analytic bound 2d/t gives expectation
    below 10^-6).  Runtime < 5 minutes."""
    t0 = time.perf_counter()
    report = simulate_adversary(
        AttackSpec(
            strategy="tamper-pe-coefficient",
            trials=10_000,
            seed=SEED,
            preset_name="mock64_wide",
            degree=8,
        )
    )
    t = preset("mock64_wide").t
    assert t.bit_length() == 40
    assert report.analytic_bound == pytest.approx(16 / t)
    assert report.accepts == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(
        f"criterion 3: 0/{report.trials} tampers accepted "
        f"(bound {report.analytic_bound:.2e}) in {elapsed:.0f}s"
    )


def _degree_program(n: int, degree: int):
    b = ProgramBuilder(n, name=f"deg{degree}")
    x, y = b.input("x"), b.input("y")
    w = b.add(x, y) if degree == 1 else b.mul(x, y)
    d = min(degree, 2)
    while d < degree:
        w = b.mul(w, w)
        d *= 2
    return b.build(b.inner_sum(w, 4), output_block=(0, 1))


def test_criterion_4_pp_two_ciphertexts_and_tamper_rejection():
    """The packed proof sends exactly 2 ciphertexts cloud→client for result
    degrees 1, 2, 4, and 8 and honest runs accept; 10^4 tampered-response
    trials at t ≈ 2^40 yield zero accepts (bound 2(d+N)/t + d/(t−1))."""
    t0 = time.perf_counter()
    params = preset("mock64")
    t, n = params.t, params.n
    for degree in (1, 2, 4, 8):
        prog = _degree_program(n, degree)
        rng = random.Random(SEED + degree)
        secret = pe_keygen(params, rng=rng, make_he_keys=False)
        backend = MockBackend(params, rng=rng)
        auths = [
            pe_auth(secret, backend, [rng.randrange(t) for _ in range(n)], lbl)
            for lbl in ("x", "y")
        ]
        result = pe_eval(prog, auths, backend)
        assert result.degree == degree

        def cloud(ep):
            pp_prove(backend, result, ep)
            return ep.transcript

        def client(ep):
            return pp_verify(
                secret, backend, prog, ep, rng=random.Random(SEED ^ degree)
            )

        tr, (ok, _) = run_session(cloud, client)
        assert ok, f"honest packed proof rejected at degree {degree}"
        assert tr.cts_sent() == 2, (
            f"degree {degree}: cloud sent {tr.cts_sent()} ciphertexts, wanted 2"
        )

    report = simulate_adversary(
        AttackSpec(
            strategy="tamper-pp-response",
            trials=10_000,
            seed=SEED,
            preset_name="mock64_wide",
            degree=8,
        )
    )
    assert report.accepts == 0
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 4: 2 cts at degrees 1/2/4/8; 0/{report.trials} tampered "
        f"responses accepted (bound {report.analytic_bound:.2e}) in {elapsed:.0f}s"
    )


def test_criterion_5_req_depth3_chain_on_real_backend():
    """Depth-3 multiplication chain (x^8) with re-quadratization on the real
    backend: at-rest degree ≤ 2 throughout, exactly 4 ciphertexts per round,
    verification with the shift-derived offset accepts, and the decrypted
    result is bit-exact against the no-reduction pipeline."""
    params = preset("mock64")
    t, n = params.t, params.n
    b = ProgramBuilder(n, name="x8")
    x = b.input("x")
    w = b.mul(x, x)
    w = b.mul(w, w)
    prog = b.build(b.mul(w, w), output_block=(0, 4))

    rng = random.Random(SEED)
    secret = pe_keygen(params, rng=rng)
    backend = bfv.BfvBackend(params, secret.he_keys, rng=np.random.default_rng(SEED))
    vals = [rng.randrange(t) for _ in range(n)]
    auth = pe_auth(secret, backend, vals, "x")

    at_rest: list[int] = []

    class Auditor(ReqCloudSession):
        def reduce(self, comps, gate_idx):
            assert len(comps) - 1 <= 4, "transient degree above 4"
            out = super().reduce(comps, gate_idx)
            at_rest.append(len(out) - 1)
            return out

    def cloud(ep):
        res = pe_eval(prog, [auth], backend, reducer=Auditor(backend, ep))
        ep.send(TAG_RESULT, pack_cts(list(res.cts)))
        return ep.transcript

    def client(ep):
        session = ReqClientSession(secret, backend, prog, rng=random.Random(SEED + 1))
        session.serve(ep)
        tag, payload = ep.recv()
        assert tag == TAG_RESULT
        return session, unpack_cts(payload)

    tr, (session, cts) = run_session(cloud, client)
    assert at_rest and max(at_rest) <= 2
    assert len(cts) - 1 <= 2

    highs = [(tag, p) for tag, p in tr.sent if tag == TAG_REQ_HIGH_TERMS]
    blinds = [(tag, p) for tag, p in tr.received if tag == TAG_REQ_BLINDED]
    assert len(highs) == len(blinds) == 2  # two over-cap products in x^8
    for (ht, hp), (bt, bp) in zip(highs, blinds):
        assert message_ct_count(ht, hp) + message_ct_count(bt, bp) == 4

    result = PeAuth(tuple(cts))
    claim = backend.decrypt(result.cts[0])[0:4]
    assert pe_verify(
        secret, backend, prog, result, claimed=claim, offset=session.final_offset()
    )

    plain = pe_eval(prog, [auth], backend)  # no reduction: degree 8 at rest
    assert plain.degree == 8
    assert backend.decrypt(plain.cts[0]) == backend.decrypt(result.cts[0])
    assert claim == [pow(v, 8, t) for v in vals[:4]]
    print("criterion 5: 2 rounds × 4 cts, at-rest degree ≤ 2, bit-exact result")


def test_criterion_6_lambda_scaling_trends():
    """Amortized per-slot homomorphic-add cost, measured on the real backend:
    replication ratio λ=32 : λ=16 within [1.5, 2.5] (linear in λ); the
    polynomial encoding's ratio within [0.8, 1.2] (constant).  Absolute
    timings are hardware-dependent and not asserted."""
    rows = run_bench(
        preset_name="mock1024", lams=(16, 32), ops=("add",), repeats=5, seed=SEED
    )

    def per_slot(scheme, lam):
        return next(
            r.per_slot_us for r in rows if r.scheme == scheme and r.lam == lam
        )

    rep_ratio = per_slot("rep", 32) / per_slot("rep", 16)
    pe_ratio = per_slot("pe", 32) / per_slot("pe", 16)
    assert 1.5 <= rep_ratio <= 2.5, f"replication add ratio {rep_ratio:.2f}"
    assert 0.8 <= pe_ratio <= 1.2, f"encoding add ratio {pe_ratio:.2f}"
    print(f"criterion 6: rep add ratio {rep_ratio:.2f}, pe add ratio {pe_ratio:.2f}")


def test_criterion_7_communication_accounting():
    """Ride-hailing under the polynomial encoding costs exactly +1 uploaded
    and +2 downloaded ciphertexts against the unauthenticated baseline; a
    replication upload of l values at factor λ takes ⌈l·λ/N⌉ ciphertexts."""
    report = run_usecase(usecase_spec("ride-hailing", auth="pe", seed=SEED))
    assert report.verdict is True
    sent_delta = report.cts_sent_per_client - report.baseline_cts_sent_per_client
    recv_delta = report.cts_received_client - report.baseline_cts_received_client
    assert (sent_delta, recv_delta) == (1, 2)

    spec = usecase_spec("aggregation", auth="rep", seed=SEED)
    rep_report = run_usecase(spec)
    assert rep_report.verdict is True
    n = rep_report.n
    assert rep_report.cts_sent_per_client == math.ceil(spec.weight_length * spec.lam / n)

    params = preset("mock64")
    sec = rep_keygen(params, lam=8, rng=random.Random(SEED), make_he_keys=False)
    mock = MockBackend(params, rng=random.Random(SEED))
    for length in (1, 8, 9, 100):
        auth = rep_auth(sec, mock, [1] * length, f"len{length}")
        assert len(auth.cts) == math.ceil(length * 8 / params.n)
    print(
        f"criterion 7: pe +{sent_delta}/+{recv_delta} cts; rep uses "
        f"{rep_report.cts_sent_per_client} = ceil(l·λ/N) cts per input"
    )


class _OrderedEndpoint:
    """Endpoint wrapper logging the global send/receive order."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def send(self, tag, payload):
        self.log.append("send")
        self.inner.send(tag, payload)

    def recv(self):
        out = self.inner.recv()
        self.log.append("recv")
        return out

    @property
    def transcript(self):
        return self.inner.transcript


class _ResponseTamperer:
    """Pass-through endpoint that perturbs the packed-proof response."""

    def __init__(self, inner, backend):
        self.inner = inner
        self.backend = backend

    def send(self, tag, payload):
        if tag == TAG_PP_RESPONSE:
            (ct,) = unpack_cts(payload)
            delta = [1] + [0] * (self.backend.params.n - 1)
            payload = pack_cts([self.backend.add(ct, self.backend.encrypt(delta))])
        self.inner.send(tag, payload)

    def recv(self):
        return self.inner.recv()


def _scenario_pp(params, tamper: bool):
    """Packed proof; the cloud optionally perturbs its final response."""
    t, n = params.t, params.n
    rng = random.Random(SEED)
    secret = pe_keygen(params, rng=rng, make_he_keys=False)
    backend = MockBackend(params, rng=rng)
    prog = _degree_program(n, 2)
    auths = [
        pe_auth(secret, backend, [rng.randrange(t) for _ in range(n)], lbl)
        for lbl in ("x", "y")
    ]
    result = pe_eval(prog, auths, backend)

    def cloud(ep):
        pp_prove(backend, result, _ResponseTamperer(ep, backend) if tamper else ep)

    log: list = []

    def client(ep):
        wrapped = _OrderedEndpoint(ep, log)
        ok, _ = pp_verify(secret, backend, prog, wrapped, rng=random.Random(SEED + 7))
        return ok, ep.transcript

    _, (ok, tr) = run_session(cloud, client)
    return ok, tr.sent_bytes(), log


def _scenario_req_result(params, tamper: bool):
    """Reduction rounds, then result shipping; the cloud optionally perturbs
    the shipped result (after all interaction)."""
    t, n = params.t, params.n
    rng = random.Random(SEED)
    secret = pe_keygen(params, rng=rng, make_he_keys=False)
    backend = MockBackend(params, rng=rng)
    prog = _degree_program(n, 4)
    auths = [
        pe_auth(secret, backend, [rng.randrange(t) for _ in range(n)], lbl)
        for lbl in ("x", "y")
    ]

    def cloud(ep):
        res = pe_eval(prog, auths, backend, reducer=ReqCloudSession(backend, ep))
        cts = list(res.cts)
        if tamper:
            delta = [3] + [0] * (n - 1)
            cts[0] = backend.add(cts[0], backend.encrypt(delta))
        ep.send(TAG_RESULT, pack_cts(cts))

    log: list = []

    def client(ep):
        wrapped = _OrderedEndpoint(ep, log)
        session = ReqClientSession(secret, backend, prog, rng=random.Random(SEED + 9))
        session.serve(wrapped)
        tag, payload = wrapped.recv()
        assert tag == TAG_RESULT
        res = PeAuth(tuple(unpack_cts(payload)))
        claim = backend.decrypt(res.cts[0])[0:1]
        ok = pe_verify(
            secret, backend, prog, res, claimed=claim,
            offset=session.final_offset(),
        )
        return ok, ep.transcript

    _, (ok, tr) = run_session(cloud, client)
    return ok, tr.sent_bytes(), log


def _scenario_rep_result(params, tamper: bool):
    """Replication session: the cloud ships its result, optionally
    perturbed, in one message; the client only receives."""
    t, n = params.t, params.n
    lam = 8
    rng = random.Random(SEED)
    secret = rep_keygen(params, lam=lam, rng=rng, make_he_keys=False)
    backend = MockBackend(params, rng=rng)
    b = ProgramBuilder(n // lam, name="dot")
    xw, yw = b.input("x"), b.input("y")
    prog = b.build(b.inner_sum(b.mul(xw, yw), 4), output_block=(0, 1))
    auths = [
        rep_auth(secret, backend, [rng.randrange(t) for _ in range(4)], lbl)
        for lbl in ("x", "y")
    ]
    result = rep_eval(prog, auths, backend, lam=lam)
    if tamper:
        bad = backend.add(result.cts[0], backend.encrypt([5] * n))
        result = RepResult((bad,) + result.cts[1:], result.tag)

    log: list = []

    def client(ep):
        ok, _ = client_session(secret, backend, prog, _OrderedEndpoint(ep, log))
        return ok, ep.transcript

    _, (ok, tr) = run_session(lambda ep: cloud_session(backend, ep, lambda _: result), client)
    return ok, tr.sent_bytes(), log


def test_criterion_8_verdict_confidentiality():
    """In every interactive scenario, the bytes a client sends toward the
    cloud are identical whether it will accept or reject — the verdict is
    decided strictly after the client's last outbound message and never
    serialized toward the evaluator."""
    params = preset("mock64")
    for scenario in (_scenario_pp, _scenario_req_result, _scenario_rep_result):
        ok_h, sent_h, log_h = scenario(params, tamper=False)
        ok_t, sent_t, log_t = scenario(params, tamper=True)
        name = scenario.__name__
        assert ok_h is True and ok_t is False, f"{name}: verdicts {ok_h}/{ok_t}"
        assert sent_h == sent_t, f"{name}: client bytes differ with the verdict"
        for log in (log_h, log_t):
            last_recv = max(i for i, e in enumerate(log) if e == "recv")
            sends_after = [e for e in log[last_recv + 1 :] if e == "send"]
            assert not sends_after, f"{name}: client spoke after deciding"
    print("criterion 8: client→cloud bytes verdict-independent in 3 scenarios")
