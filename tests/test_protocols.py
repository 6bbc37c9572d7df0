"""Message framing, channel endpoints (in-memory and TCP), the packed-proof
session, and re-quadratization rounds."""

import dataclasses
import random
import socket
import struct
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv, pe
from vhe import protocols as pr
from vhe.circuit import ProgramBuilder, eval_plain
from vhe.errors import DecryptionFailureError, ParameterError, ProtocolError, StructureError
from vhe.mock import MockBackend
from vhe.params import preset
from vhe.ring import slot_poly_eval

PARAMS = preset("mock64")
T = PARAMS.t
N = PARAMS.n


def make_world(seed=1):
    """Secret, separate cloud/client backends, and a quartic program."""
    rng = random.Random(seed)
    cloud = MockBackend(PARAMS, rng=random.Random(seed + 1))
    client = MockBackend(PARAMS, rng=random.Random(seed + 2))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="quartic")
    u = b.input("u")
    v = b.input("v")
    prog = b.build(b.mul(b.mul(u, u), b.mul(v, v)), output_block=(0, 4))
    uvals = [rng.randrange(T) for _ in range(N)]
    vvals = [rng.randrange(T) for _ in range(N)]
    ua = pe.pe_auth(sec, cloud, uvals, "u")
    va = pe.pe_auth(sec, cloud, vvals, "v")
    plain = eval_plain(prog, [uvals, vvals], T)
    return sec, cloud, client, prog, (ua, va), plain


# ---------------------------------------------------------------------------
# framing and channels
# ---------------------------------------------------------------------------


def test_pack_unpack_cts():
    mock = MockBackend(PARAMS, rng=random.Random(2))
    cts = [mock.encrypt([i] * N) for i in range(3)]
    payload = pr.pack_cts(cts)
    assert pr.unpack_cts(payload) == cts
    assert pr.message_ct_count(pr.TAG_REQ_HIGH_TERMS, payload) == 3
    assert pr.message_ct_count(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", 1, 2)) == 0
    with pytest.raises(ProtocolError):
        pr.unpack_cts(payload + b"junk")


@lru_cache(maxsize=None)
def _payloads():
    """One two-ciphertext payload from each backend."""
    mock = MockBackend(PARAMS, rng=random.Random(50))
    keys = bfv.keygen(PARAMS, rng=np.random.default_rng(51))
    real = bfv.BfvBackend(PARAMS, keys, rng=np.random.default_rng(52))
    vals = list(range(N))
    return tuple(pr.pack_cts([b.encrypt(vals), b.encrypt_zero()]) for b in (mock, real))


def test_unpack_cts_refuses_an_empty_payload():
    with pytest.raises(ProtocolError):
        pr.unpack_cts(b"")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unpack_cts_raises_only_protocol_error(data):
    """A truncated (possibly empty) or byte-flipped payload either parses or
    raises ProtocolError, never another exception."""
    payload = data.draw(st.sampled_from(_payloads()))
    at = data.draw(st.integers(0, len(payload) - 1))
    if data.draw(st.booleans()):
        payload = payload[:at]
    else:
        payload = payload[:at] + bytes([payload[at] ^ data.draw(st.integers(1, 255))]) + payload[at + 1 :]
    try:
        pr.unpack_cts(payload)
    except ProtocolError:
        pass


def test_memory_channel_roundtrip():
    a, b = pr.memory_channel()
    a.send(0x01, b"hello")
    assert b.recv() == (0x01, b"hello")
    b.send(0x02, b"yo")
    assert a.recv() == (0x02, b"yo")
    assert a.transcript.sent == [(0x01, b"hello")]
    assert a.transcript.received == [(0x02, b"yo")]
    assert b.transcript.sent == [(0x02, b"yo")]


def test_memory_channel_close_and_timeout():
    a, b = pr.memory_channel(timeout=0.05)
    a.close()
    with pytest.raises(ProtocolError):
        b.recv()  # peer closed
    c, d = pr.memory_channel(timeout=0.05)
    with pytest.raises(ProtocolError):
        d.recv()  # nothing arrives within the timeout
    del c


def test_tcp_endpoint_roundtrip():
    s1, s2 = socket.socketpair()
    a, b = pr.TcpEndpoint(s1), pr.TcpEndpoint(s2)
    payload = bytes(range(256)) * 10
    a.send(0x42, payload)
    assert b.recv() == (0x42, payload)
    b.send(0x43, b"")
    assert a.recv() == (0x43, b"")
    a.close()
    with pytest.raises(ProtocolError):
        b.recv()
    b.close()


@pytest.mark.parametrize("declared", [2**32 - 1, pr.MAX_FRAME_BYTES])
def test_tcp_recv_bounds_what_a_peer_declares(declared):
    """An oversized declared length is refused before anything is read, and
    one under the cap is read in chunks, so a peer that closes early never
    makes the receiver allocate the declared size."""
    s1, s2 = socket.socketpair()
    b = pr.TcpEndpoint(s2)
    s1.sendall(struct.pack("<IB", declared, 0x01) + b"x" * 1000)
    s1.close()
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            b.recv()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        b.close()
    assert peak < 4 << 20


def test_tcp_listen_connect():
    result = {}
    bound = threading.Event()

    def server():
        def ready(port):
            result["port"] = port
            bound.set()

        ep, _ = pr.tcp_listen("127.0.0.1", 0, ready=ready)
        result["ep"] = ep

    th = threading.Thread(target=server)
    th.start()
    assert bound.wait(5.0)
    client = pr.tcp_connect("127.0.0.1", result["port"])
    th.join()
    server_ep = result["ep"]
    client.send(0x01, b"ping")
    assert server_ep.recv() == (0x01, b"ping")
    server_ep.send(0x02, b"pong")
    assert client.recv() == (0x02, b"pong")
    client.close()
    server_ep.close()


def test_run_session_propagates_cloud_errors():
    def cloud(ep):
        raise StructureError("boom")

    def client(ep):
        return "done"

    with pytest.raises(StructureError):
        pr.run_session(cloud, client)


# ---------------------------------------------------------------------------
# packed proof
# ---------------------------------------------------------------------------


def test_pp_honest_accepts_and_ships_two_ciphertexts():
    sec, cloud, client, prog, auths, plain = make_world(seed=3)
    res = pe.pe_eval(prog, list(auths), cloud)
    assert res.degree == 4

    def cloud_fn(ep):
        pr.pp_prove(cloud, res, ep)
        return ep.transcript

    def client_fn(ep):
        ok, m = pr.pp_verify(sec, client, prog, ep, rng=random.Random(4))
        return ok, m

    tr, (ok, m) = pr.run_session(cloud_fn, client_fn)
    assert ok and m == plain
    assert tr.cts_sent() == 2          # c_0 and the packed response, nothing else
    assert tr.cts_received() == 0      # the challenge is scalar-only


@pytest.mark.parametrize("times,degree", [(0, 1), (1, 2), (2, 4)])
def test_pp_ciphertext_count_is_degree_independent(times, degree):
    rng = random.Random(5 + times)
    cloud = MockBackend(PARAMS, rng=random.Random(6 + times))
    client = MockBackend(PARAMS, rng=random.Random(7 + times))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="sq")
    cur = b.input("w")
    for _ in range(times):
        cur = b.mul(cur, cur)
    prog = b.build(cur, output_block=(0, 1))
    vals = [rng.randrange(T) for _ in range(N)]
    auth = pe.pe_auth(sec, cloud, vals, "w")
    res = pe.pe_eval(prog, [auth], cloud)
    assert res.degree == degree

    def cloud_fn(ep):
        pr.pp_prove(cloud, res, ep)
        return ep.transcript

    def client_fn(ep):
        return pr.pp_verify(sec, client, prog, ep, rng=random.Random(8))

    tr, (ok, m) = pr.run_session(cloud_fn, client_fn)
    assert ok
    assert tr.cts_sent() == 2


def test_pp_rejects_tampered_commitment():
    sec, cloud, client, prog, auths, plain = make_world(seed=9)
    res = pe.pe_eval(prog, list(auths), cloud)
    slots = list(cloud.decrypt(res.cts[0]))
    slots[0] = (slots[0] + 1) % T
    bad = pe.PeAuth((cloud.encrypt(slots),) + res.cts[1:])

    def cloud_fn(ep):
        pr.pp_prove(cloud, bad, ep)

    def client_fn(ep):
        why = []
        ok, _ = pr.pp_verify(sec, client, prog, ep, rng=random.Random(10), reason=why)
        return ok, why

    _, (ok, why) = pr.run_session(cloud_fn, client_fn)
    assert not ok
    assert why


def test_pp_rejects_tampered_response():
    sec, cloud, client, prog, auths, plain = make_world(seed=11)
    res = pe.pe_eval(prog, list(auths), cloud)

    def cloud_fn(ep):
        ep.send(pr.TAG_PP_RESULT, pr.pack_cts([res.cts[0]]))
        tag, payload = ep.recv()
        delta, beta = struct.unpack("<QQ", payload)
        # run the honest prover against a scratch channel that replays the
        # live challenge, read past its c_0 commitment to the packed
        # response, then flip a slot the verifier reads before relaying
        a, b = pr.memory_channel()
        b.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", delta, beta))
        pr.pp_prove(cloud, res, a)
        assert b.recv()[0] == pr.TAG_PP_RESULT
        tag, resp = b.recv()
        assert tag == pr.TAG_PP_RESPONSE
        (packed,) = pr.unpack_cts(resp)
        slots = list(cloud.decrypt(packed))
        slots[0] = (slots[0] + 1) % T
        ep.send(pr.TAG_PP_RESPONSE, pr.pack_cts([cloud.encrypt(slots)]))

    def client_fn(ep):
        why = []
        ok, _ = pr.pp_verify(sec, client, prog, ep, rng=random.Random(12), reason=why)
        return ok, why

    _, (ok, why) = pr.run_session(cloud_fn, client_fn)
    assert not ok and why


def test_pp_aborts_on_challenge_before_commitment():
    sec, cloud, client, prog, auths, plain = make_world(seed=13)

    def rogue(ep):
        ep.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", 1, 2))

    def client_fn(ep):
        with pytest.raises(ProtocolError):
            pr.pp_verify(sec, client, prog, ep, rng=random.Random(14))
        return True

    _, aborted = pr.run_session(rogue, client_fn)
    assert aborted


def test_pp_challenge_is_sent_before_any_verdict_exists():
    """The verifier's only outgoing message precedes the checks entirely."""
    sec, cloud, client, prog, auths, plain = make_world(seed=15)
    res = pe.pe_eval(prog, list(auths), cloud)

    def cloud_fn(ep):
        pr.pp_prove(cloud, res, ep)
        return ep.transcript

    def client_fn(ep):
        pr.pp_verify(sec, client, prog, ep, rng=random.Random(16))
        return ep.transcript

    cloud_tr, client_tr = pr.run_session(cloud_fn, client_fn)
    assert [t for t, _ in client_tr.sent] == [pr.TAG_PP_CHALLENGE]
    assert [t for t, _ in cloud_tr.sent] == [pr.TAG_PP_RESULT, pr.TAG_PP_RESPONSE]


class _FailingCommitment:
    """Cloud endpoint that sends c_0 one level past the client's simulated
    noise limit, so only the commitment fails to decrypt."""

    def __init__(self, ep, depth):
        self.ep = ep
        self.depth = depth

    def send(self, tag, payload):
        if tag == pr.TAG_PP_RESULT:
            (c0,) = pr.unpack_cts(payload)
            payload = pr.pack_cts([dataclasses.replace(c0, depth=self.depth)])
        self.ep.send(tag, payload)

    def recv(self):
        return self.ep.recv()


def test_pp_decryption_failure_is_not_a_reaction_oracle():
    """Whether c_0 decrypts must not change one byte the client sends: the
    session goes on with stand-in slots, the same challenge goes out, and
    the verdict (False) comes only after the last receive."""
    sec, cloud, _, prog, auths, _ = make_world(seed=17)
    res = pe.pe_eval(prog, list(auths), cloud)
    limit = max(ct.depth for ct in res.cts)

    def run(fail_commitment):
        client = MockBackend(PARAMS, depth_limit=limit, rng=random.Random(18))

        def cloud_fn(ep):
            pr.pp_prove(cloud, res, _FailingCommitment(ep, limit + 1) if fail_commitment else ep)

        def client_fn(ep):
            why = []
            ok, _ = pr.pp_verify(sec, client, prog, ep, rng=random.Random(19), reason=why)
            return ok, why, ep.transcript

        return pr.run_session(cloud_fn, client_fn)[1]

    ok, _, honest = run(False)
    failed_ok, why, failed = run(True)
    assert ok and not failed_ok
    assert "decrypt" in why[0]
    assert failed.sent_bytes() == honest.sent_bytes()
    assert len(failed.received) == 2  # rejected only after the response arrived


def _counting(backend_cls):
    """`backend_cls` that counts its key switches (rotations and row swaps)."""

    class Counting(backend_cls):
        switches = 0

        def rotate(self, a, step):
            self.switches += 1
            return super().rotate(a, step)

        def row_swap(self, a):
            self.switches += 1
            return super().row_swap(a)

    return Counting


def _power_result(backend, sec, degree, rng):
    """A degree-`degree` result (x^degree) and its program; degree 0 is a
    bare one-component tuple, which no program produces."""
    vals = [rng.randrange(T) for _ in range(N)]
    auth = pe.pe_auth(sec, backend, vals, "x")
    if degree == 0:
        return pe.PeAuth(auth.cts[:1]), None
    b = ProgramBuilder(width=N, name=f"pow{degree}")
    x = b.input("x")
    cur = x
    for _ in range(degree - 1):
        cur = b.mul(cur, x)
    prog = b.build(cur, output_block=(0, 1))
    return pe.pe_eval(prog, [auth], backend), prog


# key switches on mock64 (row of 32): one per merge whose left input is
# present (K − 1 less the all-padding pairs), log2(32 / K) fold steps and
# the row swap, with K = 2^⌈log2(d + 2)⌉
_PP_SWITCHES = {0: 1 + 4 + 1, 1: 3 + 3 + 1, 2: 3 + 3 + 1, 3: 6 + 2 + 1, 4: 6 + 2 + 1}


@pytest.mark.parametrize("degree", sorted(_PP_SWITCHES))
def test_pp_merge_then_fold_layout_and_switch_count(degree):
    """Slot i of the response holds w_i = Y_i(δ), slot d+1 holds H, and the
    prover makes exactly the merge + fold + row-swap key switches."""
    rng = random.Random(40 + degree)
    cloud = _counting(MockBackend)(PARAMS, rng=random.Random(41))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    res, prog = _power_result(cloud, sec, degree, rng)
    assert res.degree == degree
    delta, beta = rng.randrange(T), rng.randrange(T)
    cloud_ep, client_ep = pr.memory_channel()
    client_ep.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", delta, beta))
    pr.pp_prove(cloud, res, cloud_ep)
    assert cloud.switches == _PP_SWITCHES[degree]
    client_ep.recv()
    _, payload = client_ep.recv()
    (packed,) = pr.unpack_cts(payload)
    w = cloud.decrypt(packed)
    want = [slot_poly_eval(cloud.decrypt(c), delta, T) for c in res.cts]
    assert w[: degree + 1] == want
    assert w[degree + 1] == sum(pow(beta, i, T) * wi for i, wi in enumerate(want)) % T
    if prog is None:
        return
    client = MockBackend(PARAMS, rng=random.Random(42))

    def cloud_fn(ep):
        pr.pp_prove(cloud, res, ep)

    def client_fn(ep):
        return pr.pp_verify(sec, client, prog, ep, rng=random.Random(43))

    _, (ok, _) = pr.run_session(cloud_fn, client_fn)
    assert ok


def test_pp_refuses_a_degree_wider_than_a_row():
    """K = 2^⌈log2(d + 2)⌉ must fit a row of n/2 slots: d = 31 needs K = 64
    on mock64's row of 32, and nothing is sent."""
    cloud = MockBackend(PARAMS, rng=random.Random(44))
    wide = pe.PeAuth((cloud.encrypt_zero(),) * 32)
    cloud_ep, client_ep = pr.memory_channel()
    with pytest.raises(ParameterError):
        pr.pp_prove(cloud, wide, cloud_ep)
    assert cloud_ep.transcript.sent == []
    client_ep.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", 2, 3))
    pr.pp_prove(cloud, pe.PeAuth(wide.cts[:31]), cloud_ep)  # K = 32 fits


def test_real_pp_degree_two_in_thirteen_key_switches():
    """On n4096 a degree-2 proof makes 3 merges + 9 fold steps + 1 row
    swap, verifies, and leaves the response at least 60 bits of budget."""
    params = preset("n4096")
    n, t = params.n, params.t
    rng = random.Random(45)
    b = ProgramBuilder(width=n, name="xy")
    x = b.input("x")
    y = b.input("y")
    prog = b.build(b.mul(x, y), output_block=(0, 4))
    sec = pe.pe_keygen(params, extra_steps=pr.pp_required_steps(n), rng=rng)
    cloud = _counting(bfv.BfvBackend)(params, sec.he_keys.public(), rng=np.random.default_rng(46))
    client = bfv.BfvBackend(params, sec.he_keys, rng=np.random.default_rng(47))
    xs = [rng.randrange(t) for _ in range(n)]
    ys = [rng.randrange(t) for _ in range(n)]
    auths = [pe.pe_auth(sec, client, v, lbl) for v, lbl in ((xs, "x"), (ys, "y"))]
    res = pe.pe_eval(prog, auths, cloud)
    assert res.degree == 2

    def cloud_fn(ep):
        pr.pp_prove(cloud, res, ep)
        return ep.transcript

    def client_fn(ep):
        return pr.pp_verify(sec, client, prog, ep, rng=random.Random(48))

    tr, (ok, m) = pr.run_session(cloud_fn, client_fn)
    assert ok and m == eval_plain(prog, [xs, ys], t)
    assert cloud.switches == 13
    (response,) = pr.unpack_cts(tr.sent[-1][1])
    assert client.noise_budget(response) >= 60


# ---------------------------------------------------------------------------
# re-quadratization
# ---------------------------------------------------------------------------


def req_world(seed=17):
    sec, cloud, client, prog, auths, plain = make_world(seed=seed)

    def cloud_fn(ep):
        red = pr.ReqCloudSession(cloud, ep)
        r = pe.pe_eval(prog, list(auths), cloud, reducer=red)
        return r, red.rounds, ep.transcript

    def client_fn(ep):
        s = pr.ReqClientSession(sec, client, prog, rng=random.Random(seed + 1))
        s.serve(ep)
        return s

    (res, rounds, tr), session = pr.run_session(cloud_fn, client_fn)
    return sec, cloud, client, prog, plain, res, rounds, tr, session


def test_req_reduces_to_cap_and_uses_four_cts_per_round():
    sec, cloud, client, prog, plain, res, rounds, tr, session = req_world()
    assert rounds == session.expected_rounds == 1
    assert res.degree == 2
    assert tr.cts_sent() == 2 * rounds      # the two high components per round
    assert tr.cts_received() == 2 * rounds  # the two blinded replacements


def test_req_data_component_is_untouched():
    sec, cloud, client, prog, plain, res, rounds, tr, session = req_world(seed=19)
    assert client.decrypt(res.cts[0]) == plain


def test_req_verifies_with_tracked_offset_only():
    sec, cloud, client, prog, plain, res, rounds, tr, session = req_world(seed=21)
    off = session.final_offset()
    assert any(v != 0 for v in off)
    assert pe.pe_verify(sec, client, prog, res, claimed=plain[:4], offset=off)
    assert not pe.pe_verify(sec, client, prog, res, claimed=plain[:4])


def test_req_rejects_tampered_blind():
    """If the cloud alters a blinded component, the offset ledger catches it."""
    sec, cloud, client, prog, plain, res, rounds, tr, session = req_world(seed=23)
    slots = list(client.decrypt(res.cts[1]))
    slots[3] = (slots[3] + 1) % T
    bad = pe.PeAuth((res.cts[0], client.encrypt(slots), res.cts[2]))
    assert not pe.pe_verify(
        sec, client, prog, bad, claimed=plain[:4], offset=session.final_offset()
    )


def test_req_multiple_rounds_deep_chain():
    """x^8 needs reductions at two gates; every round stays 2-up/2-down."""
    rng = random.Random(25)
    cloud = MockBackend(PARAMS, rng=random.Random(26))
    client = MockBackend(PARAMS, rng=random.Random(27))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="x8")
    cur = b.input("w")
    for _ in range(3):
        cur = b.mul(cur, cur)
    prog = b.build(cur, output_block=(0, 2))
    vals = [rng.randrange(T) for _ in range(N)]
    auth = pe.pe_auth(sec, cloud, vals, "w")
    plain = eval_plain(prog, [vals], T)

    def cloud_fn(ep):
        red = pr.ReqCloudSession(cloud, ep)
        r = pe.pe_eval(prog, [auth], cloud, reducer=red)
        return r, red.rounds, ep.transcript

    def client_fn(ep):
        s = pr.ReqClientSession(sec, client, prog, rng=random.Random(28))
        s.serve(ep)
        return s

    (res, rounds, tr), session = pr.run_session(cloud_fn, client_fn)
    assert rounds == session.expected_rounds == 2
    assert res.degree == 2
    assert tr.cts_sent() == 4 and tr.cts_received() == 4
    assert client.decrypt(res.cts[0]) == plain
    assert pe.pe_verify(
        sec, client, prog, res, claimed=plain[:2], offset=session.final_offset()
    )


class _FailingHighTerms:
    """Cloud endpoint that pushes the first round's high terms to `depth`,
    past the client's simulated noise limit."""

    def __init__(self, ep, depth):
        self.ep = ep
        self.depth = depth
        self.bumped = False

    def send(self, tag, payload):
        if tag == pr.TAG_REQ_HIGH_TERMS and not self.bumped:
            self.bumped = True
            cts = pr.unpack_cts(payload)
            payload = pr.pack_cts([dataclasses.replace(c, depth=self.depth) for c in cts])
        self.ep.send(tag, payload)

    def recv(self):
        return self.ep.recv()


def test_req_decryption_failure_is_not_a_reaction_oracle():
    """High terms that fail to decrypt change no tag and no frame length the
    client sends; every round completes and only final_offset raises."""
    rng = random.Random(34)
    cloud = MockBackend(PARAMS, rng=random.Random(35))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="x8")
    cur = b.input("w")
    for _ in range(3):
        cur = b.mul(cur, cur)
    prog = b.build(cur, output_block=(0, 2))
    auth = pe.pe_auth(sec, cloud, [rng.randrange(T) for _ in range(N)], "w")
    limit = 3  # the x^8 chain's deepest high terms

    def run(fail):
        client = MockBackend(PARAMS, depth_limit=limit, rng=random.Random(36))

        def cloud_fn(ep):
            red = pr.ReqCloudSession(cloud, _FailingHighTerms(ep, limit + 1) if fail else ep)
            pe.pe_eval(prog, [auth], cloud, reducer=red)

        def client_fn(ep):
            s = pr.ReqClientSession(sec, client, prog, rng=random.Random(37))
            s.serve(ep)
            return s, [(tag, len(p)) for tag, p in ep.transcript.sent]

        return pr.run_session(cloud_fn, client_fn)[1]

    honest, honest_frames = run(False)
    failed, failed_frames = run(True)
    assert failed_frames == honest_frames
    assert failed.round == honest.round == failed.expected_rounds == 2
    honest.final_offset()
    with pytest.raises(DecryptionFailureError, match="decrypt"):
        failed.final_offset()


def test_composed_req_pp_failure_surfaces_after_the_pp_response():
    """`connect --req --pp`: a ReQ round whose high terms fail to decrypt
    changes no tag and no frame length the client sends, the packed proof
    still runs to its response, and DecryptionFailureError comes only after
    that response has been received."""
    rng = random.Random(38)
    cloud = MockBackend(PARAMS, rng=random.Random(39))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="x8")
    cur = b.input("w")
    for _ in range(3):
        cur = b.mul(cur, cur)
    prog = b.build(cur, output_block=(0, 2))
    auth = pe.pe_auth(sec, cloud, [rng.randrange(T) for _ in range(N)], "w")
    limit = 3  # the x^8 chain's deepest high terms

    def run(fail):
        client = MockBackend(PARAMS, depth_limit=limit, rng=random.Random(40))

        def cloud_fn(ep):
            red = pr.ReqCloudSession(cloud, _FailingHighTerms(ep, limit + 1) if fail else ep)
            pr.pp_prove(cloud, pe.pe_eval(prog, [auth], cloud, reducer=red), ep)

        def client_fn(ep):
            try:
                outcome = pr.client_session(sec, client, prog, ep, True, True, random.Random(41), [])
            except DecryptionFailureError as exc:
                outcome = exc
            sent = [(tag, len(p)) for tag, p in ep.transcript.sent]
            return outcome, sent, [tag for tag, _ in ep.transcript.received]

        return pr.run_session(cloud_fn, client_fn)[1]

    (ok, _), honest_sent, honest_received = run(False)
    failure, failed_sent, failed_received = run(True)
    assert ok
    assert isinstance(failure, DecryptionFailureError)
    assert failed_sent == honest_sent
    assert [tag for tag, _ in failed_sent][-1] == pr.TAG_PP_CHALLENGE
    assert failed_received == honest_received
    assert failed_received[-1] == pr.TAG_PP_RESPONSE


def _receive_wrong_count(kind):
    """Queue one message of `kind` carrying the wrong number of ciphertexts
    and run the side that receives it."""
    sec, cloud, client, prog, auths, _ = make_world(seed=44)
    ct = cloud.encrypt([1] * N)
    ep, peer = pr.memory_channel(timeout=1.0)
    if kind == "pp-result":
        peer.send(pr.TAG_PP_RESULT, pr.pack_cts([ct, ct]))
        pr.pp_verify(sec, client, prog, ep, rng=random.Random(45))
    elif kind == "pp-response":
        peer.send(pr.TAG_PP_RESULT, pr.pack_cts([ct]))
        peer.send(pr.TAG_PP_RESPONSE, pr.pack_cts([ct, ct]))
        pr.pp_verify(sec, client, prog, ep, rng=random.Random(46))
    elif kind == "req-high-terms":
        pr.ReqClientSession(sec, client, prog, rng=random.Random(47)).respond(
            pr.pack_cts([ct, ct, ct])
        )
    elif kind == "req-blinded":
        peer.send(pr.TAG_REQ_BLINDED, pr.pack_cts([ct]))
        pr.ReqCloudSession(cloud, ep).reduce((ct,) * 5, 0)
    else:  # an empty result message
        peer.send(pr.TAG_RESULT, pr.pack_cts([]))
        pr.client_session(sec, client, prog, ep, False, False, random.Random(48))


@pytest.mark.parametrize(
    "kind", ["pp-result", "pp-response", "req-high-terms", "req-blinded", "result"]
)
def test_wrong_ciphertext_count_is_a_protocol_error(kind):
    """A hostile peer's message with the wrong number of ciphertexts aborts
    the session with ProtocolError, never a bare ValueError or IndexError."""
    with pytest.raises(ProtocolError, match="ciphertext"):
        _receive_wrong_count(kind)


def test_req_round_limit_enforced():
    sec, cloud, client, prog, plain, res, rounds, tr, session = req_world(seed=29)
    with pytest.raises(ProtocolError):
        session.respond(pr.pack_cts([client.encrypt([0] * N)] * 2))


def test_req_cloud_rejects_bad_degree():
    cloud = MockBackend(PARAMS, rng=random.Random(30))
    a, _ = pr.memory_channel()
    red = pr.ReqCloudSession(cloud, a)
    with pytest.raises(StructureError):
        red.reduce((cloud.encrypt([0] * N),) * 2, 0)  # degree 1: nothing to do


def test_req_then_pp_composes():
    sec, cloud, client, prog, auths, plain = make_world(seed=31)

    def cloud_fn(ep):
        red = pr.ReqCloudSession(cloud, ep)
        r = pe.pe_eval(prog, list(auths), cloud, reducer=red)
        pr.pp_prove(cloud, r, ep)

    def client_fn(ep):
        s = pr.ReqClientSession(sec, client, prog, rng=random.Random(32))
        s.serve(ep)
        return pr.pp_verify(
            sec,
            client,
            prog,
            ep,
            offset=s.final_offset(),
            rng=random.Random(33),
            used_reducer=True,
        )

    _, (ok, m) = pr.run_session(cloud_fn, client_fn)
    assert ok and m == plain
