"""Message framing, channel endpoints (in-memory and TCP), the packed-proof
session, and re-quadratization rounds."""

import dataclasses
import hashlib
import json
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

from vhe import bfv, pe, rep
from vhe import protocols as pr
from vhe.circuit import ProgramBuilder, eval_plain
from vhe.errors import (
    DecryptionFailureError, ParameterError, ProtocolError, SerializationError, StructureError,
)
from vhe.mock import MockBackend
from vhe.params import SHRINK_MARGIN_BITS, preset
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


def test_unpack_cts_refuses_shapes_off_the_parameters():
    """With the parameters, a ciphertext of no rows, of more than k rows or
    of the wrong n is a ProtocolError at unpack; every prefix 1 … k loads."""
    ct, _ = pr.unpack_cts(_payloads()[1], 2, PARAMS)
    k = len(PARAMS.q_chain)
    for rows in range(1, k + 1):
        (got,) = pr.unpack_cts(pr.pack_cts([bfv.Ciphertext(ct.data[:, :rows])]), 1, PARAMS)
        assert got.data.shape == (2, rows, N)
    bad = [
        bfv.Ciphertext(ct.data[:, :0]),
        bfv.Ciphertext(np.concatenate([ct.data, ct.data[:, :1]], axis=1)),
        bfv.Ciphertext(ct.data[..., : N // 2]),
        MockBackend(preset("mock16"), rng=random.Random(53)).encrypt([1] * 16),
    ]
    for c in bad:
        payload = pr.pack_cts([c])
        pr.unpack_cts(payload)  # well-formed without the parameters
        with pytest.raises(ProtocolError):
            pr.unpack_cts(payload, 1, PARAMS)


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


def test_tcp_failures_are_protocol_errors():
    """A refused connection, a taken port and a receive that times out end
    as ProtocolError, as the in-memory channel's timeout does."""
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))  # bound, never listening: connect is refused
        port = held.getsockname()[1]
        with pytest.raises(ProtocolError, match="connecting"):
            pr.tcp_connect("127.0.0.1", port, timeout=5.0)
        with pytest.raises(ProtocolError, match="listening"):
            pr.tcp_listen("127.0.0.1", port)
    s1, s2 = socket.socketpair()
    s2.settimeout(0.05)
    b = pr.TcpEndpoint(s2)
    with pytest.raises(ProtocolError, match="receiving"):
        b.recv()  # nothing arrives within the timeout
    s1.close()
    b.close()


def test_a_silent_client_times_the_cloud_out(monkeypatch):
    """A client that connects and sends nothing ends the cloud's session in
    ProtocolError after SOCKET_TIMEOUT_S, not never."""
    monkeypatch.setattr(pr, "SOCKET_TIMEOUT_S", 0.2)
    box = {}
    bound = threading.Event()

    def server():
        def ready(port):
            box["port"] = port
            bound.set()

        ep, _ = pr.tcp_listen("127.0.0.1", 0, ready=ready)
        try:
            pr.cloud_session(MockBackend(PARAMS), ep, lambda _: None)
        except ProtocolError as exc:
            box["error"] = exc
        finally:
            ep.close()

    th = threading.Thread(target=server)
    th.start()
    assert bound.wait(5.0)
    with socket.create_connection(("127.0.0.1", box["port"])):
        th.join(10.0)
        timed_out = not th.is_alive()
    th.join()
    assert timed_out and "receiving" in str(box["error"])


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


def _tampered_pp_verdict(seed, slot):
    """Run the honest prover on make_world(seed), add 1 to `slot` of its
    packed response in flight, and return the client's (verdict, reasons)."""
    sec, cloud, client, prog, auths, plain = make_world(seed=seed)
    res = pe.pe_eval(prog, list(auths), cloud)

    def cloud_fn(ep):
        ep.send(pr.TAG_PP_RESULT, pr.pack_cts([res.cts[0]]))
        tag, payload = ep.recv()
        delta, beta = struct.unpack("<QQ", payload)
        # run the honest prover against a scratch channel that replays the
        # live challenge, read past its c_0 commitment to the packed
        # response, then flip one slot before relaying
        a, b = pr.memory_channel()
        b.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", delta, beta))
        pr.pp_prove(cloud, res, a)
        assert b.recv()[0] == pr.TAG_PP_RESULT
        tag, resp = b.recv()
        assert tag == pr.TAG_PP_RESPONSE
        (packed,) = pr.unpack_cts(resp)
        slots = list(cloud.decrypt(packed))
        slots[slot] = (slots[slot] + 1) % T
        ep.send(pr.TAG_PP_RESPONSE, pr.pack_cts([cloud.encrypt(slots)]))

    def client_fn(ep):
        why = []
        ok, _ = pr.pp_verify(sec, client, prog, ep, rng=random.Random(seed + 1), reason=why)
        return ok, why

    return pr.run_session(cloud_fn, client_fn)[1]


def test_pp_rejects_tampered_response():
    ok, why = _tampered_pp_verdict(11, 0)
    assert not ok and why


def test_pp_rejects_a_nonzero_padding_lane():
    """The quartic's response sums into K = 8 lanes, of which 6 and 7 carry
    nothing: slot N − 1 lies in lane 7, and raising it is caught there."""
    ok, why = _tampered_pp_verdict(11, N - 1)
    assert not ok and "padding" in why[0]


def test_pp_refuses_a_response_under_the_folded_tag():
    """A cloud that tags its response 0x03, as the cloud-folded response
    was, aborts the session instead of having its slots summed."""
    sec, cloud, client, prog, auths, _ = make_world(seed=12)
    res = pe.pe_eval(prog, list(auths), cloud)

    def cloud_fn(ep):
        ep.send(pr.TAG_PP_RESULT, pr.pack_cts([res.cts[0]]))
        ep.recv()
        ep.send(0x03, pr.pack_cts([res.cts[0]]))

    def client_fn(ep):
        with pytest.raises(ProtocolError, match="expected pp-response"):
            pr.pp_verify(sec, client, prog, ep, rng=random.Random(13))
        return True

    assert pr.run_session(cloud_fn, client_fn)[1]


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


def test_real_pp_too_short_prefix_is_rejected_without_a_reaction():
    """On the real backend, a cloud that switches its commitment and
    response down to one prime (below the noise guard's k′) is rejected
    after the last receive, and the client sends the same bytes as in the
    honest run at k′."""
    rng = random.Random(60)
    b = ProgramBuilder(width=N, name="xy")
    prog = b.build(b.mul(b.input("x"), b.input("y")), output_block=(0, 4))
    sec = pe.pe_keygen(PARAMS, extra_steps=pr.pp_required_steps(N), rng=rng)
    client = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(61))
    cloud = bfv.BfvBackend(PARAMS, sec.he_keys.public(), rng=np.random.default_rng(62))
    auths = [pe.pe_auth(sec, client, [rng.randrange(T) for _ in range(N)], lbl) for lbl in "xy"]
    res = pe.pe_eval(prog, auths, cloud)

    def run(rows):
        # the cloud's choice of prefix
        cloud._switch = bfv.BaseConverter(PARAMS.q_chain[rows:], PARAMS.q_chain[:rows])

        def cloud_fn(ep):
            pr.pp_prove(cloud, res, ep)

        def client_fn(ep):
            why = []
            ok, _ = pr.pp_verify(sec, client, prog, ep, rng=random.Random(63), reason=why)
            return ok, why, ep.transcript

        return pr.run_session(cloud_fn, client_fn)[1]

    ok, _, honest = run(PARAMS.shrink_primes)
    short_ok, why, short = run(1)
    assert ok and not short_ok
    assert "decrypt" in why[0]
    assert [pr.unpack_cts(p)[0].data.shape[1] for _, p in short.received] == [1, 1]
    assert short.sent_bytes() == honest.sent_bytes()


def _counting(backend_cls):
    """`backend_cls` that counts its key switches (rotations and row swaps)
    and keeps the last ciphertext it shrank."""

    class Counting(backend_cls):
        switches = 0
        unshrunk = None

        def shrink(self, ct):
            self.unshrunk = ct
            return super().shrink(ct)

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


# key switches: one per merge whose left input is present (K − 1 less the
# all-padding pairs), with K = 2^⌈log2(d + 2)⌉
_PP_SWITCHES = {0: 1, 1: 3, 2: 3, 3: 6, 4: 6}


@pytest.mark.parametrize("degree", sorted(_PP_SWITCHES))
def test_pp_merge_then_fold_layout_and_switch_count(degree):
    """Summed by slot mod K on the client, the response holds w_i = Y_i(δ)
    in lane i, H in lane d+1 and zero in the padding lanes, and the prover
    makes exactly the merge key switches."""
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
    width = 1 << (degree + 1).bit_length()
    w = (np.array(cloud.decrypt(packed)).reshape(-1, width).sum(0) % T).tolist()
    want = [slot_poly_eval(cloud.decrypt(c), delta, T) for c in res.cts]
    assert w[: degree + 1] == want
    assert w[degree + 1] == sum(pow(beta, i, T) * wi for i, wi in enumerate(want)) % T
    assert not any(w[degree + 2 :])
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


def test_pp_rotates_only_by_the_required_steps():
    """At every degree the encoding allows, the prover rotates only by the
    strides of pp_required_steps and never swaps rows, so one keyset
    serves them all; mock16's row of 8 caps the strides at 4."""
    steps = pr.pp_required_steps(N)
    assert steps == {1, 2, 4, 8} and pr.pp_required_steps(16) == {1, 2, 4}

    class Recording(MockBackend):
        def rotate(self, a, step):
            assert step in steps
            return super().rotate(a, step)

        def row_swap(self, a):
            raise AssertionError("the packed proof swapped rows")

    cloud = Recording(PARAMS, rng=random.Random(46))
    for degree in range(pe.MAX_DEGREE + 1):
        cloud_ep, client_ep = pr.memory_channel()
        client_ep.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", 2, 3))
        pr.pp_prove(cloud, pe.PeAuth((cloud.encrypt_zero(),) * (degree + 1)), cloud_ep)


def test_pp_encodes_each_plaintext_once():
    """At degree 2 the prover encodes δ^j·β^i for i ≤ 2 and one mask per
    stride (K = 4: strides 1 and 2): 5 plaintexts, the one encode_plain
    under every mul_plain, for 8 products (y_3 reuses y_0 = c_0 ⊙ δ^j)."""

    class Counting(MockBackend):
        encodes = products = 0

        def encode_plain(self, const):
            self.encodes += 1
            return super().encode_plain(const)

        def mul_plain(self, a, const):
            self.products += 1
            return super().mul_plain(a, const)

    cloud = Counting(PARAMS, rng=random.Random(47))
    cloud_ep, client_ep = pr.memory_channel()
    client_ep.send(pr.TAG_PP_CHALLENGE, struct.pack("<QQ", 2, 3))
    pr.pp_prove(cloud, pe.PeAuth((cloud.encrypt_zero(),) * 3), cloud_ep)
    assert (cloud.encodes, cloud.products) == (5, 8)


def test_real_pp_degree_two_in_three_key_switches():
    """On n4096 a degree-2 proof makes 3 merges and no other key switch,
    verifies, and leaves the response at least 60 bits of budget before
    it is shrunk; shrunk, it keeps at least the switch's margin."""
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
    assert cloud.switches == 3
    (response,) = pr.unpack_cts(tr.sent[-1][1], params=params)
    assert response.data.shape == (2, params.shrink_primes, n)
    assert client.noise_budget(cloud.unshrunk) >= 60
    assert client.noise_budget(response) >= SHRINK_MARGIN_BITS
    # two decrypt-only messages at k′ = 2: frame ‖ count ‖ container ‖ residues
    assert params.shrink_primes == 2
    assert len(tr.sent_bytes()) == 2 * (5 + 1 + 17 + 4 * 2 * params.shrink_primes * n)


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


def test_req_walks_the_offsets_once_and_answers_as_pinned(monkeypatch):
    """A seeded 3-round session (x^16) walks the program once, and its
    answers and final offset are the ones pinned when every round ran a
    walk of its own (SHA-256 of their JSON)."""
    walks = []

    def counting_walk(*args, **kwargs):
        walks.append(1)
        return pe.offset_walk(*args, **kwargs)

    monkeypatch.setattr(pr, "offset_walk", counting_walk)
    rng = random.Random(60)
    cloud = MockBackend(PARAMS, rng=random.Random(61))
    client = MockBackend(PARAMS, rng=random.Random(62))
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="x16")
    cur = b.input("w")
    for _ in range(4):
        cur = b.mul(cur, cur)
    prog = b.build(cur, output_block=(0, 2))
    vals = [rng.randrange(T) for _ in range(N)]
    auth = pe.pe_auth(sec, cloud, vals, "w")

    def cloud_fn(ep):
        red = pr.ReqCloudSession(cloud, ep)
        return pe.pe_eval(prog, [auth], cloud, reducer=red), ep.transcript

    def client_fn(ep):
        s = pr.ReqClientSession(sec, client, prog, rng=random.Random(63))
        s.serve(ep)
        return s

    (res, tr), session = pr.run_session(cloud_fn, client_fn)
    assert session.expected_rounds == 3 and len(walks) == 1
    answers = [[client.decrypt(c) for c in pr.unpack_cts(p)] for _, p in tr.received]
    offset = session.final_offset()

    def digest(obj):
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    assert digest(answers) == "2398fa5ee12278a35892b6030aae5a793e18927f9665e13d11ef583d3bc46edf"
    assert digest(offset.tolist()) == "c1a281cb53f51f0063404abc520a30c1f010d66e5b33c2b1c78ac748bc1a43a3"
    claim = eval_plain(prog, [vals], T)[:2]
    assert pe.pe_verify(sec, client, prog, res, claimed=claim, offset=offset)
    assert len(walks) == 1


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
    still runs to its response, and only then is the session a reject that
    names the high terms."""
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
            out = _FailingHighTerms(ep, limit + 1) if fail else ep
            pr.cloud_session(cloud, out, lambda red: pe.pe_eval(prog, [auth], cloud, reducer=red))

        def client_fn(ep):
            reason = []
            outcome = pr.client_session(sec, client, prog, ep, True, True, random.Random(41), reason)
            sent = [(tag, len(p)) for tag, p in ep.transcript.sent]
            return outcome, reason, sent, [tag for tag, _ in ep.transcript.received]

        return pr.run_session(cloud_fn, client_fn)[1]

    (ok, _), _, honest_sent, honest_received = run(False)
    (failed_ok, claim), reason, failed_sent, failed_received = run(True)
    assert ok
    assert failed_ok is False and len(claim) == 2
    assert reason == [reason[0]] and "high-term ciphertext(s) failed to decrypt" in reason[0]
    assert failed_sent == honest_sent
    assert [tag for tag, _ in failed_sent][-1] == pr.TAG_PP_CHALLENGE
    assert failed_received == honest_received
    assert failed_received[-1] == pr.TAG_PP_RESPONSE


def test_req_high_terms_that_fail_to_decrypt_are_a_reject():
    """`connect --req`: high terms that fail to decrypt change no tag and no
    frame length the client sends, and the session is a reject that names
    them once the result is in."""
    sec, cloud, _, prog, auths, _ = make_world(seed=74)

    def run(fail):
        client = MockBackend(PARAMS, depth_limit=2, rng=random.Random(75))  # the high terms' depth
        reason = []

        def cloud_fn(ep):
            out = _FailingHighTerms(ep, 3) if fail else ep
            pr.cloud_session(cloud, out, lambda red: pe.pe_eval(prog, list(auths), cloud, reducer=red))

        def client_fn(ep):
            ok, _ = pr.client_session(sec, client, prog, ep, True, False, random.Random(76), reason)
            return ok, [(tag, len(p)) for tag, p in ep.transcript.sent]

        return (*pr.run_session(cloud_fn, client_fn)[1], reason)

    ok, honest_sent, reason = run(False)
    assert ok and reason == []
    ok, failed_sent, reason = run(True)
    assert ok is False and failed_sent == honest_sent
    assert reason == ["2 high-term ciphertext(s) failed to decrypt: "
                      "simulated noise overflow: depth 3 > limit 2"]


def _undecryptable(result):
    """`result` with every ciphertext past the client's simulated noise limit."""
    return dataclasses.replace(result, cts=tuple(dataclasses.replace(c, depth=99) for c in result.cts))


def _session_with_a_result(kind, fail):
    """(accepted, reason, the client's sent bytes) of one seeded session of
    `kind` (PE, PE under ReQ, REP) whose result fails to decrypt if `fail`."""
    if kind == "rep":
        sec, cloud, prog, res = rep_world()
        evaluate, req, lengths = (lambda _: res), False, [24, 24]
    else:
        sec, cloud, _, prog, auths, _ = make_world(seed=71)
        req, lengths = kind == "req", ()

        def evaluate(red):
            return pe.pe_eval(prog, list(auths), cloud, reducer=red)

    client = MockBackend(PARAMS, depth_limit=10, rng=random.Random(72))
    reason = []

    def cloud_fn(ep):
        pr.cloud_session(cloud, ep, lambda red: _undecryptable(evaluate(red)) if fail else evaluate(red))

    def client_fn(ep):
        ok, _ = pr.client_session(sec, client, prog, ep, req, False, random.Random(73), reason, lengths)
        return ok, reason, ep.transcript.sent_bytes()

    return pr.run_session(cloud_fn, client_fn)[1]


@pytest.mark.parametrize("kind", ["pe", "req", "rep"])
def test_a_result_that_fails_to_decrypt_is_a_reject(kind):
    """A result ciphertext that fails to decrypt is a reject naming the
    decryption, not an error, and the client sends the honest run's bytes."""
    ok, reason, honest_sent = _session_with_a_result(kind, fail=False)
    assert ok and reason == []
    ok, reason, failed_sent = _session_with_a_result(kind, fail=True)
    assert ok is False and failed_sent == honest_sent
    assert reason == ["a result ciphertext failed to decrypt: "
                      "simulated noise overflow: depth 99 > limit 10"]


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
        )

    _, (ok, m) = pr.run_session(cloud_fn, client_fn)
    assert ok and m == plain


# ---------------------------------------------------------------------------
# the replication session
# ---------------------------------------------------------------------------


class _CountingMock(MockBackend):
    """A mock client that counts the ciphertexts it decrypts (decrypt is a
    one-ciphertext decrypt_many)."""

    decrypts = 0

    def decrypt_many(self, cts):
        cts = list(cts)
        self.decrypts += len(cts)
        return super().decrypt_many(cts)


def rep_world(seed=60, length=24):
    """A REP secret, a counting mock client, a one-gate add over two inputs
    of `length` values (3 result ciphertexts at λ = 8) and its result."""
    rng = random.Random(seed)
    sec = rep.rep_keygen(PARAMS, lam=8, rng=rng, make_he_keys=False)
    client = _CountingMock(PARAMS, rng=random.Random(seed + 1))
    b = ProgramBuilder(width=N // 8, name="sum")
    prog = b.build(b.add(b.input("a"), b.input("b")), output_block=(0, N // 8))
    auths = [rep.rep_auth(sec, client, [rng.randrange(T) for _ in range(length)], x) for x in "ab"]
    return sec, client, prog, rep.rep_eval(prog, auths, client, lam=8)


def test_rep_session_decrypts_each_result_ciphertext_once():
    sec, client, prog, res = rep_world()

    def cloud_fn(ep):
        pr.cloud_session(client, ep, lambda _: res)
        return ep.transcript

    tr, (ok, claim) = pr.run_session(
        cloud_fn, lambda ep: pr.client_session(sec, client, prog, ep, lengths=[24, 24])
    )
    assert client.decrypts == tr.cts_sent() == len(res.cts) == 3
    assert ok and claim == rep.rep_decode(sec, client, res, prog)
    assert tr.received == [(pr.TAG_MODE, b"\x00")]
    assert tr.sent == [(pr.TAG_RESULT, pr.pack_cts([client.shrink(c) for c in res.cts]) + res.tag)]


@pytest.mark.parametrize(
    "kind", ["one ciphertext short", "one ciphertext over", "shorter than a digest",
             "trailing bytes"],
)
def test_hostile_rep_result_frames_are_refused_before_decrypting(kind):
    """A REP result message whose ciphertext count differs from what the
    client's input lengths imply, that cannot hold the 64-byte digest, or
    that carries bytes past it aborts the session before any decryption."""
    sec, client, prog, res = rep_world()
    payload = {
        "one ciphertext short": pr.pack_cts(res.cts[:2]) + res.tag,
        "one ciphertext over": pr.pack_cts(res.cts + res.cts[:1]) + res.tag,
        "shorter than a digest": res.tag[:63],
        "trailing bytes": pr.pack_cts(res.cts) + res.tag + b"\0",
    }[kind]
    ep, peer = pr.memory_channel(timeout=1.0)
    peer.send(pr.TAG_RESULT, payload)
    client.decrypts = 0
    with pytest.raises(ProtocolError):
        pr.client_session(sec, client, prog, ep, lengths=[24, 24])
    assert client.decrypts == 0


@pytest.mark.parametrize("mode", [{"pp": True}, {"req": True}])
def test_rep_session_refuses_pp_and_req(mode):
    """The refusal is local: the session sends nothing, not even its mode."""
    sec, client, prog, _ = rep_world()
    ep, _ = pr.memory_channel(timeout=1.0)
    with pytest.raises(ParameterError, match="replication"):
        pr.client_session(sec, client, prog, ep, lengths=[24, 24], **mode)
    assert ep.transcript.sent == []


def test_rep_session_needs_the_input_lengths():
    sec, client, prog, _ = rep_world()
    ep, _ = pr.memory_channel(timeout=1.0)
    with pytest.raises(ParameterError, match="input length"):
        pr.client_session(sec, client, prog, ep)
    assert ep.transcript.sent == []


def test_real_rep_result_frame_size():
    """A REP result frame of c ciphertexts, shrunk to the chain prefix of
    k′ = Params.shrink_primes primes, takes 5 + 1 + c·(17 + 8·k′·n) + 64
    bytes, and verifies."""
    rng = random.Random(62)
    b = ProgramBuilder(width=N // 8, name="sum")
    prog = b.build(b.add(b.input("a"), b.input("b")), output_block=(0, 4))
    sec = rep.rep_keygen(PARAMS, lam=8, programs=[prog], rng=rng)
    backend = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(63))
    auths = [rep.rep_auth(sec, backend, [1, 2, 3, 4], x) for x in "ab"]
    res = rep.rep_eval(prog, auths, backend, lam=8)

    def cloud_fn(ep):
        pr.cloud_session(backend, ep, lambda _: res)
        return ep.transcript

    tr, (ok, claim) = pr.run_session(
        cloud_fn, lambda ep: pr.client_session(sec, backend, prog, ep, lengths=[4, 4])
    )
    assert ok and claim == [2, 4, 6, 8]
    assert PARAMS.shrink_primes < len(PARAMS.q_chain)
    assert len(tr.sent_bytes()) == 5 + 1 + 1 * (17 + 8 * PARAMS.shrink_primes * N) + 64


# ---------------------------------------------------------------------------
# the mode message and the one reply rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("req,pp", [(False, False), (True, False), (False, True), (True, True)])
def test_the_client_names_the_mode_and_the_cloud_follows_it(req, pp):
    """The client's first message is the one-byte mode (6 bytes framed); the
    cloud hands `evaluate` a ReqCloudSession exactly when it asks for ReQ
    and closes with the packed proof exactly when it asks for PP."""
    sec, cloud, client, prog, auths, plain = make_world(seed=70)
    reducers: list = []

    def evaluate(reducer):
        reducers.append(reducer)
        return pe.pe_eval(prog, list(auths), cloud, reducer=reducer)

    def cloud_fn(ep):
        _, reducer = pr.cloud_session(cloud, ep, evaluate)
        return reducer, ep.transcript

    (reducer, tr), (ok, claim) = pr.run_session(
        cloud_fn, lambda ep: pr.client_session(sec, client, prog, ep, req, pp, random.Random(71))
    )
    assert ok and claim == plain[:4]
    assert tr.received[0] == (pr.TAG_MODE, bytes([req | pp << 1]))  # 6 bytes framed
    assert reducers == [reducer] and isinstance(reducer, pr.ReqCloudSession) == req
    closing = [tag for tag, _ in tr.sent if tag != pr.TAG_REQ_HIGH_TERMS]
    assert closing == ([pr.TAG_PP_RESULT, pr.TAG_PP_RESPONSE] if pp else [pr.TAG_RESULT])


@pytest.mark.parametrize("mode", [b"", b"\x00\x00", b"\x04", b"\xff"])
def test_the_cloud_refuses_a_malformed_mode(mode):
    """A mode payload that is not exactly one byte of at most 3 is a
    ProtocolError before anything is evaluated or sent."""
    cloud = MockBackend(PARAMS, rng=random.Random(72))
    ep, peer = pr.memory_channel(timeout=1.0)
    peer.send(pr.TAG_MODE, mode)
    evaluated: list = []
    with pytest.raises(ProtocolError, match="mode"):
        pr.cloud_session(cloud, ep, evaluated.append)
    assert evaluated == [] and ep.transcript.sent == []


@pytest.mark.parametrize("mode", [pr.MODE_REQ, pr.MODE_PP, pr.MODE_REQ | pr.MODE_PP])
def test_the_cloud_refuses_req_and_pp_for_a_rep_result(mode):
    """A replication result runs neither ReQ nor the packed proof: the cloud
    refuses either mode bit with ProtocolError and sends nothing."""
    _, client, _, res = rep_world()
    ep, peer = pr.memory_channel(timeout=1.0)
    peer.send(pr.TAG_MODE, bytes([mode]))
    with pytest.raises(ProtocolError, match="replication"):
        pr.cloud_session(client, ep, lambda _: res)
    assert ep.transcript.sent == []


# ---------------------------------------------------------------------------
# each backend admits only its own ciphertexts
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _real_pe_world():
    """A real-backend PE secret and client, and a degree-1 program."""
    sec = pe.pe_keygen(PARAMS, rng=random.Random(73))
    client = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(74))
    b = ProgramBuilder(width=N, name="sum")
    return sec, client, b.build(b.add(b.input("x"), b.input("y")), output_block=(0, 4))


def test_check_result_rejects_a_stack_with_one_breached_row():
    """check_result decrypts a result as one stack: when one of its
    ciphertexts breaches the guard band, the whole result is a reject
    naming the decryption, with no claim."""
    sec, client, prog = _real_pe_world()
    auths = [pe.pe_auth(sec, client, list(range(N)), x) for x in "xy"]
    res = pe.pe_eval(prog, auths, client)
    assert pr.check_result(sec, client, prog, res.cts) == (True, [0, 2, 4, 6])
    q = np.array(PARAMS.q_chain)[:, None]
    noise = bfv.Ciphertext(np.random.default_rng(76).integers(0, q, size=(2, len(q), N)))
    with pytest.raises(DecryptionFailureError):
        client.decrypt(noise)
    reason: list = []
    assert pr.check_result(sec, client, prog, (res.cts[0], noise), reason=reason) == (False, [])
    assert len(reason) == 1 and reason[0].startswith("a result ciphertext failed to decrypt: noise")


@pytest.mark.parametrize("client_kind", ["real", "mock"])
def test_a_result_of_the_other_backend_is_refused(client_kind):
    """A client of either backend refuses a result message whose two
    ciphertexts belong to the other backend with SerializationError, before
    anything is decrypted."""
    mock_payload, real_payload = _payloads()
    if client_kind == "real":
        sec, client, prog = _real_pe_world()
        payload = mock_payload
    else:
        sec, _, client, _, _, _ = make_world(seed=75)
        _, _, prog = _real_pe_world()
        payload = real_payload
    ep, peer = pr.memory_channel(timeout=1.0)
    peer.send(pr.TAG_RESULT, payload)
    with pytest.raises(SerializationError, match="ciphertext"):
        pr.client_session(sec, client, prog, ep)


def test_a_real_req_cloud_refuses_mock_blinded_replies():
    _, backend, _ = _real_pe_world()
    ct = backend.encrypt([1] * N)
    ep, peer = pr.memory_channel(timeout=1.0)
    peer.send(pr.TAG_REQ_BLINDED, _payloads()[0])
    with pytest.raises(SerializationError, match="ciphertext"):
        pr.ReqCloudSession(backend, ep).reduce((ct,) * 4, 0)
