"""Interactive sessions: packed proofs and re-quadratization.

Both protocols run over a tiny framed message layer (u32 length ‖ u8 tag ‖
payload) that works identically over an in-memory channel pair (tests,
single-process demos) and a TCP socket (the serve/connect commands).
Every endpoint records its own transcript, so tests can diff what a
client sent between honest and tampered runs.

Packed proof (PP): instead of shipping all d+1 response components, the
cloud sends c_0, receives a random evaluation point δ and a packing nonce
β, and returns one ciphertext m2.  Summed over each residue class mod
K = 2^⌈log2(d+2)⌉, its slots give w_i = Y_i(δ) — each component's
slot-polynomial evaluated at δ — in lane i, the β-combined sum
H = Σ β^i·w_i in lane d+1 and zero in the padding lanes.  The verifier
folds the lanes after decrypting, then checks the padding, H, w_0 against
the claimed data, and Σ w_i α^i against the challenge polynomial at δ.  Two
ciphertexts cross the wire cloud→client regardless of degree.  The prover
only merges the d + 2 masked sums pairwise into one ciphertext (see
`pp_prove`): 3 key switches at degree 2, with rotation keys for the
strides 1, 2, 4 and 8 alone.

Every ciphertext the client only decrypts — the PP commitment and
response, each component of a plain result or ciphertext of a REP result,
and the ReQ high terms — is modulus-switched down to the chain prefix of
Params.shrink_primes primes before it leaves the cloud (BfvBackend.shrink).
A message of c such ciphertexts is 5 + 1 + c·(17 + 4·2·k′·n) bytes framed:
65,559 for a PP commitment or response at n = 4096 and k′ = 2 (229,399 at
the full chain of 7), and 131,112 for a ReQ high-term pair; a REP result
adds its 64-byte digest.  The client's blinded ReQ
replies re-enter evaluation, so they stay on the full chain: 458,792
bytes at n = 4096.

A client never reacts to a ciphertext that fails to decrypt: decrypt_many
marks it and fills its row with stand-in slots at no extra cost, and the
client counts the marks and rejects only after its last receive.  A
shipped result, from a session, a result file or the attack simulator, is
judged by one function, `check_result`: it decrypts the ciphertexts once,
as one stack, and a marked one is a reject there too.

Re-quadratization (ReQ): whenever a product would push a stored tuple past
degree 2, the cloud sends the two high components (y_3, y_4; y_4 is the
trivial zero after a degree-3 product), the client returns blinded
replacements folded into components 1 and 2, and the verification offset
picks up α·r̄ for that gate.  Four ciphertexts cross the wire per round;
component 0 — the data — is never touched.

One verified session, for either encoding, is the pair `cloud_session`
and `client_session`; the use cases, the CLI and the attack simulator all
run it.  The client's first message names the mode (TAG_MODE, one byte:
bit 0 ReQ, bit 1 PP), which the cloud reads; a REP session runs neither.
A received message with the wrong tag, the wrong number of ciphertexts or
a ciphertext whose shape does not fit the parameters aborts the session
with ProtocolError.
"""

from __future__ import annotations

import queue
import random
import secrets as _secrets
import socket
import struct
import threading

import numpy as np

from .circuit import Program, slot_add, slot_mul, slot_sub
from .errors import (
    DecryptionFailureError, ParameterError, ProtocolError, SerializationError, StructureError, reject,
)
from .pe import MAX_DEGREE, PeAuth, PeSecret, degree_schedule, offset_walk, pe_check, pe_target
from .rep import RepResult, RepSecret, rep_check, rep_result_count
from .ring import _powers, slot_array, slot_poly_eval
from .serialize import load_cts, save_cts

TAG_PP_RESULT = 0x01
TAG_PP_CHALLENGE = 0x02
TAG_PP_RESPONSE = 0x04  # not 0x03, so a cloud-folded response is refused, not summed
TAG_REQ_HIGH_TERMS = 0x10
TAG_REQ_BLINDED = 0x11
TAG_RESULT = 0x20  # plain result shipping (no interactive compression)
TAG_MODE = 0x30  # the client's first message: which interactions it runs
MODE_REQ = 0x01
MODE_PP = 0x02

_CT_TAGS = (
    TAG_PP_RESULT,
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    TAG_REQ_BLINDED,
    TAG_RESULT,
)

# A frame's declared length is checked against this cap before anything is
# read.  The largest preset, n32768_prod (24 primes), serializes a full-chain
# degree-2 ciphertext in 6,291,473 bytes, the size of a blinded ReQ reply's;
# shrunk to its 2-prime prefix, a decrypt-only one takes 524,305.  PP and
# ReQ messages carry at most two, a plain result one per PE component.
# 128 MiB holds twenty-one full-chain ones.
MAX_FRAME_BYTES = 128 << 20
SOCKET_TIMEOUT_S = 30.0  # per send or receive: a peer that falls silent ends the session
_RECV_CHUNK = 1 << 20  # recv(n) allocates n bytes up front, so read in pieces

TAG_NAMES = {
    TAG_PP_RESULT: "pp-result",
    TAG_PP_CHALLENGE: "pp-challenge",
    TAG_PP_RESPONSE: "pp-response",
    TAG_REQ_HIGH_TERMS: "req-high-terms",
    TAG_REQ_BLINDED: "req-blinded",
    TAG_RESULT: "result",
    TAG_MODE: "mode",
}


def pack_cts(cts) -> bytes:
    return save_cts(cts)


def unpack_cts(payload: bytes, count: int | None = None, params=None):
    """The ciphertexts of one message; a payload that serialize.load_cts
    refuses (malformed, not exactly `count` ciphertexts when `count` is
    given, or with `params` a ciphertext shape that does not fit them)
    raises only ProtocolError."""
    try:
        return list(load_cts(payload, count, params))
    except SerializationError as exc:
        raise ProtocolError(f"malformed ciphertext in payload: {exc}") from exc


def _recv(endpoint, tag: int) -> bytes:
    """The payload of the next message, which must carry `tag`."""
    got, payload = endpoint.recv()
    if got != tag:
        raise ProtocolError(
            f"protocol order violated: expected {TAG_NAMES[tag]}, "
            f"got {TAG_NAMES.get(got, got)}; session aborted"
        )
    return payload


def message_ct_count(tag: int, payload: bytes) -> int:
    """Ciphertexts carried by one message (0 for scalar-only messages)."""
    return payload[0] if tag in _CT_TAGS and payload else 0


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


class Transcript:
    """Everything one endpoint sent and received, in order."""

    def __init__(self):
        self.sent: list[tuple[int, bytes]] = []
        self.received: list[tuple[int, bytes]] = []

    def cts_sent(self) -> int:
        return sum(message_ct_count(t, p) for t, p in self.sent)

    def cts_received(self) -> int:
        return sum(message_ct_count(t, p) for t, p in self.received)

    def sent_bytes(self) -> bytes:
        out = bytearray()
        for tag, payload in self.sent:
            out += struct.pack("<IB", 1 + len(payload), tag) + payload
        return bytes(out)


class _QueueEndpoint:
    """One side of an in-memory channel pair."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout
        self._closed = False
        self.transcript = Transcript()

    def send(self, tag: int, payload: bytes):
        if self._closed:
            raise ProtocolError("channel closed")
        self.transcript.sent.append((tag, bytes(payload)))
        self._outbox.put((tag, bytes(payload)))

    def recv(self):
        try:
            tag, payload = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise ProtocolError("timed out waiting for a message") from None
        if tag is None:
            raise ProtocolError("peer closed the channel")
        self.transcript.received.append((tag, payload))
        return tag, payload

    def close(self):
        if not self._closed:
            self._closed = True
            self._outbox.put((None, b""))


def memory_channel(timeout: float = 60.0):
    """A connected endpoint pair sharing two queues."""
    q_ab: queue.Queue = queue.Queue()
    q_ba: queue.Queue = queue.Queue()
    a = _QueueEndpoint(q_ba, q_ab, timeout)
    b = _QueueEndpoint(q_ab, q_ba, timeout)
    return a, b


def _io(action: str, call, *args):
    """call(*args), a socket failure or timeout (an OSError) ending the
    session as a ProtocolError, as the in-memory channel's do."""
    try:
        return call(*args)
    except OSError as exc:
        raise ProtocolError(f"{action} failed: {exc}") from exc


class TcpEndpoint:
    """Framed messages over a connected socket; same interface as above."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.transcript = Transcript()

    def send(self, tag: int, payload: bytes):
        self.transcript.sent.append((tag, bytes(payload)))
        _io("sending", self._sock.sendall, struct.pack("<IB", 1 + len(payload), tag) + payload)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = _io("receiving", self._sock.recv, min(n - len(buf), _RECV_CHUNK))
            if not chunk:
                raise ProtocolError("connection closed mid-message")
            buf += chunk
        return bytes(buf)

    def recv(self):
        (length,) = struct.unpack("<I", self._read_exact(4))
        if length < 1:
            raise ProtocolError("empty frame")
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        tag = self._read_exact(1)[0]
        payload = self._read_exact(length - 1)
        self.transcript.received.append((tag, payload))
        return tag, payload

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def tcp_listen(host: str, port: int, ready=None):
    """Accept one connection; returns (endpoint, bound port).  Waiting for
    the connection has no limit; each later send and receive, SOCKET_TIMEOUT_S.

    `ready`, if given, is called with the bound port once the socket is
    listening but before this blocks in accept — lets a caller on another
    thread connect to an ephemeral port.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        _io("listening", srv.bind, (host, port))
        srv.listen(1)
        bound = srv.getsockname()[1]
        if ready is not None:
            ready(bound)
        conn, _ = _io("accepting", srv.accept)
    conn.settimeout(SOCKET_TIMEOUT_S)
    return TcpEndpoint(conn), bound


def tcp_connect(host: str, port: int, timeout: float = SOCKET_TIMEOUT_S) -> TcpEndpoint:
    # the timeout stays on the socket for every later send and receive
    sock = _io(f"connecting to {host}:{port}", socket.create_connection, (host, port), timeout)
    return TcpEndpoint(sock)


def run_session(cloud_fn, client_fn):
    """Drive a cloud function (worker thread) against a client function.

    Returns (cloud result, client result); exceptions on either side
    propagate after the channel is torn down.
    """
    cloud_ep, client_ep = memory_channel()
    box: dict = {}

    def _run():
        try:
            box["result"] = cloud_fn(cloud_ep)
        except BaseException as exc:  # surfaced in the caller below
            box["error"] = exc
        finally:
            cloud_ep.close()

    worker = threading.Thread(target=_run, daemon=True)
    worker.start()
    try:
        client_result = client_fn(client_ep)
    finally:
        client_ep.close()
        worker.join()
    if "error" in box:
        raise box["error"]
    return box.get("result"), client_result


# ---------------------------------------------------------------------------
# packed proof
# ---------------------------------------------------------------------------


def _lanes(d: int) -> int:
    """K = 2^⌈log2(d + 2)⌉, the lanes a degree-d response is summed into."""
    return 1 << (d + 1).bit_length()


def pp_required_steps(n: int):
    """Rotation steps the packing needs at every degree the encoding
    allows: the strides below K at MAX_DEGREE, within a row."""
    width = min(_lanes(MAX_DEGREE), n // 2)
    return {1 << u for u in range(width.bit_length() - 1)}


def _merge(backend, c, d, mask, stride):
    """Interleave two merged vectors: slots with `mask` set take C's window,
    the others D's; each window doubles to 2·stride.  One rotation."""
    if c is None:
        return None
    x = backend.mul_plain(c if d is None else backend.sub(c, d), mask)
    out = backend.add(x, backend.rotate(backend.sub(c, x), stride))
    return out if d is None else backend.add(out, d)


def pp_prove(backend, result: PeAuth, endpoint):
    """Cloud side: send c_0, take the challenge, return one packed response.

    The inputs are y_i = c_i ⊙ (δ^j)_j and y_{d+1} = Σ_i c_i ⊙ (β^i·δ^j)_j,
    padded with absent entries to K = 2^⌈log2(d+2)⌉.  A binary tree merges
    them at strides 1, 2, …, K/2: at stride s, C and D become
    X + D + rot(C − X, s) with X = mask_s ⊙ (C − D), where mask_s is 1 on
    the slots with slot mod 2s < s.  Slot j then holds the K-wide window
    sum of y_{j mod K}, so the client's sum over j ≡ i (mod K) is w_i, H or
    zero.  Key switches: one per merge with a present left input (K − 1 at
    most); 3 at degree 2.  Each distinct plaintext, δ^j·β^i per i and one
    mask per stride, is encoded once per call (encode_plain), and y_{d+1}
    reuses y_0 as its first term.
    """
    params = backend.params
    n, t = params.n, params.t
    d = result.degree
    width = _lanes(d)
    if width > n // 2:
        raise ParameterError(f"degree {d} does not fit the packing layout")
    endpoint.send(TAG_PP_RESULT, pack_cts([backend.shrink(result.cts[0])]))
    delta, beta = struct.unpack("<QQ", _recv(endpoint, TAG_PP_CHALLENGE))
    pows = _powers(delta, n, t, slot_array([0], t).dtype)
    plain = backend.encode_plain(pows)
    level = [backend.mul_plain(c, plain) for c in result.cts]
    packed = level[0]  # c_0 ⊙ (β^0·δ^j)_j
    for i, c in enumerate(result.cts[1:], 1):
        packed = backend.add(packed, backend.mul_plain(c, slot_mul(pows, pow(beta, i, t), t)))
    level += [packed] + [None] * (width - d - 2)
    stride = 1
    while stride < width:
        mask = backend.encode_plain((np.arange(n) % (2 * stride) < stride).astype(np.int64))
        level = [_merge(backend, c, dd, mask, stride) for c, dd in zip(level[::2], level[1::2])]
        stride *= 2
    (acc,) = level
    endpoint.send(TAG_PP_RESPONSE, pack_cts([backend.shrink(acc)]))


def pp_verify(
    secret: PeSecret,
    backend,
    program: Program,
    endpoint,
    offset=None,
    rng: random.Random | None = None,
    reason: list | None = None,
):
    """Client side: challenge at a random δ, sum the packed response into
    its K lanes and check them.

    Returns (accepted, claimed result slots).  The session aborts with
    ProtocolError if the cloud deviates from the message order — in
    particular if it asks for the challenge before committing to c_0 — or
    sends other than one ciphertext, on a chain prefix of the parameters,
    in the commitment or the response.

    A commitment or response that fails to decrypt is rejected only after
    the last receive; until then decrypt_many's stand-in slots serve, so
    the challenge and every other byte the client sends are the same
    whether c_0 decrypts or not (no decryption-failure reaction oracle).
    An `offset` is that of a ReQ session, so the result degree is the
    reduced schedule's.
    """
    params = secret.params
    t = params.t
    rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
    (m,), first = backend.decrypt_many(unpack_cts(_recv(endpoint, TAG_PP_RESULT), 1, params))
    m = m.tolist()
    delta = rnd.randrange(t)
    beta = rnd.randrange(t)
    endpoint.send(TAG_PP_CHALLENGE, struct.pack("<QQ", delta, beta))
    (w,), second = backend.decrypt_many(unpack_cts(_recv(endpoint, TAG_PP_RESPONSE), 1, params))
    failures = int(first[0]) + int(second[0])
    if failures:
        return reject(reason, f"a received ciphertext failed to decrypt ({failures} of 2)"), m
    d, _ = degree_schedule(program, use_reducer=offset is not None)
    lanes = np.asarray(w, dtype=np.int64).reshape(-1, _lanes(d)).sum(0) % t  # n·t < 2^53
    if lanes[d + 2 :].any():
        return reject(reason, "a padding lane of the response is nonzero"), m
    *ws, packed_sum = lanes[: d + 2].tolist()
    if packed_sum != sum(pow(beta, i, t) * wi for i, wi in enumerate(ws)) % t:
        return reject(reason, "packed β-combination check failed"), m
    if ws[0] != slot_poly_eval(m, delta, t):
        return reject(reason, "data component does not match the committed result"), m
    lhs = sum(pow(secret.alpha, i, t) * wi for i, wi in enumerate(ws)) % t
    if lhs != slot_poly_eval(pe_target(secret, program, offset), delta, t):
        return reject(reason, "response identity fails at the challenge point"), m
    return True, m


# ---------------------------------------------------------------------------
# re-quadratization
# ---------------------------------------------------------------------------


class ReqCloudSession:
    """Evaluator-side hook: ships high components out, folds blinds back in.

    Plugs into pe_eval as its `reducer`; the at-rest degree REQ_CAP = 2
    means any product of stored tuples reaches degree at most 4 before
    reduction.  The high components go down shrunk; the blinded replies
    come back into evaluation, so each must be a full-chain operand.
    """

    def __init__(self, backend, endpoint):
        self.backend = backend
        self.endpoint = endpoint
        self.rounds = 0

    def reduce(self, comps: tuple, gate_idx: int) -> tuple:
        b = self.backend
        d = len(comps) - 1
        if d not in (3, 4):
            raise StructureError(
                f"re-quadratization expects degree 3 or 4, got {d}"
            )
        c4 = comps[4] if d == 4 else b.encrypt_zero()  # the trivial zero
        self.endpoint.send(TAG_REQ_HIGH_TERMS, pack_cts([b.shrink(comps[3]), b.shrink(c4)]))
        e1, e2 = unpack_cts(_recv(self.endpoint, TAG_REQ_BLINDED), 2, b.params)
        b.check_operand(e1)
        b.check_operand(e2)
        self.rounds += 1
        return (comps[0], b.add(comps[1], e1), b.add(comps[2], e2))


class ReqClientSession:
    """Data-owner side: answers each round and tracks the offset ledger.

    The round-to-gate correspondence is fixed by the program structure
    (products are reduced in gate order), so no gate index travels on the
    wire; both sides derive the same schedule from the program.  Every
    round's blinds are drawn up front, so one offset walk gives each
    round's natural offset (it depends only on earlier rounds' r̄).

    Each round decrypts its two high terms as one stack and counts in
    `failures` those that decrypt_many marks; their stand-in slots are
    answered like any others, so every round completes with the same work,
    tags and frame lengths either way.
    """

    def __init__(self, secret: PeSecret, backend, program: Program, rng=None):
        self.secret = secret
        self.backend = backend
        _, self.schedule = degree_schedule(program, use_reducer=True)
        rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
        t, n = secret.params.t, secret.params.n

        def vector():
            return slot_array([rnd.randrange(t) for _ in range(n)], t)

        draws = [(rnd.randrange(t), rnd.randrange(t), vector(), vector()) for _ in self.schedule]
        omega = {g: d[3] for g, d in zip(self.schedule, draws)}
        _, deltas, nat = offset_walk(program, secret.key, t, secret.alpha, omega)
        self.offset = deltas[program.output]
        # per round: κ₁, κ₂, r and r̄ − α⁻¹·(the gate's natural offset)
        self.blinds = [(k1, k2, r, slot_sub(rb, slot_mul(nat[g], secret.alpha_inv, t), t))
                       for g, (k1, k2, r, rb) in zip(self.schedule, draws)]
        self.round = 0
        self.failures = 0

    @property
    def expected_rounds(self) -> int:
        return len(self.schedule)

    def respond(self, payload: bytes) -> bytes:
        if self.round >= len(self.schedule):
            raise ProtocolError("more reduction rounds than the program needs")
        t, alpha = self.secret.params.t, self.secret.alpha
        kap1, kap2, r, shift = self.blinds[self.round]
        ys, breached = self.backend.decrypt_many(unpack_cts(payload, 2, self.secret.params))
        self.failures += int(breached.sum())
        y3, y4 = slot_array(ys, t)
        a2 = alpha * alpha % t
        a3 = a2 * alpha % t
        yb2 = slot_add(
            slot_add(slot_mul(y3, alpha * kap1 % t, t), slot_mul(y4, a2 * kap2 % t, t), t),
            r, t,
        )
        yb1 = slot_add(slot_mul(y4, a3, t), slot_mul(y3, a2, t), t)
        yb1 = slot_add(slot_sub(yb1, slot_mul(yb2, alpha, t), t), shift, t)
        self.round += 1
        return pack_cts(self.backend.encrypt_many((yb1, yb2)))

    def serve(self, endpoint):
        """Answer exactly the rounds the program's schedule calls for."""
        for _ in range(self.expected_rounds):
            endpoint.send(TAG_REQ_BLINDED, self.respond(_recv(endpoint, TAG_REQ_HIGH_TERMS)))

    def final_offset(self) -> np.ndarray:
        """The verification offset; raises DecryptionFailureError if any
        round's high terms failed to decrypt, only now that every round
        has been answered."""
        if self.failures:
            raise DecryptionFailureError(f"{self.failures} high-term ciphertext(s) failed to decrypt")
        return self.offset


# ---------------------------------------------------------------------------
# one verified session
# ---------------------------------------------------------------------------


def check_result(secret, backend, program: Program, cts, tag=b"", offset=None, reason=None) -> tuple:
    """The client's verdict on a received result, wherever it comes from: a
    session, a result file or a simulated forger.  Decrypts the ciphertexts
    once, as one stack (decrypt_many), and checks the slots with rep_check for a RepSecret (`tag` the
    digest, the input lengths as the secret recorded them) or else pe_check
    (`offset` a ReQ session's).  Returns (accepted, claim).  A program input
    the secret never authenticated is a ParameterError; a ciphertext that
    fails to decrypt is a reject like any other forgery, with no claim."""
    lengths = secret.registry.lengths(program.inputs)
    ys, breached = backend.decrypt_many(cts)
    if breached.any():
        return reject(reason, f"a result ciphertext failed to decrypt ({breached.sum()} of {len(cts)})"), []
    if isinstance(secret, RepSecret):
        return rep_check(secret, program, ys, tag, lengths, reason)
    return pe_check(secret, program, ys, offset, reason)


def cloud_session(backend, endpoint, evaluate) -> tuple:
    """Cloud side of one verified session, in the mode the client's first
    message names: the result of `evaluate(reducer)`, a ReqCloudSession if
    it asks for ReQ and else None, closes with the packed proof if it asks
    for PP, or else in one result message: every ciphertext shrunk, then a
    RepResult's digest.  Returns (result, reducer)."""
    mode = _recv(endpoint, TAG_MODE)
    if len(mode) != 1 or mode[0] > MODE_REQ | MODE_PP:
        raise ProtocolError("the mode message must be one byte of at most 3; session aborted")
    reducer = ReqCloudSession(backend, endpoint) if mode[0] & MODE_REQ else None
    result = evaluate(reducer)
    rep = isinstance(result, RepResult)
    if rep and mode[0]:
        raise ProtocolError("a replication session runs neither ReQ nor the packed proof")
    if mode[0] & MODE_PP:
        pp_prove(backend, result, endpoint)
    else:
        digest = result.tag if rep else b""
        endpoint.send(TAG_RESULT, pack_cts([backend.shrink(c) for c in result.cts]) + digest)
    return result, reducer


def client_session(
    secret, backend, program: Program, endpoint,
    req: bool = False, pp: bool = False, rng=None, reason: list | None = None,
) -> tuple:
    """Client side of one verified session, the twin of `cloud_session`:
    name the mode (ReQ if `req`, PP if `pp`), serve the ReQ rounds if
    `req`, then check the packed proof if `pp` or the shipped result with
    check_result otherwise.  Returns (accepted, the claimed output block).

    Every local refusal, a program input the secret never authenticated
    among them, comes before the mode message, so a refused session sends
    nothing.  A result message must carry exactly the d + 1 components of
    the program's degree schedule, or for a RepSecret (no ReQ, no PP) the
    ciphertexts that the recorded input lengths imply and the digest.  The
    offset comes from the blinds drawn when the session starts.  A ciphertext that fails to decrypt, a ReQ high term included,
    is a reject once the last message is in, so nothing the client sends
    depends on that failure; a high term's is the reason given.
    """
    lengths = secret.registry.lengths(program.inputs)  # refuses an input never authenticated
    if isinstance(secret, RepSecret):
        if req or pp:
            raise ParameterError("a replication session runs neither ReQ nor the packed proof")
        chunks = rep_result_count(secret, program, lengths)
        endpoint.send(TAG_MODE, bytes([0]))
        payload = _recv(endpoint, TAG_RESULT)  # the digest is its last 64 bytes
        cts = unpack_cts(payload[:-64], chunks, secret.params)
        return check_result(secret, backend, program, cts, payload[-64:], reason=reason)
    d, _ = degree_schedule(program, use_reducer=req)
    session = ReqClientSession(secret, backend, program, rng=rng) if req else None
    endpoint.send(TAG_MODE, bytes([req * MODE_REQ | pp * MODE_PP]))
    offset, note = None, reason
    if req:
        session.serve(endpoint)
        offset = session.offset
        note = [] if session.failures else reason  # then the high terms are the reason given
    if pp:
        ok, m = pp_verify(secret, backend, program, endpoint, offset=offset, rng=rng, reason=note)
        start, count = program.output_block
        claim = m[start : start + count]
    else:
        cts = unpack_cts(_recv(endpoint, TAG_RESULT), d + 1, secret.params)
        ok, claim = check_result(secret, backend, program, cts, offset=offset, reason=note)
    if req and session.failures:  # now that the last message is in
        return reject(reason, f"{session.failures} high-term ciphertext(s) failed to decrypt"), claim
    return ok, claim
