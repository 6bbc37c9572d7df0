"""Interactive sessions: packed proofs and re-quadratization.

Both protocols run over a tiny framed message layer (u32 length ‖ u8 tag ‖
payload) that works identically over an in-memory channel pair (tests,
single-process demos) and a TCP socket (the serve/connect commands).
Every endpoint records its own transcript, so tests can diff what a
client sent between honest and tampered runs.

Packed proof (PP): instead of shipping all d+1 response components, the
cloud sends c_0, receives a random evaluation point δ and a packing nonce
β, and returns one ciphertext m2 whose slots carry w_i = Y_i(δ) — each
component's slot-polynomial evaluated at δ — at slot i, plus the β-combined
sum H = Σ β^i·w_i at slot d+1.  The verifier checks H, w_0 against the
claimed data, and Σ w_i α^i against the challenge polynomial at δ.  Two
ciphertexts cross the wire cloud→client regardless of degree.  The prover
merges the d + 2 masked sums pairwise into one ciphertext and folds it
once (see `pp_prove`): 13 key switches at degree 2 and n = 4096.

A client never reacts to a ciphertext that fails to decrypt: both sessions
go on with uniform stand-in slots and report the failure only after their
last message.

Re-quadratization (ReQ): whenever a product would push a stored tuple past
degree 2, the cloud sends the two high components (y_3, y_4), the client
returns blinded replacements folded into components 1 and 2, and the
verification offset picks up α·r̄ for that gate.  Four ciphertexts cross
the wire per round; component 0 — the data — is never touched.

One verified session is the pair `cloud_reply` (after `pe_eval`, with a
ReqCloudSession as its reducer for ReQ) and `client_session`; the use
cases, the CLI and the attack simulator all run it.  A received message
with the wrong tag or the wrong number of ciphertexts aborts the session
with ProtocolError.
"""

from __future__ import annotations

import queue
import random
import secrets as _secrets
import socket
import struct
import threading

from .circuit import Program, eval_challenge_pe
from .errors import (
    DecryptionFailureError, ParameterError, ProtocolError, SerializationError, StructureError,
)
from .pe import PeAuth, PeSecret, degree_schedule, final_offset, offset_walk, pe_verify
from .ring import slot_poly_eval
from .serialize import load_ciphertext, save_ciphertext

TAG_PP_RESULT = 0x01
TAG_PP_CHALLENGE = 0x02
TAG_PP_RESPONSE = 0x03
TAG_REQ_HIGH_TERMS = 0x10
TAG_REQ_BLINDED = 0x11
TAG_RESULT = 0x20  # plain result shipping (no interactive compression)

_CT_TAGS = (
    TAG_PP_RESULT,
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    TAG_REQ_BLINDED,
    TAG_RESULT,
)

# A frame's declared length is checked against this cap before anything is
# read.  The largest preset, n32768_prod (24 primes), serializes a degree-2
# ciphertext in 6,291,477 bytes; PP and ReQ messages carry at most two, a
# plain result one per PE component.  128 MiB holds twenty-one of them.
MAX_FRAME_BYTES = 128 << 20
_RECV_CHUNK = 1 << 20  # recv(n) allocates n bytes up front, so read in pieces

TAG_NAMES = {
    TAG_PP_RESULT: "pp-result",
    TAG_PP_CHALLENGE: "pp-challenge",
    TAG_PP_RESPONSE: "pp-response",
    TAG_REQ_HIGH_TERMS: "req-high-terms",
    TAG_REQ_BLINDED: "req-blinded",
    TAG_RESULT: "result",
}


def pack_cts(cts) -> bytes:
    out = bytearray(struct.pack("<B", len(cts)))
    for ct in cts:
        out += save_ciphertext(ct)
    return bytes(out)


def unpack_cts(payload: bytes, count: int | None = None):
    """The ciphertexts of one message; a malformed payload, or one that does
    not carry exactly `count` ciphertexts when `count` is given, raises only
    ProtocolError."""
    if not payload:
        raise ProtocolError("empty ciphertext payload")
    if count is not None and payload[0] != count:
        raise ProtocolError(f"expected {count} ciphertext(s), got {payload[0]}")
    off = 1
    cts = []
    try:
        for _ in range(payload[0]):
            ct, off = load_ciphertext(payload, off)
            cts.append(ct)
    except SerializationError as exc:
        raise ProtocolError(f"malformed ciphertext in payload: {exc}") from exc
    if off != len(payload):
        raise ProtocolError("trailing bytes after ciphertexts")
    return cts


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


class TcpEndpoint:
    """Framed messages over a connected socket; same interface as above."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.transcript = Transcript()

    def send(self, tag: int, payload: bytes):
        self.transcript.sent.append((tag, bytes(payload)))
        self._sock.sendall(struct.pack("<IB", 1 + len(payload), tag) + payload)

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self._sock.recv(min(n - len(buf), _RECV_CHUNK))
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
    """Accept one connection; returns (endpoint, bound port).

    `ready`, if given, is called with the bound port once the socket is
    listening but before this blocks in accept — lets a caller on another
    thread connect to an ephemeral port.
    """
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    bound = srv.getsockname()[1]
    if ready is not None:
        ready(bound)
    conn, _ = srv.accept()
    srv.close()
    return TcpEndpoint(conn), bound


def tcp_connect(host: str, port: int, timeout: float = 30.0) -> TcpEndpoint:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
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


def pp_required_steps(n: int):
    """Rotation steps the packing needs: the power-of-two ladder of a row."""
    row = n // 2
    return {1 << u for u in range(row.bit_length() - 1)}


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

    All d + 2 sums share one fold.  The inputs are y_i = c_i ⊙ (δ^j)_j and
    y_{d+1} = Σ_i c_i ⊙ (β^i·δ^j)_j, padded with absent entries to
    K = 2^⌈log2(d+2)⌉.  A binary tree merges them at strides 1, 2, …, K/2:
    at stride s, C and D become X + D + rot(C − X, s) with
    X = mask_s ⊙ (C − D), where mask_s is 1 on the slots with
    slot mod 2s < s.  Slot j then holds the K-wide window sum of
    y_{j mod K}, and one fold with strides K, …, n/4 plus a row swap leaves
    w_i at slot i and H at slot d+1.  Key switches: one per merge with a
    present left input (K − 1 at most), log2(n/2K) fold steps and the row
    swap; 3 + 9 + 1 = 13 at degree 2 and n = 4096.
    """
    params = backend.params
    n, t = params.n, params.t
    row = n // 2
    d = result.degree
    width = 1 << (d + 1).bit_length()
    if width > row:
        raise ParameterError(f"degree {d} does not fit the packing layout")
    endpoint.send(TAG_PP_RESULT, pack_cts([result.cts[0]]))
    delta, beta = struct.unpack("<QQ", _recv(endpoint, TAG_PP_CHALLENGE))
    pows = [pow(delta, j, t) for j in range(n)]
    level = [backend.mul_plain(c, pows) for c in result.cts]
    packed = None
    for i, c in enumerate(result.cts):
        b_i = pow(beta, i, t)
        x = backend.mul_plain(c, [b_i * p % t for p in pows])
        packed = x if packed is None else backend.add(packed, x)
    level += [packed] + [None] * (width - d - 2)
    stride = 1
    while stride < width:
        mask = [int(j % (2 * stride) < stride) for j in range(n)]
        level = [_merge(backend, c, dd, mask, stride) for c, dd in zip(level[::2], level[1::2])]
        stride *= 2
    (acc,) = level
    while stride < row:
        acc = backend.add(acc, backend.rotate(acc, stride))
        stride *= 2
    acc = backend.add(acc, backend.row_swap(acc))
    endpoint.send(TAG_PP_RESPONSE, pack_cts([acc]))


def _decrypt_or_stand_in(backend, ct, failures: list):
    """Decrypt `ct`; on a failure, record it in `failures` and return
    uniform stand-in slots from the system's random source, so nothing the
    caller sends next depends on whether `ct` decrypted."""
    try:
        return backend.decrypt(ct)
    except DecryptionFailureError as exc:
        failures.append(str(exc))
        stand_in = random.SystemRandom()
        return [stand_in.randrange(backend.params.t) for _ in range(backend.params.n)]


def pp_verify(
    secret: PeSecret,
    backend,
    program: Program,
    endpoint,
    offset=None,
    rng: random.Random | None = None,
    reason: list | None = None,
    used_reducer: bool = False,
):
    """Client side: challenge at a random δ, check the packed response.

    Returns (accepted, claimed result slots).  The session aborts with
    ProtocolError if the cloud deviates from the message order — in
    particular if it asks for the challenge before committing to c_0 — or
    sends other than one ciphertext in the commitment or the response.

    A commitment or response that fails to decrypt is rejected only after
    the last receive: in its place the session continues with uniform
    stand-in slots from the system's random source, never from `rng`, so
    the challenge and every other byte the client sends are the same
    whether c_0 decrypts or not (no decryption-failure reaction oracle).
    """

    def fail(msg: str):
        if reason is not None:
            reason.append(msg)
        return False, m

    t = secret.params.t
    rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
    failures: list[str] = []
    (m1,) = unpack_cts(_recv(endpoint, TAG_PP_RESULT), 1)
    m = _decrypt_or_stand_in(backend, m1, failures)
    delta = rnd.randrange(t)
    beta = rnd.randrange(t)
    endpoint.send(TAG_PP_CHALLENGE, struct.pack("<QQ", delta, beta))
    (m2,) = unpack_cts(_recv(endpoint, TAG_PP_RESPONSE), 1)
    w = _decrypt_or_stand_in(backend, m2, failures)
    if failures:
        return fail(f"a received ciphertext failed to decrypt: {failures[0]}")
    d, _ = degree_schedule(program, use_reducer=used_reducer)
    ws = w[: d + 1]
    packed_sum = w[d + 1]
    if packed_sum != sum(pow(beta, i, t) * wi for i, wi in enumerate(ws)) % t:
        return fail("packed β-combination check failed")
    if ws[0] != slot_poly_eval(m, delta, t):
        return fail("data component does not match the committed result")
    rho = eval_challenge_pe(program, secret.key, t)
    if offset is not None:
        rho = [(x + int(o)) % t for x, o in zip(rho, offset)]
    lhs = sum(pow(secret.alpha, i, t) * wi for i, wi in enumerate(ws)) % t
    if lhs != slot_poly_eval(rho, delta, t):
        return fail("response identity fails at the challenge point")
    return True, m


# ---------------------------------------------------------------------------
# re-quadratization
# ---------------------------------------------------------------------------


class ReqCloudSession:
    """Evaluator-side hook: ships high components out, folds blinds back in.

    Plugs into pe_eval as its `reducer`; the at-rest cap of 2 means any
    product of stored tuples reaches degree at most 4 before reduction.
    """

    cap = 2

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
        c3 = comps[3]
        c4 = comps[4] if d == 4 else b.encrypt_zero()
        self.endpoint.send(TAG_REQ_HIGH_TERMS, pack_cts([c3, c4]))
        e1, e2 = unpack_cts(_recv(self.endpoint, TAG_REQ_BLINDED), 2)
        self.rounds += 1
        return (comps[0], b.add(comps[1], e1), b.add(comps[2], e2))


class ReqClientSession:
    """Data-owner side: answers each round and tracks the offset ledger.

    The round-to-gate correspondence is fixed by the program structure
    (products are reduced in gate order), so no gate index travels on the
    wire; both sides derive the same schedule from the program.

    High terms that fail to decrypt are answered from uniform stand-in
    slots drawn from the system's random source (never from `rng`), so
    every round completes with the same tags and frame lengths either way;
    `final_offset` then raises DecryptionFailureError.
    """

    def __init__(self, secret: PeSecret, backend, program: Program, rng=None):
        self.secret = secret
        self.backend = backend
        self.program = program
        _, self.schedule = degree_schedule(program, use_reducer=True)
        self.omega: dict[int, list[int]] = {}
        self.rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
        self.round = 0
        self.failures: list[str] = []

    @property
    def expected_rounds(self) -> int:
        return len(self.schedule)

    def respond(self, payload: bytes) -> bytes:
        if self.round >= len(self.schedule):
            raise ProtocolError("more reduction rounds than the program needs")
        t = self.secret.params.t
        n = self.secret.params.n
        alpha = self.secret.alpha
        gate = self.schedule[self.round]
        y3, y4 = (
            _decrypt_or_stand_in(self.backend, c, self.failures)
            for c in unpack_cts(payload, 2)
        )
        _, _, naturals = offset_walk(
            self.program, self.secret.key, t, alpha, self.omega
        )
        a_inv = self.secret.alpha_inv
        big_delta = [a_inv * v % t for v in naturals[gate]]
        kap1 = self.rnd.randrange(t)
        kap2 = self.rnd.randrange(t)
        r = [self.rnd.randrange(t) for _ in range(n)]
        r_bar = [self.rnd.randrange(t) for _ in range(n)]
        a2 = alpha * alpha % t
        a3 = a2 * alpha % t
        yb2 = [
            (alpha * kap1 * y3[j] + a2 * kap2 * y4[j] + r[j]) % t for j in range(n)
        ]
        yb1 = [
            (a3 * y4[j] + a2 * y3[j] - alpha * yb2[j] - big_delta[j] + r_bar[j]) % t
            for j in range(n)
        ]
        self.omega[gate] = r_bar
        self.round += 1
        return pack_cts([self.backend.encrypt(yb1), self.backend.encrypt(yb2)])

    def serve(self, endpoint):
        """Answer exactly the rounds the program's schedule calls for."""
        for _ in range(self.expected_rounds):
            endpoint.send(TAG_REQ_BLINDED, self.respond(_recv(endpoint, TAG_REQ_HIGH_TERMS)))

    def final_offset(self) -> list[int]:
        """The verification offset; raises DecryptionFailureError if any
        round's high terms failed to decrypt, only now that every round
        has been answered."""
        if self.failures:
            raise DecryptionFailureError(
                f"{len(self.failures)} high-term ciphertext(s) failed to decrypt: "
                f"{self.failures[0]}"
            )
        return final_offset(self.secret, self.program, self.omega)


# ---------------------------------------------------------------------------
# one verified session
# ---------------------------------------------------------------------------


def cloud_reply(backend, result: PeAuth, endpoint, pp: bool):
    """Cloud side of a session's close: the packed proof if `pp`, otherwise
    every component of `result` in one result message."""
    if pp:
        pp_prove(backend, result, endpoint)
    else:
        endpoint.send(TAG_RESULT, pack_cts(list(result.cts)))


def client_session(
    secret: PeSecret, backend, program: Program, endpoint,
    req: bool, pp: bool, rng=None, reason: list | None = None,
) -> tuple:
    """Client side of one verified session, the twin of a cloud that runs
    `pe_eval` (with a ReqCloudSession if `req`) and then `cloud_reply`:
    serve the ReQ rounds if `req`, then check the packed proof if `pp` or
    the shipped result otherwise.  Returns (accepted, slots of c_0).

    A result message must carry exactly the d + 1 components of the
    program's degree schedule.  The offset comes from the recorded blinds,
    which a failed round also records, and `final_offset()` raises
    DecryptionFailureError for a round whose high terms did not decrypt
    only once verification has received its last message, so nothing the
    client sends depends on that failure.
    """
    session = offset = None
    if req:
        session = ReqClientSession(secret, backend, program, rng=rng)
        session.serve(endpoint)
        offset = final_offset(secret, program, session.omega)
    if pp:
        ok, m = pp_verify(
            secret, backend, program, endpoint,
            offset=offset, rng=rng, reason=reason, used_reducer=req,
        )
    else:
        d, _ = degree_schedule(program, use_reducer=req)
        result = PeAuth(tuple(unpack_cts(_recv(endpoint, TAG_RESULT), d + 1)))
        m = backend.decrypt(result.cts[0])
        start, count = program.output_block
        ok = pe_verify(
            secret, backend, program, result,
            claimed=m[start : start + count], offset=offset, reason=reason,
        )
    if session is not None and session.failures:
        session.final_offset()  # raises, now that the last message is in
    return ok, m
