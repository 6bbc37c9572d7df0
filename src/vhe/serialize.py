"""Binary containers for keys, ciphertexts, and authenticated uploads.

Every object ships in a self-delimiting container:

    magic "VRTS" ‖ u16 version ‖ u8 type code ‖ u32 body length ‖ body

so containers can be concatenated in protocol payloads and files.  All
integers are little-endian.  Chain primes lie below 2^30, so BFV residues
travel as u32, component-major, then prime, then coefficient:

    ciphertext  u8 components ‖ u8 k ‖ u32 n ‖ residues
    keyset      params container ‖ u8 secret flag ‖ u16 Galois count ‖
                ascending u64 Galois elements ‖ [sk] ‖ rlk ‖ Galois keys

A ciphertext's k is the chain's length, except in a session message the
client only decrypts, which may carry a chain prefix 1 ≤ k′ ≤ k (see
BfvBackend.shrink).
A keyset's arrays carry no shape headers: its own parameters imply every
shape, so the loader computes the body length and refuses any other before
it allocates an array.  Mock ciphertext slots (up to 2^59) stay u64; a
shrunk mock ciphertext, which is terminal, has a type code of its own.
Secret material (secret key, PRF key, challenge set, α) only ever appears
in the *_secret containers; the keyset container carries an explicit flag
so public copies are distinguishable on disk.  A loader either returns an
object or raises SerializationError.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .bfv import Ciphertext, KeySet
from .errors import ParameterError, SerializationError
from .labels import Identifier, LabelRegistry, PrfKey
from .mock import MockCiphertext
from .params import Params
from .pe import PeAuth, PeSecret
from .rep import RepAuth, RepResult, RepSecret

MAGIC = b"VRTS"
# 2: RNS-digit key-switching keys; 3: no ciphertext level byte;
# 4: one residue stack per ciphertext and per key, u32 residues;
# 5: no ciphertext multiplication depth; 6: challenge values from SHAKE-256
# streams, so secrets and authentications saved under 5 would not verify;
# 7: no public key in a keyset; 8: ψ from the smallest quadratic non-residue,
# so the evaluation-domain residues of version-7 keys and ciphertexts differ;
# 9: no error width in the parameters, which every preset fixed at 3.2;
# 10: a secret's registry records each identifier's value count
VERSION = 10

TYPE_PARAMS = 0x01
TYPE_KEYSET = 0x02
TYPE_CIPHERTEXT = 0x03
TYPE_MOCK_CIPHERTEXT = 0x04
TYPE_REP_SECRET = 0x05
TYPE_REP_AUTH = 0x06
TYPE_REP_RESULT = 0x07
TYPE_PE_SECRET = 0x08
TYPE_PE_AUTH = 0x09
TYPE_MOCK_SHRUNK = 0x0A  # a terminal mock ciphertext (MockBackend.shrink)


# ---------------------------------------------------------------------------
# container framing
# ---------------------------------------------------------------------------


def _container(type_code: int, *parts) -> bytes:
    """One container around the body parts, joined in a single copy."""
    length = sum(len(p) for p in parts)
    return b"".join((MAGIC, struct.pack("<HBI", VERSION, type_code, length), *parts))


def read_container(blob: bytes, offset: int = 0):
    """Parse one container; returns (type code, body, next offset).  The
    body is a slice of `blob`, so a memoryview blob is parsed without a copy."""
    if blob[offset : offset + 4] != MAGIC:
        raise SerializationError("bad magic: not a VRTS container")
    if len(blob) < offset + 11:
        raise SerializationError("truncated container header")
    version, type_code, length = struct.unpack_from("<HBI", blob, offset + 4)
    if version != VERSION:
        raise SerializationError(f"unsupported container version {version}")
    start = offset + 11
    if start + length > len(blob):
        raise SerializationError("truncated container body")
    return type_code, blob[start : start + length], start + length


def _expect(blob: bytes, type_code: int, offset: int = 0):
    """A container of `type_code`: (body, next offset), the body a view of
    `blob`, so nested containers and residues are read without copies."""
    tc, body, nxt = read_container(memoryview(blob), offset)
    if tc != type_code:
        raise SerializationError(f"expected container type {type_code}, got {tc}")
    return body, nxt


class _Reader:
    """Bounds-checked cursor over a container body."""

    def __init__(self, buf, off: int = 0):
        self.buf = buf
        self.off = off

    def _advance(self, n: int) -> int:
        start = self.off
        if start + n > len(self.buf):
            raise SerializationError("container body ends early")
        self.off += n
        return start

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return bytes(self.buf[start : start + n])

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("label is not UTF-8") from exc

    def residues(self, shape) -> np.ndarray:
        """u32 residues of the given shape, as int64."""
        count = math.prod(shape)
        start = self._advance(4 * count)
        raw = np.frombuffer(self.buf, dtype="<u4", count=count, offset=start)
        return raw.astype(np.int64).reshape(shape)

    def done(self):
        if self.off != len(self.buf):
            raise SerializationError("trailing bytes in container body")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _u32(arr: np.ndarray) -> bytes:
    return arr.astype("<u4").tobytes()


def _ident(ident: Identifier) -> bytes:
    blob = ident.canonical_bytes()
    return struct.pack("<H", len(blob)) + blob


def _read_ident(r: _Reader) -> Identifier:
    (blen,) = r.unpack("<H")
    ir = _Reader(r.take(blen))
    (llen,) = ir.unpack("<I")
    label = ir.text(llen)
    (flag,) = ir.unpack("<B")
    slot = ir.unpack("<Q")[0] if flag else None
    ir.done()
    return Identifier(label, slot)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def save_params(params: Params) -> bytes:
    name = params.name.encode("utf-8")
    k = len(params.q_chain)
    depth = -1 if params.depth_budget is None else params.depth_budget
    head = struct.pack(
        f"<IQhB{k}QH", params.n, params.t, depth, k, *params.q_chain, len(name)
    )
    return _container(TYPE_PARAMS, head, name)


def _params_from_body(body) -> Params:
    r = _Reader(body)
    n, t, depth, chain_len = r.unpack("<IQhB")
    chain = r.unpack(f"<{chain_len}Q")
    (nlen,) = r.unpack("<H")
    name = r.text(nlen)
    r.done()
    try:
        return Params(
            n=n,
            t=t,
            q_chain=chain,
            depth_budget=None if depth < 0 else depth,
            name=name,
        )
    except ParameterError as exc:
        raise SerializationError(f"invalid parameters: {exc}") from exc


def load_params(blob: bytes, offset: int = 0) -> Params:
    body, _ = _expect(blob, TYPE_PARAMS, offset)
    return _params_from_body(body)


def _open_with_params(body):
    """A body that opens with a parameters container: (params, reader past it)."""
    tc, pbody, nxt = read_container(body, 0)
    if tc != TYPE_PARAMS:
        raise SerializationError("container must open with parameters")
    return _params_from_body(pbody), _Reader(body, nxt)


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------


def save_keyset(keys: KeySet, include_secret: bool = False) -> bytes:
    secret = include_secret and keys.has_secret
    gs = sorted(keys.gks)
    arrays = ([keys.sk_ntt] if secret else []) + [keys.rlk] + [keys.gks[g] for g in gs]
    head = struct.pack(f"<BH{len(gs)}Q", secret, len(gs), *gs)
    return _container(TYPE_KEYSET, save_params(keys.params), head, *map(_u32, arrays))


def load_keyset(blob: bytes, offset: int = 0) -> KeySet:
    """Parse a keyset, refusing any body whose length differs from the one
    its parameters and Galois count imply before allocating an array."""
    body, _ = _expect(blob, TYPE_KEYSET, offset)
    params, r = _open_with_params(body)
    has_secret, gcount = r.unpack("<BH")
    gs = r.unpack(f"<{gcount}Q")
    k, n = len(params.q_chain), params.n
    if has_secret > 1 or list(gs) != sorted(set(gs)) or any(g % 2 == 0 or g >= 2 * n for g in gs):
        raise SerializationError("malformed keyset header")
    blocks = has_secret + 2 * k * (1 + gcount)  # (k, n) residue blocks
    if len(body) - r.off != 4 * blocks * k * n:
        raise SerializationError(f"keyset body must hold {blocks} ({k}, {n}) residue blocks")
    res = r.residues((blocks, k, n))
    if (res >= np.array(params.q_chain, dtype=np.int64)[:, None]).any():
        raise SerializationError("key residue outside [0, q_i)")
    rlk, *gks = res[has_secret:].reshape(1 + gcount, 2, k, k, n)
    return KeySet(params, rlk, dict(zip(gs, gks)), res[0] if has_secret else None)


# ---------------------------------------------------------------------------
# ciphertexts (both backends)
# ---------------------------------------------------------------------------


def save_ciphertext(ct) -> bytes:
    if isinstance(ct, MockCiphertext):
        head = struct.pack("<IIQ", len(ct.slots), ct.depth, ct.nonce)
        tc = TYPE_MOCK_SHRUNK if ct.terminal else TYPE_MOCK_CIPHERTEXT
        return _container(tc, head, np.asarray(ct.slots, dtype="<u8").tobytes())
    if isinstance(ct, Ciphertext):
        head = struct.pack("<BBI", *ct.data.shape)
        return _container(TYPE_CIPHERTEXT, head, _u32(ct.data))
    raise SerializationError(f"cannot serialize ciphertext of type {type(ct)!r}")


def load_ciphertext(blob: bytes, offset: int = 0, params: Params | None = None):
    """Parse one ciphertext container; returns (ciphertext, next offset).

    With `params`, the header must fit them before any residue is read:
    n slots, at least one component and, for a BFV ciphertext, 1 ≤ k″ ≤ k
    residue rows (a decrypt-only message may travel on a chain prefix)."""
    tc, body, nxt = read_container(memoryview(blob), offset)
    r = _Reader(body)
    if tc in (TYPE_MOCK_CIPHERTEXT, TYPE_MOCK_SHRUNK):
        n, depth, nonce = r.unpack("<IIQ")
        if params is not None and n != params.n:
            raise SerializationError(f"mock ciphertext of {n} slots, expected {params.n}")
        slots = np.frombuffer(r.take(8 * n), dtype="<u8")
        r.done()
        return MockCiphertext(slots, depth, nonce, tc == TYPE_MOCK_SHRUNK), nxt
    if tc == TYPE_CIPHERTEXT:
        shape = r.unpack("<BBI")
        if params is not None:
            k, n = len(params.q_chain), params.n
            if not (shape[0] >= 1 and 1 <= shape[1] <= k and shape[2] == n):
                raise SerializationError(f"ciphertext shape {shape} does not fit (d+1, 1..{k}, {n})")
        data = r.residues(shape)
        r.done()
        return Ciphertext(data), nxt
    raise SerializationError(f"container type {tc} is not a ciphertext")


def _cts(cts) -> list:
    """A ciphertext list, u8 count ‖ one ciphertext container each, in
    parts, so the container around it is joined in one copy."""
    return [struct.pack("<B", len(cts)), *map(save_ciphertext, cts)]


def save_cts(cts) -> bytes:
    return b"".join(_cts(cts))


def _read_cts(r: _Reader, count: int | None = None, params: Params | None = None) -> tuple:
    (got,) = r.unpack("<B")
    if count is not None and got != count:
        raise SerializationError(f"expected {count} ciphertext(s), got {got}")
    cts = []
    for _ in range(got):
        ct, r.off = load_ciphertext(r.buf, r.off, params)
        cts.append(ct)
    return tuple(cts)


def load_cts(blob: bytes, count: int | None = None, params: Params | None = None) -> tuple:
    """A whole ciphertext list, such as a session message's payload:
    exactly `count` ciphertexts when `count` is given, each fitting
    `params` when given (see load_ciphertext), and no trailing bytes."""
    r = _Reader(blob)
    cts = _read_cts(r, count, params)
    if r.off != len(blob):
        raise SerializationError("trailing bytes after ciphertexts")
    return cts


# ---------------------------------------------------------------------------
# verifier secrets (both encodings)
# ---------------------------------------------------------------------------


def _secret(type_code: int, secret, head: bytes) -> bytes:
    """A verifier's secret: params ‖ head ‖ PRF key ‖ u8 keyset flag ‖
    [keyset with its secret key] ‖ u32 count ‖ (u16 length ‖ identifier ‖
    u32 values authenticated) per spent identifier, sorted."""
    keys = secret.he_keys
    spent = secret.registry.snapshot()
    return _container(
        type_code,
        save_params(secret.params),
        head,
        secret.key.key,
        *([b"\x00"] if keys is None else [b"\x01", save_keyset(keys, include_secret=True)]),
        struct.pack("<I", len(spent)),
        *(struct.pack("<H", len(b)) + b + struct.pack("<I", c) for b, c in spent),
    )


def _secret_tail(r: _Reader):
    """(PRF key, keyset or None, registry): what follows a secret's head."""
    key = PrfKey(r.take(32))
    keys = None
    if r.unpack("<B")[0]:
        _, _, nxt = read_container(r.buf, r.off)
        keys = load_keyset(r.buf, r.off)
        r.off = nxt
    (count,) = r.unpack("<I")
    registry = LabelRegistry.restore(
        (r.take(r.unpack("<H")[0]), r.unpack("<I")[0]) for _ in range(count))
    r.done()
    return key, keys, registry


# ---------------------------------------------------------------------------
# replication-scheme objects
# ---------------------------------------------------------------------------


def save_rep_secret(secret: RepSecret) -> bytes:
    cs = sorted(secret.challenge_set)
    return _secret(TYPE_REP_SECRET, secret, struct.pack(f"<IH{len(cs)}H", secret.lam, len(cs), *cs))


def load_rep_secret(blob: bytes, offset: int = 0) -> RepSecret:
    body, _ = _expect(blob, TYPE_REP_SECRET, offset)
    params, r = _open_with_params(body)
    lam, scount = r.unpack("<IH")
    challenge = frozenset(r.unpack(f"<{scount}H"))
    return RepSecret(params, lam, challenge, *_secret_tail(r))


def save_rep_auth(auth: RepAuth) -> bytes:
    return _container(
        TYPE_REP_AUTH,
        _ident(auth.base),
        struct.pack("<II", auth.length, auth.lam),
        *_cts(auth.cts),
        struct.pack("<I", len(auth.tags)),
        *auth.tags,
    )


def load_rep_auth(blob: bytes, offset: int = 0) -> RepAuth:
    body, _ = _expect(blob, TYPE_REP_AUTH, offset)
    r = _Reader(body)
    base = _read_ident(r)
    length, lam = r.unpack("<II")
    cts = _read_cts(r)
    (tcount,) = r.unpack("<I")
    tags = tuple(np.frombuffer(r.take(64 * tcount), dtype="V64").tolist())  # one bytes per tag
    r.done()
    return RepAuth(base, length, lam, cts, tags)


def save_rep_result(res: RepResult) -> bytes:
    return _container(TYPE_REP_RESULT, struct.pack("<I", res.lam), *_cts(res.cts), res.tag)


def load_rep_result(blob: bytes, offset: int = 0) -> RepResult:
    body, _ = _expect(blob, TYPE_REP_RESULT, offset)
    r = _Reader(body)
    (lam,) = r.unpack("<I")
    cts = _read_cts(r)
    tag = r.take(64)
    r.done()
    return RepResult(cts, tag, lam)


# ---------------------------------------------------------------------------
# polynomial-encoding objects
# ---------------------------------------------------------------------------


def save_pe_secret(secret: PeSecret) -> bytes:
    return _secret(TYPE_PE_SECRET, secret, struct.pack("<Q", secret.alpha))


def load_pe_secret(blob: bytes, offset: int = 0) -> PeSecret:
    body, _ = _expect(blob, TYPE_PE_SECRET, offset)
    params, r = _open_with_params(body)
    (alpha,) = r.unpack("<Q")
    if not 0 < alpha < params.t:
        raise SerializationError("α outside [1, t)")
    key, keys, registry = _secret_tail(r)
    return PeSecret(params, key, alpha, keys, registry)


def save_pe_auth(auth: PeAuth) -> bytes:
    base = [b"\x00"] if auth.base is None else [b"\x01", _ident(auth.base)]
    return _container(TYPE_PE_AUTH, *base, *_cts(auth.cts))


def load_pe_auth(blob: bytes, offset: int = 0) -> PeAuth:
    body, _ = _expect(blob, TYPE_PE_AUTH, offset)
    r = _Reader(body)
    (has_base,) = r.unpack("<B")
    base = _read_ident(r) if has_base else None
    cts = _read_cts(r)
    r.done()
    return PeAuth(cts, base)


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

_LOADERS = {
    TYPE_PARAMS: load_params,
    TYPE_KEYSET: load_keyset,
    TYPE_REP_SECRET: load_rep_secret,
    TYPE_REP_AUTH: load_rep_auth,
    TYPE_REP_RESULT: load_rep_result,
    TYPE_PE_SECRET: load_pe_secret,
    TYPE_PE_AUTH: load_pe_auth,
}


def load_any(blob: bytes, offset: int = 0):
    """Dispatch on the container type; ciphertexts load via load_ciphertext."""
    tc, _, _ = read_container(blob, offset)
    if tc in (TYPE_CIPHERTEXT, TYPE_MOCK_CIPHERTEXT, TYPE_MOCK_SHRUNK):
        return load_ciphertext(blob, offset)[0]
    if tc not in _LOADERS:
        raise SerializationError(f"unknown container type {tc}")
    return _LOADERS[tc](blob, offset)


def write_file(path, blob: bytes):
    with open(path, "wb") as fh:
        fh.write(blob)


def read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
