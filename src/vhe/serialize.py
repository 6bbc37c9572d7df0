"""Binary containers for keys, ciphertexts, and authenticated uploads.

Every object ships in a self-delimiting container:

    magic "VRTS" ‖ u16 version ‖ u8 type code ‖ u32 body length ‖ body

so containers can be concatenated in protocol payloads and files.  All
integers are little-endian.  Chain primes lie below 2^30, so BFV residues
travel as u32, component-major, then prime, then coefficient:

    ciphertext  u8 components ‖ u8 k ‖ u32 n ‖ residues
    keyset      params container ‖ u8 secret flag ‖ u16 Galois count ‖
                ascending u64 Galois elements ‖ [sk] ‖ pk ‖ rlk ‖ Galois keys

A keyset's arrays carry no shape headers: its own parameters imply every
shape, so the loader computes the body length and refuses any other before
it allocates an array.  Mock ciphertext slots (up to 2^59) stay u64.
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
# 5: no ciphertext multiplication depth
VERSION = 5

TYPE_PARAMS = 0x01
TYPE_KEYSET = 0x02
TYPE_CIPHERTEXT = 0x03
TYPE_MOCK_CIPHERTEXT = 0x04
TYPE_REP_SECRET = 0x05
TYPE_REP_AUTH = 0x06
TYPE_REP_RESULT = 0x07
TYPE_PE_SECRET = 0x08
TYPE_PE_AUTH = 0x09


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
    tc, body, nxt = read_container(blob, offset)
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
        f"<IQdhB{k}QH", params.n, params.t, params.err_std, depth, k, *params.q_chain, len(name)
    )
    return _container(TYPE_PARAMS, head, name)


def _params_from_body(body) -> Params:
    r = _Reader(body)
    n, t, err_std, depth, chain_len = r.unpack("<IQdhB")
    chain = r.unpack(f"<{chain_len}Q")
    (nlen,) = r.unpack("<H")
    name = r.text(nlen)
    r.done()
    try:
        return Params(
            n=n,
            t=t,
            q_chain=chain,
            err_std=err_std,
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
    arrays = ([keys.sk_ntt] if secret else []) + [keys.pk, keys.rlk] + [keys.gks[g] for g in gs]
    head = struct.pack(f"<BH{len(gs)}Q", secret, len(gs), *gs)
    return _container(TYPE_KEYSET, save_params(keys.params), head, *map(_u32, arrays))


def load_keyset(blob: bytes, offset: int = 0) -> KeySet:
    """Parse a keyset, refusing any body whose length differs from the one
    its parameters and Galois count imply before allocating an array."""
    body, _ = _expect(memoryview(blob), TYPE_KEYSET, offset)
    params, r = _open_with_params(body)
    has_secret, gcount = r.unpack("<BH")
    gs = r.unpack(f"<{gcount}Q")
    k, n = len(params.q_chain), params.n
    if has_secret > 1 or list(gs) != sorted(set(gs)) or any(g % 2 == 0 or g >= 2 * n for g in gs):
        raise SerializationError("malformed keyset header")
    blocks = has_secret + 2 + 2 * k * (1 + gcount)  # (k, n) residue blocks
    if len(body) - r.off != 4 * blocks * k * n:
        raise SerializationError(f"keyset body must hold {blocks} ({k}, {n}) residue blocks")
    res = r.residues((blocks, k, n))
    if (res >= np.array(params.q_chain, dtype=np.int64)[:, None]).any():
        raise SerializationError("key residue outside [0, q_i)")
    pk = res[has_secret : has_secret + 2]
    rlk, *gks = res[has_secret + 2 :].reshape(1 + gcount, 2, k, k, n)
    return KeySet(params, pk, rlk, dict(zip(gs, gks)), res[0] if has_secret else None)


def _optional_keyset(keys: KeySet | None) -> list:
    return [b"\x00"] if keys is None else [b"\x01", save_keyset(keys, include_secret=True)]


def _read_optional_keyset(r: _Reader) -> KeySet | None:
    (has_keys,) = r.unpack("<B")
    if not has_keys:
        return None
    _, _, nxt = read_container(r.buf, r.off)
    keys = load_keyset(r.buf, r.off)
    r.off = nxt
    return keys


# ---------------------------------------------------------------------------
# ciphertexts (both backends)
# ---------------------------------------------------------------------------


def save_ciphertext(ct) -> bytes:
    if isinstance(ct, MockCiphertext):
        head = struct.pack("<IIQ", len(ct.slots), ct.depth, ct.nonce)
        return _container(TYPE_MOCK_CIPHERTEXT, head, np.asarray(ct.slots, dtype="<u8").tobytes())
    if isinstance(ct, Ciphertext):
        head = struct.pack("<BBI", *ct.data.shape)
        return _container(TYPE_CIPHERTEXT, head, _u32(ct.data))
    raise SerializationError(f"cannot serialize ciphertext of type {type(ct)!r}")


def load_ciphertext(blob: bytes, offset: int = 0):
    """Parse one ciphertext container; returns (ciphertext, next offset)."""
    tc, body, nxt = read_container(blob, offset)
    r = _Reader(body)
    if tc == TYPE_MOCK_CIPHERTEXT:
        n, depth, nonce = r.unpack("<IIQ")
        slots = tuple(int(v) for v in np.frombuffer(r.take(8 * n), dtype="<u8"))
        r.done()
        return MockCiphertext(slots, depth, nonce), nxt
    if tc == TYPE_CIPHERTEXT:
        data = r.residues(r.unpack("<BBI"))
        r.done()
        return Ciphertext(data), nxt
    raise SerializationError(f"container type {tc} is not a ciphertext")


def _cts(cts) -> list:
    return [struct.pack("<B", len(cts)), *map(save_ciphertext, cts)]


def _read_cts(r: _Reader) -> tuple:
    (count,) = r.unpack("<B")
    cts = []
    for _ in range(count):
        ct, r.off = load_ciphertext(r.buf, r.off)
        cts.append(ct)
    return tuple(cts)


# ---------------------------------------------------------------------------
# replication-scheme objects
# ---------------------------------------------------------------------------


def _registry(registry: LabelRegistry) -> bytes:
    snap = registry.snapshot()
    return b"".join([struct.pack("<I", len(snap)), *(struct.pack("<H", len(b)) + b for b in snap)])


def _read_registry(r: _Reader) -> LabelRegistry:
    (count,) = r.unpack("<I")
    blobs = []
    for _ in range(count):
        (blen,) = r.unpack("<H")
        blobs.append(r.take(blen))
    return LabelRegistry.restore(blobs)


def save_rep_secret(secret: RepSecret) -> bytes:
    cs = sorted(secret.challenge_set)
    return _container(
        TYPE_REP_SECRET,
        save_params(secret.params),
        struct.pack(f"<IH{len(cs)}H", secret.lam, len(cs), *cs),
        secret.key.key,
        *_optional_keyset(secret.he_keys),
        _registry(secret.registry),
    )


def load_rep_secret(blob: bytes, offset: int = 0) -> RepSecret:
    body, _ = _expect(blob, TYPE_REP_SECRET, offset)
    params, r = _open_with_params(body)
    lam, scount = r.unpack("<IH")
    challenge = frozenset(r.unpack(f"<{scount}H"))
    key = PrfKey(r.take(32))
    he_keys = _read_optional_keyset(r)
    registry = _read_registry(r)
    r.done()
    return RepSecret(params, lam, challenge, key, he_keys, registry)


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
    block = r.take(64 * tcount)
    tags = tuple(block[i : i + 64] for i in range(0, len(block), 64))
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
    return _container(
        TYPE_PE_SECRET,
        save_params(secret.params),
        struct.pack("<Q", secret.alpha),
        secret.key.key,
        *_optional_keyset(secret.he_keys),
        _registry(secret.registry),
    )


def load_pe_secret(blob: bytes, offset: int = 0) -> PeSecret:
    body, _ = _expect(blob, TYPE_PE_SECRET, offset)
    params, r = _open_with_params(body)
    (alpha,) = r.unpack("<Q")
    if not 0 < alpha < params.t:
        raise SerializationError("α outside [1, t)")
    key = PrfKey(r.take(32))
    he_keys = _read_optional_keyset(r)
    registry = _read_registry(r)
    r.done()
    return PeSecret(params, key, alpha, he_keys, registry)


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
    if tc in (TYPE_CIPHERTEXT, TYPE_MOCK_CIPHERTEXT):
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
