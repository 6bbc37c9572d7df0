"""Binary containers for keys, ciphertexts, and authenticated uploads.

Every object ships in a self-delimiting container:

    magic "VRTS" ‖ u16 version ‖ u8 type code ‖ u32 body length ‖ body

so containers can be concatenated in protocol payloads and files.  All
integers are little-endian; ring elements are residue matrices
(u8 k ‖ u32 n ‖ k·n u64 residues, one row per prime).  Secret material (secret
key, PRF key, challenge set, α) only ever appears in the *_secret
containers; the keyset container carries an explicit flag so public
copies are distinguishable on disk.
"""

from __future__ import annotations

import struct

import numpy as np

from .bfv import Ciphertext, KeySet, RnsPoly
from .errors import SerializationError
from .labels import Identifier, LabelRegistry, PrfKey
from .mock import MockCiphertext
from .params import Params
from .pe import PeAuth, PeSecret
from .rep import RepAuth, RepResult, RepSecret

MAGIC = b"VRTS"
VERSION = 3  # 2: RNS-digit key-switching keys; 3: no ciphertext level byte

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


def _container(type_code: int, body: bytes) -> bytes:
    return MAGIC + struct.pack("<HBI", VERSION, type_code, len(body)) + body


def read_container(blob: bytes, offset: int = 0):
    """Parse one container; returns (type code, body, next offset)."""
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
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise SerializationError("container body ends early")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        vals = struct.unpack_from(fmt, self.buf, self.off)
        self.off += struct.calcsize(fmt)
        return vals

    def done(self):
        if self.off != len(self.buf):
            raise SerializationError("trailing bytes in container body")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def _write_ident(out: bytearray, ident: Identifier):
    blob = ident.canonical_bytes()
    out += struct.pack("<H", len(blob)) + blob


def _read_ident(r: _Reader) -> Identifier:
    (blen,) = r.unpack("<H")
    blob = r.take(blen)
    (llen,) = struct.unpack_from("<I", blob, 0)
    label = blob[4 : 4 + llen].decode("utf-8")
    flag = blob[4 + llen]
    if flag == 0:
        return Identifier(label)
    (slot,) = struct.unpack_from("<Q", blob, 5 + llen)
    return Identifier(label, slot)


def _write_mat(out: bytearray, mat: np.ndarray):
    k, n = mat.shape
    out += struct.pack("<BI", k, n)
    out += np.ascontiguousarray(mat, dtype=np.int64).astype("<u8").tobytes()


def _read_mat(r: _Reader) -> np.ndarray:
    k, n = r.unpack("<BI")
    raw = r.take(8 * k * n)
    return np.frombuffer(raw, dtype="<u8").astype(np.int64).reshape(k, n)


def _write_key_pairs(out: bytearray, pairs):
    out += struct.pack("<B", len(pairs))
    for b, a in pairs:
        _write_mat(out, b)
        _write_mat(out, a)


def _read_key_pairs(r: _Reader):
    (count,) = r.unpack("<B")
    return tuple((_read_mat(r), _read_mat(r)) for _ in range(count))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def save_params(params: Params) -> bytes:
    name = params.name.encode("utf-8")
    body = bytearray()
    body += struct.pack(
        "<IQdhB",
        params.n,
        params.t,
        params.err_std,
        -1 if params.depth_budget is None else params.depth_budget,
        len(params.q_chain),
    )
    for q in params.q_chain:
        body += struct.pack("<Q", q)
    body += struct.pack("<H", len(name)) + name
    return _container(TYPE_PARAMS, bytes(body))


def _params_from_body(body: bytes) -> Params:
    r = _Reader(body)
    n, t, err_std, depth, chain_len = r.unpack("<IQdhB")
    chain = tuple(r.unpack("<Q")[0] for _ in range(chain_len))
    (nlen,) = r.unpack("<H")
    name = r.take(nlen).decode("utf-8")
    r.done()
    return Params(
        n=n,
        t=t,
        q_chain=chain,
        err_std=err_std,
        depth_budget=None if depth < 0 else depth,
        name=name,
    )


def load_params(blob: bytes, offset: int = 0) -> Params:
    body, _ = _expect(blob, TYPE_PARAMS, offset)
    return _params_from_body(body)


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------


def save_keyset(keys: KeySet, include_secret: bool = False) -> bytes:
    body = bytearray()
    body += save_params(keys.params)
    secret = include_secret and keys.has_secret
    body += struct.pack("<B", 1 if secret else 0)
    if secret:
        _write_mat(body, keys.sk_ntt)
    _write_key_pairs(body, [keys.pk])
    _write_key_pairs(body, keys.rlk)
    body += struct.pack("<H", len(keys.gks))
    for g in sorted(keys.gks):
        body += struct.pack("<Q", g)
        _write_key_pairs(body, keys.gks[g])
    return _container(TYPE_KEYSET, bytes(body))


def load_keyset(blob: bytes, offset: int = 0) -> KeySet:
    body, _ = _expect(blob, TYPE_KEYSET, offset)
    tc, pbody, nxt = read_container(body, 0)
    if tc != TYPE_PARAMS:
        raise SerializationError("keyset container must open with parameters")
    params = _params_from_body(pbody)
    r = _Reader(body[nxt:])
    (has_secret,) = r.unpack("<B")
    sk = _read_mat(r) if has_secret else None
    (pk,) = _read_key_pairs(r)
    rlk = _read_key_pairs(r)
    (gcount,) = r.unpack("<H")
    gks = {}
    for _ in range(gcount):
        (g,) = r.unpack("<Q")
        gks[g] = _read_key_pairs(r)
    r.done()
    _check_key_material(params, sk, pk, rlk, gks)
    return KeySet(params, pk, rlk, gks, sk)


def _check_key_material(params: Params, sk, pk, rlk, gks):
    """Every key-switching key has one pair per chain prime, and every matrix
    is a (k, n) array of residues in [0, q_i)."""
    k = len(params.q_chain)
    if len(rlk) != k or any(len(ks) != k for ks in gks.values()):
        raise SerializationError(f"key-switching keys must carry {k} pairs, one per chain prime")
    q = np.array(params.q_chain, dtype=np.int64)[:, None]
    pairs = [pk, *rlk, *(pair for ks in gks.values() for pair in ks)]
    for mat in [m for pair in pairs for m in pair] + ([] if sk is None else [sk]):
        if mat.shape != (k, params.n) or (mat < 0).any() or (mat >= q).any():
            raise SerializationError(f"key matrix is not a ({k}, {params.n}) array of chain residues")


# ---------------------------------------------------------------------------
# ciphertexts (both backends)
# ---------------------------------------------------------------------------


def save_ciphertext(ct) -> bytes:
    if isinstance(ct, MockCiphertext):
        body = bytearray(struct.pack("<IIQ", len(ct.slots), ct.depth, ct.nonce))
        body += np.asarray(ct.slots, dtype="<u8").tobytes()
        return _container(TYPE_MOCK_CIPHERTEXT, bytes(body))
    if isinstance(ct, Ciphertext):
        body = bytearray(struct.pack("<BI", ct.degree, ct.mul_depth))
        for p in ct.polys:
            body += struct.pack("<B", 1 if p.evaldom else 0)
            _write_mat(body, p.mat)
        return _container(TYPE_CIPHERTEXT, bytes(body))
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
        degree, mul_depth = r.unpack("<BI")
        polys = []
        for _ in range(degree):
            (evaldom,) = r.unpack("<B")
            polys.append(RnsPoly(_read_mat(r), bool(evaldom)))
        r.done()
        return Ciphertext(tuple(polys), mul_depth), nxt
    raise SerializationError(f"container type {tc} is not a ciphertext")


def _write_cts(out: bytearray, cts):
    out += struct.pack("<B", len(cts))
    for ct in cts:
        out += save_ciphertext(ct)


def _read_cts(body: bytes, offset: int):
    (count,) = struct.unpack_from("<B", body, offset)
    offset += 1
    cts = []
    for _ in range(count):
        ct, offset = load_ciphertext(body, offset)
        cts.append(ct)
    return tuple(cts), offset


# ---------------------------------------------------------------------------
# replication-scheme objects
# ---------------------------------------------------------------------------


def _write_registry(out: bytearray, registry: LabelRegistry):
    snap = registry.snapshot()
    out += struct.pack("<I", len(snap))
    for blob in snap:
        out += struct.pack("<H", len(blob)) + blob


def _read_registry(r: _Reader) -> LabelRegistry:
    (count,) = r.unpack("<I")
    blobs = []
    for _ in range(count):
        (blen,) = r.unpack("<H")
        blobs.append(r.take(blen))
    return LabelRegistry.restore(blobs)


def save_rep_secret(secret: RepSecret) -> bytes:
    body = bytearray()
    body += save_params(secret.params)
    body += struct.pack("<IH", secret.lam, len(secret.challenge_set))
    for j in sorted(secret.challenge_set):
        body += struct.pack("<H", j)
    body += secret.key.key
    if secret.he_keys is not None:
        body += struct.pack("<B", 1)
        body += save_keyset(secret.he_keys, include_secret=True)
    else:
        body += struct.pack("<B", 0)
    _write_registry(body, secret.registry)
    return _container(TYPE_REP_SECRET, bytes(body))


def load_rep_secret(blob: bytes, offset: int = 0) -> RepSecret:
    body, _ = _expect(blob, TYPE_REP_SECRET, offset)
    tc, pbody, nxt = read_container(body, 0)
    if tc != TYPE_PARAMS:
        raise SerializationError("secret container must open with parameters")
    params = _params_from_body(pbody)
    r = _Reader(body[nxt:])
    lam, scount = r.unpack("<IH")
    challenge = frozenset(r.unpack("<H")[0] for _ in range(scount))
    key = PrfKey(r.take(32))
    (has_keys,) = r.unpack("<B")
    he_keys = None
    if has_keys:
        _, _, knxt = read_container(r.buf, r.off)
        he_keys = load_keyset(r.buf, r.off)
        r.off = knxt
    registry = _read_registry(r)
    r.done()
    return RepSecret(params, lam, challenge, key, he_keys, registry)


def save_rep_auth(auth: RepAuth) -> bytes:
    body = bytearray()
    _write_ident(body, auth.base)
    body += struct.pack("<II", auth.length, auth.lam)
    _write_cts(body, auth.cts)
    body += struct.pack("<I", len(auth.tags))
    for tag in auth.tags:
        body += tag
    return _container(TYPE_REP_AUTH, bytes(body))


def load_rep_auth(blob: bytes, offset: int = 0) -> RepAuth:
    body, _ = _expect(blob, TYPE_REP_AUTH, offset)
    r = _Reader(body)
    base = _read_ident(r)
    length, lam = r.unpack("<II")
    cts, r.off = _read_cts(body, r.off)
    (tcount,) = r.unpack("<I")
    tags = tuple(r.take(64) for _ in range(tcount))
    r.done()
    return RepAuth(base, length, lam, cts, tags)


def save_rep_result(res: RepResult) -> bytes:
    body = bytearray()
    body += struct.pack("<I", res.lam)
    _write_cts(body, res.cts)
    body += res.tag
    return _container(TYPE_REP_RESULT, bytes(body))


def load_rep_result(blob: bytes, offset: int = 0) -> RepResult:
    body, _ = _expect(blob, TYPE_REP_RESULT, offset)
    r = _Reader(body)
    (lam,) = r.unpack("<I")
    cts, r.off = _read_cts(body, r.off)
    tag = r.take(64)
    r.done()
    return RepResult(cts, tag, lam)


# ---------------------------------------------------------------------------
# polynomial-encoding objects
# ---------------------------------------------------------------------------


def save_pe_secret(secret: PeSecret) -> bytes:
    body = bytearray()
    body += save_params(secret.params)
    body += struct.pack("<Q", secret.alpha)
    body += secret.key.key
    if secret.he_keys is not None:
        body += struct.pack("<B", 1)
        body += save_keyset(secret.he_keys, include_secret=True)
    else:
        body += struct.pack("<B", 0)
    _write_registry(body, secret.registry)
    return _container(TYPE_PE_SECRET, bytes(body))


def load_pe_secret(blob: bytes, offset: int = 0) -> PeSecret:
    body, _ = _expect(blob, TYPE_PE_SECRET, offset)
    tc, pbody, nxt = read_container(body, 0)
    if tc != TYPE_PARAMS:
        raise SerializationError("secret container must open with parameters")
    params = _params_from_body(pbody)
    r = _Reader(body[nxt:])
    (alpha,) = r.unpack("<Q")
    key = PrfKey(r.take(32))
    (has_keys,) = r.unpack("<B")
    he_keys = None
    if has_keys:
        _, _, knxt = read_container(r.buf, r.off)
        he_keys = load_keyset(r.buf, r.off)
        r.off = knxt
    registry = _read_registry(r)
    r.done()
    return PeSecret(params, key, alpha, he_keys, registry)


def save_pe_auth(auth: PeAuth) -> bytes:
    body = bytearray()
    if auth.base is None:
        body += struct.pack("<B", 0)
    else:
        body += struct.pack("<B", 1)
        _write_ident(body, auth.base)
    _write_cts(body, auth.cts)
    return _container(TYPE_PE_AUTH, bytes(body))


def load_pe_auth(blob: bytes, offset: int = 0) -> PeAuth:
    body, _ = _expect(blob, TYPE_PE_AUTH, offset)
    r = _Reader(body)
    (has_base,) = r.unpack("<B")
    base = _read_ident(r) if has_base else None
    cts, r.off = _read_cts(body, r.off)
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
