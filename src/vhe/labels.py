"""Keyed PRF outputs, authentication tags, and the gate hash tree.

Challenge values come from SHAKE-256 streams: one keyed stream per (base
identifier, aux), whose element i is the challenge of (base, slot = i).
Words are masked to the bit length of t and the ones at or above t are
skipped (rejection sampling by :func:`vhe.ring.xof_uniform`, as for
:func:`vhe.bfv.expand_uniform`), so every value is uniform in Z_t with no
reduction bias.  Tags and the gate tree stay Blake2b-512: keyed mode for
the input tags, keyless mode for the public collision-resistant hash that
the evaluator uses to fold a circuit's structure and input tags into one
digest.  Each role hashes under its own personalization.  Authentications
made under the earlier per-slot Blake2b challenge values no longer verify.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IdentifierReuseError, ParameterError
from .ring import xof_uniform

DIGEST_BYTES = 64

_PERSON_STREAM = b"vhe:prf-stream\x00\x00"  # 16 bytes, so the key sits at a fixed offset
_PERSON_TAG = b"vhe:prf-tag"
_PERSON_TREE = b"vhe:gate-tree"
_PERSON_LEAF = b"vhe:leaf-fold"

# values per XOF block: element i of a stream reads only block i // _BLOCK
_BLOCK = 1024
_SLOT_STREAM = b"\x02"  # after a label head; 0x00 and 0x01 mark identifiers


@dataclass(frozen=True)
class Identifier:
    """A unique name for one authenticated datum.

    ``slot`` distinguishes per-slot identifiers derived from a common base
    label (used by the polynomial encoding, where every slot of a packed
    vector carries its own identity).
    """

    label: str
    slot: int | None = None

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ParameterError("identifier label must be a string")
        s = self.slot
        if s is not None and (type(s) is not int or not 0 <= s < 1 << 64):
            raise ParameterError("slot index must be None or an int in [0, 2^64)")

    @property
    def head(self) -> bytes:
        """The label head every encoding of this identifier starts with:
        u32 length ‖ UTF-8 label."""
        lab = self.label.encode("utf-8")
        return struct.pack("<I", len(lab)) + lab

    def canonical_bytes(self) -> bytes:
        tail = b"\x00" if self.slot is None else struct.pack("<BQ", 1, self.slot)
        return self.head + tail

    def with_slot(self, slot: int) -> "Identifier":
        if self.slot is not None:
            raise ParameterError("identifier already carries a slot index")
        return Identifier(self.label, slot)


@dataclass(frozen=True)
class PrfKey:
    """32-byte key for the challenge streams and the keyed-Blake2b tags."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise ParameterError("PRF key must be exactly 32 bytes")

    @classmethod
    def generate(cls, rng=None) -> "PrfKey":
        if rng is None:
            return cls(secrets.token_bytes(32))
        return cls(rng.getrandbits(256).to_bytes(32, "little"))


def _stream(key: PrfKey, name: bytes, aux, t: int, start: int, stop: int) -> np.ndarray:
    """Elements [start, stop) of the stream of (name, aux), as int64.

    Block b is ring.xof_uniform of SHAKE-256(person ‖ key ‖ name ‖ aux ‖
    u64 b), read only as far as asked: every element is fixed by its index,
    and a shorter stream is a prefix of a longer one.
    """
    if t < 2 or t.bit_length() > 63:
        raise ParameterError("PRF range modulus must lie in [2, 2^63)")
    if aux is not None and aux < 0:
        raise ParameterError("aux index must be non-negative")
    tail = b"\x00" if aux is None else b"\x01" + struct.pack("<Q", aux)
    prefix = _PERSON_STREAM + key.key + name + tail
    parts = [np.zeros(0, dtype=np.int64)]
    for b in range(start // _BLOCK, -(-stop // _BLOCK)):
        xof = hashlib.shake_256(prefix + struct.pack("<Q", b))
        parts.append(xof_uniform(xof, t, min(_BLOCK, stop - b * _BLOCK)))
    off = start % _BLOCK
    return np.concatenate(parts)[off : off + stop - start]


def prf_stream(
    key: PrfKey, base: Identifier, t: int, count: int, aux: int | None = None
) -> np.ndarray:
    """The first `count` challenge values of (base, aux) as int64 in [0, t):
    element i is the value of (base.with_slot(i), aux), :func:`prf_zt`'s."""
    if base.slot is not None:
        raise ParameterError("identifier already carries a slot index")
    if count < 0:
        raise ParameterError("stream length must be non-negative")
    return _stream(key, base.head + _SLOT_STREAM, aux, t, 0, count)


def prf_zt(key: PrfKey, ident: Identifier, t: int, aux: int | None = None) -> int:
    """Pseudorandom element of Z_t for (identifier, optional aux index).

    A slotted identifier (label, i) reads element i of its base's stream
    (:func:`prf_stream`); a slotless one reads element 0 of its own stream,
    whose name ends in the no-slot marker instead of the stream marker.
    """
    if ident.slot is None:
        return int(_stream(key, ident.canonical_bytes(), aux, t, 0, 1)[0])
    return int(_stream(key, ident.head + _SLOT_STREAM, aux, t, ident.slot, ident.slot + 1)[0])


def prf_tag(key: PrfKey, ident: Identifier) -> bytes:
    """64-byte authentication tag bound to an identifier (aux-independent)."""
    return hashlib.blake2b(
        ident.canonical_bytes(), key=key.key, person=_PERSON_TAG
    ).digest()


def prf_tags(key: PrfKey, base: Identifier, count: int) -> list[bytes]:
    """``prf_tag(key, base.with_slot(i))`` for every i < count: each copies
    one keyed state over the base's label head and hashes the slot suffix."""
    if base.slot is not None:
        raise ParameterError("identifier already carries a slot index")
    prefix = hashlib.blake2b(base.head, key=key.key, person=_PERSON_TAG)
    tags = []
    for i in range(count):
        h = prefix.copy()
        h.update(struct.pack("<BQ", 1, i))
        tags.append(h.digest())
    return tags


def fold_tags(tags) -> bytes:
    """Collapse a vector of per-component tags into one leaf digest.

    Inputs authenticated as length-l vectors carry l tags; the hash tree
    consumes one digest per circuit input, so multi-component tag vectors
    are folded with the public hash before entering the tree.
    """
    tags = list(tags)
    if not tags:
        raise ParameterError("cannot fold an empty tag vector")
    if set(map(len, tags)) != {DIGEST_BYTES}:
        raise ParameterError("tags must be 64-byte digests")
    if len(tags) == 1:
        return tags[0]
    return hashlib.blake2b(b"".join(tags), person=_PERSON_LEAF).digest()


def hash_tree_eval(program, leaf_tags) -> bytes:
    """Fold a program's structure and input digests into a single digest.

    Every gate is replaced by the public hash: a gate's digest is
    H(op tag ‖ canonical gate parameters ‖ child digests in operand order);
    an input gate's digest is its leaf tag.  The returned digest is the
    output gate's.  Any change to the circuit structure, a constant, a
    rotation step, or any input identity changes the result.
    """
    leaf_tags = list(leaf_tags)
    if len(leaf_tags) != program.num_inputs:
        raise ParameterError(
            f"program has {program.num_inputs} inputs, got {len(leaf_tags)} leaves"
        )
    if any(len(t) != DIGEST_BYTES for t in leaf_tags):
        raise ParameterError("leaf tags must be 64-byte digests")
    digests: list[bytes] = []
    for gate in program.gates:
        if gate.op == "input":
            digests.append(leaf_tags[gate.param])
            continue
        h = hashlib.blake2b(person=_PERSON_TREE)
        h.update(gate.tree_bytes())
        for arg in gate.args:
            h.update(digests[arg])
        digests.append(h.digest())
    return digests[program.output]


class LabelRegistry:
    """Tracks identifiers already spent under one secret key, each with the
    number of values authenticated under it.

    Authenticating two different values under the same identifier would
    let an evaluator swap them undetected, so re-registration aborts.
    """

    def __init__(self):
        self._seen: dict[bytes, int] = {}

    def register(self, ident, count: int) -> Identifier:
        """Spend a base identifier (or a label naming one) on `count`
        values: refuse a slotted or spent one, and return it."""
        if isinstance(ident, str):
            ident = Identifier(ident)
        if ident.slot is not None:
            raise ParameterError("base identifier must not carry a slot index")
        blob = ident.canonical_bytes()
        if blob in self._seen:
            raise IdentifierReuseError(f"identifier already used: {ident!r}")
        self._seen[blob] = count
        return ident

    def lengths(self, idents) -> list[int]:
        """The number of values authenticated under each identifier; one
        this key never authenticated is a ParameterError."""
        unknown = [i for i in idents if i not in self]
        if unknown:
            raise ParameterError(f"this key never authenticated {unknown[0]!r}")
        return [self._seen[i.canonical_bytes()] for i in idents]

    def __contains__(self, ident: Identifier) -> bool:
        return ident.canonical_bytes() in self._seen

    def __len__(self):
        return len(self._seen)

    def snapshot(self) -> list[tuple[bytes, int]]:
        """Stable dump for persistence: (canonical bytes, count), sorted."""
        return sorted(self._seen.items())

    @classmethod
    def restore(cls, items) -> "LabelRegistry":
        reg = cls()
        reg._seen = {bytes(b): n for b, n in items}
        return reg
