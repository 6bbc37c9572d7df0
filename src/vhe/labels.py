"""Keyed PRF outputs, authentication tags, and the gate hash tree.

Blake2b-512 is the single primitive: keyed mode where a PRF is required
(per-slot challenge values, input tags), keyless mode for the public
collision-resistant hash that the evaluator uses to fold a circuit's
structure and input tags into one digest.  Domain separation between the
three roles uses the ``person`` parameter.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from dataclasses import dataclass

from .errors import IdentifierReuseError, ParameterError

DIGEST_BYTES = 64

_PERSON_ZT = b"vhe:prf-zt"
_PERSON_TAG = b"vhe:prf-tag"
_PERSON_TREE = b"vhe:gate-tree"
_PERSON_LEAF = b"vhe:leaf-fold"


@dataclass(frozen=True)
class Identifier:
    """A unique name for one authenticated datum.

    ``slot`` distinguishes per-slot identifiers derived from a common base
    label (used by the polynomial encoding, where every slot of a packed
    vector carries its own identity).
    """

    label: str
    slot: int | None = None

    def canonical_bytes(self) -> bytes:
        lab = self.label.encode("utf-8")
        head = struct.pack("<I", len(lab)) + lab
        if self.slot is None:
            return head + b"\x00"
        if self.slot < 0:
            raise ParameterError("slot index must be non-negative")
        return head + b"\x01" + struct.pack("<Q", self.slot)

    def with_slot(self, slot: int) -> "Identifier":
        if self.slot is not None:
            raise ParameterError("identifier already carries a slot index")
        return Identifier(self.label, slot)


@dataclass(frozen=True)
class PrfKey:
    """32-byte key for the keyed-Blake2b PRF roles."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise ParameterError("PRF key must be exactly 32 bytes")

    @classmethod
    def generate(cls, rng=None) -> "PrfKey":
        if rng is None:
            return cls(secrets.token_bytes(32))
        return cls(rng.getrandbits(256).to_bytes(32, "little"))


def _prf_message(ident: Identifier, aux: int | None) -> bytes:
    msg = ident.canonical_bytes()
    if aux is None:
        return msg + b"\x00"
    if aux < 0:
        raise ParameterError("aux index must be non-negative")
    return msg + b"\x01" + struct.pack("<Q", aux)


def prf_zt(key: PrfKey, ident: Identifier, t: int, aux: int | None = None) -> int:
    """Pseudorandom element of Z_t for (identifier, optional aux index).

    The 512-bit keyed digest is reduced mod t; for t < 2^60 the resulting
    bias is below 2^-450 and irrelevant at any statistical level used here.
    """
    if t < 2:
        raise ParameterError("PRF range modulus must be ≥ 2")
    h = hashlib.blake2b(
        _prf_message(ident, aux), key=key.key, person=_PERSON_ZT
    ).digest()
    return int.from_bytes(h, "little") % t


def slot_prf(key: PrfKey, base: Identifier, t: int):
    """``prf_zt(key, base.with_slot(slot), t, aux)`` as a function of
    ``(slot, aux=None)``, for many slots of one base identifier.

    The keyed, personalized Blake2b state over the base's canonical prefix
    (its canonical bytes without the no-slot marker) is built once; each
    value copies it and hashes only the slot and aux suffix that
    :func:`_prf_message` would append.
    """
    if t < 2:
        raise ParameterError("PRF range modulus must be ≥ 2")
    if base.slot is not None:
        raise ParameterError("identifier already carries a slot index")
    prefix = hashlib.blake2b(
        base.canonical_bytes()[:-1], key=key.key, person=_PERSON_ZT
    )

    def value(slot: int, aux: int | None = None) -> int:
        if slot < 0:
            raise ParameterError("slot index must be non-negative")
        h = prefix.copy()
        if aux is None:
            h.update(struct.pack("<BQB", 1, slot, 0))
        elif aux < 0:
            raise ParameterError("aux index must be non-negative")
        else:
            h.update(struct.pack("<BQBQ", 1, slot, 1, aux))
        return int.from_bytes(h.digest(), "little") % t

    return value


def prf_tag(key: PrfKey, ident: Identifier) -> bytes:
    """64-byte authentication tag bound to an identifier (aux-independent)."""
    return hashlib.blake2b(
        ident.canonical_bytes(), key=key.key, person=_PERSON_TAG
    ).digest()


def fold_tags(tags) -> bytes:
    """Collapse a vector of per-component tags into one leaf digest.

    Inputs authenticated as length-l vectors carry l tags; the hash tree
    consumes one digest per circuit input, so multi-component tag vectors
    are folded with the public hash before entering the tree.
    """
    tags = list(tags)
    if not tags:
        raise ParameterError("cannot fold an empty tag vector")
    if any(len(t) != DIGEST_BYTES for t in tags):
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
            digests.append(leaf_tags[gate.input_index])
            continue
        h = hashlib.blake2b(person=_PERSON_TREE)
        h.update(gate.tree_bytes())
        for arg in gate.args:
            h.update(digests[arg])
        digests.append(h.digest())
    return digests[program.output]


class LabelRegistry:
    """Tracks identifiers already spent under one secret key.

    Authenticating two different values under the same identifier would
    let an evaluator swap them undetected, so re-registration aborts.
    """

    def __init__(self):
        self._seen: set[bytes] = set()

    def register(self, ident: Identifier):
        blob = ident.canonical_bytes()
        if blob in self._seen:
            raise IdentifierReuseError(f"identifier already used: {ident!r}")
        self._seen.add(blob)

    def __contains__(self, ident: Identifier) -> bool:
        return ident.canonical_bytes() in self._seen

    def __len__(self):
        return len(self._seen)

    def snapshot(self) -> list[bytes]:
        """Stable dump for persistence (sorted canonical byte strings)."""
        return sorted(self._seen)

    @classmethod
    def restore(cls, blobs) -> "LabelRegistry":
        reg = cls()
        reg._seen = set(bytes(b) for b in blobs)
        return reg
