"""Replication-style authenticated encoding over batched ciphertexts.

A vector m = (m_0 … m_{l-1}) is authenticated by λ-fold extension: block i
of λ consecutive slots carries

    M[i·λ + j] = m_i                    for j ∉ S   (replica offsets)
    M[i·λ + j] = F_K(τ_i, j)           for j ∈ S   (challenge offsets)

where S is a secret uniformly-drawn subset of exactly λ/2 of the block
offsets and τ_i = (base label, component i).  Each component additionally
carries a tag ν_i = F_K(τ_i).  The evaluator runs the circuit with every
rotation step scaled by λ (so block offsets never mix) and folds the
circuit structure plus input tags into one digest with impartial hashing.

The verifier re-derives the challenge offsets: replica offsets of the
output block must all equal the claimed result, challenge offsets must
equal the circuit evaluated over the per-column PRF challenges, and the
digest must match.  An adversary who modifies the result must hit every
replica offset and no challenge offset — it must guess S exactly, which
happens with probability 1/C(λ, λ/2).
"""

from __future__ import annotations

import math
import random
import secrets as _secrets
from dataclasses import dataclass, field

import numpy as np

from . import bfv
from .circuit import Program, eval_challenge_rep, eval_he, required_rotation_steps
from .errors import LayoutError, ParameterError
from .labels import (
    Identifier,
    LabelRegistry,
    PrfKey,
    fold_tags,
    hash_tree_eval,
    prf_tag,
    slot_prf,
)
from .params import Params


@dataclass
class RepSecret:
    """Verifier-side key: PRF key, the challenge-offset set, and HE keys."""

    params: Params
    lam: int
    challenge_set: frozenset
    key: PrfKey
    he_keys: bfv.KeySet | None = None
    registry: LabelRegistry = field(default_factory=LabelRegistry)

    @property
    def slots_per_ct(self) -> int:
        return self.params.n // self.lam


@dataclass(frozen=True)
class RepAuth:
    """Authenticated upload: extended ciphertexts plus per-component tags."""

    base: Identifier
    length: int
    lam: int
    cts: tuple
    tags: tuple

    @property
    def num_cts(self) -> int:
        return len(self.cts)


@dataclass(frozen=True)
class RepResult:
    """Evaluator output: result ciphertexts and the structure digest ν'."""

    cts: tuple
    tag: bytes
    lam: int


def rep_ct_count(length: int, lam: int, n: int) -> int:
    """⌈l·λ / n⌉ — ciphertexts needed for an l-component authentication."""
    return -(-length * lam // n)


def rep_keygen(
    params: Params,
    lam: int = 32,
    programs=(),
    extra_steps=(),
    rng: random.Random | None = None,
    make_he_keys: bool = True,
) -> RepSecret:
    """Draw the challenge set and PRF key; optionally generate HE keys.

    Rotation keys are created for exactly the steps the given programs
    need once scaled by λ (plus `extra_steps`, given in physical slots,
    and the row swap).  Pass ``make_he_keys=False`` for mock-backend runs.
    """
    n = params.n
    if lam < 2 or lam & (lam - 1):
        raise ParameterError(f"replication factor must be a power of two ≥ 2, got {lam}")
    if (n // 2) % lam:
        raise ParameterError(f"replication factor {lam} must divide a row of {n // 2}")
    rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
    challenge_set = frozenset(rnd.sample(range(lam), lam // 2))
    key = PrfKey.generate(rnd)
    he_keys = None
    if make_he_keys:
        steps = set(extra_steps)
        for prog in programs:
            s, _ = required_rotation_steps(prog, stride=lam, n_slots=n)
            steps |= s
        np_seed = rnd.getrandbits(64)
        he_keys = bfv.keygen(
            params, rotation_steps=sorted(steps), rng=np.random.default_rng(np_seed)
        )
    return RepSecret(params, lam, challenge_set, key, he_keys)


def rep_extend(secret: RepSecret, values, base: Identifier) -> list[list[int]]:
    """Materialize the extended slot vectors (one list per ciphertext)."""
    params, lam = secret.params, secret.lam
    n, t = params.n, params.t
    per_ct = secret.slots_per_ct
    l = len(values)
    prf = slot_prf(secret.key, base, t)
    out = []
    for c in range(rep_ct_count(l, lam, n)):
        slots = [0] * n
        for i_local in range(per_ct):
            i = c * per_ct + i_local
            if i >= l:
                break
            m_i = int(values[i]) % t
            for j in range(lam):
                if j in secret.challenge_set:
                    slots[i_local * lam + j] = prf(i, j)
                else:
                    slots[i_local * lam + j] = m_i
        out.append(slots)
    return out


def rep_auth(secret: RepSecret, backend, values, base) -> RepAuth:
    """Authenticate a vector of values under a fresh base identifier."""
    if isinstance(base, str):
        base = Identifier(base)
    if base.slot is not None:
        raise ParameterError("base identifier must not carry a slot index")
    if not values:
        raise ParameterError("cannot authenticate an empty vector")
    secret.registry.register(base)
    cts = tuple(backend.encrypt(s) for s in rep_extend(secret, values, base))
    tags = tuple(
        prf_tag(secret.key, base.with_slot(i)) for i in range(len(values))
    )
    return RepAuth(base, len(values), secret.lam, cts, tags)


def rep_eval(program: Program, auths, backend, lam: int) -> RepResult:
    """Run the program over extended ciphertexts and fold the digest.

    Single-ciphertext inputs support the full gate set (steps scaled by λ);
    multi-ciphertext inputs are processed slot-parallel per ciphertext and
    therefore only admit add/sub gates (rotations would cross ciphertext
    boundaries, which the layout cannot express).
    """
    n = backend.params.n
    if program.width * lam != n:
        raise LayoutError(
            f"program width {program.width} ≠ {n // lam} logical slots per ciphertext"
        )
    if len(auths) != program.num_inputs:
        raise ParameterError("one authentication per program input required")
    for k, a in enumerate(auths):
        if a.base != program.inputs[k]:
            raise ParameterError(
                f"input {k} was authenticated as {a.base!r} but the program "
                f"names it {program.inputs[k]!r}; verification would reject"
            )
    if any(a.lam != lam for a in auths):
        raise ParameterError("mixed replication factors")
    counts = {a.num_cts for a in auths}
    if counts == {1}:
        out_cts = (eval_he(program, [a.cts[0] for a in auths], backend, stride=lam),)
    else:
        if len(counts) != 1:
            raise LayoutError("inputs span different ciphertext counts")
        if not program.add_sub_only:
            raise LayoutError(
                "multi-ciphertext evaluation supports add/sub only"
            )
        m = counts.pop()
        out_cts = tuple(
            eval_he(program, [a.cts[c] for a in auths], backend, stride=lam)
            for c in range(m)
        )
    leaves = [fold_tags(a.tags) for a in auths]
    return RepResult(out_cts, hash_tree_eval(program, leaves), lam)


def rep_challenge_value(
    secret: RepSecret, program: Program, input_lengths, chunk: int, col: int
) -> list[int]:
    """Circuit output over challenge column `col`, for one ciphertext chunk."""
    return eval_challenge_rep(
        program, secret.key, secret.params.t, input_lengths, col,
        first=chunk * secret.slots_per_ct,
    )


def rep_decode(secret: RepSecret, backend, result: RepResult, program: Program):
    """Read the claimed output values from the replica offsets.

    Returns the output block of every chunk, concatenated — the claim
    `rep_verify` expects.  Reads one fixed replica offset per position;
    verification separately checks that all of them agree.
    """
    lam = secret.lam
    offset = min(j for j in range(lam) if j not in secret.challenge_set)
    start, count = program.output_block
    out = []
    for ct in result.cts:
        slots = backend.decrypt(ct)
        out.extend(slots[(start + idx) * lam + offset] for idx in range(count))
    return out


def rep_verify(
    secret: RepSecret,
    backend,
    program: Program,
    result: RepResult,
    claimed,
    input_lengths,
    reason: list | None = None,
) -> bool:
    """Accept iff the digest, every challenge offset, and every replica
    offset of the output block check out.  The verdict stays local.

    A multi-ciphertext result applies the program chunk by chunk, so the
    output block repeats once per chunk: the claim concatenates the block
    of every chunk, `count × num_cts` values in chunk order.
    """

    def fail(msg: str) -> bool:
        if reason is not None:
            reason.append(msg)
        return False

    params, lam = secret.params, secret.lam
    t = params.t
    start, count = program.output_block
    claimed = [int(v) % t for v in claimed]
    if len(claimed) != count * len(result.cts):
        raise ParameterError(
            f"output block holds {count} values per chunk over "
            f"{len(result.cts)} chunk(s), claim has {len(claimed)}"
        )
    if len(input_lengths) != program.num_inputs:
        raise ParameterError("one input length per program input required")

    leaves = []
    for k, base in enumerate(program.inputs):
        tags = [
            prf_tag(secret.key, base.with_slot(i)) for i in range(input_lengths[k])
        ]
        leaves.append(fold_tags(tags))
    if hash_tree_eval(program, leaves) != result.tag:
        return fail("structure digest mismatch")

    chal_cache: dict = {}
    for chunk, ct in enumerate(result.cts):
        slots = backend.decrypt(ct)
        for idx in range(count):
            local = start + idx
            value = claimed[chunk * count + idx]
            block = slots[local * lam : (local + 1) * lam]
            for j in range(lam):
                if j in secret.challenge_set:
                    if (chunk, j) not in chal_cache:
                        chal_cache[(chunk, j)] = rep_challenge_value(
                            secret, program, input_lengths, chunk, j
                        )
                    if block[j] != chal_cache[(chunk, j)][local]:
                        return fail(
                            f"challenge offset mismatch at chunk {chunk} slot {local}"
                        )
                elif block[j] != value:
                    return fail(
                        f"replica offset mismatch at chunk {chunk} slot {local}"
                    )
    return True


def rep_forgery_bound(lam: int) -> float:
    """Chance of a blind additive forgery slipping through: 1/C(λ, λ/2)."""
    return 1.0 / math.comb(lam, lam // 2)
