"""Replication-style authenticated encoding over batched ciphertexts.

A vector m = (m_0 … m_{l-1}) is authenticated by λ-fold extension: block i
of λ consecutive slots carries

    M[i·λ + j] = m_i                    for j ∉ S   (replica offsets)
    M[i·λ + j] = F_K(τ_i, j)           for j ∈ S   (challenge offsets)

where S is a secret uniformly-drawn subset of exactly λ/2 of the block
offsets and τ_i = (base label, component i).  Each component has a tag
ν_i = F_K(τ_i); the upload carries only their fold, one 64-byte leaf per
input (`rep_leaf`), since that is all the evaluator hashes.  The evaluator
runs the circuit with every rotation step scaled by λ (so block offsets
never mix) and folds the circuit structure plus the input leaves into one
digest with impartial hashing.

The verifier (`rep_check`, on decrypted slots) re-derives the challenge
offsets: the replica offsets of each output position must agree, and
their value is the claim; challenge offsets must equal the circuit
evaluated over the per-column PRF challenges, and the digest must match.
An adversary who modifies the result must hit every replica offset and no
challenge offset — it must guess S exactly, which happens with
probability 1/C(λ, λ/2).
"""

from __future__ import annotations

import math
import random
import secrets as _secrets
from dataclasses import dataclass, field

import numpy as np

from . import bfv
from .circuit import Program, challenge_input_rep, check_inputs, eval_challenge_rep, eval_he
from .errors import LayoutError, ParameterError, reject
from .labels import Identifier, LabelRegistry, PrfKey, fold_tags, hash_tree_eval, prf_tags
from .params import Params
from .ring import slot_array


@dataclass
class RepSecret:
    """Verifier-side key: PRF key, the challenge-offset set, and HE keys."""

    params: Params
    lam: int
    challenge_set: frozenset
    key: PrfKey
    he_keys: bfv.KeySet | None = None
    registry: LabelRegistry = field(default_factory=LabelRegistry)


@dataclass(frozen=True)
class RepAuth:
    """Authenticated upload: extended ciphertexts plus the input's leaf."""

    base: Identifier
    lam: int
    cts: tuple
    leaf: bytes


@dataclass(frozen=True)
class RepResult:
    """Evaluator output: result ciphertexts and the structure digest ν'."""

    cts: tuple
    tag: bytes


def rep_ct_count(length: int, lam: int, n: int) -> int:
    """⌈l·λ / n⌉ — ciphertexts needed for an l-component authentication."""
    return -(-length * lam // n)


def rep_keygen(
    params: Params,
    lam: int = 32,
    programs=(),
    rng: random.Random | None = None,
    make_he_keys: bool = True,
) -> RepSecret:
    """Draw the challenge set and PRF key; optionally generate HE keys.

    Rotation keys are created for exactly the steps the given programs
    need once scaled by λ, and the row-swap key only if one of them swaps
    rows.  Pass ``make_he_keys=False`` for mock-backend runs.  Without
    `rng` (seeded experiments and tests pass one) each draw comes from
    `secrets`.
    """
    n = params.n
    if lam < 2 or lam & (lam - 1):
        raise ParameterError(f"replication factor must be a power of two ≥ 2, got {lam}")
    if (n // 2) % lam:
        raise ParameterError(f"replication factor {lam} must divide a row of {n // 2}")
    rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
    challenge_set = frozenset(rnd.sample(range(lam), lam // 2))
    key = PrfKey.generate(rng)
    he_keys = None
    if make_he_keys:
        gen = None if rng is None else np.random.default_rng(rnd.getrandbits(64))
        he_keys = bfv.program_keys(params, programs, lam, rng=gen)
    return RepSecret(params, lam, challenge_set, key, he_keys)


def rep_extend(secret: RepSecret, values, base: Identifier) -> np.ndarray:
    """Materialize the extended slot vectors, one row per ciphertext.

    Row-major, component i owns block i of λ slots: its replica offsets
    broadcast m_i, and challenge offset j holds element i of the stream of
    (base, aux=j).  Blocks past the last component are zero.
    """
    params, lam = secret.params, secret.lam
    t = params.t
    per_ct = params.n // lam
    m = slot_array(values, t)
    count = rep_ct_count(len(m), lam, params.n)
    cols = sorted(secret.challenge_set)
    blocks = np.zeros((count * per_ct, lam), dtype=m.dtype)
    blocks[: len(m)] = m[:, None]
    chal = challenge_input_rep(secret.key, base, len(m), per_ct, t, cols, count)
    blocks[:, cols] = chal.reshape(len(cols), -1).T
    return blocks.reshape(count, params.n)


def rep_leaf(secret: RepSecret, base: Identifier, length: int) -> bytes:
    """An input's leaf in the structure digest: the fold of its l tags."""
    return fold_tags(prf_tags(secret.key, base, length))


def rep_auth(secret: RepSecret, backend, values, base) -> RepAuth:
    """Authenticate a vector of values under a fresh base identifier."""
    if len(values) == 0:
        raise ParameterError("cannot authenticate an empty vector")
    base = secret.registry.register(base, len(values))
    cts = backend.encrypt_many(rep_extend(secret, values, base))
    return RepAuth(base, secret.lam, cts, rep_leaf(secret, base, len(values)))


def rep_eval(program: Program, auths, backend, lam: int) -> RepResult:
    """Run the program over extended ciphertexts and fold the digest.

    Single-ciphertext inputs support the full gate set (steps scaled by λ);
    multi-ciphertext inputs are processed slot-parallel per ciphertext and
    therefore only admit add/sub gates (rotations would cross ciphertext
    boundaries, which the layout cannot express).  Every input ciphertext
    must pass `backend.check_operand` first.
    """
    n = backend.params.n
    if program.width * lam != n:
        raise LayoutError(
            f"program width {program.width} ≠ {n // lam} logical slots per ciphertext"
        )
    check_inputs(program, auths, backend)
    if any(a.lam != lam for a in auths):
        raise ParameterError("mixed replication factors")
    counts = {len(a.cts) for a in auths}
    if len(counts) != 1:
        raise LayoutError("inputs span different ciphertext counts")
    (m,) = counts
    if m != 1 and not program.add_sub_only:
        raise LayoutError("multi-ciphertext evaluation supports add/sub only")
    out_cts = tuple(
        eval_he(program, [a.cts[c] for a in auths], backend, stride=lam)
        for c in range(m)
    )
    return RepResult(out_cts, hash_tree_eval(program, [a.leaf for a in auths]))


def rep_challenge_value(secret: RepSecret, program: Program, input_lengths, chunks: int) -> np.ndarray:
    """Circuit output over every challenge column (in increasing offset
    order) for every ciphertext chunk: shape (λ/2, chunks, width)."""
    cols = sorted(secret.challenge_set)
    return eval_challenge_rep(program, secret.key, secret.params.t, input_lengths, cols, chunks)


def rep_result_count(secret: RepSecret, program: Program, input_lengths) -> int:
    """The result ciphertexts the client's own input lengths imply: one
    positive length per program input, all spanning ⌈l·λ/n⌉ ciphertexts."""
    if len(input_lengths) != program.num_inputs:
        raise ParameterError("one input length per program input required")
    counts = {rep_ct_count(l, secret.lam, secret.params.n) for l in input_lengths}
    if len(counts) != 1 or min(input_lengths) < 1:
        raise ParameterError(f"input lengths {list(input_lengths)} imply no one ciphertext count")
    return counts.pop()


def rep_check(
    secret: RepSecret, program: Program, slots, tag: bytes, input_lengths, reason: list | None = None
) -> tuple:
    """Check a result the client has decrypted, one row of `slots` per
    result ciphertext.  Accept iff, in this order, there are exactly as many
    rows as `input_lengths` imply, the digest `tag` matches, all replica
    offsets of each output position agree, and every challenge offset
    holds the circuit's value.  The verdict stays local.

    Returns (accepted, claim).  A multi-ciphertext result applies the
    program chunk by chunk, so the output block repeats once per chunk: the
    claim is every chunk's block, `count × chunks` values in chunk order,
    read off the first replica offset — the agreed value when accepted.
    """
    lam = secret.lam
    chunks = rep_result_count(secret, program, input_lengths)
    start, count = program.output_block
    window = slice(start, start + count)
    # the output blocks, (chunk, slot, offset)
    got = np.asarray(slots, dtype=np.int64).reshape(len(slots), program.width, lam)[:, window]
    replicas = got[:, :, [j for j in range(lam) if j not in secret.challenge_set]]
    claim = replicas[:, :, 0].reshape(-1).tolist()
    if len(slots) != chunks:
        return reject(reason, f"{len(slots)} result ciphertext(s) where the inputs imply {chunks}"), claim
    leaves = [rep_leaf(secret, b, l) for b, l in zip(program.inputs, input_lengths)]
    if hash_tree_eval(program, leaves) != tag:
        return reject(reason, "structure digest mismatch"), claim
    bad = np.argwhere(replicas != replicas[:, :, :1])
    if len(bad):
        return reject(reason, f"replica offsets disagree at chunk {bad[0][0]} slot {start + bad[0][1]}"), claim
    chal = rep_challenge_value(secret, program, input_lengths, chunks)[:, :, window]
    bad = np.argwhere(got[:, :, sorted(secret.challenge_set)] != chal.transpose(1, 2, 0))
    if len(bad):
        return reject(reason, f"challenge offset mismatch at chunk {bad[0][0]} slot {start + bad[0][1]}"), claim
    return True, claim


def rep_decode(secret: RepSecret, backend, result: RepResult, program: Program):
    """Read the claimed output values from the replica offsets.

    Returns the output block of every chunk, concatenated — the claim
    the verifier below expects.  Reads one fixed replica offset per position;
    verification separately checks that all of them agree, and that no
    ciphertext failed to decrypt (its values here are stand-ins).
    """
    lam = secret.lam
    offset = min(j for j in range(lam) if j not in secret.challenge_set)
    start, count = program.output_block
    first, stop = start * lam + offset, (start + count) * lam
    return backend.decrypt_many(result.cts)[0][:, first:stop:lam].ravel().tolist()


def rep_verify(
    secret: RepSecret,
    backend,
    program: Program,
    result: RepResult,
    claimed,
    input_lengths,
    reason: list | None = None,
) -> bool:
    """Decrypt the result as one stack, check it with rep_check and accept
    iff no ciphertext failed to decrypt and `claimed` equals the agreed
    replica values.

    Only the benchmark's REP workload still calls this and the decoder
    above: both go under ROADMAP item M once item B moves that workload to
    the session.
    """
    slots, breached = backend.decrypt_many(result.cts)
    if breached.any():
        return reject(reason, "a result ciphertext failed to decrypt")
    ok, claim = rep_check(secret, program, slots, result.tag, input_lengths, reason)
    if not ok:
        return False
    start, count = program.output_block
    claimed = slot_array(claimed, secret.params.t)
    if claimed.shape != (len(claim),):
        raise ParameterError(f"the output blocks hold {len(claim)} values, the claim {len(claimed)}")
    bad = np.flatnonzero(claimed != claim)
    if len(bad):
        return reject(reason, f"replica offset mismatch at chunk {bad[0] // count} slot {start + bad[0] % count}")
    return True


def rep_forgery_bound(lam: int) -> float:
    """Chance of a blind additive forgery slipping through: 1/C(λ, λ/2)."""
    return 1.0 / math.comb(lam, lam // 2)
