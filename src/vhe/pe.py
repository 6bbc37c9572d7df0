"""Polynomial-encoding authenticator over fully packed ciphertexts.

An authenticated value is a tuple σ = (c_0, …, c_d) of ciphertexts whose
plaintexts (y_0, …, y_d) satisfy, slot for slot,

    Σ_i y_i · α^i  =  ρ  (+ offset)

where α is a secret verification point in Z_t*, ρ is the circuit applied
to per-slot PRF challenges r = F_K(base, slot), and the offset starts at
zero (re-quadratization rounds shift it in a verifier-tracked way).  A
fresh authentication has degree 1: c_0 encrypts the data m and c_1
encrypts (r − m)·α^{-1}, so y_0 + α·y_1 = r.

Homomorphic evaluation treats σ as a polynomial in α: Add/Sub act
component-wise (a shorter tuple's missing components count as zero, so the
longer tuple's extra components carry over, negated for a subtrahend),
plaintext multiplication and slot permutations apply to every component,
and Mul convolves the component tuples, growing the degree.  The evaluator
never encrypts.
Forging a result requires finding a degree-≤d polynomial identity that
holds at the secret α, which succeeds with probability about 2d/t.
`pe_check` gives the verdict on decrypted components and the claim, y_0's
output block; `protocols.check_result` decrypts a received result for it.
"""

from __future__ import annotations

import random
import secrets as _secrets
from dataclasses import dataclass, field

import numpy as np

from . import bfv
from .circuit import (
    Program,
    challenge_input_pe,
    check_inputs,
    eval_challenge_pe,
    he_unary,
    interpret,
    slot_add,
    slot_mul,
    slot_sub,
    slot_unary,
)
from .errors import DegreeLimitError, LayoutError, ParameterError, reject
# prf_zt stays bound here: perfbench's tracer test patches it through vhe.pe
from .labels import Identifier, LabelRegistry, PrfKey, prf_zt  # noqa: F401
from .params import Params
from .ring import slot_array

MAX_DEGREE = 8  # the highest degree a product may reach
REQ_CAP = 2  # the at-rest degree under re-quadratization


@dataclass
class PeSecret:
    """Verifier-side key: PRF key, the evaluation point α, and HE keys."""

    params: Params
    key: PrfKey
    alpha: int
    he_keys: bfv.KeySet | None = None
    registry: LabelRegistry = field(default_factory=LabelRegistry)

    @property
    def alpha_inv(self) -> int:
        return pow(self.alpha, -1, self.params.t)


@dataclass(frozen=True)
class PeAuth:
    """Authenticated ciphertext tuple (c_0, …, c_d); results carry no base."""

    cts: tuple
    base: Identifier | None = None

    @property
    def degree(self) -> int:
        return len(self.cts) - 1


def pp_lanes(d: int) -> int:
    """K = 2^⌈log2(d + 2)⌉, the lanes a degree-d packed-proof response
    (protocols.pp_prove) is summed into."""
    return 1 << (d + 1).bit_length()


def pp_required_steps(n: int):
    """Rotation steps the packed proof needs at every degree the encoding
    allows: the strides below K at MAX_DEGREE, within a row."""
    width = min(pp_lanes(MAX_DEGREE), n // 2)
    return {1 << u for u in range(width.bit_length() - 1)}


def pe_keygen(
    params: Params,
    programs=(),
    pp: bool = False,
    rng: random.Random | None = None,
    make_he_keys: bool = True,
) -> PeSecret:
    """Draw the PRF key and a uniform α ∈ Z_t*; optionally make HE keys,
    with the packed proof's rotation keys too if `pp`.  Without `rng`
    (seeded experiments and tests pass one) each is drawn from `secrets`."""
    rnd = rng if rng is not None else random.Random(_secrets.randbits(128))
    alpha = rnd.randrange(1, params.t)
    key = PrfKey.generate(rng)
    he_keys = None
    if make_he_keys:
        gen = None if rng is None else np.random.default_rng(rnd.getrandbits(64))
        steps = pp_required_steps(params.n) if pp else ()
        he_keys = bfv.program_keys(params, programs, 1, steps, rng=gen)
    return PeSecret(params, key, alpha, he_keys)


def pe_auth(secret: PeSecret, backend, values, base) -> PeAuth:
    """Authenticate a full slot vector under a fresh base identifier."""
    params = secret.params
    n, t = params.n, params.t
    if len(values) != n:
        raise ParameterError(f"expected {n} slot values, got {len(values)}")
    base = secret.registry.register(base, n)
    m = slot_array(values, t)
    r = challenge_input_pe(secret.key, base, n, t)
    y1 = slot_mul(slot_sub(r, m, t), secret.alpha_inv, t)
    return PeAuth(backend.encrypt_many((m, y1)), base)


# ---------------------------------------------------------------------------
# component-tuple operations
# ---------------------------------------------------------------------------


def pe_add(backend, a: tuple, b: tuple) -> tuple:
    """Component-wise sum; the longer tuple's extra components carry over."""
    m = min(len(a), len(b))
    return tuple(backend.add(x, y) for x, y in zip(a, b)) + a[m:] + b[m:]


def pe_sub(backend, a: tuple, b: tuple) -> tuple:
    """Component-wise difference; extra components of `b` are negated."""
    m = min(len(a), len(b))
    diff = tuple(backend.sub(x, y) for x, y in zip(a, b))
    return diff + a[m:] + tuple(backend.neg(y) for y in b[m:])


def pe_mul(backend, a: tuple, b: tuple) -> tuple:
    """Convolution of the component tuples: degree d_a + d_b.

    Karatsuba over the components: for i < j < min(len a, len b) the cross
    term a_i·b_j + a_j·b_i is (a_i + a_j)(b_i + b_j) − a_i·b_i − a_j·b_j,
    reusing the diagonal products; every other pair is multiplied directly.
    Backend products: 3 instead of 4 for degree 1 × 1, 5 instead of 6 for
    1 × 2, 6 instead of 9 for 2 × 2.  The summed operands and the two
    subtracted products cost noise: about 2.3 bits of budget at depth 4.
    A square (b is a) sums each pair once, so every backend product is a
    square too.
    """
    d = len(a) + len(b) - 2
    if d > MAX_DEGREE:
        raise DegreeLimitError(
            f"product would reach degree {d} > limit {MAX_DEGREE}; re-quadratize"
        )
    acc: list = [None] * (d + 1)

    def put(k, p):
        acc[k] = p if acc[k] is None else backend.add(acc[k], p)

    m = min(len(a), len(b))
    diag = [backend.mul(a[i], b[i]) for i in range(m)]
    for i, p in enumerate(diag):
        put(2 * i, p)
        for j in range(i + 1, m):
            sa = backend.add(a[i], a[j])
            cross = backend.mul(sa, sa if b is a else backend.add(b[i], b[j]))
            put(i + j, backend.sub(backend.sub(cross, diag[i]), diag[j]))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if max(i, j) >= m:
                put(i + j, backend.mul(x, y))
    return tuple(acc)


def pe_map(backend, a: tuple, fn) -> tuple:
    return tuple(fn(c) for c in a)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def degree_schedule(program: Program, use_reducer: bool, degrees=None):
    """Simulate degrees through the circuit from the inputs' `degrees` (all
    1, fresh authentications, by default).

    Returns (final degree, list of mul-gate indices whose products exceed
    REQ_CAP and therefore get re-quadratized when a reducer is in play).
    Raises DegreeLimitError where a product would exceed MAX_DEGREE.
    """
    schedule: list[int] = []

    def mul(a: int, b: int, idx: int) -> int:
        d = a + b
        if d > MAX_DEGREE:
            raise DegreeLimitError(f"gate {idx} reaches degree {d} > limit {MAX_DEGREE}")
        if use_reducer and d > REQ_CAP:
            schedule.append(idx)
            return REQ_CAP
        return d

    degs = interpret(program, degrees or [1] * program.num_inputs, max, max, mul, lambda d, _: d)
    return degs[program.output], schedule


def pe_eval(
    program: Program,
    auths,
    backend,
    reducer=None,
) -> PeAuth:
    """Run the program over authenticated tuples.

    `reducer`, when given, must expose `.reduce(comps, gate_idx) -> comps`
    (the interactive re-quadratization hook); it is invoked exactly at the
    gates :func:`degree_schedule` names, on products above REQ_CAP.  Every
    input ciphertext must pass `backend.check_operand`, and the schedule
    must stay within MAX_DEGREE, before the first product.
    """
    if program.width != backend.params.n:
        raise LayoutError(
            f"program width {program.width} ≠ {backend.params.n} slots"
        )
    check_inputs(program, auths, backend)
    _, schedule = degree_schedule(program, reducer is not None, [a.degree for a in auths])
    reduced = set(schedule)

    def mul(a: tuple, b: tuple, idx: int) -> tuple:
        v = pe_mul(backend, a, b)
        return reducer.reduce(v, idx) if idx in reduced else v

    wires = interpret(
        program, [a.cts for a in auths],
        lambda a, b: pe_add(backend, a, b),
        lambda a, b: pe_sub(backend, a, b),
        mul,
        lambda v, g: pe_map(backend, v, lambda c: he_unary(backend, c, g)),
    )
    return PeAuth(wires[program.output])


# ---------------------------------------------------------------------------
# offset tracking and verification
# ---------------------------------------------------------------------------


def offset_walk(program: Program, key: PrfKey, t: int, alpha: int, omega=None):
    """Track the challenge value ρ and offset δ on every wire.

    `omega` maps a mul-gate index to the blinding vector r̄ drawn when that
    gate was re-quadratized; such a gate's outgoing offset is α·r̄ in place
    of the product rule ρ₁δ₂ + ρ₂δ₁ + δ₁δ₂.  Returns (ρ per gate, δ per
    gate, natural product-rule δ per mul gate — None elsewhere); the last
    entry is what a re-quadratization round must cancel.
    """
    omega = omega or {}
    w = program.width
    naturals: list = [None] * len(program.gates)

    def mul(a, b, idx):
        (r1, d1), (r2, d2) = a, b
        cross = slot_add(slot_mul(r1, d2, t), slot_mul(r2, d1, t), t)
        nat = slot_add(cross, slot_mul(d1, d2, t), t)
        naturals[idx] = nat
        dlt = slot_mul(slot_array(omega[idx], t), alpha, t) if idx in omega else nat
        return slot_mul(r1, r2, t), dlt

    zero = slot_array(np.zeros(w, dtype=np.int64), t)
    pairs = interpret(
        program,
        [(challenge_input_pe(key, base, w, t), zero) for base in program.inputs],
        lambda a, b: (slot_add(a[0], b[0], t), slot_add(a[1], b[1], t)),
        lambda a, b: (slot_sub(a[0], b[0], t), slot_sub(a[1], b[1], t)),
        mul,
        lambda a, g: (slot_unary(a[0], g, t), slot_unary(a[1], g, t)),
    )
    return [p[0] for p in pairs], [p[1] for p in pairs], naturals


def final_offset(secret: PeSecret, program: Program, omega) -> np.ndarray:
    """Offset vector on the output wire after the given ReQ rounds."""
    _, deltas, _ = offset_walk(
        program, secret.key, secret.params.t, secret.alpha, omega
    )
    return deltas[program.output]


def pe_target(secret: PeSecret, program: Program, offset=None) -> np.ndarray:
    """ρ (+ offset): what Σ y_i α^i must equal, slot for slot."""
    t = secret.params.t
    rho = eval_challenge_pe(program, secret.key, t)
    return rho if offset is None else slot_add(rho, slot_array(offset, t), t)


def pe_verify(
    secret: PeSecret,
    backend,
    program: Program,
    result: PeAuth,
    claimed=None,
    offset=None,
    reason: list | None = None,
) -> bool:
    """Decrypt every component of `result`, check it with pe_check and
    accept iff none failed to decrypt and the `claimed` output-block values,
    when given, are its claim."""
    start, count = program.output_block
    if claimed is not None and len(claimed) != count:
        raise ParameterError(f"output block holds {count} values, claim has {len(claimed)}")
    ys, breached = backend.decrypt_many(result.cts)
    if breached.any():
        return reject(reason, "a result ciphertext failed to decrypt")
    ok, claim = pe_check(secret, program, ys, offset, reason)
    if not ok or claimed is None:
        return ok
    bad = np.flatnonzero(slot_array(claimed, secret.params.t) != claim)
    if len(bad):
        return reject(reason, f"claimed result mismatch at slot {start + bad[0]}")
    return True


def pe_check(secret: PeSecret, program: Program, ys, offset=None, reason: list | None = None) -> tuple:
    """Accept iff the decrypted components `ys` are exactly the d + 1 of the
    program's degree schedule (reduced by ReQ when an `offset` is given) and
    (y_0, …, y_d) satisfy Σ y_i α^i = ρ (+ offset) in every slot.  The verdict
    stays local.  Returns (accepted, claim), the claim y_0's output block."""
    t = secret.params.t
    d, _ = degree_schedule(program, use_reducer=offset is not None)
    ys = slot_array(ys, t)
    start, count = program.output_block
    claim = ys[0][start : start + count].tolist() if len(ys) else []
    if len(ys) != d + 1:
        return reject(reason, f"{len(ys)} result component(s) where the program's degree implies {d + 1}"), claim
    acc = ys[-1]
    for y in ys[-2::-1]:
        acc = slot_add(slot_mul(acc, secret.alpha, t), y, t)
    bad = np.flatnonzero(acc != pe_target(secret, program, offset))
    if len(bad):
        return reject(reason, f"response identity fails at slot {bad[0]}"), claim
    return True, claim


def pe_soundness_bound(degree: int, t: int) -> float:
    """False-accept chance for a degree-d response: about 2d/t."""
    return 2.0 * degree / t
