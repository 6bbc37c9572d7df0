"""Leveled BFV over RNS with batching, relinearization, and rotations.

A ciphertext (c₀, …, c_d) is one int64 residue stack of shape (d+1, k, n):
component, chain prime, coefficient, always in the evaluation (NTT)
domain.  Keys are stacks too: the relinearization key and every Galois key
are (2, k, k, n): (b, a) per RNS digit.  There is no public key: only the
data owner encrypts, since authenticating an input needs its secrets too,
and the evaluator only computes.  Plaintexts are batched slot vectors over
Z_t.  Every linear operation, encryption and a rotation's slot permutation
are one numpy expression over the stack; an operation that needs
coefficients moves between the domains with one stacked transform call
(ring.stack_ntt / stack_intt) per direction: encryption transforms the k
rows of e + Δ·m; a key switch its k target rows and only the k(k−1)
off-diagonal digit rows (digit i in prime i is the target's own row);
multiplication its operands' chain rows and their auxiliary rows (a
square's one operand once), its three products and, back into the chain,
the three scaled results.  At n4096 (k = 7, 8 auxiliary primes) a product
transforms 126 rows and a square 96, a key switch 49.  `mul` hands c₂'s
coefficients, which the product already has, to its key switch, which
then transforms only its 42 digit rows.  No residue stack is reduced with
`%` by a modulus column: sums fold back by a min-subtract, products by a
floor division by each row's prime (see _pointwise).

    encrypt:  c = (−a·s + e + Δ·m, a) with the secret key,  Δ = ⌊Q/t⌋,
              a uniform in the evaluation domain and expanded from a
              32-byte seed by SHAKE-128 (expand_uniform)
    decrypt:  m = ⌊(t·x + ⌊Q/2⌋)/Q⌋ mod t for the phase x = [c₀ + c₁·s]_Q,
              and the noise, as digits, from x's Garner digits (_Decoder)
    multiply: tensor the pair over the integers in the chain Q plus the
              fewest auxiliary primes P whose product exceeds t·n·Q + 4,
              then y = ⌊(t·x + ⌊Q/2⌋)/Q⌋ per coefficient by an exact
              int64 rescale on the P rows (_MulBasis), converted back
              into Q (Garner base conversions, BaseConverter)
    relinearize / rotate: RNS-digit key switching, one digit per chain
              prime (Bajard–Eynard–Hasan–Zucca): digit i is residue row i
              of the target, centred, and its key carries the target secret
              in row i only (the CRT idempotent gadget)
    shrink:   c′ = ⌊(Q′/Q)·c⌉ onto the chain prefix Q′ of
              Params.shrink_primes primes (modulus switching, Brakerski–
              Gentry–Vaikuntanathan; RNS form, Kim–Polyakov–Zucca), for a
              terminal ciphertext that will only be decrypted; decryption
              takes any prefix, evaluation only the full chain

The data owner encrypts and decrypts in stacks: encrypt_many takes rows of
slots and decrypt_many ciphertexts of one shape, and encrypt and decrypt
are their one-row calls.  A stack is worked through in chunks of at most
CHUNK_BYTES of (k, n) residue rows, 4 ciphertexts at n4096; a chunk takes
one mod-t slot transform, one phase product, one stack_ntt or stack_intt
and, to decrypt, one _Decoder pass with its guard.  Each row draws what a
lone encryption draws, in the same order, so the ciphertexts are the same
bit for bit, and no temporary spans more than a chunk.

Every operation is int64 throughout (decryption's carries for t ≥ 2^31 are
Python ints), and only the noise budget turns two coefficients, those of
largest and smallest noise, into Python integers.  Nothing depends on
floating point, so decryption equality is bit-reproducible.  The `a` half
of every key's RLWE pair is expanded from a seed as well, so no key carries
raw output of the generator that also draws the secret and the errors.

Noise is verified, not assumed: decryption measures the residual distance
to the decoded plaintext; past the safe quarter-interval decrypt raises
DecryptionFailureError and decrypt_many marks the row and returns
stand-in slots, at no extra cost, never corrupted slots.
"""

from __future__ import annotations

import ctypes
import hashlib
import platform
import secrets
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import log2, prod

import numpy as np

from .errors import (
    DecryptionFailureError,
    KeyMaterialError,
    ParameterError,
    SerializationError,
)
from .circuit import inner_sum_steps, required_rotation_steps, rotation_moves
from .params import CHAIN_PRIME_BITS, Params
from .ring import (
    batch_decode_array,
    batch_encode_array,
    find_ntt_primes,
    fold_rows,
    get_modulus,
    reduce_rows,
    stack_intt,
    stack_ntt,
    stand_in,
    xof_uniform,
)


# ---------------------------------------------------------------------------
# RNS helpers
# ---------------------------------------------------------------------------


def _int64_headroom(primes) -> int:
    """How many products of two residues below max(primes) an int64 sum
    holds on top of one reduced running sum."""
    return (2**63 - 1) // (max(primes) - 1) ** 2 - 1


class BaseConverter:
    """Exact int64 conversion of residues from primes S to primes D (Garner).

    The mixed-radix digits v_0 = x_0, v_i = (x_i − Σ_{j<i} v_j·M_j)·M_i⁻¹
    mod s_i, with M_j = s_0⋯s_{j−1}, give x = Σ_j v_j·M_j in [0, Π S), so
    x mod d = Σ_j v_j·(M_j mod d).  The centred variant converts x − Π S
    where x > ⌊Π S/2⌋, read off the digits compared from the top one.
    Digit j is multiplied into the accumulator rows of every later source
    prime and every destination prime at once; a row takes one product
    < max(prime)² per digit and is reduced every `chunk` digits, so no sum
    leaves int64.  With D empty the converter yields only the digits.
    `prod_inv` holds (Π S)⁻¹ mod each destination prime, for the exact
    division by Π S that follows a conversion.
    """

    def __init__(self, src, dst=()):
        src, dst = tuple(src), tuple(dst)
        primes = src + dst
        radix = [1]  # M_0, …, M_{|S|}
        for s in src:
            radix.append(radix[-1] * s)
        prod = radix.pop()
        self.radix = radix
        self.src = src
        self.inv = [pow(m, -1, s) for m, s in zip(radix, src)]
        self.half = [prod // 2 // m % s for m, s in zip(radix, src)]
        self.weights = np.array([[m % p for p in primes] for m in radix], dtype=np.int64)[..., None]
        self.prod = np.array([prod % d for d in dst], dtype=np.int64)[:, None]
        self.prod_inv = np.array([pow(prod, -1, d) for d in dst], dtype=np.int64)[:, None]
        self.col = np.array(primes, dtype=np.int64)[:, None]
        self.chunk = _int64_headroom(primes)

    def digits(self, x: np.ndarray):
        """The digits [v_0, …, v_{|S|−1}] of (..., |S|, n) residues, each
        (..., n), and the unreduced (..., |D|, n) sums Σ_j v_j·(M_j mod d)."""
        k = len(self.src)
        acc = np.zeros(x.shape[:-2] + (len(self.col), x.shape[-1]), dtype=np.int64)
        out = []
        for j, s in enumerate(self.src):
            v = x[..., j, :] - acc[..., j, :]
            v -= v // s * s  # v mod s; a division by a scalar beats % (ring.reduce_rows)
            v *= self.inv[j]
            v -= v // s * s
            out.append(v)
            rest = acc[..., j + 1 :, :]
            rest += v[..., None, :] * self.weights[j, j + 1 :]
            if (j + 1) % self.chunk == 0:
                reduce_rows(rest, self.col[j + 1 :])
        return out, acc[..., k:, :]

    def __call__(self, x: np.ndarray, centred: bool) -> np.ndarray:
        """(..., |S|, n) residues in [0, s_i) → (..., |D|, n) in [0, d)."""
        digits, out = self.digits(x)
        if centred:
            out -= _above(digits, self.half)[..., None, :] * self.prod
        return reduce_rows(out, self.col[len(self.src) :])


def _above(digits, bound) -> np.ndarray:
    """digits > bound per coefficient, both mixed-radix and listed from the
    lowest digit: the top digit that differs decides."""
    above = False
    for v, b in zip(digits, bound):
        above = np.where(v == b, above, v > b)
    return above


def _carry(terms, primes):
    """Mixed-radix digits of Σ_j w_j·M_j for unreduced terms w_j ≥ 0 over
    `primes`, and the final carry ⌊Σ_j w_j·M_j / Π primes⌋."""
    digits, c = [], 0
    for w, p in zip(terms, primes):
        w = w + c
        c = w // p
        digits.append(w - c * p)
    return digits, c


def _lex_extreme(digits, pick) -> int:
    """Index of a coefficient whose digits, compared from the top, are the
    largest (pick = np.max) or smallest (np.min)."""
    mask = np.ones(len(digits[0]), dtype=bool)
    for v in reversed(digits):
        mask &= v == pick(v[mask])
    return int(mask.argmax())


class _Decoder:
    """Decryption on the chain prefix Q″ of `k` primes, read off the Garner
    digits v_j of the phase x = Σ_j v_j·M_j ∈ [0, Q″) alone.

    Carrying w_j = t·v_j + h_j over the chain, with h_j the digits of
    H = ⌊Q″/2⌋, leaves y = ⌊(t·x + H)/Q″⌋ ∈ [0, t] as the final carry and
    r = (t·x + H) mod Q″ as digits; m = y mod t.  With Q″ = Δ″·t + ρ,
    t·e = r − H + ρ·m for the noise e = x − Δ″·m centred mod Q″ (at y = t
    too, where m = 0 and e = x − Q″; the centring holds while Q″ > 2t, so
    on every prefix where decryption can succeed, Q″ ≥ 4t).  A second
    carry pass gives the digits of s = r + ρ·m = H + t·e, plus a top one,
    and e grows with s: the guard |e| < D = ⌊Δ″/4⌋ is H − t·D < s < H + t·D,
    two top-down digit comparisons, and the largest |e| comes from the
    digit-wise largest and smallest s.  A term stays below (t + 1)·q_j:
    int64 while t < 2^31 (chain primes are below 2^30), Python ints above,
    as in ring.slot_array.
    """

    def __init__(self, params: Params, k: int):
        self.t = t = params.t
        self.garner = BaseConverter(params.q_chain[:k])
        self.big_q = q = prod(params.q_chain[:k])
        self.radix = self.garner.radix + [q]
        self.delta = q // t
        band = t * (self.delta // 4)
        self.rho = self._digits(q % t)[:-1]
        self.lo, self.hi = self._digits(q // 2 - band), self._digits(q // 2 + band - 1)
        self.dtype = np.int64 if t < 1 << 31 else object

    def _digits(self, v: int) -> list:
        """v's digits over the prefix and, on top, ⌊v/Q″⌋."""
        return [v // m % p for m, p in zip(self.radix, self.garner.src)] + [v // self.big_q]

    def __call__(self, x: np.ndarray):
        """(m, the digits of s) for the phase's (..., k, n) coefficient residues."""
        v, _ = self.garner.digits(x)
        t, primes = self.t, self.garner.src
        tx = (t * d.astype(self.dtype, copy=False) + h for d, h in zip(v, self.garner.half))
        r, y = _carry(tx, primes)
        m = y % t
        s, top = _carry((d + p * m for d, p in zip(r, self.rho)), primes)
        return m, s + [top]

    def breached(self, s) -> np.ndarray:
        """|e| ≥ D on some coefficient, per row of s's (..., n) digits."""
        return ~(_above(s, self.lo) & ~_above(s, self.hi)).all(axis=-1)

    def worst(self, s) -> int:
        """The largest |e| of one row of (n,) digits, exactly."""
        i, j = _lex_extreme(s, np.max), _lex_extreme(s, np.min)
        hi, lo = (sum(int(d[c]) * w for d, w in zip(s, self.radix)) for c in (i, j))
        return max(hi - self.big_q // 2, self.big_q // 2 - lo) // self.t


class _MulBasis:
    """Multiplication's rescale, built once: y = ⌊(t·x + ⌊Q/2⌋)/Q⌋ exactly,
    in auxiliary primes P, for the integer x given by its residues on Q ∪ P
    (`primes`, where the tensor is formed).

    P is the fewest NTT primes off the chain, from 2^CHAIN_PRIME_BITS down,
    whose product exceeds t·n·Q + 4, so the scaled tensor coefficients
    satisfy |y| < P/2 and convert back into the chain exactly.  With
    z = t·x + ⌊Q/2⌋ on every row and r = z mod Q converted from the Q rows
    into P, y = (z − r)·Q⁻¹ on the P rows: the division by Q is exact.
    """

    def __init__(self, params: Params):
        chain, bound = params.q_chain, params.t * params.n * params.big_q + 4
        count = -(-bound.bit_length() // CHAIN_PRIME_BITS)  # each prime is below 2^29
        while prod(aux := tuple(find_ntt_primes(CHAIN_PRIME_BITS, params.n, count, chain))) <= bound:
            count += 1
        self.primes = chain + aux
        self.mods = [get_modulus(p, params.n) for p in self.primes]
        self.to_aux = BaseConverter(chain, aux)
        self.to_chain = BaseConverter(aux, chain)
        self.col = np.array(self.primes, dtype=np.int64)[:, None]
        self.t = np.array([params.t % p for p in self.primes], dtype=np.int64)[:, None]
        self.half = np.array([params.big_q // 2 % p for p in self.primes], dtype=np.int64)[:, None]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(..., |Q ∪ P|, n) residues of x → (..., |P|, n) residues of y;
        overwrites x with z."""
        k = len(self.to_aux.src)
        x *= self.t
        x += self.half
        reduce_rows(x, self.col)
        y = x[..., k:, :] - self.to_aux(x[..., :k, :], centred=False)
        y *= self.to_aux.prod_inv
        return reduce_rows(y, self.col[k:])


# Modular arithmetic on residue stacks (..., k, n) against a (k, 1) modulus
# column broadcasts over the leading axes, and no stack is reduced with `%`
# by the column.  A sum or difference of reduced residues, lifted into
# [0, 2q), is folded back by one min-subtract (ring.fold_rows); a product or
# an accumulator is reduced once and in place by floor division by each
# row's prime (ring.reduce_rows), and callers fold unreduced terms into one
# reduction while the sum stays below 2^63 (a product of two residues is
# < 2^60).


def _pointwise(a, b, q):
    return reduce_rows(a * b, q)


# ---------------------------------------------------------------------------
# ciphertexts and keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ciphertext:
    """(c₀, …, c_d) as one (d+1, k, n) evaluation-domain residue stack;
    decrypts under (1, s, …, s^d)."""

    data: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Plaintext:
    """A slot vector encoded once (BfvBackend.encode_plain) for any number
    of mul_plain calls: its (k, n) evaluation-domain residues."""

    data: np.ndarray


@dataclass
class KeySet:
    """Secret, relinearization, and rotation key material.

    `public()` strips the secret for handing to an evaluator.
    """

    params: Params
    rlk: np.ndarray  # (2, k, k, n): (b, a) per RNS digit
    gks: dict  # galois element → (2, k, k, n) like rlk
    sk_ntt: np.ndarray | None = None

    @property
    def has_secret(self) -> bool:
        return self.sk_ntt is not None

    def public(self) -> "KeySet":
        return KeySet(self.params, self.rlk, dict(self.gks), None)


# The error's centred binomial draws CBD_K bits a side: variance CBD_K/2,
# about 3.2², the standard deviation every preset has used.
CBD_K = 20


def _cbd_error(gen: np.random.Generator, n: int) -> np.ndarray:
    """Centred binomial with variance CBD_K/2: the number of set bits among
    CBD_K uniform bits, less that among CBD_K more."""
    counts = np.bitwise_count(gen.integers(0, 1 << CBD_K, size=(2, n), dtype=np.uint64))
    return counts[0].astype(np.int64) - counts[1]


def _ternary(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.integers(-1, 2, size=n, dtype=np.int64)


SEED_BYTES = 32


def expand_uniform(seed: bytes, primes, rows: int, n: int) -> np.ndarray:
    """(rows, k, n) residues uniform in [0, q_i), expanded from `seed`.

    Row (r, i) is ring.xof_uniform of SHAKE-128(seed ‖ r ‖ i), r and i as
    u16: rejection sampling of masked little-endian 32-bit words, so the
    residues carry no bias and depend on the seed alone, never on numpy's
    generator streams (which NEP 19 does not keep stable across versions).
    """
    out = np.empty((rows, len(primes), n), dtype=np.int64)
    for r in range(rows):
        for i, q in enumerate(primes):
            xof = hashlib.shake_128(seed + r.to_bytes(2, "little") + i.to_bytes(2, "little"))
            out[r, i] = xof_uniform(xof, q, n)
    return out


def galois_element(step: int, n: int) -> int:
    """Galois element for a signed row rotation (3 generates the row orbit)."""
    m = 2 * n
    return pow(3, step % (n // 2), m)


def galois_row_swap(n: int) -> int:
    return 2 * n - 1


@lru_cache(maxsize=None)
def _eval_permutation(g: int, n: int) -> np.ndarray:
    """NTT-domain slot permutation realizing X → X^g (same for every prime):
    output k, the evaluation at ψ^(2k+1), reads the one at ψ^((2k+1)·g)."""
    return ((2 * np.arange(n, dtype=np.int64) + 1) * g % (2 * n) - 1) // 2


def keygen(
    params: Params,
    rotation_steps=(),
    row_swap: bool = False,
    rng: np.random.Generator | None = None,
) -> KeySet:
    """Generate the secret and relinearization keys plus the requested
    rotation keys (exactly those steps, plus the row swap if asked)."""
    gen = rng if rng is not None else np.random.default_rng(
        secrets.randbits(128)
    )
    primes = params.q_chain
    mods = [get_modulus(p, params.n) for p in primes]
    n, k = params.n, len(primes)
    q = np.array(primes, dtype=np.int64)[:, None]

    # a ternary or error coefficient plus q lies in [0, 2^32), which the
    # transform's ψ twist reduces
    s_ntt = stack_ntt(_ternary(gen, n) + q, mods)

    def rlwe_pairs(count):
        """(2, count, k, n) stack of (b, a) with b = -(a·s + e), NTT domain;
        a is expanded from a fresh seed and the errors of all pairs are
        transformed in one call."""
        out = np.empty((2, count, k, n), dtype=np.int64)
        b, a = out
        a[:] = expand_uniform(gen.bytes(SEED_BYTES), primes, count, n)
        e = np.empty_like(a)
        for c in range(count):
            np.add(_cbd_error(gen, n), q, out=e[c])
        np.multiply(a, s_ntt, out=b)
        np.negative(b, out=b)
        b -= stack_ntt(e, mods)
        reduce_rows(b, q, tmp=e)  # the errors' buffer is free again
        return out

    def key_switch_key(target_ntt):
        """One RLWE pair per chain prime; pair i carries the target secret
        times the CRT idempotent e_i (≡ 1 mod q_i, ≡ 0 mod q_j≠i), i.e. the
        target in residue row i and zeros elsewhere."""
        ks = rlwe_pairs(k)
        diag = np.arange(k)
        ks[0, diag, diag] = fold_rows(ks[0, diag, diag] + target_ntt, q)
        return ks

    rlk = key_switch_key(_pointwise(s_ntt, s_ntt, q))

    gks = {}
    wanted = set()
    for step in rotation_steps:
        if step % (n // 2):
            wanted.add(galois_element(step, n))
    if row_swap:
        wanted.add(galois_row_swap(n))
    for g in sorted(wanted):
        perm = _eval_permutation(g, n)
        gks[g] = key_switch_key(s_ntt[:, perm])

    return KeySet(params=params, rlk=rlk, gks=gks, sk_ntt=s_ntt)


def program_keys(
    params: Params, programs, stride: int = 1, extra_steps=(), rng=None
) -> KeySet:
    """keygen for `programs` run at `stride` (see circuit.he_unary): the
    rotation keys for exactly the steps they need, plus `extra_steps` (in
    physical slots), and the row-swap key only if one of them swaps rows."""
    needs = [required_rotation_steps(p, stride, params.n) for p in programs]
    return keygen(
        params,
        rotation_steps=sorted(set(extra_steps).union(*(s for s, _ in needs))),
        row_swap=any(sw for _, sw in needs),
        rng=rng,
    )


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

# A stacked encryption or decryption works through its ciphertexts in chunks
# of at most this many bytes of (k, n) residue rows: 4 ciphertexts at n4096
# (k = 7).  The size is measured: per ciphertext on a 2-core VM, a 7-row
# forward transform takes 0.59 ms alone, 0.567 ms in a stack of 4, 0.72 ms
# in 8 and 0.79 ms in 32, and a 32-row stack encrypts in 0.99, 0.93, 0.87,
# 0.88 and 0.93 ms per ciphertext and decrypts in 1.04, 0.91, 0.84, 0.85
# and 0.87 ms at 1, 2, 4, 8 and 32 ciphertexts a chunk.  Past a chunk the
# rows fall out of cache, and whole-stack temporaries raise the peak memory.
CHUNK_BYTES = 1 << 20

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@lru_cache(maxsize=None)
def _keep_freed_memory() -> None:
    """Let glibc's heap keep ciphertext-sized blocks once they are freed.

    A (2, k, n) stack is 0.45 MB at n4096, above glibc's initial 128 KiB
    mmap threshold.  Left to itself, glibc maps such a block afresh (its
    pages fault in on first touch and go back on free) until some larger
    mapped block is freed, then raises the threshold and returns the heap's
    free top to the system past twice that size.  How many of an operation's
    arrays fault in thus depends on what the process freed before, and a
    job's cost moved with it.  Fixed thresholds end both: blocks under
    32 MiB come from the heap, and up to 256 MiB of free top is kept for
    the next operation to reuse.  Other C libraries are left as they are.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


class BfvBackend:
    """Operation surface over one key set (secret key optional)."""

    def __init__(self, params: Params, keys: KeySet, rng=None):
        if keys.params != params:
            raise ParameterError("key set was generated for different parameters")
        _keep_freed_memory()
        self.params = params
        self.keys = keys
        self._gen = rng if rng is not None else np.random.default_rng(
            secrets.randbits(128)
        )
        self.primes = params.q_chain
        self.mods = [get_modulus(p, params.n) for p in self.primes]
        self.t_mod = params.t_modulus
        self._q = np.array(self.primes, dtype=np.int64)[:, None]
        self._q_unsigned = np.array(self.primes, dtype=np.uint64)
        self._delta_res = np.array([params.delta % p for p in self.primes], dtype=np.int64)[:, None]
        self._decoders: dict = {}  # chain prefix length → _Decoder
        kept = params.shrink_primes
        self._switch = BaseConverter(self.primes[kept:], self.primes[:kept])
        # digit products are < max(q)²: reduce the accumulators this often
        self._ks_chunk = _int64_headroom(self.primes)

    # ---- plaintext encoding -------------------------------------------------

    def _encode_residues(self, slots, ntt: bool = True) -> np.ndarray:
        """(..., k, n) residues of one slot vector or a stack of them; in the
        coefficient domain, while t lies below every chain prime, one
        (..., 1, n) row that broadcasts over the chain."""
        mat = batch_encode_array(slots, self.t_mod)[..., None, :]
        if self.params.t > min(self.primes):
            mat = reduce_rows(np.repeat(mat, len(self.primes), axis=-2), self._q)
        return stack_ntt(mat, self.mods) if ntt else mat

    def _chunk(self, k: int) -> int:
        """Ciphertexts per stacked pass: at most CHUNK_BYTES of (k, n) rows."""
        return max(1, CHUNK_BYTES // (8 * k * self.params.n))

    # ---- lifecycle ----------------------------------------------------------

    def encrypt(self, slots) -> Ciphertext:
        """One vector of slots: encrypt_many of a one-row stack."""
        return self.encrypt_many([slots])[0]

    def encrypt_many(self, rows) -> tuple:
        """A Ciphertext (−a·s + NTT(e + Δ·m), a) per row of slots, with a
        expanded from a seed drawn from the generator; only a backend
        holding the secret key encrypts.

        Row by row, the draws are encrypt's, in its order (the seed bytes,
        then the error), so a stack encrypts bit for bit as its rows would
        one at a time.  Each chunk of rows takes one slot transform mod t,
        one phase product and one stack_ntt.
        """
        s_ntt = self._require_secret()
        n = self.params.n
        rows = list(rows)
        bad = [len(r) for r in rows if len(r) != n]
        if bad:
            raise ParameterError(f"expected {n} slots, got {bad[0]}")
        gen, q, step = self._gen, self._q, self._chunk(len(self.primes))
        out = []
        for lo in range(0, len(rows), step):
            scaled = self._encode_residues(rows[lo : lo + step], ntt=False) * self._delta_res
            c = np.empty((len(scaled), 2) + scaled.shape[1:], dtype=np.int64)
            for ct, row in zip(c, scaled):
                ct[1] = expand_uniform(gen.bytes(SEED_BYTES), self.primes, 1, n)[0]
                row += _cbd_error(gen, n)
            reduce_rows(scaled, q)
            np.multiply(c[:, 1], s_ntt, out=c[:, 0])
            np.subtract(stack_ntt(scaled, self.mods), c[:, 0], out=c[:, 0])
            reduce_rows(c[:, 0], q)
            out += map(Ciphertext, c)
        return tuple(out)

    def encrypt_zero(self) -> Ciphertext:
        """The noiseless (0, 0): it decrypts to zero under every key and
        hides nothing, so it needs no key and draws nothing."""
        return Ciphertext(np.zeros((2, len(self.primes), self.params.n), dtype=np.int64))

    def _require_secret(self):
        if not self.keys.has_secret:
            raise KeyMaterialError("operation requires the secret key")
        return self.keys.sk_ntt

    def _check_received(self, ct: Ciphertext, full: bool) -> None:
        """Refuse anything but a Ciphertext whose data is a (d+1, k″, n)
        stack of residues in [0, q_i) with d ≥ 0 and k″ ≤ k, or, if `full`,
        exactly what `encrypt` makes: d = 1 and k″ = k.

        The transforms are exact only for reduced residues, so a hostile or
        corrupt ciphertext, or one of another backend, must stop here,
        before any arithmetic.
        """
        if not isinstance(ct, Ciphertext):
            raise SerializationError(f"{type(ct).__name__} is not a ciphertext of this backend")
        k, n = len(self.primes), self.params.n
        data = ct.data
        if not (
            isinstance(data, np.ndarray)
            and data.dtype == np.int64
            and data.ndim == 3
            and data.shape[2] == n
            and (data.shape[:2] == (2, k) if full else len(data) >= 1 and 1 <= data.shape[1] <= k)
        ):
            shape = f"(2, {k}, {n})" if full else f"(d+1, 1..{k}, {n}) with d ≥ 0"
            raise SerializationError(f"ciphertext must be an int64 {shape} residue stack")
        rows = data.shape[1]
        # negative residues read as huge unsigned ones, so the row maxima
        # catch both ends in one pass
        if (data.view(np.uint64).max(axis=2) >= self._q_unsigned[:rows]).any():
            raise SerializationError("ciphertext residue outside [0, q_i)")

    def check_operand(self, ct: Ciphertext) -> None:
        """Refuse, before any arithmetic, a ciphertext the evaluator cannot
        take: anything but a full-chain stack of exactly two components of
        reduced residues (a shrunk ciphertext is terminal and never
        re-enters evaluation)."""
        self._check_received(ct, full=True)

    def _decode(self, data: np.ndarray):
        """(plaintext coefficients, the digits of s, the prefix's _Decoder)
        for a (d+1, ..., k″, n) stack of ciphertext components on the chain
        prefix of k″ primes, from its phase [Σ c_i·s^i]_Q″ in coefficients."""
        k = data.shape[-2]
        s_ntt = self.keys.sk_ntt[:k]
        q = self._q[:k]
        acc = data[0]
        s_pow = s_ntt
        for d, mat in enumerate(data[1:]):
            acc = reduce_rows(acc + mat * s_pow, q)
            if d + 2 < len(data):
                s_pow = _pointwise(s_pow, s_ntt, q)
        if k not in self._decoders:
            self._decoders[k] = _Decoder(self.params, k)
        dec = self._decoders[k]
        return (*dec(stack_intt(acc, self.mods[:k])), dec)

    def _noise(self, ct: Ciphertext):
        """(m, the exact largest |noise|, from the extremes of s, _Decoder)."""
        self._require_secret()
        self._check_received(ct, full=False)
        m, s, dec = self._decode(ct.data)
        return m, dec.worst(s), dec

    def decrypt(self, ct: Ciphertext) -> list[int]:
        """One ciphertext's slots: decrypt_many of a one-ciphertext stack,
        except that a breach raises DecryptionFailureError with the noise."""
        (slots,), (breached,) = self.decrypt_many([ct])
        if breached:
            _, worst, dec = self._noise(ct)
            raise DecryptionFailureError(
                f"noise |e|≈2^{worst.bit_length()} breached the guard band "
                f"(Δ/4 ≈ 2^{(dec.delta // 4).bit_length()}); result untrustworthy"
            )
        return slots.tolist()

    def decrypt_many(self, cts) -> tuple:
        """(slots, breached): the (m, n) int64 slots of m ciphertexts of one
        shape, on any chain prefix, and the (m,) mask of those whose noise
        overflowed, whose rows are stand-ins (ring.stand_in).

        Every ciphertext is checked (_check_received), and the stack for one
        shape, before any arithmetic.  After recovering the nearest
        plaintext, each ciphertext's residual noise is checked against Δ″/4
        on its digits; honest pipelines keep it far below, so exceeding that
        guard band means the true value was lost to noise.  Each chunk of
        ciphertexts takes one phase product, one stack_intt, one _Decoder
        pass with its guard, one slot transform mod t and one stand-in draw.
        """
        self._require_secret()
        cts = list(cts)
        for ct in cts:
            self._check_received(ct, full=False)
        shapes = {ct.data.shape for ct in cts}
        if len(shapes) > 1:
            raise SerializationError("the ciphertexts of a stack differ in degree or chain prefix")
        out = np.empty((len(cts), self.params.n), dtype=np.int64)
        breached = np.empty(len(cts), dtype=bool)
        step = self._chunk(shapes.pop()[1]) if cts else 1
        for lo in range(0, len(cts), step):
            m, s, dec = self._decode(np.stack([ct.data for ct in cts[lo : lo + step]], axis=1))
            hit = dec.breached(s)
            out[lo : lo + step] = stand_in(batch_decode_array(m, self.t_mod), hit, self.params.t)
            breached[lo : lo + step] = hit
        return out, breached

    def noise_budget(self, ct: Ciphertext) -> float:
        """log2 of (capacity / measured noise) on the ciphertext's chain
        prefix; negative once corrupted.

        Logarithms of the integers, never their float quotient, which
        overflows once log2 Q exceeds 1024."""
        _, worst, dec = self._noise(ct)
        return log2(dec.big_q) - log2(2 * self.params.t) - log2(max(worst, 1))

    # ---- modulus switching ----------------------------------------------------

    def shrink(self, ct: Ciphertext) -> Ciphertext:
        """⌊(Q′/Q)·c⌉ on the chain prefix Q′ of Params.shrink_primes primes,
        for a ciphertext that will only be decrypted.

        With P the product of the dropped primes, c′ = (c − [c]_P)/P, where
        [c]_P ∈ (−P/2, P/2) is c's centred residue (P is odd, so no ties):
        only the dropped rows are inverse-transformed, converted centred
        into the kept primes and transformed back; the kept rows less that
        are scaled by P⁻¹.  Exact in int64; it spends no noise budget beyond
        the rounding that Params.shrink_primes bounds.
        """
        sw = self._switch
        if not sw.src:
            return ct
        k = len(self.primes) - len(sw.src)
        r = sw(stack_intt(ct.data[:, k:], self.mods[k:]), centred=True)
        out = ct.data[:, :k] - stack_ntt(r, self.mods[:k])
        out *= sw.prod_inv
        return Ciphertext(reduce_rows(out, self._q[:k]))

    # ---- linear operations ---------------------------------------------------

    def _combine(self, a: Ciphertext, b: Ciphertext, sub: bool) -> Ciphertext:
        """a + b, or a − b if `sub`, for two ciphertexts of one shape:
        full-chain operands, or two shrunk to the same chain prefix.  The
        sum, or the difference plus q, lies in [0, 2q): one min-subtract."""
        if a.data.shape != b.data.shape:
            raise ParameterError("operands differ in degree or chain prefix")
        q = self._q[: a.data.shape[1]]
        if sub:
            out = np.subtract(a.data, b.data)
            out += q
        else:
            out = np.add(a.data, b.data)
        return Ciphertext(fold_rows(out, q))

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._combine(a, b, sub=False)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._combine(a, b, sub=True)

    def neg(self, a: Ciphertext) -> Ciphertext:
        """q − a lies in (0, q]: one min-subtract."""
        return Ciphertext(fold_rows(np.subtract(self._q, a.data), self._q))

    def encode_plain(self, const_slots) -> Plaintext:
        """A slot vector encoded for mul_plain: one slot transform mod t and
        one stack_ntt, paid once however often the plaintext is used."""
        if len(const_slots) != self.params.n:
            raise ParameterError("constant vector must cover every slot")
        return Plaintext(self._encode_residues(const_slots))

    def mul_plain(self, a: Ciphertext, const) -> Ciphertext:
        """a ⊙ const for a slot vector or a Plaintext from encode_plain."""
        if not isinstance(const, Plaintext):
            const = self.encode_plain(const)
        return Ciphertext(_pointwise(a.data, const.data, self._q))

    # ---- multiplication -------------------------------------------------------

    @cached_property
    def _ext(self) -> _MulBasis:
        return _MulBasis(self.params)

    def _tensor(self, a: Ciphertext, b: Ciphertext) -> np.ndarray:
        """The (3, k, n) coefficient residues of mul_no_relin's product.

        Each coefficient is exactly ⌊(t·x + ⌊Q/2⌋)/Q⌋ of the integer tensor
        coefficient x, in int64 throughout.  The inputs' chain rows are
        already transformed; their centred lifts are converted into P, so the
        tensor is formed in Q ∪ P.  A square (b is a) lifts its one operand
        and reads both factors from it.  The rescale gives y on the P rows,
        and a centred conversion takes it back into the chain.
        """
        if a.degree != 2 or b.degree != 2:
            raise ParameterError("multiplication expects degree-2 ciphertexts")
        ext = self._ext
        k = len(self.primes)
        chain = a.data if b is a else np.concatenate([a.data, b.data])
        lifted = ext.to_aux(stack_intt(chain, self.mods), centred=True)
        aux = stack_ntt(lifted, ext.mods[k:])
        both = np.concatenate([chain, aux], axis=1)
        (a0, a1), (b0, b1) = both[:2], both[-2:]

        qe = ext.col
        # middle term: a0·b1 + a1·b0
        cross = a0 * b1
        cross += a1 * b0
        prods = np.stack([_pointwise(a0, b0, qe), reduce_rows(cross, qe), _pointwise(a1, b1, qe)])
        y = ext(stack_intt(prods, ext.mods))
        return ext.to_chain(y, centred=True)

    def mul_no_relin(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product scaled by t/Q: (c₀, c₁, c₂) decrypting under (1, s, s²)."""
        return Ciphertext(stack_ntt(self._tensor(a, b), self.mods))

    def _apply_ks(self, target: np.ndarray, coeff: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Key-switch the (k, n) target, given in both domains (evaluation
        and its coefficients), with one RNS digit per chain prime; returns
        the (2, k, n) evaluation-domain pair.

        Digit i is the target's coefficient row i centred to (-q_i/2, q_i/2]
        and taken into every prime j as centred + q_j, in [0, 2q_j), which
        the transform's ψ twist reduces.  In prime i it is the target's own
        row i, so only the k(k−1) other rows are transformed: digit
        (j + 1 + r) mod k in prime j is row (r, j) of one (k−1, k, n) stack
        over the chain's own tables.  The (k, k, n) digit stack, the target
        on its diagonal, is multiplied into the key's (b, a) stack.
        """
        q, col = self._q, np.arange(len(self.primes))
        src = (col + col[1:, None]) % len(col)
        centred = np.where(coeff > q // 2, coeff - q, coeff)
        digits = np.empty((len(col),) + target.shape, dtype=np.int64)
        digits[col, col] = target
        digits[src, col] = stack_ntt(centred[src] + q, self.mods)
        acc = np.zeros((2,) + target.shape, dtype=np.int64)
        tmp = np.empty_like(acc)
        for i, d in enumerate(digits):
            acc += d * ks[:, i]
            if (i + 1) % self._ks_chunk == 0:
                reduce_rows(acc, q, tmp)
        return reduce_rows(acc, q, tmp)

    def _relinearize(self, data: np.ndarray, c2: np.ndarray) -> Ciphertext:
        """(c₀, c₁) plus the key switch of c₂, for a (3, k, n) product and
        c₂'s coefficients."""
        out = self._apply_ks(data[2], c2, self.keys.rlk)
        out += data[:2]
        return Ciphertext(fold_rows(out, self._q))

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold c₂ back onto (c₀, c₁) with the relinearization key."""
        if ct.degree == 2:
            return ct
        if ct.degree != 3:
            raise ParameterError("relinearization expects a degree-3 ciphertext")
        return self._relinearize(ct.data, stack_intt(ct.data[2], self.mods))

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """relinearize(mul_no_relin(a, b)), bit for bit, but c₂ goes to the
        key switch in the coefficients the product already has, so its
        inverse transform is skipped."""
        coeff = self._tensor(a, b)
        data, c2 = stack_ntt(coeff, self.mods), coeff[2].copy()
        del coeff  # only c₂'s rows stay alive through the key switch
        return self._relinearize(data, c2)

    # ---- automorphisms -----------------------------------------------------

    def _galois(self, ct: Ciphertext, g: int) -> Ciphertext:
        if ct.degree != 2:
            raise ParameterError("rotations expect degree-2 ciphertexts")
        if g not in self.keys.gks:
            raise KeyMaterialError(
                f"no rotation key for galois element {g}; regenerate keys "
                f"with the required steps"
            )
        c0, c1 = ct.data[..., _eval_permutation(g, self.params.n)]
        out = self._apply_ks(c1, stack_intt(c1, self.mods), self.keys.gks[g])
        out[0] += c0
        fold_rows(out[0], self._q)
        return Ciphertext(out)

    def rotate(self, ct: Ciphertext, step: int) -> Ciphertext:
        if not rotation_moves(step, self.params.n // 2):
            return ct
        return self._galois(ct, galois_element(step, self.params.n))

    def row_swap(self, ct: Ciphertext) -> Ciphertext:
        return self._galois(ct, galois_row_swap(self.params.n))

    def inner_sum(self, ct: Ciphertext, block: int, stride: int = 1) -> Ciphertext:
        """Every slot ← the sum of its aligned block (stride-aware layout).

        Window phase: log2(block) positive rotations.  Unless the block
        spans a full row, correct values then live only at block starts, so
        a one-hot mask and a broadcast phase with the mirrored negative
        rotations replicate them across each block.
        """
        n = self.params.n
        window, broadcast = inner_sum_steps(block, stride, n // 2)
        acc = ct
        for sh in window:
            acc = self.add(acc, self.rotate(acc, sh))
        if broadcast:
            acc = self.mul_plain(acc, [int(s % (block * stride) < stride) for s in range(n)])
        for sh in broadcast:
            acc = self.add(acc, self.rotate(acc, sh))
        return acc
