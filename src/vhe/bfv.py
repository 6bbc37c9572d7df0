"""Leveled BFV over RNS with batching, relinearization, and rotations.

A ciphertext (c₀, …, c_d) is one int64 residue stack of shape (d+1, k, n):
component, chain prime, coefficient, always in the evaluation (NTT)
domain.  Keys are stacks too: the public key is (2, k, n) for (b, a), and
the relinearization key and every Galois key are (2, k, k, n): (b, a) per
RNS digit.  Plaintexts are batched slot vectors over Z_t.  Every linear
operation, encryption and a rotation's slot permutation are one numpy
expression over the stack; an operation that needs coefficients moves
between the domains with one stacked transform call (ring.stack_ntt /
stack_intt) per direction: secret-key encryption transforms the k rows of
e + Δ·m, public-key encryption (u, e₀ + Δ·m, e₁) as one (3, k, n) stack, a
key switch its (k, k, n) digit stack, multiplication its four inputs' chain
rows, their auxiliary rows, its three products and, back into the chain,
the three scaled results.

    encrypt:  c = (−a·s + e + Δ·m, a) with the secret key (the data owner),
              a uniform in the evaluation domain and expanded from a
              32-byte seed by SHAKE-128 (expand_uniform);
              c = u·pk + (e₀ + Δ·m, e₁) with public keys only,  Δ = ⌊Q/t⌋
    decrypt:  m = ⌊(t·x + ⌊Q/2⌋)/Q⌋ mod t for the phase x = [c₀ + c₁·s]_Q,
              exactly, by int64 Garner base conversion into auxiliary
              primes P′ with Π P′ > t
    multiply: tensor the pair over the integers in the chain Q plus
              auxiliary primes P, then y = ⌊(t·x + ⌊Q/2⌋)/Q⌋ per
              coefficient, exactly, by int64 Garner base conversion
              (BaseConverter) between Q and P
    relinearize / rotate: RNS-digit key switching, one digit per chain
              prime (Bajard–Eynard–Hasan–Zucca): digit i is residue row i
              of the target, centred, and its key carries the target secret
              in row i only (the CRT idempotent gadget)

Every operation is int64 throughout; decryption turns only the one
coefficient of largest noise into a Python integer.  Nothing depends on
floating point, so decryption equality is bit-reproducible.  The `a` half
of every key's RLWE pair is expanded from a seed as well, so no key carries
raw output of the generator that also draws the secret and the errors.

Noise is verified, not assumed: decryption measures the residual distance
to the decoded plaintext and raises DecryptionFailureError once it leaves
the safe quarter-interval, instead of silently returning corrupted slots.
"""

from __future__ import annotations

import ctypes
import hashlib
import platform
import secrets
from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

from .errors import (
    DecryptionFailureError,
    KeyMaterialError,
    LayoutError,
    ParameterError,
    SerializationError,
)
from .params import CHAIN_PRIME_BITS, Params
from .ring import (
    batch_decode,
    batch_encode,
    find_ntt_primes,
    get_modulus,
    stack_intt,
    stack_ntt,
)


# ---------------------------------------------------------------------------
# RNS helpers
# ---------------------------------------------------------------------------


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
        self.col = np.array(primes, dtype=np.int64)[:, None]
        self.chunk = (2**63 - 1) // (max(primes) - 1) ** 2 - 1

    def digits(self, x: np.ndarray):
        """The digits [v_0, …, v_{|S|−1}] of (..., |S|, n) residues, each
        (..., n), and the unreduced (..., |D|, n) sums Σ_j v_j·(M_j mod d)."""
        k = len(self.src)
        acc = np.zeros(x.shape[:-2] + (len(self.col), x.shape[-1]), dtype=np.int64)
        out = []
        for j, s in enumerate(self.src):
            v = x[..., j, :] - acc[..., j, :]
            v %= s
            v *= self.inv[j]
            v %= s
            out.append(v)
            rest = acc[..., j + 1 :, :]
            rest += v[..., None, :] * self.weights[j, j + 1 :]
            if (j + 1) % self.chunk == 0:
                rest %= self.col[j + 1 :]
        return out, acc[..., k:, :]

    def above_half(self, digits) -> np.ndarray:
        """x > ⌊Π S/2⌋ per coefficient: the top digit that differs decides."""
        above = False
        for v, h in zip(digits, self.half):
            above = np.where(v == h, above, v > h)
        return above

    def __call__(self, x: np.ndarray, centred: bool) -> np.ndarray:
        """(..., |S|, n) residues in [0, s_i) → (..., |D|, n) in [0, d)."""
        digits, out = self.digits(x)
        if centred:
            out -= self.above_half(digits)[..., None, :] * self.prod
        out %= self.col[len(self.src) :]
        return out


def _lex_extreme(digits, mask: np.ndarray, pick):
    """Index of a coefficient in `mask` whose digits, compared from the top,
    are the largest (pick = np.max) or smallest (np.min); None if empty."""
    if not mask.any():
        return None
    for v in reversed(digits):
        mask = mask & (v == pick(v[mask]))
    return int(mask.argmax())


class _DecryptBasis:
    """Decryption's auxiliary primes P′, ⌈bits(t)/28⌉ primes of 29 bits so
    that Π P′ > t, and the constants of y = ⌊(t·x + ⌊Q/2⌋)/Q⌋ ∈ [0, t] on
    the chain rows followed by the P′ rows."""

    def __init__(self, params: Params):
        count = -(-params.t.bit_length() // (CHAIN_PRIME_BITS - 1))
        aux = find_ntt_primes(CHAIN_PRIME_BITS, params.n, count, exclude=params.q_chain)
        q, primes = params.big_q, params.q_chain + tuple(aux)
        self.chain = BaseConverter(params.q_chain, aux)
        self.aux = BaseConverter(aux)
        self.t = np.array([params.t % p for p in primes], dtype=np.int64)[:, None]
        self.half = np.array([q // 2 % p for p in primes], dtype=np.int64)[:, None]
        self.q_inv = np.array([pow(q, -1, p) for p in aux], dtype=np.int64)[:, None]


class _MulBasis:
    """Multiplication's auxiliary primes P and its converters, built once.

    P is the smallest product of auxiliary primes above t·n·Q + 4: the
    scaled tensor coefficients then satisfy |y| < P/2 and convert back into
    the chain exactly.  `primes` is Q ∪ P, where the tensor is formed.
    """

    def __init__(self, params: Params):
        bound = params.t * params.n * params.big_q + 4
        aux, prod = [], 1
        for p in find_ntt_primes(CHAIN_PRIME_BITS, params.n, 64, exclude=params.q_chain):
            if prod > bound:
                break
            aux.append(p)
            prod *= p
        self.primes = params.q_chain + tuple(aux)
        self.mods = [get_modulus(p, params.n) for p in self.primes]
        self.col = np.array(self.primes, dtype=np.int64)[:, None]
        self.to_aux = BaseConverter(params.q_chain, aux)
        self.to_chain = BaseConverter(aux, params.q_chain)
        # z = t·x + ⌊Q/2⌋ per prime, then y = (z − r)·Q⁻¹ on the P rows
        q = params.big_q
        self.t = np.array([params.t % p for p in self.primes], dtype=np.int64)[:, None]
        self.half = np.array([q // 2 % p for p in self.primes], dtype=np.int64)[:, None]
        self.q_inv = np.array([pow(q, -1, p) for p in aux], dtype=np.int64)[:, None]


# Modular arithmetic on residue stacks (..., k, n) against a (k, 1) modulus
# column broadcasts over the leading axes.  The reduction (a division, the
# costly step) runs once and in place; callers fold unreduced terms into one
# call while the sum stays below 2^63 (a product of two residues is < 2^60).


def _pointwise(a, b, q):
    out = a * b
    out %= q
    return out


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


@dataclass
class KeySet:
    """Secret, public, relinearization, and rotation key material.

    `public()` strips the secret for handing to an evaluator.
    """

    params: Params
    pk: np.ndarray  # (2, k, n): (b, a), evaluation domain
    rlk: np.ndarray  # (2, k, k, n): (b, a) per RNS digit
    gks: dict  # galois element → (2, k, k, n) like rlk
    sk_ntt: np.ndarray | None = None

    @property
    def has_secret(self) -> bool:
        return self.sk_ntt is not None

    def public(self) -> "KeySet":
        return KeySet(self.params, self.pk, self.rlk, dict(self.gks), None)


def _cbd_error(gen: np.random.Generator, n: int, err_std: float) -> np.ndarray:
    """Centered binomial with variance k/2 ≈ err_std² (k = round(2·err_std²)):
    the number of set bits among k uniform bits, less that among k more."""
    k = max(1, round(2 * err_std * err_std))
    e = np.zeros(n, dtype=np.int64)
    for j in range(0, k, 64):
        counts = np.bitwise_count(gen.integers(0, 1 << min(64, k - j), size=(2, n), dtype=np.uint64))
        e += counts[0]
        e -= counts[1]
    return e


def _ternary(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.integers(-1, 2, size=n, dtype=np.int64)


SEED_BYTES = 32


def expand_uniform(seed: bytes, primes, rows: int, n: int) -> np.ndarray:
    """(rows, k, n) residues uniform in [0, q_i), expanded from `seed`.

    Row (r, i) reads little-endian 32-bit words from SHAKE-128(seed ‖ r ‖ i)
    (r and i as u16), masks each to the bit length of q_i and keeps the
    first n below q_i: rejection sampling, never a reduction mod q_i, so
    the residues carry no bias.  A longer read only extends the same
    stream, so the output depends on the seed alone, never on numpy's
    generator streams (which NEP 19 does not keep stable across versions).
    """
    out = np.empty((rows, len(primes), n), dtype=np.int64)
    for r in range(rows):
        for i, q in enumerate(primes):
            xof = hashlib.shake_128(seed + r.to_bytes(2, "little") + i.to_bytes(2, "little"))
            mask = (1 << q.bit_length()) - 1
            words = n * (mask + 1) // q + 64
            while True:
                w = np.frombuffer(xof.digest(4 * words), dtype="<u4") & mask
                kept = w[w < q]
                if len(kept) >= n:
                    break
                words *= 2
            out[r, i] = kept[:n]
    return out


def galois_element(step: int, n: int) -> int:
    """Galois element for a signed row rotation (3 generates the row orbit)."""
    m = 2 * n
    return pow(3, step % (n // 2), m)


ROW_SWAP = "row_swap"


def galois_row_swap(n: int) -> int:
    return 2 * n - 1


@lru_cache(maxsize=None)
def _eval_permutation(g: int, n: int) -> np.ndarray:
    """NTT-domain slot permutation realizing X → X^g (same for every prime)."""
    m = 2 * n
    idx = np.empty(n, dtype=np.int64)
    for k in range(n):
        idx[k] = (((2 * k + 1) * g) % m - 1) // 2
    return idx


def keygen(
    params: Params,
    rotation_steps=(),
    row_swap: bool = True,
    rng: np.random.Generator | None = None,
) -> KeySet:
    """Generate secret/public/relinearization keys plus the requested
    rotation keys (exactly those steps, plus the row swap by default)."""
    gen = rng if rng is not None else np.random.default_rng(
        secrets.randbits(128)
    )
    primes = params.q_chain
    mods = [get_modulus(p, params.n) for p in primes]
    n, k = params.n, len(primes)
    q = np.array(primes, dtype=np.int64)[:, None]

    s_ntt = stack_ntt(_ternary(gen, n) % q, mods)

    def rlwe_pairs(count):
        """(2, count, k, n) stack of (b, a) with b = -(a·s + e), NTT domain;
        a is expanded from a fresh seed and the errors of all pairs are
        transformed in one call."""
        out = np.empty((2, count, k, n), dtype=np.int64)
        b, a = out
        a[:] = expand_uniform(gen.bytes(SEED_BYTES), primes, count, n)
        e = np.empty_like(a)
        for c in range(count):
            np.remainder(_cbd_error(gen, n, params.err_std), q, out=e[c])
        np.multiply(a, s_ntt, out=b)
        np.negative(b, out=b)
        b -= stack_ntt(e, mods)
        b %= q
        return out

    pk = rlwe_pairs(1)[:, 0]

    def key_switch_key(target_ntt):
        """One RLWE pair per chain prime; pair i carries the target secret
        times the CRT idempotent e_i (≡ 1 mod q_i, ≡ 0 mod q_j≠i), i.e. the
        target in residue row i and zeros elsewhere."""
        ks = rlwe_pairs(k)
        diag = np.arange(k)
        ks[0, diag, diag] = (ks[0, diag, diag] + target_ntt) % q
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

    return KeySet(params=params, pk=pk, rlk=rlk, gks=gks, sk_ntt=s_ntt)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

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

    backend_tag = "bfv"

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
        self._delta_res = np.array([params.delta % p for p in self.primes], dtype=np.int64)[:, None]
        self._ext_basis = None
        self._dec_basis = None
        # digit products are < max(q)²: this many (plus a reduced running
        # sum) fit in int64 before the accumulators must be reduced
        self._ks_chunk = (2**63 - 1) // (max(self.primes) - 1) ** 2 - 1

    # ---- plaintext encoding -------------------------------------------------

    def _encode_residues(self, slots, ntt: bool = True) -> np.ndarray:
        # coefficients are < t < 2^60, so int64 holds them exactly
        coeffs = np.asarray(batch_encode(slots, self.t_mod), dtype=np.int64)
        mat = coeffs % self._q
        return stack_ntt(mat, self.mods) if ntt else mat

    # ---- lifecycle ----------------------------------------------------------

    def encrypt(self, slots) -> Ciphertext:
        """Secret-key encryption (−a·s + NTT(e + Δ·m), a) when the backend
        holds the secret key, with a expanded from a seed drawn from the
        generator; public-key encryption u·pk + (e₀ + Δ·m, e₁) otherwise."""
        p = self.params
        if len(slots) != p.n:
            raise ParameterError(f"expected {p.n} slots, got {len(slots)}")
        gen, q = self._gen, self._q
        scaled = self._delta_res * self._encode_residues(slots, ntt=False)
        s_ntt = self.keys.sk_ntt
        if s_ntt is not None:
            c = np.empty((2,) + scaled.shape, dtype=np.int64)
            c[1] = expand_uniform(gen.bytes(SEED_BYTES), self.primes, 1, p.n)[0]
            scaled += _cbd_error(gen, p.n, p.err_std)
            scaled %= q
            np.multiply(c[1], s_ntt, out=c[0])
            np.subtract(stack_ntt(scaled, self.mods), c[0], out=c[0])
            c[0] %= q
            return Ciphertext(c)
        u = _ternary(gen, p.n)
        e0 = _cbd_error(gen, p.n, p.err_std)
        e1 = _cbd_error(gen, p.n, p.err_std)
        # by linearity, NTT(e₀ + Δ·m) = NTT(e₀) + Δ·NTT(m): one transform
        # of (u, e₀ + Δ·m, e₁) gives every evaluation-domain term
        x = np.empty((3,) + scaled.shape, dtype=np.int64)
        x[0] = u
        np.add(scaled, e0, out=x[1])
        x[2] = e1
        x %= q
        x = stack_ntt(x, self.mods)
        c = self.keys.pk * x[0]
        c += x[1:]
        c %= q
        return Ciphertext(c)

    def encrypt_zero(self) -> Ciphertext:
        return self.encrypt([0] * self.params.n)

    def _require_secret(self):
        if not self.keys.has_secret:
            raise KeyMaterialError("operation requires the secret key")
        return self.keys.sk_ntt

    def _check_received(self, ct: Ciphertext):
        """Refuse a ciphertext that is not a (d+1, k, n) stack of residues
        in [0, q_i) with d ≥ 0.

        The transforms are exact only for reduced residues, so a hostile or
        corrupt ciphertext must stop here, before any arithmetic.
        """
        shape = (len(self.primes), self.params.n)
        data = ct.data
        if not (
            isinstance(data, np.ndarray)
            and data.dtype == np.int64
            and data.ndim == 3
            and data.shape[1:] == shape
        ):
            raise SerializationError(
                f"ciphertext must be an int64 (d+1, {shape[0]}, {shape[1]}) residue stack"
            )
        if not len(data):
            raise SerializationError("ciphertext has no components")
        if (data < 0).any() or (data >= self._q).any():
            raise SerializationError("ciphertext residue outside [0, q_i)")

    def _phase(self, ct: Ciphertext) -> np.ndarray:
        """[Σ c_i·s^i]_Q as (k, n) coefficient residues in [0, q_i)."""
        s_ntt = self._require_secret()
        self._check_received(ct)
        q = self._q
        acc = ct.data[0]
        s_pow = s_ntt
        for d, mat in enumerate(ct.data[1:]):
            acc = acc + mat * s_pow
            acc %= q
            if d + 2 < ct.degree:
                s_pow = _pointwise(s_pow, s_ntt, q)
        return stack_intt(acc, self.mods)

    def _noise(self, ct: Ciphertext):
        """(plaintext coefficients, largest |noise|), exactly, in int64.

        For the phase x ∈ [0, Q), r = (t·x + ⌊Q/2⌋) mod Q on the chain
        rows; x and r are converted into P′, where y = (t·x + ⌊Q/2⌋ − r)·Q⁻¹
        is ⌊(t·x + ⌊Q/2⌋)/Q⌋ ∈ [0, t] < Π P′, read off its Garner digits,
        and m = y mod t.  The noise x − Δ·m centred mod Q keeps its Garner
        digits over Q: it is negative where they exceed those of ⌊Q/2⌋, and
        the largest |noise| is the digit-wise largest non-negative or
        smallest negative coefficient; only those become Python integers.
        """
        if self._dec_basis is None:
            self._dec_basis = _DecryptBasis(self.params)
        dec, p, q = self._dec_basis, self.params, self._q
        k = len(self.primes)
        x = self._phase(ct)
        r = x * dec.t[:k]
        r += dec.half[:k]
        r %= q
        xr = dec.chain(np.stack([x, r]), centred=False)
        y = xr[0] * dec.t[k:]
        y += dec.half[k:]
        y -= xr[1]
        y %= dec.aux.col
        y *= dec.q_inv
        y %= dec.aux.col
        # partial sums of y's digits never exceed y ≤ t < 2^63
        y = sum(v * w for v, w in zip(dec.aux.digits(y)[0], dec.aux.radix))
        m = y % p.t
        e = x - self._delta_res * (m % q)
        e %= q
        digits, _ = dec.chain.digits(e)
        neg = dec.chain.above_half(digits)
        worst = 0
        for side, pick in ((~neg, np.max), (neg, np.min)):
            i = _lex_extreme(digits, side, pick)
            if i is not None:
                v = sum(int(d[i]) * w for d, w in zip(digits, dec.chain.radix))
                worst = max(worst, v if pick is np.max else p.big_q - v)
        return m, worst

    def decrypt(self, ct: Ciphertext) -> list[int]:
        """Decode slots; raises DecryptionFailureError on noise overflow.

        After recovering the nearest plaintext, the residual noise is
        measured; honest pipelines keep it far below Δ/4, so exceeding
        that guard band means the true value was lost to noise.
        """
        m, worst = self._noise(ct)
        delta = self.params.delta
        if worst >= delta // 4:
            raise DecryptionFailureError(
                f"noise |e|≈2^{worst.bit_length()} breached the guard band "
                f"(Δ/4 ≈ 2^{(delta // 4).bit_length()}); result untrustworthy"
            )
        return batch_decode(m.tolist(), self.t_mod)

    def noise_budget(self, ct: Ciphertext) -> float:
        """log2 of (capacity / measured noise); negative once corrupted.

        Logarithms of the integers, never their float quotient, which
        overflows once log2 Q exceeds 1024."""
        p = self.params
        _, worst = self._noise(ct)
        return log2(p.big_q) - log2(2 * p.t) - log2(max(worst, 1))

    # ---- linear operations ---------------------------------------------------

    @staticmethod
    def _padded(data: np.ndarray, d: int) -> np.ndarray:
        """`data` with zero components appended up to d."""
        if len(data) == d:
            return data
        zeros = np.zeros((d - len(data),) + data.shape[1:], dtype=np.int64)
        return np.concatenate([data, zeros])

    def _combine(self, op, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        d = max(a.degree, b.degree)
        out = op(self._padded(a.data, d), self._padded(b.data, d))
        out %= self._q
        return Ciphertext(out)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._combine(np.add, a, b)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self._combine(np.subtract, a, b)

    def neg(self, a: Ciphertext) -> Ciphertext:
        out = np.negative(a.data)
        out %= self._q
        return Ciphertext(out)

    def mul_plain(self, a: Ciphertext, const_slots) -> Ciphertext:
        if len(const_slots) != self.params.n:
            raise ParameterError("constant vector must cover every slot")
        c = self._encode_residues(const_slots)
        return Ciphertext(_pointwise(a.data, c, self._q))

    # ---- multiplication -------------------------------------------------------

    def _ext(self) -> _MulBasis:
        if self._ext_basis is None:
            self._ext_basis = _MulBasis(self.params)
        return self._ext_basis

    def mul_no_relin(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product scaled by t/Q: (c₀, c₁, c₂) decrypting under (1, s, s²).

        Each coefficient is exactly ⌊(t·x + ⌊Q/2⌋)/Q⌋ of the integer tensor
        coefficient x, in int64 throughout.  The inputs' chain rows are
        already transformed; their centred lifts are converted into P, so the
        tensor is formed in Q ∪ P.  With z = t·x + ⌊Q/2⌋ and r = z mod Q
        (converted from the chain rows into P), y = (z − r)·Q⁻¹ on the P
        rows, and a centred conversion takes y back into the chain.
        """
        if a.degree != 2 or b.degree != 2:
            raise ParameterError("multiplication expects degree-2 ciphertexts")
        ext = self._ext()
        k = len(self.primes)
        chain = np.concatenate([a.data, b.data])
        lifted = ext.to_aux(stack_intt(chain, self.mods), centred=True)
        aux = stack_ntt(lifted, ext.mods[k:])
        a0, a1, b0, b1 = np.concatenate([chain, aux], axis=1)

        qe = ext.col
        # middle term: a0·b1 + a1·b0
        cross = a0 * b1
        cross += a1 * b0
        cross %= qe
        prods = np.stack([_pointwise(a0, b0, qe), cross, _pointwise(a1, b1, qe)])

        z = stack_intt(prods, ext.mods)
        z *= ext.t
        z += ext.half
        z %= qe
        y = z[:, k:] - ext.to_aux(z[:, :k], centred=False)
        y *= ext.q_inv
        y %= qe[k:]
        return Ciphertext(stack_ntt(ext.to_chain(y, centred=True), self.mods))

    def _apply_ks(self, coeff: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Key-switch the coefficient-domain target with one RNS digit per
        chain prime; returns the (2, k, n) evaluation-domain pair.

        Digit i is the target's residue row i centred to (-q_i/2, q_i/2] and
        taken into every prime j as centred + q_j, in [0, 2q_j), which the
        transform's ψ twist reduces; the (k, k, n) digit stack is
        transformed in one call and multiplied into the key's (b, a) stack.
        """
        q = self._q
        centred = np.where(coeff > q // 2, coeff - q, coeff)
        digits = stack_ntt(centred[:, None, :] + q, self.mods)
        acc = np.zeros((2,) + coeff.shape, dtype=np.int64)
        for i, d in enumerate(digits):
            acc += d * ks[:, i]
            if (i + 1) % self._ks_chunk == 0:
                acc %= q
        acc %= q
        return acc

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold c₂ back onto (c₀, c₁) with the relinearization key."""
        if ct.degree == 2:
            return ct
        if ct.degree != 3:
            raise ParameterError("relinearization expects a degree-3 ciphertext")
        out = self._apply_ks(stack_intt(ct.data[2], self.mods), self.keys.rlk)
        out += ct.data[:2]
        out %= self._q
        return Ciphertext(out)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.relinearize(self.mul_no_relin(a, b))

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
        out = self._apply_ks(stack_intt(c1, self.mods), self.keys.gks[g])
        out[0] += c0
        out[0] %= self._q
        return Ciphertext(out)

    def rotate(self, ct: Ciphertext, step: int) -> Ciphertext:
        row = self.params.n // 2
        if step % row == 0:
            return ct
        if not (-row < step < row):
            raise ParameterError(f"rotation step must satisfy |step| < {row}")
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
        row = n // 2
        bs = block * stride
        if block < 1 or block & (block - 1) or bs > row or row % bs:
            raise LayoutError(
                f"inner_sum block {block} (stride {stride}) must tile a row of {row}"
            )
        if block == 1:
            return ct
        acc = ct
        sh = stride
        while sh < bs:
            acc = self.add(acc, self.rotate(acc, sh))
            sh *= 2
        if bs == row:
            return acc
        mask = [1 if (s % bs) < stride else 0 for s in range(n)]
        acc = self.mul_plain(acc, mask)
        sh = stride
        while sh < bs:
            acc = self.add(acc, self.rotate(acc, -sh))
            sh *= 2
        return acc
