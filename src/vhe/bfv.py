"""Leveled BFV over RNS with batching, relinearization, and rotations.

Ciphertexts are tuples of ring elements stored per chain prime as int64
matrices of shape (k, n), kept in the evaluation (NTT) domain between
operations.  Plaintexts are batched slot vectors over Z_t.

    encrypt:  c = u·pk + (e₀ + Δ·m, e₁),  Δ = ⌊Q/t⌋
    decrypt:  m = ⌈(t/Q)·[c₀ + c₁·s]_Q⌋ mod t   (centered, exact big-int)
    multiply: tensor the pair over the integers — computed exactly in a
              temporary extended RNS basis wide enough for the unreduced
              products — then scale each component by t/Q and round
    relinearize / rotate: RNS-digit key switching, one digit per chain
              prime (Bajard–Eynard–Hasan–Zucca): digit i is residue row i
              of the target, centred, and its key carries the target secret
              in row i only (the CRT idempotent gadget)

The big-integer steps (CRT lifting and rounding in multiplication and
decryption) use exact Python integers inside numpy object arrays; key
switching is int64 throughout.  Nothing depends on floating point, so
decryption equality is bit-reproducible.

Noise is verified, not assumed: decryption measures the residual distance
to the decoded plaintext and raises DecryptionFailureError once it leaves
the safe quarter-interval, instead of silently returning corrupted slots.
"""

from __future__ import annotations

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
)
from .params import CHAIN_PRIME_BITS, Params
from .ring import batch_decode, batch_encode, find_ntt_primes, get_modulus


# ---------------------------------------------------------------------------
# RNS helpers
# ---------------------------------------------------------------------------


class CrtBasis:
    """CRT reconstruction/reduction helpers for a fixed prime basis."""

    def __init__(self, primes, n):
        self.primes = tuple(primes)
        self.n = n
        self.mods = [get_modulus(p, n) for p in self.primes]
        self.col = np.array(self.primes, dtype=np.int64)[:, None]  # (k, 1) moduli
        self.product = 1
        for p in self.primes:
            self.product *= p
        # idempotents: e_i ≡ 1 (mod q_i), ≡ 0 (mod q_j≠i)
        self.idempotents = []
        for p in self.primes:
            m = self.product // p
            self.idempotents.append(m * pow(m, -1, p) % self.product)

    def lift_centered(self, mat: np.ndarray) -> np.ndarray:
        """(k, n) residues → object array of balanced integers in (-P/2, P/2]."""
        acc = mat[0].astype(object) * self.idempotents[0]
        for i in range(1, len(self.primes)):
            acc += mat[i].astype(object) * self.idempotents[i]
        acc %= self.product
        half = self.product // 2
        return np.where(acc > half, acc - self.product, acc)

    def residues(self, values: np.ndarray) -> np.ndarray:
        """Object array of (possibly huge) ints → (k, n) int64 residues."""
        rows = [(values % p).astype(np.int64) for p in self.primes]
        return np.stack(rows)


def _ntt_mat(mods, mat):
    return np.stack([np.asarray(m.ntt(mat[i]), dtype=np.int64) for i, m in enumerate(mods)])


def _intt_mat(mods, mat):
    return np.stack([np.asarray(m.intt(mat[i]), dtype=np.int64) for i, m in enumerate(mods)])


# Row-wise modular arithmetic on (k, n) residue matrices against a (k, 1)
# modulus column.  The reduction (a division, the costly step) runs once and
# in place; callers fold unreduced terms into one call while the sum stays
# below 2^63 (a product of two residues is < 2^60).


def _pointwise(a, b, q):
    out = a * b
    out %= q
    return out


def _mat_add(a, b, q):
    out = a + b
    out %= q
    return out


def _mat_sub(a, b, q):
    out = a - b
    out %= q
    return out


@dataclass(frozen=True)
class RnsPoly:
    """One ring element as per-prime residues; `evaldom` marks NTT form."""

    mat: np.ndarray  # (k, n) int64
    evaldom: bool


# ---------------------------------------------------------------------------
# ciphertexts and keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ciphertext:
    """(c₀, …, c_{d}) with d+1 = len(polys); decrypts under powers of s.

    `mul_depth` counts ciphertext-ciphertext multiplication levels for
    diagnostics; correctness is enforced by measured noise at decryption,
    not by this counter.
    """

    polys: tuple
    mul_depth: int = 0

    @property
    def degree(self) -> int:
        return len(self.polys)


@dataclass
class KeySet:
    """Secret, public, relinearization, and rotation key material.

    `public()` strips the secret for handing to an evaluator.
    """

    params: Params
    pk: tuple  # (b, a) NTT-domain matrices
    rlk: tuple  # per chain prime: (b_i, a_i)
    gks: dict  # galois element → per-chain-prime (b_i, a_i) tuple
    sk_ntt: np.ndarray | None = None

    @property
    def has_secret(self) -> bool:
        return self.sk_ntt is not None

    def public(self) -> "KeySet":
        return KeySet(self.params, self.pk, self.rlk, dict(self.gks), None)


def _cbd_error(gen: np.random.Generator, n: int, err_std: float) -> np.ndarray:
    """Centered binomial with variance k/2 ≈ err_std² (k = round(2·err_std²))."""
    k = max(1, round(2 * err_std * err_std))
    return (
        gen.binomial(k, 0.5, size=n).astype(np.int64)
        - gen.binomial(k, 0.5, size=n).astype(np.int64)
    )


def _ternary(gen: np.random.Generator, n: int) -> np.ndarray:
    return gen.integers(-1, 2, size=n, dtype=np.int64)


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
    n = params.n
    q = np.array(primes, dtype=np.int64)[:, None]

    s_ntt = _ntt_mat(mods, _ternary(gen, n) % q)

    def rlwe_pair(payload_ntt=None):
        """(b, a) with b = -(a·s + e) (+ payload if given), NTT domain."""
        a = np.stack(
            [gen.integers(0, p, size=n, dtype=np.int64) for p in primes]
        )
        e = _ntt_mat(mods, _cbd_error(gen, n, params.err_std) % q)
        b = _mat_sub(-(a * s_ntt), e, q)
        if payload_ntt is not None:
            b = _mat_add(b, payload_ntt, q)
        return b, a

    pk = rlwe_pair()

    def key_switch_key(target_ntt):
        """One RLWE pair per chain prime; pair i carries the target secret
        times the CRT idempotent e_i (≡ 1 mod q_i, ≡ 0 mod q_j≠i), i.e. the
        target in residue row i and zeros elsewhere."""
        out = []
        for i in range(len(primes)):
            payload = np.zeros_like(target_ntt)
            payload[i] = target_ntt[i]
            out.append(rlwe_pair(payload))
        return tuple(out)

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


class BfvBackend:
    """Operation surface over one key set (secret key optional)."""

    backend_tag = "bfv"

    def __init__(self, params: Params, keys: KeySet, rng=None):
        if keys.params != params:
            raise ParameterError("key set was generated for different parameters")
        self.params = params
        self.keys = keys
        self._gen = rng if rng is not None else np.random.default_rng(
            secrets.randbits(128)
        )
        self.primes = params.q_chain
        self.mods = [get_modulus(p, params.n) for p in self.primes]
        self.t_mod = params.t_modulus
        self.chain_basis = CrtBasis(self.primes, params.n)
        self._q = self.chain_basis.col
        self._delta_res = np.array([params.delta % p for p in self.primes], dtype=np.int64)[:, None]
        self._ext_basis = None
        # digit products are < max(q)²: this many (plus a reduced running
        # sum) fit in int64 before the accumulators must be reduced
        self._ks_chunk = (2**63 - 1) // (max(self.primes) - 1) ** 2 - 1

    # ---- plaintext encoding -------------------------------------------------

    def _encode_residues(self, slots, ntt: bool = True) -> np.ndarray:
        # coefficients are < t < 2^60, so int64 holds them exactly
        coeffs = np.asarray(batch_encode(slots, self.t_mod), dtype=np.int64)
        mat = coeffs % self._q
        return _ntt_mat(self.mods, mat) if ntt else mat

    # ---- lifecycle ----------------------------------------------------------

    def encrypt(self, slots) -> Ciphertext:
        p = self.params
        if len(slots) != p.n:
            raise ParameterError(f"expected {p.n} slots, got {len(slots)}")
        gen, q = self._gen, self._q
        u = _ntt_mat(self.mods, _ternary(gen, p.n) % q)
        e0 = _ntt_mat(self.mods, _cbd_error(gen, p.n, p.err_std) % q)
        e1 = _ntt_mat(self.mods, _cbd_error(gen, p.n, p.err_std) % q)
        m = self._encode_residues(slots)
        b, a = self.keys.pk
        c0 = _mat_add(b * u + e0, self._delta_res * m, q)
        c1 = _mat_add(a * u, e1, q)
        return Ciphertext((RnsPoly(c0, True), RnsPoly(c1, True)))

    def encrypt_zero(self) -> Ciphertext:
        return self.encrypt([0] * self.params.n)

    def _require_secret(self):
        if not self.keys.has_secret:
            raise KeyMaterialError("operation requires the secret key")
        return self.keys.sk_ntt

    def _phase(self, ct: Ciphertext) -> np.ndarray:
        """[Σ c_i·s^i]_Q as centered big-int coefficients (object array)."""
        s_ntt = self._require_secret()
        q = self._q
        acc = self._to_eval(ct.polys[0]).mat
        s_pow = s_ntt
        for d, poly in enumerate(ct.polys[1:]):
            acc = _mat_add(acc, self._to_eval(poly).mat * s_pow, q)
            if d + 2 < ct.degree:
                s_pow = _pointwise(s_pow, s_ntt, q)
        coeff = _intt_mat(self.mods, acc)
        return self.chain_basis.lift_centered(coeff)

    def _noise(self, ct: Ciphertext):
        """(plaintext coefficients, largest |noise|), exact integers.

        m = ⌈(t/Q)·phase⌋ mod t and the noise is phase − Δ·m centred mod Q
        (the centring absorbs the wrap when the rounding lands on t).
        """
        p = self.params
        q, t = p.big_q, p.t
        phase = self._phase(ct)
        m = (phase * t + q // 2) // q % t
        e = (phase - m * p.delta + q // 2) % q - q // 2
        return m, int(np.abs(e).max())

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
        """log2 of (capacity / measured noise); negative once corrupted."""
        p = self.params
        _, worst = self._noise(ct)
        return log2(p.big_q / (2 * p.t)) - log2(max(worst, 1))

    # ---- linear operations ---------------------------------------------------

    def _to_eval(self, poly: RnsPoly) -> RnsPoly:
        if poly.evaldom:
            return poly
        return RnsPoly(_ntt_mat(self.mods, poly.mat), True)

    def _to_coeff(self, poly: RnsPoly) -> RnsPoly:
        if not poly.evaldom:
            return poly
        return RnsPoly(_intt_mat(self.mods, poly.mat), False)

    def _zip_polys(self, a: Ciphertext, b: Ciphertext):
        da, db = a.degree, b.degree
        zero = RnsPoly(np.zeros_like(a.polys[0].mat), True)
        pa = [self._to_eval(x) for x in a.polys] + [zero] * (max(da, db) - da)
        pb = [self._to_eval(x) for x in b.polys] + [zero] * (max(da, db) - db)
        return pa, pb

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        pa, pb = self._zip_polys(a, b)
        polys = tuple(RnsPoly(_mat_add(x.mat, y.mat, self._q), True) for x, y in zip(pa, pb))
        return Ciphertext(polys, max(a.mul_depth, b.mul_depth))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        pa, pb = self._zip_polys(a, b)
        polys = tuple(RnsPoly(_mat_sub(x.mat, y.mat, self._q), True) for x, y in zip(pa, pb))
        return Ciphertext(polys, max(a.mul_depth, b.mul_depth))

    def neg(self, a: Ciphertext) -> Ciphertext:
        polys = tuple(RnsPoly(_mat_sub(0, self._to_eval(x).mat, self._q), True) for x in a.polys)
        return Ciphertext(polys, a.mul_depth)

    def mul_plain(self, a: Ciphertext, const_slots) -> Ciphertext:
        if len(const_slots) != self.params.n:
            raise ParameterError("constant vector must cover every slot")
        c = self._encode_residues(const_slots)
        polys = tuple(RnsPoly(_pointwise(self._to_eval(x).mat, c, self._q), True) for x in a.polys)
        return Ciphertext(polys, a.mul_depth)

    # ---- multiplication -------------------------------------------------------

    def _ext(self):
        """Extended basis wide enough for unreduced degree-1 tensor products."""
        if self._ext_basis is None:
            p = self.params
            bound = 2 * p.n * p.big_q * p.big_q  # > 2·max|tensor coefficient|
            aux = []
            prod = p.big_q
            for q in find_ntt_primes(CHAIN_PRIME_BITS, p.n, 64, exclude=p.q_chain):
                if prod > 2 * bound:
                    break
                aux.append(q)
                prod *= q
            self._ext_basis = CrtBasis(p.q_chain + tuple(aux), p.n)
        return self._ext_basis

    def mul_no_relin(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product scaled by t/Q: (c₀, c₁, c₂) decrypting under (1, s, s²)."""
        if a.degree != 2 or b.degree != 2:
            raise ParameterError("multiplication expects degree-2 ciphertexts")
        ext = self._ext()
        k = len(self.primes)
        p = self.params

        # exact integer residues of the four inputs in the extended basis
        def extend(poly: RnsPoly):
            coeff = self._to_coeff(poly).mat
            lifted = self.chain_basis.lift_centered(coeff)
            aux_rows = [
                (lifted % q).astype(np.int64) for q in ext.primes[k:]
            ]
            full = np.concatenate([coeff, np.stack(aux_rows)]) if aux_rows else coeff
            return _ntt_mat(ext.mods, full)

        a0, a1 = extend(a.polys[0]), extend(a.polys[1])
        b0, b1 = extend(b.polys[0]), extend(b.polys[1])

        qe = ext.col
        # middle term: a0·b1 + a1·b0
        cross = _mat_add(a0 * b1, a1 * b0, qe)
        prods = [_pointwise(a0, b0, qe), cross, _pointwise(a1, b1, qe)]

        out_polys = []
        q_int, t = p.big_q, p.t
        half = q_int // 2
        for mat in prods:
            coeff = _intt_mat(ext.mods, mat)
            vals = ext.lift_centered(coeff)  # exact tensor coefficients
            scaled = (vals * t + half) // q_int  # ⌈(t/Q)·x⌋
            out_polys.append(RnsPoly(self.chain_basis.residues(scaled), False))
        depth = max(a.mul_depth, b.mul_depth) + 1
        return Ciphertext(tuple(out_polys), depth)

    def _apply_ks(self, target: RnsPoly, ks) -> tuple:
        """Key-switch `target` with one RNS digit per chain prime.

        Digit i is the target's residue row i centred to (-q_i/2, q_i/2] and
        reduced into every prime; in prime i that is row i itself, so its
        transform is the target's evaluation row i and only the k(k-1)
        cross-prime rows need a forward NTT.
        """
        q = self._q
        ev = self._to_eval(target).mat
        coeff = self._to_coeff(target).mat
        centred = np.where(coeff > q // 2, coeff - q, coeff)
        acc0 = np.zeros_like(ev)
        acc1 = np.zeros_like(ev)
        for i, (kb, ka) in enumerate(ks):
            row = centred[i] % q
            d = np.stack([ev[i] if j == i else m.ntt(row[j]) for j, m in enumerate(self.mods)])
            acc0 += d * kb
            acc1 += d * ka
            if (i + 1) % self._ks_chunk == 0:
                acc0 %= q
                acc1 %= q
        return acc0 % q, acc1 % q

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold c₂ back onto (c₀, c₁) with the relinearization key."""
        if ct.degree == 2:
            return ct
        if ct.degree != 3:
            raise ParameterError("relinearization expects a degree-3 ciphertext")
        k0, k1 = self._apply_ks(ct.polys[2], self.keys.rlk)
        c0 = self._to_eval(ct.polys[0]).mat
        c1 = self._to_eval(ct.polys[1]).mat
        return Ciphertext(
            (RnsPoly(_mat_add(c0, k0, self._q), True), RnsPoly(_mat_add(c1, k1, self._q), True)),
            ct.mul_depth,
        )

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
        perm = _eval_permutation(g, self.params.n)
        c0 = self._to_eval(ct.polys[0]).mat[:, perm]
        c1 = self._to_eval(ct.polys[1]).mat[:, perm]
        k0, k1 = self._apply_ks(RnsPoly(c1, True), self.keys.gks[g])
        return Ciphertext(
            (RnsPoly(_mat_add(c0, k0, self._q), True), RnsPoly(k1, True)),
            ct.mul_depth,
        )

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
