"""Exact negacyclic NTT over Z_q[X]/(X^N + 1), prime search and batching.

The negacyclic ring R_q = Z_q[X]/(X^N + 1), N a power of two, is the
coefficient ring used everywhere else: ciphertext components live in it
(one copy per RNS prime) and plaintexts live in R_t.  A prime q with
q ≡ 1 (mod 2N) has a primitive 2N-th root of unity ψ, which turns
negacyclic convolution into a pointwise product:

    fwd(a)[k] = a(ψ^{2k+1})  computed as a cyclic size-N transform of the
    ψ-twisted coefficients a_i·ψ^i, with ω = ψ² as the size-N root.

Output index k therefore holds the evaluation of a(X) at X = ψ^{2k+1}, in
natural order.  For primes below 2^31 every butterfly product fits in
int64 and the transform is vectorized numpy; larger primes (up to the
2^60 cap) take an exact pure-Python path so results never depend on
floating point.

Batching: when t ≡ 1 (mod 2N) the same transform gives the slot
isomorphism R_t ≅ Z_t^N.  Slots are arranged as a 2 × (N/2) matrix in
row-major order; slot (r, c) corresponds to the evaluation at exponent
3^c (row 0) or 2N − 3^c (row 1), the orbit structure that makes row
rotation and row swap ring automorphisms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError

MAX_MODULUS_BITS = 60  # residues must serialize as u64 and fit CRT bounds
_NUMPY_LIMIT = 1 << 31  # above this, int64 butterfly products could overflow

# ---------------------------------------------------------------------------
# primality / factoring helpers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for every n < 3.3·10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    import math
    import random

    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(0, n)
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def _primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod prime p."""
    order = p - 1
    prime_factors = list(factorize(order))
    g = 2
    while True:
        if all(pow(g, order // f, p) != 1 for f in prime_factors):
            return g
        g += 1


# ---------------------------------------------------------------------------
# Modulus: a prime with cached NTT/batching tables for one ring degree
# ---------------------------------------------------------------------------


class Modulus:
    """A prime modulus bound to a ring degree n, with cached transform tables.

    NTT and batching require value ≡ 1 (mod 2n); ``ntt_ready`` is False
    for other primes, whose transforms raise ParameterError.
    """

    __slots__ = (
        "value",
        "n",
        "ntt_ready",
        "_np_path",
        "_tables",
        "_slot_to_eval",
    )

    def __init__(self, value: int, n: int):
        if n < 2 or n & (n - 1):
            raise ParameterError(f"ring degree must be a power of two, got {n}")
        if not is_prime(value):
            raise ParameterError(f"modulus {value} is not prime")
        if value.bit_length() > MAX_MODULUS_BITS:
            raise ParameterError(
                f"modulus {value} exceeds the {MAX_MODULUS_BITS}-bit cap"
            )
        self.value = value
        self.n = n
        self.ntt_ready = value % (2 * n) == 1
        self._np_path = value < _NUMPY_LIMIT
        self._tables = None
        self._slot_to_eval = None

    def __repr__(self):
        return f"Modulus({self.value}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, Modulus)
            and other.value == self.value
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.value, self.n))

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        if not self.ntt_ready:
            raise ParameterError(
                f"{self.value} is not ≡ 1 mod {2 * self.n}; NTT unavailable"
            )
        p, n = self.value, self.n
        g = _primitive_root(p)
        psi = pow(g, (p - 1) // (2 * n), p)
        if pow(psi, n, p) != p - 1:
            raise ParameterError("failed to construct a primitive 2n-th root")
        omega = psi * psi % p
        psi_pows = [1] * n
        ipsi_pows = [1] * n
        ipsi = pow(psi, p - 2, p)
        for i in range(1, n):
            psi_pows[i] = psi_pows[i - 1] * psi % p
            ipsi_pows[i] = ipsi_pows[i - 1] * ipsi % p

        def stage_twiddles(root):
            out = []
            m = 1
            while m < n:
                w = pow(root, n // (2 * m), p)
                row = [1] * m
                for j in range(1, m):
                    row[j] = row[j - 1] * w % p
                out.append(row)
                m *= 2
            return out

        fwd = stage_twiddles(omega)
        inv = stage_twiddles(pow(omega, p - 2, p))
        bits = n.bit_length() - 1
        bitrev = [0] * n
        for i in range(n):
            bitrev[i] = int(bin(i)[2:].zfill(bits)[::-1], 2)
        ninv = pow(n, p - 2, p)
        if self._np_path:
            psi_pows = np.array(psi_pows, dtype=np.int64)
            ipsi_pows = np.array(ipsi_pows, dtype=np.int64)
            fwd = [np.array(row, dtype=np.int64) for row in fwd]
            inv = [np.array(row, dtype=np.int64) for row in inv]
            bitrev = np.array(bitrev, dtype=np.int64)
        self._tables = (psi, psi_pows, ipsi_pows, fwd, inv, bitrev, ninv)

    def _get_tables(self):
        if self._tables is None:
            self._build_tables()
        return self._tables

    @property
    def psi(self) -> int:
        """The primitive 2n-th root of unity backing the transforms."""
        return self._get_tables()[0]

    # -- transforms ----------------------------------------------------------

    def ntt(self, coeffs):
        """Negacyclic forward transform; index k holds eval at ψ^{2k+1}."""
        _, psi_pows, _, fwd, _, bitrev, _ = self._get_tables()
        p = self.value
        if self._np_path:
            x = np.asarray(coeffs, dtype=np.int64) * psi_pows % p
            return _dit_np(x, p, fwd, bitrev)
        x = [coeffs[i] * psi_pows[i] % p for i in range(self.n)]
        return _dit_py(x, p, fwd, bitrev, self.n)

    def intt(self, evals):
        """Inverse of :meth:`ntt` (returns coefficients in [0, p))."""
        _, _, ipsi_pows, _, inv, bitrev, ninv = self._get_tables()
        p = self.value
        if self._np_path:
            x = _dit_np(np.asarray(evals, dtype=np.int64), p, inv, bitrev)
            return x * ninv % p * ipsi_pows % p
        x = _dit_py(list(evals), p, inv, bitrev, self.n)
        return [x[i] * ninv % p * ipsi_pows[i] % p for i in range(self.n)]

    # -- batching ------------------------------------------------------------

    def slot_to_eval(self) -> np.ndarray:
        """Map slot index (row-major 2×(n/2)) → transform output index."""
        if self._slot_to_eval is None:
            n = self.n
            m = 2 * n
            table = np.empty(n, dtype=np.int64)
            e = 1
            for c in range(n // 2):
                table[c] = (e - 1) // 2
                table[n // 2 + c] = (m - e - 1) // 2
                e = e * 3 % m
            self._slot_to_eval = table
        return self._slot_to_eval


@lru_cache(maxsize=None)
def get_modulus(value: int, n: int) -> Modulus:
    """Shared Modulus instances so transform tables are built once."""
    return Modulus(value, n)


def _dit_np(x, p, stage_tw, bitrev):
    y = x[bitrev]
    n = len(y)
    m, s = 1, 0
    while m < n:
        w = stage_tw[s]
        y = y.reshape(-1, 2 * m)
        lo = y[:, :m].copy()
        t = y[:, m:] * w % p
        y[:, :m] = (lo + t) % p
        y[:, m:] = (lo - t) % p
        y = y.reshape(-1)
        m, s = m * 2, s + 1
    return y


def _dit_py(x, p, stage_tw, bitrev, n):
    y = [x[bitrev[i]] for i in range(n)]
    m, s = 1, 0
    while m < n:
        w = stage_tw[s]
        for base in range(0, n, 2 * m):
            for j in range(m):
                a = y[base + j]
                b = y[base + m + j] * w[j] % p
                y[base + j] = (a + b) % p
                y[base + m + j] = (a - b) % p
        m, s = m * 2, s + 1
    return y


# ---------------------------------------------------------------------------
# batching encoder / decoder
# ---------------------------------------------------------------------------


def batch_encode(slots, mod: Modulus) -> list[int]:
    """Pack n slot values (row-major 2×(n/2)) into plaintext coefficients."""
    if not mod.ntt_ready:
        raise ParameterError(
            f"batching needs a prime ≡ 1 mod {2 * mod.n}; got {mod.value}"
        )
    if len(slots) != mod.n:
        raise ParameterError(f"expected {mod.n} slots, got {len(slots)}")
    table = mod.slot_to_eval()
    p = mod.value
    if mod._np_path:
        evals = np.zeros(mod.n, dtype=np.int64)
        evals[table] = np.asarray([int(v) % p for v in slots], dtype=np.int64)
        return mod.intt(evals).tolist()
    evals = [0] * mod.n
    for s in range(mod.n):
        evals[int(table[s])] = int(slots[s]) % p
    return mod.intt(evals)


def batch_decode(coeffs, mod: Modulus) -> list[int]:
    """Inverse of :func:`batch_encode`."""
    evals = mod.ntt(coeffs)
    table = mod.slot_to_eval()
    if mod._np_path:
        return evals[table].tolist()
    return [evals[i] for i in table.tolist()]


def slot_poly_eval(slots, delta: int, t: int) -> int:
    """Σ_j slots[j]·δ^j mod t, slots taken in row-major slot order."""
    acc = 0
    for v in reversed(list(slots)):
        acc = (acc * delta + int(v)) % t
    return acc


# ---------------------------------------------------------------------------
# prime search
# ---------------------------------------------------------------------------


def find_plaintext_prime(bits: int, n: int) -> Modulus:
    """Smallest batching-friendly prime with the given bit length.

    Returns the smallest p ≡ 1 (mod 2n) with 2^(bits-1) ≤ p < 2^bits.
    """
    if bits > MAX_MODULUS_BITS:
        raise ParameterError(f"plaintext modulus capped at {MAX_MODULUS_BITS} bits")
    step = 2 * n
    lo, hi = 1 << (bits - 1), 1 << bits
    p = lo + (-(lo - 1) % step)  # first value ≥ lo that is ≡ 1 mod 2n
    while p < hi:
        if is_prime(p):
            return get_modulus(p, n)
        p += step
    raise ParameterError(f"no {bits}-bit prime ≡ 1 mod {step} exists")


def find_ntt_primes(bits: int, n: int, count: int, exclude=()) -> list[int]:
    """`count` distinct primes ≡ 1 (mod 2n) descending from 2^bits."""
    step = 2 * n
    excl = set(exclude)
    out: list[int] = []
    p = (1 << bits) - ((1 << bits) - 1) % step  # largest ≤ 2^bits ≡ 1 mod 2n
    while len(out) < count and p > step:
        if p not in excl and is_prime(p):
            out.append(p)
        p -= step
    if len(out) < count:
        raise ParameterError(
            f"could not find {count} NTT primes of {bits} bits for n={n}"
        )
    return out
