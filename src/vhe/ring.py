"""Exact negacyclic NTT over Z_q[X]/(X^N + 1), prime search and batching.

The negacyclic ring R_q = Z_q[X]/(X^N + 1), N a power of two, is the
coefficient ring used everywhere else: ciphertext components live in it
(one copy per RNS prime) and plaintexts live in R_t.  A prime q with
q ≡ 1 (mod 2N) has a primitive 2N-th root of unity ψ, which turns
negacyclic convolution into a pointwise product:

    fwd(a)[k] = a(ψ^{2k+1})  computed as a cyclic size-N transform of the
    ψ-twisted coefficients a_i·ψ^i, with ω = ψ² as the size-N root.

Output index k therefore holds the evaluation of a(X) at X = ψ^{2k+1}, in
natural order.  For primes below 2^30 one numpy kernel transforms a whole
(..., k, n) residue stack per call, row i reduced mod prime i, with
per-row tables cached once per prime tuple (:func:`stack_ntt`,
:func:`stack_intt`): a radix-2 constant-geometry DIF transform
(Stockham's autosort), natural order in and out.  After the ψ^i twist
(Longa–Naehrig) each of the log2 n stages reads the two contiguous halves
of every row and writes its butterflies interleaved into a second buffer:
no bit-reversal gather, no transpose, no short strided loops.  Every
stage runs in uint32 lanes.  Entries stay in [0, 2q) (Harvey's lazy
butterflies): a + b is folded by one min-subtract, and the twiddle
product is Shoup's, x·w − ⌊x·w′/2^32⌋·q with the precomputed quotient
w′ = ⌊w·2^32/q⌋, which lies in [0, 2q) for any x < 2^32 and wraps
harmlessly mod 2^32 (Harvey, J. Symbolic Comput. 2014).  The kernel takes
no division, no ``%`` and no floating point; its lanes hold 4q, which is
why it needs q < 2^30.  At n = 4096 (2-core VM) a 7-row forward takes
1.3 ms and a 49-row one 9.0 ms (BENCH_29.json), 0.79× and 0.66× the
uint64 kernel with a division per stage that it replaced.  Larger primes
(up to the 2^60 cap) take an exact pure-Python path, also the tests'
reference.  All arithmetic is exact integer.

Batching: when t ≡ 1 (mod 2N) the same transform gives the slot
isomorphism R_t ≅ Z_t^N.  Slots are arranged as a 2 × (N/2) matrix in
row-major order; slot (r, c) corresponds to the evaluation at exponent
3^c (row 0) or 2N − 3^c (row 1), the orbit structure that makes row
rotation and row swap ring automorphisms.
"""

from __future__ import annotations

import secrets
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import ParameterError

MAX_MODULUS_BITS = 60  # residues must serialize as u64 and fit CRT bounds
_NUMPY_LIMIT = 1 << 31  # slot_array's int64 bound: the product of two slots fits
_KERNEL_LIMIT = 1 << 30  # the stacked kernel's bound: its uint32 lanes hold 4q
_HIGH = int(np.little_endian)  # the index of a uint64's high uint32 word

# ---------------------------------------------------------------------------
# primality
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


# ---------------------------------------------------------------------------
# Modulus: a prime with cached NTT/batching tables for one ring degree
# ---------------------------------------------------------------------------


class Modulus:
    """A prime modulus bound to a ring degree n, with cached transform tables.

    NTT and batching require value ≡ 1 (mod 2n); other primes are refused
    here, so every Modulus can transform.
    """

    __slots__ = (
        "value",
        "n",
        "_np_path",
        "_tables",
        "_slot_to_eval",
        "_stacks",
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
        if value % (2 * n) != 1:
            raise ParameterError(f"{value} is not ≡ 1 mod {2 * n}; NTT unavailable")
        self.value = value
        self.n = n
        self._np_path = value < _KERNEL_LIMIT
        self._tables = None
        self._slot_to_eval = None
        self._stacks = {}  # kernel tables of the prime tuples this one leads

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, n = self.value, self.n
        # ψ = g^((p−1)/2n) has order 2n iff ψ^n = g^((p−1)/2) ≡ −1, that is
        # iff g is a quadratic non-residue (Euler's criterion): 2n is a power
        # of two, so no factoring of p − 1 is needed
        g = 2
        while pow(g, (p - 1) // 2, p) != p - 1:
            g += 1
        psi = pow(g, (p - 1) // (2 * n), p)
        # int64 products of two residues stay exact below the kernel's 2^30,
        # where the powers are kept as uint32 for its tables; above, they
        # are Python integers for the pure-Python transform
        dtype = np.int64 if self._np_path else object
        psi_pows = _powers(psi, n, p, dtype)
        ipsi_pows = _powers(pow(psi, p - 2, p), n, p, dtype)
        if self._np_path:
            psi_pows, ipsi_pows = psi_pows.astype(np.uint32), ipsi_pows.astype(np.uint32)
        else:
            psi_pows, ipsi_pows = psi_pows.tolist(), ipsi_pows.tolist()
        self._tables = (psi, psi_pows, ipsi_pows, _bit_reverse(n), pow(n, p - 2, p))

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
        """Negacyclic forward transform; index k holds eval at ψ^{2k+1}.

        Residues must lie in [0, value).
        """
        if self._np_path:
            return stack_ntt(np.asarray(coeffs, dtype=np.int64)[None], (self,))[0]
        _, psi_pows, _, bitrev, _ = self._get_tables()
        p = self.value
        x = [int(c) * w % p for c, w in zip(coeffs, psi_pows)]
        return _dit_py(x, p, psi_pows, bitrev, self.n)

    def intt(self, evals):
        """Inverse of :meth:`ntt` (returns coefficients in [0, p))."""
        if self._np_path:
            return stack_intt(np.asarray(evals, dtype=np.int64)[None], (self,))[0]
        _, _, ipsi_pows, bitrev, ninv = self._get_tables()
        p = self.value
        x = _dit_py(list(evals), p, ipsi_pows, bitrev, self.n)
        return [x[i] * ninv % p * ipsi_pows[i] % p for i in range(self.n)]

    # -- batching ------------------------------------------------------------

    def slot_to_eval(self) -> np.ndarray:
        """Map slot index (row-major 2×(n/2)) → transform output index."""
        if self._slot_to_eval is None:
            m = 2 * self.n
            e = _powers(3, self.n // 2, m, np.int64)  # row 0 at 3^c, row 1 at 2n − 3^c
            self._slot_to_eval = np.concatenate((e - 1, m - e - 1)) // 2
        return self._slot_to_eval


@lru_cache(maxsize=None)
def get_modulus(value: int, n: int) -> Modulus:
    """Shared Modulus instances so transform tables are built once."""
    return Modulus(value, n)


def _powers(base: int, n: int, p: int, dtype) -> np.ndarray:
    """[base^0, …, base^(n-1)] mod p, by doubling: pw[m:2m] = pw[:m]·base^m."""
    pw = np.ones(n, dtype=dtype)
    m = 1
    while m < n:
        pw[m : 2 * m] = pw[: min(m, n - m)] * pow(base, m, p) % p
        m *= 2
    return pw


@lru_cache(maxsize=None)
def _bit_reverse(n: int) -> np.ndarray:
    """Index i → i with its log2(n) bits reversed."""
    bits = n.bit_length() - 1
    i = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((i >> b) & 1) << (bits - 1 - b)
    rev.flags.writeable = False
    return rev


def _dit_py(x, p, pows, bitrev, n):
    """Exact pure-Python DIT transform; stage m uses pows[j·n/m], j < m."""
    y = [x[bitrev[i]] for i in range(n)]
    m = 1
    while m < n:
        w = pows[:: n // m]
        for base in range(0, n, 2 * m):
            for j in range(m):
                a = y[base + j]
                b = y[base + m + j] * w[j] % p
                y[base + j] = (a + b) % p
                y[base + m + j] = (a - b) % p
        m *= 2
    return y


# ---------------------------------------------------------------------------
# the stacked transform: one call over a whole (..., k, n) residue stack
# ---------------------------------------------------------------------------


class _StackTables:
    """Per-row kernel tables for a tuple of NTT primes of one degree.

    Every table is a pair (w, w′) of uint32 arrays, one row per prime,
    broadcasting over leading axes, where w′ = ⌊w·2^32/q⌋ is w's Shoup
    companion (:func:`_mul_shoup`).  ``twist`` holds ψ^i, ``post``
    n⁻¹·ψ⁻ⁱ, and ``fwd``/``inv`` one pair per stage of :func:`_stages`,
    ω^{±p·s} for block p < m = n/(2s) at stride s, as a (k, m, 1) table
    that broadcasts over the stride.  At 8n − 4 words per prime, companions
    included, that is twice a bit-reversed kernel's 4·k·n words.
    """

    __slots__ = ("q", "q2", "twist", "fwd", "inv", "post")

    def __init__(self, mods):
        n = mods[0].n
        if any(m.n != n for m in mods):
            raise ParameterError("stacked moduli must share one ring degree")
        if not all(m._np_path for m in mods):
            raise ParameterError("the stacked transform needs primes below 2^30")
        tables = [m._get_tables() for m in mods]
        q = np.array([m.value for m in mods], dtype=np.uint64)[:, None]
        self.q, self.q2 = q.astype(np.uint32), (2 * q).astype(np.uint32)
        psi = np.stack([t[1] for t in tables]).astype(np.uint64)
        ipsi = np.stack([t[2] for t in tables]).astype(np.uint64)
        ninv = np.array([t[4] for t in tables], dtype=np.uint64)[:, None]
        self.twist = _with_shoup(psi, q)
        self.post = _with_shoup(ipsi * ninv % q, q)
        # stage s's twiddles ω^{p·s} = ψ^{2p·s}, p < n/(2s), for s = 1, 2, …, n/2
        strides = [1 << j for j in range(n.bit_length() - 1)]
        self.fwd = tuple(_with_shoup(psi[:, :: 2 * s, None], q[..., None]) for s in strides)
        self.inv = tuple(_with_shoup(ipsi[:, :: 2 * s, None], q[..., None]) for s in strides)


def _with_shoup(w: np.ndarray, q: np.ndarray) -> tuple:
    """The uint64 residues w < q < 2^30 and their Shoup companions
    ⌊w·2^32/q⌋, both as uint32."""
    return w.astype(np.uint32), ((w << np.uint64(32)) // q).astype(np.uint32)


def _stack_tables(mods) -> _StackTables:
    # cached on the tuple's first modulus, so the tables share the lifetime
    # of get_modulus's instances and are rebuilt when that cache is cleared
    key = tuple(m.value for m in mods)
    cache = mods[0]._stacks
    tables = cache.get(key)
    if tables is None:
        tables = cache[key] = _StackTables(mods)
    return tables


def reduce_rows(y: np.ndarray, q: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """y %= q_i on row i of a (..., k, n) stack, for the (k, 1) modulus
    column q of y's dtype, in place and exactly, as y − ⌊y/q_i⌋·q_i: numpy
    divides by a scalar (libdivide) three to six times faster than it takes
    ``%`` by a column.  `tmp`, if given, is a work buffer of y's shape."""
    tmp = np.empty_like(y) if tmp is None else tmp
    for i, p in enumerate(q[:, 0]):
        np.floor_divide(y[..., i, :], p, out=tmp[..., i, :])
    tmp *= q
    y -= tmp
    return y


def fold_rows(y: np.ndarray, q: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """y %= q_i on row i of a (..., k, n) stack whose entries lie in
    [0, 2q_i), for the (k, 1) modulus column q, in place and without a
    division: one unsigned min-subtract, min(y, y − q_i), since y − q_i
    wraps above y when y < q_i (Harvey's lazy reduction).  y and q are
    int64 or uint64; `tmp`, if given, is a uint64 work buffer of y's shape.
    Without it the rows are folded one at a time through one row's buffer:
    as fast, and a sum allocates no second stack (a stack-sized temporary
    raised pp-ride's peak RSS by about 1 MB)."""
    u, qu = y.view(np.uint64), q.view(np.uint64)
    if tmp is not None:
        np.minimum(u, np.subtract(u, qu, out=tmp), out=u)
        return y
    tmp = np.empty(y.shape[:-2] + y.shape[-1:], dtype=np.uint64)
    for i in range(len(qu)):
        row = u[..., i, :]
        np.minimum(row, np.subtract(row, qu[i], out=tmp), out=row)
    return y


def _mul_shoup(x: np.ndarray, table: tuple, q: np.ndarray, out: np.ndarray,
               wide: np.ndarray) -> np.ndarray:
    """out = x·w mod q, lazily in [0, 2q), for uint32 lanes x and the
    table pair (w, w′), w < q < 2^30: Shoup's x·w − ⌊x·w′/2^32⌋·q, both
    products wrapping mod 2^32, lies in [0, 2q) for every x < 2^32.  The
    quotient is the high word of x·w′ in `wide`, a C-ordered uint64 buffer
    of x's shape.  `out` may be x."""
    w, w_shoup = table
    np.multiply(x, w_shoup, out=wide, dtype=np.uint64)
    np.multiply(x, w, out=out)
    quot = wide.view(np.uint32)[..., _HIGH::2]
    np.multiply(quot, q, out=quot)
    return np.subtract(out, quot, out=out)


def _stages(y: np.ndarray, tables: _StackTables, stage: tuple) -> np.ndarray:
    """Lazy constant-geometry DIF stages over natural-order (..., k, n)
    uint32 rows.

    The stage of stride s reads the halves a = y[..., :n/2] and b =
    y[..., n/2:] as (m, s) blocks, m = n/(2s), and writes a + b and
    (a − b + 2q)·ω^{p·s} mod q to the two halves of the output's (2, s)
    block p, copying whole s-word blocks; after log2 n stages the result is
    in natural order.  Entries enter each stage in [0, 2q), so a − b + 2q
    and a + b lie below 4q < 2^32; an unsigned min-subtract (x − 2q wraps
    above x when x < 2q) folds a + b back, and the product is Shoup's
    (:func:`_mul_shoup`).  Overwrites y.
    """
    q, q2 = tables.q[..., None], tables.q2
    lead, h = y.shape[:-1], y.shape[-1] // 2
    out = np.empty_like(y)
    t, r = np.empty((2, *lead, h), dtype=np.uint32)
    wide = np.empty(lead + (h,), dtype=np.uint64)
    for table in stage:
        m = table[0].shape[1]
        runs = (*lead, m, h // m)
        block = np.dtype((np.void, 4 * (h // m)))
        a, b = y[..., :h], y[..., h:]
        halves = out.view(block).reshape(*lead, m, 2)
        np.add(a, q2, out=t)
        t -= b
        _mul_shoup(t.reshape(runs), table, q, r.reshape(runs), wide.reshape(runs))
        np.copyto(halves[..., 1], r.view(block))
        np.add(a, b, out=t)
        np.minimum(t, np.subtract(t, q2, out=r), out=t)
        np.copyto(halves[..., 0], t.view(block))
        y, out = out, y
    return y


def _lanes(x, tables: _StackTables) -> np.ndarray:
    """x, int64 entries in [0, 2^32), as a fresh C-ordered uint32 stack of
    (..., k, n) rows: a (..., 1, n) row broadcasts over the k primes."""
    x = np.asarray(x, dtype=np.int64)
    shape = np.broadcast_shapes(x.shape, tables.twist[0].shape)
    return np.broadcast_to(x, shape).astype(np.uint32, order="C")


def stack_ntt(x, mods) -> np.ndarray:
    """Forward transform of a (..., k, n) stack; row i is reduced mod mods[i],
    and a (..., 1, n) stack broadcasts over the k primes.

    Every q_i must lie below 2^30 and every entry in [0, 2^32): the ψ
    twist reduces it.  The result is :meth:`Modulus.ntt` of each row
    reduced mod q_i, as int64.
    """
    tables = _stack_tables(tuple(mods))
    y = _lanes(x, tables)
    _mul_shoup(y, tables.twist, tables.q, y, np.empty(y.shape, dtype=np.uint64))
    y = _stages(y, tables, tables.fwd)
    return np.minimum(y, y - tables.q, dtype=np.int64)


def stack_intt(x, mods) -> np.ndarray:
    """Inverse of :func:`stack_ntt` for entries in [0, 2q_i) (coefficients
    in [0, q_i), int64)."""
    tables = _stack_tables(tuple(mods))
    y = _stages(_lanes(x, tables), tables, tables.inv)
    _mul_shoup(y, tables.post, tables.q, y, np.empty(y.shape, dtype=np.uint64))
    return np.minimum(y, y - tables.q, dtype=np.int64)


# ---------------------------------------------------------------------------
# batching encoder / decoder
# ---------------------------------------------------------------------------


_PY_INT = np.frompyfunc(int, 1, 1)


def slot_array(values, t: int) -> np.ndarray:
    """`values` reduced mod t as a slot array over the last axis.

    int64 while t < 2^31, where the product of two slots fits; Python ints
    in an object array above that, so wide plaintexts stay exact.  Values
    that do not fit int64 take the exact ``int(v) % t`` path.
    """
    a = np.asarray(values)
    if a.dtype.kind == "i":
        a = a.astype(np.int64, copy=False) % t
        return a if t < _NUMPY_LIMIT else a.astype(object)
    a = _PY_INT(np.array(values, dtype=object)) % t
    return a.astype(np.int64) if t < _NUMPY_LIMIT else a


def _rows(x: np.ndarray, mod: Modulus, stacked, one) -> np.ndarray:
    """A transform of every (n,) row of `x`: one `stacked` call over the
    whole stack below 2^30, the pure-Python `one` row by row above."""
    if mod._np_path:
        return stacked(x[..., None, :], (mod,))[..., 0, :]
    return np.array([one(r) for r in x.reshape(-1, mod.n)], dtype=np.int64).reshape(x.shape)


def batch_encode_array(slots, mod: Modulus) -> np.ndarray:
    """Pack slot values (row-major 2×(n/2)) into int64 plaintext
    coefficients (< p < 2^60), for one slot vector or a (..., n) stack of
    them in one transform call.

    The slots are reduced mod p by :func:`slot_array`: in numpy for
    integer arrays and for lists that fit int64, exactly otherwise.
    """
    a = slot_array(slots, mod.value)
    if a.shape[-1] != mod.n:
        raise ParameterError(f"expected {mod.n} slots, got {a.shape[-1]}")
    evals = np.zeros_like(a)
    evals[..., mod.slot_to_eval()] = a
    return _rows(evals, mod, stack_intt, mod.intt)


def batch_decode_array(coeffs, mod: Modulus) -> np.ndarray:
    """Inverse of :func:`batch_encode_array`: int64 slots over the last axis."""
    return _rows(np.asarray(coeffs), mod, stack_ntt, mod.ntt)[..., mod.slot_to_eval()]


def stand_in(slots: np.ndarray, breached: np.ndarray, t: int) -> np.ndarray:
    """`slots` with each row that `breached` marks replaced by uniform slots
    mod t.  A stand-in is drawn for every row, from a generator seeded from
    `secrets`, so the work does not depend on which rows breached."""
    draw = np.random.default_rng(secrets.randbits(128)).integers(0, t, size=slots.shape)
    return np.where(breached[:, None], draw, slots)


def slot_poly_eval(slots, delta: int, t: int) -> int:
    """Σ_j slots[j]·δ^j mod t, slots taken in row-major slot order."""
    v = slot_array(slots, t)
    return int((v * _powers(delta, len(v), t, v.dtype) % t).sum() % t)


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


# ---------------------------------------------------------------------------
# uniform sampling
# ---------------------------------------------------------------------------


def xof_uniform(xof, bound: int, count: int) -> np.ndarray:
    """The first `count` values uniform in [0, bound), as int64, read from
    an extendable-output hash (hashlib's SHAKE).

    The XOF's little-endian words (u32 while bound < 2^32, u64 above) are
    masked to the bit length of `bound` and those at or above it skipped:
    rejection sampling, never a reduction, so the values carry no bias.  A
    longer read only extends the same stream, so how much is read never
    changes the output.  The first read covers the expected rejections R
    plus 4√R + 16 words; a short read is doubled.
    """
    mask = (1 << bound.bit_length()) - 1
    word = np.dtype("<u4" if bound.bit_length() <= 32 else "<u8")
    words = count * (mask + 1) // bound
    words += 4 * isqrt(words - count) + 16
    while True:
        w = np.frombuffer(xof.digest(word.itemsize * words), dtype=word) & mask
        kept = w[w < bound]
        if len(kept) >= count:
            return kept[:count].astype(np.int64)
        words *= 2
