"""Ring arithmetic: NTT products against a schoolbook oracle, batching
isomorphism, and prime search."""

import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv
from vhe.errors import ParameterError
from vhe.params import preset, preset_names
from vhe.ring import (
    _dit_py,
    _stack_tables,
    batch_decode_array,
    batch_encode_array,
    find_ntt_primes,
    find_plaintext_prime,
    get_modulus,
    slot_poly_eval,
    stack_intt,
    stack_ntt,
)


def oracle_negacyclic(a, b, q):
    """Independent X^n ≡ -1 convolution over the integers, reduced at the end."""
    n = len(a)
    acc = [0] * (2 * n)
    for i in range(n):
        for j in range(n):
            acc[i + j] += a[i] * b[j]
    return [(acc[k] - acc[k + n]) % q for k in range(n)]


def oracle_slot_eval(values, delta, t):
    return sum(v * pow(delta, j, t) for j, v in enumerate(values)) % t


# a couple of NTT-friendly rings exercised throughout
MOD_SMALL = get_modulus(17, 2)          # 17 ≡ 1 mod 4
MOD_N16 = get_modulus(97, 16)           # 97 ≡ 1 mod 32
MOD_N64 = get_modulus(7681, 64)         # classic toy FHE prime
MOD_BIG = get_modulus(find_ntt_primes(34, 64, 1)[0], 64)  # pure-python path


def rand_coeffs(mod, rng):
    return [rng.randrange(mod.value) for _ in range(mod.n)]


def ntt_mul(a, b, mod):
    """Negacyclic product as a pointwise product of forward transforms."""
    p = mod.value
    prod = [int(x) * int(y) % p for x, y in zip(mod.ntt(a), mod.ntt(b))]
    return [int(v) for v in mod.intt(prod)]


def test_square_wraps_negacyclically():
    """(1+X)² = 1 + 2X + X² ≡ 2X since X² ≡ -1."""
    assert ntt_mul([1, 1], [1, 1], MOD_SMALL) == [0, 2]


@pytest.mark.parametrize("mod", [MOD_N16, MOD_N64, MOD_BIG])
def test_mul_matches_schoolbook_oracle(mod):
    rng = random.Random(mod.value)
    for _ in range(8):
        a, b = rand_coeffs(mod, rng), rand_coeffs(mod, rng)
        assert ntt_mul(a, b, mod) == oracle_negacyclic(a, b, mod.value)


def test_non_ntt_modulus_refuses_transforms():
    """A prime ≢ 1 mod 2n has no ψ: get_modulus refuses it outright."""
    with pytest.raises(ParameterError, match="1 mod 16"):
        get_modulus(23, 8)  # 23 mod 16 ≠ 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**62), st.data())
def test_ntt_roundtrip_property(seed, data):
    mod = data.draw(st.sampled_from([MOD_N16, MOD_N64, MOD_BIG]))
    rng = random.Random(seed)
    coeffs = [rng.randrange(mod.value) for _ in range(mod.n)]
    back = mod.intt(mod.ntt(coeffs))
    assert [int(x) for x in back] == coeffs


def test_ntt_output_is_negacyclic_evaluation():
    """Index k of the forward transform holds a(ψ^{2k+1})."""
    mod = MOD_N16
    rng = random.Random(7)
    coeffs = [rng.randrange(97) for _ in range(16)]
    evals = mod.ntt(coeffs)
    psi = mod.psi
    for k in range(16):
        point = pow(psi, 2 * k + 1, 97)
        direct = sum(c * pow(point, i, 97) for i, c in enumerate(coeffs)) % 97
        assert int(evals[k]) == direct


# ---------------------------------------------------------------------------
# transform tables and the stacked kernel
# ---------------------------------------------------------------------------

NEAR_2_31 = find_ntt_primes(31, 64, 1)[0]  # largest numpy-path prime at n = 64


def loop_tables(p, n, psi):
    """Per-element loop construction of the transform tables."""
    omega = psi * psi % p
    psi_pows, ipsi_pows = [1] * n, [1] * n
    ipsi = pow(psi, p - 2, p)
    for i in range(1, n):
        psi_pows[i] = psi_pows[i - 1] * psi % p
        ipsi_pows[i] = ipsi_pows[i - 1] * ipsi % p

    def stage_twiddles(root):
        out, m = [], 1
        while m < n:
            w = pow(root, n // (2 * m), p)
            row = [1] * m
            for j in range(1, m):
                row[j] = row[j - 1] * w % p
            out.append(row)
            m *= 2
        return out

    bits = n.bit_length() - 1
    bitrev = [int(bin(i)[2:].zfill(bits)[::-1], 2) for i in range(n)]
    fwd, inv = stage_twiddles(omega), stage_twiddles(pow(omega, p - 2, p))
    return psi_pows, ipsi_pows, fwd, inv, bitrev, pow(n, p - 2, p)


@pytest.mark.parametrize(
    "p, n", [(17, 2), (97, 16), (7681, 64), (NEAR_2_31, 64), (MOD_BIG.value, 64),
             (find_ntt_primes(29, 4096, 1)[0], 4096)],
)
def test_tables_match_loop_reference(p, n):
    mod = get_modulus(p, n)
    psi, psi_pows, ipsi_pows, bitrev, ninv = mod._get_tables()
    ref_psi, ref_ipsi, ref_fwd, ref_inv, ref_bitrev, ref_ninv = loop_tables(p, n, psi)
    assert [int(v) for v in psi_pows] == ref_psi
    assert [int(v) for v in ipsi_pows] == ref_ipsi
    assert list(bitrev) == ref_bitrev
    assert ninv == ref_ninv
    if p >= 1 << 31:
        return  # pure-Python path: no stacked tables
    tables = _stack_tables((mod,))
    assert len(tables.fwd) == len(tables.inv) == len(ref_fwd)
    # the stage of stride 2^j multiplies block p < m = n/2^(j+1) by twiddle
    # p of the reference's half-size-m stage, repeated over the stride or
    # broadcast
    for j, stages in enumerate(zip(tables.fwd, tables.inv)):
        m = n >> (j + 1)
        for table, ref in zip(stages, (ref_fwd, ref_inv)):
            assert table.shape[:2] == (1, m) and table.shape[2] in (1, n // (2 * m))
            assert (table[0] == np.array(ref[m.bit_length() - 1])[:, None]).all()
    assert tables.twist[0].tolist() == ref_psi
    assert tables.post[0].tolist() == [ninv * v % p for v in ref_ipsi]


@pytest.mark.parametrize("n", [2, 16, 1024, 4096, 32768])
def test_stack_tables_stay_within_twice_four_words_per_coefficient(n):
    """A prime tuple's cached tables take at most 8·k·n uint32 words, twice
    the twist, stage, inverse and post tables of a bit-reversed kernel."""
    primes = find_ntt_primes(30, n, 3)
    tables = _stack_tables(tuple(get_modulus(p, n) for p in primes))
    arrays = (tables.twist, tables.post, *tables.fwd, *tables.inv)
    assert all(a.dtype == np.uint32 for a in arrays)
    assert sum(a.nbytes for a in arrays) // 4 <= 2 * 4 * len(primes) * n


def _ext_primes():
    params = preset("n4096")
    keys = bfv.keygen(params, row_swap=False, rng=np.random.default_rng(1))
    return bfv.BfvBackend(params, keys)._ext.primes


KERNEL_BASES = {
    "n4096": lambda: (preset("n4096").q_chain, 4096),
    "mul-extended": lambda: (_ext_primes(), 4096),
    "40x30-bit": lambda: (tuple(find_ntt_primes(30, 64, 40)), 64),
    "near-2^31": lambda: ((NEAR_2_31,), 64),
}


def reference_ntt(row, mod):
    """Modulus.ntt's definition on the pure-Python transform."""
    p, n = mod.value, mod.n
    _, psi_pows, _, bitrev, _ = mod._get_tables()
    pows = [int(v) for v in psi_pows]
    x = [int(c) * pows[i] % p for i, c in enumerate(row)]
    return _dit_py(x, p, pows, [int(v) for v in bitrev], n)


def reference_intt(row, mod):
    """Modulus.intt's definition on the pure-Python transform."""
    p, n = mod.value, mod.n
    _, _, ipsi_pows, bitrev, ninv = mod._get_tables()
    pows = [int(v) for v in ipsi_pows]
    x = _dit_py([int(c) for c in row], p, pows, [int(v) for v in bitrev], n)
    return [v * ninv % p * pows[i] % p for i, v in enumerate(x)]


@pytest.mark.parametrize("n", [2, 16, 64, 1024, 4096, 8192])
def test_kernel_matches_reference_at_every_degree(n):
    """Both directions against the pure-Python transform, on random
    residues and on the forward bounds: all 2q − 1 (the lazy stages' top)
    and all 2^32 − 1 (key-switch digits arrive as centred + q)."""
    primes = (*find_ntt_primes(30, n, 2), find_ntt_primes(31, n, 1)[0])
    mods = [get_modulus(p, n) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    rng = np.random.default_rng(n)
    residues = rng.integers(0, 2**62, size=(len(primes), n)) % q
    evals = stack_ntt(residues, mods)
    coeffs = stack_intt(residues, mods)
    # a column-major stack is laid out afresh, not misread
    assert np.array_equal(stack_ntt(np.asfortranarray(residues), mods), evals)
    assert np.array_equal(stack_intt(np.asfortranarray(residues), mods), coeffs)
    for i, mod in enumerate(mods):
        assert evals[i].tolist() == reference_ntt(residues[i], mod), i
        assert coeffs[i].tolist() == reference_intt(residues[i], mod), i
    for x in (np.broadcast_to(2 * q - 1, (len(primes), n)), np.full((len(primes), n), 2**32 - 1)):
        evals = stack_ntt(x, mods)
        for i, mod in enumerate(mods):
            assert evals[i].tolist() == reference_ntt(x[i], mod), (int(x[i, 0]), i)


@pytest.mark.parametrize("basis", sorted(KERNEL_BASES))
def test_stacked_transform_matches_per_row_reference(basis):
    """Random, all-zero and all-(q-1) stacks (the lazy bounds' worst case)."""
    primes, n = KERNEL_BASES[basis]()
    mods = [get_modulus(p, n) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    rng = np.random.default_rng(len(primes))
    inputs = {
        "random": rng.integers(0, 2**62, size=(len(primes), n)) % q,
        "zero": np.zeros((len(primes), n), dtype=np.int64),
        "q-1": np.broadcast_to(q - 1, (len(primes), n)).copy(),
    }
    for name, x in inputs.items():
        evals = stack_ntt(x, mods)
        for i, mod in enumerate(mods):
            assert evals[i].tolist() == reference_ntt(x[i], mod), (name, i)
        assert np.array_equal(stack_intt(evals, mods), x), name


def test_stacked_transform_broadcasts_over_leading_axes():
    """One (k, k, n) call equals k separate (k, n) calls, both directions."""
    primes = preset("n4096").q_chain
    mods = [get_modulus(p, 4096) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    x = np.random.default_rng(2).integers(0, 2**62, size=(len(primes), len(primes), 4096)) % q
    assert np.array_equal(stack_ntt(x, mods), np.stack([stack_ntt(r, mods) for r in x]))
    assert np.array_equal(stack_intt(x, mods), np.stack([stack_intt(r, mods) for r in x]))


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_prime_has_its_root_and_round_trips(name):
    """ψ^n ≡ −1, so ψ has order exactly 2n, for the chain, t and the
    auxiliary primes of multiplication, whose transforms invert one
    another."""
    params = preset(name)
    n = params.n
    primes = {*params.q_chain, params.t, *bfv._MulBasis(params).primes}
    mods = [get_modulus(p, n) for p in sorted(primes)]
    for mod in mods:
        assert pow(mod.psi, n, mod.value) == mod.value - 1, mod.value
    stacked = [m for m in mods if m.value < 1 << 31]
    q = np.array([m.value for m in stacked], dtype=np.int64)[:, None]
    x = np.random.default_rng(n).integers(0, 2**62, size=(len(stacked), n)) % q
    assert np.array_equal(stack_intt(stack_ntt(x, stacked), stacked), x)
    rng = random.Random(n)
    for mod in mods[len(stacked):]:  # pure-Python path
        row = rand_coeffs(mod, rng)
        assert [int(v) for v in mod.intt(mod.ntt(row))] == row


def test_batch_roundtrip_and_homomorphism():
    """encode/decode is a bijection carrying coefficient-wise sums and ring
    products to slot-wise ops (numpy and pure-Python transform paths)."""
    rng = random.Random(11)
    for mod in (MOD_N64, MOD_BIG):
        t = mod.value
        for _ in range(6):
            u, v = rand_coeffs(mod, rng), rand_coeffs(mod, rng)
            pu, pv = batch_encode_array(u, mod).tolist(), batch_encode_array(v, mod).tolist()
            assert batch_decode_array(pu, mod).tolist() == u
            total = [(a + b) % t for a, b in zip(pu, pv)]
            assert batch_decode_array(total, mod).tolist() == [(a + b) % t for a, b in zip(u, v)]
            prod = batch_decode_array(ntt_mul(pu, pv, mod), mod).tolist()
            assert prod == [a * b % t for a, b in zip(u, v)]


def test_batch_python_path_big_modulus():
    mod = MOD_BIG
    rng = random.Random(13)
    u = [rng.randrange(mod.value) for _ in range(64)]
    assert batch_decode_array(batch_encode_array(u, mod), mod).tolist() == u


def test_batch_requires_congruent_prime():
    with pytest.raises(ParameterError):
        batch_encode_array([0] * 8, get_modulus(23, 8))


def test_slot_poly_eval_matches_direct_sum():
    rng = random.Random(17)
    t = 40961
    values = [rng.randrange(t) for _ in range(50)]
    for delta in (0, 1, 3, t - 1):
        assert slot_poly_eval(values, delta, t) == oracle_slot_eval(values, delta, t)


def test_find_plaintext_prime_frozen_value():
    """Smallest 16-bit batching prime for n=4096 is 40961 (oracle-checked)."""
    mod = find_plaintext_prime(16, 4096)
    assert mod.value == 40961
    assert sympy.isprime(40961)
    assert 40961 % 8192 == 1
    # oracle: nothing smaller in range satisfies both conditions
    for p in range(1 << 15, 40961):
        assert not (p % 8192 == 1 and sympy.isprime(p))


def test_find_ntt_primes_properties():
    primes = find_ntt_primes(30, 4096, 5)
    assert len(set(primes)) == 5
    for p in primes:
        assert sympy.isprime(p)
        assert p % 8192 == 1
        assert p < 1 << 30
    more = find_ntt_primes(30, 4096, 2, exclude=primes)
    assert not set(more) & set(primes)


def test_modulus_validation():
    with pytest.raises(ParameterError):
        get_modulus(15, 8)  # composite
    with pytest.raises(ParameterError):
        get_modulus(17, 3)  # degree not a power of two
    with pytest.raises(ParameterError):
        get_modulus((1 << 61) + 15, 8)  # oversized (2^61+15 happens to be prime)
