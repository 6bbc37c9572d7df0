"""Ring arithmetic: NTT products against a schoolbook oracle, batching
isomorphism, and prime search."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv, ring
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

NEAR_2_30 = find_ntt_primes(30, 64, 1)[0]  # largest stacked-kernel prime at n = 64
NEAR_2_31 = find_ntt_primes(31, 64, 1)[0]  # above the kernel: pure-Python path


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
    "p, n", [(17, 2), (97, 16), (7681, 64), (NEAR_2_30, 64), (NEAR_2_31, 64),
             (MOD_BIG.value, 64), (find_ntt_primes(29, 4096, 1)[0], 4096)],
)
def test_tables_match_loop_reference(p, n):
    mod = get_modulus(p, n)
    psi, psi_pows, ipsi_pows, bitrev, ninv = mod._get_tables()
    ref_psi, ref_ipsi, ref_fwd, ref_inv, ref_bitrev, ref_ninv = loop_tables(p, n, psi)
    assert [int(v) for v in psi_pows] == ref_psi
    assert [int(v) for v in ipsi_pows] == ref_ipsi
    assert list(bitrev) == ref_bitrev
    assert ninv == ref_ninv
    if p >= 1 << 30:
        return  # pure-Python path: no stacked tables
    tables = _stack_tables((mod,))
    assert len(tables.fwd) == len(tables.inv) == len(ref_fwd)
    # the stage of stride 2^j multiplies block p < m = n/2^(j+1) by twiddle
    # p of the reference's half-size-m stage, broadcast over the stride
    for j, stages in enumerate(zip(tables.fwd, tables.inv)):
        m = n >> (j + 1)
        for (table, _), ref in zip(stages, (ref_fwd, ref_inv)):
            assert table.shape == (1, m, 1)
            assert table[0, :, 0].tolist() == ref[m.bit_length() - 1]
    assert tables.twist[0][0].tolist() == ref_psi
    assert tables.post[0][0].tolist() == [ninv * v % p for v in ref_ipsi]
    # each table's Shoup companion is ⌊w·2^32/q⌋, from Python integers
    for w, w_shoup in (tables.twist, tables.post, *tables.fwd, *tables.inv):
        assert w_shoup.shape == w.shape and w_shoup.dtype == np.uint32
        assert w_shoup.ravel().tolist() == [(v << 32) // p for v in w.ravel().tolist()]


@pytest.mark.parametrize("n", [2, 16, 1024, 4096, 32768])
def test_stack_tables_stay_within_twice_four_words_per_coefficient(n):
    """A prime tuple's cached tables, Shoup companions included, take at
    most 8·k·n uint32 words, twice the twist, stage, inverse and post
    tables of a bit-reversed kernel."""
    primes = find_ntt_primes(30, n, 3)
    tables = _stack_tables(tuple(get_modulus(p, n) for p in primes))
    arrays = [a for pair in (tables.twist, tables.post, *tables.fwd, *tables.inv) for a in pair]
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
    "near-2^30": lambda: ((NEAR_2_30,), 64),
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
    residues and on the bounds, with the largest prime below the kernel's
    2^30: all 2q − 1 (the lazy stages' top, both directions) and all
    2^32 − 1 (forward; key-switch digits arrive as centred + q)."""
    primes = (*find_ntt_primes(29, n, 2), find_ntt_primes(30, n, 1)[0])
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
    top = np.broadcast_to(2 * q - 1, (len(primes), n))
    for x in (top, np.full((len(primes), n), 2**32 - 1)):
        evals = stack_ntt(x, mods)
        for i, mod in enumerate(mods):
            assert evals[i].tolist() == reference_ntt(x[i], mod), (int(x[i, 0]), i)
    coeffs = stack_intt(top, mods)
    for i, mod in enumerate(mods):
        assert coeffs[i].tolist() == reference_intt(top[i], mod), i


@pytest.mark.parametrize("basis", sorted(KERNEL_BASES))
def test_stacked_transform_matches_per_row_reference(basis):
    """Random, all-zero and all-(q-1) stacks, and the forward bounds
    all-(2q − 1) and all-(2^32 − 1) (the lazy bounds' worst cases)."""
    primes, n = KERNEL_BASES[basis]()
    mods = [get_modulus(p, n) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    rng = np.random.default_rng(len(primes))
    shape = (len(primes), n)
    inputs = {
        "random": rng.integers(0, 2**62, size=shape) % q,
        "zero": np.zeros(shape, dtype=np.int64),
        "q-1": np.broadcast_to(q - 1, shape).copy(),
        "2q-1": np.broadcast_to(2 * q - 1, shape).copy(),
        "2^32-1": np.full(shape, 2**32 - 1),
    }
    for name, x in inputs.items():
        evals = stack_ntt(x, mods)
        for i, mod in enumerate(mods):
            assert evals[i].tolist() == reference_ntt(x[i], mod), (name, i)
        assert np.array_equal(stack_intt(evals, mods), x % q), name


def test_stacked_transform_broadcasts_over_leading_axes():
    """One (k, k, n) call equals k separate (k, n) calls, both directions."""
    primes = preset("n4096").q_chain
    mods = [get_modulus(p, 4096) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    x = np.random.default_rng(2).integers(0, 2**62, size=(len(primes), len(primes), 4096)) % q
    assert np.array_equal(stack_ntt(x, mods), np.stack([stack_ntt(r, mods) for r in x]))
    assert np.array_equal(stack_intt(x, mods), np.stack([stack_intt(r, mods) for r in x]))


def test_kernel_reads_every_input_layout_the_callers_pass():
    """stack_ntt and stack_intt equal the per-row reference, and leave
    their input as it was, on each shape bfv passes: a (n,) row plus a
    (k, 1) column (keygen's ternary secret + q) and that row broadcast, a
    (..., 1, n) row that broadcasts over the primes (a plaintext below
    every chain prime), a non-contiguous column slice (shrink's
    ct.data[:, k:]), a column-major stack and a 3-D leading stack."""
    primes = preset("n4096").q_chain
    n, k = 4096, len(primes)
    mods = [get_modulus(p, n) for p in primes]
    q = np.array(primes, dtype=np.int64)[:, None]
    rng = np.random.default_rng(5)
    row = rng.integers(-1, 2, n)
    wide = rng.integers(0, 2**62, size=(2, 2 * k, n)) % np.concatenate([q, q])
    inputs = {
        "row + column": row + q,
        "broadcast row": np.broadcast_to(row + 1, (k, n)),
        "one row per stack": rng.integers(0, 2**16, size=(2, 1, n)),
        "column slice": wide[:, k:],
        "column-major": np.asfortranarray(wide[0, :k]),
        "3-D stack": rng.integers(0, 2**62, size=(3, k, n)) % q,
    }
    for name, x in inputs.items():
        before = x.copy()
        evals, coeffs = stack_ntt(x, mods), stack_intt(x, mods)
        assert np.array_equal(x, before), name
        rows = np.broadcast_to(x, x.shape[:-2] + (k, n)).reshape(-1, k, n)
        assert evals.shape == coeffs.shape == x.shape[:-2] + (k, n), name
        assert evals.dtype == coeffs.dtype == np.int64, name
        for j in range(len(rows)):
            for i, mod in enumerate(mods):
                assert evals.reshape(-1, k, n)[j, i].tolist() == reference_ntt(rows[j, i], mod), (name, j, i)
                assert coeffs.reshape(-1, k, n)[j, i].tolist() == reference_intt(rows[j, i], mod), (name, j, i)


def test_primes_above_the_kernel_bound_take_the_exact_python_path():
    """A prime in [2^30, 2^31) transforms exactly through the pure-Python
    path (Modulus.ntt/intt against direct evaluation, and 31-bit slot
    batching through its products), and the stacked kernel refuses it."""
    mod = get_modulus(NEAR_2_31, 64)
    p, n = mod.value, mod.n
    assert 1 << 30 <= p < 1 << 31
    rng = random.Random(19)
    for coeffs in (rand_coeffs(mod, rng), [p - 1] * n):
        evals = [int(v) for v in mod.ntt(coeffs)]
        for k in range(n):
            point = pow(mod.psi, 2 * k + 1, p)
            assert evals[k] == sum(c * pow(point, i, p) for i, c in enumerate(coeffs)) % p
        assert [int(v) for v in mod.intt(evals)] == coeffs
    t_mod = find_plaintext_prime(31, n)
    t = t_mod.value
    assert 1 << 30 <= t < 1 << 31
    u, v = rand_coeffs(t_mod, rng), [t - 1] * n
    pu, pv = batch_encode_array(u, t_mod), batch_encode_array(v, t_mod)
    assert pu.dtype == np.int64  # slot_array's int64 rule holds below 2^31
    assert batch_decode_array(pu, t_mod).tolist() == u
    assert batch_decode_array(np.stack([pu, pv]), t_mod).tolist() == [u, v]
    prod = batch_decode_array(ntt_mul(pu.tolist(), pv.tolist(), t_mod), t_mod).tolist()
    assert prod == [a * b % t for a, b in zip(u, v)]
    for transform in (stack_ntt, stack_intt):
        with pytest.raises(ParameterError, match=r"below 2\^30"):
            transform(np.zeros((1, n), dtype=np.int64), (mod,))


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
    stacked = [m for m in mods if m.value < 1 << 30]
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


# ---------------------------------------------------------------------------
# no floating point in ring
# ---------------------------------------------------------------------------

_FLOAT_ATTRS = {"double", "half", "single", "longdouble", "true_divide", "divide"}


def _float_dtype(value: str) -> bool:
    try:
        return np.dtype(value).kind in "fc"
    except TypeError:
        return False


def floating_point(source: str) -> list[int]:
    """The lines where `source` divides with `/` or `/=`, names `float`, a
    numpy float type or true division (np.float64, np.double, np.divide, …),
    writes a float literal or spells a float dtype as a string."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
            or (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Attribute)
                and (node.attr.startswith("float") or node.attr in _FLOAT_ATTRS))
            or (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
            or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and len(node.value) < 12 and _float_dtype(node.value))
        ):
            bad.append(node.lineno)
    return sorted(bad)


def test_the_guard_finds_floating_point():
    source = (
        '"""a docstring may say float / double"""\n'
        "a = x // q + (x >> 32) % p\n"
        "b = x / q\n"
        "b /= 2\n"
        "c = float(x)\n"
        "d = np.float64(x)\n"
        "e = x.astype(np.double)\n"
        "f = np.divide(x, q)\n"
        "g = x * 0.5\n"
        "h = np.empty(3, dtype=\"f8\")\n"
        "i = np.empty(3, dtype=\"<u4\")\n"
    )
    assert floating_point(source) == [3, 4, 5, 6, 7, 8, 9, 10]


def test_ring_takes_no_floating_point():
    """Aim 3 at the kernel: no float enters the transforms, the batching or
    the sampler."""
    assert floating_point(Path(ring.__file__).read_text(encoding="utf-8")) == []
