"""The two interchangeable backends: the exact-semantics mock and the real
lattice backend, checked against each other and against the plain
interpreter on seeded random programs."""

import dataclasses
import functools
import hashlib
import math
import platform
import random
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv, pe, protocols, rep, serialize
from vhe.circuit import (
    ProgramBuilder,
    eval_he,
    eval_plain,
    inner_sum_steps,
    random_program,
    required_rotation_steps,
)
from vhe.errors import (
    DecryptionFailureError,
    KeyMaterialError,
    LayoutError,
    ParameterError,
    SerializationError,
    VheError,
)
from vhe.mock import MockBackend
from vhe.params import CHAIN_PRIME_BITS, SHRINK_MARGIN_BITS, Params, make_params, preset
from vhe.ring import (
    batch_decode,
    batch_encode,
    find_ntt_primes,
    find_plaintext_prime,
    get_modulus,
    stack_intt,
    stack_ntt,
)

PARAMS = preset("mock64")  # n=64 with a real 2-prime chain: fast for both backends
T = PARAMS.t
N = PARAMS.n


def make_real(params=PARAMS, steps=(1, -1, 2), seed=0, row_swap=False):
    keys = bfv.keygen(
        params, rotation_steps=steps, row_swap=row_swap, rng=np.random.default_rng(seed)
    )
    return bfv.BfvBackend(params, keys, rng=np.random.default_rng(seed + 1))


@pytest.fixture(scope="module")
def real():
    return make_real(row_swap=True)


@pytest.fixture()
def mock():
    return MockBackend(PARAMS, rng=random.Random(3))


def rand_slots(rng):
    return [rng.randrange(T) for _ in range(N)]


# ---------------------------------------------------------------------------
# mock backend basics
# ---------------------------------------------------------------------------


def test_mock_roundtrip_and_reduction(mock):
    vals = list(range(N))
    assert mock.decrypt(mock.encrypt(vals)) == vals
    assert mock.decrypt(mock.encrypt([T + 5] * N)) == [5] * N
    with pytest.raises(ParameterError):
        mock.encrypt([1] * (N - 1))


def test_mock_fresh_encryptions_differ(mock):
    a = mock.encrypt([7] * N)
    b = mock.encrypt([7] * N)
    assert a != b  # nonce separates equal plaintexts
    assert mock.decrypt(a) == mock.decrypt(b)


def test_mock_depth_limit_raises_at_decrypt():
    mock = MockBackend(PARAMS, depth_limit=2, rng=random.Random(4))
    ct = mock.encrypt([2] * N)
    for _ in range(3):
        ct = mock.mul(ct, ct)
    with pytest.raises(DecryptionFailureError):
        mock.decrypt(ct)


def test_mock_ops_match_plain_semantics(mock):
    rng = random.Random(5)
    a, b = rand_slots(rng), rand_slots(rng)
    ca, cb = mock.encrypt(a), mock.encrypt(b)
    assert mock.decrypt(mock.add(ca, cb)) == [(x + y) % T for x, y in zip(a, b)]
    assert mock.decrypt(mock.sub(ca, cb)) == [(x - y) % T for x, y in zip(a, b)]
    assert mock.decrypt(mock.mul(ca, cb)) == [x * y % T for x, y in zip(a, b)]
    assert mock.decrypt(mock.neg(ca)) == [-x % T for x in a]
    k = rand_slots(rng)
    assert mock.decrypt(mock.mul_plain(ca, k)) == [x * y % T for x, y in zip(a, k)]
    row = N // 2
    rot = mock.decrypt(mock.rotate(ca, 5))
    assert rot[:row] == a[5:row] + a[:5]
    assert mock.decrypt(mock.row_swap(ca)) == a[row:] + a[:row]
    isum = mock.decrypt(mock.inner_sum(ca, 8))
    assert isum[0:8] == [sum(a[0:8]) % T] * 8


# ---------------------------------------------------------------------------
# real backend basics
# ---------------------------------------------------------------------------


def test_real_roundtrip(real):
    rng = random.Random(6)
    vals = rand_slots(rng)
    assert real.decrypt(real.encrypt(vals)) == vals
    assert real.decrypt(real.encrypt_zero()) == [0] * N


def test_real_fresh_encryptions_differ(real):
    a, b = real.encrypt([9] * N), real.encrypt([9] * N)
    assert not np.array_equal(a.data[0], b.data[0])
    assert real.decrypt(a) == real.decrypt(b) == [9] * N


def test_real_linear_ops(real):
    rng = random.Random(7)
    a, b = rand_slots(rng), rand_slots(rng)
    ca, cb = real.encrypt(a), real.encrypt(b)
    assert real.decrypt(real.add(ca, cb)) == [(x + y) % T for x, y in zip(a, b)]
    assert real.decrypt(real.sub(ca, cb)) == [(x - y) % T for x, y in zip(a, b)]
    assert real.decrypt(real.neg(ca)) == [-x % T for x in a]
    k = rand_slots(rng)
    assert real.decrypt(real.mul_plain(ca, k)) == [x * y % T for x, y in zip(a, k)]


@pytest.mark.parametrize("kind", ["real", "mock"])
def test_mul_plain_takes_a_plaintext_encoded_once(real, mock, kind):
    """mul_plain by encode_plain's plaintext equals mul_plain by the slots
    (bit for bit on the real backend), however often the plaintext is used;
    encode_plain refuses a vector that does not cover every slot."""
    be = real if kind == "real" else mock
    rng = random.Random(70)
    k = rand_slots(rng)
    plain = be.encode_plain(k)
    for ct in (be.encrypt(rand_slots(rng)) for _ in range(2)):
        by_slots, by_plain = be.mul_plain(ct, k), be.mul_plain(ct, plain)
        assert be.decrypt(by_plain) == be.decrypt(by_slots)
        if kind == "real":
            assert np.array_equal(by_plain.data, by_slots.data)
    with pytest.raises(ParameterError, match="every slot"):
        be.encode_plain(k[:-1])


def test_real_mul_and_relinearization_identity(real):
    rng = random.Random(8)
    a, b = rand_slots(rng), rand_slots(rng)
    ca, cb = real.encrypt(a), real.encrypt(b)
    expected = [x * y % T for x, y in zip(a, b)]
    raw = real.mul_no_relin(ca, cb)
    assert raw.degree == 3
    assert real.decrypt(raw) == expected          # degree-3 decryption
    rel = real.relinearize(raw)
    assert rel.degree == 2
    assert real.decrypt(rel) == expected          # key-switched back to (c0, c1)
    assert real.decrypt(real.mul(ca, cb)) == expected


def test_real_rotations(real):
    rng = random.Random(9)
    a = rand_slots(rng)
    ca = real.encrypt(a)
    row = N // 2
    left = real.decrypt(real.rotate(ca, 1))
    assert left == a[1:row] + a[:1] + a[row + 1 :] + a[row : row + 1]
    right = real.decrypt(real.rotate(ca, -1))
    assert right[:row] == a[row - 1 : row] + a[: row - 1]
    assert real.decrypt(real.row_swap(ca)) == a[row:] + a[:row]
    assert real.decrypt(real.rotate(ca, 0)) == a  # identity, no key needed


@pytest.mark.parametrize("step", [0, N // 2, -N // 2, N])
def test_backends_agree_on_whole_row_rotations(real, mock, step):
    """A step that is a multiple of n/2 is the identity on both backends:
    the ciphertext comes back unchanged and no rotation key is needed."""
    a = rand_slots(random.Random(10))
    ca, ma = real.encrypt(a), mock.encrypt(a)
    assert real.rotate(ca, step) is ca
    assert mock.rotate(ma, step) is ma
    assert real.decrypt(real.rotate(ca, step)) == mock.decrypt(mock.rotate(ma, step)) == a


def test_real_missing_rotation_key(real):
    ca = real.encrypt([1] * N)
    with pytest.raises(KeyMaterialError):
        real.rotate(ca, 7)  # only ±1, 2 were generated


def test_real_inner_sum_matches_mock(real):
    rng = random.Random(10)
    mock = MockBackend(PARAMS, rng=rng)
    a = rand_slots(rng)
    for block in (1, 2):
        want = mock.decrypt(mock.inner_sum(mock.encrypt(a), block))
        got = real.decrypt(real.inner_sum(real.encrypt(a), block))
        assert got == want, f"block {block}"


def test_real_inner_sum_full_and_strided():
    rng = random.Random(11)
    a = rand_slots(rng)
    mock = MockBackend(PARAMS, rng=rng)
    row = N // 2
    cases = ((row, 1), (4, 1), (4, 2), (2, 8))
    steps = set()
    for block, stride in cases:
        steps.update(*inner_sum_steps(block, stride, row))
    backend = make_real(steps=sorted(steps), seed=5)
    for block, stride in cases:
        want = mock.decrypt(mock.inner_sum(mock.encrypt(a), block, stride=stride))
        got = backend.decrypt(backend.inner_sum(backend.encrypt(a), block, stride=stride))
        assert got == want, f"block {block} stride {stride}"


@pytest.mark.parametrize("block,stride", [(3, 1), (N, 1), (4, N // 4)])
def test_inner_sum_refuses_a_block_that_does_not_tile_a_row(real, block, stride):
    """Both backends and the rotation-step planner refuse it with one error."""
    mock = MockBackend(PARAMS, rng=random.Random(14))
    msg = f"^inner_sum block {block} \\(stride {stride}\\) must tile a row of {N // 2}$"
    with pytest.raises(LayoutError, match=msg):
        mock.inner_sum(mock.encrypt([0] * N), block, stride)
    with pytest.raises(LayoutError, match=msg):
        real.inner_sum(real.encrypt([0] * N), block, stride)
    with pytest.raises(LayoutError, match=msg):
        inner_sum_steps(block, stride, N // 2)


def test_real_noise_budget_decreases(real):
    rng = random.Random(12)
    ca = real.encrypt(rand_slots(rng))
    fresh = real.noise_budget(ca)
    prod = real.mul(ca, ca)
    assert real.noise_budget(prod) < fresh
    assert fresh > 20


def test_real_noise_overflow_detected():
    params = make_params(n=64, t_bits=16, chain_len=1, name="tiny")
    backend = make_real(params, steps=(), seed=13)
    ct = backend.encrypt([3] * 64)
    with pytest.raises(DecryptionFailureError):
        # one multiplication blows a single 29-bit prime's budget
        backend.decrypt(backend.mul(ct, ct))


def test_real_decrypt_guard_band_is_exact(real):
    """c = (Δ·m + e, 0) decrypts while |e| ≤ Δ/4 − 1 and raises at Δ/4."""
    vals = rand_slots(random.Random(15))
    coeffs = batch_encode(vals, PARAMS.t_modulus)
    delta = PARAMS.delta

    def with_noise(e):
        c0 = [[(delta * m + e) % q for m in coeffs] for q in PARAMS.q_chain]
        c0 = stack_ntt(np.array(c0, dtype=np.int64), real.mods)
        return bfv.Ciphertext(np.stack([c0, np.zeros_like(c0)]))

    for sign in (1, -1):
        assert real.decrypt(with_noise(sign * (delta // 4 - 1))) == vals
        with pytest.raises(DecryptionFailureError):
            real.decrypt(with_noise(sign * (delta // 4)))


def test_real_decrypt_refuses_out_of_range_components(real):
    """decrypt and noise_budget check every component against the chain
    before any arithmetic: a residue of q_i or 2^62, a stack of no rows, of
    k + 1 rows or of the wrong n, or an empty stack raises
    SerializationError instead of wrapping int64.  A chain prefix of
    1 ≤ k″ < k rows is a shape decryption takes (see the shrink tests)."""
    ct = real.encrypt(list(range(N)))
    c0, c1 = ct.data

    def with_c1(mat):
        return bfv.Ciphertext(np.stack([c0, mat]))

    at_q = c1.copy()
    at_q[1, 5] = PARAMS.q_chain[1]
    huge = c1.copy()
    huge[0, 0] = 2**62
    empty = bfv.Ciphertext(np.empty((0,) + c0.shape, dtype=np.int64))
    bad = [
        with_c1(at_q), with_c1(huge), empty,
        bfv.Ciphertext(ct.data[:, :0]),
        bfv.Ciphertext(np.concatenate([ct.data, ct.data[:, :1]], axis=1)),
        bfv.Ciphertext(ct.data[..., : N // 2]),
    ]
    for ct_bad in bad:
        with pytest.raises(SerializationError):
            real.decrypt(ct_bad)
        with pytest.raises(SerializationError):
            real.noise_budget(ct_bad)
    assert real.decrypt(with_c1(c1)) == list(range(N))


def test_real_decrypt_requires_secret(real):
    """A backend with public keys only neither decrypts nor encrypts."""
    pub = bfv.BfvBackend(PARAMS, real.keys.public(), rng=np.random.default_rng(14))
    ct = real.encrypt([5] * N)
    with pytest.raises(KeyMaterialError):
        pub.decrypt(ct)
    with pytest.raises(KeyMaterialError):
        pub.encrypt([5] * N)
    # but evaluation works with public material only
    assert real.decrypt(pub.mul(ct, ct)) == [25] * N


def test_encrypt_zero_is_the_noiseless_zero(real):
    """Every backend's encrypt_zero is the all-zero (c₀, c₁), drawn from no
    generator; it decrypts to zeros, also after a product on a public-only
    backend."""
    pub = bfv.BfvBackend(PARAMS, real.keys.public(), rng=np.random.default_rng(16))
    state = pub._gen.bit_generator.state
    for be in (real, pub):
        zero = be.encrypt_zero()
        assert zero.data.shape == (2, len(PARAMS.q_chain), N) and not zero.data.any()
        assert real.decrypt(zero) == [0] * N
    assert pub._gen.bit_generator.state == state
    assert real.decrypt(pub.mul(zero, zero)) == [0] * N


def test_secret_key_encryption_expands_a_from_a_seed(real):
    """A backend holding the secret key encrypts as (−a·s + e + Δ·m, a),
    with a expanded from 32 bytes of its generator."""
    vals = rand_slots(random.Random(21))
    client = bfv.BfvBackend(PARAMS, real.keys, rng=np.random.default_rng(21))
    ct = client.encrypt(vals)
    seed = np.random.default_rng(21).bytes(bfv.SEED_BYTES)
    assert np.array_equal(ct.data[1], bfv.expand_uniform(seed, PARAMS.q_chain, 1, N)[0])
    assert real.decrypt(ct) == vals


def test_error_sampler_is_a_centred_binomial():
    """Differences of set-bit counts of k = CBD_K uniform bits: values in
    [−k, k], mean 0 and variance k/2 ≈ 3.2²."""
    k = bfv.CBD_K
    assert k == round(2 * 3.2 * 3.2)
    e = bfv._cbd_error(np.random.default_rng(30), 1 << 16)
    assert e.dtype == np.int64 and -k <= e.min() and e.max() <= k
    # five standard errors of the sample mean and variance
    assert abs(e.mean()) < 5 * math.sqrt(k / 2 / len(e))
    assert abs(e.var() / (k / 2) - 1) < 5 * math.sqrt(2 / len(e))


@pytest.mark.parametrize("name", ["mock64", "n4096_fast"])
def test_client_and_cloud_ciphertexts_mix(name):
    """The client's ciphertexts add, multiply and rotate together alike on
    the client's backend and on a cloud backend with public keys only."""
    params = preset(name)
    client = make_real(params, steps=(1,), seed=24)
    cloud = bfv.BfvBackend(params, client.keys.public(), rng=np.random.default_rng(26))
    rng = random.Random(27)
    a = [rng.randrange(params.t) for _ in range(params.n)]
    b = [rng.randrange(params.t) for _ in range(params.n)]
    ca, cb = client.encrypt(a), client.encrypt(b)
    row = params.n // 2
    for be in (client, cloud):
        assert client.decrypt(be.add(ca, cb)) == [(x + y) % params.t for x, y in zip(a, b)]
        prod = [x * y % params.t for x, y in zip(a, b)]
        assert client.decrypt(be.mul(ca, cb)) == prod
        assert client.decrypt(be.mul(cb, ca)) == prod
        rot = client.decrypt(be.add(be.rotate(ca, 1), cb))
        assert rot[:row] == [(x + y) % params.t for x, y in zip(a[1:row] + a[:1], b)]


def test_keygen_expands_every_a_half_from_a_seed():
    """rlk and every Galois key take their a halves from the expander,
    seeded with 32 bytes of the generator drawn after the secret and the
    previous key's errors; none carries the generator's raw output."""
    keys = bfv.keygen(PARAMS, rotation_steps=(1, 2), row_swap=True, rng=np.random.default_rng(28))
    gen = np.random.default_rng(28)
    bfv._ternary(gen, N)  # the secret
    k = len(PARAMS.q_chain)
    stacks = [keys.rlk] + [keys.gks[g] for g in sorted(keys.gks)]
    assert len(stacks) == 4
    for ks in stacks:
        assert ks.shape[1] == k
        seed = gen.bytes(bfv.SEED_BYTES)
        assert np.array_equal(ks[1], bfv.expand_uniform(seed, PARAMS.q_chain, k, N))
        for _ in range(k):
            bfv._cbd_error(gen, N)


def test_presets_state_their_security_level():
    """log2 Q against the HE-standard 128-bit bound for a ternary secret."""
    assert preset("n4096").describe().endswith("below 128-bit (test only)")
    assert preset("mock64").describe().endswith("below 128-bit (test only)")
    prod = preset("n32768_prod").describe()
    assert prod.endswith("128-bit") and "below" not in prod



@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's thresholds only")
def test_freed_ciphertext_memory_is_reused(real):
    """Once a backend exists, ciphertext-sized arrays freed by one round of
    work come back from the heap for the next: no fresh page faults in."""
    def round_trip():
        arrays = [np.ones((2, 7, 4096), dtype=np.int64) for _ in range(32)]  # n4096 size
        del arrays

    round_trip()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    round_trip()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

def test_real_linear_ops_match_per_prime_reference(real):
    """The broadcast (k, 1)-modulus arithmetic equals a per-prime loop."""
    rng = random.Random(10)
    ca, cb = real.encrypt(rand_slots(rng)), real.encrypt(rand_slots(rng))
    k = rand_slots(rng)
    a, b = ca.data[0], cb.data[0]
    kres = real._encode_residues(k)
    rows = list(enumerate(PARAMS.q_chain))
    assert np.array_equal(real.add(ca, cb).data[0], np.stack([(a[i] + b[i]) % q for i, q in rows]))
    assert np.array_equal(real.sub(ca, cb).data[0], np.stack([(a[i] - b[i]) % q for i, q in rows]))
    assert np.array_equal(real.neg(ca).data[0], np.stack([-a[i] % q for i, q in rows]))
    assert np.array_equal(
        real.mul_plain(ca, k).data[0], np.stack([a[i] * kres[i] % q for i, q in rows])
    )


def test_key_switching_keys_carry_one_pair_per_chain_prime(real):
    k = len(PARAMS.q_chain)
    assert real.keys.rlk.shape == (2, k, k, N)
    assert real.keys.gks and all(ks.shape == (2, k, k, N) for ks in real.keys.gks.values())


CHAINS = {
    "mock64": lambda: PARAMS,
    "one prime": lambda: make_params(n=64, t_bits=16, chain_len=1, name="tiny"),
}


def reference_key_switch(be, target, ks):
    """The textbook RNS-digit key switch Σ_i NTT(d_i)·ks[:, i]: digit d_i is
    the target's coefficient row i centred, reduced into every chain prime,
    and all k² digit rows are transformed; sums taken over the integers."""
    q = be._q
    coeff = stack_intt(target, be.mods)
    centred = np.where(coeff > q // 2, coeff - q, coeff)
    digits = stack_ntt(centred[:, None, :] % q, be.mods).astype(object)
    out = sum(d * ks[:, i].astype(object) for i, d in enumerate(digits))
    return (out % q).astype(np.int64)


def reference_galois(be, ct, g):
    """X → X^g then a key switch of c₁: output k of each component reads
    the evaluation at ψ^((2k+1)·g)."""
    n = be.params.n
    perm = ((2 * np.arange(n) + 1) * g % (2 * n) - 1) // 2
    c0, c1 = ct.data[..., perm]
    out = reference_key_switch(be, c1, be.keys.gks[g])
    out[0] = (out[0] + c0) % be._q
    return out


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_square_is_the_two_operand_product(chain):
    """mul(a, a) lifts its operand once and equals mul with a copy of a
    bit for bit."""
    be = make_real(CHAINS[chain](), steps=(), seed=50)
    a = be.encrypt(rand_slots(random.Random(51)))
    twin = bfv.Ciphertext(a.data.copy())
    assert np.array_equal(be.mul_no_relin(a, a).data, be.mul_no_relin(a, twin).data)
    assert np.array_equal(be.mul(a, a).data, be.mul(a, twin).data)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_key_switches_match_the_textbook_digit_switch(chain):
    """relinearize, rotate and row_swap transform only the off-diagonal
    digits and put the target's own rows on the diagonal; the result is the
    key switch that transforms all k² digit rows."""
    params = CHAINS[chain]()
    be = make_real(params, steps=(1, -3), seed=52, row_swap=True)
    rng = random.Random(53)
    a, b = (be.encrypt(rand_slots(rng)) for _ in range(2))
    raw = be.mul_no_relin(a, b)
    want = (raw.data[:2] + reference_key_switch(be, raw.data[2], be.keys.rlk)) % be._q
    assert np.array_equal(be.relinearize(raw).data, want)
    for step in (1, -3):
        g = bfv.galois_element(step, params.n)
        assert np.array_equal(be.rotate(a, step).data, reference_galois(be, a, g))
    g = bfv.galois_row_swap(params.n)
    assert np.array_equal(be.row_swap(b).data, reference_galois(be, b, g))


def test_rotation_noise_margin_n4096():
    """One key switch on a fresh n4096 ciphertext must leave ≥ 140 bits."""
    params = preset("n4096")
    be = make_real(params, steps=(1,), seed=11)
    ct = be.rotate(be.encrypt(list(range(params.n))), 1)
    assert be.noise_budget(ct) >= 140


# ---------------------------------------------------------------------------
# modulus switching to a chain prefix
# ---------------------------------------------------------------------------


def _crt_lift(residues, primes):
    """(..., k, n) residues → (..., n) object array of integers in [0, Π)."""
    q = math.prod(primes)
    out = 0
    for i, p in enumerate(primes):
        m = q // p
        out = out + residues[..., i, :].astype(object) * (m * pow(m, -1, p))
    return out % q


@pytest.mark.parametrize("name", ["mock64", "mock64_wide"])
def test_shrink_is_exact_big_integer_rounding(name):
    """Every coefficient of shrink(c) is ⌊(Q′/Q)·c⌉ mod Q′, computed over the
    integers, for fresh, product and uniform-residue ciphertexts."""
    params = preset(name)
    be = make_real(params, steps=(1,), seed=30)
    k = params.shrink_primes
    q, q_kept = params.big_q, math.prod(params.q_chain[:k])
    rng = random.Random(31)
    fresh = be.encrypt([rng.randrange(params.t) for _ in range(params.n)])
    uniform = bfv.Ciphertext(np.array(
        [[[rng.randrange(p) for _ in range(params.n)] for p in params.q_chain] for _ in range(2)],
        dtype=np.int64,
    ))
    for ct in (fresh, be.rotate(be.mul(fresh, fresh), 1), uniform):
        got = be.shrink(ct).data
        assert got.shape == (2, k, params.n)
        c = _crt_lift(stack_intt(ct.data, be.mods), params.q_chain)
        want = (2 * c * q_kept + q) // (2 * q) % q_kept
        assert (_crt_lift(stack_intt(got, be.mods[:k]), params.q_chain[:k]) == want).all()


def test_shrink_prefix_rule():
    """k′ is the shortest prefix whose switching noise (n+1)/2 + t stays
    SHRINK_MARGIN_BITS below Δ′/4: 2 primes at n4096, n8192 and n32768
    with a 16–17-bit t, more for a 40-bit t; one prime fewer breaks it."""
    for name in ("n4096", "n8192", "n32768_prod"):
        assert preset(name).shrink_primes == 2
    for name in ("n4096", "n32768_prod", "mock64_wide"):
        params = preset(name)
        k = params.shrink_primes
        bound = (params.n + 2) // 2 + params.t

        def headroom(j):
            return math.log2(math.prod(params.q_chain[:j]) // params.t // 4) - math.log2(bound)

        assert headroom(k) > SHRINK_MARGIN_BITS >= headroom(k - 1)
    assert preset("mock64_wide").shrink_primes == 4


@pytest.mark.parametrize("name", ["n4096", "n8192"])
def test_shrunk_ciphertexts_decrypt_to_the_same_slots(name):
    """A fresh ciphertext and a PP-like one (a product, its
    relinearization, rotations and a row swap) decrypt to the same slots
    after the switch, and keep at least the rule's margin of budget."""
    params = preset(name)
    be = make_real(params, steps=(1, 2, 4), seed=32, row_swap=True)
    rng = random.Random(33)
    fresh = be.encrypt([rng.randrange(params.t) for _ in range(params.n)])
    pp_like = be.mul(fresh, be.encrypt([rng.randrange(params.t) for _ in range(params.n)]))
    for step in (1, 2, 4):
        pp_like = be.add(pp_like, be.rotate(pp_like, step))
    pp_like = be.add(pp_like, be.row_swap(pp_like))
    for ct in (fresh, pp_like):
        shrunk = be.shrink(ct)
        assert shrunk.data.shape == (2, params.shrink_primes, params.n)
        assert be.decrypt(shrunk) == be.decrypt(ct)
        assert be.noise_budget(shrunk) >= SHRINK_MARGIN_BITS


def test_linear_ops_on_a_shared_prefix(real):
    """Two ciphertexts shrunk to the same prefix add and subtract there; a
    shrunk and a full-chain operand raise ParameterError, not a numpy
    broadcast error."""
    a, b = list(range(N)), [7] * N
    ca, cb = real.encrypt(a), real.encrypt(b)
    sa, sb = real.shrink(ca), real.shrink(cb)
    assert real.decrypt(real.add(sa, sb)) == [(x + y) % T for x, y in zip(a, b)]
    assert real.decrypt(real.sub(sa, sb)) == [(x - y) % T for x, y in zip(a, b)]
    with pytest.raises(ParameterError):
        real.add(sa, cb)


def test_mock_shrink_is_terminal(mock):
    """A shrunk mock ciphertext keeps its slots, depth and nonce, decrypts
    as before, stays terminal through a save and load and through sums, and
    check_operand refuses it, as the real backend refuses a chain prefix."""
    ct = mock.encrypt(list(range(N)))
    shrunk = mock.shrink(ct)
    assert (shrunk.depth, shrunk.nonce, shrunk.terminal, ct.terminal) == (ct.depth, ct.nonce, True, False)
    assert mock.decrypt(shrunk) == mock.decrypt(ct) == list(range(N))
    loaded, _ = serialize.load_ciphertext(serialize.save_ciphertext(shrunk))
    assert loaded == shrunk and serialize.load_any(serialize.save_ciphertext(shrunk)) == shrunk
    assert mock.add(shrunk, shrunk).terminal and mock.sub(ct, shrunk).terminal
    mock.check_operand(ct)
    for c in (shrunk, loaded):
        with pytest.raises(SerializationError, match="terminal"):
            mock.check_operand(c)


def test_evaluation_refuses_operands_off_the_full_chain(real):
    """pe_eval, rep_eval and a ReQ blinded reply take only full-chain stacks
    of reduced residues: a shrunk ciphertext, a (2, 1, n) stack (which would
    broadcast against the modulus column) or a residue ≥ q_i raises a
    VheError before any arithmetic."""
    sec = pe.pe_keygen(PARAMS, rng=random.Random(34), make_he_keys=False)
    auth = pe.pe_auth(sec, real, list(range(N)), "x")
    b = ProgramBuilder(width=N, name="sq")
    x = b.input("x")
    prog = b.build(b.mul(x, x), output_block=(0, 1))
    c0, c1 = auth.cts
    past_q = c1.data.copy()
    past_q[0, 1, 2] = PARAMS.q_chain[1]
    bad = [real.shrink(c1), bfv.Ciphertext(c1.data[:, :1]), bfv.Ciphertext(past_q)]
    for ct in bad:
        with pytest.raises(VheError):
            pe.pe_eval(prog, [pe.PeAuth((c0, ct), auth.base)], real)

    rsec = rep.rep_keygen(PARAMS, lam=8, rng=random.Random(35), make_he_keys=False)
    rauth = rep.rep_auth(rsec, real, [1, 2, 3], "x")
    rb = ProgramBuilder(width=N // 8, name="id")
    rprog = rb.build(rb.add(rb.input("x"), rb.input("x")), output_block=(0, 1))
    for ct in bad:
        with pytest.raises(VheError):
            rep.rep_eval(rprog, [dataclasses.replace(rauth, cts=(ct,))], real, lam=8)

    for ct in bad:
        cloud_ep, client_ep = protocols.memory_channel()
        client_ep.send(protocols.TAG_REQ_BLINDED, protocols.pack_cts([c0, ct]))
        reducer = protocols.ReqCloudSession(real, cloud_ep)
        with pytest.raises(VheError):
            reducer.reduce((c0, c0, c0, c0), 0)


def test_evaluation_operands_have_exactly_two_components(real, monkeypatch):
    """An evaluator operand is exactly what `encrypt` makes: a one-component
    upload, a three-component upload and a three-component ReQ reply are
    each refused before any arithmetic, and two ciphertexts of different
    shapes never combine."""
    arithmetic: list = []
    for op in ("_combine", "mul_no_relin", "mul_plain", "neg", "relinearize"):
        monkeypatch.setattr(real, op, lambda *a, op=op: arithmetic.append(op))
    sec = pe.pe_keygen(PARAMS, rng=random.Random(36), make_he_keys=False)
    auth = pe.pe_auth(sec, real, list(range(N)), "x")
    b = ProgramBuilder(width=N, name="double")
    x = b.input("x")
    prog = b.build(b.add(x, x), output_block=(0, 1))
    c0, c1 = auth.cts
    one = bfv.Ciphertext(c1.data[:1])
    three = bfv.Ciphertext(np.concatenate([c1.data, c1.data[:1]]))
    for ct in (one, three):
        with pytest.raises(SerializationError, match=r"\(2, "):
            pe.pe_eval(prog, [pe.PeAuth((c0, ct), auth.base)], real)
    cloud_ep, client_ep = protocols.memory_channel()
    client_ep.send(protocols.TAG_REQ_BLINDED, protocols.pack_cts([c0, three]))
    with pytest.raises(SerializationError, match=r"\(2, "):
        protocols.ReqCloudSession(real, cloud_ep).reduce((c0, c0, c0, c0), 0)
    assert arithmetic == []
    monkeypatch.undo()
    for left, right in ((c0, three), (c0, real.shrink(c1))):
        with pytest.raises(ParameterError, match="degree or chain prefix"):
            real.add(left, right)


def test_key_switching_accumulator_reduction_on_wide_chain():
    """40 primes just below 2^30: the int64 digit-product sums must be
    reduced mid-loop (at most 7 products fit), or rotation and
    relinearization would wrap and decrypt to garbage.  log2 Q is about
    1,200 here, so the noise budget must come from logarithms of the
    integers (their float quotient overflows)."""
    n = 64
    t = find_plaintext_prime(16, n).value
    params = Params(n=n, t=t, q_chain=tuple(find_ntt_primes(30, n, 40, exclude=(t,))))
    be = make_real(params, steps=(1,), seed=12)
    assert be._ks_chunk < len(params.q_chain)
    x = [random.Random(13).randrange(t) for _ in range(n)]
    ct = be.encrypt(x)
    row = n // 2
    assert be.decrypt(be.rotate(ct, 1)) == x[1:row] + x[:1] + x[row + 1 :] + x[row : row + 1]
    assert be.decrypt(be.mul(ct, ct)) == [v * v % t for v in x]
    budget = be.noise_budget(ct)
    assert math.isfinite(budget) and budget > 0


def test_big_plaintext_modulus_paths():
    """40-bit t exercises the large-modulus encode path end to end."""
    params = preset("mock64_wide")
    backend = make_real(params, steps=(1,), seed=15)
    rng = random.Random(16)
    vals = [rng.randrange(params.t) for _ in range(params.n)]
    ct = backend.encrypt(vals)
    assert backend.decrypt(ct) == vals
    other = [rng.randrange(params.t) for _ in range(params.n)]
    prod = backend.mul(ct, backend.encrypt(other))
    assert backend.decrypt(prod) == [x * y % params.t for x, y in zip(vals, other)]


# ---------------------------------------------------------------------------
# multiplication against the exact big-integer reference
# ---------------------------------------------------------------------------


def _lift_centered(mat, primes):
    """(k, n) residues → object array of balanced Python integers in
    (-Q/2, Q/2], by the CRT idempotents e_i ≡ 1 (mod q_i), ≡ 0 (mod q_j≠i)."""
    q = math.prod(primes)
    acc = sum(
        mat[i].astype(object) * (q // p * pow(q // p, -1, p) % q) for i, p in enumerate(primes)
    )
    acc %= q
    return np.where(acc > q // 2, acc - q, acc)


def reference_mul_no_relin(be, a, b):
    """The former object-array multiplication: the inputs' centred lifts as
    Python integers, the tensor in a chain-plus-auxiliary basis with
    Q·P > 4·n·Q², each coefficient lifted and rounded as ⌊(t·x + ⌊Q/2⌋)/Q⌋."""
    p = be.params
    q_int, t, k = p.big_q, p.t, len(p.q_chain)
    aux, prod = [], q_int
    for q in find_ntt_primes(CHAIN_PRIME_BITS, p.n, 64, exclude=p.q_chain):
        if prod > 4 * p.n * q_int * q_int:
            break
        aux.append(q)
        prod *= q
    primes = p.q_chain + tuple(aux)
    mods = [get_modulus(q, p.n) for q in primes]
    col = np.array(primes, dtype=np.int64)[:, None]
    full = np.empty((4, len(primes), p.n), dtype=np.int64)
    for x, coeff in zip(full, stack_intt(np.concatenate([a.data, b.data]), mods[:k])):
        lifted = _lift_centered(coeff, p.q_chain)
        for i, q in enumerate(primes):
            x[i] = lifted % q
    a0, a1, b0, b1 = stack_ntt(full, mods)
    prods = [a0 * b0 % col, (a0 * b1 % col + a1 * b0 % col) % col, a1 * b1 % col]
    out = np.empty((3, k, p.n), dtype=np.int64)
    for x, coeff in zip(out, stack_intt(np.stack(prods), mods)):
        scaled = (_lift_centered(coeff, primes) * t + q_int // 2) // q_int
        for i, q in enumerate(p.q_chain):
            x[i] = scaled % q
    return stack_ntt(out, mods[:k])


def _chain40(prime_bits, t_bits):
    n = 64
    t = find_plaintext_prime(t_bits, n).value
    return Params(n=n, t=t, q_chain=tuple(find_ntt_primes(prime_bits, n, 40, exclude=(t,))))


MUL_BASES = {
    "n4096": lambda: preset("n4096"),
    "n4096_fast": lambda: preset("n4096_fast"),
    "mock64": lambda: preset("mock64"),
    "mock64_wide": lambda: preset("mock64_wide"),
    "40x29-bit, 16-bit t": lambda: _chain40(29, 16),
    "40x30-bit, 16-bit t": lambda: _chain40(30, 16),
    "40x30-bit, 40-bit t": lambda: _chain40(30, 40),
}


def _mul_operands(be, rng):
    """Ciphertexts whose coefficients sit at the lift's edges: ⌊Q/2⌋ (the
    centring boundary, largest positive), ⌊Q/2⌋ + 1 (most negative), mixes
    of 0, ±1 and both edges, uniform residues; plus all-(q_i − 1) and
    all-⌊q_i/2⌋ evaluation-domain residues and a depth-1 product."""
    p = be.params
    q, n = p.big_q, p.n
    mods = [get_modulus(x, n) for x in p.q_chain]
    col = np.array(p.q_chain, dtype=np.int64)[:, None]

    def from_coeffs(draw):
        rows = [[draw() for _ in range(n)] for _ in range(2)]
        res = np.array([[[c % x for c in row] for x in p.q_chain] for row in rows], dtype=np.int64)
        return bfv.Ciphertext(stack_ntt(res, mods))

    edges = (0, 1, q - 1, q // 2, q // 2 + 1)
    ops = {
        "half": from_coeffs(lambda: q // 2),
        "half+1": from_coeffs(lambda: q // 2 + 1),
        "edges": from_coeffs(lambda: rng.choice(edges)),
        "uniform": from_coeffs(lambda: rng.randrange(q)),
        "eval q-1": bfv.Ciphertext(np.broadcast_to(col - 1, (2, len(col), n)).copy()),
        "eval half": bfv.Ciphertext(np.broadcast_to(col // 2, (2, len(col), n)).copy()),
    }
    fresh = be.encrypt([rng.randrange(p.t) for _ in range(n)])
    ops["depth 1"] = be.mul(fresh, fresh)
    return ops


@pytest.mark.parametrize("basis", sorted(MUL_BASES))
def test_mul_no_relin_matches_big_integer_reference(basis):
    """The int64 base conversion is bit-identical to exact big-integer
    lifting and rounding."""
    params = MUL_BASES[basis]()
    keys = bfv.keygen(params, row_swap=False, rng=np.random.default_rng(40))
    be = bfv.BfvBackend(params, keys, rng=np.random.default_rng(41))
    ops = _mul_operands(be, random.Random(42))
    pairs = [
        ("half", "half"), ("half+1", "half+1"), ("half", "half+1"), ("edges", "uniform"),
        ("eval q-1", "eval half"), ("eval half", "eval half"), ("depth 1", "uniform"),
    ]
    for x, y in pairs:
        got = be.mul_no_relin(ops[x], ops[y])
        assert np.array_equal(got.data, reference_mul_no_relin(be, ops[x], ops[y])), (x, y)


@pytest.mark.parametrize("basis", sorted(MUL_BASES))
def test_mul_auxiliary_basis_is_the_smallest_above_the_bound(basis):
    """|y| < P/2 for every scaled coefficient needs P > t·n·Q + 4: the set
    is the fewest NTT primes off the chain from 2^29 down."""
    params = MUL_BASES[basis]()
    k = len(params.q_chain)
    keys = bfv.keygen(params, row_swap=False, rng=np.random.default_rng(43))
    be = bfv.BfvBackend(params, keys)
    aux = be._ext.primes[k:]
    assert aux == tuple(find_ntt_primes(CHAIN_PRIME_BITS, params.n, len(aux), exclude=params.q_chain))
    bound = params.t * params.n * params.big_q + 4
    prod = math.prod(aux)
    assert prod > bound >= prod // aux[-1]


# ---------------------------------------------------------------------------
# the seed expander
# ---------------------------------------------------------------------------


def _reference_expand(seed, primes, rows, n):
    """Word by word: the first n masked words below q_i of each row's stream."""
    out = np.empty((rows, len(primes), n), dtype=np.int64)
    for r in range(rows):
        for i, q in enumerate(primes):
            label = seed + r.to_bytes(2, "little") + i.to_bytes(2, "little")
            stream = hashlib.shake_128(label).digest(64 * n)
            mask = (1 << q.bit_length()) - 1
            words = (int.from_bytes(stream[j : j + 4], "little") & mask for j in range(0, len(stream), 4))
            out[r, i] = [w for w in words if w < q][:n]
    return out


def _low_primes(n):
    """Primes just above 2^(b−1), where about half the masked words are rejected."""
    return (find_plaintext_prime(29, n).value, find_plaintext_prime(17, n).value)


def test_expander_known_answer():
    """A pinned prefix: a Python or numpy upgrade must not move the stream."""
    primes = preset("n4096").q_chain[:2]
    got = bfv.expand_uniform(bytes(range(32)), primes, 2, 4096)[:, :, :4]
    assert got.tolist() == [
        [[473593860, 106904275, 266367506, 172151304], [515300636, 407922465, 238671744, 200923168]],
        [[142304238, 321253432, 383188868, 132776864], [83147334, 502530703, 193968242, 391640570]],
    ]


def test_expander_matches_its_pinned_digests():
    """Whole rows: on the n4096 chain and on primes just above 2^(b−1)."""
    seed = bytes(range(32))
    for primes, n, digest in (
        (preset("n4096").q_chain, 4096, "ce24f7110de5daafa7fede672facd280"),
        (_low_primes(64), 64, "e9eb0de03164806139162dba74a040a2"),
    ):
        got = bfv.expand_uniform(seed, primes, 2, n)
        assert hashlib.sha256(got.astype("<i8").tobytes()).hexdigest()[:32] == digest


@pytest.mark.parametrize("n", [64, 4096])
def test_expander_is_uniform_rejection_sampling(n):
    """Values lie in [0, q_i), equal the word-by-word reference (also on
    primes just above 2^(b−1), where rejections are frequent and a row can
    outrun its first read) and depend on the seed alone."""
    rng = random.Random(29)
    for primes in (preset("n4096").q_chain, _low_primes(n)):
        col = np.array(primes, dtype=np.int64)[:, None]
        for _ in range(3):
            seed = rng.randbytes(bfv.SEED_BYTES)
            got = bfv.expand_uniform(seed, primes, 2, n)
            assert got.dtype == np.int64 and got.shape == (2, len(primes), n)
            assert (got >= 0).all() and (got < col).all()
            assert np.array_equal(got, _reference_expand(seed, primes, 2, n))
            assert np.array_equal(got, bfv.expand_uniform(seed, primes, 2, n))
            assert not np.array_equal(got[0], got[1])
            other = bfv.expand_uniform(rng.randbytes(bfv.SEED_BYTES), primes, 2, n)
            assert not np.array_equal(got, other)


def test_expander_rejects_the_masked_words_at_or_above_q():
    """On a prime just above 2^(b−1) the masked stream has words ≥ q, and
    none of them survives."""
    n = 64
    for q in _low_primes(n):
        seed = bytes(bfv.SEED_BYTES)
        stream = hashlib.shake_128(seed + bytes(4)).digest(4 * n)
        masked = np.frombuffer(stream, dtype="<u4") & ((1 << q.bit_length()) - 1)
        assert (masked >= q).any()
        got = bfv.expand_uniform(seed, (q,), 1, n)[0, 0]
        assert np.array_equal(got[: (masked < q).sum()], masked[masked < q])


# ---------------------------------------------------------------------------
# decryption against the exact big-integer reference
# ---------------------------------------------------------------------------


def reference_noise(be, ct):
    """The former big-integer decryption measure on the ciphertext's chain
    prefix Q″: the phase Σ c_i·s^i lifted to balanced Python integers,
    m = ⌊(t·phase + ⌊Q″/2⌋)/Q″⌋ mod t and the largest |phase − Δ″·m|
    centred mod Q″, with Δ″ = ⌊Q″/t⌋."""
    k = ct.data.shape[1]
    primes, t = be.params.q_chain[:k], be.params.t
    q = math.prod(primes)
    col = be._q[:k]
    s = be.keys.sk_ntt[:k]
    acc, s_pow = np.zeros_like(s), np.ones_like(s)
    for c in ct.data:
        acc = (acc + c * s_pow % col) % col
        s_pow = s_pow * s % col
    phase = _lift_centered(stack_intt(acc, be.mods[:k]), primes)
    m = (phase * t + q // 2) // q % t
    e = (phase - m * (q // t) + q // 2) % q - q // 2
    return m.tolist(), int(np.abs(e).max())


def _decrypt_operands(be, rng):
    """Fresh, trivial-zero, degree-3, rotated and uniform-residue
    ciphertexts, and (x, 0) ciphertexts whose phase x sits at 0, ±1, ⌊Q/2⌋,
    ⌊Q/2⌋ + 1 and on both sides of the rounding boundaries of m."""
    p = be.params
    q, t, n = p.big_q, p.t, p.n
    col = be._q
    fresh = be.encrypt([rng.randrange(t) for _ in range(n)])

    def phase_ct(draw):
        coeffs = [draw() for _ in range(n)]
        c0 = stack_ntt(np.array([[c % x for c in coeffs] for x in p.q_chain], dtype=np.int64), be.mods)
        return bfv.Ciphertext(np.stack([c0, np.zeros_like(c0)]))

    def boundary():
        j = rng.randrange(t + 1)
        return -(-(j * q - q // 2) // t) + rng.choice((-1, 0, 1))

    def uniform(d):
        rows = [[[rng.randrange(x) for _ in range(n)] for x in p.q_chain] for _ in range(d)]
        return bfv.Ciphertext(np.array(rows, dtype=np.int64))

    return {
        "fresh": fresh,
        "trivial zero": be.encrypt_zero(),
        "degree 3": be.mul_no_relin(fresh, fresh),
        "rotated": be.rotate(fresh, 1),
        "uniform": uniform(2),
        "uniform degree 3": uniform(3),
        "eval q-1": bfv.Ciphertext(np.broadcast_to(col - 1, (2, len(col), n)).copy()),
        "edges": phase_ct(lambda: rng.choice((0, 1, q - 1, q // 2, q // 2 + 1))),
        "rounding": phase_ct(boundary),
    }


@pytest.mark.parametrize("basis", sorted(MUL_BASES))
def test_noise_matches_big_integer_reference(basis):
    """Decryption's int64 (m, largest |noise|) and the noise budget are
    bit-equal to the big-integer lift, on the full chain and on the shrunk
    prefix."""
    params = MUL_BASES[basis]()
    keys = bfv.keygen(params, rotation_steps=(1,), row_swap=False, rng=np.random.default_rng(44))
    be = bfv.BfvBackend(params, keys, rng=np.random.default_rng(45))
    for name, full in _decrypt_operands(be, random.Random(46)).items():
        for ct in (full, be.shrink(full)):
            m, worst, _ = be._noise(ct)
            want_m, want_worst = reference_noise(be, ct)
            assert (m.tolist(), worst) == (want_m, want_worst), name
            assert isinstance(worst, int)
            q = math.prod(params.q_chain[: ct.data.shape[1]])
            budget = math.log2(q) - math.log2(2 * params.t) - math.log2(max(want_worst, 1))
            assert be.noise_budget(ct) == budget, name


@functools.lru_cache(maxsize=None)
def _decrypt_backend(basis):
    params = MUL_BASES[basis]()
    keys = bfv.keygen(params, row_swap=False, rng=np.random.default_rng(47))
    return bfv.BfvBackend(params, keys)


def _phase_ciphertext(be, coeffs, k):
    """(x, 0) on the chain prefix of k primes, for the integer coefficients x."""
    primes = be.params.q_chain[:k]
    c0 = np.array([[c % q for c in coeffs] for q in primes], dtype=np.int64)
    c0 = stack_ntt(c0, be.mods[:k])
    return bfv.Ciphertext(np.stack([c0, np.zeros_like(c0)]))


def _budget(be, k, worst):
    q, t = math.prod(be.params.q_chain[:k]), be.params.t
    return math.log2(q) - math.log2(2 * t) - math.log2(max(worst, 1))


@pytest.mark.parametrize("basis", ["n4096", "mock64", "mock64_wide", "40x30-bit, 40-bit t"])
def test_decrypt_guard_band_is_exact_on_every_prefix(basis):
    """On the full chain and on the shrunk prefix (2 primes at n4096), with
    16- and 40-bit t: c = (Δ″·m + e, 0) decrypts while |e| ≤ D − 1 and
    raises at |e| = D and D + 1, D = ⌊Δ″/4⌋, with either sign; the noise
    budget reads |e|."""
    be = _decrypt_backend(basis)
    p = be.params
    rng = random.Random(48)
    vals = [rng.randrange(p.t) for _ in range(p.n)]
    coeffs = batch_encode(vals, p.t_modulus)
    for k in sorted({p.shrink_primes, len(p.q_chain)}):
        delta = math.prod(p.q_chain[:k]) // p.t
        bound = delta // 4
        for e in (bound - 1, bound, bound + 1):
            for sign in (1, -1):
                ct = _phase_ciphertext(be, [delta * m + sign * e for m in coeffs], k)
                assert be.noise_budget(ct) == _budget(be, k, e), (k, sign * e)
                if e < bound:
                    assert be.decrypt(ct) == vals, (k, sign * e)
                else:
                    with pytest.raises(DecryptionFailureError):
                        be.decrypt(ct)


@st.composite
def _phases(draw, be):
    """A chain prefix k and n phase coefficients in [0, Q″): uniform, at the
    rounding boundaries of m, inside the guard band or a mix of these, and
    one planted among them at |e| ∈ {D − 1, D, D + 1}."""
    p = be.params
    t, n = p.t, p.n
    k = draw(st.integers(1, len(p.q_chain)))
    q = math.prod(p.q_chain[:k])
    delta = q // t
    bound = delta // 4
    inside = max(bound - 1, 0)
    kinds = {
        "uniform": st.integers(0, q - 1),
        "rounding": st.builds(
            lambda j, d: (-(-(j * q - q // 2) // t) + d) % q,
            st.integers(0, t), st.integers(-1, 1),
        ),
        "inside": st.builds(
            lambda m, e: (delta * m + e) % q, st.integers(0, t - 1), st.integers(-inside, inside),
        ),
    }
    kind = draw(st.sampled_from(["inside", "inside", "mixed", "rounding", "uniform"]))
    coeff = st.one_of(*kinds.values()) if kind == "mixed" else kinds[kind]
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    m, e = draw(st.integers(0, t - 1)), draw(st.integers(bound - 1, bound + 1))
    coeffs[draw(st.integers(0, n - 1))] = (delta * m + draw(st.sampled_from((e, -e)))) % q
    return k, coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["mock64", "mock64_wide", "40x30-bit, 40-bit t"]), st.data())
def test_decryption_matches_big_integer_reference_on_drawn_phases(basis, data):
    """decrypt's slots or refusal and the noise budget agree with the
    big-integer reference on every chain prefix; the budget wherever
    Q″ > 2t, where the noise's centring is exact (a prefix with Q″ < 4t
    never decrypts)."""
    be = _decrypt_backend(basis)
    p = be.params
    k, coeffs = data.draw(_phases(be))
    ct = _phase_ciphertext(be, coeffs, k)
    want_m, want_worst = reference_noise(be, ct)
    q = math.prod(p.q_chain[:k])
    if want_worst >= q // p.t // 4:
        with pytest.raises(DecryptionFailureError):
            be.decrypt(ct)
    else:
        assert be.decrypt(ct) == batch_decode(want_m, p.t_modulus)
    if q > 2 * p.t:
        assert be.noise_budget(ct) == _budget(be, k, want_worst)


# ---------------------------------------------------------------------------
# stacked encryption and decryption
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _stack_keys(name):
    return bfv.keygen(preset(name), rng=np.random.default_rng(90))


def _stack_backend(name, seed=91):
    return bfv.BfvBackend(preset(name), _stack_keys(name), rng=np.random.default_rng(seed))


def test_encrypt_many_is_repeated_encrypt_bit_for_bit():
    """A stack of 1, one chunk (4 at n4096), a chunk and one, or 32 rows
    encrypts to exactly the ciphertexts that encrypt makes row by row from
    the same generator state, and leaves the generator where they do."""
    p = preset("n4096")
    assert _stack_backend("n4096")._chunk(len(p.q_chain)) == 4
    rng = np.random.default_rng(92)
    for m in (1, 4, 5, 32):
        rows = rng.integers(0, p.t, size=(m, p.n))
        many, one = _stack_backend("n4096"), _stack_backend("n4096")
        stacked = many.encrypt_many(rows if m > 1 else rows.tolist())
        assert len(stacked) == m
        for ct, row in zip(stacked, rows):
            assert np.array_equal(ct.data, one.encrypt(row).data), m
        assert many._gen.bytes(8) == one._gen.bytes(8)
    assert many.encrypt_many([]) == ()
    with pytest.raises(ParameterError, match=f"expected {p.n} slots, got 3"):
        many.encrypt_many([rows[0], [1, 2, 3]])


def test_mock_encrypt_many_is_repeated_encrypt(mock):
    rows = [rand_slots(random.Random(96)) for _ in range(3)]
    again = MockBackend(PARAMS, rng=random.Random(3))
    assert list(mock.encrypt_many(rows)) == [again.encrypt(r) for r in rows]


@pytest.mark.parametrize("name", ["mock64", "mock64_wide", "n4096"])
@pytest.mark.parametrize("chunk_bytes", [None, 1])
def test_decrypt_many_is_per_ciphertext_decrypt(name, chunk_bytes, monkeypatch):
    """On the full chain, on the shrunk prefix and for degree-3 products,
    with the default chunks and one ciphertext per chunk, decrypt_many's
    rows are decrypt's slots; with a 40-bit t the decoder's carries are
    Python ints, and the slots still come back as int64."""
    if chunk_bytes is not None:
        monkeypatch.setattr(bfv, "CHUNK_BYTES", chunk_bytes)
    be = _stack_backend(name)
    p = be.params
    rows = np.random.default_rng(93).integers(0, p.t, size=(6, p.n))
    cts = be.encrypt_many(rows)
    products = [be.mul_no_relin(c, c) for c in cts[:2]]
    squares = [[v * v % p.t for v in r] for r in rows[:2].tolist()]
    for stack, want in ((cts, rows.tolist()), ([be.shrink(c) for c in cts], rows.tolist()),
                        (products, squares)):
        got = be.decrypt_many(stack)
        assert got.dtype == np.int64 and got.shape == (len(stack), p.n)
        assert got.tolist() == [be.decrypt(c) for c in stack] == want
    assert be.decrypt_many([]).shape == (0, p.n)


def test_mock_decrypt_many_honours_the_depth_limit():
    mock = MockBackend(PARAMS, depth_limit=1, rng=random.Random(94))
    a, b = mock.encrypt_many([[1] * N, [2] * N])
    assert mock.decrypt_many([a, mock.mul(a, b)]).tolist() == [[1] * N, [2] * N]
    with pytest.raises(DecryptionFailureError, match="depth 2 > limit 1"):
        mock.decrypt_many([a, mock.mul(mock.mul(a, b), b), b])


def test_decrypt_many_refuses_a_hostile_stack_before_any_arithmetic(real, monkeypatch):
    """A ciphertext with a residue ≥ q_i, one of the other backend or a
    stack mixing the full chain with the shrunk prefix is refused with
    SerializationError before anything is decoded, wherever it sits."""
    cts = list(real.encrypt_many([rand_slots(random.Random(95))] * 3))
    bad = cts[1].data.copy()
    bad[0, 0, 0] = PARAMS.q_chain[0]
    hostile = (bfv.Ciphertext(bad), MockBackend(PARAMS).encrypt([0] * N), real.shrink(cts[1]))

    def decode(*_):
        raise AssertionError("a refused stack was decoded")

    monkeypatch.setattr(real, "_decode", decode)
    for ct in hostile:
        with pytest.raises(SerializationError, match="ciphertext"):
            real.decrypt_many([cts[0], ct, cts[2]])


# ---------------------------------------------------------------------------
# the differential: real vs mock vs plain on random programs
# ---------------------------------------------------------------------------


def test_random_programs_agree_across_backends():
    rng = random.Random(17)
    programs = [random_program(rng, width=N, t=T, max_depth=2) for _ in range(8)]
    steps = set()
    needs_swap = False
    for p in programs:
        s, sw = required_rotation_steps(p, stride=1, n_slots=N)
        steps |= s
        needs_swap = needs_swap or sw
    keys = bfv.keygen(PARAMS, rotation_steps=sorted(steps), rng=np.random.default_rng(18))
    real = bfv.BfvBackend(PARAMS, keys, rng=np.random.default_rng(19))
    mock = MockBackend(PARAMS, rng=random.Random(20))
    for p in programs:
        ins = [rand_slots(rng) for _ in range(p.num_inputs)]
        want = eval_plain(p, ins, T)
        got_mock = mock.decrypt(eval_he(p, [mock.encrypt(v) for v in ins], mock))
        got_real = real.decrypt(eval_he(p, [real.encrypt(v) for v in ins], real))
        assert got_mock == want
        assert got_real == want
