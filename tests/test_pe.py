"""Polynomial-encoding authentication: the α-identity on fresh and
evaluated tuples, degree bookkeeping, offset tracking, and rejection of
tampered results."""

import random

import numpy as np
import pytest

from vhe import bfv, pe
from vhe.circuit import ProgramBuilder, eval_challenge_pe, eval_plain, random_program
from vhe.errors import DegreeLimitError, IdentifierReuseError, ParameterError
from vhe.labels import prf_zt
from vhe.mock import MockBackend
from vhe.params import preset

PARAMS = preset("mock64")
T = PARAMS.t
N = PARAMS.n


@pytest.fixture()
def mock():
    return MockBackend(PARAMS, rng=random.Random(1))


def make_secret(seed=2):
    return pe.pe_keygen(PARAMS, rng=random.Random(seed), make_he_keys=False)


def rand_slots(rng):
    return [rng.randrange(T) for _ in range(N)]


# ---------------------------------------------------------------------------
# authentication
# ---------------------------------------------------------------------------


def test_fresh_auth_identity(mock):
    """y_0 + α·y_1 = F_K(base, slot) in every slot; y_1 = (r − m)·α^{-1}."""
    sec = make_secret()
    rng = random.Random(3)
    vals = rand_slots(rng)
    auth = pe.pe_auth(sec, mock, vals, "data")
    assert auth.degree == 1
    y0 = mock.decrypt(auth.cts[0])
    y1 = mock.decrypt(auth.cts[1])
    a_inv = pow(sec.alpha, -1, T)  # independent inverse
    for j in range(N):
        r = prf_zt(sec.key, auth.base.with_slot(j), T)
        assert y0[j] == vals[j] % T
        assert y1[j] == (r - vals[j]) * a_inv % T
        assert (y0[j] + sec.alpha * y1[j]) % T == r


def test_auth_validation(mock):
    sec = make_secret()
    with pytest.raises(ParameterError):
        pe.pe_auth(sec, mock, [1] * (N - 1), "short")
    pe.pe_auth(sec, mock, [0] * N, "used")
    with pytest.raises(IdentifierReuseError):
        pe.pe_auth(sec, mock, [1] * N, "used")


def test_alpha_is_unit_and_key_dependent():
    secs = [make_secret(seed=s) for s in range(5)]
    assert all(1 <= s.alpha < T for s in secs)
    assert len({s.alpha for s in secs}) > 1
    for s in secs:
        assert s.alpha * s.alpha_inv % T == 1


# ---------------------------------------------------------------------------
# degree bookkeeping
# ---------------------------------------------------------------------------


def square_chain(times, width=N):
    b = ProgramBuilder(width=width, name=f"sq{times}")
    cur = b.input("w")
    for _ in range(times):
        cur = b.mul(cur, cur)
    return b.build(cur, output_block=(0, 2))


def test_degree_schedule():
    assert pe.degree_schedule(square_chain(0), use_reducer=False) == (1, [])
    assert pe.degree_schedule(square_chain(1), use_reducer=False) == (2, [])
    assert pe.degree_schedule(square_chain(2), use_reducer=False) == (4, [])
    assert pe.degree_schedule(square_chain(3), use_reducer=False) == (8, [])
    with pytest.raises(DegreeLimitError):
        pe.degree_schedule(square_chain(4), use_reducer=False)
    # with a reducer every over-cap product collapses to 2
    final, sched = pe.degree_schedule(square_chain(4), use_reducer=True)
    assert final == 2
    assert len(sched) == 3  # gates reaching degree 4 before reduction


def test_eval_degree_limit(mock):
    sec = make_secret()
    vals = rand_slots(random.Random(4))
    auth = pe.pe_auth(sec, mock, vals, "w")
    res = pe.pe_eval(square_chain(3), [auth], mock)
    assert res.degree == 8
    with pytest.raises(DegreeLimitError):
        pe.pe_eval(square_chain(4), [auth], mock)


def test_eval_schedules_from_the_input_degrees():
    """Degrees start from the inputs' tuples: a product past MAX_DEGREE is
    refused before any backend product, and a reducer fires on the product
    of two degree-2 tuples."""
    backend = CountingMock(PARAMS, rng=random.Random(5))
    rng = random.Random(6)
    quartic = pe.PeAuth(tuple(backend.encrypt(rand_slots(rng)) for _ in range(5)))
    with pytest.raises(DegreeLimitError):
        pe.pe_eval(square_chain(2), [quartic], backend)
    assert backend.muls == 0

    class Recorder:
        def __init__(self):
            self.fired = []

        def reduce(self, comps, idx):
            self.fired.append(len(comps) - 1)
            return comps[: pe.REQ_CAP + 1]

    reducer = Recorder()
    res = pe.pe_eval(square_chain(1), [pe.PeAuth(quartic.cts[:3])], backend, reducer=reducer)
    assert reducer.fired == [4] and res.degree == pe.REQ_CAP


# ---------------------------------------------------------------------------
# honest evaluation and verification
# ---------------------------------------------------------------------------


def test_honest_random_programs(mock):
    rng = random.Random(5)
    for trial in range(15):
        sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
        prog = random_program(rng, width=N, t=T, max_depth=2)
        ins = [rand_slots(rng) for _ in range(prog.num_inputs)]
        auths = [
            pe.pe_auth(sec, mock, v, prog.inputs[k]) for k, v in enumerate(ins)
        ]
        res = pe.pe_eval(prog, auths, mock)
        plain = eval_plain(prog, ins, T)
        start, count = prog.output_block
        assert pe.pe_verify(
            sec, mock, prog, res, claimed=plain[start : start + count]
        ), f"trial {trial} rejected an honest run"
        assert mock.decrypt(res.cts[0]) == plain


def test_zero_padding_mixed_degrees(mock):
    """add(deg-2, deg-1) carries the longer tuple's top component over
    and verifies."""
    sec = make_secret(seed=6)
    b = ProgramBuilder(width=N, name="mixed")
    x = b.input("x")
    y = b.input("y")
    prog = b.build(b.add(b.mul(x, x), y), output_block=(0, 3))
    rng = random.Random(7)
    xs, ys = rand_slots(rng), rand_slots(rng)
    xa = pe.pe_auth(sec, mock, xs, "x")
    ya = pe.pe_auth(sec, mock, ys, "y")
    res = pe.pe_eval(prog, [xa, ya], mock)
    assert res.degree == 2
    plain = eval_plain(prog, [xs, ys], T)
    assert pe.pe_verify(sec, mock, prog, res, claimed=plain[:3])


@pytest.mark.parametrize("kind", ["mock", "bfv"])
def test_unequal_degrees_combine_without_encrypting(kind, monkeypatch):
    """Sums and differences of a degree-2 and a degree-1 tuple, in either
    order, call no `encrypt` on either backend and verify."""
    b = ProgramBuilder(width=N, name="mixed")
    x, y = b.input("x"), b.input("y")
    sq = b.mul(x, x)
    outs = [b.add(y, sq), b.sub(sq, y), b.sub(y, sq)]
    progs = [b.build(o, output_block=(0, 3)) for o in outs]
    rng = random.Random(12)
    if kind == "mock":
        sec, backend = make_secret(seed=12), MockBackend(PARAMS, rng=random.Random(13))
    else:
        sec = pe.pe_keygen(PARAMS, rng=rng)
        backend = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(13))
    xs, ys = rand_slots(rng), rand_slots(rng)
    auths = [pe.pe_auth(sec, backend, xs, "x"), pe.pe_auth(sec, backend, ys, "y")]

    def refuse(*_):
        raise AssertionError("the evaluator encrypted")

    monkeypatch.setattr(type(backend), "encrypt", refuse)
    monkeypatch.setattr(type(backend), "encrypt_zero", refuse)
    for prog in progs:
        res = pe.pe_eval(prog, auths, backend)
        assert res.degree == 2
        assert pe.pe_verify(sec, backend, prog, res, claimed=eval_plain(prog, [xs, ys], T)[:3])


def test_degree8_verifies(mock):
    sec = make_secret(seed=8)
    vals = rand_slots(random.Random(9))
    auth = pe.pe_auth(sec, mock, vals, "w")
    prog = square_chain(3)
    res = pe.pe_eval(prog, [auth], mock)
    plain = eval_plain(prog, [vals], T)
    assert pe.pe_verify(sec, mock, prog, res, claimed=plain[:2])


# ---------------------------------------------------------------------------
# rejection
# ---------------------------------------------------------------------------


def _setup(mock, seed=10):
    sec = make_secret(seed=seed)
    rng = random.Random(seed + 1)
    b = ProgramBuilder(width=N, name="p")
    x = b.input("x")
    y = b.input("y")
    prog = b.build(b.inner_sum(b.add(b.mul(x, y), x), 4), output_block=(0, 4))
    xs, ys = rand_slots(rng), rand_slots(rng)
    xa = pe.pe_auth(sec, mock, xs, "x")
    ya = pe.pe_auth(sec, mock, ys, "y")
    res = pe.pe_eval(prog, [xa, ya], mock)
    plain = eval_plain(prog, [xs, ys], T)
    return sec, prog, res, plain


def test_rejects_tampered_data_component(mock):
    sec, prog, res, plain = _setup(mock)
    slots = list(mock.decrypt(res.cts[0]))
    slots[0] = (slots[0] + 1) % T
    bad = pe.PeAuth((mock.encrypt(slots),) + res.cts[1:])
    why = []
    assert not pe.pe_verify(sec, mock, prog, bad, reason=why)
    assert "identity" in why[0]


def test_rejects_tampered_high_component(mock):
    sec, prog, res, plain = _setup(mock, seed=12)
    slots = list(mock.decrypt(res.cts[1]))
    slots[5] = (slots[5] + 1) % T
    bad = pe.PeAuth(res.cts[:1] + (mock.encrypt(slots),) + res.cts[2:])
    assert not pe.pe_verify(sec, mock, prog, bad)


def test_rejects_wrong_claim(mock):
    sec, prog, res, plain = _setup(mock, seed=14)
    wrong = [(plain[0] + 1) % T] + plain[1:4]
    why = []
    assert not pe.pe_verify(sec, mock, prog, res, claimed=wrong, reason=why)
    assert "claim" in why[0]


def test_rejects_result_for_different_program(mock):
    sec, prog, res, plain = _setup(mock, seed=16)
    b = ProgramBuilder(width=N, name="other")
    x = b.input("x")
    y = b.input("y")
    other = b.build(b.inner_sum(b.add(b.mul(x, y), y), 4), output_block=(0, 4))
    assert not pe.pe_verify(sec, mock, other, res)


def test_rejects_component_swap(mock):
    sec, prog, res, plain = _setup(mock, seed=18)
    swapped = pe.PeAuth((res.cts[0], res.cts[2], res.cts[1]))
    assert not pe.pe_verify(sec, mock, prog, swapped)


def test_rejects_fresh_auth_of_correct_value_under_wrong_identity(mock):
    """Re-authenticating the right answer under a different base fails: the
    challenge polynomial is bound to the original input identities."""
    sec, prog, res, plain = _setup(mock, seed=20)
    forged = pe.pe_auth(sec, mock, plain, "forged")
    assert not pe.pe_verify(sec, mock, prog, forged)


def test_pe_check_claims_the_output_block_of_y0(mock):
    """pe_check returns (verdict, y_0's output block): the claim accompanies
    an accept and a reject alike."""
    sec, prog, res, plain = _setup(mock, seed=24)
    ys = [mock.decrypt(c) for c in res.cts]
    assert pe.pe_check(sec, prog, ys) == (True, plain[:4])
    ys[1][0] = (ys[1][0] + 1) % T
    why = []
    assert pe.pe_check(sec, prog, ys, reason=why) == (False, plain[:4])
    assert "identity" in why[0]


def test_claim_shape_checked(mock):
    sec, prog, res, plain = _setup(mock, seed=22)
    with pytest.raises(ParameterError):
        pe.pe_verify(sec, mock, prog, res, claimed=plain[:2])  # block is 4 wide


# ---------------------------------------------------------------------------
# offset tracking
# ---------------------------------------------------------------------------


def test_offset_walk_zero_without_omega():
    sec = make_secret(seed=24)
    prog = square_chain(2)
    rhos, deltas, naturals = pe.offset_walk(prog, sec.key, T, sec.alpha)
    assert deltas[prog.output].tolist() == [0] * N
    assert rhos[prog.output].tolist() == eval_challenge_pe(prog, sec.key, T).tolist()
    # natural product-rule offsets exist only on mul gates
    assert naturals[0] is None
    assert naturals[1].tolist() == [0] * N  # inputs carry zero offset


def test_offset_walk_substitutes_blinds():
    sec = make_secret(seed=26)
    prog = square_chain(2)  # gates: input, mul, mul
    rng = random.Random(27)
    r_bar = [rng.randrange(T) for _ in range(N)]
    _, deltas, _ = pe.offset_walk(prog, sec.key, T, sec.alpha, omega={1: r_bar})
    assert deltas[1].tolist() == [sec.alpha * v % T for v in r_bar]
    # downstream mul mixes the substituted offset via the product rule
    rhos, _, naturals = pe.offset_walk(prog, sec.key, T, sec.alpha, omega={1: r_bar})
    d1 = deltas[1].tolist()
    r1 = rhos[1].tolist()
    expect = [(2 * a * x + x * x) % T for a, x in zip(r1, d1)]
    assert naturals[2].tolist() == expect


def test_final_offset_matches_walk():
    sec = make_secret(seed=28)
    prog = square_chain(2)
    r_bar = [random.Random(29).randrange(T)] * N
    omega = {1: r_bar}
    _, deltas, _ = pe.offset_walk(prog, sec.key, T, sec.alpha, omega)
    assert pe.final_offset(sec, prog, omega).tolist() == deltas[prog.output].tolist()


def test_soundness_bound():
    assert pe.pe_soundness_bound(8, 1 << 40) == pytest.approx(16 / (1 << 40))


class CountingMock(MockBackend):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.muls = self.squares = self.adds = 0

    def mul(self, a, b):
        self.muls += 1
        self.squares += a is b
        return super().mul(a, b)

    def add(self, a, b):
        self.adds += 1
        return super().add(a, b)


def schoolbook(xs, ys):
    """Slot-wise convolution of two component tuples of slot vectors."""
    out = [[0] * N for _ in range(len(xs) + len(ys) - 1)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = [(o + u * v) % T for o, u, v in zip(out[i + j], x, y)]
    return out


@pytest.mark.parametrize("la", [1, 2, 3])
@pytest.mark.parametrize("lb", [1, 2, 3])
def test_pe_mul_karatsuba_count_and_convolution(la, lb):
    """Karatsuba saves one product per pair i < j < min(la, lb): 3 for
    1 × 1, 5 for 1 × 2, 6 for 2 × 2; the result is the full convolution."""
    backend = CountingMock(PARAMS, rng=random.Random(40))
    rng = random.Random(41)
    xs = [rand_slots(rng) for _ in range(la)]
    ys = [rand_slots(rng) for _ in range(lb)]
    a = tuple(backend.encrypt(v) for v in xs)
    b = tuple(backend.encrypt(v) for v in ys)
    got = pe.pe_mul(backend, a, b)
    m = min(la, lb)
    assert backend.muls == la * lb - m * (m - 1) // 2
    assert [backend.decrypt(c) for c in got] == schoolbook(xs, ys)


def test_pe_mul_square_hands_the_backend_squares():
    """pe_mul(a, a) at degree 1 builds the cross sum a_0 + a_1 once: 3
    products, each with identical operands (so the real backend lifts one
    operand), and 1 add."""
    backend = CountingMock(PARAMS, rng=random.Random(45))
    rng = random.Random(46)
    xs = [rand_slots(rng) for _ in range(2)]
    a = tuple(backend.encrypt(v) for v in xs)
    got = pe.pe_mul(backend, a, a)
    assert (backend.muls, backend.squares, backend.adds) == (3, 3, 1)
    assert [backend.decrypt(c) for c in got] == schoolbook(xs, xs)


# ---------------------------------------------------------------------------
# real backend
# ---------------------------------------------------------------------------


def test_real_backend_end_to_end():
    rng = random.Random(30)
    b = ProgramBuilder(width=N, name="sq-sum")
    x = b.input("x")
    y = b.input("y")
    prog = b.build(b.inner_sum(b.mul(x, y), 4), output_block=(0, 4))
    sec = pe.pe_keygen(PARAMS, programs=[prog], rng=rng)
    backend = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(31))
    xs, ys = rand_slots(rng), rand_slots(rng)
    xa = pe.pe_auth(sec, backend, xs, "x")
    ya = pe.pe_auth(sec, backend, ys, "y")
    res = pe.pe_eval(prog, [xa, ya], backend)
    plain = eval_plain(prog, [xs, ys], T)
    assert backend.decrypt(res.cts[0]) == plain
    assert pe.pe_verify(sec, backend, prog, res, claimed=plain[:4])
    # and a tampered component still fails on the real backend
    slots = list(backend.decrypt(res.cts[1]))
    slots[0] = (slots[0] + 1) % T
    bad = pe.PeAuth((res.cts[0], backend.encrypt(slots)) + res.cts[2:])
    assert not pe.pe_verify(sec, backend, prog, bad)


def test_pe_mul_real_n4096_matches_convolution():
    """A degree-1 × degree-1 product on n4096 decrypts to the schoolbook
    components."""
    params = preset("n4096")
    keys = bfv.keygen(params, row_swap=False, rng=np.random.default_rng(42))
    backend = bfv.BfvBackend(params, keys, rng=np.random.default_rng(43))
    rng = random.Random(44)
    t, n = params.t, params.n
    xs = [[rng.randrange(t) for _ in range(n)] for _ in range(2)]
    ys = [[rng.randrange(t) for _ in range(n)] for _ in range(2)]
    got = pe.pe_mul(
        backend,
        tuple(backend.encrypt(v) for v in xs),
        tuple(backend.encrypt(v) for v in ys),
    )
    x0, x1 = xs
    y0, y1 = ys
    want = [
        [u * v % t for u, v in zip(x0, y0)],
        [(u * v + w * z) % t for u, v, w, z in zip(x0, y1, x1, y0)],
        [u * v % t for u, v in zip(x1, y1)],
    ]
    assert [backend.decrypt(c) for c in got] == want
