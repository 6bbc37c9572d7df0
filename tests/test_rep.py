"""Replication-encoded authentication: extension layout, digest binding,
honest acceptance over random programs, and rejection of every tamper
class that doesn't guess the challenge set."""

import math
import random

import numpy as np
import pytest

from vhe import bfv, rep
from vhe.circuit import ProgramBuilder, eval_plain, random_program
from vhe.errors import IdentifierReuseError, LayoutError, ParameterError
from vhe.labels import prf_zt
from vhe.mock import MockBackend
from vhe.params import preset

PARAMS = preset("mock64")
T = PARAMS.t
N = PARAMS.n
LAM = 8
WIDTH = N // LAM


def make_secret(seed=1, lam=LAM):
    return rep.rep_keygen(PARAMS, lam=lam, rng=random.Random(seed), make_he_keys=False)


@pytest.fixture()
def mock():
    return MockBackend(PARAMS, rng=random.Random(2))


def dot_program(width=WIDTH, block=4):
    b = ProgramBuilder(width=width, name="dot")
    x = b.input("x")
    y = b.input("y")
    return b.build(b.inner_sum(b.mul(x, y), block), output_block=(0, 1))


# ---------------------------------------------------------------------------
# extension layout
# ---------------------------------------------------------------------------


def test_extension_block_structure(mock):
    """Replica offsets carry the value, challenge offsets carry F_K(τ_i, j)."""
    sec = make_secret(lam=4)
    auth = rep.rep_auth(sec, mock, [7], "m")
    slots = mock.decrypt(auth.cts[0])
    base = auth.base
    for j in range(4):
        if j in sec.challenge_set:
            assert slots[j] == prf_zt(sec.key, base.with_slot(0), T, aux=j)
        else:
            assert slots[j] == 7
    # unused positions are zero padding
    assert slots[4:] == [0] * (N - 4)


def test_challenge_set_size_and_range():
    for seed in range(10):
        sec = make_secret(seed=seed)
        assert len(sec.challenge_set) == LAM // 2
        assert all(0 <= j < LAM for j in sec.challenge_set)
    # different draws across seeds (overwhelmingly)
    sets = {make_secret(seed=s).challenge_set for s in range(10)}
    assert len(sets) > 1


def test_ct_count_formula():
    assert rep.rep_ct_count(1, 8, 64) == 1
    assert rep.rep_ct_count(8, 8, 64) == 1
    assert rep.rep_ct_count(9, 8, 64) == 2
    assert rep.rep_ct_count(4096, 32, 4096) == 32
    assert rep.rep_ct_count(100, 16, 4096) == 1


def test_keygen_validation():
    with pytest.raises(ParameterError):
        rep.rep_keygen(PARAMS, lam=3, make_he_keys=False)   # not a power of two
    with pytest.raises(ParameterError):
        rep.rep_keygen(PARAMS, lam=64, make_he_keys=False)  # exceeds a row
    with pytest.raises(ParameterError):
        rep.rep_keygen(PARAMS, lam=1, make_he_keys=False)


def test_auth_validation(mock):
    sec = make_secret()
    with pytest.raises(ParameterError):
        rep.rep_auth(sec, mock, [], "empty")
    rep.rep_auth(sec, mock, [1], "once")
    with pytest.raises(IdentifierReuseError):
        rep.rep_auth(sec, mock, [2], "once")


# ---------------------------------------------------------------------------
# honest path
# ---------------------------------------------------------------------------


def test_honest_dot_product(mock):
    sec = make_secret()
    prog = dot_program()
    xs, ys = [3, 1, 4, 1], [2, 7, 1, 8]
    xa = rep.rep_auth(sec, mock, xs, "x")
    ya = rep.rep_auth(sec, mock, ys, "y")
    res = rep.rep_eval(prog, [xa, ya], mock, lam=LAM)
    claim = eval_plain(prog, [xs + [0] * 4, ys + [0] * 4], T)[0]
    assert claim == 25
    assert rep.rep_verify(sec, mock, prog, res, [claim], [4, 4])


def test_honest_random_programs(mock):
    rng = random.Random(3)
    for trial in range(20):
        sec = rep.rep_keygen(PARAMS, lam=LAM, rng=rng, make_he_keys=False)
        prog = random_program(rng, width=WIDTH, t=T)
        lengths = [rng.randrange(1, WIDTH + 1) for _ in range(prog.num_inputs)]
        values = [[rng.randrange(T) for _ in range(l)] for l in lengths]
        auths = [
            rep.rep_auth(sec, mock, v, prog.inputs[k])
            for k, v in enumerate(values)
        ]
        res = rep.rep_eval(prog, auths, mock, lam=LAM)
        padded = [v + [0] * (WIDTH - len(v)) for v in values]
        plain = eval_plain(prog, padded, T)
        start, count = prog.output_block
        claim = plain[start : start + count]
        assert rep.rep_verify(
            sec, mock, prog, res, claim, lengths
        ), f"trial {trial} rejected an honest run"


def test_multi_ciphertext_aggregation(mock):
    sec = make_secret(seed=4)
    l = 20  # spans 3 ciphertexts at λ=8, n=64
    rng = random.Random(5)
    a_vals = [rng.randrange(T) for _ in range(l)]
    b_vals = [rng.randrange(T) for _ in range(l)]
    b = ProgramBuilder(width=WIDTH, name="sum")
    prog = b.build(b.add(b.input("a"), b.input("b")), output_block=(0, WIDTH))
    aa = rep.rep_auth(sec, mock, a_vals, "a")
    bb = rep.rep_auth(sec, mock, b_vals, "b")
    assert len(aa.cts) == 3
    res = rep.rep_eval(prog, [aa, bb], mock, lam=LAM)
    assert len(res.cts) == 3
    # the output block repeats per chunk: 3 × WIDTH values, zero-padded past l
    sums = [(a_vals[i] + b_vals[i]) % T for i in range(l)]
    claim = sums + [0] * (3 * WIDTH - l)
    assert rep.rep_verify(sec, mock, prog, res, claim, [l, l])
    bad = list(claim)
    bad[l - 1] = (bad[l - 1] + 1) % T  # a position in the last chunk
    assert not rep.rep_verify(sec, mock, prog, res, bad, [l, l])


def test_multi_ciphertext_rejects_rotation(mock):
    sec = make_secret(seed=7)
    b = ProgramBuilder(width=WIDTH)
    prog = b.build(b.rotate(b.input("a"), 1))
    aa = rep.rep_auth(sec, mock, list(range(20)), "a")
    with pytest.raises(LayoutError):
        rep.rep_eval(prog, [aa], mock, lam=LAM)


def test_mixed_ciphertext_counts_rejected(mock):
    """An add over a one-ciphertext and a two-ciphertext input has no
    slot-parallel layout, even though add alone spans ciphertexts."""
    sec = make_secret(seed=11)
    b = ProgramBuilder(width=WIDTH)
    prog = b.build(b.add(b.input("a"), b.input("b")))
    one = rep.rep_auth(sec, mock, list(range(WIDTH)), "a")
    two = rep.rep_auth(sec, mock, list(range(WIDTH + 1)), "b")
    assert (len(one.cts), len(two.cts)) == (1, 2)
    with pytest.raises(LayoutError, match="different ciphertext counts"):
        rep.rep_eval(prog, [one, two], mock, lam=LAM)


def test_eval_validates_shapes(mock):
    sec = make_secret(seed=8)
    prog = dot_program()
    xa = rep.rep_auth(sec, mock, [1, 2], "x")
    with pytest.raises(ParameterError):
        rep.rep_eval(prog, [xa], mock, lam=LAM)  # needs two inputs
    b = ProgramBuilder(width=4)  # wrong width for λ=8, n=64
    bad = b.build(b.add(b.input("p"), b.input("q")))
    ya = rep.rep_auth(sec, mock, [1, 2], "y")
    with pytest.raises(LayoutError):
        rep.rep_eval(bad, [xa, ya], mock, lam=LAM)


# ---------------------------------------------------------------------------
# rejection
# ---------------------------------------------------------------------------


def _setup(mock, seed=9):
    sec = make_secret(seed=seed)
    prog = dot_program()
    xs, ys = [3, 1, 4, 1], [2, 7, 1, 8]
    xa = rep.rep_auth(sec, mock, xs, "x")
    ya = rep.rep_auth(sec, mock, ys, "y")
    res = rep.rep_eval(prog, [xa, ya], mock, lam=LAM)
    return sec, prog, res, 25


def test_rejects_wrong_claim(mock):
    sec, prog, res, claim = _setup(mock)
    why = []
    assert not rep.rep_verify(sec, mock, prog, res, [claim + 1], [4, 4], reason=why)
    assert "replica offset" in why[0]


def test_rejects_blind_block_shift(mock):
    """Shifting a whole block moves challenge offsets too: caught."""
    sec, prog, res, claim = _setup(mock)
    slots = list(mock.decrypt(res.cts[0]))
    for j in range(LAM):
        slots[j] = (slots[j] + 3) % T
    forged = rep.RepResult((mock.encrypt(slots),), res.tag)
    why = []
    assert not rep.rep_verify(
        sec, mock, prog, forged, [(claim + 3) % T], [4, 4], reason=why
    )
    assert "challenge offset" in why[0]


def test_rejects_wrong_circuit_digest(mock):
    """Evaluating a different circuit than agreed changes the digest."""
    sec, prog, res, claim = _setup(mock)
    other = dot_program(block=2)
    why = []
    assert not rep.rep_verify(sec, mock, other, res, [claim], [4, 4], reason=why)
    assert "digest" in why[0]


def test_eval_guards_against_misbound_inputs(mock):
    """Passing authentications in the wrong order is caught before work."""
    sec = make_secret(seed=10)
    prog = dot_program()
    xa = rep.rep_auth(sec, mock, [3, 1, 4, 1], "x")
    ya = rep.rep_auth(sec, mock, [2, 7, 1, 8], "y")
    with pytest.raises(ParameterError):
        rep.rep_eval(prog, [ya, xa], mock, lam=LAM)


def test_rejects_swapped_inputs_digest(mock):
    """A malicious evaluator that feeds y where x was agreed produces a
    digest over swapped leaves: rejected."""
    from vhe.circuit import eval_he
    from vhe.labels import hash_tree_eval

    sec = make_secret(seed=10)
    prog = dot_program()
    xa = rep.rep_auth(sec, mock, [3, 1, 4, 1], "x")
    ya = rep.rep_auth(sec, mock, [2, 7, 1, 8], "y")
    out = eval_he(prog, [ya.cts[0], xa.cts[0]], mock, stride=LAM)
    tag = hash_tree_eval(prog, [ya.leaf, xa.leaf])
    forged = rep.RepResult((out,), tag)
    assert not rep.rep_verify(sec, mock, prog, forged, [25], [4, 4])


def test_rejects_wrong_input_length_record(mock):
    sec, prog, res, claim = _setup(mock)
    assert not rep.rep_verify(sec, mock, prog, res, [claim], [4, 3])


def test_rejects_replayed_result_for_other_program(mock):
    sec, prog, res, claim = _setup(mock)
    b = ProgramBuilder(width=WIDTH, name="other")
    x = b.input("x")
    y = b.input("y")
    other = b.build(b.inner_sum(b.add(x, y), 4), output_block=(0, 1))
    assert not rep.rep_verify(sec, mock, other, res, [claim], [4, 4])


def _three_chunk_sum(mock):
    """A one-gate add over two 24-value inputs: 3 result ciphertexts."""
    sec = make_secret(seed=4)
    b = ProgramBuilder(width=WIDTH, name="sum")
    prog = b.build(b.add(b.input("a"), b.input("b")), output_block=(0, WIDTH))
    rng = random.Random(6)
    auths = [rep.rep_auth(sec, mock, [rng.randrange(T) for _ in range(24)], x) for x in "ab"]
    res = rep.rep_eval(prog, auths, mock, lam=LAM)
    assert len(res.cts) == 3
    return sec, prog, res


@pytest.mark.parametrize("shape", ["one chunk dropped", "zero chunk appended"])
def test_rejects_truncated_or_padded_result(mock, shape):
    """The chunk count comes from the client's input lengths, not from the
    result: a result with its last chunk dropped, or with a zero chunk
    appended, is rejected with a reason, with or without a claim."""
    sec, prog, res = _three_chunk_sum(mock)
    cts = res.cts[:2] if shape == "one chunk dropped" else res.cts + (mock.encrypt([0] * N),)
    forged = rep.RepResult(cts, res.tag)
    why = []
    ok, claim = rep.rep_check(sec, prog, [mock.decrypt(c) for c in cts], res.tag, [24, 24], why)
    assert not ok and why == [f"{len(cts)} result ciphertext(s) where the inputs imply 3"]
    why = []
    assert not rep.rep_verify(sec, mock, prog, forged, claim, [24, 24], reason=why)
    assert "inputs imply 3" in why[0]


def test_check_returns_the_agreed_replicas(mock):
    sec, prog, res = _three_chunk_sum(mock)
    slots = [mock.decrypt(c) for c in res.cts]
    assert rep.rep_check(sec, prog, slots, res.tag, [24, 24]) == (
        True, rep.rep_decode(sec, mock, res, prog)
    )
    # a replica offset that disagrees with the others
    j = min(set(range(LAM)) - sec.challenge_set)
    slots[2][5 * LAM + j] = (slots[2][5 * LAM + j] + 1) % T
    why = []
    assert not rep.rep_check(sec, prog, slots, res.tag, [24, 24], why)[0]
    assert why == ["replica offsets disagree at chunk 2 slot 5"]


def test_check_input_lengths_must_imply_one_count(mock):
    sec, prog, res = _three_chunk_sum(mock)
    slots = [mock.decrypt(c) for c in res.cts]
    for lengths in ([24, 8], [24], [24, 24, 24], [0, 0], [-24, -24]):
        with pytest.raises(ParameterError):
            rep.rep_check(sec, prog, slots, res.tag, lengths)


def test_claim_shape_checked(mock):
    sec, prog, res, claim = _setup(mock)
    with pytest.raises(ParameterError):
        rep.rep_verify(sec, mock, prog, res, [claim, claim], [4, 4])
    with pytest.raises(ParameterError):
        rep.rep_verify(sec, mock, prog, res, [claim], [4])


def test_forgery_bound_values():
    assert rep.rep_forgery_bound(8) == pytest.approx(1 / 70)
    assert rep.rep_forgery_bound(4) == pytest.approx(1 / 6)
    assert rep.rep_forgery_bound(32) == pytest.approx(1 / math.comb(32, 16))


# ---------------------------------------------------------------------------
# real backend
# ---------------------------------------------------------------------------


def test_real_backend_dot_product():
    """End-to-end on the lattice backend at n=64 (structure identical to
    the production-size flow, just small)."""
    rng = random.Random(11)
    prog = dot_program()
    sec = rep.rep_keygen(PARAMS, lam=LAM, programs=[prog], rng=rng)
    backend = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(12))
    xs, ys = [3, 1, 4, 1], [2, 7, 1, 8]
    xa = rep.rep_auth(sec, backend, xs, "x")
    ya = rep.rep_auth(sec, backend, ys, "y")
    res = rep.rep_eval(prog, [xa, ya], backend, lam=LAM)
    assert rep.rep_verify(sec, backend, prog, res, [25], [4, 4])
    assert not rep.rep_verify(sec, backend, prog, res, [26], [4, 4])


def test_real_backend_matches_mock_extension():
    """Same secret, same values: decrypted extended slots agree across backends."""
    rng = random.Random(13)
    sec = rep.rep_keygen(PARAMS, lam=LAM, rng=rng)
    backend = bfv.BfvBackend(PARAMS, sec.he_keys, rng=np.random.default_rng(14))
    mock = MockBackend(PARAMS, rng=random.Random(15))
    vals = [9, 8, 7]
    a_real = rep.rep_auth(sec, backend, vals, "v")
    sec.registry = type(sec.registry)()  # fresh registry to reuse the label
    a_mock = rep.rep_auth(sec, mock, vals, "v")
    assert backend.decrypt(a_real.cts[0]) == mock.decrypt(a_mock.cts[0])
    assert a_real.leaf == a_mock.leaf
