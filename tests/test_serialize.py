"""Container round-trips for every persisted object, plus the failure
modes: garbage, truncation, and type confusion."""

import random
import struct

import numpy as np
import pytest

from vhe import bfv, pe, rep
from vhe import serialize as sz
from vhe.errors import SerializationError
from vhe.mock import MockBackend
from vhe.params import preset

PARAMS = preset("mock64")


@pytest.fixture(scope="module")
def mock():
    return MockBackend(PARAMS, rng=random.Random(1))


@pytest.fixture(scope="module")
def real_keys():
    return bfv.keygen(PARAMS, rotation_steps=(1, -2), rng=np.random.default_rng(2))


def test_params_roundtrip():
    for name in ("mock64", "mock64_wide", "n4096_fast"):
        p = preset(name)
        assert sz.load_params(sz.save_params(p)) == p


def test_mock_ciphertext_roundtrip(mock):
    ct = mock.encrypt([i % PARAMS.t for i in range(PARAMS.n)])
    back, off = sz.load_ciphertext(sz.save_ciphertext(ct))
    assert back == ct
    assert off == len(sz.save_ciphertext(ct))


def test_real_ciphertext_roundtrip(real_keys):
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(3))
    vals = [i * 7 % PARAMS.t for i in range(PARAMS.n)]
    ct = backend.mul(backend.encrypt(vals), backend.encrypt(vals))
    back, _ = sz.load_ciphertext(sz.save_ciphertext(ct))
    assert back.mul_depth == ct.mul_depth
    assert backend.decrypt(back) == backend.decrypt(ct)


def test_keyset_roundtrip_public_and_secret(real_keys):
    full = sz.load_keyset(sz.save_keyset(real_keys, include_secret=True))
    pub = sz.load_keyset(sz.save_keyset(real_keys, include_secret=False))
    assert full.has_secret and not pub.has_secret
    assert np.array_equal(full.sk_ntt, real_keys.sk_ntt)
    assert set(full.gks) == set(real_keys.gks)
    for (b1, a1), (b2, a2) in zip(full.rlk, real_keys.rlk):
        assert np.array_equal(b1, b2) and np.array_equal(a1, a2)
    # the restored keyset is functional end to end
    owner = bfv.BfvBackend(PARAMS, full, rng=np.random.default_rng(4))
    evaluator = bfv.BfvBackend(PARAMS, pub, rng=np.random.default_rng(5))
    vals = [3] * PARAMS.n
    ct = evaluator.rotate(evaluator.mul_plain(evaluator.encrypt(vals), [2] * PARAMS.n), 1)
    assert owner.decrypt(ct) == [6] * PARAMS.n


def test_rep_containers_roundtrip(mock):
    sec = rep.rep_keygen(PARAMS, lam=8, rng=random.Random(6), make_he_keys=False)
    auth = rep.rep_auth(sec, mock, [5, 6, 7], "series")
    res = rep.RepResult(auth.cts, b"\x42" * 64, 8)

    sec2 = sz.load_rep_secret(sz.save_rep_secret(sec))
    assert (sec2.lam, sec2.challenge_set, sec2.key) == (sec.lam, sec.challenge_set, sec.key)
    assert sec2.he_keys is None
    assert auth.base in sec2.registry  # registry travels with the secret

    auth2 = sz.load_rep_auth(sz.save_rep_auth(auth))
    assert auth2 == auth

    res2 = sz.load_rep_result(sz.save_rep_result(res))
    assert res2 == res


def test_rep_secret_with_he_keys_roundtrip():
    sec = rep.rep_keygen(PARAMS, lam=4, rng=random.Random(7), extra_steps=(4,))
    sec2 = sz.load_rep_secret(sz.save_rep_secret(sec))
    assert sec2.he_keys is not None and sec2.he_keys.has_secret
    assert np.array_equal(sec2.he_keys.sk_ntt, sec.he_keys.sk_ntt)


def test_pe_containers_roundtrip(mock):
    sec = pe.pe_keygen(PARAMS, rng=random.Random(8), make_he_keys=False)
    vals = [i % PARAMS.t for i in range(PARAMS.n)]
    auth = pe.pe_auth(sec, mock, vals, "vec")

    sec2 = sz.load_pe_secret(sz.save_pe_secret(sec))
    assert (sec2.alpha, sec2.key) == (sec.alpha, sec.key)
    assert auth.base in sec2.registry

    auth2 = sz.load_pe_auth(sz.save_pe_auth(auth))
    assert auth2 == auth

    # results have no base identifier
    anon = pe.PeAuth(auth.cts)
    anon2 = sz.load_pe_auth(sz.save_pe_auth(anon))
    assert anon2.base is None and anon2.cts == auth.cts


def test_concatenated_stream(mock):
    a = mock.encrypt([1] * PARAMS.n)
    b = mock.encrypt([2] * PARAMS.n)
    stream = sz.save_ciphertext(a) + sz.save_ciphertext(b)
    x, off = sz.load_ciphertext(stream, 0)
    y, off = sz.load_ciphertext(stream, off)
    assert (x, y) == (a, b)
    assert off == len(stream)


def test_load_any_dispatch(mock):
    assert sz.load_any(sz.save_params(PARAMS)) == PARAMS
    ct = mock.encrypt([0] * PARAMS.n)
    assert sz.load_any(sz.save_ciphertext(ct)) == ct


def test_garbage_rejected():
    with pytest.raises(SerializationError):
        sz.read_container(b"not a container at all")
    with pytest.raises(SerializationError):
        sz.read_container(b"VRTS\x09\x00\x01")  # wrong version
    good = sz.save_params(PARAMS)
    with pytest.raises(SerializationError):
        sz.read_container(good[:-3])  # truncated body
    with pytest.raises(SerializationError):
        sz.load_keyset(good)  # type confusion
    with pytest.raises(SerializationError):
        sz.load_ciphertext(good)


def test_version_1_params_refused():
    """Version 1 carried a decomposition-base byte and base-2^16 keys."""
    body = struct.pack("<IQdBhB", PARAMS.n, PARAMS.t, PARAMS.err_std, 16, 2, len(PARAMS.q_chain))
    body += b"".join(struct.pack("<Q", q) for q in PARAMS.q_chain) + struct.pack("<H", 0)
    blob = sz.MAGIC + struct.pack("<HBI", 1, sz.TYPE_PARAMS, len(body)) + body
    with pytest.raises(SerializationError, match="version 1"):
        sz.load_params(blob)


def test_version_2_ciphertext_refused(real_keys):
    """Version 2 carried a level byte after the multiplication depth."""
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(4))
    _, body, _ = sz.read_container(sz.save_ciphertext(backend.encrypt([1] * PARAMS.n)))
    body = body[:5] + bytes([len(PARAMS.q_chain)]) + body[5:]
    blob = sz.MAGIC + struct.pack("<HBI", 2, sz.TYPE_CIPHERTEXT, len(body)) + body
    with pytest.raises(SerializationError, match="version 2"):
        sz.load_ciphertext(blob)


def _drop_rlk_pair(keys):
    return bfv.KeySet(keys.params, keys.pk, keys.rlk[:-1], keys.gks, keys.sk_ntt)


def _out_of_range_gk(keys):
    g = min(keys.gks)
    (b, a), *rest = keys.gks[g]
    b = b.copy()
    b[1, 5] = PARAMS.q_chain[1]  # one residue equal to its prime
    return bfv.KeySet(keys.params, keys.pk, keys.rlk, {**keys.gks, g: ((b, a), *rest)}, keys.sk_ntt)


def _short_pk(keys):
    b, a = keys.pk
    return bfv.KeySet(keys.params, (b[:-1], a[:-1]), keys.rlk, keys.gks, keys.sk_ntt)


@pytest.mark.parametrize("corrupt", [_drop_rlk_pair, _out_of_range_gk, _short_pk])
def test_malformed_keyset_rejected(real_keys, corrupt):
    with pytest.raises(SerializationError):
        sz.load_keyset(sz.save_keyset(corrupt(real_keys), include_secret=True))


def test_trailing_bytes_rejected(mock):
    blob = sz.save_params(PARAMS)
    # corrupt the body length to leave trailing bytes inside the container
    bad = blob[:7] + (len(blob) - 11 + 2).to_bytes(4, "little") + blob[11:] + b"xx"
    with pytest.raises(SerializationError):
        sz.load_params(bad)


def test_file_helpers(tmp_path, mock):
    path = tmp_path / "params.vrts"
    sz.write_file(path, sz.save_params(PARAMS))
    assert sz.load_params(sz.read_file(path)) == PARAMS
