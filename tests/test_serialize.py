"""Container round-trips for every persisted object, plus the failure
modes: garbage, truncation, byte flips, and type confusion."""

import random
import struct
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv, pe, rep
from vhe import serialize as sz
from vhe.circuit import ProgramBuilder
from vhe.errors import SerializationError
from vhe.mock import MockBackend
from vhe.params import preset

PARAMS = preset("mock64")


@pytest.fixture(scope="module")
def mock():
    return MockBackend(PARAMS, rng=random.Random(1))


def _container(type_code, body, version=sz.VERSION):
    return sz.MAGIC + struct.pack("<HBI", version, type_code, len(body)) + body


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
    assert np.array_equal(back.data, ct.data)
    assert backend.decrypt(back) == backend.decrypt(ct)


def test_keyset_roundtrip_public_and_secret(real_keys):
    full = sz.load_keyset(sz.save_keyset(real_keys, include_secret=True))
    pub = sz.load_keyset(sz.save_keyset(real_keys, include_secret=False))
    assert full.has_secret and not pub.has_secret
    assert np.array_equal(full.sk_ntt, real_keys.sk_ntt)
    assert set(full.gks) == set(real_keys.gks)
    assert np.array_equal(full.rlk, real_keys.rlk)
    assert all(np.array_equal(full.gks[g], real_keys.gks[g]) for g in real_keys.gks)
    # the restored keyset is functional end to end
    owner = bfv.BfvBackend(PARAMS, full, rng=np.random.default_rng(4))
    evaluator = bfv.BfvBackend(PARAMS, pub, rng=np.random.default_rng(5))
    vals = [3] * PARAMS.n
    ct = evaluator.rotate(evaluator.mul_plain(owner.encrypt(vals), [2] * PARAMS.n), 1)
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
    # tags are raw bytes: null bytes at either end survive the round trip
    edges = replace(auth, tags=(bytes(64), b"\1" + bytes(63), bytes(63) + b"\1"))
    tags = sz.load_rep_auth(sz.save_rep_auth(edges)).tags
    assert tags == edges.tags and {type(t) for t in tags} == {bytes}

    res2 = sz.load_rep_result(sz.save_rep_result(res))
    assert res2 == res


def test_rep_secret_with_he_keys_roundtrip():
    b = ProgramBuilder(width=PARAMS.n // 4, name="rot")
    prog = b.build(b.rotate(b.input("x"), 1), output_block=(0, 1))
    sec = rep.rep_keygen(PARAMS, lam=4, programs=[prog], rng=random.Random(7))
    assert list(sec.he_keys.gks) == [bfv.galois_element(4, PARAMS.n)]
    sec2 = sz.load_rep_secret(sz.save_rep_secret(sec))
    assert sec2.he_keys is not None and sec2.he_keys.has_secret
    assert np.array_equal(sec2.he_keys.sk_ntt, sec.he_keys.sk_ntt)
    assert sec2.he_keys.gks.keys() == sec.he_keys.gks.keys()
    assert all(np.array_equal(sec2.he_keys.gks[g], k) for g, k in sec.he_keys.gks.items())


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
    body = struct.pack("<IQdBhB", PARAMS.n, PARAMS.t, 3.2, 16, 2, len(PARAMS.q_chain))
    body += b"".join(struct.pack("<Q", q) for q in PARAMS.q_chain) + struct.pack("<H", 0)
    with pytest.raises(SerializationError, match="version 1"):
        sz.load_params(_container(sz.TYPE_PARAMS, body, version=1))


def _with_version(blob, version):
    """The same container under another version number."""
    return blob[:4] + struct.pack("<H", version) + blob[6:]


def test_version_2_ciphertext_refused(real_keys):
    """Version 2 carried a level byte after the multiplication depth."""
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(4))
    _, body, _ = sz.read_container(sz.save_ciphertext(backend.encrypt([1] * PARAMS.n)))
    body = body[:5] + bytes([len(PARAMS.q_chain)]) + body[5:]
    with pytest.raises(SerializationError, match="version 2"):
        sz.load_ciphertext(_container(sz.TYPE_CIPHERTEXT, body, version=2))


@pytest.mark.parametrize("version", [3, 7])
def test_version_3_ciphertext_and_keyset_refused(real_keys, version):
    """Version 3 wrote u64 residues, per-component domain bytes and key
    pairs with shape headers; version 7 residues sit in the evaluation
    domain of another ψ.  Such containers must be regenerated."""
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(4))
    ct = sz.save_ciphertext(backend.encrypt([1] * PARAMS.n))
    with pytest.raises(SerializationError, match=f"version {version}"):
        sz.load_ciphertext(_with_version(ct, version))
    keys = sz.save_keyset(real_keys)
    with pytest.raises(SerializationError, match=f"version {version}"):
        sz.load_keyset(_with_version(keys, version))


def test_version_4_ciphertext_refused(real_keys):
    """Version 4 opened the ciphertext body with a u32 multiplication depth."""
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(4))
    _, body, _ = sz.read_container(sz.save_ciphertext(backend.encrypt([1] * PARAMS.n)))
    with pytest.raises(SerializationError, match="version 4"):
        sz.load_ciphertext(_container(sz.TYPE_CIPHERTEXT, struct.pack("<I", 0) + body, version=4))


def test_version_5_secret_and_auth_refused(mock):
    """Version 5 secrets and authentications carry the per-slot Blake2b
    challenge values: they must fail to load, not verify as forgeries."""
    sec = rep.rep_keygen(PARAMS, lam=4, rng=random.Random(6), make_he_keys=False)
    blobs = [
        (sz.load_rep_secret, sz.save_rep_secret(sec)),
        (sz.load_rep_auth, sz.save_rep_auth(rep.rep_auth(sec, mock, [1, 2], "v5"))),
    ]
    for load, blob in blobs:
        old = blob[:4] + struct.pack("<H", 5) + blob[6:]
        with pytest.raises(SerializationError, match="version 5"):
            load(old)
        load(blob)


def test_version_6_keyset_refused(real_keys):
    """Version 6 keysets carry a public key: they must fail to load."""
    blob = sz.save_keyset(real_keys)
    with pytest.raises(SerializationError, match="version 6"):
        sz.load_keyset(_with_version(blob, 6))
    sz.load_keyset(blob)


@pytest.mark.parametrize("secret", [False, True])
def test_keyset_body_is_the_key_switching_keys(real_keys, secret):
    """After the parameters and the Galois header, a keyset body holds the
    relinearization key and g Galois keys, 4·2k²n bytes each, plus the 4kn
    bytes of the secret key when it is included."""
    k, n, g = len(PARAMS.q_chain), PARAMS.n, len(real_keys.gks)
    _, body, _ = sz.read_container(sz.save_keyset(real_keys, include_secret=secret))
    head = len(sz.save_params(PARAMS)) + 3 + 8 * g
    assert len(body) - head == 4 * 2 * k * k * n * (1 + g) + secret * 4 * k * n


def test_ciphertext_residues_are_u32(real_keys):
    """17 + 4·(d+1)·k·n bytes: an 11-byte container header, the 6-byte
    shape header (u8 components ‖ u8 k ‖ u32 n), then u32 residues."""
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(4))
    fresh = backend.encrypt([1] * PARAMS.n)
    k, n = len(PARAMS.q_chain), PARAMS.n
    for ct in (fresh, backend.mul_no_relin(fresh, fresh)):
        assert len(sz.save_ciphertext(ct)) == 17 + 4 * ct.degree * k * n


def test_mul_no_relin_output_survives_the_wire(real_keys):
    backend = bfv.BfvBackend(PARAMS, real_keys, rng=np.random.default_rng(9))
    a = [i * 3 % PARAMS.t for i in range(PARAMS.n)]
    b = [i * 5 + 1 for i in range(PARAMS.n)]
    raw = backend.mul_no_relin(backend.encrypt(a), backend.encrypt(b))
    back, _ = sz.load_ciphertext(sz.save_ciphertext(raw))
    assert back.data.shape == raw.data.shape == (3, len(PARAMS.q_chain), PARAMS.n)
    assert backend.decrypt(backend.relinearize(back)) == [x * y % PARAMS.t for x, y in zip(a, b)]


@pytest.mark.parametrize("blocks", [-1, 1])
def test_keyset_body_one_array_off_refused(real_keys, blocks):
    """One (k, n) residue array short or long: the length the parameters
    and the Galois count imply no longer matches, so nothing is parsed."""
    blob = sz.save_keyset(real_keys, include_secret=True)
    _, body, _ = sz.read_container(blob)
    step = 4 * len(PARAMS.q_chain) * PARAMS.n
    body = body[:step * blocks] if blocks < 0 else body + body[-step:]
    with pytest.raises(SerializationError, match="residue blocks"):
        sz.load_keyset(_container(sz.TYPE_KEYSET, body))


def _drop_rlk_pair(keys):
    return bfv.KeySet(keys.params, keys.rlk[:, :-1], keys.gks, keys.sk_ntt)


def _out_of_range_gk(keys):
    g = min(keys.gks)
    gk = keys.gks[g].copy()
    gk[0, 0, 1, 5] = PARAMS.q_chain[1]  # one residue equal to its prime
    return bfv.KeySet(keys.params, keys.rlk, {**keys.gks, g: gk}, keys.sk_ntt)


@pytest.mark.parametrize("corrupt", [_drop_rlk_pair, _out_of_range_gk])
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


# ---------------------------------------------------------------------------
# hostile bytes: every loader returns an object or raises SerializationError
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _fuzz_blobs():
    """One blob of every container type on mock64, with its loader."""
    mock = MockBackend(PARAMS, rng=random.Random(20))
    keys = bfv.keygen(PARAMS, rotation_steps=(1,), rng=np.random.default_rng(21))
    real = bfv.BfvBackend(PARAMS, keys, rng=np.random.default_rng(22))
    vals = [i % PARAMS.t for i in range(PARAMS.n)]
    real_ct = real.mul_no_relin(real.encrypt(vals), real.encrypt(vals))
    rsec = rep.rep_keygen(PARAMS, lam=4, rng=random.Random(23))
    rauth = rep.rep_auth(rsec, mock, [5, 6, 7], "series")
    psec = pe.pe_keygen(PARAMS, rng=random.Random(24))
    pauth = pe.pe_auth(psec, mock, vals, "vec")
    load_ct = lambda blob: sz.load_ciphertext(blob)[0]  # noqa: E731
    return (
        (sz.save_params(PARAMS), sz.load_params),
        (sz.save_keyset(keys), sz.load_keyset),
        (sz.save_keyset(keys, include_secret=True), sz.load_keyset),
        (sz.save_ciphertext(real_ct), load_ct),
        (sz.save_ciphertext(mock.encrypt(vals)), load_ct),
        (sz.save_rep_secret(rsec), sz.load_rep_secret),
        (sz.save_rep_auth(rauth), sz.load_rep_auth),
        (sz.save_rep_result(rep.RepResult(rauth.cts, b"\x42" * 64, 4)), sz.load_rep_result),
        (sz.save_pe_secret(psec), sz.load_pe_secret),
        (sz.save_pe_auth(pauth), sz.load_pe_auth),
        (sz.save_pe_auth(pe.PeAuth((real_ct, real_ct))), sz.load_pe_auth),
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_loaders_refuse_truncated_and_flipped_containers(data):
    blob, loader = data.draw(st.sampled_from(_fuzz_blobs()))
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        blob = blob[:at]
    else:
        blob = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1 :]
    for load in (loader, sz.load_any):
        try:
            load(blob)
        except SerializationError:
            pass


def _rep_auth_body():
    mock = MockBackend(PARAMS, rng=random.Random(25))
    sec = rep.rep_keygen(PARAMS, lam=4, rng=random.Random(26), make_he_keys=False)
    _, body, _ = sz.read_container(sz.save_rep_auth(rep.rep_auth(sec, mock, [1], "x")))
    return body


def test_rep_auth_cut_to_one_byte_refused():
    with pytest.raises(SerializationError):
        sz.load_rep_auth(_container(sz.TYPE_REP_AUTH, _rep_auth_body()[:1]))


def test_non_utf8_label_refused():
    body = _rep_auth_body()
    body = body[:6] + b"\xff" + body[7:]  # u16 ident length, u32 label length, label
    with pytest.raises(SerializationError, match="UTF-8"):
        sz.load_rep_auth(_container(sz.TYPE_REP_AUTH, body))
