"""A hostile peer against either side of the session, drawn by hypothesis.

A scripted cloud sends `client_session` whatever frames are drawn: the
tags the mode expects and others, ciphertext lists of the expected length
or not, of any depth (past the client's simulated noise limit too),
terminal or not and with any u64 slot values, and random bytes.  In every
mode (PE, PE under ReQ, PE with the packed proof, REP) the client must end
with a verdict, a bool and a claim of slots mod t, or raise ProtocolError,
and nothing else.  A scripted client sends `cloud_session` frames drawn the
same way, its mode byte any byte: in every mode the cloud must end with
its result or raise ProtocolError.  The budget is fixed and derandomized,
so the run is the same every time.
"""

import random
import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import pe, rep
from vhe import protocols as pr
from vhe.circuit import ProgramBuilder
from vhe.errors import ProtocolError
from vhe.mock import MockBackend, MockCiphertext
from vhe.params import preset

PARAMS = preset("mock64")
T, N = PARAMS.t, PARAMS.n
DEPTH_LIMIT = 2
LENGTHS = (24, 24)
MODES = ("pe", "pe+req", "pe+pp", "rep")
MODE_BYTES = {"pe": 0, "pe+req": pr.MODE_REQ, "pe+pp": pr.MODE_PP, "rep": 0}


@lru_cache(maxsize=None)
def world(mode):
    """(secret, program, req, pp, the frames an honest cloud sends as
    (tag, ciphertext count, digest bytes)); the secret's registry holds the
    program's inputs, as if it had authenticated them."""
    rng = random.Random(90)
    if mode == "rep":
        sec = rep.rep_keygen(PARAMS, lam=8, rng=rng, make_he_keys=False)
        b = ProgramBuilder(width=N // 8, name="sum")
        prog = b.build(b.add(b.input("a"), b.input("b")), output_block=(0, N // 8))
        for base, length in zip("ab", LENGTHS):
            sec.registry.register(base, length)
        chunks = rep.rep_result_count(sec, prog, LENGTHS)
        return sec, prog, False, False, ((pr.TAG_RESULT, chunks, 64),)
    sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
    b = ProgramBuilder(width=N, name="quartic")
    u, v = b.input("u"), b.input("v")
    prog = b.build(b.mul(b.mul(u, u), b.mul(v, v)), output_block=(0, 4))
    for base in "uv":
        sec.registry.register(base, N)
    req, pp = mode == "pe+req", mode == "pe+pp"
    d, schedule = pe.degree_schedule(prog, use_reducer=req)
    if pp:
        return sec, prog, req, pp, ((pr.TAG_PP_RESULT, 1, 0), (pr.TAG_PP_RESPONSE, 1, 0))
    rounds = ((pr.TAG_REQ_HIGH_TERMS, 2, 0),) * len(schedule) if req else ()
    return sec, prog, req, pp, rounds + ((pr.TAG_RESULT, d + 1, 0),)


@st.composite
def ciphertext(draw):
    """A mock ciphertext of N slots (or, rarely, of another count), mostly
    within the depth limit, terminal or not, with slots below t, 2^63 or
    2^64."""
    n = draw(st.sampled_from([N] * 9 + [N // 2]))
    bound = draw(st.sampled_from([T, T, 1 << 63, 1 << 64]))
    seed = draw(st.integers(0, 2**32 - 1))
    slots = np.random.default_rng(seed).integers(0, bound, size=n, dtype=np.uint64)
    depth = draw(st.one_of(st.integers(0, DEPTH_LIMIT), st.integers(0, DEPTH_LIMIT + 2)))
    return MockCiphertext(slots, depth, draw(st.integers(0, 2**64 - 1)), draw(st.booleans()))


def payload(count, digest):
    """`count` drawn ciphertexts, packed, then `digest` random bytes."""
    cts = st.lists(ciphertext(), min_size=count, max_size=count)
    return st.builds(lambda c, tail: pr.pack_cts(c) + tail, cts, st.binary(min_size=digest, max_size=digest))


def challenge():
    return st.builds(struct.pack, st.just("<QQ"), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))


def frames(expected):
    """A hostile peer's frames: the honest script of (tag, body strategy)
    steps, each step mostly shaped as the honest one (its tag and body) and
    else any tag with ciphertexts of any count, a challenge-sized scalar
    pair or random bytes; then perhaps one frame more, and perhaps cut
    short."""
    tags = st.one_of(st.sampled_from(sorted(pr.TAG_NAMES)), st.integers(0, 255))
    body = st.one_of(
        st.integers(0, 4).flatmap(lambda c: payload(c, 0)), challenge(), st.binary(max_size=128)
    )
    other = st.tuples(tags, body)
    # three distinct honest branches to one other: one_of merges a
    # strategy repeated by identity into one branch
    script = st.tuples(*(
        st.one_of(*[st.tuples(st.just(tag), honest) for _ in range(3)], other) for tag, honest in expected
    ))
    return st.builds(
        lambda steps, extra, cut: [*steps, *extra][:cut],
        script, st.lists(other, max_size=1), st.one_of(st.just(None), st.integers(0, len(expected))),
    )


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_client_session_gives_a_verdict_or_a_protocol_error(mode, data):
    sec, prog, req, pp, expected = world(mode)
    sent = data.draw(frames([(tag, payload(count, digest)) for tag, count, digest in expected]))
    client = MockBackend(PARAMS, depth_limit=DEPTH_LIMIT, rng=random.Random(91))
    ep, cloud = pr.memory_channel(timeout=1.0)
    for tag, body in sent:
        cloud.send(tag, body)
    cloud.close()
    try:
        ok, claim = pr.client_session(sec, client, prog, ep, req, pp, random.Random(92), [])
    except ProtocolError:
        return
    finally:
        ep.close()
    assert isinstance(ok, bool)
    assert all(isinstance(v, int) and 0 <= v < T for v in claim)


@lru_cache(maxsize=None)
def uploads(mode):
    """(the program, the two uploads, the frames an honest client sends as
    (tag, body strategy)): the mode byte, then a blinded pair per ReQ
    round or the packed proof's challenge, each body sometimes malformed
    (a pair of one or three ciphertexts, a challenge of another length)."""
    _, prog, req, pp, _ = world(mode)
    rng = random.Random(93)
    client = MockBackend(PARAMS, rng=rng)
    if mode == "rep":
        sec = rep.rep_keygen(PARAMS, lam=8, rng=rng, make_he_keys=False)
        auths = tuple(
            rep.rep_auth(sec, client, [rng.randrange(T) for _ in range(l)], base)
            for base, l in zip("ab", LENGTHS)
        )
    else:
        sec = pe.pe_keygen(PARAMS, rng=rng, make_he_keys=False)
        auths = tuple(pe.pe_auth(sec, client, [rng.randrange(T) for _ in range(N)], base) for base in "uv")
    _, schedule = pe.degree_schedule(prog, use_reducer=True)
    honest = bytes([MODE_BYTES[mode]])
    mode_byte = st.one_of(*[st.just(honest) for _ in range(3)], st.binary(min_size=1, max_size=1))
    pair = st.sampled_from([2, 2, 1, 3]).flatmap(lambda c: payload(c, 0))  # or one too few or many
    replies = [(pr.TAG_REQ_BLINDED, pair)] * len(schedule) if req else []
    delta_beta = st.one_of(challenge(), challenge(), st.binary(max_size=24))
    return prog, auths, [(pr.TAG_MODE, mode_byte), *replies, *[(pr.TAG_PP_CHALLENGE, delta_beta)] * pp]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_cloud_session_gives_a_result_or_a_protocol_error(mode, data):
    prog, auths, expected = uploads(mode)
    sent = data.draw(frames(expected))
    cloud = MockBackend(PARAMS, rng=random.Random(94))

    def evaluate(reducer):
        if mode == "rep":
            return rep.rep_eval(prog, auths, cloud, lam=8)
        return pe.pe_eval(prog, auths, cloud, reducer=reducer)

    ep, client = pr.memory_channel(timeout=1.0)
    for tag, body in sent:
        client.send(tag, body)
    client.close()
    try:
        result, reducer = pr.cloud_session(cloud, ep, evaluate)
    except ProtocolError:
        return
    finally:
        ep.close()
    assert isinstance(result, rep.RepResult if mode == "rep" else pe.PeAuth)
    assert reducer is None or reducer.rounds == len(pe.degree_schedule(prog, use_reducer=True)[1])
