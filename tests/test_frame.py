"""The frame REP and PE share: a base identifier is spent once, and only by
an authentication that succeeds; inputs are bound to the program before
any arithmetic; and both verifier secrets share one container layout."""

import dataclasses
import hashlib
import random
import re

import numpy as np
import pytest

from vhe import bfv, pe, rep, serialize
from vhe.circuit import ProgramBuilder
from vhe.errors import IdentifierReuseError, ParameterError, SerializationError
from vhe.labels import Identifier, PrfKey
from vhe.mock import MockBackend
from vhe.params import preset

PARAMS = preset("mock64")
N = PARAMS.n
LAM = 8


@dataclasses.dataclass(frozen=True)
class Scheme:
    width: int
    keygen: object  # keygen(rng=..., make_he_keys=...)
    auth: object
    eval: object  # eval(program, auths, backend)
    values: list  # a vector auth takes
    refused: list  # a vector auth refuses


SCHEMES = {
    "rep": Scheme(
        N // LAM,
        lambda **kw: rep.rep_keygen(PARAMS, lam=LAM, **kw),
        rep.rep_auth,
        lambda p, a, b: rep.rep_eval(p, a, b, lam=LAM),
        [1, 2, 3],
        [],
    ),
    "pe": Scheme(N, lambda **kw: pe.pe_keygen(PARAMS, **kw), pe.pe_auth, pe.pe_eval, [5] * N, [5] * (N - 1)),
}


@pytest.fixture(params=sorted(SCHEMES))
def scheme(request) -> Scheme:
    return SCHEMES[request.param]


def _product(width):
    b = ProgramBuilder(width, name="xy")
    return b.build(b.mul(b.input("x"), b.input("y")))


def test_eval_binds_inputs_before_any_arithmetic(scheme):
    """Both encodings refuse a wrong input count, an input authenticated
    under another identifier and a shrunk operand, with the same error."""
    secret = scheme.keygen(rng=random.Random(1), make_he_keys=True)
    backend = bfv.BfvBackend(PARAMS, secret.he_keys, rng=np.random.default_rng(2))
    x, y, z = (scheme.auth(secret, backend, scheme.values, b) for b in ("x", "y", "z"))
    program = _product(scheme.width)
    with pytest.raises(ParameterError, match="^one authentication per program input required$"):
        scheme.eval(program, [x], backend)
    renamed = (
        f"input 1 was authenticated as {Identifier('z')!r} but the program names it "
        f"{Identifier('y')!r}; verification would reject"
    )
    with pytest.raises(ParameterError, match=f"^{re.escape(renamed)}$"):
        scheme.eval(program, [x, z], backend)
    shrunk = dataclasses.replace(y, cts=(backend.shrink(y.cts[0]),) + y.cts[1:])
    stack = re.escape(f"ciphertext must be an int64 (2, {len(PARAMS.q_chain)}, {N}) residue stack")
    with pytest.raises(SerializationError, match=f"^{stack}$"):
        scheme.eval(program, [x, shrunk], backend)


def test_auth_refuses_a_slotted_or_spent_base(scheme):
    secret = scheme.keygen(rng=random.Random(3), make_he_keys=False)
    backend = MockBackend(PARAMS, rng=random.Random(4))
    with pytest.raises(ParameterError, match="^base identifier must not carry a slot index$"):
        scheme.auth(secret, backend, scheme.values, Identifier("x", 2))
    assert len(secret.registry) == 0
    assert scheme.auth(secret, backend, scheme.values, "x").base == Identifier("x")
    with pytest.raises(IdentifierReuseError):
        scheme.auth(secret, backend, scheme.values, Identifier("x"))
    assert len(secret.registry) == 1


def test_a_refused_auth_spends_no_identifier(scheme):
    """A vector auth refuses (empty under REP, short under PE) leaves its
    base unspent, so the corrected retry under the same base succeeds."""
    secret = scheme.keygen(rng=random.Random(5), make_he_keys=False)
    backend = MockBackend(PARAMS, rng=random.Random(6))
    with pytest.raises(ParameterError):
        scheme.auth(secret, backend, scheme.refused, "x")
    assert Identifier("x") not in secret.registry
    scheme.auth(secret, backend, scheme.values, "x")
    assert Identifier("x") in secret.registry


def test_secret_containers_are_byte_stable():
    """One seeded mock secret per encoding, each with two spent
    identifiers, serializes to pinned bytes: a field the shared writer
    moves (params ‖ head ‖ PRF key ‖ keyset flag ‖ registry with each
    identifier's value count) changes them, where a save/load roundtrip
    would not notice."""
    backend = MockBackend(PARAMS, rng=random.Random(4))
    rs = rep.rep_keygen(PARAMS, lam=LAM, rng=random.Random(3), make_he_keys=False)
    rep.rep_auth(rs, backend, [1, 2, 3], "x")
    rep.rep_auth(rs, backend, [4], "y")
    ps = pe.pe_keygen(PARAMS, rng=random.Random(5), make_he_keys=False)
    pe.pe_auth(ps, backend, list(range(N)), "x")
    pe.pe_auth(ps, backend, [7] * N, "y")
    digests = [hashlib.sha256(blob).hexdigest() for blob in (
        serialize.save_rep_secret(rs), serialize.save_pe_secret(ps))]
    assert digests == [
        "c67833361d4537aa8bad90c8afca2487d48b88259ece625c44da44d706a754c2",
        "5d90b36a14df45fee54d1fe095a0eccb9492f4e61f6177637d6ae44cfd1f9012",
    ]
    assert serialize.load_rep_secret(serialize.save_rep_secret(rs)).registry.lengths(
        [Identifier("y"), Identifier("x")]) == [1, 3]


def test_unseeded_keygen_draws_from_the_os(scheme, monkeypatch):
    """Without an rng, keygen passes none on: the PRF key and the HE key
    generator draw from `secrets` (256 and 128 bits), not from a 64-bit
    seed.  A seeded keygen hands its generator to both."""
    passed = []
    generate, program_keys = PrfKey.generate.__func__, bfv.program_keys
    monkeypatch.setattr(PrfKey, "generate", classmethod(
        lambda cls, rng=None: passed.append(("prf", rng)) or generate(cls, rng)))
    monkeypatch.setattr(bfv, "program_keys", lambda *a, rng=None, **kw: passed.append(("he", rng)) or program_keys(
        *a, rng=rng, **kw))
    scheme.keygen(make_he_keys=True)
    assert passed == [("prf", None), ("he", None)]
    passed.clear()
    rng = random.Random(7)
    scheme.keygen(rng=rng, make_he_keys=True)
    assert passed[0] == ("prf", rng) and isinstance(passed[1][1], np.random.Generator)
