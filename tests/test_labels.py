"""Identifiers, PRF outputs, tag folding, the gate hash tree, and the
identifier registry."""

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe.circuit import ProgramBuilder
from vhe.errors import IdentifierReuseError, ParameterError
from vhe.labels import (
    DIGEST_BYTES,
    Identifier,
    LabelRegistry,
    PrfKey,
    fold_tags,
    hash_tree_eval,
    prf_tag,
    prf_stream,
    prf_tags,
    prf_zt,
)
from vhe.params import preset

KEY = PrfKey(bytes(range(32)))
KEY2 = PrfKey(bytes(range(1, 33)))


def test_identifier_canonical_bytes_distinct():
    idents = [
        Identifier("x"),
        Identifier("y"),
        Identifier("x", 0),
        Identifier("x", 1),
        Identifier("x0"),          # must not collide with ("x", 0)
        Identifier("ab"),
        Identifier("a"),
    ]
    blobs = [i.canonical_bytes() for i in idents]
    assert len(set(blobs)) == len(blobs)


def test_identifier_length_prefix_prevents_concatenation_tricks():
    # same concatenated text, different split
    a = Identifier("ab").canonical_bytes() + Identifier("c").canonical_bytes()
    b = Identifier("a").canonical_bytes() + Identifier("bc").canonical_bytes()
    assert a != b


def test_with_slot():
    base = Identifier("data")
    assert base.with_slot(3) == Identifier("data", 3)
    with pytest.raises(ParameterError):
        base.with_slot(3).with_slot(4)
    with pytest.raises(ParameterError):
        Identifier("data", -1).canonical_bytes()


@pytest.mark.parametrize("label, slot", [
    (7, None), (b"x", None), ("x", -1), ("x", True), ("x", 1.0), ("x", 2**64),
])
def test_identifier_checks_itself_on_construction(label, slot):
    with pytest.raises(ParameterError):
        Identifier(label, slot)


def test_identifier_head_starts_every_encoding():
    ident = Identifier("données")
    assert ident.head == struct.pack("<I", 8) + "données".encode()
    assert ident.canonical_bytes() == ident.head + b"\x00"
    assert Identifier("données", 5).canonical_bytes() == ident.head + struct.pack("<BQ", 1, 5)


def test_prf_key_validation():
    with pytest.raises(ParameterError):
        PrfKey(b"short")
    k = PrfKey.generate(random.Random(1))
    assert len(k.key) == 32
    assert PrfKey.generate(random.Random(1)) == k  # deterministic under a seed


def test_prf_zt_range_and_sensitivity():
    t = 40961
    v = prf_zt(KEY, Identifier("x", 0), t)
    assert 0 <= v < t
    assert prf_zt(KEY, Identifier("x", 0), t) == v
    assert prf_zt(KEY2, Identifier("x", 0), t) != v
    assert prf_zt(KEY, Identifier("x", 1), t) != v
    assert prf_zt(KEY, Identifier("y", 0), t) != v
    assert prf_zt(KEY, Identifier("x", 0), t, aux=0) != v
    assert prf_zt(KEY, Identifier("x", 0), t, aux=1) != prf_zt(
        KEY, Identifier("x", 0), t, aux=0
    )
    with pytest.raises(ParameterError):
        prf_zt(KEY, Identifier("x"), 1)


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=1 << 60), st.integers(0, 1 << 32))
def test_prf_zt_always_in_range(t, slot):
    assert 0 <= prf_zt(KEY, Identifier("p", slot), t) < t


WIDE_T = preset("mock64_wide").t  # 40 bits


def reference_stream(key, label: str, t: int, count: int, aux=None) -> list[int]:
    """The first `count` (≤ 1024, inside block 0) values of a challenge
    stream, word by word from the definition."""
    lab = label.encode("utf-8")
    name = struct.pack("<I", len(lab)) + lab + b"\x02"
    aux_bytes = b"\x00" if aux is None else b"\x01" + struct.pack("<Q", aux)
    xof = hashlib.shake_256(
        b"vhe:prf-stream\x00\x00" + key.key + name + aux_bytes + struct.pack("<Q", 0)
    )
    size = 4 if t.bit_length() <= 32 else 8
    data = xof.digest(size * 64 * count)
    words = (int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))
    kept = [w for w in (w & ((1 << t.bit_length()) - 1) for w in words) if w < t]
    return kept[:count]


def test_prf_stream_known_answers():
    base = Identifier("kat")
    assert prf_stream(KEY, base, 40961, 8).tolist() == [
        11088, 31824, 31253, 1260, 17204, 22210, 18057, 40544,
    ]
    assert prf_stream(KEY, base, WIDE_T, 8).tolist() == [
        347355916925, 535658579593, 382076575690, 477293889686,
        123108959232, 203173311523, 344601713467, 11706826770,
    ]
    for t in (40961, WIDE_T):
        for aux in (None, 3):
            assert prf_stream(KEY, base, t, 8, aux).tolist() == reference_stream(
                KEY, "kat", t, 8, aux
            )


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()[:32]


@pytest.mark.parametrize("t, aux, digest", [
    (40961, None, "d882823ab72de168b389af9a481741de"),
    (40961, 5, "e6657c1bfba33a24b2678930468d3f95"),
    (WIDE_T, None, "1e1af2e96366adc9f5aa647105b0589f"),
    (WIDE_T, 5, "90092b3890061d0cc2a470246a8145ae"),
    (3, None, "73b88c1c0a5641113bda39768934a010"),
])
def test_prf_stream_matches_its_pinned_digest(t, aux, digest):
    """2,500 values, three XOF blocks: how much of a block is read at once
    must never move a value."""
    assert _digest(prf_stream(KEY, Identifier("x"), t, 2500, aux)) == digest


def test_prf_tags_match_their_pinned_digest():
    tags = b"".join(prf_tags(KEY, Identifier("x"), 40))
    assert hashlib.sha256(tags).hexdigest()[:32] == "954bd8272f452bc700ed720a304a176a"


@settings(max_examples=40)
@given(
    st.integers(min_value=2, max_value=1 << 60),
    st.integers(0, 2500),
    st.integers(0, 2500),
    st.none() | st.integers(0, 2**64 - 1),
)
def test_prf_stream_prefix_and_range(t, c1, c2, aux):
    """A shorter stream is a prefix of a longer one; every value is in [0, t)."""
    short, long_ = sorted((c1, c2))
    a = prf_stream(KEY, Identifier("p"), t, short, aux)
    b = prf_stream(KEY, Identifier("p"), t, long_, aux)
    assert a.dtype == b.dtype == np.int64 and len(b) == long_
    assert a.tolist() == b[:short].tolist()
    assert ((b >= 0) & (b < t)).all()


@settings(max_examples=30)
@given(
    st.text(min_size=0, max_size=12),
    st.integers(min_value=2, max_value=1 << 60),
    st.integers(1, 2100),
    st.none() | st.integers(0, 2**64 - 1),
)
def test_prf_stream_equals_prf_zt(label, t, count, aux):
    """Element i of the stream of (base, aux) is prf_zt of (base, slot i),
    across block boundaries and for non-ASCII labels."""
    base = Identifier(label)
    stream = prf_stream(KEY, base, t, count, aux)
    for i in {0, count // 2, count - 1, min(1023, count - 1)}:
        assert stream[i] == prf_zt(KEY, base.with_slot(i), t, aux=aux)


def test_prf_stream_rejects_what_prf_zt_rejects():
    with pytest.raises(ParameterError):
        prf_stream(KEY, Identifier("x"), 1, 4)
    with pytest.raises(ParameterError):
        prf_stream(KEY, Identifier("x", 2), 97, 4)
    with pytest.raises(ParameterError):
        prf_stream(KEY, Identifier("x"), 97, 4, aux=-1)
    with pytest.raises(ParameterError):
        prf_stream(KEY, Identifier("x"), 97, -1)
    with pytest.raises(ParameterError):
        prf_stream(KEY, Identifier("x"), 1 << 63, 4)
    assert prf_stream(KEY, Identifier("ünï"), 97, 6, aux=2)[5] == prf_zt(
        KEY, Identifier("ünï", 5), 97, aux=2
    )
    # a slotless identifier reads its own stream, not slot 0 of its base's
    t = 1 << 60
    assert prf_zt(KEY, Identifier("x"), t) != prf_zt(KEY, Identifier("x", 0), t)


def test_prf_tags_equal_prf_tag():
    for label in ("w", "ünï", ""):
        base = Identifier(label)
        tags = prf_tags(KEY, base, 5)
        assert tags == [prf_tag(KEY, base.with_slot(i)) for i in range(5)]
    assert prf_tags(KEY, Identifier("w"), 0) == []
    with pytest.raises(ParameterError):
        prf_tags(KEY, Identifier("w", 1), 2)


def test_prf_tag_shape_and_independence():
    tag = prf_tag(KEY, Identifier("x", 0))
    assert len(tag) == DIGEST_BYTES
    assert prf_tag(KEY, Identifier("x", 0)) == tag
    assert prf_tag(KEY, Identifier("x", 1)) != tag
    assert prf_tag(KEY2, Identifier("x", 0)) != tag


def test_fold_tags():
    t0 = prf_tag(KEY, Identifier("x", 0))
    t1 = prf_tag(KEY, Identifier("x", 1))
    assert fold_tags([t0]) == t0
    assert fold_tags([t0, t1]) != fold_tags([t1, t0])
    assert len(fold_tags([t0, t1])) == DIGEST_BYTES
    with pytest.raises(ParameterError):
        fold_tags([])
    with pytest.raises(ParameterError):
        fold_tags([b"short"])
    with pytest.raises(ParameterError, match="64-byte"):
        fold_tags([t0, t1 + b"\0"])


def _two_input_program(const=(2, 3), step=1, block=2):
    b = ProgramBuilder(width=4)
    x = b.input("x")
    y = b.input("y")
    g = b.mul(x, y)
    g = b.mul_plain(g, const * 2)
    g = b.rotate(g, step)
    g = b.inner_sum(g, block)
    return b.build(g)


def test_hash_tree_sensitivity():
    leaves = [prf_tag(KEY, Identifier("x")), prf_tag(KEY, Identifier("y"))]
    base = hash_tree_eval(_two_input_program(), leaves)
    assert len(base) == DIGEST_BYTES
    # same everything -> same digest
    assert hash_tree_eval(_two_input_program(), leaves) == base
    # any structural change -> different digest
    assert hash_tree_eval(_two_input_program(const=(2, 4)), leaves) != base
    assert hash_tree_eval(_two_input_program(step=-1), leaves) != base
    assert hash_tree_eval(_two_input_program(block=1), leaves) != base
    # input identity change -> different digest
    other = [prf_tag(KEY, Identifier("z")), leaves[1]]
    assert hash_tree_eval(_two_input_program(), other) != base
    # leaf order matters
    assert hash_tree_eval(_two_input_program(), leaves[::-1]) != base


def test_hash_tree_leaf_count_checked():
    leaves = [prf_tag(KEY, Identifier("x"))]
    with pytest.raises(ParameterError):
        hash_tree_eval(_two_input_program(), leaves)
    with pytest.raises(ParameterError):
        hash_tree_eval(_two_input_program(), [b"x" * 64, b"bad"])


def test_registry_rejects_reuse():
    reg = LabelRegistry()
    reg.register(Identifier("a"))
    reg.register(Identifier("b"))
    with pytest.raises(IdentifierReuseError):
        reg.register(Identifier("a"))
    assert Identifier("a") in reg
    assert Identifier("c") not in reg
    assert len(reg) == 2


def test_registry_snapshot_restore():
    reg = LabelRegistry()
    for name in ("a", "b", "c"):
        reg.register(Identifier(name))
    copy = LabelRegistry.restore(reg.snapshot())
    assert len(copy) == 3
    with pytest.raises(IdentifierReuseError):
        copy.register(Identifier("b"))
