"""Identifiers, PRF outputs, tag folding, the gate hash tree, and the
identifier registry."""

import random

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
    prf_zt,
    slot_prf,
)

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


@settings(max_examples=60)
@given(
    st.text(min_size=0, max_size=12),
    st.integers(min_value=2, max_value=1 << 60),
    st.lists(st.tuples(st.integers(0, 2**64 - 1), st.none() | st.integers(0, 2**64 - 1)), max_size=6),
)
def test_slot_prf_equals_prf_zt(label, t, points):
    """The prefix-state helper gives prf_zt's values for every (slot, aux),
    non-ASCII labels included."""
    prf = slot_prf(KEY, Identifier(label), t)
    for slot, aux in points + [(0, None), (3, 0), (3, 1)]:
        assert prf(slot, aux) == prf_zt(KEY, Identifier(label, slot), t, aux=aux)


def test_slot_prf_rejects_what_prf_zt_rejects():
    with pytest.raises(ParameterError):
        slot_prf(KEY, Identifier("x"), 1)
    with pytest.raises(ParameterError):
        slot_prf(KEY, Identifier("x", 2), 97)
    prf = slot_prf(KEY, Identifier("ünï"), 97)
    assert prf(5, 2) == prf_zt(KEY, Identifier("ünï", 5), 97, aux=2)
    with pytest.raises(ParameterError):
        prf(-1)
    with pytest.raises(ParameterError):
        prf(0, -1)


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
