"""The cloud's residue stacks are reduced without `%` by a modulus column,
and bit for bit as `%` would reduce them.

bfv reduces a sum or difference by one min-subtract (ring.fold_rows) and a
product or accumulator by floor division by each row's prime
(ring.reduce_rows).  Each operation here is checked against the same code
with both helpers replaced by `%`, and the linear ones against `%` written
out, on all-zero, all-(q − 1) and hypothesis-drawn stacks.  An ``ast``
check, in the style of test_imports.py, keeps `%` by a column out of bfv.
"""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe import bfv
from vhe.params import preset
from vhe.ring import batch_encode_array, fold_rows, reduce_rows, stack_ntt

BFV = Path(bfv.__file__)
PRESETS = ("mock64", "mock64_wide", "n4096")  # mock64_wide: t above the chain primes


@functools.lru_cache(maxsize=None)
def backend(name):
    params = preset(name)
    keys = bfv.keygen(params, rotation_steps=(1, -3), rng=np.random.default_rng(60))
    return bfv.BfvBackend(params, keys, rng=np.random.default_rng(61))


def by_remainder(y, q, tmp=None):
    """What both ring helpers stand for: y %= q by the column, in place."""
    np.remainder(y, q, out=y)
    return y


def cloud_ops(be, a, b, c3, slots) -> dict:
    """Every cloud operation on degree-2 stacks a, b and degree-3 c3."""
    sa, sb = be.shrink(a), be.shrink(b)
    return {
        "add": be.add(a, b),
        "sub": be.sub(a, b),
        "neg": be.neg(a),
        "add shrunk": be.add(sa, sb),
        "sub shrunk": be.sub(sa, sb),
        "mul_plain": be.mul_plain(a, slots),
        "mul": be.mul(a, b),
        "square": be.mul(a, a),
        "relinearize": be.relinearize(c3),
        "rotate": be.rotate(a, 1),
        "rotate -3": be.rotate(b, -3),
        "shrink": sa,
    }


def check_reductions(be, a, b, c3, slots):
    """Each operation equals the same code with `%` for both helpers, its
    output taken mod q once more (a reduction left out shows), and the
    linear ones equal `%` written out."""
    a, b, c3 = bfv.Ciphertext(a), bfv.Ciphertext(b), bfv.Ciphertext(c3)
    got = cloud_ops(be, a, b, c3, slots)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bfv, "reduce_rows", by_remainder)
        mp.setattr(bfv, "fold_rows", by_remainder)
        want = cloud_ops(be, a, b, c3, slots)
    q, kept = be._q, be.params.shrink_primes
    for name, ct in got.items():
        assert np.array_equal(ct.data, want[name].data % q[: ct.data.shape[1]]), name

    sa, sb = got["shrink"].data, be.shrink(b).data
    plain = stack_ntt(batch_encode_array(slots, be.t_mod)[None] % q, be.mods)
    written = {
        "add": (a.data + b.data) % q,
        "sub": (a.data - b.data) % q,
        "neg": -a.data % q,
        "add shrunk": (sa + sb) % q[:kept],
        "sub shrunk": (sa - sb) % q[:kept],
        "mul_plain": a.data * plain % q,
    }
    for name, data in written.items():
        assert np.array_equal(got[name].data, data), name
    assert np.array_equal(got["mul"].data, be.relinearize(be.mul_no_relin(a, b)).data)


def edge_stack(be, value, degree=2):
    """A (degree, k, n) stack with every residue value(q_i)."""
    q = be._q
    return np.broadcast_to(value(q), (degree, len(q), be.params.n)).copy()


def slots(be, seed):
    return np.random.default_rng(seed).integers(0, be.params.t, be.params.n)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("edge", ["zero", "q-1"], ids=str)
def test_every_reduction_is_the_remainder_on_edge_stacks(name, edge):
    be = backend(name)
    value = (lambda q: 0 * q) if edge == "zero" else (lambda q: q - 1)
    a, c3 = edge_stack(be, value), edge_stack(be, value, degree=3)
    check_reductions(be, a, a.copy(), c3, slots(be, 62))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(PRESETS), st.integers(0, 2**32 - 1))
def test_every_reduction_is_the_remainder_on_drawn_stacks(name, seed):
    """Residues drawn from 0, 1, ⌊q/2⌋, q − 1 and uniform in [0, q), mixed."""
    be = backend(name)
    rng = np.random.default_rng(seed)
    q = be._q

    def stack(degree):
        shape = (degree, len(q), be.params.n)
        edges = np.stack(np.broadcast_arrays(0 * q, 0 * q + 1, q // 2, q - 1, rng.integers(0, q, shape)))
        pick = rng.integers(0, len(edges), shape)
        return np.take_along_axis(np.broadcast_to(edges, (len(edges),) + shape), pick[None], 0)[0]

    check_reductions(be, stack(2), stack(2), stack(3), slots(be, seed))


@pytest.mark.parametrize("lead", [(), (2,), (3, 2)], ids=str)
@pytest.mark.parametrize("dtype", [np.int64, np.uint64], ids=str)
@pytest.mark.parametrize("buffered", [False, True], ids=["row buffer", "stack buffer"])
def test_ring_reductions_are_the_remainder(lead, dtype, buffered):
    """fold_rows on [0, 2q) and reduce_rows on [0, 2^62), in place, with a
    stack-sized work buffer or without, equal `%` by the column."""
    q = backend("n4096")._q.astype(dtype)
    rng = np.random.default_rng(63)
    shape = lead + (len(q), 64)
    edges = np.concatenate([0 * q, q - 1, q, 2 * q - 1], axis=1)
    below_2q = np.broadcast_to(np.concatenate([edges, rng.integers(0, 2 * q, (len(q), 60))], axis=1), shape)
    wide = rng.integers(0, 2**62, shape).astype(dtype)
    wide[..., :4] = edges
    for reduce, x in ((fold_rows, below_2q), (reduce_rows, wide)):
        want = x % q
        tmp = np.empty(shape, dtype=np.uint64 if reduce is fold_rows else dtype) if buffered else None
        y = x.astype(dtype)  # a fresh copy
        assert reduce(y, q, tmp) is y and np.array_equal(y, want), reduce.__name__


# ---------------------------------------------------------------------------
# no `%` by a modulus column in bfv
# ---------------------------------------------------------------------------


def _key(node):
    """A name or attribute, subscripts stripped, as ("name"/"attr", id)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute):
        return ("attr", node.attr)
    return None


def _is_column(node) -> bool:
    """np.array(primes, …)[:, None]: the primes, a name or attribute so
    called, made into a modulus column."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Tuple)
        and any(isinstance(e, ast.Constant) and e.value is None for e in node.slice.elts)
        and isinstance(node.value, ast.Call)
        and bool(node.value.args)
        and (_key(node.value.args[0]) or ("", ""))[1] == "primes"
    )


def column_remainders(source: str) -> list[int]:
    """The lines where `%`, `%=` or np.remainder/np.mod takes a modulus column
    on its right: a column of the primes, or a name or attribute bound to
    one, or to a name bound to one, and so on (subscripts ignored)."""
    tree = ast.parse(source)
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
        elif isinstance(node, ast.NamedExpr):
            pairs.append((node.target, node.value))
    columns: set = set()
    while True:
        found = {_key(t) for t, v in pairs if _is_column(v) or _key(v) in columns} - columns - {None}
        if not found:
            break
        columns |= found
    bad = []
    for node in ast.walk(tree):
        right = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod):
            right = node.right if isinstance(node, ast.BinOp) else node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("remainder", "mod", "fmod") and len(node.args) > 1):
            right = node.args[1]
        if right is not None and (_is_column(right) or _key(right) in columns):
            bad.append(node.lineno)
    return sorted(bad)


def test_the_guard_finds_a_remainder_by_a_column():
    source = (
        "q = np.array(primes)[:, None]\n"
        "self._q = q\n"
        "qe = ext.col\n"
        "ext.col = np.array(self.primes, dtype=np.int64)[:, None]\n"
        "x = y % q\n"
        "x %= self._q[:k]\n"
        "np.remainder(y, qe, out=y)\n"
        "a = step % (n // 2) + v % p + t % len(q)\n"
        "b, c = q // 2, np.arange(k)\n"
        "self.t = np.array([t % p for p in primes])[:, None]\n"
        "c = c % 3 + y % self.t\n"
        "d = y % np.array(primes)[:, None]\n"
    )
    assert column_remainders(source) == [5, 6, 7, 12]


def test_bfv_reduces_no_stack_by_remainder():
    assert column_remainders(BFV.read_text(encoding="utf-8")) == []
