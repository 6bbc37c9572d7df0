"""Exact-semantics stand-in for the encrypted backend.

A mock ciphertext carries its slot vector in the clear plus a
multiplicative-depth counter and a freshness nonce.  The slot arithmetic,
rotations and inner sums are the ``slot_*`` functions of
:mod:`vhe.circuit`, the same ones the plaintext oracle runs, so the mock
cannot drift from the oracle; the real backend is tested against both.
This module adds only the bookkeeping (depth, nonces) and the input checks
the real backend makes, so large-trial statistics run here at full speed.

Depth accounting: ciphertext-ciphertext multiplication raises the counter
to max(d₁, d₂) + 1; all other gates preserve it.  A backend constructed
with a ``depth_limit`` simulates noise exhaustion: decrypting anything
beyond the limit raises DecryptionFailureError, mirroring where the real
backend surfaces overflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .circuit import slot_add, slot_inner_sum, slot_mul, slot_row_swap, slot_rotate, slot_sub
from .errors import DecryptionFailureError, LayoutError, ParameterError
from .params import Params


@dataclass(frozen=True)
class MockCiphertext:
    slots: tuple
    depth: int
    nonce: int

    @property
    def degree(self) -> int:
        return 2  # shaped like a fresh (c0, c1) pair

    def __len__(self):
        return len(self.slots)


class MockBackend:
    """Drop-in backend with plaintext slots; deterministic under a seeded rng."""

    backend_tag = "mock"

    def __init__(self, params: Params, depth_limit: int | None = None, rng=None):
        self.params = params
        self.depth_limit = depth_limit
        self._rng = rng if rng is not None else random.Random()

    # -- lifecycle ----------------------------------------------------------

    def encrypt(self, slots) -> MockCiphertext:
        n, t = self.params.n, self.params.t
        vals = tuple(int(v) % t for v in slots)
        if len(vals) != n:
            raise ParameterError(f"expected {n} slots, got {len(vals)}")
        return MockCiphertext(vals, 0, self._rng.getrandbits(64))

    def encrypt_zero(self) -> MockCiphertext:
        return self.encrypt([0] * self.params.n)

    def decrypt(self, ct: MockCiphertext) -> list[int]:
        if self.depth_limit is not None and ct.depth > self.depth_limit:
            raise DecryptionFailureError(
                f"simulated noise overflow: depth {ct.depth} > limit {self.depth_limit}"
            )
        return list(ct.slots)

    def noise_budget(self, ct: MockCiphertext) -> float:
        if self.depth_limit is None:
            return float("inf")
        return float(self.depth_limit - ct.depth)

    # -- arithmetic -----------------------------------------------------------

    def _fresh(self, slots, depth) -> MockCiphertext:
        return MockCiphertext(tuple(slots), depth, self._rng.getrandbits(64))

    def add(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._fresh(slot_add(a.slots, b.slots, self.params.t), max(a.depth, b.depth))

    def sub(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._fresh(slot_sub(a.slots, b.slots, self.params.t), max(a.depth, b.depth))

    def neg(self, a: MockCiphertext) -> MockCiphertext:
        t = self.params.t
        return self._fresh((-x % t for x in a.slots), a.depth)

    def mul(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._fresh(slot_mul(a.slots, b.slots, self.params.t), max(a.depth, b.depth) + 1)

    def mul_plain(self, a: MockCiphertext, const) -> MockCiphertext:
        const = list(const)
        if len(const) != self.params.n:
            raise ParameterError("constant vector must cover every slot")
        return self._fresh(slot_mul(a.slots, map(int, const), self.params.t), a.depth)

    def rotate(self, a: MockCiphertext, step: int) -> MockCiphertext:
        row = self.params.n // 2
        if step % row == 0:
            return a
        if not (-row < step < row):
            raise ParameterError(f"rotation step must satisfy |step| < {row}")
        return self._fresh(slot_rotate(a.slots, step), a.depth)

    def row_swap(self, a: MockCiphertext) -> MockCiphertext:
        return self._fresh(slot_row_swap(a.slots), a.depth)

    def inner_sum(self, a: MockCiphertext, block: int, stride: int = 1) -> MockCiphertext:
        row = self.params.n // 2
        bs = block * stride
        if block < 1 or block & (block - 1) or bs > row or row % bs:
            raise LayoutError(
                f"inner_sum block {block} (stride {stride}) must tile a row of {row}"
            )
        return self._fresh(slot_inner_sum(a.slots, block, self.params.t, stride), a.depth)
