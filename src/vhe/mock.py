"""Exact-semantics stand-in for the encrypted backend.

A mock ciphertext carries its slot array in the clear plus a
multiplicative-depth counter, a freshness nonce and a terminal flag: `shrink`
marks a ciphertext that will only be decrypted, as the real backend's chain
prefix does, and `check_operand` refuses it.  The slot arithmetic,
rotations and inner sums are the ``slot_*`` functions of
:mod:`vhe.circuit`, the same ones the plaintext oracle runs, so the mock
cannot drift from the oracle; the real backend is tested against both.
This module adds only the bookkeeping (depth, nonces, the flag) and the input checks
the real backend makes, so large-trial statistics run here at full speed.

Depth accounting: ciphertext-ciphertext multiplication raises the counter
to max(d₁, d₂) + 1; all other gates preserve it.  A backend constructed
with a ``depth_limit`` simulates noise exhaustion: decrypting anything
beyond the limit raises DecryptionFailureError, mirroring where the real
backend surfaces overflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    inner_sum_steps, rotation_moves, slot_add, slot_inner_sum, slot_mul, slot_row_swap,
    slot_rotate, slot_sub,
)
from .errors import DecryptionFailureError, ParameterError, SerializationError
from .params import Params
from .ring import slot_array


@dataclass(frozen=True, eq=False)
class MockCiphertext:
    slots: np.ndarray  # read-only; a loaded ciphertext's are the wire's u64
    depth: int
    nonce: int
    terminal: bool = False  # shrunk: only decrypted, never an operand again

    def __len__(self):
        return len(self.slots)

    def __eq__(self, other) -> bool:
        return isinstance(other, MockCiphertext) and (self.depth, self.nonce, self.terminal) == (
            other.depth, other.nonce, other.terminal) and np.array_equal(self.slots, other.slots)


@dataclass(frozen=True)
class MockPlaintext:
    """A slot vector encoded once (MockBackend.encode_plain): its slots mod t."""

    slots: np.ndarray


class MockBackend:
    """Drop-in backend with plaintext slots; deterministic under a seeded rng."""

    def __init__(self, params: Params, depth_limit: int | None = None, rng=None):
        self.params = params
        self.depth_limit = depth_limit
        self._rng = rng if rng is not None else random.Random()
        self._dtype = slot_array([0], params.t).dtype

    # -- lifecycle ----------------------------------------------------------

    def encrypt(self, slots) -> MockCiphertext:
        return self.encrypt_many([slots])[0]

    def encrypt_many(self, rows) -> tuple:
        """One fresh ciphertext per row of slots, nonces drawn in row order."""
        n = self.params.n
        rows = list(rows)
        bad = [len(r) for r in rows if len(r) != n]
        if bad:
            raise ParameterError(f"expected {n} slots, got {bad[0]}")
        return tuple(self._fresh(slot_array(r, self.params.t), 0) for r in rows)

    def encrypt_zero(self) -> MockCiphertext:
        return self.encrypt([0] * self.params.n)

    def decrypt(self, ct: MockCiphertext) -> list[int]:
        return self.decrypt_many([ct])[0].tolist()

    def decrypt_many(self, cts) -> np.ndarray:
        """The (m, n) slots of m ciphertexts, each checked first; a
        ciphertext past `depth_limit` raises DecryptionFailureError."""
        cts = list(cts)
        for ct in cts:
            self._check_received(ct)
        for ct in cts:
            if self.depth_limit is not None and ct.depth > self.depth_limit:
                raise DecryptionFailureError(
                    f"simulated noise overflow: depth {ct.depth} > limit {self.depth_limit}"
                )
        out = np.empty((len(cts), self.params.n), dtype=self._dtype)
        for row, ct in zip(out, cts):
            row[:] = ct.slots
        return out

    def shrink(self, ct: MockCiphertext) -> MockCiphertext:
        """No chain to switch: the same slots, marked terminal, as the real
        backend's chain prefix marks a ciphertext only to be decrypted."""
        return replace(ct, terminal=True)

    def _check_received(self, ct) -> None:
        if not isinstance(ct, MockCiphertext) or len(ct.slots) != self.params.n:
            raise SerializationError(f"operand must be a mock ciphertext of {self.params.n} slots")

    def check_operand(self, ct) -> None:
        """Refuse, like the real backend, an operand that is not a
        ciphertext of this backend's n slots, or a shrunk (terminal) one."""
        self._check_received(ct)
        if ct.terminal:
            raise SerializationError("a shrunk mock ciphertext is terminal and never an operand")

    def noise_budget(self, ct: MockCiphertext) -> float:
        self._check_received(ct)
        if self.depth_limit is None:
            return float("inf")
        return float(self.depth_limit - ct.depth)

    # -- arithmetic -----------------------------------------------------------

    def _vec(self, ct: MockCiphertext):
        """A ciphertext's slots as a slot array mod t (a loaded one's are u64)."""
        return ct.slots if ct.slots.dtype == self._dtype else slot_array(ct.slots, self.params.t)

    def _fresh(self, slots, depth, terminal: bool = False) -> MockCiphertext:
        slots.flags.writeable = False
        return MockCiphertext(slots, depth, self._rng.getrandbits(64), terminal)

    def _binary(self, op, a: MockCiphertext, b: MockCiphertext, depth) -> MockCiphertext:
        """a op b, terminal if either operand is."""
        return self._fresh(op(self._vec(a), self._vec(b), self.params.t), depth,
                           a.terminal or b.terminal)

    def add(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._binary(slot_add, a, b, max(a.depth, b.depth))

    def sub(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._binary(slot_sub, a, b, max(a.depth, b.depth))

    def neg(self, a: MockCiphertext) -> MockCiphertext:
        return self._fresh(-self._vec(a) % self.params.t, a.depth)

    def mul(self, a: MockCiphertext, b: MockCiphertext) -> MockCiphertext:
        return self._binary(slot_mul, a, b, max(a.depth, b.depth) + 1)

    def encode_plain(self, const) -> MockPlaintext:
        if len(const) != self.params.n:
            raise ParameterError("constant vector must cover every slot")
        return MockPlaintext(slot_array(const, self.params.t))

    def mul_plain(self, a: MockCiphertext, const) -> MockCiphertext:
        """a ⊙ const for a slot vector or a MockPlaintext from encode_plain."""
        if not isinstance(const, MockPlaintext):
            const = self.encode_plain(const)
        return self._fresh(slot_mul(self._vec(a), const.slots, self.params.t), a.depth)

    def rotate(self, a: MockCiphertext, step: int) -> MockCiphertext:
        if not rotation_moves(step, self.params.n // 2):
            return a
        return self._fresh(slot_rotate(self._vec(a), step), a.depth)

    def row_swap(self, a: MockCiphertext) -> MockCiphertext:
        return self._fresh(slot_row_swap(self._vec(a)), a.depth)

    def inner_sum(self, a: MockCiphertext, block: int, stride: int = 1) -> MockCiphertext:
        inner_sum_steps(block, stride, self.params.n // 2)  # the real backend's layout check
        return self._fresh(
            slot_inner_sum(self._vec(a), block, self.params.t, stride), a.depth
        )
