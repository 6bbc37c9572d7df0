"""Parameter sets for the encrypted-computation backend.

The ciphertext modulus is a chain of distinct ~29-bit NTT-friendly primes
(kept below 2^30 so every butterfly product fits exactly in int64), the
plaintext modulus is a batching-friendly prime t ≪ Q, and the error
distribution, the same for every set, is a centered binomial approximating
a discrete Gaussian of standard deviation 3.2 (bfv.CBD_K).

Presets are sized by measured noise margins.  Each preset's depth budget,
the multiplicative depth its chain comfortably supports at its plaintext
modulus, is harness policy and not a field of Params: `vhe usecase` reads
it (`depth_budget`) to refuse a deeper circuit before any work, and
decryption verifies the actual noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import ParameterError
from .ring import find_ntt_primes, find_plaintext_prime, get_modulus

CHAIN_PRIME_BITS = 29

# Largest log2 Q at classical 128-bit security for a ternary secret, per
# ring degree: the Homomorphic Encryption Security Standard (Albrecht et
# al., 2018).  A ring degree outside the table has no stated level.
HE_STANDARD_128_LOG_Q = {1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438, 32768: 881}

# A shrunk ciphertext's worst-case switching noise stays this many bits
# below its guard band Δ′/4 (see Params.shrink_primes).
SHRINK_MARGIN_BITS = 20


@dataclass(frozen=True)
class Params:
    """Ring degree, plaintext prime and RNS chain."""

    n: int
    t: int
    q_chain: tuple
    name: str = ""

    def __post_init__(self):
        if len(set(self.q_chain)) != len(self.q_chain) or not self.q_chain:
            raise ParameterError("q_chain must be a non-empty set of distinct primes")
        for q in (self.t, *self.q_chain):
            get_modulus(q, self.n)  # refuses all but primes ≡ 1 mod 2n, n a power of two
        if max(self.q_chain) >= 1 << 30:
            raise ParameterError(f"chain prime {max(self.q_chain)} too wide for exact int64 NTT")
        if self.t in self.q_chain:
            raise ParameterError("plaintext prime may not appear in the chain")
        if self.big_q <= 4 * self.t:
            raise ParameterError("ciphertext modulus must dominate the plaintext modulus")

    @property
    def big_q(self) -> int:
        return prod(self.q_chain)

    @property
    def delta(self) -> int:
        """⌊Q/t⌋, the plaintext scaling factor."""
        return self.big_q // self.t

    @property
    def shrink_primes(self) -> int:
        """k′, the chain prefix a terminal ciphertext is switched down to.

        Switching from Q to Q′ = q_0⋯q_{k′−1} leaves the noise
        |e′| ≤ |e|/P + (n+1)/2 + t for a ternary secret, with P = Q/Q′: the
        rounding of c₀ + c₁·s and the gap between Δ/P and Δ′ = ⌊Q′/t⌋.  k′
        is the shortest prefix whose (n+1)/2 + t stays SHRINK_MARGIN_BITS
        below Δ′/4, so a ciphertext with any budget left still decrypts.
        """
        bound = (self.n + 2) // 2 + self.t
        q = 1
        for k, p in enumerate(self.q_chain, 1):
            q *= p
            if (q // self.t // 4) >> SHRINK_MARGIN_BITS > bound:
                return k
        return len(self.q_chain)

    @property
    def t_modulus(self):
        return get_modulus(self.t, self.n)

    @property
    def security(self) -> str:
        """The estimated level: 128-bit while log2 Q stays within the
        HE-standard bound for n, otherwise below 128-bit (test only)."""
        if self.big_q.bit_length() <= HE_STANDARD_128_LOG_Q.get(self.n, 0):
            return "128-bit"
        return "below 128-bit (test only)"

    def describe(self) -> str:
        return (
            f"{self.name or 'custom'}: n={self.n}, log2(Q)≈{self.big_q.bit_length()}, "
            f"t={self.t} ({self.t.bit_length()}-bit), chain={len(self.q_chain)} primes, "
            f"security {self.security}"
        )


def make_params(n: int, t_bits: int = 16, chain_len: int = 4, name: str = "") -> Params:
    """Construct a parameter set, searching for suitable primes."""
    t = find_plaintext_prime(t_bits, n).value
    chain = tuple(find_ntt_primes(CHAIN_PRIME_BITS, n, chain_len, exclude=(t,)))
    return Params(n=n, t=t, q_chain=chain, name=name)


_PRESETS = {
    # desk-scale default: one multiplication level plus masking headroom
    "n4096_fast": dict(n=4096, t_bits=16, chain_len=5, depth_budget=2),
    # desk-scale, depth-3 capable (random-program sweeps, ReQ pipelines)
    "n4096": dict(n=4096, t_bits=16, chain_len=7, depth_budget=3),
    # deep desk preset (batching needs t ≡ 1 mod 2n, so ≥ 17 plaintext bits
    # from n = 8192 up; 65537 is the smallest qualifying prime)
    "n8192": dict(n=8192, t_bits=17, chain_len=9, depth_budget=5),
    # extra-deep variant for the bit-level lookup demonstration
    "n8192_deep": dict(n=8192, t_bits=17, chain_len=13, depth_budget=8),
    # production-shaped preset (log2 Q ≈ 700); provided for completeness,
    # far slower than the desk presets
    "n32768_prod": dict(n=32768, t_bits=17, chain_len=24, depth_budget=15),
    # small rings for statistics on the exact-semantics mock backend; the
    # chains are sized so the same parameters also run on the real backend
    # at a few levels of depth (the mock itself never touches the chain)
    "mock16": dict(n=16, t_bits=16, chain_len=4, depth_budget=2),
    # chain 5: enough real-backend headroom for depth 2 plus the packed
    # proof's plaintext-power products on top
    "mock64": dict(n=64, t_bits=16, chain_len=5, depth_budget=2),
    # multiplication noise scales with t, so the 40-bit-plaintext variant
    # needs a longer chain for the same depth on the real backend
    "mock64_wide": dict(n=64, t_bits=40, chain_len=8, depth_budget=2),
    "mock1024": dict(n=1024, t_bits=16, chain_len=4, depth_budget=2),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


@lru_cache(maxsize=None)
def preset(name: str) -> Params:
    if name not in _PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    cfg = {k: v for k, v in _PRESETS[name].items() if k != "depth_budget"}
    return make_params(name=name, **cfg)


def depth_budget(name: str) -> int:
    """A preset's depth budget (see the module docstring)."""
    preset(name)  # refuses an unknown name
    return _PRESETS[name]["depth_budget"]
