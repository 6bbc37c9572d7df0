"""Verifiable computation on BFV-encrypted data.

Building blocks:

- :mod:`vhe.ring` — NTT-friendly primes, the negacyclic NTT, batching.
- :mod:`vhe.bfv` — the leveled BFV backend (RNS form, rotation keys).
- :mod:`vhe.mock` — a plaintext stand-in backend on the circuit's slot
  semantics, for fast statistics.
- :mod:`vhe.labels` — PRF / hash-tree primitives and identifier bookkeeping.
- :mod:`vhe.circuit` — labeled programs, the one gate interpreter and the
  slot semantics (the plaintext oracle).
- :mod:`vhe.rep` — replication-style authenticated encodings (Scheme "REP").
- :mod:`vhe.pe` — polynomial-encoding authenticator (Scheme "PE").
- :mod:`vhe.protocols` — interactive verification (PP) and re-quadratization
  (ReQ) sessions over in-memory or TCP transports.
- :mod:`vhe.harness` — use cases, attack simulations, benchmarks, CLI.
"""

__version__ = "0.1.0"
