#!/usr/bin/env python3
"""
Five-minute tour: a client authenticates its data before encrypting it,
an untrusted evaluator runs a public program over the ciphertexts, and
the client checks the claimed result — then we tamper with the result
and watch the verifier reject it.

Runs on the mock backend (plaintext stand-in with the exact slot
semantics of the lattice scheme), so it finishes in milliseconds.
"""

import random

from vhe.circuit import ProgramBuilder, eval_plain
from vhe.mock import MockBackend
from vhe.params import preset
from vhe.protocols import check_result
from vhe.rep import RepResult, rep_auth, rep_eval, rep_keygen


def main():
    print("Replication-authenticated evaluation")
    print("=" * 52)

    params = preset("mock64")
    lam = 8
    print(f"slots n={params.n}, plaintext modulus t={params.t}, factor λ={lam}")
    print(f"logical slots per ciphertext: {params.n // lam}")

    # The public program: squared distance between two 4-component points,
    # folded into slot 0 by a block rotation ladder.
    b = ProgramBuilder(params.n // lam, name="sqdist")
    x, y = b.input("rider"), b.input("driver")
    d = b.sub(x, y)
    prog = b.build(b.inner_sum(b.mul(d, d), 4), output_block=(0, 1))
    print(f"program {prog.name!r}: {len(prog.gates)} gates, mul-depth {prog.depth}")

    rng = random.Random(7)
    secret = rep_keygen(params, lam=lam, rng=rng, make_he_keys=False)
    backend = MockBackend(params, rng=rng)

    rider = [3, 1, 4, 1]
    driver = [2, 7, 1, 8]
    print(f"\nrider  coordinates: {rider}")
    print(f"driver coordinates: {driver}")

    # Client side: each upload is replicated λ-fold with secret per-slot
    # challenge values woven in, then encrypted.
    auths = [
        rep_auth(secret, backend, rider, "rider"),
        rep_auth(secret, backend, driver, "driver"),
    ]
    print(f"uploads: {sum(len(a.cts) for a in auths)} ciphertexts")

    # Cloud side: evaluates over ciphertexts only — it never sees the data
    # and cannot tell challenge slots from payload slots.
    result = rep_eval(prog, auths, backend, lam=lam)

    # Client side: decrypt each result ciphertext once, then check the
    # digest, that every replica of the output block agrees, and every
    # challenge slot.  The agreed replica values are the claimed answer.
    ok, claim = check_result(secret, backend, prog, result.cts, result.tag)
    expected = eval_plain(prog, [rider + [0] * 4, driver + [0] * 4], params.t)[0]
    print(f"\nclaimed squared distance: {claim[0]} (plaintext oracle: {expected})")
    print(f"verifier says: {'ACCEPT' if ok else 'REJECT'}")

    # A dishonest evaluator perturbs one slot of the result ciphertext.
    # Homomorphic malleability makes the forgery cheap to produce...
    delta = [1] + [0] * (params.n - 1)
    forged = RepResult((backend.add(result.cts[0], backend.encrypt(delta)),), result.tag)
    ok2, claim2 = check_result(secret, backend, prog, forged.cts, forged.tag)
    print(f"\nafter shifting one result slot by 1:")
    print(f"claimed squared distance: {claim2[0]}")
    print(f"verifier says: {'ACCEPT' if ok2 else 'REJECT'}")
    print("\n...but hitting all λ/2 secret challenge positions consistently")
    print(f"succeeds with probability 1/C({lam},{lam // 2}) per forgery attempt.")
    if not ok or claim[0] != expected or ok2:
        raise SystemExit("unexpected verdict: the honest result must pass, the forgery fail")


if __name__ == "__main__":
    main()
