#!/usr/bin/env python3
"""
Full protocol stack on real lattice ciphertexts: a depth-3 computation
(x^8) runs at the evaluator while every stored ciphertext tuple stays at
degree ≤ 2 through interactive reduction rounds, and the whole run is
checked with a packed proof that costs two ciphertexts — independent of
the result degree.  A final tampered run shows the proof failing.
"""

import random

import numpy as np

from vhe import bfv
from vhe.circuit import ProgramBuilder
from vhe.params import preset
from vhe.pe import pe_auth, pe_eval, pe_keygen
from vhe.protocols import (
    TAG_PP_RESPONSE,
    ReqCloudSession,
    client_session,
    cloud_reply,
    pack_cts,
    pp_required_steps,
    run_session,
    unpack_cts,
)

SEED = 2718


class _LyingCloud:
    """Endpoint wrapper that perturbs the packed-proof response in flight."""

    def __init__(self, inner, backend):
        self.inner = inner
        self.backend = backend

    def send(self, tag, payload):
        if tag == TAG_PP_RESPONSE:
            (ct,) = unpack_cts(payload)
            delta = [1] + [0] * (self.backend.params.n - 1)
            payload = pack_cts([self.backend.add(ct, self.backend.encrypt(delta))])
        self.inner.send(tag, payload)

    def recv(self):
        return self.inner.recv()


def main():
    print("Degree-capped outsourcing with a two-ciphertext proof")
    print("=" * 56)

    params = preset("mock64")
    t, n = params.t, params.n
    print(f"lattice dimension n={n}, plaintext modulus t={t}")

    b = ProgramBuilder(n, name="x8")
    x = b.input("x")
    w = b.mul(x, x)
    w = b.mul(w, w)
    prog = b.build(b.mul(w, w), output_block=(0, 4))
    print(f"program {prog.name!r}: mul-depth {prog.depth} (result degree 8)")

    rng = random.Random(SEED)
    secret = pe_keygen(params, extra_steps=sorted(pp_required_steps(n)), rng=rng)
    backend = bfv.BfvBackend(params, secret.he_keys, rng=np.random.default_rng(SEED))

    values = [rng.randrange(t) for _ in range(n)]
    auth = pe_auth(secret, backend, values, "x")
    print(f"\nupload: {len(auth.cts)} ciphertexts (data + companion)")

    def cloud_fn(ep):
        reducer = ReqCloudSession(backend, ep)
        result = pe_eval(prog, [auth], backend, reducer=reducer)
        cloud_reply(backend, result, ep, pp=True)
        return result, reducer.rounds, ep.transcript

    def client_fn(ep):
        return client_session(
            secret, backend, prog, ep, req=True, pp=True, rng=random.Random(SEED + 1)
        )

    (result, rounds, tr), (ok, m) = run_session(cloud_fn, client_fn)
    print(f"\nreduction rounds: {rounds} (each ships 2 + 2 ciphertexts)")
    print(f"result tuple degree at rest: {result.degree}")
    print(f"cloud→client ciphertexts total: {tr.cts_sent()}"
          f" (4 reduction terms + 2 proof messages)")
    print(f"first result slots: {m[:4]}")
    print(f"plaintext oracle:   {[pow(v, 8, t) for v in values[:4]]}")
    print(f"packed proof: {'ACCEPT' if ok else 'REJECT'}")

    # Same session, but the cloud perturbs its proof response in flight.
    def lying_cloud_fn(ep):
        reducer = ReqCloudSession(backend, ep)
        result = pe_eval(prog, [auth], backend, reducer=reducer)
        cloud_reply(backend, result, _LyingCloud(ep, backend), pp=True)

    _, (ok2, _) = run_session(lying_cloud_fn, client_fn)
    print(f"\nwith a tampered proof response: {'ACCEPT' if ok2 else 'REJECT'}")
    print(f"forgery probability bound: 2(d+n)/t + d/(t−1) "
          f"= {2 * (8 + n) / t + 8 / (t - 1):.2e}")


if __name__ == "__main__":
    main()
