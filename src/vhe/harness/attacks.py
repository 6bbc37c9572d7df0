"""Covert-adversary simulation: seeded tamper strategies and acceptance rates.

Each strategy mounts one concrete cheating behaviour against an honest
pipeline and reports the empirical acceptance rate over independent seeded
trials, a 99% Wilson score interval, and the analytic bound it should sit
under.  Trials run one after another on the calling thread, on the
exact-semantics mock backend by default so six-figure trial counts stay
cheap; a small real-backend run guards against mock/real divergence.

Strategies:

- ``slot-perturb`` (replication): add a common delta to a random k-subset of
  one output component's λ replication offsets and claim the shifted value.
  The verifier accepts exactly when the subset is the complement of the
  secret challenge set, so at k = λ/2 the rate is 1/C(λ, λ/2).
- ``replace-ciphertext``: substitute a fresh encryption of chosen values for
  a result component, deriving the claim from it honestly.
- ``wrong-circuit``: evaluate a different circuit honestly and present the
  result under the requested program.
- ``drop-input``: aggregate all but one input and present the result as the
  full aggregation (the per-trial key refresh makes trials independent).
- ``tamper-pe-coefficient``: add a delta to one slot of one polynomial
  encoding component.
- ``tamper-pp-response``: perturb one slot the verifier reads (0 … d + 1) of
  the packed-proof response ciphertext after honest proving.
- ``tamper-req-message``: perturb a high-degree component in flight during a
  re-quadratization round, then finish the protocol honestly.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .. import bfv
from ..circuit import Program, ProgramBuilder
from ..errors import ParameterError
from ..labels import fold_tags, hash_tree_eval
from ..mock import MockBackend
from ..params import preset
from ..pe import (
    PeAuth,
    degree_schedule,
    pe_auth,
    pe_eval,
    pe_keygen,
    pe_soundness_bound,
    pe_verify,
)
from ..protocols import (
    TAG_PP_CHALLENGE,
    TAG_PP_RESULT,
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    ReqClientSession,
    ReqCloudSession,
    memory_channel,
    pack_cts,
    pp_prove,
    pp_required_steps,
    pp_verify,
    run_session,
    unpack_cts,
)
from ..rep import RepResult, rep_auth, rep_decode, rep_eval, rep_keygen, rep_verify

STRATEGIES = (
    "slot-perturb",
    "replace-ciphertext",
    "wrong-circuit",
    "drop-input",
    "tamper-pe-coefficient",
    "tamper-pp-response",
    "tamper-req-message",
)

_DEFAULT_AUTH = {
    "slot-perturb": "rep",
    "replace-ciphertext": "rep",
    "wrong-circuit": "rep",
    "drop-input": "rep",
    "tamper-pe-coefficient": "pe",
    "tamper-pp-response": "pe",
    "tamper-req-message": "pe",
}

# two-sided 99% normal quantile
WILSON_Z99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z99):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class AttackSpec:
    """One adversary experiment: strategy, scale, and target pipeline."""

    strategy: str
    trials: int = 1000
    seed: int = 0
    auth: str | None = None  # rep | pe; defaults per strategy
    preset_name: str = "mock64"
    lam: int = 8
    subset: int | None = None  # slot-perturb block subset size (default λ/2)
    degree: int = 4  # polynomial-encoding result degree (1, 2, 4, or 8)
    real: bool = False

    def resolved_auth(self) -> str:
        return self.auth if self.auth is not None else _DEFAULT_AUTH[self.strategy]


@dataclass
class AttackReport:
    strategy: str
    auth: str
    preset: str
    lam: int | None
    degree: int | None
    trials: int
    accepts: int
    rate: float
    wilson_low: float
    wilson_high: float
    analytic_bound: float
    seed: int
    real: bool
    elapsed: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def summary(self) -> str:
        return (
            f"{self.strategy} vs {self.auth} on {self.preset}"
            + (f" (λ={self.lam})" if self.auth == "rep" else f" (degree {self.degree})")
            + (" [real]" if self.real else " [mock]")
            + f": {self.accepts}/{self.trials} accepted "
            f"(rate {self.rate:.3e}, 99% Wilson [{self.wilson_low:.3e}, "
            f"{self.wilson_high:.3e}], analytic bound {self.analytic_bound:.3e}) "
            f"in {self.elapsed:.1f}s"
        )


def _one_hot(n: int, slot: int, value: int):
    vec = [0] * n
    vec[slot] = value
    return vec


def _dot_program(width: int, l: int, name: str = "attack-dot") -> Program:
    b = ProgramBuilder(width, name=name)
    x = b.input("x")
    y = b.input("y")
    return b.build(b.inner_sum(b.mul(x, y), l), output_block=(0, 1))


def _pe_program(width: int, degree: int, l: int) -> Program:
    """A program whose result encoding has exactly the requested degree."""
    if degree not in (1, 2, 4, 8):
        raise ParameterError(f"attack degree must be 1, 2, 4, or 8, got {degree}")
    b = ProgramBuilder(width, name=f"attack-deg{degree}")
    x = b.input("x")
    y = b.input("y")
    w = b.add(x, y) if degree == 1 else b.mul(x, y)
    d = min(degree, 2)
    while d < degree:
        w = b.mul(w, w)
        d *= 2
    return b.build(b.inner_sum(w, l), output_block=(0, 1))


def _agg_program(width: int, k: int, drop: int | None = None) -> Program:
    b = ProgramBuilder(width, name="attack-agg")
    wires = [b.input(f"in{i}") for i in range(k) if i != drop]
    acc = wires[0]
    for w in wires[1:]:
        acc = b.add(acc, w)
    return b.build(acc, output_block=(0, 1))


class _RepWorld:
    """One honest replication pipeline plus tamper helpers."""

    def __init__(self, spec: AttackSpec):
        self.spec = spec
        self.params = preset(spec.preset_name)
        self.t, self.n = self.params.t, self.params.n
        self.lam = spec.lam
        width = self.n // self.lam
        self.l = min(4, width // 2)
        rng = random.Random(spec.seed)
        self.program = _dot_program(width, self.l)
        self.agg_full = _agg_program(width, 3)
        self.secret = rep_keygen(
            self.params,
            lam=self.lam,
            programs=(self.program, self.agg_full),
            rng=rng,
            make_he_keys=spec.real,
        )
        self.client = self._backend(random.Random(spec.seed + 1))
        self.values = [
            [rng.randrange(self.t) for _ in range(self.l)] for _ in range(2)
        ]
        self.auths = [
            rep_auth(self.secret, self.client, v, label)
            for v, label in zip(self.values, ("x", "y"))
        ]
        self.result = rep_eval(self.program, self.auths, self.client, lam=self.lam)
        self.claim = rep_decode(self.secret, self.client, self.result, self.program)
        self.lengths = [self.l, self.l]
        if not rep_verify(
            self.secret, self.client, self.program, self.result,
            self.claim, self.lengths,
        ):
            raise AssertionError("honest pipeline must verify before attacking it")

    def _backend(self, rng):
        if self.spec.real:
            return bfv.BfvBackend(self.params, self.secret.he_keys, rng=np.random.default_rng(rng.getrandbits(64)))
        return MockBackend(self.params, rng=rng)

    def verify(self, result, claim) -> bool:
        return rep_verify(
            self.secret, self.client, self.program, result, claim, self.lengths
        )


def _dot_program_width(world: _RepWorld) -> int:
    return world.program.width


def _setup_rep(spec: AttackSpec):
    world = _RepWorld(spec)
    t, lam = world.t, world.lam
    strategy = spec.strategy

    if strategy == "slot-perturb":
        k = spec.subset if spec.subset is not None else lam // 2
        if not (0 < k <= lam):
            raise ParameterError(f"subset size must be in 1..{lam}, got {k}")

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            positions = rng.sample(range(lam), k)
            delta = rng.randrange(1, t)
            vec = [0] * world.n
            for j in positions:  # block of output position 0
                vec[j] = delta
            bad_ct = backend.add(world.result.cts[0], backend.encrypt(vec))
            bad = RepResult((bad_ct,), world.result.tag, lam)
            claim = [(world.claim[0] + delta) % t]
            return world.verify(bad, claim)

        bound = 1.0 / math.comb(lam, lam // 2) if k == lam // 2 else 0.0
        return trial, bound

    if strategy == "replace-ciphertext":

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            fake = [rng.randrange(t) for _ in range(world.n)]
            bad = RepResult((backend.encrypt(fake),), world.result.tag, lam)
            claim = rep_decode(world.secret, backend, bad, world.program)
            return world.verify(bad, claim)

        return trial, float(t) ** -(lam // 2)

    if strategy == "wrong-circuit":
        width = _dot_program_width(world)

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            b = ProgramBuilder(width, name="attack-dot")
            x, y = b.input("x"), b.input("y")
            scaled = b.mul_plain(b.mul(x, y), [rng.randrange(2, t)] * width)
            other = b.build(b.inner_sum(scaled, world.l), output_block=(0, 1))
            res = rep_eval(other, world.auths, backend, lam=lam)
            claim = rep_decode(world.secret, backend, res, other)
            return world.verify(res, claim)  # presented as the original program

        return trial, 0.0  # digest collision: collision-resistance of the hash

    if strategy == "drop-input":
        width = _dot_program_width(world)
        params, real = world.params, spec.real

        def trial(rng: random.Random) -> bool:
            # fresh keys per trial: acceptance depends only on the PRF draw
            secret = rep_keygen(
                params, lam=lam, programs=(), rng=rng, make_he_keys=False
            )
            backend = MockBackend(params, rng=rng)
            full = _agg_program(width, 3)
            dropped = _agg_program(width, 3, drop=2)
            vals = [[rng.randrange(t) for _ in range(world.l)] for _ in range(3)]
            auths = [
                rep_auth(secret, backend, v, f"in{i}") for i, v in enumerate(vals)
            ]
            partial = rep_eval(dropped, auths[:2], backend, lam=lam)
            leaves = [fold_tags(a.tags) for a in auths]
            forged = RepResult(partial.cts, hash_tree_eval(full, leaves), lam)
            claim = rep_decode(secret, backend, forged, full)
            return rep_verify(
                secret, backend, full, forged, claim, [world.l] * 3
            )

        if real:
            raise ParameterError(
                "drop-input re-keys per trial; run it on the mock backend"
            )
        return trial, float(t) ** -(lam // 2)

    raise ParameterError(f"strategy {strategy!r} does not target replication")


class _PeWorld:
    """One honest polynomial-encoding pipeline plus tamper helpers."""

    def __init__(self, spec: AttackSpec):
        self.spec = spec
        self.params = preset(spec.preset_name)
        self.t, self.n = self.params.t, self.params.n
        self.l = min(4, self.n // 2)
        rng = random.Random(spec.seed)
        self.program = _pe_program(self.n, spec.degree, self.l)
        needs_pp = spec.strategy == "tamper-pp-response"
        self.secret = pe_keygen(
            self.params,
            programs=(self.program,),
            extra_steps=pp_required_steps(self.n) if needs_pp else (),
            rng=rng,
            make_he_keys=spec.real,
        )
        self.client = self._backend(random.Random(spec.seed + 1))
        self.values = [
            [rng.randrange(self.t) for _ in range(self.n)] for _ in range(2)
        ]
        self.auths = [
            pe_auth(self.secret, self.client, v, label)
            for v, label in zip(self.values, ("x", "y"))
        ]

    def _backend(self, rng):
        if self.spec.real:
            return bfv.BfvBackend(self.params, self.secret.he_keys, rng=np.random.default_rng(rng.getrandbits(64)))
        return MockBackend(self.params, rng=rng)

    def claim_of(self, result: PeAuth, backend):
        start, count = self.program.output_block
        m = backend.decrypt(result.cts[0])
        return m[start : start + count]

    def verify(self, result, claim, offset=None) -> bool:
        return pe_verify(
            self.secret, self.client, self.program, result,
            claimed=claim, offset=offset,
        )


def _setup_pe(spec: AttackSpec):
    world = _PeWorld(spec)
    t, n = world.t, world.n
    strategy = spec.strategy
    d = spec.degree
    bound = pe_soundness_bound(d, t)

    if strategy in ("tamper-pe-coefficient", "slot-perturb", "replace-ciphertext"):
        honest = pe_eval(world.program, world.auths, world.client)

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            cts = list(honest.cts)
            if strategy == "replace-ciphertext":
                i = rng.randrange(len(cts))
                cts[i] = backend.encrypt([rng.randrange(t) for _ in range(n)])
            else:
                k = spec.subset or 1
                i = (
                    rng.randrange(len(cts))
                    if strategy == "tamper-pe-coefficient"
                    else 0
                )
                vec = [0] * n
                for slot in rng.sample(range(n), k):
                    vec[slot] = rng.randrange(1, t)
                cts[i] = backend.add(cts[i], backend.encrypt(vec))
            bad = PeAuth(tuple(cts))
            return world.verify(bad, world.claim_of(bad, world.client))

        return trial, bound

    if strategy == "wrong-circuit":

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            b = ProgramBuilder(n, name=f"attack-deg{d}")
            x, y = b.input("x"), b.input("y")
            w = b.add(x, y) if d == 1 else b.mul(x, y)
            dd = min(d, 2)
            while dd < d:
                w = b.mul(w, w)
                dd *= 2
            w = b.mul_plain(w, [rng.randrange(2, t)] * n)
            other = b.build(b.inner_sum(w, world.l), output_block=(0, 1))
            res = pe_eval(other, world.auths, backend)
            return world.verify(res, world.claim_of(res, world.client))

        return trial, bound

    if strategy == "drop-input":

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            b = ProgramBuilder(n, name=world.program.name)
            x = b.input("x")  # evaluates x·x instead of x·y
            w = b.add(x, x) if d == 1 else b.mul(x, x)
            dd = min(d, 2)
            while dd < d:
                w = b.mul(w, w)
                dd *= 2
            solo = b.build(b.inner_sum(w, world.l), output_block=(0, 1))
            res = pe_eval(solo, [world.auths[0]], backend)
            return world.verify(res, world.claim_of(res, world.client))

        return trial, bound

    if strategy == "tamper-pp-response":
        honest = pe_eval(world.program, world.auths, world.client)
        # Theorem-style bound for the packed interaction
        bound = 2 * (d + n) / t + d / (t - 1)

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)

            def cloud_fn(ep):
                ep.send(TAG_PP_RESULT, pack_cts([honest.cts[0]]))
                tag, payload = ep.recv()
                if tag != TAG_PP_CHALLENGE:
                    raise AssertionError
                # honest packing over a scratch replay of the challenge; past
                # the prover's c_0 commitment, flip one of the slots 0 … d + 1
                # that the verifier reads
                a, b = memory_channel()
                b.send(TAG_PP_CHALLENGE, payload)
                pp_prove(backend, honest, a)
                b.recv()
                _, resp = b.recv()
                (packed,) = unpack_cts(resp)
                vec = _one_hot(n, rng.randrange(honest.degree + 2), rng.randrange(1, t))
                tampered = backend.add(packed, backend.encrypt(vec))
                ep.send(TAG_PP_RESPONSE, pack_cts([tampered]))

            def client_fn(ep):
                ok, _ = pp_verify(
                    world.secret, world.client, world.program, ep,
                    rng=random.Random(rng.getrandbits(64)),
                )
                return ok

            _, ok = run_session(cloud_fn, client_fn)
            return ok

        return trial, bound

    if strategy == "tamper-req-message":
        _, schedule = degree_schedule(world.program, use_reducer=True)
        if not schedule:
            raise ParameterError(
                "tamper-req-message needs a program deep enough to trigger "
                "a reduction round (degree ≥ 4)"
            )

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            hit = rng.randrange(len(schedule))

            class TamperingEndpoint:
                """Perturbs one outgoing high-terms message."""

                def __init__(self, inner):
                    self.inner = inner
                    self.round = 0

                def send(self, tag, payload):
                    if tag == TAG_REQ_HIGH_TERMS:
                        if self.round == hit:
                            cts = unpack_cts(payload)
                            i = rng.randrange(len(cts))
                            vec = _one_hot(n, rng.randrange(n), rng.randrange(1, t))
                            cts[i] = backend.add(cts[i], backend.encrypt(vec))
                            payload = pack_cts(cts)
                        self.round += 1
                    self.inner.send(tag, payload)

                def recv(self):
                    return self.inner.recv()

            def cloud_fn(ep):
                reducer = ReqCloudSession(backend, TamperingEndpoint(ep))
                return pe_eval(world.program, world.auths, backend, reducer=reducer)

            def client_fn(ep):
                session = ReqClientSession(
                    world.secret, world.client, world.program,
                    rng=random.Random(rng.getrandbits(64)),
                )
                session.serve(ep)
                return session

            result, session = run_session(cloud_fn, client_fn)
            claim = world.claim_of(result, world.client)
            return world.verify(result, claim, offset=session.final_offset())

        return trial, bound

    raise ParameterError(
        f"strategy {strategy!r} does not target the polynomial encoding"
    )


def simulate_adversary(spec: AttackSpec) -> AttackReport:
    """Run the experiment; every trial draws from its own seeded generator."""
    if spec.strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {spec.strategy!r}; one of {STRATEGIES}")
    auth = spec.resolved_auth()
    if auth not in ("rep", "pe"):
        raise ParameterError(f"attacks target 'rep' or 'pe', got {auth!r}")
    t0 = time.perf_counter()
    trial, bound = (_setup_rep if auth == "rep" else _setup_pe)(spec)

    accepts = sum(
        trial(random.Random(spec.seed * 1_000_003 + i + 1)) for i in range(spec.trials)
    )

    lo, hi = wilson_interval(accepts, spec.trials)
    return AttackReport(
        strategy=spec.strategy,
        auth=auth,
        preset=spec.preset_name,
        lam=spec.lam if auth == "rep" else None,
        degree=spec.degree if auth == "pe" else None,
        trials=spec.trials,
        accepts=accepts,
        rate=accepts / spec.trials if spec.trials else 0.0,
        wilson_low=lo,
        wilson_high=hi,
        analytic_bound=bound,
        seed=spec.seed,
        real=spec.real,
        elapsed=time.perf_counter() - t0,
    )
