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

The last two run the real verified session: the cloud's outgoing message
is perturbed around ``pp_prove`` or ``ReqCloudSession``, and the client is
``protocols.client_session``.
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
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    ReqCloudSession,
    client_session,
    cloud_reply,
    pack_cts,
    pp_prove,
    pp_required_steps,
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


def _program(width: int, l: int, degree: int = 2, scale: int = 1, inputs=("x", "y")) -> Program:
    """The attacked program: x·y (x + y at degree 1) squared until the
    encoding reaches `degree`, times `scale`, summed over `l` slots.
    Naming one input twice evaluates x·x."""
    if degree not in (1, 2, 4, 8):
        raise ParameterError(f"attack degree must be 1, 2, 4, or 8, got {degree}")
    b = ProgramBuilder(width, name=f"attack-deg{degree}")
    wires = {name: b.input(name) for name in dict.fromkeys(inputs)}
    x, y = (wires[name] for name in inputs)
    w = b.add(x, y) if degree == 1 else b.mul(x, y)
    d = min(degree, 2)
    while d < degree:
        w = b.mul(w, w)
        d *= 2
    if scale != 1:
        w = b.mul_plain(w, [scale] * width)
    return b.build(b.inner_sum(w, l), output_block=(0, 1))


class _TamperedSends:
    """Endpoint wrapper: before the `hit`-th outgoing message with `tag`
    leaves, one of its ciphertexts, drawn at random, gains an encryption of
    a random nonzero value at one slot below `slots`."""

    def __init__(self, inner, backend, rng, tag: int, hit: int, slots: int):
        self.inner = inner
        self.backend = backend
        self.rng = rng
        self.tag = tag
        self.hit = hit
        self.slots = slots
        self.seen = 0

    def send(self, tag, payload):
        if tag == self.tag:
            if self.seen == self.hit:
                b, rng = self.backend, self.rng
                cts = unpack_cts(payload)
                i = rng.randrange(len(cts))
                vec = [0] * b.params.n
                vec[rng.randrange(self.slots)] = rng.randrange(1, b.params.t)
                cts[i] = b.add(cts[i], b.encrypt(vec))
                payload = pack_cts(cts)
            self.seen += 1
        self.inner.send(tag, payload)

    def recv(self):
        return self.inner.recv()


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
        self.program = _program(width, self.l)
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
        width = world.program.width

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            other = _program(width, world.l, scale=rng.randrange(2, t))
            res = rep_eval(other, world.auths, backend, lam=lam)
            claim = rep_decode(world.secret, backend, res, other)
            return world.verify(res, claim)  # presented as the original program

        return trial, 0.0  # digest collision: collision-resistance of the hash

    if strategy == "drop-input":
        width = world.program.width
        params, real = world.params, spec.real
        full = world.agg_full
        dropped = _agg_program(width, 3, drop=2)

        def trial(rng: random.Random) -> bool:
            # fresh keys per trial: acceptance depends only on the PRF draw
            secret = rep_keygen(
                params, lam=lam, programs=(), rng=rng, make_he_keys=False
            )
            backend = MockBackend(params, rng=rng)
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
        self.program = _program(self.n, self.l, spec.degree)
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

    def verify(self, result: PeAuth) -> bool:
        """The client's verdict on `result`, claiming what its c_0 holds."""
        start, count = self.program.output_block
        claim = self.client.decrypt(result.cts[0])[start : start + count]
        return pe_verify(self.secret, self.client, self.program, result, claimed=claim)

    def session(self, rng, cloud_fn, req: bool, pp: bool) -> bool:
        """The client's verdict in one verified session against `cloud_fn`.
        The client's generator is drawn before the session starts, so the
        cloud thread alone draws from `rng` after that."""
        client_rng = random.Random(rng.getrandbits(64))
        _, (ok, _) = run_session(
            cloud_fn,
            lambda ep: client_session(
                self.secret, self.client, self.program, ep, req, pp, rng=client_rng
            ),
        )
        return ok


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
            return world.verify(PeAuth(tuple(cts)))

        return trial, bound

    if strategy == "wrong-circuit":

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            other = _program(n, world.l, d, scale=rng.randrange(2, t))
            return world.verify(pe_eval(other, world.auths, backend))

        return trial, bound

    if strategy == "drop-input":
        solo = _program(n, world.l, d, inputs=("x", "x"))  # x·x instead of x·y

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            return world.verify(pe_eval(solo, [world.auths[0]], backend))

        return trial, bound

    if strategy == "tamper-pp-response":
        honest = pe_eval(world.program, world.auths, world.client)
        # Theorem-style bound for the packed interaction
        bound = 2 * (d + n) / t + d / (t - 1)

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)

            def cloud_fn(ep):
                # honest proving; one of the slots 0 … d + 1 the verifier
                # reads is perturbed in the response, past the c_0 commitment
                tampered = _TamperedSends(ep, backend, rng, TAG_PP_RESPONSE, 0, d + 2)
                pp_prove(backend, honest, tampered)

            return world.session(rng, cloud_fn, req=False, pp=True)

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

            def cloud_fn(ep):
                # one round's high terms perturbed in flight, the rest honest
                tampered = _TamperedSends(ep, backend, rng, TAG_REQ_HIGH_TERMS, hit, n)
                reducer = ReqCloudSession(backend, tampered)
                result = pe_eval(world.program, world.auths, backend, reducer=reducer)
                cloud_reply(backend, result, ep, pp=False)

            return world.session(rng, cloud_fn, req=True, pp=False)

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
