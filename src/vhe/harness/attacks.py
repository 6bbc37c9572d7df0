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
- ``tamper-pp-response``: perturb any one of the n slots of the
  packed-proof response ciphertext after honest proving, so padding lanes
  are hit as well as the d + 2 the checks read.
- ``tamper-req-message``: perturb a high-degree component in flight during a
  re-quadratization round, then finish the protocol honestly.

The last two run the real verified session, ``protocols.cloud_session``
against ``protocols.client_session``: the cloud's outgoing packed-proof
response or ReQ high terms are perturbed in flight.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from ..circuit import Program, ProgramBuilder
from ..errors import ParameterError
from ..labels import fold_tags, hash_tree_eval
from ..params import preset
from ..pe import (
    PeAuth,
    degree_schedule,
    pe_auth,
    pe_eval,
    pe_keygen,
    pe_soundness_bound,
)
from ..protocols import (
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    check_result,
    client_session,
    cloud_session,
    pack_cts,
    pp_required_steps,
    run_session,
    unpack_cts,
)
from ..rep import RepResult, rep_auth, rep_eval, rep_forgery_bound, rep_keygen
from .usecases import make_backend

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
    a random nonzero value at one slot below `slots`, shrunk to the chain
    prefix the cloud's decrypt-only messages travel on."""

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
                cts[i] = b.add(cts[i], b.shrink(b.encrypt(vec)))
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


class _World:
    """One honest pipeline: the attacked program of `degree` over `width`
    logical slots, seeded keys from `keygen(rng)`, a client backend, and
    inputs x and y authenticated by `auth`: every slot of a packed (PE)
    layout, the l summed values of a replicated (REP) one."""

    def __init__(self, spec: AttackSpec, width: int, degree: int, keygen, auth):
        self.spec = spec
        self.params = preset(spec.preset_name)
        self.t, self.n = self.params.t, self.params.n
        self.l = min(4, width // 2)
        rng = random.Random(spec.seed)
        self.program = _program(width, self.l, degree)
        self.secret = keygen(rng)
        self.client = self._backend(random.Random(spec.seed + 1))
        length = self.n if width == self.n else self.l
        self.values = [[rng.randrange(self.t) for _ in range(length)] for _ in range(2)]
        self.auths = [
            auth(self.secret, self.client, v, label) for v, label in zip(self.values, ("x", "y"))
        ]

    def _backend(self, rng):
        return make_backend(self.params, self.secret.he_keys, rng)

    def verify(self, result) -> bool:
        """The client's verdict on `result` (check_result), claiming what it
        decrypts to, so only the encoding's checks can fail."""
        tag = result.tag if isinstance(result, RepResult) else b""
        return check_result(self.secret, self.client, self.program, result.cts, tag)[0]


class _RepWorld(_World):
    """The replication pipeline, evaluated and verified once, plus tamper helpers."""

    def __init__(self, spec: AttackSpec):
        self.lam = spec.lam
        width = preset(spec.preset_name).n // self.lam
        self.agg_full = _agg_program(width, 3)

        def keygen(rng):
            return rep_keygen(
                self.params, lam=self.lam, programs=(self.program, self.agg_full),
                rng=rng, make_he_keys=spec.real,
            )

        super().__init__(spec, width, 2, keygen, rep_auth)
        self.result = rep_eval(self.program, self.auths, self.client, lam=self.lam)
        if not self.verify(self.result):
            raise AssertionError("honest pipeline must verify before attacking it")


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
            return world.verify(RepResult((bad_ct,), world.result.tag, lam))

        bound = rep_forgery_bound(lam) if k == lam // 2 else 0.0
        return trial, bound

    if strategy == "replace-ciphertext":

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            fake = [rng.randrange(t) for _ in range(world.n)]
            return world.verify(RepResult((backend.encrypt(fake),), world.result.tag, lam))

        return trial, float(t) ** -(lam // 2)

    if strategy == "wrong-circuit":
        width = world.program.width

        def trial(rng: random.Random) -> bool:
            backend = world._backend(rng)
            other = _program(width, world.l, scale=rng.randrange(2, t))
            # presented as the original program
            return world.verify(rep_eval(other, world.auths, backend, lam=lam))

        return trial, 0.0  # digest collision: collision-resistance of the hash

    if strategy == "drop-input":
        width = world.program.width
        params, real = world.params, spec.real
        full = world.agg_full
        dropped = _agg_program(width, 3, drop=2)

        def trial(rng: random.Random) -> bool:
            # fresh keys per trial: acceptance depends only on the PRF draw
            secret = rep_keygen(params, lam=lam, rng=rng, make_he_keys=False)
            backend = make_backend(params, None, rng)
            vals = [[rng.randrange(t) for _ in range(world.l)] for _ in range(3)]
            auths = [rep_auth(secret, backend, v, f"in{i}") for i, v in enumerate(vals)]
            partial = rep_eval(dropped, auths[:2], backend, lam=lam)
            tag = hash_tree_eval(full, [fold_tags(a.tags) for a in auths])
            return check_result(secret, backend, full, partial.cts, tag)[0]

        if real:
            raise ParameterError(
                "drop-input re-keys per trial; run it on the mock backend"
            )
        return trial, float(t) ** -(lam // 2)

    raise ParameterError(f"strategy {strategy!r} does not target replication")


class _PeWorld(_World):
    """The polynomial-encoding pipeline plus tamper helpers."""

    def __init__(self, spec: AttackSpec):
        n = preset(spec.preset_name).n
        extra = pp_required_steps(n) if spec.strategy == "tamper-pp-response" else ()

        def keygen(rng):
            return pe_keygen(
                self.params, programs=(self.program,), extra_steps=extra,
                rng=rng, make_he_keys=spec.real,
            )

        super().__init__(spec, n, spec.degree, keygen, pe_auth)

    def tampered_trials(self, run):
        """Trials of the session strategy ``run(rng, tamper)`` with tampering
        on.  On the real backend one untampered session must be accepted
        first: where noise alone makes the client reject it, every forgery
        is rejected by the noise guard and 0 accepts would say nothing."""
        spec = self.spec
        if spec.real and not run(random.Random(spec.seed + 2), False):
            raise ParameterError(
                f"{spec.strategy}: the client rejects the untampered session on "
                f"{spec.preset_name} at degree {spec.degree} (noise), so rejected "
                "forgeries would not measure the attack; lower the degree or "
                "choose a wider preset"
            )
        return lambda rng: run(rng, True)

    def session(self, rng, backend, evaluate, req: bool, pp: bool, tamper=None) -> bool:
        """The client's verdict in one verified session (ReQ if `req`, PP if
        `pp`) against a cloud that runs `evaluate`; a `tamper` pair (tag,
        hit) perturbs that message in flight (_TamperedSends).  The client's
        generator is drawn before the session starts, so the cloud thread
        alone draws from `rng` after that."""
        client_rng = random.Random(rng.getrandbits(64))

        def cloud_fn(ep):
            out = ep if tamper is None else _TamperedSends(ep, backend, rng, *tamper, self.n)
            return cloud_session(backend, out, evaluate)

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

        def run(rng: random.Random, tamper: bool) -> bool:
            backend = world._backend(rng)
            # honest proving; a tampered run perturbs any one of the n
            # response slots, past the c_0 commitment: it lands in one of
            # the K lanes the client sums, padding lanes included
            hit = (TAG_PP_RESPONSE, 0) if tamper else None
            return world.session(rng, backend, lambda _: honest, req=False, pp=True, tamper=hit)

        return world.tampered_trials(run), bound

    if strategy == "tamper-req-message":
        _, schedule = degree_schedule(world.program, use_reducer=True)
        if not schedule:
            raise ParameterError(
                "tamper-req-message needs a program deep enough to trigger "
                "a reduction round (degree ≥ 4)"
            )

        def run(rng: random.Random, tamper: bool) -> bool:
            backend = world._backend(rng)
            # a tampered run perturbs one round's high terms in flight
            hit = (TAG_REQ_HIGH_TERMS, rng.randrange(len(schedule))) if tamper else None

            def evaluate(reducer):
                return pe_eval(world.program, world.auths, backend, reducer=reducer)

            return world.session(rng, backend, evaluate, req=True, pp=False, tamper=hit)

        return world.tampered_trials(run), bound

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
