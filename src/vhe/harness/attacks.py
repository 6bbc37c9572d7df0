"""Covert-adversary simulation: seeded tamper strategies and acceptance rates.

Each strategy mounts one concrete cheating behaviour against an honest
pipeline and reports the empirical acceptance rate over independent seeded
trials, a 99% Wilson score interval, and the analytic bound it should sit
under.  Trials run one after another on the calling thread, on the
exact-semantics mock backend by default so six-figure trial counts stay
cheap; a small real-backend run guards against mock/real divergence.

One honest world (``_World``) holds the keys, a client backend, the
inputs x and y authenticated under the replication (REP) or polynomial
(PE) encoding, and under REP the honest result, verified before it is
attacked.  One table (``_ATTACKS``) maps each (encoding, strategy) pair
to the set-up of its trial and its analytic bound; its order is the order
of ``STRATEGIES``, and a strategy's default encoding is the first it is
listed under.  A trial draws its backend first, then its forgery.

Strategies (the encodings they target, the default first):

- ``slot-perturb`` (rep, pe): under REP, add a common delta to a random
  k-subset of one output component's λ replication offsets and claim the
  shifted value.  The verifier accepts exactly when the subset is the
  complement of the secret challenge set, so at k = λ/2 the rate is
  1/C(λ, λ/2).  Under PE, add random values at k random slots of c_0.
- ``replace-ciphertext`` (rep, pe): substitute a fresh encryption of random
  values for a result ciphertext, deriving the claim from it honestly.
- ``wrong-circuit`` (rep, pe): evaluate the program times a random
  constant honestly and present the result under the requested program.
- ``drop-input`` (rep, pe): under REP, aggregate two of three inputs and
  present the result as the full aggregation (the per-trial key refresh
  makes trials independent); under PE, evaluate x·x in place of x·y.
- ``tamper-pe-coefficient`` (pe): add random values at k random slots (one
  by default) of one random result ciphertext.
- ``tamper-pp-response`` (pe): perturb any one of the n slots of the
  packed-proof response ciphertext after honest proving, so padding lanes
  are hit as well as the d + 2 the checks read.
- ``tamper-req-message`` (pe): perturb a high-degree component in flight
  during a re-quadratization round, then finish the protocol honestly.

The last two run the real verified session, ``protocols.cloud_session``
against ``protocols.client_session``: the cloud's outgoing packed-proof
response or ReQ high terms are perturbed in flight.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass
from functools import partial

from ..circuit import Program, ProgramBuilder
from ..errors import ParameterError
from ..labels import hash_tree_eval
from ..params import preset
from ..pe import degree_schedule, pe_auth, pe_eval, pe_keygen, pe_soundness_bound
from ..protocols import (
    TAG_PP_RESPONSE,
    TAG_REQ_HIGH_TERMS,
    check_result,
    client_session,
    cloud_session,
    pack_cts,
    run_session,
    unpack_cts,
)
from ..rep import rep_auth, rep_eval, rep_forgery_bound, rep_keygen
from .usecases import make_backend

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

    def resolved_auth(self) -> str | None:
        """`auth`, or else the first encoding `_ATTACKS` lists the strategy
        under (None for an unknown strategy)."""
        if self.auth is not None:
            return self.auth
        return next((auth for auth, strategy in _ATTACKS if strategy == self.strategy), None)


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


def _agg_program(width: int, k: int, drop: int | None = None) -> Program:
    b = ProgramBuilder(width, name="attack-agg")
    wires = [b.input(f"in{i}") for i in range(k) if i != drop]
    acc = wires[0]
    for w in wires[1:]:
        acc = b.add(acc, w)
    return b.build(acc, output_block=(0, 1))


def _plus(backend, ct, slots: dict, shrink: bool = False):
    """`ct` plus an encryption of `slots` (position → value, zeros
    elsewhere), shrunk first if `shrink`, to the chain prefix the cloud's
    decrypt-only messages travel on."""
    vec = [0] * backend.params.n
    for j, v in slots.items():
        vec[j] = v
    enc = backend.encrypt(vec)
    return backend.add(ct, backend.shrink(enc) if shrink else enc)


class _TamperedSends:
    """Endpoint wrapper: before the `hit`-th outgoing message with `tag`
    leaves, one of its ciphertexts, drawn at random, gains a random nonzero
    value at one random slot (_plus, shrunk)."""

    def __init__(self, inner, backend, rng, tag: int, hit: int):
        self.inner, self.backend, self.rng = inner, backend, rng
        self.tag, self.hit, self.seen = tag, hit, 0

    def send(self, tag, payload):
        if tag == self.tag:
            if self.seen == self.hit:
                b, rng = self.backend, self.rng
                cts = unpack_cts(payload)
                i = rng.randrange(len(cts))
                delta = rng.randrange(1, b.params.t)  # drawn before its slot
                cts[i] = _plus(b, cts[i], {rng.randrange(b.params.n): delta}, shrink=True)
                payload = pack_cts(cts)
            self.seen += 1
        self.inner.send(tag, payload)

    def recv(self):
        return self.inner.recv()


class _World:
    """One honest pipeline under the spec's encoding: the attacked program
    of the spec's degree (2 under REP) over every slot (PE) or the λ-th
    part of them (REP), seeded keys, a client backend, and inputs x and y
    authenticated: every slot of a packed (PE) layout, the l summed values
    of a replicated (REP) one.  Under REP it holds the honest result too,
    verified before it is attacked."""

    def __init__(self, spec: AttackSpec):
        self.spec, self.rep = spec, spec.resolved_auth() == "rep"
        self.params = preset(spec.preset_name)
        self.t, self.n = self.params.t, self.params.n
        width = self.n // spec.lam if self.rep else self.n
        self.l = min(4, width // 2)
        self.degree = 2 if self.rep else spec.degree
        self.program = _program(width, self.l, self.degree)
        rng = random.Random(spec.seed)
        if self.rep:
            self.secret = rep_keygen(
                self.params, spec.lam, (self.program,), rng, make_he_keys=spec.real
            )
            # a forgery blind to the challenge set matches λ/2 slots by chance
            self.bound = float(self.t) ** -(spec.lam // 2)
        else:
            pp = spec.strategy == "tamper-pp-response"
            self.secret = pe_keygen(self.params, (self.program,), pp, rng, make_he_keys=spec.real)
            self.bound = pe_soundness_bound(spec.degree, self.t)
        self.client = self._backend(random.Random(spec.seed + 1))
        length = self.n if width == self.n else self.l
        values = [[rng.randrange(self.t) for _ in range(length)] for _ in range(2)]
        authenticate = rep_auth if self.rep else pe_auth
        self.auths = [authenticate(self.secret, self.client, v, x) for v, x in zip(values, "xy")]
        if self.rep:
            self.result = self.eval(self.program, self.auths, self.client)
            if not self.verify(self.result):
                raise AssertionError("honest pipeline must verify before attacking it")

    def _backend(self, rng):
        return make_backend(self.params, self.secret.he_keys, rng)

    def eval(self, program, auths, backend, reducer=None):
        """`program` evaluated honestly on `backend` (a ReQ `reducer` under PE)."""
        if self.rep:
            return rep_eval(program, auths, backend, lam=self.spec.lam)
        return pe_eval(program, auths, backend, reducer=reducer)

    def honest(self):
        """The honest result: REP's verified one, or under PE a fresh
        evaluation on the client's backend."""
        return self.result if self.rep else self.eval(self.program, self.auths, self.client)

    def verify(self, result) -> bool:
        """The client's verdict on `result` (check_result), claiming what it
        decrypts to, so only the encoding's checks can fail."""
        tag = result.tag if self.rep else b""
        return check_result(self.secret, self.client, self.program, result.cts, tag)[0]

    def forged(self, result, i: int, ct) -> bool:
        """The verdict on `result` with its ciphertext i swapped for `ct`."""
        cts = list(result.cts)
        cts[i] = ct
        return self.verify(dataclasses.replace(result, cts=tuple(cts)))

    def session(self, rng, backend, evaluate, req: bool, pp: bool, tamper=None) -> bool:
        """The client's verdict in one verified session (ReQ if `req`, PP if
        `pp`) against a cloud that runs `evaluate`; a `tamper` pair (tag,
        hit) perturbs that message in flight (_TamperedSends).  The client's
        generator is drawn before the session starts, so the cloud thread
        alone draws from `rng` after that."""
        client_rng = random.Random(rng.getrandbits(64))

        def cloud_fn(ep):
            out = ep if tamper is None else _TamperedSends(ep, backend, rng, *tamper)
            return cloud_session(backend, out, evaluate)

        _, (ok, _) = run_session(
            cloud_fn,
            lambda ep: client_session(
                self.secret, self.client, self.program, ep, req, pp, rng=client_rng
            ),
        )
        return ok

    def session_trials(self, evaluate, req: bool, hit):
        """Trials of a session strategy (ReQ if `req`, else the packed
        proof) against a cloud that runs ``evaluate(backend, reducer)``,
        the message ``hit(rng)`` = (tag, index) perturbed in flight.  On the
        real backend one untampered session must be accepted first: where
        noise alone makes the client reject it, every forgery is rejected
        by the noise guard and 0 accepts would say nothing."""

        def run(backend, rng, tamper: bool = True) -> bool:
            target = hit(rng) if tamper else None
            return self.session(rng, backend, partial(evaluate, backend), req, not req, target)

        spec = self.spec
        if spec.real:
            rng = random.Random(spec.seed + 2)
            if not run(self._backend(rng), rng, False):
                raise ParameterError(
                    f"{spec.strategy}: the client rejects the untampered session on "
                    f"{spec.preset_name} at degree {spec.degree} (noise), so rejected "
                    "forgeries would not measure the attack; lower the degree or "
                    "choose a wider preset"
                )
        return run


# Set-ups: world → (trial(backend, rng) → accepted, analytic bound).


def _rep_slot_perturb(w: _World):
    lam = w.spec.lam
    k = w.spec.subset if w.spec.subset is not None else lam // 2
    if not (0 < k <= lam):
        raise ParameterError(f"subset size must be in 1..{lam}, got {k}")

    def trial(backend, rng) -> bool:
        # one delta at k of the λ offsets of output position 0's block
        slots = dict.fromkeys(rng.sample(range(lam), k), rng.randrange(1, w.t))
        return w.forged(w.result, 0, _plus(backend, w.result.cts[0], slots))

    return trial, rep_forgery_bound(lam) if k == lam // 2 else 0.0


def _perturb(w: _World, pick: bool):
    """Random values at k slots (the spec's subset, one by default) of c_0,
    or of a random result ciphertext if `pick`."""
    honest, k = w.honest(), w.spec.subset or 1

    def trial(backend, rng) -> bool:
        i = rng.randrange(len(honest.cts)) if pick else 0
        slots = {j: rng.randrange(1, w.t) for j in rng.sample(range(w.n), k)}
        return w.forged(honest, i, _plus(backend, honest.cts[i], slots))

    return trial, w.bound


def _replace_ciphertext(w: _World, pick: bool):
    """A fresh encryption of random values for c_0, or for a random result
    ciphertext if `pick`."""
    honest = w.honest()

    def trial(backend, rng) -> bool:
        i = rng.randrange(len(honest.cts)) if pick else 0
        return w.forged(honest, i, backend.encrypt([rng.randrange(w.t) for _ in range(w.n)]))

    return trial, w.bound


def _wrong_circuit(w: _World, bound: float | None = None):
    def trial(backend, rng) -> bool:
        other = _program(w.program.width, w.l, w.degree, scale=rng.randrange(2, w.t))
        return w.verify(w.eval(other, w.auths, backend))  # presented as the original

    return trial, w.bound if bound is None else bound


def _rep_drop_input(w: _World):
    if w.spec.real:
        raise ParameterError("drop-input re-keys per trial; run it on the mock backend")
    lam = w.spec.lam
    full, dropped = (_agg_program(w.program.width, 3, drop) for drop in (None, 2))

    def trial(backend, rng) -> bool:
        # fresh keys per trial: acceptance depends only on the PRF draw
        secret = rep_keygen(w.params, lam=lam, rng=rng, make_he_keys=False)
        vals = [[rng.randrange(w.t) for _ in range(w.l)] for _ in range(3)]
        auths = [rep_auth(secret, backend, v, f"in{i}") for i, v in enumerate(vals)]
        result = w.eval(dropped, auths[:2], backend)
        tag = hash_tree_eval(full, [a.leaf for a in auths])  # the three uploads carry their leaves
        return check_result(secret, backend, full, result.cts, tag)[0]

    return trial, w.bound


def _pe_drop_input(w: _World):
    solo = _program(w.n, w.l, w.degree, inputs=("x", "x"))  # x·x instead of x·y
    return (lambda backend, rng: w.verify(w.eval(solo, w.auths[:1], backend))), w.bound


def _tamper_pp_response(w: _World):
    # honest proving; a tampered run perturbs any one of the n response
    # slots, past the c_0 commitment: it lands in one of the K lanes the
    # client sums, padding lanes included
    honest, d, t = w.honest(), w.degree, w.t
    trials = w.session_trials(
        lambda backend, reducer: honest, False, lambda rng: (TAG_PP_RESPONSE, 0)
    )
    # Theorem-style bound for the packed interaction
    return trials, 2 * (d + w.n) / t + d / (t - 1)


def _tamper_req_message(w: _World):
    _, schedule = degree_schedule(w.program, use_reducer=True)
    if not schedule:
        raise ParameterError(
            "tamper-req-message needs a program deep enough to trigger "
            "a reduction round (degree ≥ 4)"
        )
    # a tampered run perturbs one round's high terms in flight
    return w.session_trials(
        lambda backend, reducer: w.eval(w.program, w.auths, backend, reducer),
        True,
        lambda rng: (TAG_REQ_HIGH_TERMS, rng.randrange(len(schedule))),
    ), w.bound


# (encoding, strategy) → set-up.  The order is STRATEGIES'; a strategy's
# default encoding is the first it is listed under.
_ATTACKS = {
    ("rep", "slot-perturb"): _rep_slot_perturb,
    ("rep", "replace-ciphertext"): partial(_replace_ciphertext, pick=False),
    # a digest collision: the collision resistance of the hash
    ("rep", "wrong-circuit"): partial(_wrong_circuit, bound=0.0),
    ("rep", "drop-input"): _rep_drop_input,
    ("pe", "tamper-pe-coefficient"): partial(_perturb, pick=True),
    ("pe", "slot-perturb"): partial(_perturb, pick=False),
    ("pe", "replace-ciphertext"): partial(_replace_ciphertext, pick=True),
    ("pe", "wrong-circuit"): _wrong_circuit,
    ("pe", "drop-input"): _pe_drop_input,
    ("pe", "tamper-pp-response"): _tamper_pp_response,
    ("pe", "tamper-req-message"): _tamper_req_message,
}

STRATEGIES = tuple(dict.fromkeys(strategy for _, strategy in _ATTACKS))


def simulate_adversary(spec: AttackSpec) -> AttackReport:
    """Run the experiment; every trial draws from its own seeded generator,
    its backend first (the real backend draws its seed when it is built)."""
    auth = spec.resolved_auth()
    setup = _ATTACKS.get((auth, spec.strategy))
    if setup is None:
        pairs = ", ".join(f"{strategy} ({encoding})" for encoding, strategy in _ATTACKS)
        raise ParameterError(f"no {spec.strategy!r} attack on {auth!r}; attacks: {pairs}")
    t0 = time.perf_counter()
    world = _World(spec)
    trial, bound = setup(world)

    accepts = 0
    for i in range(spec.trials):
        rng = random.Random(spec.seed * 1_000_003 + i + 1)
        accepts += trial(world._backend(rng), rng)

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
