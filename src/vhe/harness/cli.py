"""Command-line front end: file-based key/auth/eval/verify workflows plus
the experiment drivers (attack, bench, usecase) and a TCP cloud/client pair
(serve, connect) for the interactive protocols.

All persistent artifacts are VRTS containers; programs travel as canonical
JSON.  Verification verdicts are printed and encoded in the exit status only
— nothing about them is ever written toward the evaluating side.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import re
import sys
from pathlib import Path

import numpy as np

from .. import bfv, serialize
from ..circuit import program_from_json
from ..errors import VheError
from ..mock import MockBackend
from ..params import preset, preset_names
from ..pe import PeAuth, PeSecret, pe_auth, pe_eval, pe_keygen, pe_verify
from ..protocols import (
    ReqCloudSession,
    client_session,
    cloud_reply,
    pp_required_steps,
    tcp_connect,
    tcp_listen,
)
from ..rep import (
    RepAuth,
    RepResult,
    RepSecret,
    rep_auth,
    rep_decode,
    rep_eval,
    rep_keygen,
    rep_verify,
)
from .attacks import STRATEGIES, AttackSpec, simulate_adversary
from .bench import BENCH_OPS, bench_summary, rows_to_csv, run_bench
from .usecases import AUTH_MODES, USECASES, run_usecase, usecase_spec


def _resolve_params(value: str):
    """A preset name, or a path to a saved parameter container."""
    if value in preset_names():
        return preset(value)
    path = Path(value)
    if path.exists():
        return serialize.load_params(serialize.read_file(path))
    raise VheError(
        f"{value!r} is neither a preset ({', '.join(preset_names())}) "
        f"nor a parameter file"
    )


def _read_values(path: str) -> list[int]:
    """Integers from a CSV/whitespace-separated text file."""
    text = Path(path).read_text()
    items = [x for x in re.split(r"[,\s]+", text.strip()) if x]
    try:
        return [int(x) for x in items]
    except ValueError as exc:
        raise VheError(f"{path}: expected integers, {exc}") from None


def _load(path: str):
    return serialize.load_any(serialize.read_file(path))


def _backend_for(secret, seed: int = 0):
    """Real backend when the secret carries HE keys, mock otherwise."""
    if secret.he_keys is not None:
        return bfv.BfvBackend(
            secret.params, secret.he_keys, rng=np.random.default_rng(seed)
        )
    return MockBackend(secret.params, rng=random.Random(seed))


def _programs(paths) -> list:
    return [program_from_json(Path(p).read_text()) for p in paths or ()]


def _parse_tcp(transport: str):
    if transport == "mem":
        raise VheError(
            "the in-process transport is exercised by `vhe usecase`; "
            "serve/connect need --transport tcp://host:port"
        )
    m = re.fullmatch(r"tcp://([^:/]+):(\d+)", transport)
    if not m:
        raise VheError(f"bad transport {transport!r}; expected tcp://host:port")
    return m.group(1), int(m.group(2))


def _flatten(d: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            flat[key] = ";".join(str(x) for x in v)
        else:
            flat[key] = v
    return flat


def _dicts_to_csv(dicts) -> str:
    rows = [_flatten(d) for d in dicts]
    fields: list[str] = []
    for r in rows:
        fields.extend(k for k in r if k not in fields)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields)
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def _emit_report(out_dir: str | None, name: str, dicts, csv_text: str | None = None):
    if not out_dir:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = dicts if len(dicts) != 1 else dicts[0]
    (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / f"{name}.csv").write_text(
        csv_text if csv_text is not None else _dicts_to_csv(dicts)
    )
    print(f"wrote {out / f'{name}.json'} and {out / f'{name}.csv'}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_keygen(args) -> int:
    params = _resolve_params(args.params)
    progs = _programs(args.program)
    rng = random.Random(args.seed)
    real = args.backend == "real"
    extra = pp_required_steps(params.n) if args.pp else ()
    if args.auth == "rep":
        secret = rep_keygen(
            params,
            lam=args.lam,
            programs=progs,
            extra_steps=extra,
            rng=rng,
            make_he_keys=real,
        )
        blob = serialize.save_rep_secret(secret)
    else:
        secret = pe_keygen(
            params, programs=progs, extra_steps=extra, rng=rng, make_he_keys=real
        )
        blob = serialize.save_pe_secret(secret)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    serialize.write_file(out / "secret.vrts", blob)
    written = [out / "secret.vrts"]
    serialize.write_file(out / "params.vrts", serialize.save_params(params))
    written.append(out / "params.vrts")
    if real:
        serialize.write_file(
            out / "public.vrts",
            serialize.save_keyset(secret.he_keys.public()),
        )
        written.append(out / "public.vrts")
    print(f"{args.auth} keys on {params.name}: " + ", ".join(map(str, written)))
    print(params.describe())
    return 0


def _cmd_auth(args) -> int:
    secret = _load(args.key)
    backend = _backend_for(secret, args.seed)
    values = _read_values(args.values)
    if isinstance(secret, RepSecret):
        auth = rep_auth(secret, backend, values, args.base)
        blob = serialize.save_rep_auth(auth)
        shape = f"{auth.length} values in {auth.num_cts} ciphertext(s), λ={auth.lam}"
    elif isinstance(secret, PeSecret):
        n = secret.params.n
        if len(values) > n:
            raise VheError(f"{len(values)} values exceed the {n}-slot layout")
        if len(values) < n:
            values = values + [0] * (n - len(values))
        auth = pe_auth(secret, backend, values, args.base)
        blob = serialize.save_pe_auth(auth)
        shape = f"{n} slots, degree {auth.degree}"
    else:
        raise VheError(f"{args.key} does not hold an authentication secret")
    serialize.write_file(args.out, blob)
    print(f"authenticated {args.base!r} ({shape}) -> {args.out}")
    return 0


def _eval_backend(args):
    """Evaluator-side backend: public key material or mock parameters."""
    if args.public:
        keys = serialize.load_keyset(serialize.read_file(args.public))
        return bfv.BfvBackend(
            keys.params, keys, rng=np.random.default_rng(args.seed)
        )
    if not args.params:
        raise VheError("evaluation needs --public key material or mock --params")
    return MockBackend(_resolve_params(args.params), rng=random.Random(args.seed))


def _cmd_eval(args) -> int:
    program = _programs([args.program])[0]
    auths = [_load(p) for p in args.inputs]
    backend = _eval_backend(args)
    if all(isinstance(a, RepAuth) for a in auths):
        result = rep_eval(program, auths, backend, lam=auths[0].lam)
        blob = serialize.save_rep_result(result)
        shape = f"{len(result.cts)} ciphertext(s), λ={result.lam}"
    elif all(isinstance(a, PeAuth) for a in auths):
        result = pe_eval(program, auths, backend)
        blob = serialize.save_pe_auth(result)
        shape = f"degree {result.degree}"
    else:
        raise VheError("inputs mix authentication schemes")
    serialize.write_file(args.out, blob)
    print(f"evaluated {program.name or 'program'} ({shape}) -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    secret = _load(args.key)
    result = _load(args.result)
    program = _programs([args.program])[0]
    backend = _backend_for(secret, args.seed)
    reason: list = []
    if isinstance(secret, RepSecret) and isinstance(result, RepResult):
        if not args.lengths:
            raise VheError("replication verification needs --lengths l1,l2,...")
        lengths = [int(x) for x in args.lengths.split(",")]
        claim = rep_decode(secret, backend, result, program)
        ok = rep_verify(secret, backend, program, result, claim, lengths, reason)
    elif isinstance(secret, PeSecret) and isinstance(result, PeAuth):
        start, count = program.output_block
        claim = backend.decrypt(result.cts[0])[start : start + count]
        ok = pe_verify(secret, backend, program, result, claimed=claim, reason=reason)
    else:
        raise VheError("secret and result containers belong to different schemes")
    if ok:
        print(f"accept; output block = {claim}")
        return 0
    print(f"reject: {reason[0] if reason else 'verification failed'}")
    return 1


def _cmd_attack(args) -> int:
    spec = AttackSpec(
        strategy=args.strategy,
        trials=args.trials,
        seed=args.seed,
        auth=args.auth,
        preset_name=args.params,
        lam=args.lam,
        subset=args.subset,
        degree=args.degree,
        real=args.real,
    )
    report = simulate_adversary(spec)
    print(report.summary())
    _emit_report(args.out, "attack", [report.to_dict()])
    return 0


def _cmd_bench(args) -> int:
    rows = run_bench(
        preset_name=args.params,
        lams=tuple(int(x) for x in args.lams.split(",")),
        degrees=tuple(int(x) for x in args.degrees.split(",")),
        ops=tuple(args.ops.split(",")) if args.ops else BENCH_OPS,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(bench_summary(rows))
    _emit_report(args.out, "bench", [r.to_dict() for r in rows], rows_to_csv(rows))
    return 0


def _cmd_usecase(args) -> int:
    spec = usecase_spec(
        args.name,
        auth=args.auth,
        preset_name=args.params,
        lam=args.lam,
        seed=args.seed,
    )
    report = run_usecase(spec, auth=args.auth, real=args.real)
    print(report.summary())
    _emit_report(args.out, f"usecase-{args.name}-{args.auth}", [report.to_dict()])
    return 0 if report.match and report.verdict is not False else 1


def _cmd_serve(args) -> int:
    host, port = _parse_tcp(args.transport)
    program = _programs([args.program])[0]
    auths = [_load(p) for p in args.inputs]
    if not all(isinstance(a, PeAuth) for a in auths):
        raise VheError(
            "interactive sessions serve the polynomial encoding; "
            "replication results travel as plain containers via `vhe eval`"
        )
    backend = _eval_backend(args)
    endpoint, bound = tcp_listen(
        host, port, ready=lambda p: print(f"listening on {host}:{p}", flush=True)
    )
    try:
        reducer = ReqCloudSession(backend, endpoint) if args.req else None
        result = pe_eval(program, auths, backend, reducer=reducer)
        cloud_reply(backend, result, endpoint, args.pp)
        if args.out:
            serialize.write_file(args.out, serialize.save_pe_auth(result))
    finally:
        endpoint.close()
    rounds = f"{reducer.rounds} reduction round(s), " if args.req else ""
    print(f"served one session on port {bound}: {rounds}degree {result.degree}")
    return 0


def _cmd_connect(args) -> int:
    host, port = _parse_tcp(args.transport)
    secret = _load(args.key)
    if not isinstance(secret, PeSecret):
        raise VheError("interactive sessions verify the polynomial encoding")
    program = _programs([args.program])[0]
    backend = _backend_for(secret, args.seed)
    rng = random.Random(args.seed ^ 0x5E55)
    endpoint = tcp_connect(host, port)
    reason: list = []
    try:
        ok, m = client_session(
            secret, backend, program, endpoint, args.req, args.pp, rng, reason
        )
    finally:
        endpoint.close()
    start, count = program.output_block
    if ok:
        print(f"accept; output block = {m[start : start + count]}")
        return 0
    print(f"reject: {reason[0] if reason else 'verification failed'}")
    return 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vhe",
        description="verifiable homomorphic evaluation: keys, pipelines, "
        "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=True, out_dir=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        if out_dir:
            p.add_argument("--out", help="directory for CSV + JSON reports")

    p = sub.add_parser("keygen", help="generate an authentication secret (+ HE keys)")
    p.add_argument("--auth", choices=("rep", "pe"), required=True)
    p.add_argument("--params", default="n4096", help="preset name or params.vrts")
    p.add_argument("--lambda", dest="lam", type=int, default=32,
                   help="replication factor (rep only)")
    p.add_argument("--program", action="append",
                   help="program JSON the keys must support (repeatable)")
    p.add_argument("--pp", action="store_true",
                   help="include rotation keys for the packed proof")
    p.add_argument("--backend", choices=("real", "mock"), default="real")
    p.add_argument("--out", required=True, help="directory for the key files")
    common(p)
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("auth", help="authenticate a vector of integers")
    p.add_argument("--key", required=True, help="secret.vrts from keygen")
    p.add_argument("--base", required=True, help="input identifier")
    p.add_argument("--values", required=True, help="CSV/text file of integers")
    p.add_argument("--out", required=True, help="output auth container")
    common(p)
    p.set_defaults(fn=_cmd_auth)

    p = sub.add_parser("eval", help="evaluate a program over auth containers")
    p.add_argument("--program", required=True, help="program JSON file")
    p.add_argument("--inputs", nargs="+", required=True, help="auth containers")
    p.add_argument("--public", help="public.vrts (real backend)")
    p.add_argument("--params", help="preset or params.vrts (mock backend)")
    p.add_argument("--out", required=True, help="output result container")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="verify a result container (exit 0/1)")
    p.add_argument("--key", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--lengths", help="comma-separated input lengths (rep)")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("attack", help="covert-adversary simulation")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--auth", choices=("rep", "pe"),
                   help="target scheme (defaults per strategy)")
    p.add_argument("--params", default="mock64")
    p.add_argument("--lambda", dest="lam", type=int, default=8)
    p.add_argument("--subset", type=int, help="slot-perturb subset size")
    p.add_argument("--degree", type=int, default=4,
                   help="result degree for encoding attacks")
    p.add_argument("--real", action="store_true",
                   help="run on the real backend (sequential)")
    common(p, out_dir=True)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("bench", help="amortized per-slot operation timings")
    p.add_argument("--params", default="mock1024")
    p.add_argument("--lams", default="16,32,64")
    p.add_argument("--degrees", default="2,4,8")
    p.add_argument("--ops", help=f"comma-separated subset of {','.join(BENCH_OPS)}")
    p.add_argument("--repeats", type=int, default=5)
    common(p, out_dir=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("usecase", help="end-to-end workload with baseline ratios")
    p.add_argument("--name", choices=USECASES, required=True)
    p.add_argument("--auth", choices=AUTH_MODES, default="none")
    p.add_argument("--params", help="preset override")
    p.add_argument("--lambda", dest="lam", type=int,
                   help="replication factor override")
    p.add_argument("--real", action="store_true")
    common(p, out_dir=True)
    p.set_defaults(fn=_cmd_usecase)

    p = sub.add_parser("serve", help="cloud half of a TCP session")
    p.add_argument("--transport", required=True, help="tcp://host:port")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--public", help="public.vrts (real backend)")
    p.add_argument("--params", help="preset or params.vrts (mock backend)")
    p.add_argument("--pp", action="store_true", help="packed-proof interaction")
    p.add_argument("--req", action="store_true", help="re-quadratization rounds")
    p.add_argument("--out", help="also save the result container")
    common(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("connect", help="client half of a TCP session (exit 0/1)")
    p.add_argument("--transport", required=True, help="tcp://host:port")
    p.add_argument("--key", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--pp", action="store_true")
    p.add_argument("--req", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_connect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
