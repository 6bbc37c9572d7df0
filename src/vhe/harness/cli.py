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
import re
import sys
from dataclasses import replace
from pathlib import Path

from .. import serialize
from ..circuit import program_from_json
from ..errors import VheError
from ..params import preset, preset_names
from ..pe import PeAuth, PeSecret, pe_auth, pe_eval, pe_keygen
from ..protocols import (
    check_result,
    client_session,
    cloud_session,
    pp_required_steps,
    tcp_connect,
    tcp_listen,
)
from ..rep import RepAuth, RepResult, RepSecret, rep_auth, rep_eval, rep_keygen
from .attacks import STRATEGIES, AttackSpec, simulate_adversary
from .bench import BENCH_OPS, bench_summary, run_bench
from .usecases import AUTH_MODES, USECASES, make_backend, run_usecase, usecase_spec

_SAVE_SECRET = {RepSecret: serialize.save_rep_secret, PeSecret: serialize.save_pe_secret}


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
    """Integers from a CSV/whitespace-separated text file; a byte that is
    not UTF-8 reads as U+FFFD, which no integer contains."""
    text = Path(path).read_text(errors="replace")
    try:
        return [int(x) for x in re.split(r"[,\s]+", text.strip()) if x]
    except ValueError as exc:
        raise VheError(f"{path}: expected integers, {exc}") from None


def _load(path: str):
    return serialize.load_any(serialize.read_file(path))


def _client(args):
    """(the secret in `--key`, a client backend for it); a container that
    holds no authentication secret is an error."""
    secret = _load(args.key)
    if not isinstance(secret, (RepSecret, PeSecret)):
        raise VheError(f"{args.key} does not hold an authentication secret")
    return secret, make_backend(secret.params, secret.he_keys)


def _programs(paths) -> list:
    return [program_from_json(Path(p).read_bytes()) for p in paths or ()]


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


def _emit_report(out_dir: str | None, name: str, dicts):
    if not out_dir:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = dicts if len(dicts) != 1 else dicts[0]
    (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / f"{name}.csv").write_text(_dicts_to_csv(dicts))
    print(f"wrote {out / f'{name}.json'} and {out / f'{name}.csv'}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_keygen(args) -> int:
    params = _resolve_params(args.params)
    progs = _programs(args.program)
    real = args.backend == "real"
    if args.auth == "rep":
        if args.pp:
            raise VheError("--pp needs --auth pe: the packed proof verifies only PE")
        secret = rep_keygen(params, lam=args.lam, programs=progs, make_he_keys=real)
    else:
        extra = pp_required_steps(params.n) if args.pp else ()
        secret = pe_keygen(params, programs=progs, extra_steps=extra, make_he_keys=real)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = {"secret.vrts": _SAVE_SECRET[type(secret)](secret), "params.vrts": serialize.save_params(params)}
    if real:
        files["public.vrts"] = serialize.save_keyset(secret.he_keys.public())
    for name, blob in files.items():
        serialize.write_file(out / name, blob)
    print(f"{args.auth} keys on {params.name}: " + ", ".join(str(out / name) for name in files))
    print(params.describe())
    return 0


def _cmd_auth(args) -> int:
    secret, backend = _client(args)
    values = _read_values(args.values)
    if isinstance(secret, RepSecret):
        auth = rep_auth(secret, backend, values, args.base)
        blob = serialize.save_rep_auth(auth)
        shape = f"{auth.length} values in {auth.num_cts} ciphertext(s), λ={auth.lam}"
    else:
        n = secret.params.n
        if len(values) > n:
            raise VheError(f"{len(values)} values exceed the {n}-slot layout")
        if len(values) < n:
            values = values + [0] * (n - len(values))
        auth = pe_auth(secret, backend, values, args.base)
        blob = serialize.save_pe_auth(auth)
        shape = f"{n} slots, degree {auth.degree}"
    # the registry is saved before the upload: a crash between them leaves the identifier spent
    serialize.write_file(args.key, _SAVE_SECRET[type(secret)](secret))
    serialize.write_file(args.out, blob)
    print(f"authenticated {args.base!r} ({shape}) -> {args.out}")
    return 0


def _eval_backend(args):
    """Evaluator-side backend: public key material or mock parameters."""
    if not (args.public or args.params):
        raise VheError("evaluation needs --public key material or mock --params")
    keys = serialize.load_keyset(serialize.read_file(args.public)) if args.public else None
    params = _resolve_params(args.params) if keys is None else keys.params
    return make_backend(params, keys)


def _evaluate(program, auths, backend, reducer=None):
    """Evaluate over auth containers of one scheme, inferred from them."""
    if all(isinstance(a, RepAuth) for a in auths):
        return rep_eval(program, auths, backend, lam=auths[0].lam)
    if all(isinstance(a, PeAuth) for a in auths):
        return pe_eval(program, auths, backend, reducer=reducer)
    raise VheError("inputs mix authentication schemes")


def _write_result(path, result, backend) -> str:
    """Write a result's container to `path`, if one is given, and return its
    one-line shape.  Every ciphertext is shrunk, as a session sends it: a
    result file is only decrypted."""
    rep = isinstance(result, RepResult)
    if path:
        shrunk = replace(result, cts=tuple(backend.shrink(c) for c in result.cts))
        serialize.write_file(path, (serialize.save_rep_result if rep else serialize.save_pe_auth)(shrunk))
    return f"{len(result.cts)} ciphertext(s), λ={result.lam}" if rep else f"degree {result.degree}"


def _cmd_eval(args) -> int:
    program = _programs([args.program])[0]
    auths = [_load(p) for p in args.inputs]
    backend = _eval_backend(args)
    shape = _write_result(args.out, _evaluate(program, auths, backend), backend)
    print(f"evaluated {program.name or 'program'} ({shape}) -> {args.out}")
    return 0


def _verdict(ok: bool, claim, reason: list) -> int:
    if ok:
        print(f"accept; output block = {claim}")
        return 0
    print(f"reject: {reason[0] if reason else 'verification failed'}")
    return 1


def _cmd_verify(args) -> int:
    secret, backend = _client(args)
    result = _load(args.result)
    program = _programs([args.program])[0]
    rep = isinstance(secret, RepSecret)
    if not isinstance(result, RepResult if rep else PeAuth):
        raise VheError("secret and result containers belong to different schemes")
    reason: list = []
    tag = result.tag if rep else b""
    ok, claim = check_result(secret, backend, program, result.cts, tag, reason=reason)
    return _verdict(ok, claim, reason)


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
    # exit 1 when the 99% Wilson interval lies wholly above the analytic bound
    return int(report.wilson_low > report.analytic_bound)


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
    _emit_report(args.out, "bench", [r.to_dict() for r in rows])
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
    backend = _eval_backend(args)
    endpoint, bound = tcp_listen(
        host, port, ready=lambda p: print(f"listening on {host}:{p}", flush=True)
    )
    try:
        result, reducer = cloud_session(backend, endpoint, lambda r: _evaluate(program, auths, backend, r))
    finally:
        endpoint.close()
    shape = _write_result(args.out, result, backend)
    rounds = f"{reducer.rounds} reduction round(s), " if reducer is not None else ""
    print(f"served one session on port {bound}: {rounds}{shape}")
    return 0


def _cmd_connect(args) -> int:
    host, port = _parse_tcp(args.transport)
    secret, backend = _client(args)
    program = _programs([args.program])[0]
    secret.registry.lengths(program.inputs)  # an input never authenticated opens no socket
    endpoint = tcp_connect(host, port)
    reason: list = []
    try:
        ok, claim = client_session(secret, backend, program, endpoint, args.req, args.pp, reason=reason)
    finally:
        endpoint.close()
    return _verdict(ok, claim, reason)


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

    def experiment(p):
        p.add_argument("--seed", type=int, default=0, help="deterministic seed")
        p.add_argument("--out", help="directory for CSV + JSON reports")

    p = sub.add_parser("keygen", help="generate an authentication secret (+ HE keys)")
    p.add_argument("--auth", choices=("rep", "pe"), required=True)
    p.add_argument("--params", default="n4096", help="preset name or params.vrts")
    p.add_argument("--lambda", dest="lam", type=int, default=32,
                   help="replication factor (rep only)")
    p.add_argument("--program", action="append",
                   help="program JSON the keys must support (repeatable)")
    p.add_argument("--pp", action="store_true",
                   help="include rotation keys for the packed proof (pe only)")
    p.add_argument("--backend", choices=("real", "mock"), default="real")
    p.add_argument("--out", required=True, help="directory for the key files")
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("auth", help="authenticate a vector of integers")
    p.add_argument("--key", required=True, help="secret.vrts from keygen")
    p.add_argument("--base", required=True, help="input identifier")
    p.add_argument("--values", required=True, help="CSV/text file of integers")
    p.add_argument("--out", required=True, help="output auth container")
    p.set_defaults(fn=_cmd_auth)

    p = sub.add_parser("eval", help="evaluate a program over auth containers")
    p.add_argument("--program", required=True, help="program JSON file")
    p.add_argument("--inputs", nargs="+", required=True, help="auth containers")
    p.add_argument("--public", help="public.vrts (real backend)")
    p.add_argument("--params", help="preset or params.vrts (mock backend)")
    p.add_argument("--out", required=True, help="output result container")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="verify a result container (exit 0/1)")
    p.add_argument("--key", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--result", required=True)
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
    experiment(p)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("bench", help="amortized per-slot operation timings")
    p.add_argument("--params", default="mock1024")
    p.add_argument("--lams", default="16,32,64")
    p.add_argument("--degrees", default="2,4,8")
    p.add_argument("--ops", help=f"comma-separated subset of {','.join(BENCH_OPS)}")
    p.add_argument("--repeats", type=int, default=5)
    experiment(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("usecase", help="end-to-end workload with baseline ratios")
    p.add_argument("--name", choices=USECASES, required=True)
    p.add_argument("--auth", choices=AUTH_MODES, default="none")
    p.add_argument("--params", help="preset override")
    p.add_argument("--lambda", dest="lam", type=int,
                   help="replication factor override")
    p.add_argument("--real", action="store_true")
    experiment(p)
    p.set_defaults(fn=_cmd_usecase)

    p = sub.add_parser("serve", help="cloud half of a TCP session")
    p.add_argument("--transport", required=True, help="tcp://host:port")
    p.add_argument("--program", required=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--public", help="public.vrts (real backend)")
    p.add_argument("--params", help="preset or params.vrts (mock backend)")
    p.add_argument("--out", help="also save the result container")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("connect", help="client half of a TCP session (exit 0/1)")
    p.add_argument("--transport", required=True, help="tcp://host:port")
    p.add_argument("--key", required=True)
    p.add_argument("--program", required=True)
    p.add_argument("--pp", action="store_true", help="packed-proof interaction")
    p.add_argument("--req", action="store_true", help="re-quadratization rounds")
    p.set_defaults(fn=_cmd_connect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (VheError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
