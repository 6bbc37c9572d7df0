"""Experiment drivers: use-case pipelines against their plaintext oracles,
adversary simulation statistics, benchmark row accounting, and the CLI's
file/TCP workflows."""

import dataclasses
import json
import math
import random
import re
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vhe.circuit import ProgramBuilder, program_to_json
from vhe.errors import DegreeLimitError, ParameterError, VheError
from vhe.harness import (
    AttackSpec,
    run_bench,
    run_usecase,
    simulate_adversary,
    usecase_spec,
    wilson_interval,
)
from vhe.harness import attacks
from vhe.harness.attacks import STRATEGIES
from vhe import bfv, serialize
from vhe.harness import cli, usecases
from vhe.harness.cli import main
from vhe.mock import MockBackend
from vhe.params import preset
from vhe.pe import PeAuth, pe_eval
from vhe.rep import RepResult


class _CountingMock(MockBackend):
    """A mock client that counts the ciphertexts it decrypts (decrypt is a
    one-ciphertext decrypt_many)."""

    decrypts = 0

    def decrypt_many(self, cts):
        cts = list(cts)
        self.decrypts += len(cts)
        return super().decrypt_many(cts)


def _count_decrypts(monkeypatch, module) -> list:
    """Make `module.make_backend` build counting mocks; returns the list
    they are appended to, in order of construction."""
    made: list = []

    def make(params, keys, rng=None):
        assert keys is None
        made.append(_CountingMock(params, rng=rng))
        return made[-1]

    monkeypatch.setattr(module, "make_backend", make)
    return made

# ---------------------------------------------------------------------------
# use cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("auth", ["none", "rep", "pe", "pe+pp", "pe+req"])
@pytest.mark.parametrize("name", ["ride-hailing", "dot-product", "aggregation"])
def test_usecase_honest_accepts_and_matches_oracle(name, auth):
    report = run_usecase(usecase_spec(name, auth=auth, seed=3), auth=auth)
    assert report.match, f"{name}/{auth}: answer {report.answer} != {report.expected}"
    assert report.verdict is (None if auth == "none" else True)
    assert set(report.stages) == {"create", "eval", "verify"}
    assert all(v >= 0 for v in report.ratios.values())
    json.dumps(report.to_dict())  # report must serialize as-is


@pytest.mark.parametrize("auth", ["rep", "pe+req"])
def test_lookup_deep_circuit(auth):
    report = run_usecase(usecase_spec("lookup", auth=auth, seed=3), auth=auth)
    assert report.match and report.verdict is True
    if auth == "pe+req":
        # seven over-cap products, one round each; result back at degree 2
        assert report.req_rounds == 7
        assert report.result_degree == 2
        # two high terms per round plus the three result components come
        # down; two blinded replacements per round go back up
        assert report.cts_received_client == 2 * report.req_rounds + 3
        assert report.cts_client_interactive_sent == 2 * report.req_rounds


def test_usecase_without_authenticator_is_its_baseline():
    """auth="none" reports the baseline run itself instead of running the
    unauthenticated pipeline a second time."""
    report = run_usecase(usecase_spec("ride-hailing", auth="none", seed=4), auth="none")
    assert report.stages == report.baseline_stages
    assert report.match and report.verdict is None


def test_lookup_rejects_plain_encoding_before_crypto():
    """Degree 256 cannot ride a degree-8 encoding; refusal must be instant."""
    with pytest.raises(DegreeLimitError):
        run_usecase(usecase_spec("lookup", auth="pe", seed=0), auth="pe")


def test_usecase_depth_budget_checked_first():
    spec = usecase_spec("lookup", auth="rep", preset_name="n4096", seed=0)
    with pytest.raises(ParameterError, match="depth"):
        run_usecase(spec, auth="rep")


def test_usecase_rejects_unknown_names():
    with pytest.raises(ParameterError):
        usecase_spec("sorting", auth="rep")
    # 27 distinct one-letter entries do not exist: refused, not searched for
    with pytest.raises(ParameterError, match="at most 26"):
        usecase_spec("lookup", db_entries=27, entry_chars=1)
    with pytest.raises(ParameterError):
        run_usecase(usecase_spec("lookup", auth="rep"), auth="hmac")


def test_ridehailing_pe_ciphertext_deltas():
    """The squaring pipeline costs one extra upload, two extra downloads."""
    report = run_usecase(usecase_spec("ride-hailing", auth="pe", seed=1), auth="pe")
    assert report.cts_sent_per_client - report.baseline_cts_sent_per_client == 1
    assert report.cts_received_client - report.baseline_cts_received_client == 2
    assert report.result_degree == 2


def test_aggregation_rep_ciphertext_count_matches_formula():
    spec = usecase_spec("aggregation", auth="rep", seed=1)
    report = run_usecase(spec, auth="rep")
    n = 4096
    expected = math.ceil(spec.weight_length * spec.lam / n)
    assert report.cts_sent_per_client == expected == 32


def test_aggregation_rep_runs_the_session_and_decrypts_each_result_once(monkeypatch):
    made = _count_decrypts(monkeypatch, usecases)
    report = run_usecase(usecase_spec("aggregation", auth="rep", seed=1), auth="rep")
    assert report.verdict is True and report.match
    assert (report.cts_sent_per_client, report.cts_received_client) == (32, 32)
    # the baseline's cloud and client, then the session's
    assert [b.decrypts for b in made] == [0, 1, 0, 32]


def test_aggregation_pe_degree_stays_flat():
    report = run_usecase(usecase_spec("aggregation", auth="pe", seed=1), auth="pe")
    assert report.result_degree == 1


def test_pp_brings_received_down_to_two():
    for name in ("ride-hailing", "dot-product"):
        report = run_usecase(usecase_spec(name, auth="pe+pp", seed=2), auth="pe+pp")
        assert report.verdict is True
        assert report.cts_received_client == 2


def test_usecase_real_backend_smoke():
    report = run_usecase(
        usecase_spec("ride-hailing", auth="pe", seed=5), auth="pe", real=True
    )
    assert report.match and report.verdict is True and report.real


# ---------------------------------------------------------------------------
# adversary simulation
# ---------------------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100, z=1.96)
    assert lo < 0.5 < hi and 0.0 <= lo and hi <= 1.0
    assert wilson_interval(0, 1000)[0] == 0.0
    assert wilson_interval(1000, 1000)[1] == pytest.approx(1.0)


def test_slot_perturb_rate_tracks_combinatorial_bound():
    spec = AttackSpec(strategy="slot-perturb", trials=20_000, seed=7, lam=8)
    report = simulate_adversary(spec)
    assert report.analytic_bound == pytest.approx(1 / math.comb(8, 4))
    assert report.wilson_low <= report.analytic_bound <= report.wilson_high
    assert report.accepts > 0


def test_slot_perturb_wrong_subset_size_never_accepted():
    spec = AttackSpec(strategy="slot-perturb", trials=2_000, seed=7, lam=8, subset=3)
    report = simulate_adversary(spec)
    assert report.accepts == 0 and report.analytic_bound == 0.0


@pytest.mark.parametrize(
    "strategy", ["replace-ciphertext", "wrong-circuit", "drop-input"]
)
def test_rep_structural_attacks_always_rejected(strategy):
    report = simulate_adversary(AttackSpec(strategy=strategy, trials=300, seed=5))
    assert report.auth == "rep"
    assert report.accepts == 0


@pytest.mark.parametrize(
    "strategy",
    [
        "tamper-pe-coefficient",
        "slot-perturb",
        "replace-ciphertext",
        "wrong-circuit",
        "drop-input",
        "tamper-pp-response",
        "tamper-req-message",
    ],
)
def test_pe_attacks_always_rejected(strategy):
    spec = AttackSpec(
        strategy=strategy, trials=200, seed=5, auth="pe", preset_name="mock64_wide"
    )
    report = simulate_adversary(spec)
    assert report.accepts == 0
    assert report.analytic_bound < 1e-2


def test_attack_trials_are_seed_reproducible():
    spec = AttackSpec(strategy="slot-perturb", trials=3_000, seed=21, lam=8)
    a = simulate_adversary(spec)
    b = simulate_adversary(spec)
    assert a.accepts == b.accepts
    c = simulate_adversary(AttackSpec(strategy="slot-perturb", trials=3_000, seed=22))
    assert (a.accepts, a.seed) != (c.accepts, c.seed)


def test_attack_real_backend_smoke():
    report = simulate_adversary(
        AttackSpec(strategy="slot-perturb", trials=30, seed=2, real=True)
    )
    assert report.real and report.trials == 30
    report = simulate_adversary(
        AttackSpec(
            strategy="tamper-pe-coefficient",
            trials=10,
            seed=2,
            preset_name="mock64_wide",
            real=True,
        )
    )
    assert report.accepts == 0


@pytest.mark.parametrize("strategy,degree", [("tamper-pp-response", 2), ("tamper-req-message", 4)])
def test_attack_session_strategies_real_backend_smoke(strategy, degree):
    """The session strategies tamper at the chain prefix the cloud's
    decrypt-only messages travel on: on the real backend every tampered
    session is rejected, while the same session run honestly accepts (so
    the rejections are not the noise guard's)."""
    spec = AttackSpec(strategy=strategy, trials=3, seed=2, degree=degree, real=True)
    report = simulate_adversary(spec)
    assert report.real and report.trials == 3 and report.accepts == 0
    world = attacks._PeWorld(spec)
    backend = world._backend(random.Random(1))
    req, pp = strategy == "tamper-req-message", strategy == "tamper-pp-response"

    def evaluate(reducer):
        return pe_eval(world.program, world.auths, backend, reducer=reducer)

    assert world.session(random.Random(2), backend, evaluate, req, pp)


def test_session_attack_refuses_a_world_whose_honest_session_fails():
    """On mock64 the untampered degree-4 packed proof already fails
    decryption, so every forgery would be rejected by the noise guard: the
    real-backend simulator refuses it, naming the preset and degree, and
    runs at degree 2, where the honest session accepts."""
    spec = AttackSpec(strategy="tamper-pp-response", trials=2, seed=3, degree=4, real=True)
    with pytest.raises(ParameterError, match="mock64 at degree 4"):
        simulate_adversary(spec)
    report = simulate_adversary(dataclasses.replace(spec, degree=2))
    assert report.real and report.trials == 2 and report.accepts == 0


def test_attack_spec_validation():
    with pytest.raises(ParameterError):
        simulate_adversary(AttackSpec(strategy="ddos", trials=1))
    with pytest.raises(ParameterError):
        simulate_adversary(AttackSpec(strategy="tamper-req-message", auth="rep"))
    with pytest.raises(ParameterError):
        simulate_adversary(
            AttackSpec(strategy="slot-perturb", trials=1, lam=8, subset=9)
        )
    assert set(STRATEGIES) >= {"slot-perturb", "tamper-pp-response"}


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_rows_and_amortization_accounting():
    rows = run_bench(lams=(16, 32), degrees=(2, 4), ops=("add", "mul"), repeats=2)
    key = {(r.scheme, r.op, r.lam, r.degree): r for r in rows}
    assert ("baseline", "add", None, None) in key
    base = key[("baseline", "add", None, None)]
    assert base.slots == base.n == 1024
    rep16 = key[("rep", "add", 16, None)]
    assert rep16.slots == 1024 // 16
    assert rep16.per_slot_us == pytest.approx(
        rep16.best_op_s / rep16.slots * 1e6
    )
    # one extended-ciphertext op costs about one baseline op
    assert rep16.best_op_s == pytest.approx(base.best_op_s, rel=1.0)
    d2 = key[("pe", "mul", None, 2)]
    d4 = key[("pe", "mul", None, 4)]
    assert d4.best_op_s > d2.best_op_s  # 6 backend products vs 3 (Karatsuba)


def test_bench_validates_inputs():
    with pytest.raises(ParameterError):
        run_bench(lams=(7,))
    with pytest.raises(ParameterError):
        run_bench(ops=("add", "fma"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_program(path: Path, width: int, block: int = 4) -> None:
    b = ProgramBuilder(width, name="square-sum")
    x, y = b.input("x"), b.input("y")
    s = b.add(x, y)
    prog = b.build(b.inner_sum(b.mul(s, s), block), output_block=(0, 1))
    path.write_text(program_to_json(prog))


def test_cli_rep_file_workflow(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=8)
    (tmp_path / "x.csv").write_text("1,2,3,4\n")
    (tmp_path / "y.csv").write_text("5,6,7,8\n")
    keys = tmp_path / "keys"

    assert main([
        "keygen", "--auth", "rep", "--params", "mock64", "--lambda", "8",
        "--program", str(prog), "--backend", "mock", "--out", str(keys),
    ]) == 0
    for base in ("x", "y"):
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / f"{base}.csv"),
            "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    assert main([
        "eval", "--program", str(prog),
        "--inputs", str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts"),
        "--params", "mock64", "--out", str(tmp_path / "result.vrts"),
    ]) == 0
    assert main([
        "verify", "--key", str(keys / "secret.vrts"), "--program", str(prog),
        "--result", str(tmp_path / "result.vrts"),
    ]) == 0
    out = capsys.readouterr().out
    assert "accept" in out and "344" in out  # sum of (x_i + y_i)^2
    assert "security below 128-bit (test only)" in out  # keygen states the level

    # a result produced by a different circuit must not verify
    other = tmp_path / "other.json"
    _write_program(other, width=8, block=2)
    assert main([
        "eval", "--program", str(other),
        "--inputs", str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts"),
        "--params", "mock64", "--out", str(tmp_path / "bad.vrts"),
    ]) == 0
    assert main([
        "verify", "--key", str(keys / "secret.vrts"), "--program", str(prog),
        "--result", str(tmp_path / "bad.vrts"),
    ]) == 1
    assert "reject" in capsys.readouterr().out

    # a values file that is not UTF-8 and a program over an identifier the
    # key never authenticated are errors (exit 2), not rejects (1)
    (tmp_path / "bad.csv").write_bytes(b"\xff\xfe1,2\n")
    _assert_clean_error(main([
        "auth", "--key", str(keys / "secret.vrts"), "--base", "x",
        "--values", str(tmp_path / "bad.csv"), "--out", str(tmp_path / "bad-x.vrts"),
    ]), capsys, "bad.csv")
    _assert_clean_error(main([
        "verify", "--key", str(keys / "secret.vrts"), "--program", str(_renamed_input(prog)),
        "--result", str(tmp_path / "result.vrts"),
    ]), capsys, "never authenticated Identifier(label='z'")


def _renamed_input(prog: Path) -> Path:
    """A copy of the program file whose last input is named z, an
    identifier no key in these tests authenticates."""
    doc = json.loads(prog.read_text())
    doc["inputs"][-1]["label"] = "z"
    other = prog.with_name("z-" + prog.name)
    other.write_text(json.dumps(doc))
    return other


def _rep_files(tmp_path, length: int):
    """Mock REP keys at λ = 8, two uploads of `length` values and a
    one-gate add over all 8 logical slots; returns (secret, program)."""
    prog = tmp_path / "sum.json"
    b = ProgramBuilder(8, name="sum")
    prog.write_text(program_to_json(b.build(b.add(b.input("x"), b.input("y")), output_block=(0, 8))))
    keys = tmp_path / "keys"
    assert main([
        "keygen", "--auth", "rep", "--params", "mock64", "--lambda", "8",
        "--backend", "mock", "--out", str(keys),
    ]) == 0
    for base in ("x", "y"):
        (tmp_path / f"{base}.csv").write_text(",".join(map(str, range(length))))
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / f"{base}.csv"), "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    return keys / "secret.vrts", prog


def test_cli_auth_spends_each_identifier_once(tmp_path, capsys):
    """`vhe auth` saves the registry back to --key, so authenticating the
    same identifier again is an error (exit 2), not a second upload."""
    secret, _ = _rep_files(tmp_path, 8)
    capsys.readouterr()
    assert main([
        "auth", "--key", str(secret), "--base", "x",
        "--values", str(tmp_path / "y.csv"), "--out", str(tmp_path / "again.vrts"),
    ]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "again.vrts").exists()


def test_cli_result_files_are_shrunk_and_an_undecryptable_one_is_a_reject(tmp_path, capsys):
    """`vhe eval --public` writes each result ciphertext on the
    Params.shrink_primes prefix, which `vhe verify` accepts; a result whose
    ciphertext has random residues fails to decrypt: a reject (exit 1)."""
    prog = tmp_path / "sum.json"
    b = ProgramBuilder(8, name="sum")
    prog.write_text(program_to_json(b.build(b.add(b.input("x"), b.input("y")), output_block=(0, 4))))
    keys = tmp_path / "keys"
    assert main([
        "keygen", "--auth", "rep", "--params", "mock64", "--lambda", "8", "--out", str(keys),
    ]) == 0
    (tmp_path / "v.csv").write_text("1,2,3,4")
    for base in ("x", "y"):
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / "v.csv"), "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    result = tmp_path / "result.vrts"
    assert main([
        "eval", "--program", str(prog), "--inputs", str(tmp_path / "x.vrts"),
        str(tmp_path / "y.vrts"), "--public", str(keys / "public.vrts"), "--out", str(result),
    ]) == 0
    res = serialize.load_rep_result(serialize.read_file(result))
    params = preset("mock64")
    assert params.shrink_primes < len(params.q_chain)
    assert [c.data.shape for c in res.cts] == [(2, params.shrink_primes, params.n)]
    verify = ["verify", "--key", str(keys / "secret.vrts"), "--program", str(prog)]
    capsys.readouterr()
    assert main(verify + ["--result", str(result)]) == 0
    assert capsys.readouterr().out == "accept; output block = [2, 4, 6, 8]\n"

    rng = np.random.default_rng(5)
    q = np.array(params.q_chain[: params.shrink_primes])[:, None]
    noise = bfv.Ciphertext(rng.integers(0, q, size=res.cts[0].data.shape, dtype=np.int64))
    serialize.write_file(tmp_path / "noise.vrts", serialize.save_rep_result(dataclasses.replace(res, cts=(noise,))))
    assert main(verify + ["--result", str(tmp_path / "noise.vrts")]) == 1
    assert capsys.readouterr().out.startswith("reject: a result ciphertext failed to decrypt")


def test_cli_rep_verify_decrypts_once_and_counts_chunks(tmp_path, capsys, monkeypatch):
    """`vhe verify` decrypts each REP result ciphertext once, and rejects a
    result file with a chunk dropped or appended: the count comes from the
    input lengths the key recorded."""
    secret, prog = _rep_files(tmp_path, 24)
    result = tmp_path / "result.vrts"
    assert main([
        "eval", "--program", str(prog), "--inputs", str(tmp_path / "x.vrts"),
        str(tmp_path / "y.vrts"), "--params", "mock64", "--out", str(result),
    ]) == 0
    verify = ["verify", "--key", str(secret), "--program", str(prog)]
    made = _count_decrypts(monkeypatch, cli)
    assert main(verify + ["--result", str(result)]) == 0
    assert [b.decrypts for b in made] == [3]
    assert "accept" in capsys.readouterr().out

    res = serialize.load_rep_result(serialize.read_file(result))
    serialize.write_file(
        tmp_path / "short.vrts", serialize.save_rep_result(RepResult(res.cts[:2], res.tag, res.lam))
    )
    assert main(verify + ["--result", str(tmp_path / "short.vrts")]) == 1
    assert "reject: 2 result ciphertext(s) where the inputs imply 3" in capsys.readouterr().out
    serialize.write_file(
        tmp_path / "long.vrts", serialize.save_rep_result(RepResult(res.cts + res.cts[:1], res.tag, res.lam))
    )
    assert main(verify + ["--result", str(tmp_path / "long.vrts")]) == 1
    assert "reject: 4 result ciphertext(s) where the inputs imply 3" in capsys.readouterr().out


def test_cli_verify_refuses_a_pe_result_with_an_extra_component(tmp_path, capsys):
    """A degree-2 result must carry exactly its 3 components: a zero
    fourth one leaves the identity intact, but it is refused."""
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    keys = tmp_path / "keys"
    assert main([
        "keygen", "--auth", "pe", "--params", "mock64", "--backend", "mock", "--out", str(keys),
    ]) == 0
    for base in ("x", "y"):
        (tmp_path / f"{base}.csv").write_text("1,2,3,4\n")
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / f"{base}.csv"), "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    result = tmp_path / "result.vrts"
    assert main([
        "eval", "--program", str(prog), "--inputs", str(tmp_path / "x.vrts"),
        str(tmp_path / "y.vrts"), "--params", "mock64", "--out", str(result),
    ]) == 0
    verify = ["verify", "--key", str(keys / "secret.vrts"), "--program", str(prog)]
    assert main(verify + ["--result", str(result)]) == 0
    res = serialize.load_pe_auth(serialize.read_file(result))
    zero = MockBackend(preset("mock64"), rng=random.Random(1)).encrypt([0] * 64)
    serialize.write_file(tmp_path / "padded.vrts", serialize.save_pe_auth(PeAuth(res.cts + (zero,))))
    capsys.readouterr()
    assert main(verify + ["--result", str(tmp_path / "padded.vrts")]) == 1
    out = capsys.readouterr().out
    assert "reject: 4 result component(s) where the program's degree implies 3" in out


def test_cli_pe_real_workflow(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    (tmp_path / "x.csv").write_text("1 2 3 4\n")
    (tmp_path / "y.csv").write_text("5 6 7 8\n")
    keys = tmp_path / "keys"

    assert main([
        "keygen", "--auth", "pe", "--params", "mock64", "--program", str(prog),
        "--backend", "real", "--out", str(keys),
    ]) == 0
    assert (keys / "public.vrts").exists()
    for base in ("x", "y"):
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / f"{base}.csv"),
            "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    assert main([
        "eval", "--program", str(prog),
        "--inputs", str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts"),
        "--public", str(keys / "public.vrts"),
        "--out", str(tmp_path / "result.vrts"),
    ]) == 0
    assert main([
        "verify", "--key", str(keys / "secret.vrts"), "--program", str(prog),
        "--result", str(tmp_path / "result.vrts"),
    ]) == 0
    assert "344" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["mock", "real"])
def test_cli_a_result_file_is_not_an_input(tmp_path, capsys, backend):
    """A result file holds shrunk ciphertexts, which are terminal: `vhe
    eval` refuses one as an input with `error:` and exit 2 on either
    backend (keygen, auth, eval, then eval of the result on mock64)."""
    prog = tmp_path / "sum.json"
    b = ProgramBuilder(64, name="sum")
    prog.write_text(program_to_json(b.build(b.add(b.input("x"), b.input("y")), output_block=(0, 4))))
    keys = tmp_path / "keys"
    assert main([
        "keygen", "--auth", "pe", "--params", "mock64", "--backend", backend, "--out", str(keys),
    ]) == 0
    (tmp_path / "v.csv").write_text("1,2,3,4")
    for base in ("x", "y"):
        assert main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / "v.csv"), "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    where = ["--params", "mock64"] if backend == "mock" else ["--public", str(keys / "public.vrts")]
    result = str(tmp_path / "result.vrts")
    evaluate = ["eval", "--program", str(prog), *where, "--out"]
    assert main(evaluate + [result, "--inputs", str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts")]) == 0
    capsys.readouterr()
    again = str(tmp_path / "again.vrts")
    _assert_clean_error(main(evaluate + [again, "--inputs", result, result]), capsys)
    assert not Path(again).exists()


def test_cli_malformed_container_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.vrts"
    bad.write_bytes(b"garbage")
    prog = tmp_path / "prog.json"
    _write_program(prog, width=8)
    rc = main([
        "verify", "--key", str(bad), "--program", str(prog),
        "--result", str(bad),
    ])
    assert rc == 2
    assert "VRTS" in capsys.readouterr().err


def test_cli_attack_exits_one_above_its_bound(monkeypatch, capsys):
    """`vhe attack` fails exactly when the 99% Wilson interval of the accept
    rate lies wholly above the analytic bound: 15/1000 slot-perturb accepts
    sit within 1/70, but not within a bound of 10⁻³."""
    args = ["attack", "--strategy", "slot-perturb", "--trials", "1000", "--lambda", "8",
            "--seed", "1"]
    assert main(args) == 0
    real = simulate_adversary
    monkeypatch.setattr(
        "vhe.harness.cli.simulate_adversary",
        lambda spec: dataclasses.replace(real(spec), analytic_bound=1e-3),
    )
    assert main(args) == 1
    assert "15/1000 accepted" in capsys.readouterr().out


def test_cli_report_emission(tmp_path, capsys):
    assert main([
        "attack", "--strategy", "wrong-circuit", "--trials", "50",
        "--out", str(tmp_path / "rep"),
    ]) == 0
    data = json.loads((tmp_path / "rep" / "attack.json").read_text())
    assert data["accepts"] == 0 and data["trials"] == 50
    assert (tmp_path / "rep" / "attack.csv").read_text().count("\n") == 2

    assert main([
        "usecase", "--name", "dot-product", "--auth", "rep",
        "--out", str(tmp_path / "uc"),
    ]) == 0
    data = json.loads((tmp_path / "uc" / "usecase-dot-product-rep.json").read_text())
    assert data["verdict"] is True and data["match"] is True

    assert main([
        "bench", "--lams", "16", "--ops", "add", "--repeats", "1",
        "--out", str(tmp_path / "bench"),
    ]) == 0
    rows = json.loads((tmp_path / "bench" / "bench.json").read_text())
    lines = (tmp_path / "bench" / "bench.csv").read_text().splitlines()
    assert lines[0] == "scheme,op,lam,degree,n,slots,best_op_s,per_slot_us,repeats"
    assert len(lines) == 1 + len(rows)
    capsys.readouterr()


def test_cli_transport_parsing(tmp_path):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    rc = main([
        "connect", "--transport", "mem", "--key", str(prog),
        "--program", str(prog),
    ])
    assert rc == 2  # mem transport is reserved for in-process runs
    rc = main([
        "connect", "--transport", "tcp://nope", "--key", str(prog),
        "--program", str(prog),
    ])
    assert rc == 2


def test_cli_connect_without_a_listener_is_an_error(tmp_path, capsys):
    """A refused connection is a clean error (exit 2), not a reject (1)."""
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    keys = tmp_path / "keys"
    assert main([
        "keygen", "--auth", "pe", "--params", "mock64", "--backend", "mock",
        "--out", str(keys),
    ]) == 0
    capsys.readouterr()
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))  # bound, never listening
        rc = main([
            "connect", "--transport", f"tcp://127.0.0.1:{held.getsockname()[1]}",
            "--key", str(keys / "secret.vrts"), "--program", str(prog),
        ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def _assert_clean_error(rc, capsys, names=""):
    """Exit 2 with a one-line `error:` report naming `names`: not a reject,
    not a traceback."""
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err and "Traceback" not in err


# the REP keys that make a result and those that verify it, where None is
# _rep_files' mock64 mock key
_OTHER_KEYS = {
    "mock16 result under a mock64 key": (["--params", "mock16", "--lambda", "2", "--backend", "mock"], None),
    "mock result under a real key": (
        ["--params", "mock64", "--lambda", "8", "--backend", "mock"],
        ["--params", "mock64", "--lambda", "8", "--backend", "real"],
    ),
}


@pytest.mark.parametrize("case", sorted(_OTHER_KEYS))
def test_cli_verify_refuses_a_result_of_another_ring_or_backend(tmp_path, capsys, case):
    """`vhe verify` with a REP key on a result file whose ciphertexts belong
    to another ring or to the other backend prints `error:` and exits 2,
    before anything is decrypted.  Every key authenticates x and y, so
    each knows the program's inputs."""
    secret, prog = _rep_files(tmp_path, 8)

    def key(role, args):
        if args is None:
            return secret
        assert main(["keygen", "--auth", "rep", *args, "--out", str(tmp_path / role)]) == 0
        return tmp_path / role / "secret.vrts"

    maker, verifier = (key(role, args) for role, args in zip(("maker", "verifier"), _OTHER_KEYS[case]))
    for prefix, k in (("o", maker), ("v", verifier)):
        if k == secret:  # _rep_files authenticated x and y under it
            continue
        for base in ("x", "y"):
            assert main([
                "auth", "--key", str(k), "--base", base,
                "--values", str(tmp_path / f"{base}.csv"), "--out", str(tmp_path / f"{prefix}{base}.vrts"),
            ]) == 0
    assert main([
        "eval", "--program", str(prog), "--inputs", str(tmp_path / "ox.vrts"),
        str(tmp_path / "oy.vrts"), "--params", str(maker.parent / "params.vrts"),
        "--out", str(tmp_path / "r.vrts"),
    ]) == 0
    capsys.readouterr()
    _assert_clean_error(main([
        "verify", "--key", str(verifier), "--program", str(prog),
        "--result", str(tmp_path / "r.vrts"),
    ]), capsys, "ciphertext")


def test_cli_missing_files_are_errors(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    key, missing_prog = str(tmp_path / "missing.vrts"), str(tmp_path / "missing.json")
    for argv, missing in (
        (["verify", "--key", key, "--program", str(prog), "--result", key], key),
        (["connect", "--transport", "tcp://127.0.0.1:9", "--key", key,
          "--program", str(prog)], key),
        (["eval", "--program", missing_prog, "--inputs", key, "--params", "mock64",
          "--out", str(tmp_path / "r.vrts")], missing_prog),
    ):
        _assert_clean_error(main(argv), capsys, missing)


def test_cli_malformed_programs_are_errors(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=8)
    doc = json.loads(prog.read_text())
    negative = json.dumps(dict(doc, gates=doc["gates"] + [
        {"op": "mul_plain", "args": [doc["output"]], "const": [-1] * 8},
    ], output=len(doc["gates"])))
    next(g for g in doc["gates"] if g["op"] == "inner_sum")["block"] = True
    for text, names in (
        (b"{}", "expected an object"),
        (negative.encode(), "mul_plain"),
        (json.dumps(doc).encode(), "inner_sum"),
        (b"\xff{", "not JSON"),
    ):
        prog.write_bytes(text)
        _assert_clean_error(main([
            "eval", "--program", str(prog), "--inputs", str(tmp_path / "x.vrts"),
            "--params", "mock64", "--out", str(tmp_path / "r.vrts"),
        ]), capsys, names)


def test_cli_tcp_session_between_processes(tmp_path):
    """serve/connect as real processes: a flagless serve runs the mode
    that connect names, here ReQ and the packed proof, across TCP."""
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    (tmp_path / "x.csv").write_text("1,2,3,4\n")
    (tmp_path / "y.csv").write_text("5,6,7,8\n")
    keys = tmp_path / "keys"
    main([
        "keygen", "--auth", "pe", "--params", "mock64", "--program", str(prog),
        "--pp", "--backend", "real", "--out", str(keys),
    ])
    for base in ("x", "y"):
        main([
            "auth", "--key", str(keys / "secret.vrts"), "--base", base,
            "--values", str(tmp_path / f"{base}.csv"),
            "--out", str(tmp_path / f"{base}.vrts"),
        ])
    server = subprocess.Popen(
        [
            sys.executable, "-m", "vhe.harness.cli", "serve",
            "--transport", "tcp://127.0.0.1:0",
            "--program", str(prog),
            "--inputs", str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts"),
            "--public", str(keys / "public.vrts"),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = server.stdout.readline()
        port = int(re.search(r":(\d+)$", line.strip()).group(1))
        rc = main([
            "connect", "--transport", f"tcp://127.0.0.1:{port}",
            "--key", str(keys / "secret.vrts"), "--program", str(prog),
            "--pp", "--req",
        ])
        assert rc == 0
        assert server.wait(timeout=30) == 0
        assert "reduction round(s)" in server.stdout.read()
    finally:
        server.kill()
        server.stdout.close()
        server.wait()


def test_cli_rep_tcp_session_between_processes(tmp_path, capsys):
    """serve infers REP from its inputs, connect from the secret: the REP
    result crosses TCP in one message and verifies."""
    secret, prog = _rep_files(tmp_path, 24)
    inputs = [str(tmp_path / "x.vrts"), str(tmp_path / "y.vrts")]
    server = subprocess.Popen(
        [
            sys.executable, "-m", "vhe.harness.cli", "serve", "--transport", "tcp://127.0.0.1:0",
            "--program", str(prog), "--inputs", *inputs, "--params", "mock64",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(re.search(r":(\d+)$", server.stdout.readline().strip()).group(1))
        rc = main([
            "connect", "--transport", f"tcp://127.0.0.1:{port}", "--key", str(secret),
            "--program", str(prog),
        ])
        assert rc == 0
        assert server.wait(timeout=30) == 0
        assert "3 ciphertext(s), λ=8" in server.stdout.read()
    finally:
        server.kill()
        server.stdout.close()
        server.wait()
    sums = [2 * v for v in range(24)]
    assert f"accept; output block = {sums}" in capsys.readouterr().out


def test_cli_rep_session_refusals(tmp_path, capsys, monkeypatch):
    """connect refuses a program over an identifier the key never
    authenticated before any socket is opened."""
    secret, prog = _rep_files(tmp_path, 8)
    opened = []
    monkeypatch.setattr(cli, "tcp_connect", lambda *a: opened.append(a))
    capsys.readouterr()
    _assert_clean_error(main([
        "connect", "--transport", "tcp://127.0.0.1:9", "--key", str(secret),
        "--program", str(_renamed_input(prog)),
    ]), capsys, "never authenticated Identifier(label='z'")
    assert opened == []


def test_cli_client_commands_take_no_seed_and_no_lengths():
    """Keys, encryptions and challenges come from the OS: only the seeded
    experiments take --seed, and REP input lengths come from the key."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    options = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    for name in ("keygen", "auth", "eval", "verify", "serve", "connect"):
        assert "--seed" not in options[name], name
    for name in ("attack", "bench", "usecase"):
        assert "--seed" in options[name], name
    assert not any("--lengths" in opts for opts in options.values())


def _pe_real_keys(out: Path) -> Path:
    assert main(["keygen", "--auth", "pe", "--params", "mock64", "--backend", "real", "--out", str(out)]) == 0
    return out / "secret.vrts"


def test_cli_default_keygen_runs_write_different_secrets(tmp_path):
    assert _pe_real_keys(tmp_path / "k1").read_bytes() != _pe_real_keys(tmp_path / "k2").read_bytes()


def test_cli_auth_uploads_under_one_key_share_no_a_half(tmp_path):
    """Each encryption draws its `a` half afresh: two uploads under one
    real key (two ciphertexts each) hold four different ones."""
    secret = _pe_real_keys(tmp_path / "keys")
    (tmp_path / "v.csv").write_text("1,2,3")
    for base in ("x", "y"):
        assert main([
            "auth", "--key", str(secret), "--base", base,
            "--values", str(tmp_path / "v.csv"), "--out", str(tmp_path / f"{base}.vrts"),
        ]) == 0
    a_halves = [
        c.data[1] for base in ("x", "y")
        for c in serialize.load_pe_auth(serialize.read_file(tmp_path / f"{base}.vrts")).cts
    ]
    assert len(a_halves) == 4
    assert len({a.tobytes() for a in a_halves}) == 4


def test_cli_unknown_params_is_an_error(capsys):
    rc = main(["keygen", "--auth", "rep", "--params", "nope", "--out", "/tmp/x"])
    assert rc == 2
    assert "preset" in capsys.readouterr().err


def test_cli_keygen_refuses_rep_with_the_packed_proof(tmp_path, capsys):
    """The packed proof verifies only PE: no REP keyset with its keys."""
    rc = main([
        "keygen", "--auth", "rep", "--params", "mock64", "--pp", "--backend", "mock",
        "--out", str(tmp_path / "keys"),
    ])
    assert rc == 2
    assert "--pp" in capsys.readouterr().err
    assert not (tmp_path / "keys").exists()


def test_vhe_error_base_class():
    assert issubclass(ParameterError, VheError)
    assert issubclass(DegreeLimitError, VheError)
