"""Experiment drivers: use-case pipelines against their plaintext oracles,
adversary simulation statistics, benchmark row accounting, and the CLI's
file/TCP workflows."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

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
from vhe.harness.attacks import STRATEGIES
from vhe.harness.cli import main

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
        rep16.median_op_s / rep16.slots * 1e6
    )
    # one extended-ciphertext op costs about one baseline op
    assert rep16.median_op_s == pytest.approx(base.median_op_s, rel=1.0)
    d2 = key[("pe", "mul", None, 2)]
    d4 = key[("pe", "mul", None, 4)]
    assert d4.median_op_s > d2.median_op_s  # 9 backend products vs 4


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
        "--result", str(tmp_path / "result.vrts"), "--lengths", "4,4",
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
        "--result", str(tmp_path / "bad.vrts"), "--lengths", "4,4",
    ]) == 1
    assert "reject" in capsys.readouterr().out


def test_cli_pe_real_workflow(tmp_path, capsys):
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    (tmp_path / "x.csv").write_text("1 2 3 4\n")
    (tmp_path / "y.csv").write_text("5 6 7 8\n")
    keys = tmp_path / "keys"

    assert main([
        "keygen", "--auth", "pe", "--params", "mock64", "--program", str(prog),
        "--backend", "real", "--out", str(keys), "--seed", "2",
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


def test_cli_tcp_session_between_processes(tmp_path):
    """serve/connect as real processes: the packed proof crosses TCP."""
    prog = tmp_path / "prog.json"
    _write_program(prog, width=64)
    (tmp_path / "x.csv").write_text("1,2,3,4\n")
    (tmp_path / "y.csv").write_text("5,6,7,8\n")
    keys = tmp_path / "keys"
    main([
        "keygen", "--auth", "pe", "--params", "mock64", "--program", str(prog),
        "--pp", "--backend", "real", "--out", str(keys), "--seed", "3",
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
            "--public", str(keys / "public.vrts"), "--pp",
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
            "--pp", "--seed", "9",
        ])
        assert rc == 0
        assert server.wait(timeout=30) == 0
    finally:
        server.kill()


def test_cli_unknown_params_is_an_error(capsys):
    rc = main(["keygen", "--auth", "rep", "--params", "nope", "--out", "/tmp/x"])
    assert rc == 2
    assert "preset" in capsys.readouterr().err


def test_vhe_error_base_class():
    assert issubclass(ParameterError, VheError)
    assert issubclass(DegreeLimitError, VheError)
