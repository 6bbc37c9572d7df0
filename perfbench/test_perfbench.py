"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Workloads run here at toy sizes on the ``mock64`` parameters, so every
code path of a real run executes in a few seconds.
"""

from __future__ import annotations

import functools
import json
import re

import pytest

import run  # first: it puts this checkout's src/ on the import path

import layers
import spans
import workloads as W
from vhe import labels, pe

TINY = {
    "pp-ride": functools.partial(W.PpRide, preset_name="mock64", drivers=2),
    "req-lookup": functools.partial(W.ReqLookup, preset_name="mock64", entries=4),
    "rep-agg": functools.partial(W.RepAgg, preset_name="mock64", lam=8, clients=2, weights=16),
    "attack-sim": functools.partial(W.AttackSim, trials=(40, 4)),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(W, "WORKLOADS", dict(TINY))
    monkeypatch.setattr(W, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(run, "OUT", run.OUT.with_name(".perfbench-test"))


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_job_is_verified(name):
    w = TINY[name]()
    w.setup(5)
    rec = w.run_job(0)
    assert rec.ok, rec.error
    assert rec.job_s > 0
    if w.outsourced:
        assert rec.bytes_up > 0 and rec.bytes_down > 0
        assert rec.client_s > 0 and rec.cloud_s > 0


@pytest.mark.parametrize("name", ["pp-ride", "req-lookup", "rep-agg"])
def test_smoke_end_to_end_run(tiny, name, capsys):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["pp-ride", "req-lookup", "rep-agg", "attack-sim"])
def test_smoke_traced_run(tiny, name, capsys):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    extra = {k: units.pop(k) for k in set(units) - set(expected)}
    if name == "attack-sim":  # the only workload that reaches mock and attacks
        assert extra and all(k.startswith(("layer.", "mock.", "attacks.")) for k in extra)
        assert metrics["mock.op_calls"] > 0 and metrics["attacks.trials"] == 44
    else:  # a thread pool overlaps spans in wall time
        assert metrics["trace.coverage"] == pytest.approx(1.0, abs=0.05)
    if name == "req-lookup":  # the only workload that runs ReQ and pe_verify
        assert extra and all(k.startswith(("pe.", "protocols.")) for k in extra)
        assert metrics["protocols.req_rounds"] > 0 and metrics["pe.verify_s"] > 0
    elif name != "attack-sim":
        assert not extra
    assert units == expected


def test_broken_verifier_fails_the_job(monkeypatch):
    w = TINY["rep-agg"]()
    w.setup(5)
    monkeypatch.setattr(W, "rep_verify", lambda *a, **k: False)
    rec = w.run_job(0)
    assert not rec.ok and "rejected" in rec.error


def test_cloud_failure_is_reported_as_the_jobs_error(monkeypatch):
    w = TINY["pp-ride"]()
    w.setup(5)

    def broken_prove(*args, **kwargs):
        raise RuntimeError("prover crashed")

    monkeypatch.setattr(W, "pp_prove", broken_prove)
    rec = w.run_job(0)
    assert not rec.ok and "prover crashed" in rec.error


def test_client_failure_is_reported_as_the_jobs_error(monkeypatch):
    w = TINY["pp-ride"]()
    w.setup(5)

    def broken_verify(*args, **kwargs):
        raise RuntimeError("verifier crashed")

    # the cloud then fails on the closed connection, but the client failed first
    monkeypatch.setattr(W, "pp_verify", broken_verify)
    rec = w.run_job(0)
    assert not rec.ok and "verifier crashed" in rec.error


def test_lookup_shape_guard():
    with pytest.raises(ValueError):
        W.ReqLookup(entries=27, chars=1)
    W.ReqLookup(entries=26, chars=1)


def test_self_times_on_a_synthetic_tree():
    #   0 root [0, 10]
    #   ├── 1 [1, 4]
    #   └── 2 [5, 9]
    #       └── 3 [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_span_table_books_waits_apart():
    t = spans.Tracer()
    t.job_id = 0
    rows = [  # name, start, end, parent
        ("pe.pe_eval", 0.0, 10.0, -1),
        ("protocols.req_reduce", 2.0, 6.0, 0),
        (spans.WAIT_SPAN, 3.0, 5.0, 1),
        ("bfv.mul", 7.0, 9.0, 0),
    ]
    for name, s, e, p in rows:
        t.name_id.append(t._nid(name))
        t.start.append(s)
        t.end.append(e)
        t.parent.append(p)
        t.job.append(0)
        t.thread.append(0)
    table = spans.SpanTable(t, [0])
    assert table.busy("pe.pe_eval") == 8.0
    assert table.wall("protocols.req_reduce") == 4.0
    assert table.layer_self() == {"pe": 4.0, "protocols": 2.0, "wait": 2.0, "bfv": 2.0}
    assert table.count_under(("bfv.mul",), ("pe.pe_eval",)) == 1


def test_tracer_patches_every_binding_and_restores_them():
    original = labels.prf_zt
    assert pe.prf_zt is original
    t = spans.Tracer()
    with t.installed([(labels, "prf_zt", "labels.prf_zt", False)], ("vhe",)):
        assert pe.prf_zt is not original and labels.prf_zt is not original
        key = labels.PrfKey(bytes(32))
        assert pe.prf_zt(key, labels.Identifier("x"), 97) == original(key, labels.Identifier("x"), 97)
    assert pe.prf_zt is original and labels.prf_zt is original
    assert [t.names[i] for i in t.name_id] == ["labels.prf_zt"]


def test_metric_names_and_units_are_valid():
    spec = benchmark_json()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    registered = [n for n, w in W.WORKLOADS.items() if w.registered]
    assert [w["name"] for w in spec["workloads"]] == registered
    assert all(NAME.match(w["name"]) for w in spec["workloads"])


def test_layer_targets_exist():
    for owner, attr, name, _ in layers.targets():
        assert attr in owner.__dict__, (owner, attr)
        assert NAME.match(name)
