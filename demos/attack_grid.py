"""Print the seeded attack reports of a fixed grid of 48 specs.

Every (encoding, strategy) pair the simulator knows, at seeds 1 and 5, on
the mock64, mock64_wide and mock16 presets, a few subset sizes, and six
small real-backend runs.  Each spec prints one JSON line: its report
without ``elapsed``, or the error it is refused with, and under ``draws``
a digest of the final state of every seeded ``random.Random`` the run made
(a moved or extra draw changes it even where no forgery is accepted).
Two checkouts that print the same lines simulate the same forgeries with
the same draws:

    PYTHONPATH=src python3 demos/attack_grid.py > grid.jsonl
"""

from __future__ import annotations

import hashlib
import json
import random

from vhe.errors import VheError
from vhe.harness import AttackSpec, simulate_adversary

REP = ("slot-perturb", "replace-ciphertext", "wrong-circuit", "drop-input")
PE = REP + ("tamper-pe-coefficient", "tamper-pp-response", "tamper-req-message")


def grid():
    for strategy in REP:
        for preset, lam in (("mock64", 8), ("mock16", 4)):
            for seed in (1, 5):
                yield AttackSpec(strategy, 200, seed, "rep", preset, lam)
    for strategy in PE:
        for seed in (1, 5):
            yield AttackSpec(strategy, 200, seed, "pe", "mock64_wide", degree=4)
        if strategy != "tamper-req-message":
            yield AttackSpec(strategy, 200, 1, "pe", "mock16", degree=2)
    for seed in (1, 5):
        yield AttackSpec("slot-perturb", 200, seed, "rep", "mock64", 8, subset=3)
        yield AttackSpec("slot-perturb", 200, seed, "pe", "mock64_wide", subset=3)
    yield AttackSpec("tamper-req-message", 20, 1, "pe", "mock64", degree=2)  # no ReQ round
    yield AttackSpec("slot-perturb", 20, 1, "rep", "mock64", 8, subset=9)  # outside 1..λ
    # the real backend
    yield AttackSpec("slot-perturb", 20, 2, "rep", "mock64", 8, real=True)
    yield AttackSpec("drop-input", 5, 2, "rep", "mock64", 8, real=True)
    yield AttackSpec("tamper-pe-coefficient", 5, 2, "pe", "mock64_wide", real=True)
    yield AttackSpec("tamper-pp-response", 3, 2, "pe", "mock64", degree=2, real=True)
    yield AttackSpec("tamper-pp-response", 3, 3, "pe", "mock64", degree=4, real=True)
    yield AttackSpec("tamper-req-message", 3, 2, "pe", "mock64", degree=4, real=True)


class _Seeded(random.Random):
    """random.Random that records every instance made with a seed."""

    made: list = []

    def __init__(self, *seed):
        super().__init__(*seed)
        if seed:
            _Seeded.made.append(self)


def main() -> None:
    random.Random = _Seeded
    for spec in grid():
        _Seeded.made.clear()
        try:
            out = simulate_adversary(spec).to_dict()
            del out["elapsed"]
        except VheError as exc:
            out = {"spec": repr(spec), "error": f"{type(exc).__name__}: {exc}"}
        # sorted: the session strategies make generators on two threads
        states = sorted(repr(g.getstate()) for g in _Seeded.made)
        out["draws"] = hashlib.sha256("".join(states).encode()).hexdigest()[:16]
        print(json.dumps(out, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
