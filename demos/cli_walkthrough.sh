#!/usr/bin/env bash
# File-based workflow: generate keys, authenticate inputs, evaluate,
# verify, refuse a malformed program or a missing file — then run seeded attack simulations, a micro-benchmark, an
# end-to-end use case, a packed-proof session over loopback TCP on the
# real backend and a replication session on the mock, all through the
# `vhe` command.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== 1. a public program (dot product over 8 logical slots) =="
python3 - <<'PY'
from vhe.circuit import ProgramBuilder, program_to_json

# replication at λ=8 on 64 physical slots leaves 8 logical slots,
# laid out as two rows of 4: fold each row, then fold the rows
b = ProgramBuilder(8, name="dot8")
x, y = b.input("x"), b.input("y")
s = b.inner_sum(b.mul(x, y), 4)
prog = b.build(b.add(s, b.row_swap(s)), output_block=(0, 1))
with open("dot8.json", "w") as f:
    f.write(program_to_json(prog))
print("wrote dot8.json")
PY

echo
echo "== 2. keys (replication, mock backend for speed) =="
vhe keygen --auth rep --params mock64 --lambda 8 --backend mock --out keys
# every secret is drawn from the OS: a second key differs from the first
vhe keygen --auth rep --params mock64 --lambda 8 --backend mock --out keys2
if cmp -s keys/secret.vrts keys2/secret.vrts; then
    echo "two keygen runs wrote the same secret" >&2
    exit 1
fi

echo
echo "== 3. authenticate two uploads =="
seq 1 8 | tr '\n' ',' | sed 's/,$//' > x.csv
seq 8 -1 1 | tr '\n' ',' | sed 's/,$//' > y.csv
vhe auth --key keys/secret.vrts --base x --values x.csv --out x.vrts
vhe auth --key keys/secret.vrts --base y --values y.csv --out y.vrts

echo
echo "== 4. evaluate at the (untrusted) cloud =="
vhe eval --program dot8.json --inputs x.vrts y.vrts \
    --params keys/params.vrts --out result.vrts

echo
echo "== 5. verify locally (the input lengths come from the key) =="
vhe verify --key keys/secret.vrts --program dot8.json --result result.vrts

echo
echo "== 6. a malformed program or input, or a missing file, is an error (exit 2), not a reject (1) =="
expect_error() {
    local rc=0
    "$@" 2> err.log || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q '^error:' err.log; then
        echo "expected 'error:' and exit 2, got exit $rc from: $*" >&2
        cat err.log >&2
        exit 1
    fi
    cat err.log
}
echo '{}' > empty.json
python3 - <<'PY'
import json

doc = json.load(open("dot8.json"))
doc["gates"].append({"op": "mul_plain", "args": [doc["output"]], "const": [-1] * 8})
doc["output"] = len(doc["gates"]) - 1
with open("negative.json", "w") as f:
    json.dump(doc, f)

# y renamed z, an identifier the key never authenticated
doc = json.load(open("dot8.json"))
doc["inputs"][1]["label"] = "z"
with open("dot8z.json", "w") as f:
    json.dump(doc, f)
PY
for prog in empty.json negative.json; do
    expect_error vhe eval --program "$prog" --inputs x.vrts y.vrts \
        --params keys/params.vrts --out bad.vrts
done
expect_error vhe verify --key missing.vrts --program dot8.json --result result.vrts
printf '\377\3761,2\n' > not-utf8.csv
expect_error vhe auth --key keys/secret.vrts --base x --values not-utf8.csv --out bad.vrts
# auth saves the spent identifier back to the key file: x is not authenticated twice
expect_error vhe auth --key keys/secret.vrts --base x --values y.csv --out again.vrts
# a program over an identifier the key never authenticated is refused
# locally: by verify, and by connect before it opens a socket
expect_error vhe verify --key keys/secret.vrts --program dot8z.json --result result.vrts
expect_error vhe connect --transport tcp://127.0.0.1:9 --key keys/secret.vrts \
    --program dot8z.json
grep -q 'never authenticated' err.log
# a result of another ring (mock16, λ=2) under the mock64 key
vhe keygen --auth rep --params mock16 --lambda 2 --backend mock --out keys16
vhe auth --key keys16/secret.vrts --base x --values x.csv --out x16.vrts
vhe auth --key keys16/secret.vrts --base y --values y.csv --out y16.vrts
vhe eval --program dot8.json --inputs x16.vrts y16.vrts \
    --params keys16/params.vrts --out result16.vrts
expect_error vhe verify --key keys/secret.vrts --program dot8.json --result result16.vrts

echo
echo "== 7. simulate forgers (each fails the run if it beats its bound) =="
vhe attack --strategy slot-perturb --trials 1000 --lambda 8 --seed 1 --out report
vhe attack --strategy tamper-pp-response --degree 8 --trials 200 --seed 1

echo
echo "== 8. per-slot cost trends on the real backend =="
vhe bench --params mock1024 --lams 16,32 --ops add --repeats 3 --out report

echo
echo "== 9. an end-to-end use case =="
vhe usecase --name ride-hailing --auth pe --seed 1 --out report

echo
echo "== 10. a packed proof over loopback TCP (real backend, shrunk messages; only connect names the mode) =="
python3 - <<'PY'
from vhe.circuit import ProgramBuilder, program_to_json

# (x + y)² summed over blocks of 4, on the 64 slots of the mock64 ring
b = ProgramBuilder(64, name="square-sum")
x, y = b.input("x"), b.input("y")
s = b.add(x, y)
prog = b.build(b.inner_sum(b.mul(s, s), 4), output_block=(0, 1))
with open("square64.json", "w") as f:
    f.write(program_to_json(prog))
PY
vhe keygen --auth pe --params mock64 --program square64.json --pp \
    --backend real --out pekeys
vhe auth --key pekeys/secret.vrts --base x --values x.csv --out px.vrts
vhe auth --key pekeys/secret.vrts --base y --values y.csv --out py.vrts
vhe serve --transport tcp://127.0.0.1:0 --program square64.json \
    --inputs px.vrts py.vrts --public pekeys/public.vrts > serve.log &
SERVER=$!
for _ in $(seq 100); do grep -q listening serve.log && break; sleep 0.1; done
PORT="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' serve.log)"
vhe connect --transport "tcp://127.0.0.1:$PORT" --key pekeys/secret.vrts \
    --program square64.json --pp
wait "$SERVER"
cat serve.log

echo
echo "== 11. a replication session over loopback TCP (mock backend) =="
vhe serve --transport tcp://127.0.0.1:0 --program dot8.json \
    --inputs x.vrts y.vrts --params keys/params.vrts > rep-serve.log &
SERVER=$!
for _ in $(seq 100); do grep -q listening rep-serve.log && break; sleep 0.1; done
PORT="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' rep-serve.log)"
vhe connect --transport "tcp://127.0.0.1:$PORT" --key keys/secret.vrts \
    --program dot8.json | tee rep-connect.log
wait "$SERVER"
cat rep-serve.log
grep -q '^accept' rep-connect.log

echo
echo "reports written:"
ls report
