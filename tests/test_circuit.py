"""Circuit representation: validation, the plain interpreter as semantic
reference, challenge evaluation, JSON round-trips, and the homomorphic
interpreter against the plain one."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhe.circuit import (
    Gate,
    Program,
    ProgramBuilder,
    challenge_input_pe,
    eval_challenge_pe,
    eval_challenge_rep,
    eval_he,
    eval_plain,
    extend_const,
    interpret,
    program_from_json,
    program_to_json,
    random_program,
    required_rotation_steps,
    slot_inner_sum,
)
from vhe.errors import ParameterError, StructureError
from vhe.harness.usecases import USECASES, build_instance, usecase_spec
from vhe.labels import Identifier, PrfKey, hash_tree_eval, prf_tag
from vhe.mock import MockBackend
from vhe.params import preset
from vhe.pe import REQ_CAP, degree_schedule, offset_walk, pe_auth, pe_eval, pe_keygen

T = 257  # small prime for hand examples (17 is too small for mock presets)
RANDOM_PROGRAMS_SHA256 = "eadda42f5e814016e497f9200ec3dfa1b6c0d242bb9dce0069df89d23a94ee59"
USECASE_PROGRAMS_SHA256 = "de28d131812e2d91506d578df6dd8de42fd4becbd2d8c40ab33a9786755a5bdd"


def build_simple(width=8):
    b = ProgramBuilder(width=width, name="simple")
    x = b.input("x")
    y = b.input("y")
    return b, x, y


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_builder_produces_valid_program():
    b, x, y = build_simple()
    p = b.build(b.add(x, y))
    assert p.num_inputs == 2
    assert p.width == 8
    assert p.depth == 0
    b2, x2, y2 = build_simple()
    p2 = b2.build(b2.mul(b2.mul(x2, y2), x2))
    assert p2.depth == 2


def test_validate_rejects_bad_references():
    g = (Gate("input", (), 0), Gate("add", (0, 5)))
    with pytest.raises(StructureError):
        Program(8, (Identifier("x"),), g, 1, (0, 1))


def test_validate_rejects_forward_reference():
    g = (Gate("input", (), 0), Gate("add", (1, 0)))
    with pytest.raises(StructureError):
        Program(8, (Identifier("x"),), g, 1, (0, 1))


def test_validate_rejects_bad_const_width():
    b, x, _ = build_simple()
    b.mul_plain(x, [1, 2, 3])  # wrong width
    with pytest.raises(StructureError):
        b.build(2)


def test_validate_rejects_oversized_step():
    b, x, _ = build_simple(width=8)
    g = b.rotate(x, 4)  # row is 4, |step| must be < 4
    with pytest.raises(StructureError):
        b.build(g)


def test_validate_rejects_bad_block():
    b, x, _ = build_simple(width=8)
    g = b.inner_sum(x, 3)  # not a power of two
    with pytest.raises(StructureError):
        b.build(g)
    b2, x2, _ = build_simple(width=8)
    g2 = b2.inner_sum(x2, 8)  # exceeds the row
    with pytest.raises(StructureError):
        b2.build(g2)


def test_validate_rejects_bad_output_block():
    b, x, y = build_simple(width=8)
    g = b.add(x, y)
    with pytest.raises(StructureError):
        b.build(g, output_block=(6, 4))


# ---------------------------------------------------------------------------
# plain interpreter: hand-checked examples
# ---------------------------------------------------------------------------


def test_eval_plain_rotate_is_left_shift_within_rows():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.rotate(x, 1))
    out = eval_plain(p, [[1, 2, 3, 4, 5, 6, 7, 8]], T)
    assert out == [2, 3, 4, 1, 6, 7, 8, 5]


def test_eval_plain_negative_rotation():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.rotate(x, -1))
    out = eval_plain(p, [[1, 2, 3, 4, 5, 6, 7, 8]], T)
    assert out == [4, 1, 2, 3, 8, 5, 6, 7]


def test_eval_plain_row_swap():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.row_swap(x))
    assert eval_plain(p, [[1, 2, 3, 4, 5, 6, 7, 8]], T) == [5, 6, 7, 8, 1, 2, 3, 4]


def test_eval_plain_inner_sum_broadcasts_block_totals():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.inner_sum(x, 2))
    out = eval_plain(p, [[1, 2, 3, 4, 5, 6, 7, 8]], T)
    assert out == [3, 3, 7, 7, 11, 11, 15, 15]


def test_eval_plain_dot_product_block():
    b, x, y = build_simple(width=8)
    p = b.build(b.inner_sum(b.mul(x, y), 4), output_block=(0, 1))
    xs = [3, 1, 4, 1, 0, 0, 0, 0]
    ys = [2, 7, 1, 8, 0, 0, 0, 0]
    out = eval_plain(p, [xs, ys], T)
    assert out[0] == (3 * 2 + 1 * 7 + 4 * 1 + 1 * 8) % T  # 25


def test_eval_plain_mul_plain_and_sub():
    b, x, y = build_simple(width=8)
    g = b.sub(x, y)
    p = b.build(b.mul_plain(g, [2] * 8))
    out = eval_plain(p, [[5] * 8, [3] * 8], T)
    assert out == [4] * 8


def test_eval_plain_checks_widths():
    b, x, y = build_simple(width=8)
    p = b.build(b.add(x, y))
    with pytest.raises(ParameterError):
        eval_plain(p, [[1] * 8], T)
    with pytest.raises(ParameterError):
        eval_plain(p, [[1] * 8, [1] * 4], T)


# ---------------------------------------------------------------------------
# the array slot algebra against a list oracle
# ---------------------------------------------------------------------------


def oracle_inner_sum(vec, block, t, stride=1):
    out = list(vec)
    span = block * stride
    for base in range(0, len(vec), span):
        for first in range(base, base + stride):
            s = sum(vec[first : base + span : stride]) % t
            out[first : base + span : stride] = [s] * block
    return out


def oracle_unary(vec, g, t):
    row = len(vec) // 2
    if g.op == "mul_plain":
        return [x * int(c) % t for x, c in zip(vec, g.param)]
    if g.op == "rotate":
        s = g.param % row
        return vec[s:row] + vec[:s] + vec[row + s :] + vec[row : row + s]
    if g.op == "row_swap":
        return vec[row:] + vec[:row]
    return oracle_inner_sum(vec, g.param, t)


def oracle_eval(program, inputs, t):
    """The plain interpreter on Python lists, one slot at a time."""
    wires = interpret(
        program, [[int(x) % t for x in v] for v in inputs],
        lambda a, b: [(x + y) % t for x, y in zip(a, b)],
        lambda a, b: [(x - y) % t for x, y in zip(a, b)],
        lambda a, b, _: [x * y % t for x, y in zip(a, b)],
        lambda v, g: oracle_unary(v, g, t),
    )
    return wires[program.output]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([preset("mock64").t, preset("mock64_wide").t]),
    st.sampled_from([(), (3,), (2, 2)]),
)
def test_array_slot_algebra_matches_list_oracle(seed, t, lead):
    """eval_plain on arrays equals the list oracle at 16- and 40-bit t, for
    unbatched inputs and inputs with leading batch axes."""
    rng = random.Random(seed)
    width = 16
    p = random_program(rng, width, t, num_inputs=rng.randint(1, 3), max_gates=10)
    batch = int(np.prod(lead, dtype=int))
    vecs = [
        [[rng.randrange(-t, 2 * t) for _ in range(width)] for _ in range(p.num_inputs)]
        for _ in range(batch)
    ]
    want = [oracle_eval(p, v, t) for v in vecs]
    if not lead:
        assert eval_plain(p, vecs[0], t) == want[0]
        return
    ins = [
        np.array([v[k] for v in vecs], dtype=object).reshape(lead + (width,))
        for k in range(p.num_inputs)
    ]
    got = np.array(eval_plain(p, ins, t), dtype=object).reshape(batch, width)
    assert got.tolist() == want


@pytest.mark.parametrize("t", [preset("mock64").t, preset("mock64_wide").t])
def test_strided_inner_sum_matches_list_oracle(t):
    rng = random.Random(5)
    vec = [rng.randrange(t) for _ in range(64)]
    arr = np.array(vec, dtype=np.int64 if t < 1 << 31 else object)
    for block in (1, 2, 4, 8):
        for stride in (1, 2, 4):
            want = oracle_inner_sum(vec, block, t, stride)
            assert slot_inner_sum(arr, block, t, stride).tolist() == want


# ---------------------------------------------------------------------------
# challenge evaluation
# ---------------------------------------------------------------------------


def test_eval_challenge_pe_matches_plain_on_challenges():
    key = PrfKey(bytes(32))
    b, x, y = build_simple(width=8)
    p = b.build(b.mul(x, y))
    chal = [challenge_input_pe(key, base, 8, T) for base in p.inputs]
    assert eval_challenge_pe(p, key, T).tolist() == eval_plain(p, chal, T)


def test_eval_challenge_rep_pads_past_length():
    key = PrfKey(bytes(32))
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.add(x, x))
    (col0,), (col1,) = eval_challenge_rep(p, key, T, [3], cols=[0, 1], chunks=1).tolist()
    assert col0[3:] == [0] * 5  # components ≥ length are zero padding
    assert col0 != col1
    # a second chunk carries components 8 onwards: all padding here
    assert eval_challenge_rep(p, key, T, [3], cols=[0], chunks=2).tolist() == [[col0, [0] * 8]]


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def test_program_json_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        p = random_program(rng, width=8, t=T)
        q = program_from_json(program_to_json(p))
        assert q == p
        assert program_to_json(q) == program_to_json(p)  # canonical text


def test_program_json_preserves_semantics():
    rng = random.Random(12)
    p = random_program(rng, width=8, t=T)
    q = program_from_json(program_to_json(p))
    ins = [[rng.randrange(T) for _ in range(8)] for _ in range(p.num_inputs)]
    assert eval_plain(p, ins, T) == eval_plain(q, ins, T)


# ---------------------------------------------------------------------------
# homomorphic interpreter vs the plain reference
# ---------------------------------------------------------------------------


def test_eval_he_matches_plain_on_mock():
    params = preset("mock64")
    rng = random.Random(13)
    backend = MockBackend(params, rng=rng)
    for _ in range(25):
        p = random_program(rng, width=params.n, t=params.t)
        ins = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(p.num_inputs)
        ]
        cts = [backend.encrypt(v) for v in ins]
        out = backend.decrypt(eval_he(p, cts, backend))
        assert out == eval_plain(p, ins, params.t)


def test_eval_he_with_stride_matches_extended_plain():
    """Stride-λ evaluation acts per offset column of the extended layout."""
    params = preset("mock64")
    lam = 8
    width = params.n // lam
    rng = random.Random(14)
    backend = MockBackend(params, rng=rng)
    for _ in range(15):
        p = random_program(rng, width=width, t=params.t)
        # independent values in every offset column
        columns = [
            [
                [rng.randrange(params.t) for _ in range(width)]
                for _ in range(p.num_inputs)
            ]
            for _ in range(lam)
        ]
        extended = []
        for k in range(p.num_inputs):
            v = [0] * params.n
            for i in range(width):
                for j in range(lam):
                    v[i * lam + j] = columns[j][k][i]
            extended.append(v)
        cts = [backend.encrypt(v) for v in extended]
        out = backend.decrypt(eval_he(p, cts, backend, stride=lam))
        for j in range(lam):
            expect = eval_plain(p, [columns[j][k] for k in range(p.num_inputs)], params.t)
            assert out[j :: lam] == expect, f"offset column {j} diverged"


def test_eval_he_rejects_width_mismatch():
    params = preset("mock64")
    backend = MockBackend(params, rng=random.Random(1))
    b = ProgramBuilder(width=16)
    x = b.input("x")
    p = b.build(b.add(x, x))
    ct = backend.encrypt([0] * params.n)
    with pytest.raises(Exception):
        eval_he(p, [ct], backend, stride=1)  # 16 ≠ 64 slots


def test_extend_const():
    assert extend_const([1, 2], 3) == [1, 1, 1, 2, 2, 2]
    assert extend_const([5], 1) == [5]


# ---------------------------------------------------------------------------
# rotation-step accounting
# ---------------------------------------------------------------------------


def test_required_rotation_steps_scales_by_stride():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.rotate(x, 3))
    steps, swap = required_rotation_steps(p, stride=4, n_slots=32)
    assert steps == {12}
    assert swap is False


def test_required_rotation_steps_covers_inner_sum():
    b = ProgramBuilder(width=8)
    x = b.input("x")
    p = b.build(b.inner_sum(x, 4))
    steps, _ = required_rotation_steps(p, stride=1, n_slots=16)
    # window phase wants 1 and 2; block < row adds broadcast steps
    assert {1, 2} <= steps


def test_required_rotation_steps_suffice_on_mock():
    """The declared step set is what the interpreter actually uses (the mock
    accepts any step, so this just runs the programs; the real backend test
    exercises key lookup)."""
    params = preset("mock64")
    rng = random.Random(15)
    backend = MockBackend(params, rng=rng)
    for _ in range(10):
        p = random_program(rng, width=8, t=params.t)
        required_rotation_steps(p, stride=8, n_slots=params.n)
        ins = [
            [rng.randrange(params.t) for _ in range(params.n)]
            for _ in range(p.num_inputs)
        ]
        cts = [backend.encrypt(v) for v in ins]
        eval_he(p, cts, backend, stride=8)


def test_random_program_always_validates():
    rng = random.Random(16)
    for _ in range(50):
        p = random_program(rng, width=8, t=T)
        assert Program(**vars(p)) == p  # constructing it again validates it
        assert p.depth <= 3


# ---------------------------------------------------------------------------
# one gate walk, several algebras
# ---------------------------------------------------------------------------


class RecordingReducer:
    """Caps every over-degree product and records the gate it fired on."""

    def __init__(self):
        self.fired = []

    def reduce(self, comps, idx):
        self.fired.append(idx)
        return comps[: REQ_CAP + 1]


def test_algebras_agree_on_random_programs():
    """Degrees, (ρ, δ) offsets and depth, each walked in its own algebra,
    match what the ciphertext-level evaluations produce."""
    params = preset("mock64")
    t, n = params.t, params.n
    rng = random.Random(17)
    backend = MockBackend(params, rng=rng)
    for i in range(30):
        p = random_program(rng, n, t, num_inputs=rng.randint(1, 3), max_gates=10)
        sec = pe_keygen(params, rng=random.Random(i), make_he_keys=False)
        ins = [[rng.randrange(t) for _ in range(n)] for _ in range(p.num_inputs)]
        auths = [pe_auth(sec, backend, v, p.inputs[k]) for k, v in enumerate(ins)]

        assert degree_schedule(p, use_reducer=False) == (pe_eval(p, auths, backend).degree, [])
        reducer = RecordingReducer()
        reduced = pe_eval(p, auths, backend, reducer=reducer)
        assert degree_schedule(p, use_reducer=True) == (reduced.degree, reducer.fired)

        rhos, deltas, _ = offset_walk(p, sec.key, t, sec.alpha)
        assert rhos[p.output].tolist() == eval_challenge_pe(p, sec.key, t).tolist()
        assert deltas[p.output].tolist() == [0] * n

        out = eval_he(p, [backend.encrypt(v) for v in ins], backend)
        assert out.depth == p.depth


# ---------------------------------------------------------------------------
# one checked form: pinned bytes, malformed documents, direct construction
# ---------------------------------------------------------------------------


def _program_fingerprint(programs) -> str:
    """SHA-256 over each program's JSON text and hash-tree digest."""
    key = PrfKey(bytes(range(32)))
    h = hashlib.sha256()
    for p in programs:
        h.update(program_to_json(p).encode())
        h.update(hash_tree_eval(p, [prf_tag(key, i) for i in p.inputs]))
    return h.hexdigest()


def test_program_bytes_match_their_pinned_digest():
    """JSON text and hash-tree digests of 200 seeded random programs and of
    every use-case program in both layouts, pinned before gates carried one
    parameter each: REP digests and saved programs stay valid."""
    rng = random.Random(2020)
    randoms = [
        random_program(
            rng, rng.choice((2, 4, 8, 16, 64)),
            rng.choice((T, preset("mock64").t, preset("mock64_wide").t)),
            num_inputs=rng.randint(1, 3), max_gates=12,
        )
        for _ in range(200)
    ]
    assert _program_fingerprint(randoms) == RANDOM_PROGRAMS_SHA256
    usecase = []
    for name in USECASES:
        for auth, layout in (("pe", "packed"), ("rep", "replicated")):
            spec = usecase_spec(name, auth, seed=7)
            params = preset(spec.preset_name)
            width = params.n // (spec.lam if layout == "replicated" else 1)
            usecase.append(build_instance(spec, width, layout, params.t).program)
    assert _program_fingerprint(usecase) == USECASE_PROGRAMS_SHA256


def _valid_doc() -> dict:
    b = ProgramBuilder(4, name="doc")
    x, y = b.input("x"), b.input(Identifier("y", 3))
    w = b.rotate(b.mul_plain(b.mul(x, y), [1, 2, 3, 4]), -1)
    return json.loads(program_to_json(b.build(b.inner_sum(b.row_swap(w), 2))))


def _gate(doc, op):
    return next(g for g in doc["gates"] if g["op"] == op)


MALFORMED = {
    "not json": lambda d: "{",
    "not an object": lambda d: [d],
    "empty": lambda d: {},
    "gates not a list": lambda d: {**d, "gates": {"0": d["gates"][0]}},
    "gate not an object": lambda d: {**d, "gates": ["input"]},
    "unknown op": lambda d: _gate(d, "row_swap").update(op="transpose"),
    "op not a string": lambda d: _gate(d, "mul").update(op=["mul"]),
    "extra document key": lambda d: d.update(depth=1),
    "extra gate key": lambda d: _gate(d, "mul").update(step=1),
    "foreign parameter": lambda d: _gate(d, "rotate").update(block=2),
    "missing parameter": lambda d: _gate(d, "inner_sum").pop("block"),
    "args on an input": lambda d: _gate(d, "input").update(args=[]),
    "args not a list": lambda d: _gate(d, "mul").update(args=5),
    "bool step": lambda d: _gate(d, "rotate").update(step=True),
    "float arg": lambda d: _gate(d, "mul").update(args=[0, 1.0]),
    "float width": lambda d: d.update(width=4.0),
    "short constant": lambda d: _gate(d, "mul_plain").update(const=[1, 2, 3]),
    "constant -1": lambda d: _gate(d, "mul_plain").update(const=[1, 2, 3, -1]),
    "constant 2^64": lambda d: _gate(d, "mul_plain").update(const=[1, 2, 3, 2**64]),
    "constant not a list": lambda d: _gate(d, "mul_plain").update(const=7),
    "string input index": lambda d: _gate(d, "input").update(input="0"),
    "no output_block": lambda d: d.pop("output_block"),
    "output_block of three": lambda d: d.update(output_block=[0, 1, 1]),
    "output out of range": lambda d: d.update(output=99),
    "non-string label": lambda d: d["inputs"][0].update(label=7),
    "negative slot": lambda d: d["inputs"][1].update(slot=-1),
    "input not an object": lambda d: d.update(inputs=["x", "y"]),
    "non-string name": lambda d: d.update(name=None),
}


def test_valid_doc_reads_back():
    doc = _valid_doc()
    assert program_to_json(program_from_json(json.dumps(doc))) == program_to_json(
        program_from_json(json.dumps(doc).encode())
    )


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_program_json_is_a_structure_error(case):
    doc = _valid_doc()
    mutated = MALFORMED[case](doc)
    text = mutated if isinstance(mutated, str) else json.dumps(doc if mutated is None else mutated)
    with pytest.raises(StructureError):
        program_from_json(text)


def test_builder_refuses_a_negative_constant():
    b, x, _ = build_simple(width=8)
    with pytest.raises(StructureError):
        b.build(b.mul_plain(x, [-1] * 8))


X = (Identifier("x"),)
INPUT = Gate("input", (), 0)


@pytest.mark.parametrize("gates, why", [
    ((Gate("input"),), "input without an index"),
    ((Gate("input", (), 1),), "input index past the inputs"),
    ((Gate("input", (), True),), "bool input index"),
    ((INPUT, Gate("add", (0,))), "add with one operand"),
    ((INPUT, Gate("add", (0, 0), 3)), "add with a parameter"),
    ((INPUT, Gate("row_swap", [0])), "args not a tuple"),
    ((INPUT, Gate("rotate", (0,), 1.0)), "float step"),
    ((INPUT, Gate("inner_sum", (0,), 0)), "zero block"),
    ((INPUT, Gate("mul_plain", (0,), [1] * 8)), "constant not a tuple"),
    ((INPUT, Gate("mul_plain", (0,), (-1,) * 8)), "negative constant"),
    ((INPUT, Gate("transpose", (0,))), "unknown op"),
    ((INPUT, ("add", (0, 0))), "not a Gate"),
])
def test_direct_program_with_a_bad_gate_raises_at_construction(gates, why):
    with pytest.raises(StructureError):
        Program(8, X, gates, len(gates) - 1, (0, 1))


def test_direct_program_checks_its_frame():
    g = (INPUT,)
    for bad in (
        dict(width=6), dict(width=True), dict(inputs=("x",)), dict(gates=list(g)),
        dict(output=-1), dict(output_block=[0, 1]), dict(output_block=(0, 0)),
        dict(name=b"p"),
    ):
        kw = dict(width=8, inputs=X, gates=g, output=0, output_block=(0, 1), name="p")
        with pytest.raises(StructureError):
            Program(**{**kw, **bad})
