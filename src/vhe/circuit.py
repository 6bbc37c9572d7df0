"""Labeled arithmetic programs over batched slot vectors.

A program is a topologically ordered list of gates over Z_t slot vectors of
a fixed logical width W (arranged as two rows of W/2, mirroring the
batching layout).  Gate set:

    input         k-th authenticated input
    add, sub, mul slot-wise ring ops (mul is the only depth-consuming gate)
    mul_plain     slot-wise product with a public constant vector
    rotate        cyclic shift within each row by a signed step
    row_swap      exchange the two rows
    inner_sum     every slot ← sum of its aligned block of `block`
                  consecutive slots (blocks never straddle a row)

:func:`interpret` is the one gate walk: the caller supplies add, sub, mul
and one hook for the unary gates, and gets every wire back.  The slot
semantics are defined once here (``slot_*``, over the last axis of a
:func:`vhe.ring.slot_array`, with any leading batch axes); the plain
interpreter :func:`eval_slots` (as lists, :func:`eval_plain`, the oracle),
the challenge evaluations and the mock backend all use them.  Over
ciphertexts, :func:`he_unary` maps a unary gate onto backend operations,
with an optional replication stride so a logically identical program runs
on block-extended layouts (:func:`eval_he`).  The encodings run their own
algebras through :func:`interpret` as well: tuples of ciphertexts, (ρ, δ)
offset pairs and degrees.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError, ParameterError, StructureError
from .labels import Identifier, prf_stream
from .ring import slot_array

# op → (operand count, JSON key of its one parameter); the order fixes the
# hash-tree op tags
_SHAPE = {
    "input": (0, "input"),
    "add": (2, None),
    "sub": (2, None),
    "mul": (2, None),
    "mul_plain": (1, "const"),
    "rotate": (1, "step"),
    "row_swap": (1, None),
    "inner_sum": (1, "block"),
}
_TREE_TAG = {op: bytes([i + 1]) for i, op in enumerate(_SHAPE)}

# parameter key → (what it must hold; whether p does, given k inputs and
# rows of `row` slots).  Every int in a program is an exact int: `type(x) is
# int` also refuses a bool.
_PARAM = {
    None: ("no parameter", lambda p, k, row: p is None),
    "input": ("an input index below {k}", lambda p, k, row: type(p) is int and 0 <= p < k),
    "const": ("a tuple of {w} ints in [0, 2^64)", lambda p, k, row: type(p) is tuple
              and len(p) == 2 * row and all(type(c) is int and 0 <= c < 1 << 64 for c in p)),
    "step": ("an int step with |step| < {row}",
             lambda p, k, row: type(p) is int and -row < p < row),
    "block": ("a power of two dividing {row}",
              lambda p, k, row: type(p) is int and p > 0 and not p & (p - 1) and row % p == 0),
}


@dataclass(frozen=True)
class Gate:
    """One gate: its op, its operand wires, and the op's one parameter (the
    input index, the constant tuple, the rotation step or the inner-sum
    block; None for add, sub, mul and row_swap)."""

    op: str
    args: tuple = ()
    param: object = None

    def tree_bytes(self) -> bytes:
        """Canonical bytes binding this gate's kind and parameter."""
        tag, p = _TREE_TAG[self.op], self.param
        if self.op == "mul_plain":
            return tag + struct.pack(f"<I{len(p)}Q", len(p), *p)
        if self.op == "rotate":
            return tag + struct.pack("<q", p)
        if self.op == "inner_sum":
            return tag + struct.pack("<Q", p)
        return tag


@dataclass(frozen=True)
class Program:
    """An immutable labeled program (gates in topological order), checked
    on construction: a malformed one raises StructureError."""

    width: int
    inputs: tuple  # one base Identifier per input
    gates: tuple
    output: int
    output_block: tuple = (0, 1)  # (start, count) in logical slots
    name: str = ""

    def __post_init__(self):
        w, ins, ob = self.width, self.inputs, self.output_block
        if type(w) is not int or w < 2 or w & (w - 1):
            raise StructureError(f"width must be a power of two ≥ 2, got {w!r}")
        if type(ins) is not tuple or not all(isinstance(i, Identifier) for i in ins):
            raise StructureError("inputs must be a tuple of identifiers")
        if type(self.gates) is not tuple:
            raise StructureError("gates must be a tuple")
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate) or type(g.op) is not str or g.op not in _SHAPE:
                raise StructureError(f"gate {i} is no gate of a known op")
            (arity, key), args = _SHAPE[g.op], g.args
            if type(args) is not tuple or len(args) != arity or not all(
                    type(a) is int and 0 <= a < i for a in args):
                raise StructureError(f"gate {i}: {g.op} takes {arity} earlier wire(s)")
            rule, holds = _PARAM[key]
            if not holds(g.param, len(ins), w // 2):
                rule = rule.format(k=len(ins), w=w, row=w // 2)
                raise StructureError(f"gate {i}: {g.op} takes {rule}")
        if not (type(self.output) is int and 0 <= self.output < len(self.gates)):
            raise StructureError("output index out of range")
        if not (type(ob) is tuple and len(ob) == 2 and all(type(x) is int for x in ob)
                and ob[0] >= 0 and ob[1] >= 1 and sum(ob) <= w):
            raise StructureError("output block must be (start, count) inside the slot range")
        if not isinstance(self.name, str):
            raise StructureError("program name must be a string")

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def depth(self) -> int:
        """Multiplicative depth: longest chain of ciphertext-ciphertext muls."""
        return interpret(
            self, [0] * self.num_inputs, max, max, lambda a, b, _: max(a, b) + 1, lambda d, _: d
        )[self.output]

    @property
    def add_sub_only(self) -> bool:
        """Every gate is an input, add or sub: no slot ever moves."""
        return all(g.op in ("input", "add", "sub") for g in self.gates)


class ProgramBuilder:
    """Incremental construction; methods return wire indices."""

    def __init__(self, width: int, name: str = ""):
        self.width = width
        self.name = name
        self._gates: list[Gate] = []
        self._inputs: list[Identifier] = []

    def input(self, ident) -> int:
        if isinstance(ident, str):
            ident = Identifier(ident)
        self._inputs.append(ident)
        return self._push(Gate("input", (), len(self._inputs) - 1))

    def _push(self, gate: Gate) -> int:
        self._gates.append(gate)
        return len(self._gates) - 1

    def add(self, a, b):
        return self._push(Gate("add", (a, b)))

    def sub(self, a, b):
        return self._push(Gate("sub", (a, b)))

    def mul(self, a, b):
        return self._push(Gate("mul", (a, b)))

    def mul_plain(self, a, const):
        return self._push(Gate("mul_plain", (a,), tuple(int(c) for c in const)))

    def rotate(self, a, step):
        return self._push(Gate("rotate", (a,), int(step)))

    def row_swap(self, a):
        return self._push(Gate("row_swap", (a,)))

    def inner_sum(self, a, block):
        return self._push(Gate("inner_sum", (a,), int(block)))

    def build(self, output: int, output_block=(0, 1), name=None) -> Program:
        name = self.name if name is None else name
        return Program(
            self.width, tuple(self._inputs), tuple(self._gates), output, tuple(output_block), name
        )


# ---------------------------------------------------------------------------
# the gate walk and the slot semantics every backend must match
# ---------------------------------------------------------------------------


def interpret(program: Program, inputs, add, sub, mul, unary) -> list:
    """Walk the gates once over any algebra and return every wire.

    ``inputs[k]`` is the value of input k.  ``mul(a, b, gate_index)`` gets
    the gate index because re-quadratization and its blinds are keyed by
    gate; ``unary(value, gate)`` applies mul_plain, rotate, row_swap and
    inner_sum.
    """
    wires: list = []
    for idx, g in enumerate(program.gates):
        if g.op == "input":
            v = inputs[g.param]
        elif g.op in ("add", "sub"):
            v = (add if g.op == "add" else sub)(wires[g.args[0]], wires[g.args[1]])
        elif g.op == "mul":
            v = mul(wires[g.args[0]], wires[g.args[1]], idx)
        else:
            v = unary(wires[g.args[0]], g)
        wires.append(v)
    return wires


def slot_add(a, b, t: int) -> np.ndarray:
    return (a + b) % t


def slot_sub(a, b, t: int) -> np.ndarray:
    return (a - b) % t


def slot_mul(a, b, t: int) -> np.ndarray:
    return a * b % t


def slot_rotate(vec, step: int) -> np.ndarray:
    """Cyclic left shift by `step` within each of the two rows."""
    row = vec.shape[-1] // 2
    s = step % row
    rows = vec.reshape(vec.shape[:-1] + (2, row))
    return np.concatenate((rows[..., s:], rows[..., :s]), axis=-1).reshape(vec.shape)


def slot_row_swap(vec) -> np.ndarray:
    row = vec.shape[-1] // 2
    return np.concatenate((vec[..., row:], vec[..., :row]), axis=-1)


def slot_inner_sum(vec, block: int, t: int, stride: int = 1) -> np.ndarray:
    """Every slot ← the sum of its block: `block` slots `stride` apart,
    within aligned spans of block·stride slots that never straddle a row."""
    spans = vec.reshape(vec.shape[:-1] + (-1, block, stride))
    sums = spans.sum(axis=-2, keepdims=True) % t
    return np.repeat(sums, block, axis=-2).reshape(vec.shape)


def slot_unary(vec, g: Gate, t: int) -> np.ndarray:
    """One unary gate over a slot array."""
    if g.op == "mul_plain":
        return slot_mul(vec, slot_array(g.param, t), t)
    if g.op == "rotate":
        return slot_rotate(vec, g.param)
    if g.op == "row_swap":
        return slot_row_swap(vec)
    return slot_inner_sum(vec, g.param, t)


def eval_slots(program: Program, inputs, t: int) -> np.ndarray:
    """Evaluate over plain slot vectors mod t; returns the output wire as
    a slot array.

    An input may carry leading batch axes before its slot axis; they
    broadcast, and the output keeps them.
    """
    if len(inputs) != program.num_inputs:
        raise ParameterError(
            f"program expects {program.num_inputs} inputs, got {len(inputs)}"
        )
    ins = [slot_array(v, t) for v in inputs]
    if any(v.ndim == 0 or v.shape[-1] != program.width for v in ins):
        raise ParameterError(f"every input must have width {program.width}")
    wires = interpret(
        program, ins,
        lambda a, b: slot_add(a, b, t),
        lambda a, b: slot_sub(a, b, t),
        lambda a, b, _: slot_mul(a, b, t),
        lambda v, g: slot_unary(v, g, t),
    )
    return wires[program.output]


def eval_plain(program: Program, inputs, t: int) -> list:
    """The plaintext oracle: :func:`eval_slots` as a (nested) list."""
    return eval_slots(program, inputs, t).tolist()


# ---------------------------------------------------------------------------
# challenge interpreter
# ---------------------------------------------------------------------------


def challenge_input_pe(key, base: Identifier, width: int, t: int) -> np.ndarray:
    """PRF values for a fully packed input: slot j ← F_K(base, j)."""
    return slot_array(prf_stream(key, base, t, width), t)


def challenge_input_rep(
    key, base: Identifier, length: int, width: int, t: int, cols, chunks: int
) -> np.ndarray:
    """Challenge columns `cols` of a replication-encoded input, shaped
    (len(cols), chunks, width): chunk c holds components c·width onwards.

    Component i carries identifier (base, slot=i), so column j is the
    stream of (base, aux=j); components at or past the authenticated length
    are zero padding, matching the encoder.
    """
    used = min(length, chunks * width)
    out = np.zeros((len(cols), chunks * width), dtype=np.int64)
    for c, col in enumerate(cols):
        out[c, :used] = prf_stream(key, base, t, used, aux=col)
    return slot_array(out.reshape(len(cols), chunks, width), t)


def eval_challenge_pe(program: Program, key, t: int) -> np.ndarray:
    """Evaluate the program on per-slot PRF challenges (packed convention)."""
    ins = [
        challenge_input_pe(key, base, program.width, t) for base in program.inputs
    ]
    return eval_slots(program, ins, t)


def eval_challenge_rep(
    program: Program, key, t: int, lengths, cols, chunks: int
) -> np.ndarray:
    """Evaluate on challenge columns `cols` (replication convention) for
    every chunk at once: a (len(cols), chunks, width) slot array."""
    ins = [
        challenge_input_rep(key, base, lengths[k], program.width, t, cols, chunks)
        for k, base in enumerate(program.inputs)
    ]
    return eval_slots(program, ins, t)


# ---------------------------------------------------------------------------
# homomorphic interpreter
# ---------------------------------------------------------------------------


def extend_const(const, stride: int):
    """Replicate each logical constant across its block of `stride` slots."""
    return [int(c) for c in const for _ in range(stride)]


def he_unary(backend, ct, g: Gate, stride: int = 1):
    """One unary gate on a ciphertext in the `stride`-replicated layout.

    Every logical slot occupies a block of `stride` physical slots: rotation
    steps and inner_sum blocks scale by the stride and plain constants are
    block-replicated, so the physical computation restricts to the logical
    one on every block offset independently.
    """
    if g.op == "mul_plain":
        return backend.mul_plain(ct, extend_const(g.param, stride))
    if g.op == "rotate":
        return backend.rotate(ct, g.param * stride)
    if g.op == "row_swap":
        return backend.row_swap(ct)
    return backend.inner_sum(ct, g.param, stride=stride)


def eval_he(program: Program, cts, backend, stride: int = 1):
    """Run the program on ciphertexts (see :func:`he_unary` for `stride`)."""
    if program.width * stride != backend.params.n:
        raise ParameterError(
            f"program width {program.width} × stride {stride} ≠ {backend.params.n} slots"
        )
    if len(cts) != program.num_inputs:
        raise ParameterError("one ciphertext per program input required")
    wires = interpret(
        program, cts, backend.add, backend.sub,
        lambda a, b, _: backend.mul(a, b),
        lambda c, g: he_unary(backend, c, g, stride),
    )
    return wires[program.output]


def inner_sum_steps(block: int, stride: int, row: int) -> tuple:
    """The rotations of inner_sum(block) at `stride` on rows of `row` slots:
    (window steps stride·2^u, broadcast steps −stride·2^u), the broadcast
    empty when the block spans the row.  Raises LayoutError unless the
    block is a power of two whose span block·stride tiles the row."""
    span = block * stride
    if block < 1 or block & (block - 1) or span > row or row % span:
        raise LayoutError(
            f"inner_sum block {block} (stride {stride}) must tile a row of {row}"
        )
    window = [stride << u for u in range(block.bit_length() - 1)]
    return window, [] if span == row else [-s for s in window]


def rotation_moves(step: int, row: int) -> bool:
    """Whether a rotation by `step` on rows of `row` slots moves anything:
    False for a multiple of the row; raises ParameterError unless
    |step| < row."""
    if step % row == 0:
        return False
    if not -row < step < row:
        raise ParameterError(f"rotation step must satisfy |step| < {row}")
    return True


def required_rotation_steps(program: Program, stride: int = 1, n_slots: int | None = None):
    """Signed physical rotation steps the program needs (plus row swap flag)."""
    row = (program.width * stride if n_slots is None else n_slots) // 2
    steps = {g.param * stride for g in program.gates if g.op == "rotate" and g.param}
    for g in program.gates:
        if g.op == "inner_sum":
            steps.update(*inner_sum_steps(g.param, stride, row))
    return steps, any(g.op == "row_swap" for g in program.gates)


def check_inputs(program: Program, auths, backend):
    """Bind authenticated inputs to `program` before any arithmetic: one
    per input, each under the identifier the program names (a result
    carries none and binds anywhere), every ciphertext an operand
    `backend` accepts (``check_operand``)."""
    if len(auths) != program.num_inputs:
        raise ParameterError("one authentication per program input required")
    for k, a in enumerate(auths):
        if a.base is not None and a.base != program.inputs[k]:
            raise ParameterError(
                f"input {k} was authenticated as {a.base!r} but the program "
                f"names it {program.inputs[k]!r}; verification would reject"
            )
        for c in a.cts:
            backend.check_operand(c)


# ---------------------------------------------------------------------------
# seeded random programs
# ---------------------------------------------------------------------------


def random_program(
    rng: random.Random,
    width: int,
    t: int,
    num_inputs: int = 2,
    max_gates: int = 8,
    max_depth: int = 3,
    name: str = "",
    id_prefix: str = "rnd",
) -> Program:
    """A random well-formed program within the gate and depth budget.

    `max_gates` counts non-input gates.  Multiplicative depth never exceeds
    `max_depth`.  The output block is a small logical range so the same
    program works for both authenticated pipelines.
    """
    b = ProgramBuilder(width, name=name)
    for k in range(num_inputs):
        b.input(Identifier(f"{id_prefix}/in{k}"))
    depth = [0] * num_inputs  # per wire; wire w is gate w
    row = width // 2
    n_gates = rng.randint(max(1, max_gates - 4), max_gates)
    ops = ["add", "sub", "mul", "mul_plain", "rotate", "row_swap", "inner_sum"]
    weights = [4, 3, 4, 2, 3, 1, 2]
    for _ in range(n_gates):
        op = rng.choices(ops, weights)[0]
        a = rng.randrange(len(depth))
        d = depth[a]
        if op == "mul":
            candidates = [x for x in range(len(depth)) if max(d, depth[x]) < max_depth]
            if candidates:
                c = rng.choice(candidates)
                b.mul(a, c)
                depth.append(max(d, depth[c]) + 1)
                continue
            op = "add"  # depth budget spent; fall back to a linear gate
        if op in ("add", "sub"):
            c = rng.randrange(len(depth))
            getattr(b, op)(a, c)
            d = max(d, depth[c])
        elif op == "mul_plain":
            b.mul_plain(a, [rng.randrange(t) for _ in range(width)])
        elif op == "rotate" and row >= 2:
            b.rotate(a, rng.randint(1, row - 1) * rng.choice((1, -1)))
        elif op == "rotate":
            b.add(a, a)
        elif op == "row_swap":
            b.row_swap(a)
        else:
            b.inner_sum(a, rng.choice([x for x in (1, 2, 4, 8) if x <= row and row % x == 0]))
        depth.append(d)
    count = min(4, width)
    start = rng.randrange(0, width - count + 1)
    return b.build(len(depth) - 1, output_block=(start, count), name=name)


# ---------------------------------------------------------------------------
# JSON form (canonical, replayable)
# ---------------------------------------------------------------------------


def program_to_json(program: Program) -> str:
    gates = []
    for g in program.gates:
        arity, key = _SHAPE[g.op]
        entry: dict = {"op": g.op}
        if arity:
            entry["args"] = list(g.args)
        if key is not None:
            entry[key] = list(g.param) if key == "const" else g.param
        gates.append(entry)
    doc = {
        "width": program.width,
        "inputs": [
            {"label": i.label, **({"slot": i.slot} if i.slot is not None else {})}
            for i in program.inputs
        ],
        "gates": gates,
        "output": program.output,
        "output_block": list(program.output_block),
        "name": program.name,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _object(doc, keys: set, optional: frozenset = frozenset()) -> dict:
    """`doc` if it is a JSON object with all of `keys` and no key beyond
    them and `optional`."""
    if not isinstance(doc, dict) or not keys <= doc.keys() <= keys | optional:
        raise StructureError(
            f"expected an object with keys {sorted(keys)}, optionally {sorted(optional)}"
        )
    return doc


def _list(value) -> tuple:
    if not isinstance(value, list):
        raise StructureError(f"expected a list, got {type(value).__name__}")
    return tuple(value)


def _gate_from_json(e) -> Gate:
    op = e.get("op") if isinstance(e, dict) else None
    if type(op) is not str or op not in _SHAPE:
        raise StructureError("a gate entry names no known op")
    arity, key = _SHAPE[op]
    e = _object(e, {"op", "args", key} - {None} if arity else {"op", key})
    param = e.get(key)
    return Gate(op, _list(e["args"]) if arity else (), _list(param) if key == "const" else param)


def program_from_json(text) -> Program:
    """The program a JSON document (str or bytes) describes; any malformed
    document raises StructureError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise StructureError(f"program is not JSON: {exc}") from None
    doc = _object(doc, {"width", "inputs", "gates", "output", "output_block"}, {"name"})
    try:
        inputs = tuple(Identifier(**_object(e, {"label"}, {"slot"})) for e in _list(doc["inputs"]))
    except ParameterError as exc:
        raise StructureError(f"bad input: {exc}") from None
    return Program(
        doc["width"], inputs, tuple(map(_gate_from_json, _list(doc["gates"]))),
        doc["output"], _list(doc["output_block"]), doc.get("name", ""),
    )
