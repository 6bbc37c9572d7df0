"""No client path reacts to a decryption failure by taking another branch.

decrypt_many returns a breach mask and stand-in slots drawn for every row,
so success and failure run the same code.  An ``ast`` check, in the style
of test_reductions.py, keeps it so under src/vhe: no ``except`` clause
names DecryptionFailureError (a caught failure is a branch that success
never takes), and no module draws from ``random.SystemRandom`` (the
per-slot stand-in loop that branch used to run).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src/vhe").rglob("*.py"))


def _name(node):
    """A bare name's or an attribute's last part, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def reaction_sites(source: str) -> list[int]:
    """The lines of an ``except`` clause naming DecryptionFailureError, alone
    or in a tuple, and of any SystemRandom, used or imported."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(_name(c) == "DecryptionFailureError" for c in caught):
                bad.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(a.name.split(".")[-1] == "SystemRandom" for a in node.names):
                bad.append(node.lineno)
        elif _name(node) == "SystemRandom":
            bad.append(node.lineno)
    return sorted(bad)


def test_the_guard_finds_a_planted_reaction():
    source = (
        "import random\n"
        "from random import SystemRandom\n"
        "from .errors import DecryptionFailureError\n"
        "try:\n"
        "    x = decrypt(ct)\n"
        "except (ValueError, errors.DecryptionFailureError):\n"
        "    x = None\n"
        "try:\n"
        "    x = decrypt(ct)\n"
        "except DecryptionFailureError as exc:\n"
        "    x = [random.SystemRandom().randrange(t) for _ in range(n)]\n"
        "except ValueError:\n"
        "    raise DecryptionFailureError('noise')\n"
        "r = random.Random(7)\n"
    )
    assert reaction_sites(source) == [2, 6, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_reacts_to_a_decryption_failure(path):
    assert reaction_sites(path.read_text(encoding="utf-8")) == []
