"""Results must be a pure function of (config, seed), whatever
``PYTHONHASHSEED`` says: the builtin ``hash()`` salts ``str``/``bytes``
per process, so no code under ``src/repro`` may call it.  The repo's own
``mix_hash``/``fold_hash`` are deterministic and allowed, as are mentions
of ``hash()`` in docstrings and comments (the parse ignores them).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _builtin_hash_calls(source: str):
    """Line numbers of every ``hash(...)`` call by bare name."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]


def test_checker_flags_builtin_hash_and_allows_the_rest():
    source = (
        '"""Seeds with hash() would be salted."""\n'
        "a = mix_hash(1)\n"
        "b = fold_hash(2, 8)\n"
        "c = obj.hash()  # hash() in a comment\n"
        "d = hash('tw') % 1000\n"
    )
    assert _builtin_hash_calls(source) == [5]


def test_src_calls_no_builtin_hash():
    files = sorted(SRC.rglob("*.py"))
    assert files, SRC
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in files
        for line in _builtin_hash_calls(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"builtin hash() is salted per process: {offenders}"
