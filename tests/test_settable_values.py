"""The library's settable values are counted, so a new knob is a visible edit.

A settable value is a parameter with a default, or a dataclass field with a
default that ``__init__`` takes (``field(init=False)`` is not counted). The
count is pinned: adding a knob means raising ``PINNED`` in the same change.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "consensus_admm"
PINNED = 44


def _name(node: ast.expr) -> str | None:
    """What a name or an attribute such as ``dataclasses.field`` names."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(deco.func if isinstance(deco, ast.Call) else deco)
               == "dataclass" for deco in node.decorator_list)


def _init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and _name(value.func) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None
                         and not _init_false(stmt.value)
                         for stmt in node.body)
    return count


def test_the_rule_counts_defaults_and_init_fields():
    tree = ast.parse("""
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d): ...

@dataclass
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    w: int = field(default=0, init=False)

class Plain:
    v: int = 0
""")
    assert settable_values(tree) == 4


def test_settable_values_stay_at_the_pinned_count():
    count = sum(settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py")))
    assert count <= PINNED, (f"{count} settable values in src/, pinned at "
                             f"{PINNED}: a new option needs a visible edit")
