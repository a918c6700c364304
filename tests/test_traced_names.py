"""The names the benchmark's tracer patches still exist in formkit.

`perfbench/tracer.py` wraps functions and methods by name: a function is
replaced under every module global that refers to it, a method through the
class's own ``__dict__``. A renamed kernel would make it fail, or leave a
layer untimed, only when the benchmark runs; these tests read its tables
(without importing it) and resolve each name here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name: str) -> tuple:
    """The literal value of the module-level assignment ``name``."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER.name} assigns no {name}")


TRACED = [(module, attr) for table in ("SPANNED", "COUNTED") for module, attr, _ in _table(table)]


def test_tables_are_read():
    assert len(TRACED) == len(set(TRACED)) > 20
    assert ("formkit.lattice", "FiniteLattice.meet") in TRACED


@pytest.mark.parametrize("module, attr", TRACED, ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), attr  # patched on the class itself
    else:
        assert callable(getattr(mod, attr)), attr


def test_compose_table_resolves():
    # the tracer counts setmaps.compose_entries as len(...compose_table)
    from formkit.forms import CategoryPresentation

    assert isinstance(vars(CategoryPresentation).get("compose_table"), property)
