"""Verdicts do not depend on how a form document numbers its morphisms.

The base numbers its objects by their place in ``objects`` and its
morphisms hom-set by hom-set in object order, each hom-set in list order.
Reversing the object list and every hom list gives every morphism a new
number while it keeps its name, so every report, which names morphisms and
objects, must come out the same: the same exit code, and per check the same
status, ``checks_run`` and sorted violations.
"""

import json

import pytest

from cli_runner import CliRunner
from formkit.jsonio import form_to_dict
from formkit.partitions import build_quot_form
from formkit.topologies import build_top_form

BUILDERS = {"top123": lambda: build_top_form([1, 2, 3]), "quot123": lambda: build_quot_form([1, 2, 3])}


def _renumbered(doc: dict) -> dict:
    """The same form with the objects and every hom-set listed backwards."""
    out = dict(doc)
    out["objects"] = doc["objects"][::-1]
    out["homs"] = {key: ms[::-1] for key, ms in doc["homs"].items()}
    return out


def _leq(doc: dict) -> dict:
    """The order document of the fibre order: each fibre's leq matrix."""
    return {"form": None, "rel": {x: fib["leq"] for x, fib in doc["fibres"].items()}}


def _verdicts(result) -> tuple:
    report = json.loads(result.stdout)
    checks = [
        (c["name"], c["status"], c["checks_run"], sorted(json.dumps(v, sort_keys=True) for v in c["violations"]))
        for c in report["checks"]
    ]
    return result.exit_code, checks


@pytest.mark.parametrize("instance", sorted(BUILDERS))
def test_reports_do_not_depend_on_morphism_numbers(tmp_path, instance):
    doc = form_to_dict(BUILDERS[instance]().form)
    renumbered = _renumbered(doc)
    order = tmp_path / "leq.json"
    order.write_text(json.dumps(_leq(doc)))
    paths = {}
    for name, form in (("as-built", doc), ("renumbered", renumbered)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(form))
    runner = CliRunner()
    for command in (
        lambda p: ["check-theorems", "--form", str(p), "--order", str(order)],
        lambda p: ["verify", "form", "--file", str(p)],
    ):
        built, moved = (_verdicts(runner.invoke(command(paths[name]))) for name in ("as-built", "renumbered"))
        assert built[0] in (0, 1)
        assert moved == built
    # the renumbering moved every morphism that is not alone in the base
    first = [m for x in doc["objects"] for y in doc["objects"] for m in doc["homs"].get(f"{x},{y}", [])]
    second = [
        m for x in renumbered["objects"] for y in renumbered["objects"] for m in renumbered["homs"].get(f"{x},{y}", [])
    ]
    assert sorted(first) == sorted(second) and sum(a == b for a, b in zip(first, second)) < len(first) // 10
