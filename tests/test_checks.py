"""The check registry's shared facts: one battery run computes each
morphism's pulled rows, strict witness and final witness once."""

import sys
from collections import Counter

import pytest

from formkit import morphisms
from formkit.checks import BATTERY, CheckContext, run_checks
from formkit.lattice import MonotoneMap


@pytest.mark.parametrize(
    "bundle_name, order_fixture, order_name",
    [("top123", "theta123", "theta"), ("grp8", "ni8", "normal-interval")],
)
def test_battery_computes_each_fact_once(bundle_name, order_fixture, order_name, request, monkeypatch):
    bundle, order = request.getfixturevalue(bundle_name), request.getfixturevalue(order_fixture)
    form = bundle.form
    asked = Counter()  # (map object, masks) -> preimages calls
    preimages = MonotoneMap.preimages

    def counted_preimages(self, masks):
        masks = tuple(masks)
        asked[id(self), masks] += 1
        return preimages(self, masks)

    monkeypatch.setattr(MonotoneMap, "preimages", counted_preimages)
    computed = Counter()  # (kernel, morphism) -> calls
    for kernel in ("strict_violation", "final_violation"):
        original = getattr(morphisms, kernel)

        def counted(form, order, f, *rest, kernel=kernel, original=original):
            computed[kernel, f] += 1
            return original(form, order, f, *rest)

        for name, module in list(sys.modules.items()):
            if name.startswith("formkit") and getattr(module, kernel, None) is original:
                monkeypatch.setattr(module, kernel, counted)

    ctx = CheckContext(form, order, bundle=bundle, recipe={"order": order_name})
    results = run_checks(ctx, BATTERY)
    assert [r.name for r in results if r.status == "skipped"] == []
    for f in form.base.morphisms():
        rows = order.rel[form.base.dom[f]]
        assert asked[id(form.pull_maps[f]), tuple(rows)] == 1, f
        assert computed["strict_violation", f] == 1, f
        assert computed["final_violation", f] == 1, f
