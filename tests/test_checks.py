"""The check registry's shared facts: one battery run computes each
morphism's pulled rows, strict witness and final witness once, and the
base and form-law checks walk the composable pairs once between them.
The checks read morphisms and objects by number, and their names only to
write a report."""

import sys
from collections import Counter

import pytest

from formkit import morphisms
from formkit.checks import BATTERY, FORM_CHECKS, CheckContext, run_checks
from formkit.forms import CategoryPresentation, FormInstance
from formkit.groups import build_grp_form, normal_interval_order, standard_corpus
from formkit.lattice import FiniteLattice, MonotoneMap
from formkit.partitions import build_quot_form
from formkit.topologies import build_top_form, theta_order


class Unreadable:
    """A name-keyed table of the base every read of which fails."""

    def _fail(self, *args):
        raise AssertionError("a check looked a morphism or object up by name")

    __getitem__ = __contains__ = __iter__ = __len__ = _fail

    def __getattr__(self, name):
        self._fail()


@pytest.mark.parametrize(
    "build, order, order_name",
    [
        (lambda: build_top_form([1, 2, 3]), theta_order, "theta"),
        (lambda: build_grp_form(standard_corpus(8)), normal_interval_order, "normal-interval"),
    ],
    ids=["top123", "grp8"],
)
def test_checks_look_up_no_names(build, order, order_name):
    """The form checks and the battery report the same on a base whose
    name tables (``ids``, ``dom``, ``cod``, ``homs``, ``identities``)
    cannot be read: the kernels take numbers and read names only through
    ``names`` and ``objects``, where they write a report."""
    reports = []
    for hide in (False, True):
        bundle = build()  # built here, so that no memo was filled through the names
        if hide:
            for table in ("ids", "dom", "cod", "homs", "identities"):
                setattr(bundle.form.base, table, Unreadable())
        ctx = CheckContext(bundle.form, order(bundle), bundle=bundle, recipe={"order": order_name})
        reports.append([r.to_dict() for r in run_checks(ctx, FORM_CHECKS + BATTERY)])
    assert len(reports[0]) >= 15  # all but the other instances' propositions
    assert reports[1] == reports[0]


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
    for f in range(len(form.base.names)):
        rows = order.rel[form.base.source[f]]
        assert asked[id(form.pull_maps[f]), tuple(rows)] == 1, f
        assert computed["strict_violation", f] == 1, f
        assert computed["final_violation", f] == 1, f


@pytest.mark.parametrize("build, sizes", [(build_top_form, [1, 2, 3]), (build_quot_form, [1, 2, 3, 4])])
def test_totality_walk_reads_each_morphisms_composites_once(build, sizes, monkeypatch):
    form = build(sizes).form  # built here: the session fixtures may have walked already
    form.base.generators  # the generator search reads after() too; done before counting
    reads = Counter()  # morphism number -> after() calls
    after = CategoryPresentation.after

    def counted(self, f):
        reads[f] += 1
        return after(self, f)

    monkeypatch.setattr(CategoryPresentation, "after", counted)
    assert form.base.verify().ok
    assert form.verify_laws().ok
    assert reads == Counter(range(len(form.base.names)))


def undefined_composites_form() -> FormInstance:
    """idX, e: X -> X, f: X -> Y and idY, with e∘e, f∘e and idY∘f left
    undefined and f∘idX outside hom(X, Y)."""
    base = CategoryPresentation(
        ["X", "Y"],
        {("X", "X"): ["idX", "e"], ("X", "Y"): ["f"], ("Y", "Y"): ["idY"]},
        {("idX", "idX"): "idX", ("e", "idX"): "e", ("idX", "e"): "e", ("f", "idX"): "idX", ("idY", "idY"): "idY"},
        {"X": "idX", "Y": "idY"},
    )
    lat = FiniteLattice.chain(2)
    ident = [MonotoneMap.identity(lat) for _ in base.names]
    return FormInstance(base, [lat, lat], ident, ident)


def test_form_laws_report_the_undefined_composites_of_the_base():
    """verify_laws reports the undefined composites of the base's walk, in
    its order, whichever of the two checks runs first."""
    for laws_first in (False, True):
        form = undefined_composites_form()
        if laws_first:
            laws, base = form.verify_laws(), form.base.verify()
        else:
            base, laws = form.base.verify(), form.verify_laws()
        assert [(v.check, v.witness) for v in base.violations] == [
            ("compose-escapes-hom", ("f", "idX", "idX")),
            ("compose-undefined", ("e", "e")),
            ("compose-undefined", ("f", "e")),
            ("compose-undefined", ("idY", "f")),
        ]
        assert laws.violations == base.violations[1:]
        assert form.verify_laws_dense().violations == laws.violations
