"""The check registry's shared facts: one battery run computes each
morphism's pulled rows, strict witness and final witness once, and a base
whose composition is not total is refused where it is built, so no check
walks the composable pairs for it. The checks read morphisms and objects
by number, and their names only to write a report."""

import sys
from collections import Counter
from itertools import product

import pytest

from formkit import lattice, morphisms
from formkit.checks import BATTERY, CHECKS, FORM_CHECKS, CheckContext, run_checks
from formkit.forms import CategoryPresentation, CorruptFormError, FormInstance
from formkit.groups import build_grp_form, normal_interval_order, standard_corpus
from formkit.lattice import FiniteLattice
from formkit.morphisms import cohereditary_operator_check, strict_via_operators
from formkit.partitions import build_quot_form
from formkit.topogenous import (
    Operator,
    TopogenousOrder,
    closure_from_order,
    leq_order,
    roundtrip_check,
    verify_closure,
)
from formkit.topologies import build_top_form, theta_order
from oracles import leq_over, report_dict, totality_faults, verify_closure_dense


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
        reports.append(run_checks(ctx, FORM_CHECKS + BATTERY))
    assert len(reports[0]) >= 15  # all but the other instances' propositions
    assert reports[1] == reports[0]


@pytest.mark.parametrize(
    "bundle_name, order_fixture, order_name",
    [("top123", "theta123", "theta"), ("grp8", "ni8", "normal-interval")],
)
def test_battery_computes_each_fact_once(bundle_name, order_fixture, order_name, request, monkeypatch):
    bundle, order = request.getfixturevalue(bundle_name), request.getfixturevalue(order_fixture)
    form = bundle.form
    originals = {
        "preimages": lattice.preimages,
        "strict_violation": morphisms.strict_violation,
        "final_violation": morphisms.final_violation,
    }
    asked = Counter()  # (table object, masks) -> preimages calls
    computed = Counter()  # (kernel, morphism) -> calls

    def counted_preimages(table, target, masks):
        masks = tuple(masks)
        asked[id(table), masks] += 1
        return originals["preimages"](table, target, masks)

    def counted_kernel(kernel):
        def counted(form, order, f, *rest):
            computed[kernel, f] += 1
            return originals[kernel](form, order, f, *rest)

        return counted

    for kernel, original in originals.items():
        counted = counted_preimages if kernel == "preimages" else counted_kernel(kernel)
        for name, module in list(sys.modules.items()):
            if name.startswith("formkit") and getattr(module, kernel, None) is original:
                monkeypatch.setattr(module, kernel, counted)

    ctx = CheckContext(form, order, bundle=bundle, recipe={"order": order_name})
    results = run_checks(ctx, BATTERY)
    assert [r["name"] for r in results if r["status"] == "skipped"] == []
    for f in range(len(form.base.names)):
        rows = order.rel[form.base.source[f]]
        assert asked[id(form.pull[f]), tuple(rows)] == 1, f
        assert computed["strict_violation", f] == 1, f
        assert computed["final_violation", f] == 1, f


def test_partial_presentation_is_refused_at_its_first_pair_in_walk_order():
    """idX, e: X -> X, f: X -> Y and idY, with f∘idX outside hom(X, Y) and
    e∘e, f∘e and idY∘f left undefined. The constructor names the first of
    these in the walk order of the oracle (f outer, g inner); with that
    pair mended, the next one."""
    objects, identities = ["X", "Y"], {"X": "idX", "Y": "idY"}
    homs = {("X", "X"): ["idX", "e"], ("X", "Y"): ["f"], ("Y", "Y"): ["idY"]}
    compose = {("idX", "idX"): "idX", ("e", "idX"): "e", ("idX", "e"): "e", ("f", "idX"): "idX", ("idY", "idY"): "idY"}
    unfilled = CategoryPresentation(objects, homs, None, identities)
    n = len(unfilled.names)
    for (g, f), h in compose.items():
        unfilled.comp[unfilled.ids[g] * n + unfilled.ids[f]] = unfilled.ids[h]
    faults = [("f", "idX", "idX"), ("e", "e"), ("f", "e"), ("idY", "f")]
    assert totality_faults(unfilled) == faults
    mends = {("f", "idX"): "f", ("e", "e"): "e", ("f", "e"): "f", ("idY", "f"): "f"}
    for fault in faults:
        g, f, *h = fault
        message = f"{h[0]!r} is not a composite of {g!r} after {f!r}" if h else f"{g!r} after {f!r} is undefined"
        with pytest.raises(ValueError) as refused:
            CategoryPresentation(objects, homs, compose, identities)
        assert str(refused.value) == message
        compose[g, f] = mends[g, f]
    base = CategoryPresentation(objects, homs, compose, identities)
    assert base.verify().ok and totality_faults(base) == []


# -- every check can fail ------------------------------------------------------------
#
# Per clause, a small input on which it passes and one named corruption of a
# form, an order or an operator on which it reports a violation. The
# clauses below are the ones no other tier-1 test sees fail. The checks run
# directly, without the order-axioms gate of run_checks: the round-trip
# clauses on an order fail only on orders that break T1 or T2.


def one_object(fib: FiniteLattice, push=None, pull=None) -> FormInstance:
    """One object X with fibre ``fib`` and its identity, whose push and pull
    are the identity table unless given."""
    base = CategoryPresentation(["X"], {("X", "X"): ["id"]}, {("id", "id"): "id"}, {"X": "id"})
    same = tuple(range(fib.size))
    return FormInstance(base, [fib], [push or same], [pull or same])


CHAIN2, CHAIN3 = FiniteLattice.chain(2), FiniteLattice.chain(3)
PREORDER2 = FiniteLattice.from_up_masks([0b11, 0b11])  # 0 <= 1 and 1 <= 0


def on_order(check, form, rows, corrupted_rows):
    """The registry check on the order of one-object ``form`` with ``rows``,
    then with ``corrupted_rows``."""
    return [CHECKS[check].run(CheckContext(form, TopogenousOrder([r]))) for r in (rows, corrupted_rows)]


def final_thick():
    # the identity of a two-element chain is final for the leq order; its
    # push sends the top to the bottom
    form = one_object(CHAIN2)
    broken = one_object(CHAIN2, push=(0, 0))
    return [CHECKS["final-thick"].run(CheckContext(f, leq_order(f))) for f in (form, broken)]


def theta_clopen_per_pair():
    # the one-point fibre's row emptied: the one topology on a point is no
    # longer theta-related to itself
    tf = build_top_form([1, 2])
    order = theta_order(tf)
    point = tf.form.base.objects.index("1pt")
    emptied = TopogenousOrder([(0,) if x == point else rows for x, rows in enumerate(order.rel)])
    return [
        CHECKS["theta-clopen-strict-per-pair"].run(CheckContext(tf.form, o, bundle=tf, recipe={"order": "theta"}))
        for o in (order, emptied)
    ]


def c2_form_agreement():
    # on a three-element chain whose identity pushes to the bottom and pulls
    # to the top (an adjoint pair, though not the identity), the closure
    # sending everything to the top passes; moved to fix the middle element
    # it is no longer monotone, which only the split phrasing sees
    form = one_object(CHAIN3, push=(0, 0, 0), pull=(2, 2, 2))
    assert form.is_adjoint(0)  # the mask path runs
    return [verify_closure(form, Operator("closure", [t])) for t in ((2, 2, 2), (2, 1, 2))]


def order_closure_order():
    # every element related to the top only; the bottom also related to
    # itself, which breaks T2
    return on_order("roundtrip", one_object(CHAIN3), (0b100, 0b100, 0b100), (0b101, 0b100, 0b100))


def order_interior_order():
    # the bottom related to everything; the top also related to itself,
    # which breaks T2
    return on_order("roundtrip", one_object(CHAIN3), (0b111, 0, 0), (0b111, 0, 0b100))


def idempotent_iff_interpolative():
    # every element related to the top only; the top also related to the
    # middle element, which breaks T1
    return on_order("roundtrip", one_object(CHAIN3), (0b100, 0b100, 0b100), (0b100, 0b100, 0b110))


def operator_roundtrip(kind):
    # the identity operator on a two-element chain; the chain's two
    # elements made equivalent, where the derived operator takes the first
    # of them
    return [roundtrip_check(one_object(fib), Operator(kind, [(0, 1)])) for fib in (CHAIN2, PREORDER2)]


def form_law(changed):
    # the form-laws of one object on a two-element chain, then with the
    # identity's pull replaced: by a constant to the top, which breaks the
    # identity lifting alone (every constant is monotone), or by the swap,
    # which is no longer monotone
    return [one_object(CHAIN2).verify_laws(), one_object(CHAIN2, pull=changed).verify_laws()]


def arrow(push=(0, 1), pull=(0, 1)) -> FormInstance:
    """X -> Y, both fibres the two-element chain, push and pull of f the
    identity table unless given."""
    base = CategoryPresentation(
        ["X", "Y"],
        {("X", "X"): ["idX"], ("X", "Y"): ["f"], ("Y", "Y"): ["idY"]},
        {("idX", "idX"): "idX", ("f", "idX"): "f", ("idY", "f"): "f", ("idY", "idY"): "idY"},
        {"X": "idX", "Y": "idY"},
    )
    pushes, pulls = [(0, 1)] * 3, [(0, 1)] * 3
    pushes[base.ids["f"]], pulls[base.ids["f"]] = push, pull
    return FormInstance(base, [CHAIN2, CHAIN2], pushes, pulls)


def on_arrow(check, corrupted_rows):
    # the registry check on the leq order of X -> Y, where f pushes to the
    # bottom and pulls to the top (an adjoint pair, though not the
    # identity), then on the order with X's and Y's rows
    # ``corrupted_rows``
    form = arrow(push=(0, 0), pull=(1, 1))
    return [CHECKS[check].run(CheckContext(form, o)) for o in (leq_order(form), TopogenousOrder(corrupted_rows))]


def via_operators(name):
    # the leq order of X -> Y, where every morphism is strict, with the
    # operators it derives (both the identity); then Y's top no longer
    # related to itself, which makes f not strict, beside the same
    # operators, which still commute with push and pull
    form = arrow()
    ctx = CheckContext(form, leq_order(form))
    corrupted = CheckContext(form, TopogenousOrder([CHAIN2.up, (0b11, 0)]))
    return [strict_via_operators(form, c.strict, ctx.cls, ctx.closure, ctx.interior) for c in (ctx, corrupted)]


def cohereditary():
    # the leq order of top[1,2], whose retractions are all final, with its
    # derived closure (the identity); then that closure moved to send the
    # topology {∅, {0}, X} on 2pt to the discrete one, which the swap of
    # 2pt, a retraction, no longer restricts to
    tf = build_top_form([1, 2])
    ctx = CheckContext(tf.form, leq_order(tf.form))
    two = tf.form.base.objects.index("2pt")
    table = list(ctx.closure.maps[two])
    table[tf.index[two][(0, 1, 3)]] = tf.index[two][(0, 1, 2, 3)]
    moved = Operator("closure", [table if x == two else t for x, t in enumerate(ctx.closure.maps)])
    return [cohereditary_operator_check(tf.form, c, ctx.final) for c in (ctx.closure, moved)]


CAN_FAIL = {
    "final-thick": final_thick,
    "theta-clopen-strict-per-pair": theta_clopen_per_pair,
    "C2-form-agreement": c2_form_agreement,
    # X's top no longer related to itself: f's pull of any related pair in
    # Y, (X's top, X's top), is unrelated, and T3 fails with it
    "pull-form": lambda: on_arrow("t3-pull-agreement", [(0b11, 0), CHAIN2.up]),
    # X's bottom no longer related to X's top, which breaks T2: T3 fails
    # at X's bottom, while every pull is X's top, still self-related
    "pull-form-agrees-T3": lambda: on_arrow("t3-pull-agreement", [(0b01, 0b10), CHAIN2.up]),
    # Y's bottom related to itself only, which breaks T2: f is no longer
    # strict (X's bottom is related to pull(Y's top), but push of it, Y's
    # bottom, is not related to Y's top), while its push, constant at Y's
    # bottom, still sends related pairs to a related pair
    "strict-iff-push": lambda: on_arrow("strict-iff-push", [CHAIN2.up, (0b01, 0b10)]),
    "order-closure-order": order_closure_order,
    "order-interior-order": order_interior_order,
    "idempotent-iff-interpolative": idempotent_iff_interpolative,
    "closure-order-closure": lambda: operator_roundtrip("closure"),
    "interior-order-interior": lambda: operator_roundtrip("interior"),
    "identity-pull": lambda: form_law((1, 1)),
    "pull-monotone": lambda: form_law((1, 0)),
    "strict-iff-closure-commutes": lambda: via_operators("closure"),
    "interior-commutes-implies-strict": lambda: via_operators("interior"),
    "cohereditary-iff-closure-restricts": cohereditary,
    "antisymmetric": lambda: [CHAIN2.verify(), PREORDER2.verify()],
}


@pytest.mark.parametrize("name", CAN_FAIL)
def test_every_check_can_fail(name):
    clean, broken = CAN_FAIL[name]()
    assert clean.ok and clean.checks_run > 0
    assert name in {v.check for v in broken.violations}, report_dict(broken)


REFUSALS = {
    "push": (ValueError, "table length must match source size"),
    "pull": (IndexError, r"table value [1-3] out of range for target of size 1"),
}


@pytest.mark.parametrize("direction", REFUSALS)
def test_form_refuses_a_table_off_its_fibres(direction):
    # the push or pull table of 1pt->2pt:0 replaced by that of 2pt->2pt:0.0,
    # which leaves from or lands on the wrong fibre
    form = build_top_form([1, 2]).form
    f, g = form.base.ids["1pt->2pt:0"], form.base.ids["2pt->2pt:0.0"]
    error, message = REFUSALS[direction]
    tables = {"push": list(form.push), "pull": list(form.pull)}
    tables[direction][f] = tables[direction][g]
    with pytest.raises(error, match=f"^morphism '1pt->2pt:0': {message}$"):
        FormInstance(form.base, form.fibres, tables["push"], tables["pull"])


def test_closure_refuses_at_the_closed_pair_first():
    # top[1,2] with the pull of 2pt->1pt:0.0 sending the point's topology to
    # {∅, {0}, 2pt} (element 1) instead of the indiscrete one (3): the two
    # transfer tests disagree at the 2pt topologies not below element 1, so
    # (2, 0) is the first disagreeing pair in (a, b) order. The theta
    # closure sends the discrete topology (0) to the indiscrete one, so the
    # C2 sweep meets the disagreement earlier, at (c(0), c(0)) = (3, 0)
    # while at the pair (0, 0)
    tf = build_top_form([1, 2])
    form = tf.form
    f = form.base.ids["2pt->1pt:0.0"]
    pull = list(form.pull)
    pull[f] = (1,)
    broken = FormInstance(form.base, form.fibres, form.push, pull)
    assert not broken.is_adjoint(f)

    def disagree(a, b):
        try:
            leq_over(broken, f, a, b)
        except CorruptFormError:
            return True
        return False

    assert [a for a in range(4) if disagree(a, 0)] == [2, 3]
    clo = closure_from_order(form, theta_order(tf))
    message = "transfer tests disagree for morphism '2pt->1pt:0.0' at (3, 0); push/pull tables are not an adjoint pair"
    for check in (verify_closure, verify_closure_dense):
        with pytest.raises(CorruptFormError) as raised:
            check(broken, clo)
        assert str(raised.value) == message, check.__name__


def test_closure_on_a_preorder_fibre_matches_the_pair_sweep():
    # the form of the closure-order-closure row, whose fibre's two elements
    # are equivalent, and one whose fibre has them below a third: the
    # identity's law body certifies nothing, the transfer tests all agree,
    # and the mask tests run. Every table on the fibre gets the pair
    # sweep's report, and some fail C1 and C2
    failed = set()
    for fib in (PREORDER2, FiniteLattice.from_up_masks([0b111, 0b111, 0b100])):
        form = one_object(fib)
        assert not form.is_adjoint(0)
        for table in product(range(fib.size), repeat=fib.size):
            clo = Operator("closure", [table])
            got = report_dict(verify_closure(form, clo))
            assert got == report_dict(verify_closure_dense(form, clo)), (fib.up, table)
            failed.update(v["check"] for v in got["violations"])
    assert failed == {"C1", "C2"}
