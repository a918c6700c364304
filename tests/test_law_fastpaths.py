"""The reduced law sweeps and the mask kernels against the dense sweeps
they replace.

`CategoryPresentation.verify` tests associativity with a generator in the
middle, `FormInstance.verify_laws` tests functoriality at generators and
skips the Galois sweep where monotonicity, unit and counit hold, and
`formkit.lattice.monotone_violation` tests cover pairs only. Each falls back to
its dense sweep on failure, so the violations must always be those of
`verify_dense`, `verify_laws_dense` (in `oracles`) and
`monotone_violation_dense`.

The order and operator battery runs on masks: `verify_closure` under a
per-morphism adjunction certificate, walking the transfer tests of a
morphism without one until they disagree, the other kernels exactly. Each
must agree with its `*_dense` oracle in `oracles`, raised
`CorruptFormError` messages included.

The search runs on mask tables: `FiniteLattice.meet_mask`/`join_mask`
against the `meet`/`join` scans, `classify_order`'s principal-filter test
against the subset scan `classify_order_dense`, the order closure
`_close_order` against the pair closure `_close_order_dense`, and
`upper_adjoint` against the `leq` comprehension it replaced, and
`lower_adjoint`, which derives the quot and grp push tables, against the
built top push tables and as the inverse of `upper_adjoint`.
"""

import random
from collections import Counter
from itertools import combinations

from formkit.checks import CheckContext
from formkit.forms import CategoryPresentation, CorruptFormError, FormInstance
from formkit.groups import build_grp_form, normal_interval_order, standard_corpus
from formkit.lattice import (
    TABLE_BITS,
    FiniteLattice,
    _bits_of_large,
    bits,
    lower_adjoint,
    monotone_violation,
    monotone_violation_dense,
    preimages,
    upper_adjoint,
)
from formkit.morphisms import final_violation, push_preserves_order, strict_violation, transfer_laws_check
from formkit.partitions import build_quot_form
from formkit.report import Report
from formkit.search import MAX_POSET_POINTS, _close_order, _downset_lattice, case_rng, random_form, random_order
from formkit.topogenous import (
    Operator,
    OrderClass,
    TopogenousOrder,
    check_T3_pull_form,
    classify_order,
    classify_order_dense,
    closure_from_order,
    interior_from_order,
    leq_order,
    order_from_interior,
    pulled_table,
    verify_closure,
    verify_interior,
    verify_order,
)
from formkit.topologies import b_order, build_top_form, theta_order, topology_fibre
from oracles import (
    _close_order_dense,
    check_T3_pull_form_dense,
    composable_pairs,
    compose,
    final_violation_dense,
    hom,
    morphism_kind_dense,
    order_from_interior_dense,
    push_preserves_order_dense,
    report_dict,
    strict_violation_dense,
    transfer_laws_check_dense,
    verify_closure_dense,
    verify_dense,
    verify_interior_dense,
    verify_laws_dense,
    verify_order_dense,
)

SEED = 20230130


def violations(rep):
    return report_dict(rep)["violations"]


def with_compose(form: FormInstance, pair: tuple[str, str], h: str) -> FormInstance:
    base = form.base
    compose = dict(base.compose_table)
    compose[pair] = h
    changed = CategoryPresentation(base.objects, base.homs, compose, base.identities)
    return FormInstance(changed, form.fibres, form.push, form.pull)


def with_table(form: FormInstance, direction: str, f: int, index: int, value: int) -> FormInstance:
    tables = {"push": list(form.push), "pull": list(form.pull)}
    table = list(tables[direction][f])
    table[index] = value
    tables[direction][f] = table
    return FormInstance(form.base, form.fibres, tables["push"], tables["pull"])


def corrupt(form: FormInstance, rng: random.Random):
    """One random change: a compose entry moved to another member of its
    hom-set, or one entry of a push or pull table; None when the drawn
    kind has no room for a change on this form."""
    base = form.base
    kind = rng.choice(("compose", "push", "pull"))
    if kind == "compose":
        pairs = [(g, f) for g, f in composable_pairs(base) if len(hom(base, base.dom[f], base.cod[g])) > 1]
        if not pairs:
            return None
        g, f = rng.choice(pairs)
        others = [h for h in hom(base, base.dom[f], base.cod[g]) if h != compose(base, g, f)]
        return with_compose(form, (g, f), rng.choice(others))
    f = rng.choice(range(len(base.names)))
    table = (form.push if kind == "push" else form.pull)[f]
    x, y = base.source[f], base.target[f]
    target = form.fibres[y if kind == "push" else x].size
    if target < 2:
        return None
    index = rng.randrange(len(table))
    value = rng.choice([v for v in range(target) if v != table[index]])
    return with_table(form, kind, f, index, value)


def assert_agrees(form: FormInstance) -> set[str]:
    """Fast and dense sweeps report the same violations; returns the names
    of the checks that failed."""
    fast_base, dense_base = form.base.verify(), verify_dense(form.base)
    assert violations(fast_base) == violations(dense_base)
    fast_laws, dense_laws = form.verify_laws(), verify_laws_dense(form)
    assert violations(fast_laws) == violations(dense_laws)
    return {v.check for v in fast_base.violations + fast_laws.violations}


def test_fast_sweeps_match_dense_oracles_under_corruption():
    # (form, corruptions drawn); quot[2,3] gets few because its dense
    # sweeps are the slowest here
    cases = [
        (build_top_form([1, 2]).form, 250),
        (build_top_form([2, 2]).form, 250),
        (build_top_form([0, 1, 2]).form, 250),
        (build_quot_form([2, 3]).form, 40),
    ]
    cases += [(random_form(case_rng(SEED, i)), 20) for i in range(30)]
    rng = random.Random(SEED)
    generator_swept = {"associative", "identity-left", "identity-right", "functorial-push", "functorial-pull"}
    tried = certified = 0
    failed: Counter = Counter()
    for form, draws in cases:
        assert not assert_agrees(form)
        for _ in range(draws):
            changed = corrupt(form, rng)
            if changed is None:
                continue
            tried += 1
            found = assert_agrees(changed)
            failed.update(found)
            certified += not found & generator_swept
    assert tried >= 1000
    # every fallback was taken, and some corruptions left the category and
    # functoriality intact, so the generator sweeps certified them
    for check in ("associative", "identity-left", "functorial-push", "functorial-pull", "galois", "unit"):
        assert failed[check] > 0, check
    assert certified > 0


def closure_of_generators(base: CategoryPresentation) -> set[str]:
    reached = set(base.identities.values())
    todo = list(reached)
    while todo:
        x = todo.pop()
        for s in map(base.names.__getitem__, base.generators):
            if base.dom[s] == base.cod[x]:
                y = compose(base, s, x)
                if y not in reached:
                    reached.add(y)
                    todo.append(y)
    return reached


def test_generators_generate_every_morphism():
    for base in (
        build_top_form([3]).form.base,
        build_quot_form([3]).form.base,
        build_grp_form(standard_corpus(4)).form.base,
    ):
        morphisms = set(base.names)
        assert closure_of_generators(base) == morphisms
        assert len(base.generators) < len(morphisms)


def test_generator_counts_on_benchmark_instances():
    assert len(build_top_form([3, 3, 3]).form.base.generators) == 7
    assert len(build_quot_form([3, 3, 3]).form.base.generators) == 7


def test_composite_middle_violation_reports_dense_witness():
    # break h∘m for a composite m until the dense sweep's first witness has
    # a composite in the middle: the generator sweep never tests that
    # triple, yet the report must carry it
    form = build_quot_form([3]).form
    base = form.base
    plain = {base.names[s] for s in base.generators} | set(base.identities.values())
    composites = [m for m in base.names if m not in plain]
    for h in composites:
        for m in composites:
            right = compose(base, h, m)
            wrong = next(x for x in hom(base, base.dom[m], base.cod[h]) if x != right)
            changed = with_compose(form, (h, m), wrong).base
            dense = verify_dense(changed)
            assert not dense.ok
            middle = dense.violations[0].witness[1]
            if dense.violations[0].check == "associative" and middle not in plain:
                fast = changed.verify()
                assert violations(fast) == violations(dense)
                return
    raise AssertionError("no corruption with a composite middle in the dense witness")


def test_monotone_violation_matches_dense_scan_on_topology_lattice():
    lat, _ = topology_fibre(3)
    assert lat.size == 29
    rng = random.Random(SEED)
    form = build_top_form([3]).form
    monotone = form.push
    outcomes = set()
    for trial in range(600):
        if trial % 3 == 0:
            table = [rng.randrange(lat.size) for _ in range(lat.size)]
        else:
            table = list(rng.choice(monotone))
            if trial % 3 == 2:
                table[rng.randrange(lat.size)] = rng.randrange(lat.size)
        got = monotone_violation(table, lat, lat)
        assert got == monotone_violation_dense(table, lat, lat)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_covers_of_a_diamond():
    # bottom 0 < 1, 2 < top 3
    lat = FiniteLattice.from_up_masks([0b1111, 0b1010, 0b1100, 0b1000])
    assert lat.is_partial_order()
    assert lat.covers() == ((1, 2), (3,), (3,), ())


def test_monotone_violation_falls_back_on_a_non_order():
    # 0 <= 1 and 1 <= 2 but not 0 <= 2: the identity out of a chain keeps
    # every cover, yet it is not monotone into this relation
    rel = FiniteLattice.from_up_masks([0b011, 0b110, 0b100])
    assert not rel.is_partial_order()
    chain = FiniteLattice.chain(3)
    assert all((rel.up[a] >> b) & 1 for a, above in enumerate(chain.covers()) for b in above)
    assert monotone_violation((0, 1, 2), chain, rel) == monotone_violation_dense((0, 1, 2), chain, rel) == (0, 2)


# -- the order/operator battery ---------------------------------------------------


def outcome(fn, *args):
    """A result in comparable form: a report as its dict, a raised
    CorruptFormError as its message."""
    try:
        out = fn(*args)
    except CorruptFormError as exc:
        return ("raises", str(exc))
    return report_dict(out) if isinstance(out, Report) else out


def axioms(form: FormInstance, order: TopogenousOrder) -> Report:
    """verify_order on the pulled-rows table the registry builds."""
    return verify_order(form, order, pulled_table(form, order))


def pull_form(form: FormInstance, order: TopogenousOrder) -> Report:
    """check_T3_pull_form on the pulled-rows table the registry builds."""
    return check_T3_pull_form(form, order, pulled_table(form, order))


def transfer_laws(form: FormInstance, order: TopogenousOrder) -> Report:
    """transfer_laws_check with the witness tables the registry passes it."""
    ctx = CheckContext(form, order)
    return transfer_laws_check(form, ctx.strict_witness, ctx.final_witness)


def with_row(form: FormInstance, order: TopogenousOrder, rng: random.Random) -> TopogenousOrder:
    """One bit of one order row flipped, inside the fibre."""
    x = rng.choice(range(len(form.base.objects)))
    n = form.fibres[x].size
    rel = list(order.rel)
    rows = rel[x] = list(rel[x])
    rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return TopogenousOrder(rel)


def with_entry(form: FormInstance, op: Operator, rng: random.Random):
    """One operator entry moved to another fibre element; None on a
    one-element fibre."""
    x = rng.choice(range(len(form.base.objects)))
    n = form.fibres[x].size
    if n < 2:
        return None
    maps = list(op.maps)
    table = maps[x] = list(maps[x])
    a = rng.randrange(n)
    table[a] = rng.choice([v for v in range(n) if v != table[a]])
    return Operator(op.kind, maps)


def assert_kernels_agree(form: FormInstance, order: TopogenousOrder, clo: Operator, intr: Operator) -> set[str]:
    """Every kernel equals its dense oracle; returns the names of the
    checks that failed, plus "raises" when verify_closure raised."""
    found = set()
    for kernel, dense, arg in (
        (axioms, verify_order_dense, order),
        (pull_form, check_T3_pull_form_dense, order),
        (transfer_laws, transfer_laws_check_dense, order),
        (verify_closure, verify_closure_dense, clo),
        (verify_interior, verify_interior_dense, intr),
    ):
        got = outcome(kernel, form, arg)
        assert got == outcome(dense, form, arg), kernel.__name__
        if isinstance(got, tuple):
            found.add("raises")
        else:
            found.update(v["check"] for v in got["violations"])
    assert order_from_interior(form, intr) == order_from_interior_dense(form, intr)
    pulled = pulled_table(form, order)
    for f in range(len(form.base.names)):
        assert strict_violation(form, order, f, pulled[f]) == strict_violation_dense(form, order, f), f
        assert final_violation(form, order, f, pulled[f]) == final_violation_dense(form, order, f), f
        assert form.base.kinds[f] == morphism_kind_dense(form.base, f), f
        pushed = push_preserves_order(form, order, f)
        assert pushed == push_preserves_order_dense(form, order, f), f
        if pushed is not None:
            found.add("push-unrelated")
    return found


def battery_cases(rng: random.Random):
    """(form, order, draws): the instances with their named orders, and
    generated forms with generated orders of each class."""
    top12, top012 = build_top_form([1, 2]), build_top_form([0, 1, 2])
    grp4 = build_grp_form(standard_corpus(4))
    quot23 = build_quot_form([2, 3]).form
    cases = [
        (top12.form, theta_order(top12), 40),
        (top12.form, b_order(top12), 40),
        (top012.form, theta_order(top012), 40),
        (quot23, leq_order(quot23), 30),
        (grp4.form, normal_interval_order(grp4), 30),
        (grp4.form, leq_order(grp4.form), 20),
    ]
    for i in range(30):
        form = random_form(case_rng(SEED, i))
        cases.append((form, random_order(rng, form, ("any", "TM", "TJ")[i % 3]), 12))
    return cases


def test_order_kernels_match_dense_oracles_under_corruption():
    rng = random.Random(SEED)
    tried = uncertified = 0
    failed: Counter = Counter()
    for form, order, draws in battery_cases(rng):
        clo, intr = closure_from_order(form, order), interior_from_order(form, order)
        assert not assert_kernels_agree(form, order, clo, intr) & {"raises", "T1", "T2", "T3"}
        for _ in range(draws):
            kind = rng.choice(("form", "row", "closure", "interior"))
            args = [form, order, clo, intr]
            if kind == "form":
                args[0] = corrupt(form, rng)
            elif kind == "row":
                args[1] = with_row(form, order, rng)
            else:
                args[2 if kind == "closure" else 3] = with_entry(form, clo if kind == "closure" else intr, rng)
            if any(a is None for a in args):
                continue
            tried += 1
            found = assert_kernels_agree(*args)
            failed.update(found)
            if not all(args[0].is_adjoint(f) for f in range(len(args[0].base.names))):
                uncertified += 1
                assert "raises" in found  # verify_closure refused the transfer tables
    # no draw breaks retraction-final-strict: relating partition 0|0|1 to
    # 0|1|0 in the leq order of quot[2,3] leaves the retractions
    # 3pt->2pt:0.1.0 and 3pt->2pt:1.0.1 final but not strict
    quot23 = build_quot_form([2, 3]).form
    leq = leq_order(quot23)
    three = quot23.base.objects.index("3pt")
    rel = list(leq.rel)
    rows = rel[three] = list(rel[three])
    rows[1] |= 1 << 2
    order = TopogenousOrder(rel)
    failed.update(assert_kernels_agree(quot23, order, closure_from_order(quot23, leq), interior_from_order(quot23, leq)))
    assert tried >= 400
    # the certificate sent some corruptions to the refusal walk, and the mask
    # sweeps found violations of every kind on the others
    assert uncertified > 0
    for check in ("T1", "T2", "T3", "pull-form", "C1", "C2", "I1", "I2", "I3", "push-unrelated",
                  "retraction-final-strict", "section-strict-final", "iso-strict", "iso-final",
                  "compose-strict", "compose-final", "cancel-strict", "cancel-final",
                  "cancel-strict-as-printed", "cancel-final-as-printed",
                  "cancel-strict-first-factor-section", "cancel-final-first-factor-section"):
        assert failed[check] > 0, check


def test_preimage_masks_match_table_scan():
    # maps onto a random part of the target, several masks each
    rng = random.Random(SEED)
    for _ in range(200):
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        source, target = FiniteLattice.chain(n), FiniteLattice.chain(m)
        image = rng.sample(range(m), rng.randint(1, m))
        table = [rng.choice(image) for _ in range(n)]
        masks = [rng.randrange(1 << m) for _ in range(5)]
        assert preimages(table, target, masks) == [
            sum(1 << a for a in range(n) if (mask >> table[a]) & 1) for mask in masks
        ]
        assert preimages(table, target, ()) == []


def test_morphism_kind_names_the_first_inverse_in_hom_order():
    # a non-associative presentation where f has two two-sided inverses; in
    # a category the inverse is unique, so only this input tells which one
    # morphism_kind names: the first of hom(Y, X), as the dense scan does
    objects = ["X", "Y"]
    homs = {("X", "X"): ["idX"], ("Y", "Y"): ["idY"], ("X", "Y"): ["f"], ("Y", "X"): ["g1", "g2"]}
    compose = {("idX", "idX"): "idX", ("idY", "idY"): "idY", ("f", "idX"): "f", ("idY", "f"): "f"}
    for g in ("g1", "g2"):
        compose.update({(g, "idY"): g, ("idX", g): g, (g, "f"): "idX", ("f", g): "idY"})
    base = CategoryPresentation(objects, homs, compose, {"X": "idX", "Y": "idY"})
    point = FiniteLattice.chain(1)
    same = [(0,)] * len(base.names)
    form = FormInstance(base, [point, point], same, same)
    for m in range(len(base.names)):
        assert base.kinds[m] == morphism_kind_dense(form.base, m)
    assert base.kinds[base.ids["f"]].inverse == base.ids["g1"]


# -- the search on mask tables ----------------------------------------------------------


def search_posets() -> list[list[int]]:
    """Every poset the generator can draw: at most MAX_POSET_POINTS points,
    indices a linear extension, strict down-sets transitively closed."""
    out = []
    for k in range(MAX_POSET_POINTS + 1):
        edges = [(i, j) for j in range(k) for i in range(j)]
        seen = set()
        for chosen in range(1 << len(edges)):
            below = [0] * k
            for e, (i, j) in enumerate(edges):
                if (chosen >> e) & 1:
                    below[j] |= 1 << i
            for j in range(k):
                for i in bits(below[j]):
                    below[j] |= below[i]
            if tuple(below) not in seen:
                seen.add(tuple(below))
                out.append(below)
    return out


def assert_bounds_agree(lat: FiniteLattice, masks) -> None:
    """meet_mask and join_mask return what the scans return, or raise the
    same error."""
    for mask in masks:
        for fast, scan in ((lat.meet_mask, lat.meet), (lat.join_mask, lat.join)):
            try:
                expected = scan(bits(mask))
            except ValueError as exc:
                try:
                    fast(mask)
                except ValueError as got:
                    assert str(got) == str(exc)
                else:
                    raise AssertionError(f"{fast.__name__}({mask:#x}) did not raise")
            else:
                assert fast(mask) == expected, (fast.__name__, mask)


def test_bound_lookups_match_scans():
    import formkit.search as search

    posets = search_posets()
    assert len(posets) == 1 + 1 + 2 + 7
    lattices = [_downset_lattice(p)[0] for p in posets]
    for i in range(300):
        random_form(case_rng(SEED, i))
    assert set(search._LATTICES) <= {tuple(p) for p in posets}
    # the bit table against the generator, across the table's edge at 256
    for m in range(1024):
        assert tuple(bits(m)) == tuple(_bits_of_large(m)) == tuple(b for b in range(10) if (m >> b) & 1)
    assert isinstance(bits(255), tuple) and not isinstance(bits(256), tuple)
    for lat in lattices:
        assert lat.is_lattice()
        assert_bounds_agree(lat, range(1 << lat.size))
        # each table, read directly, against the scans
        for m in range(1 << lat.size):
            assert lat.meet_table[m] == lat.meet(bits(m)) and lat.join_table[m] == lat.join(bits(m))
            expected = {c for c in range(lat.size) if any(lat.leq(b, c) for b in bits(m))}
            assert set(bits(lat.up_closure_table[m])) == set(bits(lat.up_closure(m))) == expected
    # a relation of at most TABLE_BITS elements that is not a lattice: its
    # tables hold None where no bound exists, and the masks still raise
    antichain = FiniteLattice.from_up_masks([0b001, 0b010, 0b100])
    assert None in antichain.meet_table and None in antichain.join_table
    assert_bounds_agree(antichain, range(8))
    # the chain of TABLE_BITS elements has tables; larger lattices none
    assert len(FiniteLattice.chain(TABLE_BITS).meet_table) == 1 << TABLE_BITS
    for lat in (FiniteLattice.chain(TABLE_BITS + 1), topology_fibre(3)[0]):
        assert lat.up_closure_table is lat.meet_table is lat.join_table is None
    # the top[3] topology lattice: every family of at most three
    # topologies, and seeded larger ones
    lat, _ = topology_fibre(3)
    rng = random.Random(SEED)
    small = [sum(1 << b for b in combo) for k in range(4) for combo in combinations(range(lat.size), k)]
    assert_bounds_agree(lat, small + [rng.randrange(1 << lat.size) for _ in range(2000)])
    for m in small:
        assert lat.up_closure(m) == sum(1 << c for c in range(lat.size) if any(lat.leq(b, c) for b in bits(m)))


def test_bound_lookups_take_the_scan_off_partial_orders():
    # 0 and 1 are below each other: not antisymmetric, so no lookup table
    # exists and every bound comes from the scan
    rel = FiniteLattice.from_up_masks([0b011, 0b011, 0b100 | 0b011])
    assert not rel.is_partial_order() and not rel.is_lattice()
    assert rel._cone_index() == ({}, {})
    assert_bounds_agree(rel, range(1 << rel.size))
    assert rel.meet_mask(0b011) == rel.meet((0, 1)) == 0
    # a partial order without a bottom: the lookup misses, and the scan
    # raises as meet does
    antichain = FiniteLattice.from_up_masks([0b01, 0b10])
    assert antichain.is_partial_order() and not antichain.is_lattice()
    assert_bounds_agree(antichain, range(4))


def test_from_up_masks_matches_the_bool_matrix():
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.randint(0, 7)
        up = [rng.randrange(1 << (n + 2)) for _ in range(n)]  # stray high bits are dropped
        lat = FiniteLattice.from_up_masks(up)
        rows = [[bool((up[a] >> b) & 1) for b in range(n)] for a in range(n)]
        ref = FiniteLattice(rows)
        assert (lat.size, lat.up, lat.down) == (ref.size, ref.up, ref.down)


def search_relations(rng: random.Random):
    """(form, rows per object): seeds as random_order draws them, inside
    the fibre order, and arbitrary rows that break T1 and T2."""
    for i in range(120):
        form = random_form(case_rng(SEED, i))
        for inside in (True, False):
            rel = []
            for fib in form.fibres:
                rows = [0] * fib.size
                for _ in range(rng.randint(0, fib.size)):
                    a = rng.randrange(fib.size)
                    rows[a] |= 1 << (rng.choice(list(bits(fib.up[a]))) if inside else rng.randrange(fib.size))
                rel.append(rows)
            yield form, rel


def test_close_order_matches_pair_closure():
    rng = random.Random(SEED)
    grew = 0
    for form, seeds in search_relations(rng):
        for want in ("any", "TM", "TJ"):
            fast = [list(rows) for rows in seeds]
            dense = [list(rows) for rows in seeds]
            _close_order(form, fast, want)
            _close_order_dense(form, dense, want)
            assert fast == dense, want
            grew += fast != seeds
    assert grew > 300


def test_classify_order_matches_subset_scan(monkeypatch):
    import formkit.topogenous as tp

    scans = []
    monkeypatch.setattr(tp, "classify_order_dense", lambda form, order: scans.append(1) or classify_order_dense(form, order))
    rng = random.Random(SEED)
    cases = [(form, order) for form, order, _ in battery_cases(rng)]
    cases += [(form, with_row(form, order, rng)) for form, order in list(cases) for _ in range(6)]
    cases += [(form, TopogenousOrder(rel)) for form, rel in search_relations(rng)]
    taken = Counter()
    verdicts = set()
    for form, order in cases:
        before = len(scans)
        got = classify_order(form, order)
        assert got == classify_order_dense(form, order)
        scanned = len(scans) > before
        taken[scanned] += 1
        if any(v.check == "T2" for v in verify_order(form, order, pulled_table(form, order)).violations):
            assert scanned  # rows that break T2 take the subset scan
        verdicts.add((got.is_TM, got.is_TJ, got.is_interpolative))
    assert taken[True] > 50 and taken[False] > 50
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {v[2] for v in verdicts} == {True, False}


def outcome_of(fn, *args):
    """A result or a raised ValueError's message, in comparable form."""
    try:
        return ("returns", fn(*args))
    except ValueError as exc:
        return ("raises", str(exc))


def test_classify_order_scans_fibres_that_are_not_lattices():
    # 0 < 1, 2 < 3, 4 < 5 with 1 and 2 both below 3 and 4: a bounded poset
    # where {3, 4} has two maximal lower bounds, so its meet is missing
    up = [0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000]
    fib = FiniteLattice.from_up_masks(up)
    assert fib.is_partial_order() and not fib.is_lattice()
    base = CategoryPresentation(["X"], {("X", "X"): ["id"]}, {("id", "id"): "id"}, {"X": "id"})
    same = tuple(range(fib.size))
    form = FormInstance(base, [fib], [same], [same])
    order = leq_order(form)
    assert verify_order(form, order, pulled_table(form, order)).ok
    assert outcome_of(classify_order, form, order) == outcome_of(classify_order_dense, form, order)
    assert outcome_of(classify_order, form, order)[0] == "raises"


def test_subset_scan_on_a_fibre_that_is_not_a_lattice(monkeypatch):
    # the poset of the test above: {3, 4} has no meet and {1, 2} no join.
    # The leq order meets {3, 4} first; in the second order row 0 misses
    # the top, so it is not meet-stable, and column 2 holds 1 and 2
    import formkit.topogenous as tp

    fib = FiniteLattice.from_up_masks([0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000])
    base = CategoryPresentation(["X"], {("X", "X"): ["id"]}, {("id", "id"): "id"}, {"X": "id"})
    same = tuple(range(fib.size))
    form = FormInstance(base, [fib], [same], [same])
    joins_missing = TopogenousOrder([(0b011111, 0b000100, 0b000100, 0, 0, 0)])
    empty = TopogenousOrder([(0,) * 6])
    for limit, exhaustive in ((12, True), (0, False)):
        monkeypatch.setattr(tp, "EXHAUSTIVE_SUBSET_LIMIT", limit)
        assert outcome_of(classify_order_dense, form, leq_order(form)) == (
            "raises", "no greatest lower bound; not a lattice",
        )
        assert outcome_of(classify_order_dense, form, joins_missing) == (
            "raises", "no least upper bound; not a lattice",
        )
        assert classify_order_dense(form, empty) == OrderClass(False, False, True, exhaustive)


def test_derived_operators_match_scans():
    # closure_from_order and interior_from_order take each meet and join
    # from the lookups; the scans give the same tables
    rng = random.Random(SEED)
    for form, order, _ in battery_cases(rng):
        clo, intr = closure_from_order(form, order), interior_from_order(form, order)
        for x, (fib, rows) in enumerate(zip(form.fibres, order.rel)):
            assert clo.maps[x] == tuple(fib.meet(bits(row)) for row in rows)
            cols = [[a for a in range(fib.size) if (rows[a] >> b) & 1] for b in range(fib.size)]
            assert intr.maps[x] == tuple(fib.join(col) for col in cols)


def test_from_left_adjoint_matches_leq_comprehension():
    def comprehension(left, src, tgt):
        return tuple(src.join([a for a in range(src.size) if tgt.leq(left[a], b)]) for b in range(tgt.size))

    forms = [random_form(case_rng(SEED, i)) for i in range(200)]
    forms.append(build_top_form([1, 2]).form)
    forms.append(build_grp_form(standard_corpus(4)).form)
    derived = 0
    for form in forms:
        for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
            args = form.push[f], form.fibres[x], form.fibres[y]
            right = upper_adjoint(*args)
            assert right == comprehension(*args), f
            # the generator takes identities and composites without deriving
            assert right == form.pull[f], f
            derived += 1
    assert derived > 500


def test_from_right_adjoint_matches_the_built_push(top123, quot1234, grp8):
    # top builds its push by flag words; quot and grp take theirs from this
    # derivation, tested against their one-entry oracles in their own files
    derived = 0
    for form in (top123.form, quot1234.form, grp8.form):
        for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
            assert lower_adjoint(form.pull[f], form.fibres[y], form.fibres[x]) == form.push[f], f
            derived += 1
    assert derived > 1000


def test_from_right_adjoint_inverts_from_left_adjoint():
    forms = [random_form(case_rng(SEED, i)) for i in range(200)]
    derived = 0
    for form in forms:
        for f, (x, y) in enumerate(zip(form.base.source, form.base.target)):
            fx, fy = form.fibres[x], form.fibres[y]
            assert lower_adjoint(upper_adjoint(form.push[f], fx, fy), fy, fx) == form.push[f], f
            derived += 1
    assert derived > 500
