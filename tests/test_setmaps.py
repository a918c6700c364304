"""The concrete base categories: composition tables filled a hom-block at
a time, against value tables composed one pair at a time."""

import pytest

from formkit.forms import CategoryPresentation, FormInstance
from formkit.groups import build_grp_form, standard_corpus
from formkit.lattice import FiniteLattice
from formkit.report import InputError
from formkit.setmaps import MAX_CARRIER, concrete_category, function_category
from oracles import morphism_kind_dense


def composed_per_pair(base, arrows):
    """The composition table rebuilt from every pair of morphisms: where
    dom g = cod f, the table of g after f, looked up by its domain,
    codomain and values."""
    n = len(base.names)
    table = [tuple(arrow.table) for arrow in arrows]
    number = {(base.source[i], base.target[i], table[i]): i for i in range(n)}
    expected = [-1] * (n * n)
    for f in range(n):
        for g in range(n):
            if base.source[g] == base.target[f]:
                gf = tuple(table[g][v] for v in table[f])
                expected[g * n + f] = number[(base.source[f], base.target[g], gf)]
    return expected


@pytest.mark.parametrize("sizes", [[0, 1, 2], [3, 3, 3], [1, 2, 3, 4]])
def test_function_category_composes_as_value_tables(sizes):
    # an empty carrier, repeated sizes, and many codomain blocks
    base, functions = function_category(sizes)
    assert base.comp == composed_per_pair(base, functions)
    assert [list(r) for r in base.by_source] == [
        [i for i in range(len(base.names)) if base.source[i] == x] for x in range(len(base.objects))
    ]


def test_group_category_composes_as_value_tables():
    sf = build_grp_form(standard_corpus(12))
    assert sf.form.base.comp == composed_per_pair(sf.form.base, sf.homs)


def test_carrier_beyond_byte_tables_is_refused_by_name():
    with pytest.raises(InputError, match=f"'big' has {MAX_CARRIER + 1} points"):
        concrete_category({"small": 2, "big": MAX_CARRIER + 1}, lambda x, y: [])


def test_compose_callable_of_the_wrong_length_is_refused():
    def compose(g, fs):
        return [g, g]  # one hom-block of one morphism

    with pytest.raises(ValueError, match="gave 2 composites for 1 morphisms"):
        CategoryPresentation(["X"], {("X", "X"): ["id"]}, compose, {"X": "id"})


def point_form(base):
    """A form over ``base`` with one-point fibres, to read its kinds."""
    point = FiniteLattice.chain(1)
    same = [(0,)] * len(base.names)
    return FormInstance(base, [point for _ in base.objects], same, same)


@pytest.mark.parametrize("build", ["empty carrier", "top123", "quot1234"])
def test_value_table_kinds_equal_the_scan_and_the_dense_oracle(build, request):
    # the full categories of finite sets read their kinds off the value
    # tables; the composition-table scan and the per-morphism oracle agree,
    # inverse names included
    if build == "empty carrier":
        form = point_form(function_category([0, 1, 2])[0])
    else:
        form = request.getfixturevalue(build).form
    base = form.base
    assert "kinds" in vars(base)  # given by the builder, not scanned
    assert base.kinds == base.scan_kinds() == [morphism_kind_dense(base, m) for m in range(len(base.names))]
    identities = set(base.identity_of)
    assert any(k.is_iso and m not in identities for m, k in enumerate(base.kinds))
    assert any(k.is_section and not k.is_retraction for k in base.kinds)


def test_group_homomorphisms_keep_the_scan():
    base = build_grp_form(standard_corpus(4)).form.base
    assert "kinds" not in vars(base)
    assert base.kinds == base.scan_kinds()
