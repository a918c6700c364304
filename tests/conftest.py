"""Shared instance fixtures; built once per session, they are immutable."""

import pytest

from formkit.groups import build_grp_form, normal_interval_order, standard_corpus
from formkit.partitions import build_quot_form
from formkit.topogenous import leq_order
from formkit.topologies import b_order, build_top_form, theta_order


@pytest.fixture(scope="session")
def top12():
    return build_top_form([1, 2])


@pytest.fixture(scope="session")
def top123():
    return build_top_form([1, 2, 3])


@pytest.fixture(scope="session")
def top4():
    return build_top_form([4])


@pytest.fixture(scope="session")
def grp8():
    return build_grp_form(standard_corpus(8))


@pytest.fixture(scope="session")
def quot1234():
    return build_quot_form([1, 2, 3, 4])


@pytest.fixture(scope="session")
def quot123():
    return build_quot_form([1, 2, 3])


@pytest.fixture(scope="session")
def theta123(top123):
    return theta_order(top123)


@pytest.fixture(scope="session")
def b123(top123):
    return b_order(top123)


@pytest.fixture(scope="session")
def leq_top123(top123):
    return leq_order(top123.form)


@pytest.fixture(scope="session")
def ni8(grp8):
    return normal_interval_order(grp8)
