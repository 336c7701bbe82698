"""One wording for every refusal.  Each library entry point proves the
premises of its construction on its inputs before it builds anything, with
``algebra.require``, and refuses a failed one with the ValueError "input is
not <noun>; first witness at <where>", the words the CLI prints."""

from __future__ import annotations

import pytest

from leibniz_kit import (
    NaiveRepresentation,
    adjoint_naive,
    betti,
    build_lie2,
    compare_adjoint,
    compare_trivial,
    graph_rep_cohomology,
    image_representation,
    induced_leibniz,
    maurer_cartan_check,
    naive_betti,
    naive_from_rep,
    quotient_by_left_center,
    semidirect,
    tautological_rep,
    trivial_naive_rep,
    trivial_rep,
)
from leibniz_kit.algebra import refusal, require
from leibniz_kit.cohomology import maurer_cartan_residual
from leibniz_kit.fixtures import bad_graph, bad_representation, l2_algebra, nonleibniz

NOT_LEIBNIZ = "input is not a Leibniz algebra; first witness at (0, 0, 0)"
NOT_REP = "input is not a representation; first witness at (0, 0)"
NOT_CLOSED = "input is not a closed graph map; first witness at (0, 0)"
NOT_NAIVE = "input is not a naive representation; first witness at (0, 0)"


def _corrupted_theta():
    """The adjoint naive map of L2 with theta_1 = e_0 + e_1, which fails con2
    first at (0, 0)."""
    g = l2_algebra()
    return NaiveRepresentation(g, 2, adjoint_naive(g).phi, {(0, 0): 1, (1, 0): 1, (1, 1): 1})


# entry point: (call, message)
REFUSALS = {
    "betti(nonleibniz)": (lambda: betti(trivial_rep(nonleibniz()), 1), NOT_LEIBNIZ),
    "betti(bad rep)": (lambda: betti(bad_representation(), 1), NOT_REP),
    "adjoint_naive": (lambda: adjoint_naive(nonleibniz()), NOT_LEIBNIZ),
    "naive_from_rep(nonleibniz)": (lambda: naive_from_rep(trivial_rep(nonleibniz())),
                                   NOT_LEIBNIZ),
    "naive_from_rep(bad rep)": (lambda: naive_from_rep(bad_representation()), NOT_REP),
    "quotient_by_left_center": (lambda: quotient_by_left_center(nonleibniz()), NOT_LEIBNIZ),
    "build_lie2": (lambda: build_lie2(nonleibniz()), NOT_LEIBNIZ),
    "compare_trivial": (lambda: compare_trivial(nonleibniz(), 1), NOT_LEIBNIZ),
    "compare_adjoint": (lambda: compare_adjoint(nonleibniz(), 1), NOT_LEIBNIZ),
    **{f"semidirect {mode} (nonleibniz)": (
        lambda mode=mode: semidirect(nonleibniz(), trivial_rep(nonleibniz()), mode), NOT_LEIBNIZ)
       for mode in ("l0", "lr")},
    **{f"semidirect {mode} (bad rep)": (
        lambda mode=mode: semidirect(l2_algebra(), bad_representation(), mode), NOT_REP)
       for mode in ("l0", "lr")},
    "maurer_cartan_check(nonleibniz)": (
        lambda: maurer_cartan_check(nonleibniz(), trivial_rep(nonleibniz())), NOT_LEIBNIZ),
    "maurer_cartan_check(bad rep)": (
        lambda: maurer_cartan_check(l2_algebra(), bad_representation()), NOT_REP),
    "induced_leibniz": (lambda: induced_leibniz(bad_graph()), NOT_CLOSED),
    "tautological_rep": (lambda: tautological_rep(bad_graph()), NOT_CLOSED),
    "graph_rep_cohomology": (
        lambda: graph_rep_cohomology(adjoint_naive(l2_algebra()), bad_graph(), 1), NOT_CLOSED),
    "image_representation": (lambda: image_representation(_corrupted_theta()), NOT_NAIVE),
    "naive_betti": (lambda: naive_betti(_corrupted_theta(), 1), NOT_NAIVE),
    # the functional (0, 1) does not kill [e_0, e_0] = e_1
    "trivial_naive_rep": (lambda: trivial_naive_rep(l2_algebra(), [0, 1]), NOT_NAIVE),
    # a non-Leibniz h has no adjoint differential
    "maurer_cartan_residual": (
        lambda: maurer_cartan_residual(nonleibniz(), nonleibniz().c), NOT_LEIBNIZ),
}


@pytest.mark.parametrize("entry", sorted(REFUSALS))
def test_every_entry_point_refuses_in_one_wording(entry):
    call, message = REFUSALS[entry]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_refusal_names_the_first_value_that_fails_and_skips_none():
    g, rep, phi = l2_algebra(), bad_representation(), bad_graph()
    assert refusal() is None and refusal(None, g) is None and require(g, None) is None
    assert refusal(g, rep, phi) == NOT_REP and refusal(phi, rep) == NOT_CLOSED
    assert refusal(nonleibniz(), rep) == NOT_LEIBNIZ
    with pytest.raises(ValueError, match=r"^input is not a representation; first witness"):
        require(None, g, rep)
