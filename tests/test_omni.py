from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leibniz_kit.cohomology as cohomology_module
import leibniz_kit.omni as omni_module
import oracles
from conftest import change_basis
from leibniz_kit import (
    IdentityReport,
    LeibnizAlgebra,
    NaiveRepresentation,
    Representation,
    ResourceCapExceeded,
    Witness,
    adjoint_naive,
    adjoint_rep,
    betti,
    build_lie2,
    check_leibniz,
    coboundary,
    coboundary_matrix,
    compare_adjoint,
    compare_trivial,
    graph_check,
    graph_rep_cohomology,
    image_representation,
    induced_leibniz,
    left_center,
    naive_betti,
    naive_check,
    naive_coboundary,
    naive_from_rep,
    omni_lie,
    tautological_rep,
    to_naive_cochain,
    trivial_naive_rep,
    trivial_naive_space,
    trivial_rep,
    verify_lie2,
)
from leibniz_kit import fixtures as corpus
from leibniz_kit.fixtures import (
    bad_graph,
    bad_representation,
    graph_for,
    heisenberg3,
    l2_algebra,
    sl2,
)
from leibniz_kit.algebra import dense
from leibniz_kit.cli import main
from leibniz_kit.linalg import contract, rank, solve, sparse, sparse_tensor
from leibniz_kit.omni import GraphMap
from leibniz_kit.serialize import representation_from_json

F = Fraction
E = lambda n, i: [F(j == i) for j in range(n)]
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# the omni algebra

def test_omni_zero_dim():
    assert omni_lie(0).dim == 0
    with pytest.raises(ValueError):
        omni_lie(-1)


def test_omni_one_dim_structure():
    # gl(Q) (+) Q: only [a+u, b+v] = av survives
    g = omni_lie(1)
    assert g.dim == 2
    assert g.c == {(0, 1, 1): F(1)}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_omni_is_leibniz(m):
    assert check_leibniz(omni_lie(m)).holds


@pytest.mark.parametrize("m", [1, 2, 3])
def test_omni_left_center_is_the_vector_part(m):
    g = omni_lie(m)
    z = left_center(g)
    assert z.dim == m
    for v in oracles.basis_rows(z):
        assert all(not c for c in v[:m * m])   # no gl component


def test_omni_lie2_passes_axioms():
    for m in (1, 2):
        assert verify_lie2(build_lie2(omni_lie(m))).holds


# ---------------------------------------------------------------------------
# graphs

def test_zero_graph_closes():
    phi = GraphMap(2, {})
    assert graph_check(phi).holds
    induced = induced_leibniz(phi)
    assert not induced.c


def test_scalar_multiplication_graph_fails():
    # m = 1, phi(u) = u: commutators vanish but phi(phi(u)v) = uv does not
    phi = GraphMap(1, [[[1]]])
    report = graph_check(phi)
    assert not report.holds
    assert report.witnesses[0].where == (0, 0)


def test_bad_graph_fails_at_first_pair():
    report = graph_check(bad_graph())
    assert not report.holds
    assert (0, 0) in {w.where for w in report.witnesses}


def test_left_multiplication_graphs_close(positive_algebras):
    for name, g in positive_algebras.items():
        if g.dim > 4:
            continue
        phi = graph_for(g)
        assert graph_check(phi).holds, name
        assert induced_leibniz(phi).c == g.c, name


def test_induced_leibniz_rejects_bad_graph():
    with pytest.raises(ValueError):
        induced_leibniz(bad_graph())


def test_induced_structure_has_vanishing_self_bracket():
    g = induced_leibniz(graph_for(heisenberg3()))
    alpha = oracles.structure_cochain(g)
    assert oracles.graded_bracket(alpha, alpha).is_zero()


def test_graph_subalgebra_brackets_match_induced():
    # inside the omni algebra, [[phi(u)+u, phi(v)+v]] = phi([u,v]) + [u,v]
    phi = graph_for(l2_algebra())
    g = induced_leibniz(phi)
    m = phi.vdim
    rho = tautological_rep(phi)
    vectors = dense(rho.rho_vectors, rho.rho_vectors.shape)
    for i in range(m):
        for j in range(m):
            br = oracles.bracket(g, E(m, i), E(m, j))
            expected = contract([(1, "k,kp->p", sparse(br, 1), rho.rho_vectors)])  # rho([u, v])
            assert sparse(oracles.omni_bracket(m, vectors[i], vectors[j]), 1) == expected


def _omni_product(c, x, y) -> dict:
    """x.c.y, the bracket of two sparse vectors in an algebra with structure
    constants c: two contractions."""
    return contract([(1, "jk,j->k", contract([(1, "i,ijk->jk", x, c)]), y)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m), *[st.lists(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3)]),
                           min_size=m * m + m, max_size=m * m + m)] * 2)))
def test_omni_bracket_matches_the_matrix_formula(case):
    # [[A+u, B+v]] = AB - BA + Av with A, B the row-major gl parts, as x.c.y
    # with the structure constants of omni_lie(m)
    m, x, y = case
    a, b = (oracles.from_rows([z[r * m:(r + 1) * m] for r in range(m)]) if m
            else oracles.zeros(0, 0) for z in (x, y))
    gl = oracles.commutator(a, b)
    expected = [gl.entry(r, c) for r in range(m) for c in range(m)] + oracles.mv(a, y[m * m:])
    assert _omni_product(omni_lie(m).c, sparse(x, 1), sparse(y, 1)) == sparse(expected, 1)
    assert oracles.omni_bracket(m, x, y) == expected


@pytest.mark.parametrize("m", range(6))
def test_omni_structure_constants_bracket_every_pair_of_unit_vectors(m):
    c, n = omni_lie(m).c, m * m + m
    for p in range(n):
        for q in range(n):
            expected = sparse(oracles.omni_bracket(m, E(n, p), E(n, q)), 1)
            assert _omni_product(c, {(p,): 1}, {(q,): 1}) == expected, (p, q)


# ---------------------------------------------------------------------------
# naive representations

def test_zero_naive_rep_passes():
    g = sl2()
    rho = NaiveRepresentation(g, 2, {},
                              ([F(0), F(0)],) * 3)
    assert naive_check(rho).holds
    assert rho._reduced[1] == ()


def test_adjoint_naive_valid(positive_algebras):
    for name, g in positive_algebras.items():
        rho = adjoint_naive(g)
        assert naive_check(rho).holds, name
        assert rho._reduced[1] == tuple(range(g.dim)), name


def test_left_action_with_zero_theta_is_naive():
    g = l2_algebra()
    rho = NaiveRepresentation(g, 2, adjoint_rep(g).l, ([F(0), F(0)],) * 2)
    assert naive_check(rho).holds


def test_naive_check_three_routes_agree_on_corruption():
    g = l2_algebra()
    good = adjoint_naive(g)
    # corrupt theta: breaks the cocycle condition, and the oracle's direct
    # test against the omni bracket fails at the same pairs
    theta = (list(E(2, 0)), [F(1), F(1)])
    bad = NaiveRepresentation(g, 2, good.phi, theta)
    report = naive_check(bad)
    assert not report.holds
    assert {w.label for w in report.witnesses} == {"con2"}
    direct = [w.where for w in oracles.naive_check(bad).witnesses if w.label == "hom"]
    assert direct == [w.where for w in report.witnesses]


def test_naive_check_witnesses_grouped_by_label():
    # con2 fails at (0, 0) and (0, 1), and so does the oracle's direct test
    g = l2_algebra()
    bad = NaiveRepresentation(g, 2, adjoint_naive(g).phi, (list(E(2, 0)), [F(1), F(1)]))
    assert [(w.where, w.label) for w in naive_check(bad).witnesses] == [
        ((0, 0), "con2"), ((0, 1), "con2")]
    assert [(w.where, w.label) for w in oracles.naive_check(bad).witnesses
            if w.label == "hom"] == [((0, 0), "hom"), ((0, 1), "hom")]
    # doubling phi on sl2 breaks both component conditions: every con1
    # witness comes before every con2 witness
    rho = adjoint_naive(sl2())
    doubled = NaiveRepresentation(rho.algebra, 3, oracles.scaled(rho.phi, 2), rho.theta)
    report = naive_check(doubled)
    labels = [w.label for w in report.witnesses]
    assert labels == sorted(labels, key=["con1", "con2"].index)
    assert set(labels) == {"con1", "con2"}
    for label in ("con1", "con2"):
        where = [w.where for w in report.witnesses if w.label == label]
        assert where == sorted(where), label
    assert any(w.label == "hom" for w in oracles.naive_check(doubled).witnesses)


def test_trivial_naive_space_values():
    assert trivial_naive_space(LeibnizAlgebra.abelian(3)).dim == 3
    s = trivial_naive_space(l2_algebra())
    assert s.dim == 1
    assert oracles.contains(s, [F(1), F(0)])
    assert trivial_naive_space(sl2()).dim == 0


def test_trivial_naive_rep_rejects_bad_functional():
    with pytest.raises(ValueError):
        trivial_naive_rep(l2_algebra(), [F(0), F(1)])   # does not kill [g,g]


def test_naive_from_rep_targets_matrix_space():
    rho = naive_from_rep(adjoint_rep(l2_algebra()))
    assert rho.vdim == 4
    assert naive_check(rho).holds
    rho3 = naive_from_rep(adjoint_rep(heisenberg3()))
    assert rho3.vdim == 9
    assert naive_check(rho3).holds


def test_naive_from_rep_zero_rep():
    g = l2_algebra()
    rho = naive_from_rep(trivial_rep(g))
    assert rho.vdim == 1
    assert rho._reduced[1] == ()


def test_naive_from_rep_rejects_invalid():
    with pytest.raises(ValueError):
        naive_from_rep(bad_representation())


# ---------------------------------------------------------------------------
# the naive coboundary: two routes

def test_naive_coboundary_agrees_with_image_representation(small_algebras):
    # the literal formula with omni multiplication by rho(e_s) on ambient
    # values, re-expressed in the basis rho(e_J) by a fresh solve, is the
    # coboundary of the image representation, also for a trivial naive map,
    # where rho has a kernel and R is no identity
    rng = random.Random(11)
    kernels = 0
    for name, g in small_algebras.items():
        space = trivial_naive_space(g)
        trivial = [trivial_naive_rep(g, space.basis[0])] if space.dim else []
        for rho in [adjoint_naive(g), naive_from_rep(adjoint_rep(g)), *trivial]:
            rep = image_representation(rho)
            to_ambient = oracles.image_basis(rho)
            n, d, m = g.dim, to_ambient.cols, rho.vdim
            kernels += d < n
            vectors = dense(rho.rho_vectors, (n, rho.ambient_dim))
            for k in range(3):
                coords = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(n ** k)]
                ambient = [oracles.mv(to_ambient, c) for c in coords]
                literal = oracles.coboundary(
                    g, lambda s, v: oracles.omni_bracket(m, vectors[s], v),
                    lambda s, v: oracles.omni_bracket(m, v, vectors[s]),
                    ambient, k, rho.ambient_dim)
                expected = [x for v in literal for x in solve(to_ambient, v)]
                flat = [x for c in coords for x in c]
                assert oracles.mv(coboundary_matrix(rep, k), flat) == expected, (name, k)
                f = to_naive_cochain(rho, [sparse(v, 1) for v in ambient], k)
                assert f == oracles.cochain_tensor(oracles.Cochain(k, n, d, coords))
                assert f.shape == (n,) * k + (d,)
                assert naive_coboundary(rho, f) == to_naive_cochain(
                    rho, [sparse(v, 1) for v in literal], k + 1)
                assert naive_coboundary(rho, f) == coboundary(rep, f)
    assert kernels


def test_image_representation_refuses_a_map_that_is_no_homomorphism():
    # the contractions give the image representation only for a homomorphism;
    # the corrupted theta of L2 fails con2 first at (0, 0)
    g = l2_algebra()
    bad = NaiveRepresentation(g, 2, adjoint_naive(g).phi, (list(E(2, 0)), [F(1), F(1)]))
    first = bad.verdict.witnesses[0]
    assert (first.label, first.where) == ("con2", (0, 0))
    message = "^input is not a naive representation; first witness at \\(0, 0\\)$"
    with pytest.raises(ValueError, match=message):
        image_representation(bad)
    with pytest.raises(ValueError, match=message):
        naive_betti(bad, 1)


def test_naive_betti_path_runs_no_omni_bracket(positive_algebras, capsys):
    # naive_betti, compare_adjoint, compare_trivial and cohomology --naive /
    # --compare, which contract structure constants and have no omni bracket
    # to call, give the Betti numbers of the omni-bracket construction of the
    # image representation
    k_max = 2

    def dims(rep):
        return [d.dim_h for d in betti(rep, k_max).degrees]

    def naive_dims(rho):
        return dims(oracles.image_representation(rho))

    cases = []  # (fixture, --rep, naive representation or None, classical representation)
    for name, g in positive_algebras.items():
        space = trivial_naive_space(g)
        cases.append((name, "trivial", trivial_naive_rep(g, space.basis[0]) if space.dim else None,
                      trivial_rep(g)))
        cases.append((name, "adjoint", adjoint_naive(g), adjoint_rep(g)))
        path = FIXTURES / f"rep_adjoint_{name}.json"
        if path.exists():
            rep = representation_from_json(g, json.loads(path.read_text("utf-8")))
            cases.append((name, str(path), naive_from_rep(rep), rep))
    expected = [(naive_dims(rho) if rho else [0] * (k_max + 1), dims(rep))
                for _, _, rho, rep in cases]

    for (name, rep_arg, rho, _), (naive, classical) in zip(cases, expected, strict=True):
        if rho is not None:
            assert [d.dim_h for d in naive_betti(rho, k_max).degrees] == naive, (name, rep_arg)
        if rep_arg in ("trivial", "adjoint"):
            compare = compare_trivial if rep_arg == "trivial" else compare_adjoint
            report = compare(positive_algebras[name], k_max)
            assert report.side_checks_ok, name
            assert [(r.dim_naive, r.dim_classical) for r in report.rows] == \
                list(zip(naive, classical)), (name, rep_arg)
        argv = ["cohomology", str(FIXTURES / f"{name}.json"), "--rep", rep_arg,
                "--max-degree", str(k_max), "--json"]
        capsys.readouterr()
        main([*argv, "--naive"])
        results = json.loads(capsys.readouterr().out)["results"]
        got = [d["dim_H"] for d in results["naive_betti"]["degrees"]] if rho else None
        assert got == (naive if rho else None), (name, rep_arg)
        if rep_arg in ("trivial", "adjoint"):
            main([*argv, "--compare"])
            rows = json.loads(capsys.readouterr().out)["results"]["comparison"]["degrees"]
            assert [(r["dim_naive"], r["dim_classical"]) for r in rows] == \
                list(zip(naive, classical)), (name, rep_arg)


def test_naive_coboundary_trivial_rep_reduces_to_bracket_sum():
    # for a rank-one image with zero gl part the omni brackets vanish and
    # only the structure-constant sum of the coboundary survives
    for g in (l2_algebra(), heisenberg3()):
        space = trivial_naive_space(g)
        rho = trivial_naive_rep(g, space.basis[0])
        rep = image_representation(rho)
        triv = trivial_rep(g)
        for k in range(3):
            assert coboundary_matrix(rep, k) == coboundary_matrix(triv, k)


def test_naive_cochain_shape_checked():
    rho = adjoint_naive(l2_algebra())
    with pytest.raises(ValueError, match="cochain does not match the representation"):
        naive_coboundary(rho, sparse_tensor({}, (2, 5), "cochain"))
    with pytest.raises(ValueError):
        to_naive_cochain(rho, [rho.rho_vectors[0]] * 3, 2)  # 4 basis tuples


def test_to_naive_cochain_rejects_values_outside_image():
    rho = adjoint_naive(l2_algebra())
    stray = {(0,): F(1)}
    assert solve(oracles.image_basis(rho), oracles.vector(stray, rho.ambient_dim)) is None
    with pytest.raises(ValueError, match="escapes the image"):
        to_naive_cochain(rho, [stray, stray], 1)


def test_naive_betti_of_zero_rep_is_zero():
    g = sl2()
    rho = NaiveRepresentation(g, 1, {}, ([F(0)],) * 3)
    report = naive_betti(rho, 2)
    assert [d.dim_h for d in report.degrees] == [0, 0, 0]


def test_naive_betti_checks_the_cap_before_building_the_image_representation(monkeypatch):
    # heis3 adjoint: the image has dim 3, so degree 2 needs 3^3 * 3 = 81 rows
    rho = adjoint_naive(heisenberg3())
    assert [d.dim_h for d in naive_betti(rho, 2, 81).degrees] == [1, 4, 8]

    def refuse(rho):
        raise RuntimeError("image_representation was built")

    monkeypatch.setattr(omni_module, "image_representation", refuse)
    with pytest.raises(ResourceCapExceeded) as caught:
        naive_betti(rho, 2, 80)
    assert (caught.value.required, caught.value.cap) == (81, 80)
    with pytest.raises(RuntimeError, match="was built"):
        naive_betti(rho, 2, 81)


def test_compare_adjoint_checks_the_cap_before_building_anything(monkeypatch):
    # heis3: the image of the adjoint naive representation has dim 3, so both
    # complexes need 3^3 * 3 = 81 target rows in degree 2
    g = heisenberg3()
    assert compare_adjoint(g, 2, 81).all_equal

    def refuse(*args):
        raise RuntimeError("the adjoint naive side was built")

    monkeypatch.setattr(omni_module, "adjoint_naive", refuse)
    monkeypatch.setattr(omni_module, "image_representation", refuse)
    with pytest.raises(ResourceCapExceeded) as caught:
        compare_adjoint(g, 2, 80)
    assert (caught.value.required, caught.value.cap) == (81, 80)
    with pytest.raises(RuntimeError, match="was built"):
        compare_adjoint(g, 2, 81)


def test_naive_representation_is_a_frozen_value():
    # its fields cannot be changed after it is built, so no check or image
    # goes stale, and it compares and hashes by value
    g = heisenberg3()
    rho = adjoint_naive(g)
    for field, value in (("phi", (oracles.identity(3),) * 3), ("theta", {}), ("vdim", 2),
                         ("_reduced", rho._reduced)):
        with pytest.raises(AttributeError):
            setattr(rho, field, value)
    assert naive_check(rho).holds and rho._reduced[1] == (0, 1, 2)
    assert rho == adjoint_naive(g) and hash(rho) == hash(adjoint_naive(g))
    assert rho != adjoint_naive(l2_algebra())
    assert (rho.ambient_dim, rho.rho_vectors.shape) == (12, (3, 12))


# ---------------------------------------------------------------------------
# the comparison theorems

def test_compare_trivial_small_fixtures(small_algebras):
    for name, g in small_algebras.items():
        report = compare_trivial(g, 3)
        assert report.all_equal, (name, report.rows)


def test_compare_trivial_derived_everything_branch():
    report = compare_trivial(sl2(), 3)
    assert report.all_equal
    assert report.notes  # the zero-complex branch explains itself
    for row in report.rows:
        if row.k >= 1:
            assert row.dim_naive == 0 and row.dim_classical == 0
    # degree 0 is informational: constants survive classically, not naively
    assert report.rows[0].dim_classical == 1
    assert report.rows[0].dim_naive == 0


def test_compare_trivial_choice_independence():
    # two different functionals give the same dimensions
    g = LeibnizAlgebra.abelian(2)
    space = trivial_naive_space(g)
    assert space.dim == 2
    dims = []
    for xi in space.basis:
        rho = trivial_naive_rep(g, xi)
        report = naive_betti(rho, 3)
        dims.append([d.dim_h for d in report.degrees])
    assert dims[0] == dims[1]


def test_compare_adjoint_small_fixtures(small_algebras):
    for name, g in small_algebras.items():
        report = compare_adjoint(g, 2)
        assert report.all_equal, (name, report.rows)
        assert report.side_checks_ok, name


def test_adjoint_correspondence_check_is_not_vacuous():
    # doubling the right, then the left action of the classical side breaks
    # the equality compare_adjoint proves, image representation = adjoint
    # representation, and the oracle's chain-level identity fails on exactly
    # these basis cochains (degree, tuple, value)
    broken = {
        ("L2", "r"): [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0),
                      (2, 3, 0)],
        ("L2", "l"): [(1, 0, 0), (1, 1, 0), (2, 2, 0), (2, 3, 0)],
        ("heis3", "r"): [(0, 0, 0), (0, 0, 1)]
                        + [(1, pos, v) for pos in range(3) for v in range(2)]
                        + [(2, pos, v) for pos in range(9) for v in range(2)],
        ("heis3", "l"): [(1, pos, v) for pos in range(3) for v in range(2)]
                        + [(2, 0, 0), (2, 1, 0), (2, 2, 0), (2, 3, 1), (2, 4, 1), (2, 5, 1),
                           (2, 6, 0), (2, 6, 1), (2, 7, 0), (2, 7, 1), (2, 8, 0), (2, 8, 1)],
    }
    for name, g in (("L2", l2_algebra()), ("heis3", heisenberg3())):
        rho = adjoint_naive(g)
        irep = image_representation(rho)
        arep = adjoint_rep(g)
        assert irep == arep
        assert oracles.verify_adjoint_correspondence(rho, irep, arep, 2) == (True, [])
        doubled = lambda t: oracles.scaled(t, 2)
        for side, bad in (("r", Representation(g, g.dim, arep.l, doubled(arep.r))),
                          ("l", Representation(g, g.dim, doubled(arep.l), arep.r))):
            assert irep != bad, (name, side)
            assert oracles.verify_adjoint_correspondence(rho, irep, bad, 2) == (
                False, [f"correspondence fails on basis cochain "
                        f"(degree {k}, tuple #{pos}, value {v})"
                        for k, pos, v in broken[name, side]]), (name, side)


def test_compare_fails_when_the_image_representation_differs(monkeypatch, capsys):
    # an image representation with the right action dropped, still a
    # representation, breaks the equality: both complexes are ranked, the
    # report says why, and --compare exits 1
    real = omni_module.image_representation

    def without_right_action(rho):
        rep = real(rho)
        return Representation(rep.algebra, rep.vdim, rep.l, {})

    monkeypatch.setattr(omni_module, "image_representation", without_right_action)
    report = compare_adjoint(corpus.algebra("omni2"), 2)
    assert not report.side_checks_ok and len(report.notes) == 1
    argv = ["cohomology", str(FIXTURES / "omni2.json"), "--rep", "adjoint", "--compare",
            "--max-degree", "2"]
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert f"note: {report.notes[0]}" in out
    assert "chain-level correspondence check failed" in out


def test_naive_paths_build_no_ambient_image(monkeypatch, capsys):
    # cohomology --naive and --compare and naive_betti work on the reduction
    # of rho alone, and a naive representation holds no image subspace
    made = []
    real = omni_module.naive_check
    monkeypatch.setattr(omni_module, "naive_check", lambda rho: made.append(rho) or real(rho))
    for rep, mode in (("adjoint", "--naive"), ("trivial", "--naive"), ("adjoint", "--compare"),
                      ("trivial", "--compare"), (str(FIXTURES / "rep_adjoint_L2.json"), "--naive")):
        argv = ["cohomology", str(FIXTURES / "L2.json"), "--rep", rep, mode, "--max-degree", "2"]
        assert main(argv) == 0, (rep, mode, capsys.readouterr())
    rho = adjoint_naive(heisenberg3())
    naive_betti(rho, 2)
    assert len(made) == 6
    assert NaiveRepresentation.__slots__ == ("algebra", "vdim", "phi", "theta", "_reduced",
                                             "_verdict")
    assert not any(hasattr(value, "image") for value in made + [rho])


@pytest.mark.parametrize("k_max", [-1, 0])
def test_vacuous_degrees_are_refused_before_anything_is_built(monkeypatch, k_max):
    # betti and naive_betti start at degree 0, the comparisons at degree 1
    g = l2_algebra()
    rho, phi = adjoint_naive(g), graph_for(g)
    if k_max < 0:
        for call in (lambda: betti(adjoint_rep(g), k_max), lambda: naive_betti(rho, k_max)):
            with pytest.raises(ValueError, match="^degrees start at 0: k_max must be >= 0, got -1$"):
                call()

    def refuse(*args):
        raise RuntimeError("something was built")

    for name in ("betti", "adjoint_naive", "trivial_naive_space", "naive_betti", "adjoint_rep"):
        monkeypatch.setattr(omni_module, name, refuse)
    message = f"^the comparison starts at degree 1: k_max must be >= 1, got {k_max}$"
    for call in (lambda: compare_trivial(g, k_max), lambda: compare_adjoint(g, k_max),
                 lambda: graph_rep_cohomology(tautological_rep(phi), phi, k_max)):
        with pytest.raises(ValueError, match=message):
            call()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["L2", "heis3", "sl2"]), st.data())
def test_compare_adjoint_survives_change_of_basis(name, data):
    g = corpus.algebra(name)
    n = g.dim
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    b = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
                  .filter(lambda rows: rank(oracles.from_rows(rows)) == n))
    report = compare_adjoint(change_basis(g, b), 2)
    assert report.side_checks_ok, (name, b, report.notes[:1])
    assert report.rows == compare_adjoint(g, 2).rows, (name, b)


def test_compare_adjoint_degree0_matches_here():
    # with the literal degree-0 instantiation both complexes agree at 0 too
    report = compare_adjoint(l2_algebra(), 2)
    assert report.rows[0].equal


# ---------------------------------------------------------------------------
# graph representations

def test_graph_rep_cohomology_tautological(monkeypatch):
    # the image representation of a tautological graph equals the induced
    # one, so the comparison proves the chain isomorphism and ranks once
    ranked = []
    monkeypatch.setattr(omni_module, "betti", lambda rep, *args: ranked.append(rep) or
                        betti(rep, *args))
    for g in (l2_algebra(), heisenberg3()):
        phi = graph_for(g)
        rho = tautological_rep(phi)
        ranked.clear()
        report = graph_rep_cohomology(rho, phi, 3 if g.dim == 2 else 2)
        assert report.all_equal, report.rows
        assert report.side_checks_ok and report.notes == (), report.notes
        assert len(ranked) == 1 and ranked[0] == image_representation(rho)


def test_graph_rep_matches_adjoint_actions():
    # the tautological representation of a left-multiplication graph induces
    # exactly the adjoint actions
    g = l2_algebra()
    phi = graph_for(g)
    rho = tautological_rep(phi)
    ad = adjoint_rep(g)
    n = g.dim
    ps, theta = oracles.matrices(phi.phi), dense(rho.theta, (n, n))
    for i in range(n):
        assert oracles.linear_combination(theta[i], ps, (n, n)) == oracles.matrices(ad.l)[i]
        cols = [oracles.mv(ps[a], theta[i]) for a in range(n)]
        assert oracles.from_cols(n, cols) == oracles.matrices(ad.r)[i]


def test_graph_rep_rejects_escaping_image():
    phi = graph_for(l2_algebra())
    g = induced_leibniz(phi)
    # zero gl part but nonzero theta: rho(e_i) is not on the graph
    rho = NaiveRepresentation(g, 2, {},
                              tuple(tuple(E(2, i)) for i in range(2)))
    with pytest.raises(ValueError):
        graph_rep_cohomology(rho, phi, 2)


def test_graph_rep_rejects_bad_graph():
    phi = bad_graph()
    g = l2_algebra()
    rho = NaiveRepresentation(g, 2, {},
                              ([F(0), F(0)],) * 2)
    with pytest.raises(ValueError):
        graph_rep_cohomology(rho, phi, 2)


def test_graph_rep_zero_theta_reduces_to_trivial_branch():
    # theta = 0 forces rho = 0; over sl2 both sides vanish in degrees >= 1
    g = sl2()
    phi = GraphMap(2, {})
    rho = NaiveRepresentation(g, 2, {},
                              ([F(0), F(0)],) * 3)
    report = graph_rep_cohomology(rho, phi, 2)
    assert report.all_equal
    for row in report.rows:
        if row.k >= 1:
            assert row.dim_naive == 0 and row.dim_classical == 0
    # but the image, of dim 0, is no chain-level copy of the induced module
    # of dim 2: the report says so rather than passing the side check
    assert (report.rows[0].dim_naive, report.rows[0].dim_classical) == (0, 2)
    assert report.side_checks_ok is False
    assert report.notes == ("the image representation differs from the classical one, so "
                            "F -> rho o F is no chain map",)


def test_graph_rep_surjective_quotient_theta():
    # heis3 -> Q^2 (kill the center), phi = 0: a non-injective surjective
    # theta; both complexes coincide with the rank-two trivial complex
    g = heisenberg3()
    phi = GraphMap(2, {})
    theta = (E(2, 0), E(2, 1), [F(0), F(0)])
    rho = NaiveRepresentation(g, 2, {}, theta)
    assert naive_check(rho).holds
    assert rho._reduced[1] == (0, 1)
    report = graph_rep_cohomology(rho, phi, 2)
    assert report.all_equal, report.rows


def test_scaled_theta_admissible_only_for_zero_actions():
    # doubling theta on the tautological L2 representation breaks the
    # homomorphism condition (the two sides scale differently) ...
    phi = graph_for(l2_algebra())
    g = induced_leibniz(phi)
    doubled = NaiveRepresentation(g, 2, oracles.scaled(phi.phi, 2),
                                  tuple(tuple(2 * x for x in E(2, i)) for i in range(2)))
    assert not naive_check(doubled).holds
    with pytest.raises(ValueError):
        graph_rep_cohomology(doubled, phi, 2)
    # ... but stays admissible when the graph is zero and theta kills [g,g]
    h = heisenberg3()
    zero_phi = GraphMap(2, {})
    theta = (E(2, 0), E(2, 1), [F(0), F(0)])
    doubled_theta = tuple(tuple(2 * x for x in t) for t in theta)
    rho2 = NaiveRepresentation(h, 2, {}, doubled_theta)
    assert naive_check(rho2).holds
    report = graph_rep_cohomology(rho2, zero_phi, 2)
    assert report.all_equal


def test_naive_paths_are_blocked_by_the_refusal_of_betti(monkeypatch):
    # image_representation does not check its result; betti's refusal does,
    # so a failing representation check stops naive_betti and compare_adjoint
    # with betti's ValueError, and it was handed the image representation
    g = l2_algebra()
    rho = adjoint_naive(g)
    seen = []

    def failing(rep):
        seen.append(rep)
        return IdentityReport(False, (Witness((0, 1), ((F(1),),), "l-of-bracket"),))

    monkeypatch.setattr(cohomology_module, "check_representation", failing)
    message = "^input is not a representation; first witness at \\(0, 1\\)$"
    with pytest.raises(ValueError, match=message):
        naive_betti(rho, 2)
    with pytest.raises(ValueError, match=message):
        compare_adjoint(g, 2)
    assert seen == [image_representation(rho)] * 2


def test_construction_invariants_survive_optimize_flag():
    # python -O strips assert statements; each construction re-checks its
    # result explicitly, so a check forced to fail must still raise
    script = """
import leibniz_kit.algebra as algebra
import leibniz_kit.cohomology as cohomology
import leibniz_kit.lie2 as lie2
import leibniz_kit.omni as omni
from leibniz_kit import IdentityReport, Subspace, adjoint_rep
from leibniz_kit.fixtures import graph_for, heisenberg3, l2_algebra

phi = graph_for(heisenberg3())
failing = lambda *args: IdentityReport(False)
cases = [
    (algebra, "check_leibniz", failing, lambda: omni.induced_leibniz(phi)),
    (algebra, "check_leibniz", failing, lambda: omni.omni_lie(1)),
    (omni, "naive_check", failing, lambda: omni.adjoint_naive(l2_algebra())),
    (omni, "naive_check", failing, lambda: omni.tautological_rep(phi)),
    (omni, "naive_check", failing, lambda: omni.naive_from_rep(adjoint_rep(l2_algebra()))),
    # inputs that pass their checks, and an output check or a left center
    # that goes wrong after them
    (algebra, "check_leibniz", lambda g: IdentityReport(g.dim <= 2),
     lambda: cohomology.semidirect(l2_algebra(), adjoint_rep(l2_algebra()), "lr")),
    (lie2, "left_center", lambda g: Subspace(g.dim, []), lambda: lie2.build_lie2(omni.omni_lie(2))),
]
for module, name, fake, call in cases:
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        call()
    except AssertionError:
        continue
    finally:
        setattr(module, name, real)
    raise SystemExit(f"a failing {name} went unnoticed")
"""
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
