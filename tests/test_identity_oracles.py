"""The identity checks are sparse tensor contractions; these tests hold them
to the literal per-tuple formulas in ``oracles`` on inputs where every term
of every identity is nonzero somewhere, so that a single wrong index in one
contraction spec changes some report."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import change_basis
from leibniz_kit import (
    GraphMap,
    IdentityReport,
    LeibnizAlgebra,
    Lie2Algebra,
    NaiveRepresentation,
    Representation,
    adjoint_naive,
    adjoint_rep,
    build_lie2,
    check_jacobiator_identities,
    check_leibniz,
    check_representation,
    coboundary_columns,
    conjugation_rep,
    derived_subalgebra,
    dual_rep,
    graph_check,
    image_representation,
    is_lie,
    maurer_cartan_check,
    naive_check,
    naive_from_rep,
    omni_lie,
    semidirect,
    skew_bracket,
    square_in_center_check,
    trivial_naive_rep,
    trivial_naive_space,
    trivial_rep,
    verify_lie2,
)
from leibniz_kit import fixtures as corpus
from leibniz_kit.algebra import (
    dense,
    left_multiplication_matrix,
    residual_witnesses,
)
from leibniz_kit.cohomology import maurer_cartan_residual
from leibniz_kit.linalg import Tensor, contract, rank, span_of_rows, sparse, sparse_tensor
from leibniz_kit.serialize import graph_from_json, representation_from_json

F = Fraction


def _random_tensor(rng: random.Random, shape: tuple):
    if not shape:
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    return [_random_tensor(rng, shape[1:]) for _ in range(shape[0])]


def _perturbed_omni2() -> LeibnizAlgebra:
    c = dict(omni_lie(2).c)
    c[0, 1, 2] = c.get((0, 1, 2), 0) + 1
    c[5, 3, 4] = c.get((5, 3, 4), 0) - F(1, 2)
    return LeibnizAlgebra(6, c)


def _corrupted_lie2() -> Lie2Algebra:
    L = build_lie2(omni_lie(2))
    l3, l2_01 = dict(L.l3), dict(L.l2_01)
    l3[0, 1, 5, 0] = l3.get((0, 1, 5, 0), 0) + 1
    l2_01[0, 1, 0] = l2_01.get((0, 1, 0), 0) - F(1, 3)
    return Lie2Algebra(L.dim1, L.dim0, L.l1, L.l2_00, l2_01, l3)


def _random_lie2(seed: int) -> Lie2Algebra:
    rng = random.Random(seed)
    n1, n0 = 2, 3
    return Lie2Algebra(n1, n0, _random_tensor(rng, (n0, n1)),
                       sparse(_random_tensor(rng, (n0, n0, n0)), 3),
                       sparse(_random_tensor(rng, (n0, n1, n1)), 3),
                       sparse(_random_tensor(rng, (n0, n0, n0, n1)), 4))


def _algebras(dense_rational_algebras) -> dict:
    out = {name: corpus.algebra(name)
           for name in corpus.positive_algebra_names() + corpus.negative_algebra_names()}
    out.update({f"dense-{name}": g for name, g in dense_rational_algebras.items()})
    out["perturbed-omni2"] = _perturbed_omni2()
    out["random-3"] = LeibnizAlgebra(3, sparse(_random_tensor(random.Random(7), (3, 3, 3)), 3))
    return out


def assert_same_witnesses(new, old):
    """Same witnesses as the oracle, grouped by label in the oracle's label
    order and sorted by where within each label."""
    labels = list(dict.fromkeys(w.label for w in old.witnesses))
    expected = sorted(old.witnesses, key=lambda w: (labels.index(w.label), w.where))
    assert new.witnesses == tuple(expected)


def test_identity_checks_match_oracles(dense_rational_algebras):
    for name, g in _algebras(dense_rational_algebras).items():
        for check, oracle in ((check_leibniz, oracles.check_leibniz),
                              (square_in_center_check, oracles.square_in_center_check),
                              (check_jacobiator_identities,
                               oracles.check_jacobiator_identities)):
            new, old = check(g), oracle(g)
            assert new.holds == old.holds, (name, check.__name__)
            assert_same_witnesses(new, old)


def test_nonleibniz_inputs_fail_every_jacobiator_identity(dense_rational_algebras):
    # these inputs make the differential test above exercise every label
    for name in ("perturbed-omni2", "random-3"):
        g = _algebras(dense_rational_algebras)[name]
        labels = {w.label for w in check_jacobiator_identities(g).witnesses}
        assert labels == {"direct-vs-closed", "antisymmetry", "center", "ten-term"}, name


def test_lie2_construction_and_axioms_match_oracles(positive_algebras,
                                                    dense_rational_algebras):
    for name, g in {**positive_algebras, **dense_rational_algebras}.items():
        L = build_lie2(g)
        assert L == oracles.build_lie2(g), name
        new, old = verify_lie2(L), oracles.verify_lie2(L)
        assert new == old and new.holds, name
        assert oracles.check_lie2_structure(L).holds, name


@pytest.mark.parametrize("make", [_corrupted_lie2, lambda: _random_lie2(11)])
def test_broken_lie2_matches_oracles(make):
    L = make()
    new, old = verify_lie2(L), oracles.verify_lie2(L)
    assert oracles.axiom_verdicts(new) == oracles.axiom_verdicts(old)
    assert not new.holds
    assert_same_witnesses(new, old)
    assert [w.label for w in new.witnesses] == sorted(w.label for w in new.witnesses)


def test_random_lie2_fails_every_axiom():
    assert not any(oracles.axiom_verdicts(verify_lie2(_random_lie2(11))).values())


def test_corrupted_lie2_keeps_axiom_b():
    # (b) reads l2_01 only on the center, which the corruption misses
    report = verify_lie2(_corrupted_lie2())
    assert isinstance(report, IdentityReport)
    assert {w.label for w in report.witnesses} == {"a", "c", "d", "e"}
    assert oracles.axiom_verdicts(report) == {"a": False, "b": True, "c": False, "d": False,
                                              "e": False}


def test_build_lie2_rejects_non_leibniz_like_oracle():
    g = _perturbed_omni2()
    with pytest.raises(ValueError, match="^input is not a Leibniz algebra; first witness at "
                                         "\\(0, 1, 0\\)$"):
        build_lie2(g)
    with pytest.raises(ValueError):
        oracles.build_lie2(g)


def test_contract_matrix_product_and_transpose():
    a = sparse([[1, 2], [0, 3]], 2)
    b = sparse([[F(1, 2), 0], [1, -1]], 2)
    assert contract([(1, "ij,jk->ik", a, b)]) == {(0, 0): F(5, 2), (0, 1): -2,
                                                 (1, 0): 3, (1, 1): -3}
    assert contract([(2, "ji->ij", a)]) == {(0, 0): 2, (1, 0): 4, (1, 1): 6}
    assert contract([(1, "ij->ij", a), (-1, "ij->ij", a)]) == {}
    assert contract([(F(1, 3), "ij,jk->ik", b, b)]) == {(0, 0): F(1, 12), (1, 0): F(-1, 6),
                                                      (1, 1): F(1, 3)}


def test_contract_sums_letters_missing_from_the_output():
    a = sparse([[1, 2], [3, 4]], 2)
    assert contract([(1, "ij->i", a)]) == {(0,): 3, (1,): 7}
    assert contract([(1, "i,j->ij", {(0,): 2}, {(1,): 5})]) == {(0, 1): 10}


@pytest.mark.parametrize("spec, operands", [("ij,jk->il", 2), ("ii->i", 1),
                                             ("ij,jk,kl->il", 3), ("ij->ij", 2)])
def test_contract_rejects_bad_specs(spec, operands):
    with pytest.raises(ValueError):
        contract([(1, spec, *[{}] * operands)])


def test_residual_witnesses_group_by_prefix_in_order():
    residual = {(1, 0, 1): F(2), (0, 2, 0): F(-1), (1, 0, 0): F(0), (0, 2, 1): F(3)}
    found = residual_witnesses(residual, 2, "x")
    assert [(w.where, w.defect) for w in found] == [((0, 2), (-1, 3)), ((1, 0), (0, 2))]


def test_sparse_and_dense_round_trip():
    t = _random_tensor(random.Random(3), (2, 3, 2))
    assert dense(sparse(t, 3), (2, 3, 2)) == tuple(tuple(map(tuple, p)) for p in t)


# The tensor fields of each value type that holds maps, with their shapes.
TENSOR_FIELDS = {
    Lie2Algebra: lambda L: {"l1": (L.dim0, L.dim1)},
    GraphMap: lambda phi: {"phi": (phi.vdim,) * 3},
    NaiveRepresentation: lambda rho: {"phi": (rho.algebra.dim, rho.vdim, rho.vdim),
                                      "theta": (rho.algebra.dim, rho.vdim)},
    Representation: lambda rep: dict.fromkeys("lr", (rep.algebra.dim, rep.vdim, rep.vdim)),
}


def _assert_tensor_fields_are_canonical(value) -> None:
    """Each field is a read-only sparse tensor of its shape, with nonzero
    Fraction entries in lexicographic order, and the value is rebuilt from
    the dense form of its fields."""
    shapes = TENSOR_FIELDS[type(value)](value)
    for name, shape in shapes.items():
        t = getattr(value, name)
        assert type(t) is Tensor and t.shape == shape, name
        assert list(t.keys()) == sorted(t.keys()), name
        assert all(type(v) is Fraction and v for v in t.values()), name
    fields = {name: (dense(getattr(value, name), shapes[name]) if name in shapes
                     else getattr(value, name)) for name in value._fields()}
    assert type(value)(**fields) == value


def test_tensor_fields_are_canonical_on_the_corpus(positive_algebras, small_algebras,
                                                   dense_rational_algebras):
    values = [build_lie2(g) for g in {**positive_algebras, **dense_rational_algebras}.values()]
    values += [_random_lie2(11), _corrupted_lie2()]
    values += _graphs(dense_rational_algebras).values()
    values += _naive_representations(small_algebras, dense_rational_algebras).values()
    values += _valid_representations(dense_rational_algebras).values()
    values += _broken_representations(dense_rational_algebras).values()
    assert {type(v) for v in values} == set(TENSOR_FIELDS)
    for value in values:
        _assert_tensor_fields_are_canonical(value)
    # every field is nonempty somewhere, so no check is vacuous
    for kind, fields in (("Lie2Algebra", "l1"), ("GraphMap", "phi"),
                         ("NaiveRepresentation", "phi theta"), ("Representation", "l r")):
        for name in fields.split():
            assert any(getattr(v, name) for v in values if type(v).__name__ == kind), name


def test_conjugation_rep_matches_oracle(positive_algebras):
    for name, g in positive_algebras.items():
        for rep in (trivial_rep(g), _left_only(adjoint_rep(g))):
            assert conjugation_rep(rep) == oracles.conjugation_rep(rep), name


def _rational_entries(shape: tuple):
    """Up to 12 entries {index tuple: rational} of a tensor of the given
    shape, each with denominator at most 3; explicit zeros included."""
    if not all(shape):
        return st.just({})
    keys = st.tuples(*(st.integers(0, d - 1) for d in shape))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(keys, values, max_size=12)


def _rational_tensors(shape: tuple):
    """The dense tensors of ``_rational_entries``: zero where nothing is drawn."""
    return _rational_entries(shape).map(lambda t: dense(t, shape))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_forms_match_dense_walks(data):
    # any structure tensor and any actions, Leibniz or not: the forms the
    # constructors derive, everything read off them, and the coboundary
    # columns against the entry-by-entry definitions
    n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
    c = data.draw(_rational_entries((n, n, n)))
    g = LeibnizAlgebra(n, c)
    l, r = (data.draw(_rational_tensors((n, m, m))) for _ in range(2))
    rep = Representation(g, m, l, r)
    assert g.c == {key: v for key, v in c.items() if v} and list(g.c.keys()) == sorted(g.c.keys())
    assert (rep.l, rep.r) == (sparse(l, 3), sparse(r, 3))
    n1 = data.draw(st.integers(0, 2))
    L = Lie2Algebra(n1, n, data.draw(_rational_tensors((n, n1))),
                    *(data.draw(_rational_entries(shape))
                      for shape in ((n, n, n), (n, n1, n1), (n, n, n, n1))))
    phi = GraphMap(m, data.draw(_rational_tensors((m, m, m))))
    rho = NaiveRepresentation(g, m, l, data.draw(_rational_tensors((n, m))))
    for value in (L, phi, rho, rep):
        _assert_tensor_fields_are_canonical(value)
    left = Representation(g, m, l, {})
    assert conjugation_rep(left) == oracles.conjugation_rep(left)
    assert adjoint_rep(g) == oracles.adjoint_rep(g)
    assert oracles.matrix(left_multiplication_matrix(g)) == oracles.left_multiplication_matrix(g)
    assert is_lie(g) == oracles.is_lie(g)
    assert dense(skew_bracket(g), (n,) * 3) == oracles.skew_bracket(g)
    planes = dense(g.c, (n,) * 3)
    assert derived_subalgebra(g) == span_of_rows(n, (row for plane in planes for row in plane))
    entries = list(g.c.values())
    entries += [*rep.l.values(), *rep.r.values()]
    for k in (0, 1):
        den, columns = coboundary_columns(rep, k)
        assert den == lcm(*(x.denominator for x in entries))
        assert len(columns) == n ** k * m
        for j, column in enumerate(columns):
            values = [[0] * m for _ in range(n ** k)]
            values[j // m][j % m] = 1  # the basis cochain of column j
            ls, rs = oracles.matrices(rep.l), oracles.matrices(rep.r)
            literal = oracles.coboundary(g, lambda s, v: oracles.mv(ls[s], v),
                                         lambda s, v: oracles.mv(rs[s], v), values, k, m)
            flat = [x for v in literal for x in v]
            assert column == {row: den * x for row, x in enumerate(flat) if x}, (k, j)


# ---------------------------------------------------------------------------
# representations and the Maurer-Cartan identity

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_representations() -> dict:
    """Every representation file in fixtures/, over the algebra its name ends in."""
    out = {}
    for path in sorted(FIXTURES.glob("rep_*.json")):
        g = corpus.algebra(path.stem.rsplit("_", 1)[1])
        out[path.stem] = representation_from_json(g, json.loads(path.read_text("utf-8")))
    return out


def _left_only(rep: Representation) -> Representation:
    return Representation(rep.algebra, rep.vdim, rep.l, {})


def _valid_representations(dense_rational_algebras) -> dict:
    out = {name: rep for name, rep in _fixture_representations().items()
           if "bad" not in name}
    for name, g in {**{n: corpus.algebra(n) for n in ("L2", "heis3", "sl2", "omni1")},
                    **{f"dense-{n}": g for n, g in dense_rational_algebras.items()}}.items():
        out[f"{name}/trivial"] = trivial_rep(g)
        out[f"{name}/adjoint"] = adjoint_rep(g)
        left = _left_only(adjoint_rep(g))
        out[f"{name}/dual"] = dual_rep(left)
        out[f"{name}/conjugation"] = conjugation_rep(left)
    return out


def _random_matrices(rng: random.Random, count: int, m: int) -> list:
    """``count`` random m x m matrices as dense nested lists."""
    return [_random_tensor(rng, (m, m)) for _ in range(count)]


def _broken_representations(dense_rational_algebras) -> dict:
    sl2 = corpus.algebra("sl2")
    ad = adjoint_rep(sl2)
    dense_heis = adjoint_rep(dense_rational_algebras["heis3"])
    rng = random.Random(5)
    nudged_r = dict(dense_heis.r)
    for (a, b), x in sparse(_random_tensor(rng, (3, 3)), 2).items():
        nudged_r[1, a, b] = nudged_r.get((1, a, b), 0) + x
    out = {"rep_bad_L2": _fixture_representations()["rep_bad_L2"],
           "sl2/doubled-l": Representation(sl2, 3, oracles.scaled(ad.l, 2), ad.r),
           "sl2/negated-r": Representation(sl2, 3, ad.l, oracles.scaled(ad.r, -1)),
           "dense-heis3/nudged-r": Representation(dense_heis.algebra, 3, dense_heis.l,
                                                  nudged_r)}
    for seed in range(3):
        rng = random.Random(seed)
        g = corpus.algebra("heis3")
        out[f"heis3/random-{seed}"] = Representation(
            g, 2, _random_matrices(rng, 3, 2), _random_matrices(rng, 3, 2))
    return out


def test_check_representation_matches_oracle(dense_rational_algebras):
    cases = {**_valid_representations(dense_rational_algebras),
             **_broken_representations(dense_rational_algebras)}
    for name, rep in cases.items():
        new, old = check_representation(rep), oracles.check_representation(rep)
        assert new.holds == old.holds, name
        assert new.witnesses == old.witnesses, name


def test_broken_representations_fail_every_condition(dense_rational_algebras):
    # these inputs make the differential test above exercise every label
    labels = set()
    for name, rep in _broken_representations(dense_rational_algebras).items():
        report = check_representation(rep)
        assert not report.holds, name
        labels |= {w.label for w in report.witnesses}
    assert labels == {"l-of-bracket", "r-of-bracket", "r-absorbs-l"}
    random_labels = {w.label for w in check_representation(
        _broken_representations(dense_rational_algebras)["heis3/random-0"]).witnesses}
    assert random_labels == labels


def _outcome(check, rep):
    try:
        report = check(rep.algebra, rep)
    except ValueError as exc:
        return "refused", str(exc)
    return report.holds, report.witnesses


def test_maurer_cartan_check_matches_oracle(dense_rational_algebras):
    # through the public function the identity holds on every valid
    # representation, and a broken one is refused when its semidirect
    # product is built; the residual itself is compared on random cochains
    # below
    cases = {**_valid_representations(dense_rational_algebras),
             **_broken_representations(dense_rational_algebras)}
    outcomes = set()
    for name, rep in cases.items():
        if rep.algebra.dim + rep.vdim > 8:
            continue  # the dense oracle walks every triple of the semidirect basis
        new = _outcome(maurer_cartan_check, rep)
        assert new == _outcome(oracles.maurer_cartan_check, rep), name
        outcomes.add(new[0])
    assert outcomes == {True, "refused"}


def _random_sparse_cochain(rng: random.Random, total: int, count: int) -> dict:
    return {(rng.randrange(total), rng.randrange(total), rng.randrange(total)):
            F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(count)}


@pytest.mark.parametrize("seed", range(6))
def test_maurer_cartan_residual_matches_oracle_on_random_cochains(seed):
    # a valid representation cannot fail the identity, so the residual is
    # fed random cochains r over the half-product of heis3 or L2 directly
    rng = random.Random(seed)
    g = corpus.algebra("heis3" if seed % 2 else "L2")
    h = semidirect(g, adjoint_rep(g), "l0")
    total = h.dim
    r = sparse_tensor(_random_sparse_cochain(rng, total, 4 + seed), (total,) * 3, "cochain")
    new = residual_witnesses(maurer_cartan_residual(h, r), total, "maurer-cartan")
    planes = dense(r, (total,) * 3)
    cochain = oracles.Cochain(2, total, total, tuple(row for plane in planes for row in plane))
    old = oracles.maurer_cartan_witnesses(oracles.maurer_cartan_defect(h, cochain))
    assert new, seed
    assert new == old, seed


# ---------------------------------------------------------------------------
# graphs, naive representations and the adjoint correspondence

def _graphs(dense_rational_algebras) -> dict:
    out = {path.stem: graph_from_json(json.loads(path.read_text("utf-8")))
           for path in sorted(FIXTURES.glob("graph_*.json"))}
    out["sl2"] = corpus.graph_for(corpus.algebra("sl2"))
    for name, g in dense_rational_algebras.items():
        out[f"dense-{name}"] = corpus.graph_for(g)
    for seed in range(4):
        rng = random.Random(seed)
        m = 2 + seed % 2
        out[f"random-{seed}"] = GraphMap(m, _random_matrices(rng, m, m))
    return out


def test_graph_check_matches_oracle(dense_rational_algebras):
    outcomes = set()
    for name, phi in _graphs(dense_rational_algebras).items():
        new, old = graph_check(phi), oracles.graph_check(phi)
        assert new.holds == old.holds, name
        assert new.witnesses == old.witnesses, name
        outcomes.add(new.holds)
    assert outcomes == {True, False}


def _scaled_phi(rho: NaiveRepresentation, factor) -> NaiveRepresentation:
    return NaiveRepresentation(rho.algebra, rho.vdim, oracles.scaled(rho.phi, factor),
                               rho.theta)


def _naive_representations(small_algebras, dense_rational_algebras) -> dict:
    out = {}
    for name, g in {**small_algebras,
                    **{f"dense-{n}": g for n, g in dense_rational_algebras.items()}}.items():
        out[f"{name}/adjoint"] = adjoint_naive(g)
        out[f"{name}/from-adjoint-rep"] = naive_from_rep(adjoint_rep(g))
        out[f"{name}/doubled-phi"] = _scaled_phi(out[f"{name}/adjoint"], 2)
    for seed in range(4):
        rng = random.Random(seed)
        g = corpus.algebra("heis3" if seed % 2 else "L2")
        m = 2 + seed // 2
        out[f"random-{seed}"] = NaiveRepresentation(
            g, m, _random_matrices(rng, g.dim, m), _random_tensor(rng, (g.dim, m)))
    return out


def test_naive_check_matches_oracle(small_algebras, dense_rational_algebras):
    # the library proves the homomorphism by con1 and con2 alone; the
    # oracle's direct route against the omni bracket (hom) must fail on
    # exactly the same representations
    labels = set()
    outcomes = set()
    for name, rho in _naive_representations(small_algebras, dense_rational_algebras).items():
        new, old = naive_check(rho), oracles.naive_check(rho)
        assert new.holds == old.holds, name
        assert new.witnesses == tuple(w for w in old.witnesses if w.label != "hom"), name
        assert new.holds == (not any(w.label == "hom" for w in old.witnesses)), name
        labels |= {w.label for w in old.witnesses}
        if name.startswith("random-"):
            outcomes.add(new.holds)
    # every term of both component conditions is exercised, and the direct
    # route too; the seeded random maps include failing ones
    assert labels == {"con1", "con2", "hom"}
    assert False in outcomes


def _valid_naive_representations(positive_algebras, dense_rational_algebras) -> dict:
    out = {}
    for name, g in {**positive_algebras,
                    **{f"dense-{n}": g for n, g in dense_rational_algebras.items()}}.items():
        out[f"{name}/adjoint"] = adjoint_naive(g)
        out[f"{name}/from-adjoint-rep"] = naive_from_rep(adjoint_rep(g))
        for u, xi in enumerate(trivial_naive_space(g).basis):
            out[f"{name}/trivial-{u}"] = trivial_naive_rep(g, xi)
    # seeded random: a random basis of a fixture, its left action with theta
    # a random multiple of the identity (zero gives the quotient by the left
    # center), and a random functional killing [g, g]
    names = ("L2", "heis3", "sl2", "abelian2")
    for seed in range(8):
        rng = random.Random(seed)
        g = corpus.algebra(names[seed % len(names)])
        n = g.dim
        while True:
            b = _random_matrices(rng, 1, n)[0]
            if rank(oracles.from_rows(b)) == n:
                break
        g = change_basis(g, b)
        s = rng.choice((0, F(rng.randint(-3, 3), rng.randint(1, 3))))
        rho = NaiveRepresentation(g, n, adjoint_rep(g).l, {(i, i): s for i in range(n)})
        assert naive_check(rho).holds, seed
        out[f"random-{seed}/adjoint-theta-{s}"] = rho
        space = trivial_naive_space(g)
        if space.dim:
            xi = contract([(1, "u,ua->a", sparse(_random_tensor(rng, (space.dim,)), 1),
                            space.basis)])
            out[f"random-{seed}/trivial"] = trivial_naive_rep(g, xi)
    return out


def test_image_representation_matches_oracle(positive_algebras, dense_rational_algebras):
    # the two contractions B c S give the tensors of the omni brackets,
    # also where rho has a kernel
    kernels = 0
    for name, rho in _valid_naive_representations(positive_algebras,
                                                   dense_rational_algebras).items():
        assert image_representation(rho) == oracles.image_representation(rho), name
        kernels += len(rho._reduced[1]) < rho.algebra.dim
    assert kernels


def test_naive_reduction_writes_rho_in_the_image_basis(small_algebras, positive_algebras,
                                                       dense_rational_algebras):
    # (R, J), the reduced rows of v -> rho(e_v): rho(e_v) = sum_a R[a, v]
    # rho(e_(J_a)), and the rho(e_J) are independent, also where rho has a
    # kernel and where rho is no homomorphism
    maps = {**_naive_representations(small_algebras, dense_rational_algebras),
            **_valid_naive_representations(positive_algebras, dense_rational_algebras)}
    kernels = 0
    for name, rho in maps.items():
        R, J = rho._reduced
        vectors = rho.rho_vectors
        basis = {(a, *key): x for a, j in enumerate(J) for key, x in vectors[j].items()}
        assert contract([(1, "av,ap->vp", R, basis)]) == vectors, name
        assert rank(oracles.from_rows(dense(basis, (len(J), rho.ambient_dim)))
                    if J else oracles.zeros(0, 0)) == len(J), name
        kernels += len(J) < rho.algebra.dim
    assert kernels


def test_adjoint_correspondence_matches_oracle(dense_rational_algebras):
    # the equality compare_adjoint proves, image representation = classical
    # representation, holds exactly where the oracle's chain-level identity
    # does; the classical side with one action scaled by 3/2 breaks both
    for name, g in dense_rational_algebras.items():
        rho = adjoint_naive(g)
        irep = image_representation(rho)
        arep = adjoint_rep(g)
        scaled = lambda t: oracles.scaled(t, F(3, 2))
        for side, rep in (("none", arep),
                          ("l", Representation(g, g.dim, scaled(arep.l), arep.r)),
                          ("r", Representation(g, g.dim, arep.l, scaled(arep.r)))):
            ok = oracles.verify_adjoint_correspondence(rho, irep, rep, 2)[0]
            assert (irep == rep) == ok == (side == "none"), (name, side)
