"""The validated value types: equality and hash by value, no assignment to a
field, and the shape checks of each constructor, also under ``python -O``;
the read-only sparse tensors stored in ``LeibnizAlgebra``, ``Lie2Algebra``,
``Representation``, ``GraphMap`` and ``NaiveRepresentation``, and the
cochains the library returns; and the start-up cost they keep out of every command."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_kit import (
    GraphMap,
    IdentityReport,
    LeibnizAlgebra,
    Lie2Algebra,
    NaiveRepresentation,
    Representation,
    Subspace,
    Witness,
    check_leibniz,
    check_representation,
    coboundary_columns,
    graph_check,
    naive_check,
    omni_lie,
    skew_bracket,
    right_action_cochain,
    semidirect,
    to_naive_cochain,
    trivial_naive_rep,
    trivial_rep,
)
from leibniz_kit import fixtures
from leibniz_kit.algebra import dense
from leibniz_kit.lie2 import _jacobiator
from leibniz_kit.linalg import Matrix, Tensor, as_rational, span_of_rows, sparse_tensor

Z2 = [[0, 0], [0, 0]]
I2 = [[1, 0], [0, 1]]


def _l2(c01="1"):
    return LeibnizAlgebra(2, {(0, 0, 0): "0", (0, 0, 1): c01})


def _lie2(dim1=1, dim0=2, **changes):
    fields = {"l1": {}, "l2_00": {}, "l2_01": {}, "l3": {}}
    fields.update(changes)
    return Lie2Algebra(dim1, dim0, **fields)


# Each builder makes one value from the given variant; variant 0 and 1 are
# equal values built from different inputs (lists or tuples, ints or
# strings, explicit zeros or none), variant 2 is a different value.
BUILDERS = {
    "LeibnizAlgebra": lambda v: [_l2(), LeibnizAlgebra(2, {(0, 0, 1): F(1)}), _l2("2")][v],
    "Representation": lambda v: Representation(_l2(), 2, [Z2, Z2] if v == 0 else {},
                                               (Z2, Z2 if v < 2 else I2)),
    "Subspace": lambda v: Subspace(2, ((F(1), F(0)),) if v == 0 else [{(0,): 1, (1,): v // 2}]),
    "GraphMap": lambda v: GraphMap(2, [Z2, Z2] if v == 0
                                   else {(1, 1, 1): 0} if v == 1 else {(1, 0, 0): 1, (1, 1, 1): 1}),
    "Lie2Algebra": lambda v: _lie2(l2_01={(0, 0, 0): "0", (1, 0, 0): "0"} if v == 0
                                   else {(1, 0, 0): v // 2}),
    "NaiveRepresentation": lambda v: NaiveRepresentation(
        _l2(), 2, [Z2, Z2] if v == 0 else {(0, 1, 0): "0"},
        [["1", 0], [0, 0]] if v < 2 else {(0, 0): 1, (1, 1): F(1, 2)}),
}

FIELDS = {"LeibnizAlgebra": "c", "Representation": "l", "Subspace": "basis", "GraphMap": "phi", "Lie2Algebra": "l3",
          "NaiveRepresentation": "phi"}

# The slots holding forms derived from the fields: the key columns of a
# subspace and the reduction of a naive representation, which the
# constructor derives, and the report of each checked type's identity and the
# lie2 forms of an algebra, which are derived on first use.  Every tensor is
# stored once, as its field.
DERIVED = {"Subspace": ("_keys",),
           "NaiveRepresentation": ("_reduced", "_verdict"),
           "LeibnizAlgebra": ("_verdict", "_skew", "_jacobiator"),
           "Representation": ("_verdict",), "GraphMap": ("_verdict",)}

# What derives each slot filled on first use, by type and slot.
ON_FIRST_USE = {("LeibnizAlgebra", "_verdict"): check_leibniz,
                ("LeibnizAlgebra", "_skew"): skew_bracket,
                ("LeibnizAlgebra", "_jacobiator"): _jacobiator,
                ("Representation", "_verdict"): check_representation,
                ("GraphMap", "_verdict"): graph_check,
                ("NaiveRepresentation", "_verdict"): naive_check}


def _derived_form(value, slot):
    """The form in a derived slot, derived first if it is filled on first use."""
    return value._derived(slot, ON_FIRST_USE.get((type(value).__name__, slot)))


def _with_bogus_derived_forms(name):
    """Variant 0 built again, with something else in its derived slots."""
    twin = BUILDERS[name](0)
    for slot in DERIVED.get(name, ()):
        object.__setattr__(twin, slot, {"bogus": slot})
    return twin


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_values_compare_equal_and_hash_alike(name):
    a, b, other = (BUILDERS[name](v) for v in range(3))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2
    assert a != (a,) and (a == object()) is False
    # derived forms are not part of equality, hash or repr
    bogus = _with_bogus_derived_forms(name)
    assert bogus == a and hash(bogus) == hash(a) and repr(bogus) == repr(a)
    assert not any(f"{slot}=" in repr(a) for slot in DERIVED.get(name, ()))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = BUILDERS[name](0)
    field = FIELDS[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == BUILDERS[name](1)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_copies_and_pickles_are_equal_values(name):
    value = BUILDERS[name](0)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
        for slot in DERIVED.get(name, ()):
            assert _derived_form(twin, slot) == _derived_form(value, slot)
    # a pickle holds the fields only; the derived forms are derived again
    assert pickle.dumps(_with_bogus_derived_forms(name)) == pickle.dumps(value)
    for slot in DERIVED.get(name, ()):
        assert _derived_form(copy.copy(_with_bogus_derived_forms(name)), slot) != {"bogus": slot}


def test_repr_names_every_field():
    assert (repr(Subspace(1, ((F(1),),)))
            == "Subspace(ambient_dim=1, basis={(0, 0): Fraction(1, 1)})")


# (constructor call, the ValueError message it must raise)
WRONG_SHAPES = [
    (lambda: LeibnizAlgebra(2, [[["0", "0"]]]),
     "structure tensor: an axis of length 1, expected 2"),
    (lambda: LeibnizAlgebra(1, [[["0", "0"]]]),
     "structure tensor: an axis of length 2, expected 1"),
    (lambda: Representation(_l2(), 2, (Z2,), (Z2, Z2)),
     "left action: an axis of length 1, expected 2"),
    (lambda: Representation(_l2(), 2, (Z2, Z2), (Z2,)),
     "right action: an axis of length 1, expected 2"),
    (lambda: Representation(_l2(), 2, (Z2, [[0]]), (Z2, Z2)),
     "left action: an axis of length 1, expected 2"),
    (lambda: Representation(_l2(), 2, (Z2, Z2), (Z2, [[0], [0]])),
     "right action: an axis of length 1, expected 2"),
    # a cochain is a tensor of shape (n,)*k + (m,), built by sparse_tensor
    (lambda: sparse_tensor([[[0]] * 2] * 3, (2, 2, 1), "cochain"),
     "cochain: an axis of length 3, expected 2"),
    (lambda: sparse_tensor([[0, 0], [0]], (2, 2), "cochain"),
     "cochain: an axis of length 1, expected 2"),
    (lambda: Subspace(2, ((F(1),),)), "basis vector: an axis of length 1, expected 2"),
    (lambda: Subspace(2, ((F(1), F(2)), (F(2), F(4)))),
     "basis vector 0 has no key column: the basis is not in reduced form"),
    (lambda: GraphMap(2, (Z2,)), "graph map: an axis of length 1, expected 2"),
    (lambda: GraphMap(2, (Z2, [[0] * 3] * 2)), "graph map: an axis of length 3, expected 2"),
    (lambda: _lie2(l1=[[0, 0]]), "l1: an axis of length 1, expected 2"),
    (lambda: _lie2(l2_00=[[[0] * 2] * 2]), "l2_00: an axis of length 1, expected 2"),
    (lambda: _lie2(l2_01=()), "l2_01: an axis of length 0, expected 2"),
    (lambda: _lie2(l2_01=[[[0, 0]]] * 2), "l2_01: an axis of length 2, expected 1"),
    (lambda: _lie2(l3=[[[[0]] * 2] * 2] * 3), "l3: an axis of length 3, expected 2"),
    # the sparse form: a key out of range, of the wrong arity or no tuple of ints
    (lambda: LeibnizAlgebra(2, {(0, 2, 0): 1}),
     "structure tensor: key (0, 2, 0) is no index of shape (2, 2, 2)"),
    (lambda: LeibnizAlgebra(1, {(0, 0): 1}),
     "structure tensor: key (0, 0) is no index of shape (1, 1, 1)"),
    (lambda: _lie2(l2_00={(0, 0, -1): 1}),
     "l2_00: key (0, 0, -1) is no index of shape (2, 2, 2)"),
    (lambda: _lie2(l2_01={(2, 0, 0): 0}), "l2_01: key (2, 0, 0) is no index of shape (2, 1, 1)"),
    (lambda: _lie2(l2_01={(0, 0, 0, 0): 1}),
     "l2_01: key (0, 0, 0, 0) is no index of shape (2, 1, 1)"),
    (lambda: _lie2(l3={(0, 0, 0, 1): 1}), "l3: key (0, 0, 0, 1) is no index of shape (2, 2, 2, 1)"),
    (lambda: LeibnizAlgebra(1, {0: 1}), "structure tensor: key 0 is no index of shape (1, 1, 1)"),
    (lambda: LeibnizAlgebra(2, {(0, "1", 0): 1}),
     "structure tensor: key (0, '1', 0) is no index of shape (2, 2, 2)"),
    (lambda: LeibnizAlgebra(2, {(True, 0, 1): 1}),
     "structure tensor: key (True, 0, 1) is no index of shape (2, 2, 2)"),
    (lambda: trivial_naive_rep(_l2(), {(False,): 1}), "functional: key (False,) is no index of shape (2,)"),
    # the actions: every field of every value type goes through one check
    (lambda: Representation(_l2(), 2, {(2, 0, 0): 1}, {}),
     "left action: key (2, 0, 0) is no index of shape (2, 2, 2)"),
    (lambda: GraphMap(1, {(0, 0): 1}), "graph map: key (0, 0) is no index of shape (1, 1, 1)"),
    (lambda: _lie2(l1={(0, 1): 1}), "l1: key (0, 1) is no index of shape (2, 1)"),
    (lambda: NaiveRepresentation(_l2(), 2, [Z2], [[0, 0]] * 2),
     "phi: an axis of length 1, expected 2"),
    (lambda: NaiveRepresentation(_l2(), 2, {}, [[0, 0, 0]] * 2),
     "theta: an axis of length 3, expected 2"),
    (lambda: NaiveRepresentation(_l2(), 1, {(0, 0, 1): 1}, {}),
     "phi: key (0, 0, 1) is no index of shape (2, 1, 1)"),
    # a sparse vector {(a,): x}: a key out of range, negative or no 1-tuple,
    # at every entry point that takes one
    *[(lambda key=key, call=call: call({key: 1}), f"{what}: key {key!r} is no index of shape {shape}")
      for call, what, shape in (
          (lambda v: Subspace(2, [v]), "basis vector", (2,)),
          (lambda v: BUILDERS["Subspace"](2).coordinates_of(v), "vector", (2,)),
          (lambda v: span_of_rows(2, [{(0,): 1}, v]), "vector", (2,)),
          (lambda v: trivial_naive_rep(_l2(), v), "functional", (2,)),
          (lambda v: to_naive_cochain(BUILDERS["NaiveRepresentation"](2), [v], 0), "vector", (6,)))
      for key in ((shape[0],), (-1,), (0, 0))],
    # a hand-built Tensor of the right shape is checked like any other mapping
    (lambda: LeibnizAlgebra(2, Tensor((2, 2, 2), {(0, 0, 5): 1})),
     "structure tensor: key (0, 0, 5) is no index of shape (2, 2, 2)"),
    (lambda: Subspace(2, [Tensor((2,), {(-1,): 1})]), "basis vector: key (-1,) is no index of shape (2,)"),
    # a size is an int >= 0, and no bool: every constructor checks it through
    # the shape it gives sparse_tensor
    (lambda: LeibnizAlgebra(-1, {}),
     "structure tensor: shape (-1, -1, -1) has an axis that is no size"),
    (lambda: LeibnizAlgebra(2.0, {}),
     "structure tensor: shape (2.0, 2.0, 2.0) has an axis that is no size"),
    (lambda: LeibnizAlgebra(True, {(0, 0, 0): 1}),
     "structure tensor: shape (True, True, True) has an axis that is no size"),
    (lambda: LeibnizAlgebra("2", [[["0"]]]),
     "structure tensor: shape ('2', '2', '2') has an axis that is no size"),
    (lambda: Representation(LeibnizAlgebra(1, {}), True, {(0, 0, 0): 1}, {}),
     "left action: shape (1, True, True) has an axis that is no size"),
    (lambda: GraphMap(-2, {}), "graph map: shape (-2, -2, -2) has an axis that is no size"),
    (lambda: NaiveRepresentation(_l2(), 1.0, {}, {}),
     "phi: shape (2, 1.0, 1.0) has an axis that is no size"),
    (lambda: _lie2(dim1=-1), "l1: shape (2, -1) has an axis that is no size"),
    (lambda: Subspace(False, [{}]), "basis vector: shape (False,) has an axis that is no size"),
    (lambda: sparse_tensor([], (0, None), "cochain"),
     "cochain: shape (0, None) has an axis that is no size"),
    # an empty basis has no vector to check the size by: the basis tensor
    # itself goes through sparse_tensor
    (lambda: Subspace(-1, []), "basis: shape (0, -1) has an axis that is no size"),
    (lambda: Subspace(2.0, []), "basis: shape (0, 2.0) has an axis that is no size"),
    (lambda: Subspace(True, []), "basis: shape (0, True) has an axis that is no size"),
    # the omni algebra of Q^m takes a size m, and names any other m
    (lambda: omni_lie(True), "omni algebra needs an int m >= 0, got True"),
    (lambda: omni_lie(1.5), "omni algebra needs an int m >= 0, got 1.5"),
    (lambda: omni_lie(-1), "omni algebra needs an int m >= 0, got -1"),
    # a family of vectors must end in the ambient axis
    (lambda: Subspace(2, [[1, 0]]).coordinates_of(sparse_tensor({(0, 2): 1}, (1, 3), "t")),
     "vector: shape (1, 3) does not end in an axis of length 2"),
    # a degree below 0 and a mode that is neither product
    (lambda: coboundary_columns(trivial_rep(_l2()), -1), "degree must be >= 0"),
    (lambda: semidirect(_l2(), trivial_rep(_l2()), "rl"), "mode must be 'lr' or 'l0'"),
    # a scalar where an axis belongs: a string was read as a row of its
    # characters, and an int raised TypeError
    (lambda: LeibnizAlgebra(2, [["12", "00"], ["00", "00"]]),
     "structure tensor: an axis of type str, expected a list or tuple"),
    (lambda: Subspace(2, ["10"]), "basis vector: an axis of type str, expected a list or tuple"),
    (lambda: sparse_tensor("3", (1,), "v"), "v: an axis of type str, expected a list or tuple"),
    (lambda: LeibnizAlgebra(2, [1, 2]),
     "structure tensor: an axis of type int, expected a list or tuple"),
    # a row count that the rows do not have, and a negative one
    (lambda: Matrix(2, 2, [{}]), "inconsistent matrix shape"),
    (lambda: Matrix(-1, 0, []), "inconsistent matrix shape"),
]


@pytest.mark.parametrize("index", range(len(WRONG_SHAPES)))
def test_wrong_shapes_raise_their_value_error(index):
    build, message = WRONG_SHAPES[index]
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_a_report_is_true_exactly_when_its_identity_holds():
    # a NamedTuple that holds a witness would be truthy without __bool__
    assert bool(IdentityReport(False, (Witness((0, 0, 0), (1,)),))) is False
    assert bool(check_leibniz(fixtures.l2_algebra())) is True


def test_an_unknown_fixture_name_raises_key_error():
    with pytest.raises(KeyError, match="unknown algebra fixture 'nope'"):
        fixtures.algebra("nope")


def test_hand_built_tensors_are_checked_and_made_canonical():
    # unsorted keys and an explicit zero come back sorted and without the zero,
    # so the bisecting int index reads them; a float is refused
    t = sparse_tensor(Tensor((2, 2), {(1, 0): 3, (0, 1): 0, (0, 0): "1/2"}), (2, 2), "t")
    assert list(t.keys()) == [(0, 0), (1, 0)]
    assert (t[0][0], t[0][1], t[1][0]) == (F(1, 2), 0, 3)
    assert Subspace(2, Tensor((1, 2), {(0, 1): 1, (0, 0): 0})).basis == {(0, 1): 1}
    with pytest.raises(TypeError, match="exact scalar"):
        LeibnizAlgebra(1, Tensor((1, 1, 1), {(0, 0, 0): 0.5}))


def test_a_bool_is_no_exact_scalar():
    # bool subclasses int; the JSON reader refuses it, and so do the constructors
    for build in (lambda: as_rational(True), lambda: LeibnizAlgebra(2, {(1, 0, 1): True}),
                  lambda: LeibnizAlgebra(1, [[[False]]]), lambda: GraphMap(1, {(0, 0, 0): True})):
        with pytest.raises(TypeError, match="^expected an exact scalar, got bool$"):
            build()


@pytest.mark.parametrize("bad", ["1.5", "1e3", " 3", "1_0", "\u0663", "3\n"])
def test_a_scalar_string_outside_the_grammar_is_refused(bad):
    # these went through Fraction(str), which reads a decimal, an exponent,
    # whitespace, an underscore and any Unicode digit
    for build in (lambda: as_rational(bad), lambda: LeibnizAlgebra(1, {(0, 0, 0): bad})):
        with pytest.raises(ValueError):
            build()


def test_an_exact_scalar_in_the_grammar_is_read():
    for x, value in (("2/4", F(1, 2)), ("+3", F(3)), ("-0", F(0)), (7, F(7)), (F(1, 2), F(1, 2))):
        assert as_rational(x) == value
        assert LeibnizAlgebra(1, {(0, 0, 0): x}).c == ({(0, 0, 0): value} if value else {})


def test_sparse_tensors_are_read_only():
    g, L = _l2(), _lie2(l3={(0, 1, 0, 0): 1}, l1={(1, 0): 1})
    rep, phi, rho = (BUILDERS[name](2) for name in ("Representation", "GraphMap",
                                                    "NaiveRepresentation"))
    for tensor in (g.c, L.l3, L.l1, rep.r, phi.phi, rho.theta, right_action_cochain(rep),
                   BUILDERS["Subspace"](2).basis, rho.rho_vectors):
        key = next(iter(tensor.keys()))
        for change in (lambda: tensor.__setitem__((0, 0, 0), 1), lambda: tensor.__delitem__(key),
                       lambda: tensor.update({key: 2}), lambda: tensor.pop(key),
                       tensor.popitem, tensor.clear, lambda: tensor.setdefault(key, 2)):
            with pytest.raises(TypeError, match="a sparse tensor is read-only"):
                change()
        with pytest.raises(TypeError):
            tensor |= {key: 2}
    assert g.c == {(0, 0, 1): 1} and L.l3 == {(0, 1, 0, 0): 1}


def test_sparse_tensors_read_as_their_dense_form():
    # an int index and iteration give the nested form the fields once held,
    # and the constructors still take it
    g = _l2()
    assert g.c[0][0][1] == 1 and g.c[0][0][0] == g.c[1][1][1] == 0
    assert [[list(row) for row in plane] for plane in g.c] == [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    assert g.c[0] == {(0, 1): 1} and g.c[0].shape == (2, 2) and g.c[1] == {}
    assert LeibnizAlgebra(2, [[["0", "1"], [0, 0]], [[0, 0], [0, 0]]]) == g
    assert _lie2(l3=[[[[0]] * 2] * 2, [[[0], [0]], [[0], [F(3)]]]]).l3 == {(1, 1, 1, 0): 3}
    for index in (2, -1):
        with pytest.raises(IndexError):
            g.c[index]


# a rational as the JSON reader, the fixtures or a caller may give it
_SCALARS = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2)]).flatmap(
    lambda q: st.sampled_from([q, str(q)] + ([int(q)] if q.denominator == 1 else [])))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_iff_dense_tensors_are_equal(data):
    # two algebras from drawn entries (explicit zeros, int, str and Fraction
    # values, the second mostly a re-encoding of the first) are equal exactly
    # when their dense tensors are, and equal values hash alike
    n = data.draw(st.integers(1, 2))
    keys = st.tuples(*[st.integers(0, n - 1)] * 3)
    first = data.draw(st.dictionaries(keys, _SCALARS, max_size=5))
    second = {key: data.draw(st.sampled_from([v, str(F(v)), F(v)])) for key, v in first.items()}
    second.update(data.draw(st.dictionaries(keys, _SCALARS, max_size=2)))
    a, b = LeibnizAlgebra(n, first), LeibnizAlgebra(n, second)
    assert (a == b) == (dense(a.c, (n,) * 3) == dense(b.c, (n,) * 3))
    assert tuple(tuple(tuple(row) for row in plane) for plane in a.c) == dense(a.c, (n,) * 3)
    assert LeibnizAlgebra(n, dense(a.c, (n,) * 3)) == a
    assert (a == b) == ({k: F(v) for k, v in first.items() if F(v)}
                        == {k: F(v) for k, v in second.items() if F(v)})
    if a == b:
        assert hash(a) == hash(b)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)


def test_checks_hold_under_optimize():
    # the same three checks in a `python -O` interpreter, where an assert
    # would be stripped; one module-level run keeps it to one process
    script = f"""
import sys
sys.path.insert(0, {os.path.dirname(__file__)!r})
import test_value_types as t
if not sys.flags.optimize:
    sys.exit("not optimized")
for name in t.BUILDERS:
    t.test_fields_cannot_be_assigned_or_deleted(name)
    a, b, other = (t.BUILDERS[name](v) for v in range(3))
    if not (a == b and hash(a) == hash(b) and a != other):
        sys.exit(f"{{name}}: equality by value fails")
for build, message in t.WRONG_SHAPES:
    try:
        build()
    except ValueError as exc:
        if str(exc) != message:
            sys.exit(f"{{message!r}}: got {{exc}}")
    else:
        sys.exit(f"{{message!r}}: not raised")
print("ok")
"""
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "ok"), done.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command starts a fresh interpreter and imports the CLI; the
    # dataclasses module (which loads inspect, ast, dis and tokenize) used
    # to be most of that import
    script = ("import sys; before = set(sys.modules); import leibniz_kit.cli; "
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "[]"), done.stderr
