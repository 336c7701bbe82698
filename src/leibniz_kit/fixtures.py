"""The built-in example corpus: small algebras, representations and graph
maps used by the test suite, the CLI and the documentation; ``write_corpus``
writes each document as the text of ``serialize.write_json`` and a newline.

Positive fixtures satisfy the identities their kind promises; negative
fixtures are shipped so that every checker has a failing input.
"""

from __future__ import annotations

from pathlib import Path

from .algebra import LeibnizAlgebra
from .cohomology import Representation, adjoint_rep, semidirect
from .omni import GraphMap, omni_lie
from .serialize import algebra_to_json, graph_to_json, representation_to_json, write_json


def l2_algebra() -> LeibnizAlgebra:
    """Two-dimensional algebra with [e1, e1] = e2 and all other brackets zero;
    the smallest Leibniz algebra that is not Lie."""
    return LeibnizAlgebra.from_brackets(2, {(0, 0): {1: 1}})


def heisenberg3() -> LeibnizAlgebra:
    """The 3-dimensional Heisenberg Lie algebra: [e1, e2] = e3 = -[e2, e1]."""
    return LeibnizAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})


def sl2() -> LeibnizAlgebra:
    """sl(2) with basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LeibnizAlgebra.from_brackets(3, {
        (0, 1): {1: 2}, (1, 0): {1: -2},
        (0, 2): {2: -2}, (2, 0): {2: 2},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    })


def nonleibniz() -> LeibnizAlgebra:
    """[e1, e1] = e1 violates the Leibniz identity (defect -e1 at (0,0,0))."""
    return LeibnizAlgebra.from_brackets(1, {(0, 0): {0: 1}})


def nonleibniz2() -> LeibnizAlgebra:
    """Two-dimensional: [e1, e1] = e1 and [e2, e1] = e2; also not Leibniz."""
    return LeibnizAlgebra.from_brackets(2, {(0, 0): {0: 1}, (1, 0): {1: 1}})


def graph_for(g: LeibnizAlgebra) -> GraphMap:
    """The left-multiplication graph map of an algebra; it closes exactly
    because the algebra satisfies the Leibniz identity."""
    return GraphMap(g.dim, adjoint_rep(g).l)


def bad_graph() -> GraphMap:
    """phi(e1) = E_11 and phi(e2) = E_12, spanning the first row of gl(2);
    fails closure at (0, 0)."""
    return GraphMap(2, {(0, 0, 0): 1, (1, 0, 1): 1})


def bad_representation() -> Representation:
    """Adjoint actions of the [e1,e1] = e2 algebra with the right action at
    e1 replaced by the identity; fails the compatibility conditions."""
    g = l2_algebra()
    rep = adjoint_rep(g)
    rs = {key: v for key, v in rep.r.items() if key[0] != 0}
    return Representation(g, 2, rep.l, {(0, 0, 0): 1, (0, 1, 1): 1, **rs})


_ALGEBRAS = {
    "abelian1": lambda: LeibnizAlgebra.abelian(1),
    "abelian2": lambda: LeibnizAlgebra.abelian(2),
    "abelian3": lambda: LeibnizAlgebra.abelian(3),
    "L2": l2_algebra,
    "heis3": heisenberg3,
    "sl2": sl2,
    "omni1": lambda: omni_lie(1),
    "omni2": lambda: omni_lie(2),
    "semidirect_heis3_lr": lambda: semidirect(heisenberg3(), adjoint_rep(heisenberg3()), "lr"),
    "semidirect_L2_l0": lambda: semidirect(l2_algebra(), adjoint_rep(l2_algebra()), "l0"),
}

_NEGATIVE_ALGEBRAS = {
    "nonleibniz": nonleibniz,
    "nonleibniz2": nonleibniz2,
}

# representation fixtures are tied to the named algebra
_REPRESENTATIONS = {
    "rep_adjoint_L2": ("L2", lambda g: adjoint_rep(g)),
    "rep_adjoint_heis3": ("heis3", lambda g: adjoint_rep(g)),
    "rep_adjoint_sl2": ("sl2", lambda g: adjoint_rep(g)),
    "rep_bad_L2": ("L2", lambda g: bad_representation()),
}

_GRAPHS = {
    "graph_L2": lambda: graph_for(l2_algebra()),
    "graph_heis3": lambda: graph_for(heisenberg3()),
    "graph_bad": bad_graph,
}


def positive_algebra_names() -> list[str]:
    return list(_ALGEBRAS)


def negative_algebra_names() -> list[str]:
    return list(_NEGATIVE_ALGEBRAS)


def algebra(name: str) -> LeibnizAlgebra:
    if name in _ALGEBRAS:
        return _ALGEBRAS[name]()
    if name in _NEGATIVE_ALGEBRAS:
        return _NEGATIVE_ALGEBRAS[name]()
    raise KeyError(f"unknown algebra fixture {name!r}")


def corpus() -> dict[str, dict]:
    """All fixture documents, keyed by file name."""
    docs: dict[str, dict] = {}
    for name, build in {**_ALGEBRAS, **_NEGATIVE_ALGEBRAS}.items():
        docs[f"{name}.json"] = algebra_to_json(build())
    for name, (alg, build) in _REPRESENTATIONS.items():
        docs[f"{name}.json"] = representation_to_json(build(algebra(alg)))
    for name, build in _GRAPHS.items():
        docs[f"{name}.json"] = graph_to_json(build())
    return docs


def write_corpus(dest: Path) -> list[Path]:
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, doc in sorted(corpus().items()):
        path = dest / fname
        path.write_text(write_json(doc) + "\n", encoding="utf-8")
        written.append(path)
    return written

