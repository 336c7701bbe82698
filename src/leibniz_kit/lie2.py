"""Skew-symmetrization of a Leibniz algebra and the resulting Lie 2-algebra.

The antisymmetrized bracket <<x,y>> = ([x,y] - [y,x])/2 fails Jacobi in
general; its Jacobiator

    J(x,y,z) = <<x,<<y,z>>>> + <<y,<<z,x>>>> + <<z,<<x,y>>>>

has the closed form ([[z,y],x] + [[x,z],y] + [[y,x],z])/4, always lands in
the left center, and satisfies a ten-term cocycle-style identity.  Feeding
J back in as a ternary homotopy yields a two-term graded algebra
(Z(g) in degree 1, g in degree 0) with unary/binary/ternary operations
l1, l2, l3, verified here against the five axioms (a)-(e) of Baez-Crans.

Every identity is a signed sum of exact contractions over the sparse
supports of the structure tensors (``linalg.contract``), so its cost
follows the nonzero constants rather than n^4 dense evaluations; the
residual still covers every basis tuple, and any nonzero entry of it is a
witness, labelled in an ``IdentityReport`` by the identity (or axiom) it breaks.
"""

from __future__ import annotations

from .algebra import (
    IdentityReport,
    LeibnizAlgebra,
    Witness,
    _report,
    left_center,
    require,
    residual_witnesses,
)
from .linalg import (
    HALF,
    Frozen,
    QUARTER,
    contract,
    sparse_tensor,
)


def skew_bracket(g: LeibnizAlgebra) -> dict:
    """<<e_i, e_j>> = ([e_i,e_j] - [e_j,e_i]) / 2 as a sparse tensor: half the
    structure tensor minus itself with i and j swapped; antisymmetric."""
    return contract([(HALF, "ijk->ijk", g.c), (-HALF, "jik->ijk", g.c)])


def _jacobiator(g: LeibnizAlgebra) -> dict:
    """J(e_i,e_j,e_k) at (i,j,k,t) by the closed quarter-formula, from the
    sparse structure tensor."""
    c = g.c
    return contract([(QUARTER, "kja,ait->ijkt", c, c), (QUARTER, "ika,ajt->ijkt", c, c),
                     (QUARTER, "jia,akt->ijkt", c, c)])


def _antisymmetry_witnesses(t: dict, dim: int, label: str) -> list[Witness]:
    """Total antisymmetry of a sparse trilinear tensor, by its two adjacent
    transpositions; a witness's where is ((i, j, k), swapped triple)."""
    found = []
    for spec, swap in (("jikt->ijkt", lambda i, j, k: (j, i, k)),
                       ("ikjt->ijkt", lambda i, j, k: (i, k, j))):
        for w in residual_witnesses(contract([(1, "ijkt->ijkt", t), (1, spec, t)]), dim, label):
            found.append(Witness((w.where, swap(*w.where)), w.defect, label))
    return sorted(found, key=lambda w: w.where)


def check_jacobiator_identities(g: LeibnizAlgebra) -> IdentityReport:
    """Exhaustive basis verification of the Jacobiator facts:

    * the cyclic definition agrees with the closed quarter-formula,
    * J is totally antisymmetric,
    * [J(x,y,z), w] = 0 (values lie in the left center),
    * the ten-term identity
        <<x,J(y,z,w)>> - <<y,J(x,z,w)>> + <<z,J(x,y,w)>> - <<w,J(x,y,z)>>
        - J(<<x,y>>,z,w) + J(<<x,z>>,y,w) - J(<<x,w>>,y,z)
        - J(<<y,z>>,x,w) + J(<<y,w>>,x,z) - J(<<z,w>>,x,y)  =  0.

    Witnesses are labelled, and listed, in that order.
    """
    n, c = g.dim, g.c
    s, jac = g._derived("_skew", skew_bracket), g._derived("_jacobiator", _jacobiator)
    direct = contract([(1, "jka,iat->ijkt", s, s), (1, "kia,jat->ijkt", s, s),
                       (1, "ija,kat->ijkt", s, s), (-1, "ijkt->ijkt", jac)])
    center = contract([(1, "ijka,alt->ijklt", jac, c)])
    ten_term = contract([
        (1, "iat,jkla->ijklt", s, jac), (-1, "jat,ikla->ijklt", s, jac),
        (1, "kat,ijla->ijklt", s, jac), (-1, "lat,ijka->ijklt", s, jac),
        (-1, "ija,aklt->ijklt", s, jac), (1, "ika,ajlt->ijklt", s, jac),
        (-1, "ila,ajkt->ijklt", s, jac), (-1, "jka,ailt->ijklt", s, jac),
        (1, "jla,aikt->ijklt", s, jac), (-1, "kla,aijt->ijklt", s, jac),
    ])
    return _report(residual_witnesses(direct, n, "direct-vs-closed")
                   + _antisymmetry_witnesses(jac, n, "antisymmetry")
                   + residual_witnesses(center, n, "center")
                   + residual_witnesses(ten_term, n, "ten-term"))


class Lie2Algebra(Frozen):
    """Two-term graded algebra: degree-1 piece of dim1, degree-0 piece of dim0.

    l1    : dim0 x dim1 matrix (degree -1 map, degree 1 -> degree 0)
    l2_00 : bilinear deg0 x deg0 -> deg0, antisymmetric
    l2_01 : bilinear deg0 x deg1 -> deg1 (the deg1-first variant is its negative)
    l3    : trilinear deg0^3 -> deg1, totally antisymmetric

    l2 on two degree-1 elements would land in degree 2, which is zero here.

    All four are read-only sparse ``linalg.Tensor``s, indexed as above with
    the output first for ``l1`` ((r, a) is row r, column a) and last for the
    others; the constructor takes mappings or dense nested sequences
    (``linalg.sparse_tensor``).
    """

    __slots__ = ("dim1", "dim0", "l1", "l2_00", "l2_01", "l3")

    def __init__(self, dim1: int, dim0: int, l1, l2_00, l2_01, l3):
        self._set(dim1, dim0, sparse_tensor(l1, (dim0, dim1), "l1"),
                  sparse_tensor(l2_00, (dim0,) * 3, "l2_00"),
                  sparse_tensor(l2_01, (dim0, dim1, dim1), "l2_01"),
                  sparse_tensor(l3, (dim0,) * 3 + (dim1,), "l3"))


def build_lie2(g: LeibnizAlgebra) -> Lie2Algebra:
    """Two-term algebra on Z(g) (+) g from the skew bracket and Jacobiator.

    l1 is the inclusion of the left center, l2 on two degree-0 elements is
    the skew bracket, l2 of a degree-0 and a center element is half the
    original bracket (which still lies in the center since Z(g) is an
    ideal), and l3 is the Jacobiator in center coordinates.  g is refused
    (``algebra.require``) unless it is a Leibniz algebra; then both center
    memberships hold, and are exact coordinate checks in Z(g).
    """
    require(g)
    n, c = g.dim, g.c
    z = left_center(g)

    def center_coords(tensor, shape, name):
        coords = z.coordinates_of(sparse_tensor(tensor, shape, name))
        if coords is None:
            raise AssertionError(f"{name} of a Leibniz algebra is not in the left center")
        return coords

    # z.basis[u, a] is coordinate a of the center basis vector u
    l2_01 = center_coords(contract([(HALF, "ua,iat->iut", z.basis, c)]), (n, z.dim, n),
                          "[e_i, z_u]/2")
    l3 = center_coords(g._derived("_jacobiator", _jacobiator), (n,) * 4, "J(e_i,e_j,e_k)")
    return Lie2Algebra(z.dim, n, {(a, u): v for (u, a), v in z.basis.items()},
                       g._derived("_skew", skew_bracket), l2_01, l3)


def verify_lie2(L: Lie2Algebra) -> IdentityReport:
    """Check axioms (a)-(e) on all basis tuples.  Each witness is labelled
    with its axiom's letter, so an axiom holds when no witness carries it.

    With x,y,z,w of degree 0 and a of degree 1:
      (a) l1 l2(x,a) = l2(x, l1 a)
      (b) l2(l1 a, b) = l2(a, l1 b)
      (c) l2(x,l2(y,z)) + l2(y,l2(z,x)) + l2(z,l2(x,y)) = l1 l3(x,y,z)
      (d) l2(x,l2(y,a)) + l2(y,l2(a,x)) + l2(a,l2(x,y)) = l3(x,y,l1 a)
      (e) the four-element compatibility of l2 and l3, written with explicit
          signs (l2 on a degree-1 slot picks up a sign when flipped):
            l2(l3(x,y,z),w) - l2(l3(x,y,w),z) + l2(l3(x,z,w),y) - l2(l3(y,z,w),x)
          = l3(l2(x,y),z,w) - l3(l2(x,z),y,w) + l3(l2(x,w),y,z)
            + l3(l2(y,z),x,w) - l3(l2(y,w),x,z) + l3(l2(z,w),x,y)
    """
    n0, n1 = L.dim0, L.dim1
    l1, s, m, t = L.l1, L.l2_00, L.l2_01, L.l3
    axioms = {
        "a": (n0, [(1, "iab,tb->iat", m, l1), (-1, "ua,iut->iat", l1, s)]),
        "b": (n1, [(1, "ua,ubt->abt", l1, m), (1, "ub,uat->abt", l1, m)]),
        "c": (n0, [(1, "jku,iut->ijkt", s, s), (1, "kiu,jut->ijkt", s, s),
                   (1, "iju,kut->ijkt", s, s), (-1, "ijka,ta->ijkt", t, l1)]),
        "d": (n1, [(1, "jab,ibt->ijat", m, m), (-1, "iab,jbt->ijat", m, m),
                   (-1, "iju,uat->ijat", s, m), (-1, "ua,ijut->ijat", l1, t)]),
        "e": (n1, [(-1, "ijkb,lbt->ijklt", t, m), (1, "ijlb,kbt->ijklt", t, m),
                   (-1, "iklb,jbt->ijklt", t, m), (1, "jklb,ibt->ijklt", t, m),
                   (-1, "iju,uklt->ijklt", s, t), (1, "iku,ujlt->ijklt", s, t),
                   (-1, "ilu,ujkt->ijklt", s, t), (-1, "jku,uilt->ijklt", s, t),
                   (1, "jlu,uikt->ijklt", s, t), (-1, "klu,uijt->ijklt", s, t)]),
    }
    return _report([w for name, (dim, terms) in axioms.items()
                    for w in residual_witnesses(contract(terms), dim, name)])
