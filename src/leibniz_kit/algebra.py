"""Leibniz algebras presented by rational structure constants.

A Leibniz algebra here is a finite-dimensional vector space over Q with a
bilinear bracket [.,.] whose left multiplications are derivations:

    [x, [y, z]] = [[x, y], z] + [y, [x, z]]

The bracket need not be antisymmetric; Lie algebras are the antisymmetric
special case.  Everything is encoded by the tensor c with
[e_i, e_j] = sum_k c[i, j, k] e_k, stored sparse.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .linalg import (
    Frozen,
    Subspace,
    Tensor,
    ZERO,
    contract,
    kernel_basis,
    reduced_rows,
    span_of_rows,
    sparse_tensor,
)


class LeibnizAlgebra(Frozen):
    """Structure constants of [e_i, e_j] = sum_k c[i, j, k] e_k.

    ``c`` is the read-only sparse ``linalg.Tensor`` {(i, j, k): nonzero
    Fraction}, the one stored form that every check reads; ``g.c[i][j][k]``
    reads an entry.  The constructor takes that mapping or the dense
    nested sequences (``linalg.sparse_tensor``).  ``_skew`` and
    ``_jacobiator`` are ``lie2``'s, derived once per value."""

    __slots__ = ("dim", "c", "_verdict", "_skew", "_jacobiator")
    noun = "a Leibniz algebra"

    def __init__(self, dim: int, c):
        self._set(dim, sparse_tensor(c, (dim,) * 3, "structure tensor"))

    @property
    def verdict(self) -> IdentityReport:
        """``check_leibniz`` of this algebra, run on first read and kept."""
        return self._derived("_verdict", check_leibniz)

    @classmethod
    def abelian(cls, n: int) -> "LeibnizAlgebra":
        return cls(n, {})

    @classmethod
    def from_brackets(cls, n: int, brackets: dict) -> "LeibnizAlgebra":
        """Build from a sparse {(i, j): {k: coeff}} description; 0-based indices."""
        return cls(n, {(i, j, k): coeff for (i, j), val in brackets.items()
                       for k, coeff in val.items()})


class Witness(NamedTuple):
    """A failed identity instance: where it failed and by how much."""
    where: tuple
    defect: tuple
    label: str = ""


class IdentityReport(NamedTuple):
    """Outcome of an identity checked on every basis tuple.

    Witnesses come grouped by label, in the order the check evaluates its
    identities, and within one label in lexicographic order of ``where``.
    """
    holds: bool
    witnesses: tuple[Witness, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def _report(witnesses: list[Witness]) -> IdentityReport:
    return IdentityReport(not witnesses, tuple(witnesses))


def refusal(*values) -> Optional[str]:
    """The reason to refuse the first of ``values`` that fails its defining
    identity, or None when each holds; a None among them is skipped.

    A value is a checked type: a ``LeibnizAlgebra``, ``Representation``,
    ``GraphMap`` or ``NaiveRepresentation``, whose ``verdict`` is the report
    of its identity, kept once it is made, and whose ``noun`` names it.
    Every refusal of the package, the CLI's and the library's, is worded
    here: "input is not <noun>; first witness at <where>"."""
    for value in values:
        if value is not None and not (report := value.verdict).holds:
            return f"input is not {value.noun}; first witness at {report.witnesses[0].where}"
    return None


class Refused(ValueError):
    """A premise of a construction fails on its input, as ``refusal`` words
    it: the one exception a refused premise raises, wherever it is checked."""


def require(*values) -> None:
    """Raise ``refusal(*values)`` as ``Refused``, unless every value holds."""
    reason = refusal(*values)
    if reason:
        raise Refused(reason)


# ---------------------------------------------------------------------------
# identities as contractions of sparse structure tensors
#
# A sparse tensor is a dict {index tuple: Fraction} that omits zeros.  An
# identity on basis tuples is a signed sum of contractions
# (``linalg.contract``, the one product of the package); every tuple that
# no term reaches has residual exactly zero, so the nonzero entries of the
# residual are precisely the failing tuples.  Structure tensors and actions
# are stored in this form only, as a read-only ``linalg.Tensor`` built in the
# constructor: ``LeibnizAlgebra.c``, ``Lie2Algebra.l1``, ``l2_00``, ``l2_01``,
# ``l3``, ``Representation.l``, ``r``, ``GraphMap.phi`` and
# ``NaiveRepresentation.phi``, ``theta``.  A cochain is such a tensor too:
# ``coboundary`` takes and returns one, and ``rbar`` and
# ``right_action_cochain`` build one.  A vector is the 1-axis tensor
# {(a,): x}, and a family of vectors, such as a ``Subspace.basis`` or the
# rho(e_i) of a naive representation, one 2-axis tensor.  Only witnesses
# build dense tuples, with ``dense``.

def dense(tensor: dict, shape: tuple) -> tuple:
    """The nested tuples of the given shape holding a sparse tensor."""
    def build(prefix):
        if len(prefix) == len(shape):
            return tensor.get(prefix, ZERO)
        return tuple(build(prefix + (i,)) for i in range(shape[len(prefix)]))
    return build(())


def rows_of(tensor: dict, axes: int = 1) -> dict:
    """{index prefix: sparse block {last ``axes`` indices: entry}} for every
    prefix at which the tensor has a nonzero entry; with axes=1 each block is
    a sparse vector {(k,): entry}."""
    rows: dict = {}
    for key, v in tensor.items():
        if v:
            rows.setdefault(key[:-axes], {})[key[-axes:]] = v
    return rows


def residual_witnesses(residual: dict, dim: int, label: str, axes: int = 1) -> list[Witness]:
    """One witness per nonzero block of a residual (``rows_of``), in
    lexicographic order of ``where``: the indices but the last ``axes``, whose
    block of length dim on each axis is the dense defect (a vector, or a
    matrix when axes=2)."""
    return [Witness(where, dense(block, (dim,) * axes), label)
            for where, block in sorted(rows_of(residual, axes).items())]


def leibniz_residual(c: dict) -> dict:
    """[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]] at (i, j, k, t), t
    the output coordinate, for the bracket of structure constants c: the one
    place that writes the Leibniz identity.

    The three terms are contractions of the sparse tensor c, and the
    residual covers every basis triple: a triple no term reaches is exactly
    zero.  ``check_leibniz`` reads it for an algebra, and the Maurer-Cartan
    residual and graph closure are it for a deformed or an induced bracket.
    """
    return contract([(1, "jka,iat->ijkt", c, c), (-1, "ija,akt->ijkt", c, c),
                     (-1, "ika,jat->ijkt", c, c)])


def check_leibniz(g: LeibnizAlgebra) -> IdentityReport:
    """The Leibniz residual of g on all basis triples; a report that holds
    is a proof on the whole basis."""
    return _report(residual_witnesses(leibniz_residual(g.c), g.dim, "leibniz"))


def left_multiplication_matrix(g: LeibnizAlgebra) -> Tensor:
    """The n^2 x n matrix of x -> ([x, e_j] for all j), rows indexed by
    (j, k), as the 2-axis tensor {(j n + k, i): c[i, j, k]}."""
    n = g.dim
    return Tensor((n * n, n), dict(sorted(((j * n + k, i), v) for (i, j, k), v in g.c.items())))


def left_center(g: LeibnizAlgebra) -> Subspace:
    """Z(g) = {x : [x, y] = 0 for all y}, as the kernel of left multiplication."""
    return kernel_basis(left_multiplication_matrix(g))


def derived_subalgebra(g: LeibnizAlgebra) -> Subspace:
    """Span of all brackets [e_i, e_j]; the canonical basis does not depend
    on which zero brackets are left out."""
    return span_of_rows(g.dim, rows_of(g.c).values())


def is_lie(g: LeibnizAlgebra) -> bool:
    """Antisymmetry of the structure tensor; with the derivation identity this
    already implies Jacobi."""
    return all(g.c.get((j, i, k)) == -v for (i, j, k), v in g.c.items())


def square_in_center_check(g: LeibnizAlgebra) -> IdentityReport:
    """Polarized form of "[x, x] lies in the left center":
    [[e_i,e_j] + [e_j,e_i], e_k] = 0 for all basis triples."""
    c = g.c
    residual = contract([(1, "ija,akt->ijkt", c, c), (1, "jia,akt->ijkt", c, c)])
    return _report(residual_witnesses(residual, g.dim, "square-center"))


def quotient_by_left_center(g: LeibnizAlgebra) -> tuple[LeibnizAlgebra, Tensor]:
    """The algebra induced on g / Z(g), plus the projection onto it, the
    2-axis ``Tensor`` of shape (q, n).

    Z(g) is the kernel of ``left_multiplication_matrix``, so its reduced
    rows R, with pivot columns J (``linalg.reduced_rows``), are the
    projection onto g / Z(g) in the basis of the classes of the e_(J_a): R
    kills Z(g) and sends e_(J_a) to e_a.  The bracket is one contraction,
    [e_a, e_b] = R [e_(J_a), e_(J_b)].  The quotient of a Leibniz algebra by
    its left center is a Lie algebra, which is checked on the result; so g is
    refused first (``require``) unless it passes the Leibniz identity.
    """
    require(g)
    proj, pivots = reduced_rows(left_multiplication_matrix(g))
    kept = {i: a for a, i in enumerate(pivots)}
    c = {(kept[i], kept[j], t): x for (i, j, t), x in g.c.items() if i in kept and j in kept}
    quotient = LeibnizAlgebra(len(kept), contract([(1, "abt,kt->abk", c, proj)]))
    if not is_lie(quotient):
        raise AssertionError("quotient of a Leibniz algebra by its left center is not Lie")
    return quotient, proj
