"""Representations, cochains, the coboundary complex and the Maurer-Cartan
identity.

A representation of a Leibniz algebra g on V is a pair of linear maps
l, r : g -> gl(V) with, for all x, y in g:

    l_[x,y] = [l_x, l_y]      r_[x,y] = [l_x, r_y]      r_y l_x = -r_y r_x

k-cochains are arbitrary multilinear maps on the k-th tensor power of g
with values in V = Q^m (no antisymmetrization).  A k-cochain f is a
read-only sparse ``linalg.Tensor`` of shape (n,)*k + (m,): the entry at
(t_1, .., t_k, v) is coordinate v of f(e_t1, .., e_tk).  The coboundary is

    d c(x_1..x_{k+1}) = sum_{i<=k} (-1)^{i+1} l_{x_i} c(..^x_i..)
                        + (-1)^{k+1} r_{x_{k+1}} c(x_1..x_k)
                        + sum_{i<j} (-1)^i c(..^x_i.., [x_i,x_j] at slot j, ..)

instantiated literally at k = 0 as d v(x) = -r_x(v).  Its terms are written
once, in ``coboundary_columns``, which builds only the columns its caller
names.  Cohomology dimensions come from exact rank-nullity, so every
reported Betti number is exact.

The representation conditions are signed sums of exact sparse contractions
(``linalg.contract``) of the structure and action tensors, like every other
identity in the package.  The Maurer-Cartan residual d r - [r, r]/2 of a
2-cochain r on a Leibniz algebra h, valued in h, is the Leibniz residual of
the deformed bracket h + r (``algebra.leibniz_residual``): d r is the part
linear in r and -[r, r]/2 the part quadratic in r.  So no coboundary and no
graded bracket of cochains is built for it; the graded bracket that the
identity is stated with is evaluated only by the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import NamedTuple, Optional

from .algebra import (
    IdentityReport,
    LeibnizAlgebra,
    _report,
    leibniz_residual,
    require,
    residual_witnesses,
)
from .linalg import Frozen, Matrix, Tensor, _to_integers, contract, rank, sparse_tensor

DEFAULT_CAP = 20000


class ResourceCapExceeded(Exception):
    """Raised when a cochain space would outgrow the configured cap."""

    def __init__(self, required: int, cap: int, what: str = "cochain space of dimension"):
        super().__init__(f"{what} {required} exceeds cap {cap}")
        self.required = required
        self.cap = cap


# ---------------------------------------------------------------------------
# representations

class Representation(Frozen):
    """Left and right actions of g on Q^vdim, one pair of vdim x vdim
    matrices per basis element of g.

    ``l`` and ``r`` are read-only sparse ``linalg.Tensor``s of shape
    (n, vdim, vdim): L[i,a,b] = (l_i)[a][b] and R[i,a,b] = (r_i)[a][b] over
    the nonzero entries, the one stored form that every check reads;
    ``rep.l[i][a][b]`` reads an entry.  The constructor takes that mapping
    or the dense nested sequences (``linalg.sparse_tensor``)."""

    __slots__ = ("algebra", "vdim", "l", "r", "_verdict")
    noun = "a representation"

    def __init__(self, algebra: LeibnizAlgebra, vdim: int, l, r):
        shape = (algebra.dim, vdim, vdim)
        self._set(algebra, vdim, sparse_tensor(l, shape, "left action"),
                  sparse_tensor(r, shape, "right action"))

    @property
    def verdict(self) -> IdentityReport:
        """``check_representation`` of this representation, run on first
        read and kept."""
        return self._derived("_verdict", check_representation)


def check_representation(rep: Representation) -> IdentityReport:
    """All three compatibility conditions on all basis pairs (i, j).

    Each is a contraction of the structure tensor c with the action tensors
    L[i,a,b] = (l_i)[a][b] and R[i,a,b] = (r_i)[a][b], and each witness
    carries the m x m defect matrix at (i, j).
    """
    c, L, R = rep.algebra.c, rep.l, rep.r
    identities = {
        "l-of-bracket": [(1, "ijk,kab->ijab", c, L), (-1, "iau,jub->ijab", L, L),
                         (1, "jau,iub->ijab", L, L)],
        "r-of-bracket": [(1, "ijk,kab->ijab", c, R), (-1, "iau,jub->ijab", L, R),
                         (1, "jau,iub->ijab", R, L)],
        "r-absorbs-l": [(1, "jau,iub->ijab", R, L), (1, "jau,iub->ijab", R, R)],
    }
    return _report([w for label, terms in identities.items()
                    for w in residual_witnesses(contract(terms), rep.vdim, label, axes=2)])


def trivial_rep(g: LeibnizAlgebra) -> Representation:
    """(Q, 0, 0)."""
    return Representation(g, 1, {}, {})


def adjoint_rep(g: LeibnizAlgebra) -> Representation:
    """Left and right multiplications of g acting on itself."""
    n = g.dim
    # (l_i)[k][j] = (r_j)[k][i] = c[i][j][k]
    return Representation(g, n, {(i, k, j): v for (i, j, k), v in g.c.items()},
                          {(j, k, i): v for (i, j, k), v in g.c.items()})


def _require_left_only(rep: Representation, what: str) -> None:
    if rep.r:
        raise ValueError(f"{what} is defined only for representations with zero right action")


def dual_rep(rep: Representation) -> Representation:
    """Dual of (V, l, 0): x acts on V* by -l_x^T."""
    _require_left_only(rep, "the dual representation")
    return Representation(rep.algebra, rep.vdim,
                          {(i, b, a): -v for (i, a, b), v in rep.l.items()}, {})


def conjugation_rep(rep: Representation) -> Representation:
    """Commutator action A -> [l_x, A] on the m^2-dimensional matrix space.

    Basis: elementary matrices in row-major order, so a matrix A flattens to
    the vector (A[0][0], A[0][1], ..).  [l_i, E_cd] has entry
    (l_i)[a][c] delta(d, b) - delta(a, c) (l_i)[d][b] at (a, b): one
    contraction of the action tensor with the identity.
    """
    _require_left_only(rep, "the conjugation representation")
    m = rep.vdim
    eye = {(a, a): 1 for a in range(m)}
    t = contract([(1, "iac,db->iabcd", rep.l, eye), (-1, "ac,idb->iabcd", eye, rep.l)])
    return Representation(rep.algebra, m * m, {(i, a * m + b, c * m + d): v
                                               for (i, a, b, c, d), v in t.items()}, {})


# ---------------------------------------------------------------------------
# the coboundary operator

def coboundary_columns(rep: Representation, k: int,
                       columns: Optional[list[int]] = None) -> tuple[int, list[dict[int, int]]]:
    """The degree-k coboundary as integer columns over one common denominator.

    Returns (D, built): D is the lcm of every denominator in rep.l, rep.r
    and the structure constants, and built holds, for each index j of the
    increasing list ``columns`` (None names them all), the nonzero entries
    {row: D * d_k[row][j]} of column j of the coboundary in the
    lexicographic monomial basis, of shape (n^(k+1) m) x (n^k m).  Column
    j = R m + v is the coboundary of the basis cochain supported on the
    k-tuple of rank R with value e_v; a column not named is never built.
    It builds whatever it is asked to: its callers check the cap first.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    g = rep.algebra
    n, m = g.dim, rep.vdim
    (c, dc), (l, dl), (r, dr) = (_to_integers(t) for t in (g.c, rep.l, rep.r))
    den = lcm(dc, dl, dr)
    # lent[b] = [(s, a, D*(l_s)[a][b])] over the nonzero entries, the left
    # actions on e_b; rent likewise
    lent = [[] for _ in range(m)]
    rent = [[] for _ in range(m)]
    for ent, t, d in ((lent, l, dl), (rent, r, dr)):
        for (s, a, b), x in t.items():
            ent[b].append((s, a, x * (den // d)))
    # structure constants grouped by target index: target -> [(a, b, D*coeff)]
    by_target: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (a, b, t), w in c.items():
        by_target[t].append((a, b, w * (den // dc)))

    # A tuple T of rank R (its lexicographic position) is the base-n digits
    # of R, and T[q] = R // power[q+1] % n with power[q] = n^(k-q).  Putting
    # s into T before position q gives the (k+1)-tuple of rank
    # base[q] + s * power[q], with base[q] the rank when s is 0.  The action
    # terms put l_s before position q < k, with sign (-1)^q, or r_s last.
    power = [n ** (k - q) for q in range(k + 1)]
    actions = [((-1) ** q, lent) for q in range(k)] + [((-1) ** (k + 1), rent)]
    built: list[dict[int, int]] = []
    for R, named in groupby(range(n ** k * m) if columns is None else columns, lambda j: j // m):
        base = [R // p * p * n + R % p for p in power]
        # the bracket terms: [x_i, x_j] at slot j replaces T[slot] by b and
        # puts a before position q <= slot.  They act on the value alone, so
        # they are summed once, by row offset, for the named columns of T.
        terms: dict[int, int] = {}
        for slot in range(k):
            t = R // power[slot + 1] % n
            for a, b, w in by_target[t]:
                shift = (b - t) * power[slot + 1]
                for q in range(slot + 1):
                    rbase = (base[q] + a * power[q] + shift) * m
                    terms[rbase] = terms.get(rbase, 0) + (-w if q % 2 == 0 else w)
        for v in (j % m for j in named):
            acc = {rbase + v: w for rbase, w in terms.items() if w}
            for q, (sign, ent) in enumerate(actions):
                offset, step = base[q] * m, power[q] * m
                for s, a, x in ent[v]:
                    row = offset + s * step + a
                    acc[row] = acc.get(row, 0) + sign * x
            built.append({row: x for row, x in acc.items() if x})
    return den, built


def coboundary_matrix(rep: Representation, k: int,
                      cap: int = DEFAULT_CAP) -> Matrix:
    """Matrix of the degree-k coboundary in the lexicographic monomial basis,
    of shape (n^(k+1) m) x (n^k m): ``coboundary_columns`` laid out by rows
    and divided by their common denominator.  Refuses to build when a
    target dimension n^(j+1) m, j <= k, exceeds the cap.
    """
    n, m = rep.algebra.dim, rep.vdim
    _require_within_cap(n, m, k, cap)
    den, columns = coboundary_columns(rep, k)
    data: list[dict[int, Fraction]] = [{} for _ in range(n ** (k + 1) * m)]
    for col, entries in enumerate(columns):
        for row, val in entries.items():
            data[row][col] = Fraction(val, den)
    return Matrix(len(data), len(columns), data)


def coboundary(rep: Representation, f: Tensor) -> Tensor:
    """The coboundary of the k-cochain f, a ``linalg.Tensor`` of shape
    (n,)*k + (m,) keyed (t_1, .., t_k, v): the uncapped degree-k columns of
    ``coboundary_columns`` at the nonzero entries of f, and only those,
    times those entries.  A key is read as its row-major position: the
    entry at (t, v) is column R m + v, with R the rank of t, and row
    R' m + w is coordinate w at the (k+1)-tuple of rank R'."""
    n, m = rep.algebra.dim, rep.vdim
    k = len(f.shape) - 1
    if f.shape != (n,) * k + (m,):
        raise ValueError("cochain does not match the representation")
    shape = (n,) * (k + 1) + (m,)
    strides = [n ** (k - q) * m for q in range(k + 1)] + [1]  # f's shape has strides[1:]
    named = [sum(i * s for i, s in zip(key, strides[1:])) for key in f.keys()]
    den, columns = coboundary_columns(rep, k, named)
    entries, df = _to_integers(f)
    acc: dict[int, int] = {}
    for x, column in zip(entries.values(), columns):
        for row, w in column.items():
            acc[row] = acc.get(row, 0) + x * w
    return Tensor(shape, {tuple(row // s % d for s, d in zip(strides, shape)):
                          Fraction(x, den * df) for row, x in sorted(acc.items()) if x})


class DegreeData(NamedTuple):
    k: int
    dim_cochains: int
    rank_d: int
    dim_ker: int
    dim_h: int


class BettiReport(NamedTuple):
    """Per-degree dimensions of a coboundary complex."""
    degrees: tuple[DegreeData, ...]

    def dim_h(self, k: int) -> int:
        return self.degrees[k].dim_h


def _require_within_cap(n: int, m: int, k_max: int, cap: int) -> None:
    """Before anything is built, raise ResourceCapExceeded for the first
    degree k <= k_max with over cap target rows, n^(k+1) m, or else when the
    degrees, each handling (k+1)-tuples however few its rows, weigh over it
    together: max(m, 1) (k_max+1)(k_max+2)/2.  The rows never shrink with k
    and reach 2^(k+1) for n >= 2, so no degree past the bit length of the
    cap is the first over it."""
    for k in range(min(k_max, cap.bit_length()) + 1):
        if n ** (k + 1) * m > cap:
            raise ResourceCapExceeded(n ** (k + 1) * m, cap)
    weight = max(m, 1) * (k_max + 1) * (k_max + 2) // 2
    if weight > cap:
        raise ResourceCapExceeded(weight, cap, f"the {k_max + 1} degrees 0..{k_max}, "
                                  "of weight max(m, 1) (k_max+1)(k_max+2)/2 =")


def betti(rep: Representation, k_max: int,
          cap: int = DEFAULT_CAP) -> BettiReport:
    """Cohomology dimensions for degrees 0..k_max via exact rank-nullity;
    ValueError for k_max < 0.

    Every degree is checked against the cap before any is built, and the
    first one over it raises ResourceCapExceeded.  Then an algebra that
    fails the Leibniz identity, or a representation that fails its
    conditions, is refused (``algebra.require``).  The
    rank of d_k is taken on its integer columns from ``coboundary_columns``,
    as the rows of the integer matrix (D d_k)^T, so no Fraction matrix is
    built and d_k is never laid out by rows.

    The ranks are cleared: the elimination of d_(k-1) reports its pivot
    columns, coordinates of C^k on which im d_(k-1) projects isomorphically.
    Since d_k d_(k-1) = 0, d_k of each such coordinate is a combination of
    d_k on the other coordinates, so those rows of (D d_k)^T are never
    built: ``coboundary_columns`` is named only the others.  That d^2 = 0
    follows from the identities the refusal proves on the instance
    (Loday-Pirashvili, Math. Ann. 1993), once per value: g and rep keep
    their reports.  This holds for every complex here, the naive one
    included: it is the complex of the image representation, which the
    refusal checks like any other.
    """
    if k_max < 0:
        raise ValueError(f"degrees start at 0: k_max must be >= 0, got {k_max}")
    g = rep.algebra
    n, m = g.dim, rep.vdim
    _require_within_cap(n, m, k_max, cap)
    require(g, rep)
    ranks = []
    cleared: frozenset = frozenset()
    for k in range(k_max + 1):
        kept = coboundary_columns(rep, k, [j for j in range(n ** k * m) if j not in cleared])[1]
        pivots: list[int] = []
        ranks.append(rank(Matrix(len(kept), n ** (k + 1) * m, kept), pivots))
        cleared = frozenset(pivots)
    rows = []
    for k in range(k_max + 1):
        dim_c = n ** k * m
        dim_ker = dim_c - ranks[k]
        prev = ranks[k - 1] if k else 0
        dim_h = dim_ker - prev
        if dim_h < 0:
            raise AssertionError(f"negative cohomology dimension at degree {k}")
        rows.append(DegreeData(k, dim_c, ranks[k], dim_ker, dim_h))
    return BettiReport(tuple(rows))


# ---------------------------------------------------------------------------
# semidirect products and the Maurer-Cartan identity

def semidirect(g: LeibnizAlgebra, rep: Representation, mode: str) -> LeibnizAlgebra:
    """Leibniz structure on g (+) V:

        mode "lr": [x+u, y+v] = [x,y] + l_x v + r_y u
        mode "l0": [x+u, y+v] = [x,y] + l_x v

    g and rep are refused (``algebra.require``) in either mode unless they
    are a Leibniz algebra and a representation of it; then the product is
    Leibniz (Loday-Pirashvili, Math. Ann. 1993), which is checked on it as
    an invariant.
    """
    if mode not in ("lr", "l0"):
        raise ValueError("mode must be 'lr' or 'l0'")
    require(g, rep)
    n = g.dim
    c = dict(g.c)
    c.update(((i, n + b, n + w), v) for (i, w, b), v in rep.l.items())
    if mode == "lr":
        c.update(rbar(g, rep))
    out = LeibnizAlgebra(n + rep.vdim, c)
    if not out.verdict.holds:
        raise AssertionError("semidirect product of a representation failed the Leibniz identity")
    return out


def rbar(g: LeibnizAlgebra, rep: Representation) -> Tensor:
    """The right action as a 2-cochain on g (+) V, (x+u, y+v) -> r_y u: the
    tensor of shape (n+m,)*3 keyed (n+a, j, n+w) -> (r_j)[w][a]."""
    n, total = g.dim, g.dim + rep.vdim
    return sparse_tensor({(n + a, j, n + w): v for (j, w, a), v in rep.r.items()},
                         (total,) * 3, "rbar")


def maurer_cartan_residual(h: LeibnizAlgebra, r: Tensor) -> dict:
    """d r - [r, r]/2 for a 2-cochain r on h with values in h itself, d the
    coboundary of the adjoint representation of h; h is refused
    (``algebra.require``) unless it is a Leibniz algebra, since otherwise d
    is no differential.

    r is a tensor of shape (h.dim,)*3, keyed like the structure constants,
    or any mapping that ``linalg.sparse_tensor`` reads as one.
    As polynomials in the two, the residual is Leib(h + r) - Leib(h), with
    Leib the Leibniz residual (``algebra.leibniz_residual``): d r is its part
    linear in r and -[r, r]/2 = -r o r its part quadratic in r.  Since
    Leib(h) vanishes, the residual is the Leibniz residual of the deformed
    bracket h + r, keyed (i, j, k, t) with t the output coordinate.
    """
    require(h)
    r = sparse_tensor(r, (h.dim,) * 3, "cochain")
    return leibniz_residual(contract([(1, "ijt->ijt", h.c), (1, "ijt->ijt", r)]))


def maurer_cartan_check(g: LeibnizAlgebra, rep: Representation) -> IdentityReport:
    """Verify that the right action deforms the half-product semidirect algebra.

    Checks, exactly and on all basis tuples, that

        d rbar - [rbar, rbar]/2 = 0

    for the coboundary of the adjoint representation of the (l,0)-product.
    The (l,0)-bracket plus rbar is the (l,r)-bracket by construction (the
    two live on disjoint keys), so this is the Leibniz identity of the
    (l,r)-product, proven once.
    """
    total = g.dim + rep.vdim
    residual = maurer_cartan_residual(semidirect(g, rep, "l0"), rbar(g, rep))
    return _report(residual_witnesses(residual, total, "maurer-cartan"))


# ---------------------------------------------------------------------------
# cocycles

def cocycle_check(rep: Representation, f: Tensor) -> bool:
    """True iff the coboundary of the cochain f vanishes identically."""
    return not coboundary(rep, f)


def right_action_cochain(rep: Representation) -> Tensor:
    """The right action as a 1-cochain valued in gl(V), each matrix
    flattened row-major: the tensor of shape (n, m*m) keyed (i, a*m + b) ->
    (r_i)[a][b]."""
    n, m = rep.algebra.dim, rep.vdim
    return sparse_tensor({(i, a * m + b): v for (i, a, b), v in rep.r.items()},
                         (n, m * m), "right action cochain")
