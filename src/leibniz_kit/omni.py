"""Omni-Lie algebras, graph-induced brackets, naive representations and
their cohomology.

The omni algebra of V = Q^m lives on gl(V) (+) V with the (non-skew)
bracket

    [[A+u, B+v]] = [A, B] + Av,

a Leibniz algebra that plays the role of a general linear object: a naive
representation of g on V is an algebra homomorphism rho: g -> gl(V) (+) V,
equivalently a pair (phi, theta) with

    phi([x,y]) = [phi(x), phi(y)]        theta([x,y]) = phi(x) theta(y).

Cochains valued in the image of rho carry the naive coboundary: the
coboundary formula with omni multiplication by rho(x) in place of the
actions.  A homomorphism rho (``naive_check``) makes ker rho a two-sided
ideal and identifies the image with g / ker rho (Loday and Pirashvili, Math.
Ann. 1993), so the naive complex is the complex of the image
representation, the adjoint representation of g on that quotient:
``naive_coboundary(rho, f)`` is ``coboundary(image_representation(rho),
f)``, and the naive complex is one more ``coboundary_columns``.  One
reduction gives the quotient: (R, J) = ``linalg.reduced_rows`` of v ->
rho(e_v), with R the projection of g onto g / ker rho and rho(e_J) the
basis of the image, so ``image_representation`` contracts the structure
constants with R, with no omni bracket.  Its Betti numbers are ``betti`` of
the image representation, cleared like those of any classical complex.

The comparisons hold the naive numbers against the classical complex of
the matching representation.  For the adjoint and the trivial naive map
the image representation is that classical representation itself, so the
chain-level correspondence F -> rho o F, D^img_k E_k = E_{k+1} D^cl_k with
E = I, holds in every degree exactly when the two are equal: one exact
equality, after which the classical complex is ranked once.

A graph closes exactly when the bracket [u, v] = phi(u) v it induces on V
is Leibniz, so ``graph_check`` is the Leibniz residual of that bracket
(``algebra.leibniz_residual``), read transposed.  The component conditions
of a naive representation are ``linalg.contract`` sums, like every other
identity.

The omni algebra is its structure constants: ``omni_lie`` writes [E_ab,
E_cd] = d_bc E_ad - d_da E_cb and [E_ab, e_c] = d_bc e_a as one contraction,
with the matrix unit E_ab at p = a m + b and e_a at p = m^2 + a.  A vector
of gl(V) (+) V is the sparse 1-axis tensor {(p,): x}, and the bracket of two
is x.c.y.  The vectors rho(e_i) are the rows of the 2-axis tensor
``rho.rho_vectors``.
The reduction eliminates only the ambient coordinates some rho(e_i) holds,
so the naive image costs the supports of these vectors, not the ambient
dimension m^2+m.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional

from .algebra import (
    IdentityReport,
    LeibnizAlgebra,
    Refused,
    _report,
    leibniz_residual,
    require,
    residual_witnesses,
)
from .cohomology import (
    DEFAULT_CAP,
    BettiReport,
    Representation,
    _require_within_cap,
    adjoint_rep,
    betti,
    coboundary,
    conjugation_rep,
    trivial_rep,
)
from .linalg import (
    Frozen,
    Subspace,
    Tensor,
    contract,
    kernel_basis,
    reduced_rows,
    sparse_tensor,
)


# ---------------------------------------------------------------------------
# the omni algebra

def omni_lie(m: int) -> LeibnizAlgebra:
    """The omni algebra of Q^m as an (m^2+m)-dimensional Leibniz algebra,
    from its structure constants: [E_ab, E_cd] = d_bc E_ad - d_da E_cb and
    [E_ab, e_c] = d_bc e_a, with E_ab at a m + b and e_a at m^2 + a."""
    if type(m) is not int or m < 0:
        raise ValueError(f"omni algebra needs an int m >= 0, got {m!r}")
    m2 = m * m
    products = {(a * m + b, b * m + d, a * m + d): 1 for a, b, d in product(range(m), repeat=3)}
    actions = {(a * m + b, m2 + b, m2 + a): 1 for a, b in product(range(m), repeat=2)}
    out = LeibnizAlgebra(m2 + m, contract([(1, "ijk->ijk", products), (-1, "jik->ijk", products),
                                           (1, "ijk->ijk", actions)]))
    if not out.verdict.holds:
        raise AssertionError("omni bracket failed the Leibniz identity")
    return out


# ---------------------------------------------------------------------------
# graphs of maps V -> gl(V)

class GraphMap(Frozen):
    """A linear map phi: V -> gl(V), phi(u) = sum_a u_a phi_a.

    ``phi`` is the read-only sparse ``linalg.Tensor`` of shape (m, m, m),
    P[a,i,j] = (phi_a)[i][j] over the nonzero entries, the one stored form;
    the constructor takes that mapping or the dense nested sequences
    (``linalg.sparse_tensor``)."""

    __slots__ = ("vdim", "phi", "_verdict")
    noun = "a closed graph map"

    def __init__(self, vdim: int, phi):
        self._set(vdim, sparse_tensor(phi, (vdim,) * 3, "graph map"))

    @property
    def verdict(self) -> IdentityReport:
        """``graph_check`` of this map, run on first read and kept."""
        return self._derived("_verdict", graph_check)


def _induced_bracket(phi: GraphMap) -> dict:
    """The structure constants of [u, v] = phi(u) v on V: [e_i, e_j] =
    phi_i e_j has entry (phi_i)[k][j] at k."""
    return {(i, j, k): v for (i, k, j), v in phi.phi.items()}


def graph_check(phi: GraphMap) -> IdentityReport:
    """The closure condition [phi(u), phi(v)] = phi(phi(u) v) on basis pairs.
    The graph closes exactly when the induced bracket [u, v] = phi(u) v is
    Leibniz, and its defect at (i, j) is the Leibniz residual of that bracket
    at (i, j, b, a), read transposed; each witness carries the m x m defect."""
    residual = contract([(1, "ijba->ijab", leibniz_residual(_induced_bracket(phi)))])
    return _report(residual_witnesses(residual, phi.vdim, "graph", axes=2))


def induced_leibniz(phi: GraphMap) -> LeibnizAlgebra:
    """The bracket [u, v] = phi(u) v on V, defined when the graph closes
    (``algebra.require``)."""
    require(phi)
    out = LeibnizAlgebra(phi.vdim, _induced_bracket(phi))
    if not out.verdict.holds:
        raise AssertionError("graph-induced bracket failed the Leibniz identity")
    return out


# ---------------------------------------------------------------------------
# naive representations

def _rho_entries(n: int, m: int, phi: dict, theta: dict) -> Tensor:
    """rho(e_i) as row i of a sparse tensor of shape (n, m^2 + m): phi_i
    flattened row-major (p = a m + b), then theta_i (p = m^2 + a)."""
    out = {(i, a * m + b): v for (i, a, b), v in phi.items()}
    out.update(((i, m * m + a), v) for (i, a), v in theta.items())
    return Tensor((n, m * m + m), dict(sorted(out.items())))


class NaiveRepresentation(Frozen):
    """A linear map rho = phi + theta : g -> gl(V) (+) V.

    ``phi`` (shape n x m x m, P[i,a,b] = (phi_i)[a][b]) and ``theta``
    (shape n x m, T[i,a] = theta_i[a]) are read-only sparse
    ``linalg.Tensor``s, the gl(V) and V components of rho(e_i) and their
    one stored form; the constructor takes those mappings or the dense
    nested sequences (``linalg.sparse_tensor``).

    The constructor reduces the matrix of rho once, into the derived slot
    ``_reduced``: (R, J) = ``linalg.reduced_rows`` of v -> rho(e_v), so R
    is the projection of g onto g / ker rho and rho(e_v) = sum_a R[a, v]
    rho(e_(J_a)).  The image has the basis rho(e_J), and the cochains of
    the naive complex take their values in its coordinates.
    """

    __slots__ = ("algebra", "vdim", "phi", "theta", "_reduced", "_verdict")
    noun = "a naive representation"

    def __init__(self, algebra: LeibnizAlgebra, vdim: int, phi, theta):
        n = algebra.dim
        phi = sparse_tensor(phi, (n, vdim, vdim), "phi")
        theta = sparse_tensor(theta, (n, vdim), "theta")
        matrix = {(p, i): x for (i, p), x in _rho_entries(n, vdim, phi, theta).items()}
        self._set(algebra, vdim, phi, theta, reduced_rows(
            Tensor((vdim * vdim + vdim, n), dict(sorted(matrix.items())))))

    @property
    def verdict(self) -> IdentityReport:
        """``naive_check`` of this map, run on first read and kept."""
        return self._derived("_verdict", naive_check)

    @property
    def ambient_dim(self) -> int:
        return self.vdim * self.vdim + self.vdim

    @property
    def rho_vectors(self) -> Tensor:
        """rho(e_i) as row i, ``rho_vectors[i]``, of the read-only sparse
        tensor of shape (n, ambient_dim), built from phi and theta on each
        read."""
        return _rho_entries(self.algebra.dim, self.vdim, self.phi, self.theta)


def naive_check(rho: NaiveRepresentation) -> IdentityReport:
    """Homomorphism test: rho([x,y]) = [[rho(x), rho(y)]] split into its gl
    part, phi([x,y]) = [phi(x), phi(y)] (con1), and its V part,
    theta([x,y]) = phi(x) theta(y) (con2).  Each contracts c with
    P[i,a,b] = (phi_i)[a][b] and T[i,a] = theta_i[a]; witnesses come grouped
    by label (con1, then con2), each in lexicographic order.
    ``image_representation`` reads it before its contractions."""
    c, P, T = rho.algebra.c, rho.phi, rho.theta
    con1 = contract([(1, "ijk,kab->ijab", c, P), (-1, "iau,jub->ijab", P, P),
                     (1, "jau,iub->ijab", P, P)])
    con2 = contract([(1, "ijk,ka->ija", c, T), (-1, "iab,jb->ija", P, T)])
    return _report(residual_witnesses(con1, rho.vdim, "con1", axes=2)
                   + residual_witnesses(con2, rho.vdim, "con2"))


def trivial_naive_space(g: LeibnizAlgebra) -> Subspace:
    """Functionals killing every bracket, the kernel of the rows c[i,j,k] at
    (i n + j, k): the V parts of naive representations on Q with zero gl part."""
    n = g.dim
    return kernel_basis(Tensor((n * n, n), {(i * n + j, k): x for (i, j, k), x in g.c.items()}))


def trivial_naive_rep(g: LeibnizAlgebra, xi) -> NaiveRepresentation:
    """The naive representation on Q determined by a functional xi killing
    [g,g], a sparse vector {(i,): x} (or a dense sequence) of length dim g;
    refused (``algebra.require``) unless it is a naive representation, that
    is, unless xi kills [g,g]."""
    xi = sparse_tensor(xi, (g.dim,), "functional")
    rho = NaiveRepresentation(g, 1, {}, {(i, 0): x for (i,), x in xi.items()})
    require(rho)
    return rho


def adjoint_naive(g: LeibnizAlgebra) -> NaiveRepresentation:
    """rho(x) = (left multiplication by x) + x, acting on g itself; g is
    refused (``algebra.require``) unless it is a Leibniz algebra."""
    require(g)
    n = g.dim
    rho = NaiveRepresentation(g, n, adjoint_rep(g).l, {(i, i): 1 for i in range(n)})
    if not rho.verdict.holds:
        raise AssertionError("adjoint naive map is not a homomorphism")
    if len(rho._reduced[1]) != n:
        raise AssertionError(f"adjoint naive image has dim {len(rho._reduced[1])}, expected {n}")
    return rho


def naive_from_rep(rep: Representation) -> NaiveRepresentation:
    """Package a classical representation (V, l, r) as a naive representation
    on the matrix space V* (x) V: the gl part acts by [l_x, .] and the V part
    is the flattened right action; refused (``algebra.require``) unless rep
    is a representation of a Leibniz algebra."""
    require(rep.algebra, rep)
    m = rep.vdim
    conj = conjugation_rep(Representation(rep.algebra, m, rep.l, {}))
    theta = {(i, a * m + b): v for (i, a, b), v in rep.r.items()}
    rho = NaiveRepresentation(rep.algebra, m * m, conj.l, theta)
    if not rho.verdict.holds:
        raise AssertionError("induced naive map is not a homomorphism")
    return rho


# ---------------------------------------------------------------------------
# the naive complex

def image_representation(rho: NaiveRepresentation) -> Representation:
    """The action of g on the image of rho by left/right omni multiplication,
    in the basis rho(e_J); refused (``algebra.require``) unless rho is a
    homomorphism.

    Then ker rho is a two-sided ideal and this is the adjoint representation
    of g on g / ker rho: [[rho(e_i), rho(e_(J_b))]] = rho([e_i, e_(J_b)]),
    and R writes rho(e_k) in the basis, so each action is one contraction:

        l_i[a,b] = sum_k R[a,k] c[i,J_b,k]      r_i[a,b] = sum_k R[a,k] c[J_b,i,k].

    rho keeps its ``verdict``, and the result is a new value, which
    ``betti``'s refusal checks once.
    """
    require(rho)
    g = rho.algebra
    R, pivots = rho._reduced
    at = {j: b for b, j in enumerate(pivots)}
    left = {(i, at[j], k): x for (i, j, k), x in g.c.items() if j in at}
    right = {(at[j], i, k): x for (j, i, k), x in g.c.items() if j in at}
    return Representation(g, len(pivots), contract([(1, "ak,ibk->iab", R, left)]),
                          contract([(1, "ak,bik->iab", R, right)]))


def to_naive_cochain(rho: NaiveRepresentation, ambient_values, degree: int) -> Tensor:
    """An image-valued cochain tensor in the basis rho(e_J), from its ambient
    gl(V)(+)V values on the n^degree basis tuples in lexicographic order,
    each a sparse vector {(p,): x} (or a dense sequence).  In one
    ``reduced_rows`` of [rho | values], a value escapes the image when its
    column is a pivot, and otherwise that column of R holds its coordinates."""
    n = rho.algebra.dim
    values = [sparse_tensor(v, (rho.ambient_dim,), "vector") for v in ambient_values]
    if len(values) != n ** degree:
        raise ValueError(f"{len(values)} values for the {n ** degree} tuples of degree {degree}")
    columns = {(p, i): x for (i, p), x in rho.rho_vectors.items()}
    columns.update(((p, n + t), x) for t, v in enumerate(values) for (p,), x in v.items())
    matrix = Tensor((rho.ambient_dim, n + len(values)), dict(sorted(columns.items())))
    R, pivots = reduced_rows(matrix)
    if pivots and pivots[-1] >= n:
        raise ValueError("cochain value escapes the image of the representation")
    tuples = list(product(range(n), repeat=degree))
    return sparse_tensor({(*tuples[j - n], a): x for (a, j), x in R.items() if j >= n},
                         (n,) * degree + (len(pivots),), "cochain")


def naive_coboundary(rho: NaiveRepresentation, f: Tensor) -> Tensor:
    """The naive coboundary of an image-valued cochain tensor, in image
    coordinates: the coboundary of the image representation."""
    return coboundary(image_representation(rho), f)


def naive_betti(rho: NaiveRepresentation, k_max: int,
                cap: int = DEFAULT_CAP) -> BettiReport:
    """Cohomology of the naive complex: ``betti`` of the induced
    representation on the image, whose refusal checks that representation
    and whose ranks are cleared like those of every other complex.  The cap
    is checked on the image dimension before the image representation is
    built."""
    return betti(_image_within_cap(rho, k_max, cap), k_max, cap)


def _image_within_cap(rho: NaiveRepresentation, k_max: int,
                      cap: int) -> Representation:
    _require_within_cap(rho.algebra.dim, len(rho._reduced[1]), k_max, cap)
    return image_representation(rho)


def matching_naive_image(g: LeibnizAlgebra, choice, k_max: int,
                         cap: int = DEFAULT_CAP) -> Optional[Representation]:
    """The image representation of the naive representation that goes with
    a classical choice, or None when that naive complex is zero; every
    degree to k_max is checked against the cap before the image
    representation is built.

    ``choice`` is "trivial", "adjoint" or a ``Representation`` of g:
    the rank-one naive map of the first functional of
    ``trivial_naive_space`` (None when [g,g] = g, where the zero map is the
    only one), ``adjoint_naive`` (whose image has dimension n, so the cap is
    checked before the adjoint naive map is built), or ``naive_from_rep``.
    """
    if choice == "trivial":
        space = trivial_naive_space(g)
        if not space.dim:
            return None
        rho = trivial_naive_rep(g, {(i,): x for (u, i), x in space.basis.items() if u == 0})
    elif choice == "adjoint":
        _require_within_cap(g.dim, g.dim, k_max, cap)
        rho = adjoint_naive(g)
    else:
        rho = naive_from_rep(choice)
    return _image_within_cap(rho, k_max, cap)


# ---------------------------------------------------------------------------
# degree-by-degree comparisons

class ComparisonRow(NamedTuple):
    k: int
    dim_naive: int
    dim_classical: int
    equal: bool


class ComparisonReport(NamedTuple):
    """Naive-vs-classical cohomology dimensions.  Degree 0 is reported for
    information only; the headline equality is over degrees >= 1."""

    rows: tuple[ComparisonRow, ...]
    side_checks_ok: bool
    notes: tuple[str, ...]

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows if r.k >= 1)


def _require_comparison_degree(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"the comparison starts at degree 1: k_max must be >= 1, got {k_max}")


def _compare(naive: Optional[Representation], classical: Representation, k_max: int,
             cap: int) -> ComparisonReport:
    """The naive Betti numbers, of the image representation ``naive`` (None
    for the zero complex of ``matching_naive_image``), against those of
    ``classical``: the one place that builds a ``ComparisonReport``.

    Where the two representations are equal, the correspondence F -> rho o F
    with E = I, D^img_k E_k = E_(k+1) D^cl_k, holds in every degree, so the
    two complexes are isomorphic and the classical one is ranked once.
    Otherwise ``side_checks_ok`` is False with a note and both are ranked.
    """
    dims = [d.dim_h for d in betti(classical, k_max, cap).degrees]
    if naive is None:
        naive_dims, ok, notes = [0] * len(dims), True, (
            "derived subalgebra is all of g; the zero map is the only "
            "rank-one naive representation and its complex vanishes",)
    elif naive == classical:
        naive_dims, ok, notes = dims, True, ()
    else:
        naive_dims = [d.dim_h for d in betti(naive, k_max, cap).degrees]
        ok, notes = False, ("the image representation differs from the classical one, so "
                            "F -> rho o F is no chain map",)
    return ComparisonReport(tuple(ComparisonRow(k, a, b, a == b) for k, (a, b)
                                  in enumerate(zip(naive_dims, dims))), ok, notes)


def compare_trivial(g: LeibnizAlgebra, k_max: int,
                    cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Naive cohomology of a rank-one naive representation with zero gl part
    against the cohomology of the trivial representation (Q, 0, 0).

    For xi != 0 the image representation is the trivial one: R = xi / xi_j
    on J = (j,), and R kills [g, g].  When [g,g] = g the only such naive map
    is zero and its complex vanishes; the classical side is then expected
    to vanish in degrees >= 1 as well.  ValueError for k_max < 1.
    """
    _require_comparison_degree(k_max)
    return _compare(matching_naive_image(g, "trivial", k_max, cap), trivial_rep(g), k_max, cap)


def compare_adjoint(g: LeibnizAlgebra, k_max: int,
                    cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Naive cohomology of the adjoint naive representation against the
    classical adjoint cohomology, with the chain-level correspondence
    F -> rho o F proven in every degree: rho is injective, so R = I, the
    embedding E_k is the identity, and D^img_k E_k = E_{k+1} D^cl_k holds
    exactly when the image representation equals the adjoint one
    (``_compare``).  The cap is checked before anything is built
    (``matching_naive_image``): the image has dimension n, so both complexes
    have n^(k+1) n target rows in degree k.  ValueError for k_max < 1.
    """
    _require_comparison_degree(k_max)
    return _compare(matching_naive_image(g, "adjoint", k_max, cap), adjoint_rep(g), k_max, cap)


def tautological_rep(phi: GraphMap) -> NaiveRepresentation:
    """u -> phi(u) + u over the algebra the graph induces on V."""
    g = induced_leibniz(phi)
    m = phi.vdim
    rho = NaiveRepresentation(g, m, phi.phi, {(i, i): 1 for i in range(m)})
    if not rho.verdict.holds:
        raise AssertionError("tautological graph map is not a homomorphism")
    return rho


def graph_rep_cohomology(rho: NaiveRepresentation, phi: GraphMap, k_max: int,
                         cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Naive cohomology of a representation landing in a closed graph against
    the classical complex of the induced actions

        l_x u = phi(theta(x)) u          r_x u = phi(u) theta(x).

    A graph that does not close is refused (``algebra.require``).  So, with
    ``algebra.Refused`` in the same words ("input is not a naive
    representation into the graph; first witness at ..."), is a rho on
    another space, the witness naming both dimensions, and a rho whose
    image escapes the graph, the witness being the least (i, u, v) at which
    phi(theta(e_i)) and rho(e_i) differ in gl(V).  The image
    representation is checked against the cap before it is built, and
    ``image_representation`` refuses a map that is no homomorphism.  Then
    the induced actions are a representation, which the ``betti`` of
    ``_compare`` checks, like any other.  ``_compare`` holds the two: for
    ``tautological_rep`` the two are equal and the classical complex is
    ranked once; where they differ (theta = 0 over sl2: an image of dim 0
    against a module of dim 2) ``side_checks_ok`` is False with its note.
    ValueError for k_max < 1.
    """
    _require_comparison_degree(k_max)
    require(phi)
    if phi.vdim != rho.vdim:
        raise Refused("input is not a naive representation into the graph; first witness at "
                      f"vdim {rho.vdim}, not the graph's {phi.vdim}")
    g = rho.algebra
    escapes = contract([(1, "ia,auv->iuv", rho.theta, phi.phi), (-1, "iuv->iuv", rho.phi)])
    if escapes:
        raise Refused("input is not a naive representation into the graph; first witness at "
                      f"{min(escapes)}")
    image = _image_within_cap(rho, k_max, cap)
    # the escape check has proven l_x = phi(theta(x)) = rho.phi[x]
    rs = contract([(1, "auv,iv->iua", phi.phi, rho.theta)])
    return _compare(image, Representation(g, rho.vdim, rho.phi, rs), k_max, cap)
