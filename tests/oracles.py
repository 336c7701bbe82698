"""Literal per-tuple formulas, as test oracles.

Each function pushes basis vectors through the bilinear brackets one tuple
at a time, exactly as the formulas are written, and reports witnesses in
nested-loop order, grouped by label.  The library evaluates the same
identities as sparse tensor contractions and the coboundary as sparse
integer columns; the differential tests compare the two.

The adjoint representation, the left multiplication matrix, antisymmetry
and the skew bracket are here as walks over all n^3 entries of the dense
structure tensor, which each oracle builds once with ``dense``; the library
reads them off its sparse form.  The
conjugation representation is here as a loop over matrix entries, and the
closed form of the Jacobiator as nested brackets of basis vectors; the
library contracts sparse tensors for both.

The dense cochain algebra lives here too.  The library stores a cochain
only as a sparse tensor; here a ``Cochain`` is a dense record of its values
on all basis tuples (``cochain_tensor`` and ``dense_cochain`` convert), with
sums, multiples and multilinear evaluation, shuffles, the circle product
and the graded bracket (Balavoine, "Deformations of algebras over a quadratic
operad", 1997), with which the Maurer-Cartan identity is stated.  So do the
dense matrix forms of the graph closure condition, the naive-representation
conditions and the chain-level adjoint correspondence D^img E = E D^cl.

The library stores every action (of a representation, a graph map or a
naive representation) and the map l1 of a two-term algebra only as a sparse
tensor.  ``matrices`` and ``matrix`` give the dense matrix view of one, as
the formulas write it, for these oracles and for the tests; the sums and
linear combinations of matrices the formulas need are here as well, and the
dense ``Matrix`` constructors (``from_rows``, ``from_cols``, ``identity``),
products (``matmul``, ``mv``), ``transpose`` and zero test (``is_zero``)
the tests write matrices with.  The library's one product is
``linalg.contract``; a ``Matrix`` there has no arithmetic.

The library's vectors are sparse too: {(a,): x}, and a family of them (a
``Subspace.basis``, the rho(e_i) of a naive representation) one 2-axis
tensor.  The oracles keep dense vectors of their own (``vzero``,
``vaddto``, ``viszero``) and the bracket of g on them (``bracket``),
read a subspace as dense rows (``basis_rows``, ``basis_matrix``) and
bracket in the omni algebra by the matrix formula AB - BA + Av
(``omni_bracket``); the library has no element-wise omni bracket, only
the structure constants of ``omni_lie``, which the tests hold to it.

The image representation of a naive representation is here as the direct
construction: rho(e_i) omni-multiplied with each image basis vector
rho(e_j), j in J, by that matrix formula, and solved for in the basis
rho(e_J) (``image_basis``).  The library contracts the
structure constants with the reduction of rho instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from leibniz_kit import (
    GraphMap,
    IdentityReport,
    LeibnizAlgebra,
    Lie2Algebra,
    Matrix,
    NaiveRepresentation,
    Representation,
    Subspace,
    Witness,
    coboundary_matrix,
    left_center,
    semidirect,
)
from leibniz_kit.algebra import dense
from leibniz_kit.linalg import (
    HALF,
    ONE,
    ZERO,
    Tensor,
    freeze,
    solve,
    sparse,
    sparse_tensor,
)


def vzero(n: int) -> list[Fraction]:
    return [ZERO] * n


def vaddto(acc: list[Fraction], c, u) -> None:
    """acc += c*u in place."""
    if c:
        for i, a in enumerate(u):
            if a:
                acc[i] += c * a


def viszero(u) -> bool:
    return all(not a for a in u)


def vadd(u, v) -> list[Fraction]:
    return [a + b for a, b in zip(u, v)]


def vsub(u, v) -> list[Fraction]:
    return [a - b for a, b in zip(u, v)]


# ---------------------------------------------------------------------------
# the dense matrix view of sparse action tensors

def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [{} for _ in range(rows)])


def from_rows(rows) -> Matrix:
    """The matrix with the given dense rows."""
    rows = [list(map(Fraction, r)) for r in rows]
    cols = len(rows[0]) if rows else 0
    if any(len(r) != cols for r in rows):
        raise ValueError("ragged rows")
    return Matrix(len(rows), cols, [{j: v for j, v in enumerate(r) if v} for r in rows])


def from_cols(n: int, cols) -> Matrix:
    """The n x len(cols) matrix whose j-th column is the dense vector cols[j]."""
    return Matrix(n, len(cols), [{j: Fraction(col[i]) for j, col in enumerate(cols) if col[i]}
                                 for i in range(n)])


def identity(n: int) -> Matrix:
    return Matrix(n, n, [{i: ONE} for i in range(n)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, row by row."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    data = []
    for i in range(a.rows):
        acc: dict = {}
        for k, x in a.row_items(i):
            for j, y in b.row_items(k):
                acc[j] = acc.get(j, ZERO) + x * y
        data.append(acc)
    return Matrix(a.rows, b.cols, data)


def transpose(mat: Matrix) -> Matrix:
    data: list[dict] = [{} for _ in range(mat.cols)]
    for i in range(mat.rows):
        for j, v in mat.row_items(i):
            data[j][i] = v
    return Matrix(mat.cols, mat.rows, data)


def is_zero(mat: Matrix) -> bool:
    return mat.nnz() == 0


def tensor(mat: Matrix) -> Tensor:
    """The 2-axis tensor {(i, j): entry} of a matrix, the form
    ``kernel_basis`` takes."""
    return sparse_tensor({(i, j): v for i in range(mat.rows) for j, v in mat.row_items(i)},
                         mat.shape, "matrix")


def to_rows(mat: Matrix) -> list[list[Fraction]]:
    return [[mat.entry(i, j) for j in range(mat.cols)] for i in range(mat.rows)]


def mv(mat: Matrix, x) -> list[Fraction]:
    """The product of a matrix and a dense vector."""
    if len(x) != mat.cols:
        raise ValueError(f"vector length {len(x)} != cols {mat.cols}")
    return [sum((v * x[j] for j, v in mat.row_items(i)), ZERO) for i in range(mat.rows)]


def vector(v, n: int) -> list[Fraction]:
    """The dense form of a sparse vector {(a,): x} of length n."""
    return list(dense(v, (n,)))


def basis_rows(space: Subspace) -> list[list[Fraction]]:
    """The basis vectors of a subspace, dense."""
    return [list(row) for row in dense(space.basis, space.basis.shape)]


def basis_matrix(space: Subspace) -> Matrix:
    """ambient_dim x dim, the columns the basis vectors."""
    return from_cols(space.ambient_dim, basis_rows(space))


def contains(space: Subspace, v) -> bool:
    """Whether the dense vector v lies in the subspace, by a fresh elimination."""
    return solve(basis_matrix(space), list(v)) is not None


def omni_bracket(m: int, x, y) -> list[Fraction]:
    """[[A+u, B+v]] = AB - BA + Av on dense vectors of gl(V) (+) V, the gl
    part row-major, by the matrix formula.  Only the nonzero entries of A
    and B are multiplied: each row of a product walks the entries of the
    left factor's row, and for each entry (r, t) the row t of the right
    factor."""
    a, b = ([[(c, z[r * m + c]) for c in range(m) if z[r * m + c]] for r in range(m)]
            for z in (x, y))
    out = [ZERO] * (m * m + m)
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        for r in range(m):
            for t, p in left[r]:
                for c, q in right[t]:
                    out[r * m + c] += sign * p * q
    for r in range(m):
        for t, p in a[r]:
            out[m * m + r] += p * y[m * m + t]
    return out


def matrix(t) -> Matrix:
    """The matrix whose entry (a, b) is t[a, b], for a tensor of shape
    (rows, cols) such as ``Lie2Algebra.l1``."""
    rows, cols = t.shape
    data = [{} for _ in range(rows)]
    for (a, b), v in t.items():
        data[a][b] = v
    return Matrix(rows, cols, data)


def matrices(t) -> tuple:
    """One matrix per index i, with entry (a, b) the entry t[i, a, b], for a
    tensor of shape (count, rows, cols): the actions of a ``Representation``,
    ``GraphMap`` or ``NaiveRepresentation`` as they are written by hand."""
    count, rows, cols = t.shape
    data = [[{} for _ in range(rows)] for _ in range(count)]
    for (i, a, b), v in t.items():
        data[i][a][b] = v
    return tuple(Matrix(rows, cols, d) for d in data)


def action_tensor(mats) -> dict:
    """{(i, a, b): entry (a, b) of mats[i]} over the nonzero entries: the
    inverse of ``matrices``."""
    return {(i, a, b): v for i, mat in enumerate(mats)
            for a in range(mat.rows) for b, v in mat.row_items(a)}


def scaled(t, c) -> dict:
    """c times a sparse tensor, entry by entry."""
    return {key: c * v for key, v in t.items()}


def column(mat: Matrix, j: int) -> list[Fraction]:
    return [mat.entry(i, j) for i in range(mat.rows)]


def linear_combination(coeffs, mats, shape: tuple) -> Matrix:
    """sum_i coeffs[i] mats[i], entry by entry; the zero matrix of the given
    shape when there are no terms."""
    data = [{} for _ in range(shape[0])]
    for c, mat in zip(coeffs, mats):
        if mat.shape != shape:
            raise ValueError(f"shape mismatch {mat.shape} vs {shape}")
        for acc, row in zip(data, mat._data):
            for j, v in row.items():
                acc[j] = acc.get(j, ZERO) + c * v
    return Matrix(shape[0], shape[1], data)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return linear_combination((ONE, ONE), (a, b), a.shape)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return linear_combination((ONE, -ONE), (a, b), a.shape)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(matmul(a, b), matmul(b, a))


def basis(n: int, i: int) -> list[Fraction]:
    return [Fraction(int(j == i)) for j in range(n)]


def bracket(g: LeibnizAlgebra, x, y) -> list[Fraction]:
    """Bilinear extension of the structure constants to dense coordinate
    vectors; row i of ``g.c`` is read for each nonzero x[i]."""
    n = g.dim
    if len(x) != n or len(y) != n:
        raise ValueError(f"vectors must have length {n}")
    out = vzero(n)
    for i, xi in enumerate(x):
        if xi:
            for (j, k), v in g.c[i].items():
                if y[j]:
                    out[k] += xi * y[j] * v
    return out


def _report(witnesses) -> IdentityReport:
    return IdentityReport(not witnesses, tuple(witnesses))


def _add(acc, sign, v):
    for t, x in enumerate(v):
        acc[t] += sign * x


def apply_bilinear(tensor, x, y) -> list[Fraction]:
    """Bilinear extension of a basis-indexed tensor t[i][j] -> vector."""
    n = len(tensor)
    out = vzero(len(tensor[0][0]) if n else 0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                vaddto(out, xi * yj, tensor[i][j])
    return out


def apply_trilinear(table, x, y, z) -> list[Fraction]:
    n = len(table)
    out = vzero(len(table[0][0][0]) if n else 0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, zk in enumerate(z):
                    vaddto(out, xi * yj * zk, table[i][j][k])
    return out


def skew_bracket(g: LeibnizAlgebra) -> tuple:
    """<<e_i, e_j>> = ([e_i,e_j] - [e_j,e_i]) / 2, entry by entry."""
    n = g.dim
    c = dense(g.c, (n,) * 3)
    return tuple(
        tuple(tuple(HALF * (c[i][j][k] - c[j][i][k]) for k in range(n))
              for j in range(n))
        for i in range(n))


def is_lie(g: LeibnizAlgebra) -> bool:
    n = g.dim
    c = dense(g.c, (n,) * 3)
    return all(c[i][j][k] == -c[j][i][k]
               for i in range(n) for j in range(n) for k in range(n))


def left_multiplication_matrix(g: LeibnizAlgebra) -> Matrix:
    """The n^2 x n matrix of x -> ([x, e_j] for all j), rows indexed by (j, k)."""
    n = g.dim
    c = dense(g.c, (n,) * 3)
    data = []
    for j in range(n):
        for k in range(n):
            data.append({i: c[i][j][k] for i in range(n) if c[i][j][k]})
    return Matrix(n * n, n, data)


def adjoint_rep(g: LeibnizAlgebra) -> Representation:
    """(l_i)[k][j] = c[i][j][k] and (r_i)[k][j] = c[j][i][k]."""
    n = g.dim
    c = dense(g.c, (n,) * 3)
    ls = [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    rs = [[[c[j][i][k] for j in range(n)] for k in range(n)] for i in range(n)]
    return Representation(g, n, ls, rs)


def conjugation_rep(rep: Representation) -> Representation:
    """A -> [l_x, A] on row-major flattened m x m matrices, entry by entry:
    column (c, d) holds l_x E_cd - E_cd l_x."""
    m = rep.vdim
    m2 = m * m
    ls = []
    for li in matrices(rep.l):
        data = [dict() for _ in range(m2)]
        for c in range(m):
            for d in range(m):
                col = c * m + d
                for a in range(m):
                    v = li.entry(a, c)
                    if v:
                        row = a * m + d
                        data[row][col] = data[row].get(col, ZERO) + v
                for b in range(m):
                    v = li.entry(d, b)
                    if v:
                        row = c * m + b
                        data[row][col] = data[row].get(col, ZERO) - v
        ls.append(Matrix(m2, m2, data))
    return Representation(rep.algebra, m2, action_tensor(ls), {})


def jacobiator_direct(g: LeibnizAlgebra, x, y, z) -> list[Fraction]:
    """Cyclic sum of nested skew brackets."""
    s = skew_bracket(g)
    out = apply_bilinear(s, x, apply_bilinear(s, y, z))
    _add(out, 1, apply_bilinear(s, y, apply_bilinear(s, z, x)))
    _add(out, 1, apply_bilinear(s, z, apply_bilinear(s, x, y)))
    return out


def shuffles_by_filter(k: int, q: int) -> list[tuple[tuple[int, ...], int]]:
    """(k,q)-shuffles by filtering all permutations, signs by inversion count."""
    total = k + q
    out = []
    for perm in itertools.permutations(range(1, total + 1)):
        if any(perm[i] > perm[i + 1] for i in range(k - 1)):
            continue
        if any(perm[i] > perm[i + 1] for i in range(k, total - 1)):
            continue
        inv = sum(1 for i in range(total) for j in range(i + 1, total)
                  if perm[i] > perm[j])
        out.append((perm, -1 if inv % 2 else 1))
    return out


def coboundary(g: LeibnizAlgebra, left, right, values, k: int, m: int) -> list[list[Fraction]]:
    """The coboundary formula literally on every basis (k+1)-tuple.

    ``values`` holds the k-cochain's values on the n^k basis tuples in
    lexicographic order, each of length m; ``left(s, v)`` and ``right(s, v)``
    act on a value v by the basis element e_s.  With the actions of a
    representation this is the classical coboundary

        d c(x_1..x_{k+1}) = sum_{i<=k} (-1)^{i+1} l_{x_i} c(..^x_i..)
                            + (-1)^{k+1} r_{x_{k+1}} c(x_1..x_k)
                            + sum_{i<j} (-1)^i c(..^x_i.., [x_i,x_j] at slot j, ..);

    with omni multiplication by rho(e_s) on ambient values it is the naive
    one.  Returns the n^(k+1) values of d c in lexicographic order.
    """
    n = g.dim
    c = dense(g.c, (n,) * 3)

    def at(tup):
        r = 0
        for t in tup:
            r = r * n + t
        return values[r]

    out = []
    for S in itertools.product(range(n), repeat=k + 1):
        acc = vzero(m)
        for i1 in range(1, k + 1):
            _add(acc, (-1) ** (i1 + 1), left(S[i1 - 1], at(S[:i1 - 1] + S[i1:])))
        _add(acc, (-1) ** (k + 1), right(S[k], at(S[:k])))
        for i1 in range(1, k + 1):
            for j1 in range(i1 + 1, k + 2):
                reduced = S[:i1 - 1] + S[i1:]
                slot = j1 - 2
                for t, w in enumerate(c[S[i1 - 1]][S[j1 - 1]]):
                    if w:
                        arg = reduced[:slot] + (t,) + reduced[slot + 1:]
                        _add(acc, (-1) ** i1 * w, at(arg))
        out.append(acc)
    return out


def check_leibniz(g: LeibnizAlgebra) -> IdentityReport:
    n = g.dim
    e = [basis(n, i) for i in range(n)]
    witnesses = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = bracket(g, e[i], bracket(g, e[j], e[k]))
                _add(d, -1, bracket(g, bracket(g, e[i], e[j]), e[k]))
                _add(d, -1, bracket(g, e[j], bracket(g, e[i], e[k])))
                if not viszero(d):
                    witnesses.append(Witness((i, j, k), tuple(d), "leibniz"))
    return _report(witnesses)


def square_in_center_check(g: LeibnizAlgebra) -> IdentityReport:
    n = g.dim
    c = dense(g.c, (n,) * 3)
    witnesses = []
    for i in range(n):
        for j in range(n):
            sq = vadd(c[i][j], c[j][i])
            for k in range(n):
                d = bracket(g, sq, basis(n, k))
                if not viszero(d):
                    witnesses.append(Witness((i, j, k), tuple(d), "square-center"))
    return _report(witnesses)


def jacobiator_closed(g: LeibnizAlgebra, x, y, z) -> list[Fraction]:
    """([[z,y],x] + [[x,z],y] + [[y,x],z]) / 4, equal to the cyclic Jacobiator."""
    out = bracket(g, bracket(g, z, y), x)
    _add(out, 1, bracket(g, bracket(g, x, z), y))
    _add(out, 1, bracket(g, bracket(g, y, x), z))
    return [v / 4 for v in out]


def jacobiator_table(g: LeibnizAlgebra) -> list:
    n = g.dim
    e = [basis(n, i) for i in range(n)]
    return [[[jacobiator_closed(g, e[i], e[j], e[k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _antisymmetry(t, n: int, label: str) -> list[Witness]:
    witnesses = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for a, b, c in ((j, i, k), (i, k, j)):
                    d = vadd(t[i][j][k], t[a][b][c])
                    if not viszero(d):
                        witnesses.append(Witness(((i, j, k), (a, b, c)), tuple(d), label))
    return witnesses


def check_jacobiator_identities(g: LeibnizAlgebra) -> IdentityReport:
    n = g.dim
    s = skew_bracket(g)
    jt = jacobiator_table(g)
    e = [basis(n, i) for i in range(n)]
    witnesses = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = vsub(jacobiator_direct(g, e[i], e[j], e[k]), jt[i][j][k])
                if not viszero(d):
                    witnesses.append(Witness((i, j, k), tuple(d), "direct-vs-closed"))
    witnesses += _antisymmetry(jt, n, "antisymmetry")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    d = bracket(g, jt[i][j][k], e[l])
                    if not viszero(d):
                        witnesses.append(Witness((i, j, k, l), tuple(d), "center"))

    def sb(x, y):
        return apply_bilinear(s, x, y)

    def jac(x, y, z):
        return apply_trilinear(jt, x, y, z)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    x, y, z, w = e[i], e[j], e[k], e[l]
                    acc = sb(x, jac(y, z, w))
                    _add(acc, -1, sb(y, jac(x, z, w)))
                    _add(acc, 1, sb(z, jac(x, y, w)))
                    _add(acc, -1, sb(w, jac(x, y, z)))
                    _add(acc, -1, jac(sb(x, y), z, w))
                    _add(acc, 1, jac(sb(x, z), y, w))
                    _add(acc, -1, jac(sb(x, w), y, z))
                    _add(acc, -1, jac(sb(y, z), x, w))
                    _add(acc, 1, jac(sb(y, w), x, z))
                    _add(acc, -1, jac(sb(z, w), x, y))
                    if not viszero(acc):
                        witnesses.append(Witness((i, j, k, l), tuple(acc), "ten-term"))
    return _report(witnesses)


def build_lie2(g: LeibnizAlgebra) -> Lie2Algebra:
    n = g.dim
    z = left_center(g)
    d1 = z.dim

    zb, zrows = basis_matrix(z), basis_rows(z)

    def coords(v):
        x = solve(zb, v)
        if x is None:
            raise ValueError("not in the left center")
        return tuple(x)

    l2_01 = [[coords([HALF * t for t in bracket(g, basis(n, i), zrows[a])])
              for a in range(d1)] for i in range(n)]
    jt = jacobiator_table(g)
    l3 = [[[coords(jt[i][j][k]) for k in range(n)] for j in range(n)] for i in range(n)]
    return Lie2Algebra(d1, n, sparse(to_rows(zb), 2), sparse(skew_bracket(g), 3),
                       sparse(l2_01, 3), sparse(l3, 4))


def check_lie2_structure(L: Lie2Algebra) -> IdentityReport:
    n = L.dim0
    s, t = dense(L.l2_00, (n,) * 3), dense(L.l3, (n,) * 3 + (L.dim1,))
    witnesses = []
    for i in range(n):
        for j in range(n):
            d = vadd(s[i][j], s[j][i])
            if not viszero(d):
                witnesses.append(Witness((i, j), tuple(d), "l2-antisymmetry"))
    return _report(witnesses + _antisymmetry(t, n, "l3-antisymmetry"))


def axiom_verdicts(report: IdentityReport) -> dict:
    """{axiom: holds} for (a)-(e) from a ``verify_lie2`` report: an axiom
    holds when no witness carries its letter."""
    broken = {w.label for w in report.witnesses}
    return {axiom: axiom not in broken for axiom in "abcde"}


def verify_lie2(L: Lie2Algebra) -> IdentityReport:
    n0, n1 = L.dim0, L.dim1
    s, m = dense(L.l2_00, (n0,) * 3), dense(L.l2_01, (n0, n1, n1))
    t = dense(L.l3, (n0,) * 3 + (n1,))
    e0 = [basis(n0, i) for i in range(n0)]
    e1 = [basis(n1, a) for a in range(n1)]
    l1 = matrix(L.l1)
    incl = [column(l1, a) for a in range(n1)]
    witnesses = []

    def l2(x, y):
        return apply_bilinear(s, x, y) if n0 else []

    def l2_mixed(x, a):
        out = vzero(n1)
        for i, xi in enumerate(x):
            for b, ab in enumerate(a):
                vaddto(out, xi * ab, m[i][b])
        return out

    def l3(x, y, z):
        return apply_trilinear(t, x, y, z) if n0 else []

    def check(axiom, where, lhs, rhs):
        d = vsub(lhs, rhs)
        if not viszero(d):
            witnesses.append(Witness(where, tuple(d), axiom))

    for i in range(n0):
        for a in range(n1):
            check("a", (i, a), mv(l1, l2_mixed(e0[i], e1[a])), l2(e0[i], incl[a]))
    for a in range(n1):
        for b in range(n1):
            check("b", (a, b), l2_mixed(incl[a], e1[b]),
                  [-v for v in l2_mixed(incl[b], e1[a])])
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                acc = l2(e0[i], l2(e0[j], e0[k]))
                _add(acc, 1, l2(e0[j], l2(e0[k], e0[i])))
                _add(acc, 1, l2(e0[k], l2(e0[i], e0[j])))
                check("c", (i, j, k), acc, mv(l1, t[i][j][k]))
    for i in range(n0):
        for j in range(n0):
            for a in range(n1):
                acc = l2_mixed(e0[i], l2_mixed(e0[j], e1[a]))
                _add(acc, -1, l2_mixed(e0[j], l2_mixed(e0[i], e1[a])))
                _add(acc, -1, l2_mixed(l2(e0[i], e0[j]), e1[a]))
                check("d", (i, j, a), acc, l3(e0[i], e0[j], incl[a]))
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                for l in range(n0):
                    x, y, z, w = e0[i], e0[j], e0[k], e0[l]
                    lhs = [-v for v in l2_mixed(w, l3(x, y, z))]
                    _add(lhs, 1, l2_mixed(z, l3(x, y, w)))
                    _add(lhs, -1, l2_mixed(y, l3(x, z, w)))
                    _add(lhs, 1, l2_mixed(x, l3(y, z, w)))
                    rhs = l3(l2(x, y), z, w)
                    _add(rhs, -1, l3(l2(x, z), y, w))
                    _add(rhs, 1, l3(l2(x, w), y, z))
                    _add(rhs, 1, l3(l2(y, z), x, w))
                    _add(rhs, -1, l3(l2(y, w), x, z))
                    _add(rhs, 1, l3(l2(z, w), x, y))
                    check("e", (i, j, k, l), lhs, rhs)
    return _report(witnesses)


def check_representation(rep: Representation) -> IdentityReport:
    """The three compatibility conditions as dense matrix identities, one
    basis pair at a time."""
    n, shape = rep.algebra.dim, (rep.vdim, rep.vdim)
    c = dense(rep.algebra.c, (n,) * 3)
    ls, rs = matrices(rep.l), matrices(rep.r)
    found = {"l-of-bracket": [], "r-of-bracket": [], "r-absorbs-l": []}
    for i in range(n):
        for j in range(n):
            br = c[i][j]
            defects = {
                "l-of-bracket": mat_sub(linear_combination(br, ls, shape),
                                        commutator(ls[i], ls[j])),
                "r-of-bracket": mat_sub(linear_combination(br, rs, shape),
                                        commutator(ls[i], rs[j])),
                "r-absorbs-l": mat_add(matmul(rs[j], ls[i]), matmul(rs[j], rs[i])),
            }
            for label, d in defects.items():
                if not is_zero(d):
                    found[label].append(Witness((i, j), tuple(map(tuple, to_rows(d))), label))
    return _report([w for ws in found.values() for w in ws])


# ---------------------------------------------------------------------------
# dense cochain algebra

@dataclass(frozen=True)
class Cochain:
    """A k-cochain on g = Q^n with values in Q^m, dense: values[rank(t)] is
    the value on the basis tuple t, with rank the lexicographic position of
    t among all n^k tuples.  The library's form of the same cochain is the
    sparse tensor ``cochain_tensor`` gives."""

    degree: int
    n: int
    m: int
    values: tuple

    def __post_init__(self):
        shape = (self.n ** self.degree, self.m)
        object.__setattr__(self, "values", freeze(self.values, shape, "cochain values"))

    def value_at(self, tup) -> tuple:
        r = 0
        for t in tup:
            r = r * self.n + t
        return self.values[r]

    def is_zero(self) -> bool:
        return all(viszero(v) for v in self.values)


def cochain_tensor(c: Cochain) -> Tensor:
    """The sparse tensor of shape (n,)*k + (m,) keyed (t_1..t_k, v) that the
    library takes and returns for the cochain c."""
    tuples = itertools.product(range(c.n), repeat=c.degree)
    return sparse_tensor({(*t, v): x for t, value in zip(tuples, c.values)
                          for v, x in enumerate(value)},
                         (c.n,) * c.degree + (c.m,), "cochain")


def dense_cochain(f: Tensor, n: int) -> Cochain:
    """The dense cochain of a library cochain tensor on g = Q^n."""
    k, m = len(f.shape) - 1, f.shape[-1]
    values = [vzero(m) for _ in range(n ** k)]
    for key, x in f.items():
        r = 0
        for t in key[:-1]:
            r = r * n + t
        values[r][key[-1]] = x
    return Cochain(k, n, m, values)


def add(alpha: Cochain, beta: Cochain) -> Cochain:
    if (alpha.degree, alpha.n, alpha.m) != (beta.degree, beta.n, beta.m):
        raise ValueError("cochain shape mismatch")
    return Cochain(alpha.degree, alpha.n, alpha.m,
                   tuple(vadd(a, b) for a, b in zip(alpha.values, beta.values)))


def scale(c, alpha: Cochain) -> Cochain:
    return Cochain(alpha.degree, alpha.n, alpha.m,
                   tuple([c * x for x in v] for v in alpha.values))


def sub(alpha: Cochain, beta: Cochain) -> Cochain:
    return add(alpha, scale(-ONE, beta))


def evaluate(alpha: Cochain, args) -> list[Fraction]:
    """Full multilinear extension of a cochain to coordinate vectors."""
    if len(args) != alpha.degree:
        raise ValueError(f"need {alpha.degree} arguments")
    supports = [[(i, x) for i, x in enumerate(v) if x] for v in args]
    out = vzero(alpha.m)
    for combo in itertools.product(*supports):
        coeff = ONE
        for _, x in combo:
            coeff *= x
        vaddto(out, coeff, alpha.value_at([i for i, _ in combo]))
    return out


def structure_cochain(g: LeibnizAlgebra) -> Cochain:
    """The bracket of g as a 2-cochain with values in g."""
    n = g.dim
    c = dense(g.c, (n,) * 3)
    return Cochain(2, n, n, tuple(c[i][j] for i in range(n) for j in range(n)))


def shuffles(k: int, q: int) -> list[tuple[tuple[int, ...], int]]:
    """(k,q)-shuffles of {1..k+q} with signs.

    A shuffle is ascending on its first k slots and on its last q slots; the
    sign comes from the crossing count sum(s_i - i) over the first block.
    """
    total = k + q
    out = []
    for first in itertools.combinations(range(1, total + 1), k):
        rest = tuple(x for x in range(1, total + 1) if x not in first)
        crossings = sum(s - i for i, s in enumerate(first, start=1))
        out.append((first + rest, -1 if crossings % 2 else 1))
    return out


def circle_product(alpha: Cochain, beta: Cochain) -> Cochain:
    """Insertion product of g-valued cochains.

    For alpha of degree p+1 and beta of degree q+1:

        (alpha o beta)(x_1..x_{p+q+1}) =
            sum_{k=0..p} (-1)^{kq} sum_{shuffles s of (k,q)} sgn(s)
                alpha(x_{s(1)}..x_{s(k)},
                      beta(x_{s(k+1)}..x_{s(k+q)}, x_{k+q+1}),
                      x_{k+q+2}..x_{p+q+1})
    """
    if alpha.m != alpha.n or beta.m != beta.n or alpha.n != beta.n:
        raise ValueError("circle product needs cochains valued in the algebra itself")
    if alpha.degree < 1 or beta.degree < 1:
        raise ValueError("circle product needs degrees >= 1")
    n = alpha.n
    p = alpha.degree - 1
    q = beta.degree - 1
    deg = p + q + 1
    cache = {kk: shuffles(kk, q) for kk in range(p + 1)}
    values = []
    for X in itertools.product(range(n), repeat=deg):
        acc = vzero(n)
        for kk in range(p + 1):
            ksign = -1 if (kk * q) % 2 else 1
            trailing = X[kk + q + 1:]
            last = X[kk + q]
            for sigma, ssign in cache[kk]:
                sign = ONE if ksign * ssign > 0 else -ONE
                first = tuple(X[s - 1] for s in sigma[:kk])
                beta_args = tuple(X[s - 1] for s in sigma[kk:]) + (last,)
                for t, bv in enumerate(beta.value_at(beta_args)):
                    if bv:
                        vaddto(acc, sign * bv, alpha.value_at(first + (t,) + trailing))
        values.append(tuple(acc))
    return Cochain(deg, n, n, tuple(values))


def graded_bracket(alpha: Cochain, beta: Cochain) -> Cochain:
    """[alpha, beta] = alpha o beta + (-1)^(pq+1) beta o alpha."""
    p = alpha.degree - 1
    q = beta.degree - 1
    sign = 1 if (p * q + 1) % 2 == 0 else -1
    return add(circle_product(alpha, beta), scale(sign, circle_product(beta, alpha)))


# ---------------------------------------------------------------------------
# the Maurer-Cartan identity

def rbar(g: LeibnizAlgebra, rep: Representation) -> Cochain:
    """The right action as a 2-cochain on g (+) V:  (x+u, y+v) -> r_y u."""
    n, m = g.dim, rep.vdim
    total = n + m
    values = [vzero(total) for _ in range(total * total)]
    rs = matrices(rep.r)
    for a in range(m):
        for j in range(n):
            col = column(rs[j], a)
            values[(n + a) * total + j] = [ZERO] * n + col
    return Cochain(2, total, total, tuple(map(tuple, values)))


def right_action_cochain(rep: Representation) -> Cochain:
    """The right action as a 1-cochain valued in gl(V): the value on e_i is
    r_i flattened row-major."""
    return Cochain(1, rep.algebra.dim, rep.vdim ** 2,
                   tuple(tuple(x for row in to_rows(r) for x in row) for r in matrices(rep.r)))


def maurer_cartan_defect(h: LeibnizAlgebra, r: Cochain) -> Cochain:
    """d r - [r, r]/2, with d the literal adjoint coboundary of h."""
    n = h.dim
    e = [basis(n, s) for s in range(n)]
    d = coboundary(h, lambda s, v: bracket(h, e[s], v), lambda s, v: bracket(h, v, e[s]),
                   r.values, 2, n)
    return sub(Cochain(3, n, n, tuple(map(tuple, d))), scale(HALF, graded_bracket(r, r)))


def maurer_cartan_witnesses(defect: Cochain) -> list[Witness]:
    return [Witness(S, defect.value_at(S), "maurer-cartan")
            for S in itertools.product(range(defect.n), repeat=3)
            if not viszero(defect.value_at(S))]


def maurer_cartan_check(g: LeibnizAlgebra, rep: Representation) -> IdentityReport:
    h0 = semidirect(g, rep, "l0")
    rb = rbar(g, rep)
    witnesses = maurer_cartan_witnesses(maurer_cartan_defect(h0, rb))
    hlr = semidirect(g, rep, "lr")
    total = h0.dim
    c0, clr = dense(h0.c, (total,) * 3), dense(hlr.c, (total,) * 3)
    for i in range(total):
        for j in range(total):
            d = vsub(vadd(c0[i][j], rb.value_at((i, j))), clr[i][j])
            if not viszero(d):
                witnesses.append(Witness((i, j), tuple(d), "deformation"))
    return _report(witnesses)


# ---------------------------------------------------------------------------
# graphs, naive representations and the adjoint correspondence

def graph_check(phi: GraphMap) -> IdentityReport:
    """[phi(e_i), phi(e_j)] - phi(phi(e_i) e_j) as a dense matrix, one basis
    pair at a time."""
    m = phi.vdim
    ps = matrices(phi.phi)
    witnesses = []
    for i in range(m):
        for j in range(m):
            rhs = linear_combination(column(ps[i], j), ps, (m, m))  # phi(phi(e_i) e_j)
            d = mat_sub(commutator(ps[i], ps[j]), rhs)
            if not is_zero(d):
                witnesses.append(Witness((i, j), tuple(map(tuple, to_rows(d))), "graph"))
    return _report(witnesses)


def naive_check(rho: NaiveRepresentation) -> IdentityReport:
    """The two component conditions as dense matrix and vector identities,
    and the homomorphism condition against the omni bracket, one basis pair
    at a time."""
    g = rho.algebra
    n = g.dim
    c = dense(g.c, (n,) * 3)
    ps, theta = matrices(rho.phi), dense(rho.theta, (n, rho.vdim))
    vectors = dense(rho.rho_vectors, (n, rho.ambient_dim))
    found: dict[str, list[Witness]] = {"con1": [], "con2": [], "hom": []}
    for i in range(n):
        for j in range(n):
            br = c[i][j]
            phi_br = linear_combination(br, ps, (rho.vdim, rho.vdim))
            d1 = mat_sub(phi_br, commutator(ps[i], ps[j]))
            if not is_zero(d1):
                found["con1"].append(Witness((i, j), tuple(map(tuple, to_rows(d1))), "con1"))
            theta_br = vzero(rho.vdim)
            for k, w in enumerate(br):
                if w:
                    vaddto(theta_br, w, theta[k])
            d2 = vsub(theta_br, mv(ps[i], theta[j]))
            if not viszero(d2):
                found["con2"].append(Witness((i, j), tuple(d2), "con2"))
            rho_br = vzero(rho.ambient_dim)
            for k, w in enumerate(br):
                if w:
                    vaddto(rho_br, w, vectors[k])
            d3 = vsub(rho_br, omni_bracket(rho.vdim, vectors[i], vectors[j]))
            if not viszero(d3):
                found["hom"].append(Witness((i, j), tuple(d3), "hom"))
    return _report([w for ws in found.values() for w in ws])


def image_basis(rho: NaiveRepresentation) -> Matrix:
    """ambient_dim x d, the columns rho(e_J): the basis of the image at the
    pivot columns J of the reduction of rho."""
    vectors = dense(rho.rho_vectors, rho.rho_vectors.shape)
    return from_cols(rho.ambient_dim, [vectors[j] for j in rho._reduced[1]])


def image_representation(rho: NaiveRepresentation) -> Representation:
    """The action of g on the image of rho by left/right omni multiplication:
    each rho(e_i) bracketed with each image basis vector on both sides by the
    dense matrix formula (``omni_bracket``), in the coordinates of the basis
    rho(e_J) by a fresh ``solve``.  Raises ValueError when a bracket leaves
    the image."""
    vectors, m = dense(rho.rho_vectors, rho.rho_vectors.shape), rho.vdim
    to_ambient = image_basis(rho)
    ls: dict = {}
    rs: dict = {}
    for i, rho_i in enumerate(vectors):
        for col, j in enumerate(rho._reduced[1]):
            lv = solve(to_ambient, omni_bracket(m, rho_i, vectors[j]))
            rv = solve(to_ambient, omni_bracket(m, vectors[j], rho_i))
            if lv is None or rv is None:
                raise ValueError("image of the representation is not closed under "
                                 "the omni bracket; the map is not a homomorphism")
            ls.update(((i, a, col), x) for a, x in enumerate(lv) if x)
            rs.update(((i, a, col), x) for a, x in enumerate(rv) if x)
    return Representation(rho.algebra, to_ambient.cols, ls, rs)


def embedding(rho: NaiveRepresentation, tuples: int) -> Matrix:
    """E: block-diagonal, one block per basis tuple, each block the columns
    rho(e_v) in the coordinates of the basis rho(e_J), by ``solve``."""
    n = rho.algebra.dim
    to_ambient = image_basis(rho)
    d = to_ambient.cols
    block = [solve(to_ambient, list(v)) for v in dense(rho.rho_vectors, (n, rho.ambient_dim))]
    data: list[dict] = [{} for _ in range(tuples * d)]
    for pos in range(tuples):
        for v, col in enumerate(block):
            for a, x in enumerate(col):
                if x:
                    data[pos * d + a][pos * n + v] = x
    return Matrix(tuples * d, tuples * n, data)


def verify_adjoint_correspondence(rho, irep, arep, k_max):
    """D^img_k E_k - E_{k+1} D^cl_k multiplied out as Fraction matrices;
    every nonzero column names a failing basis cochain."""
    n = rho.algebra.dim
    notes = []
    ok = True
    for k in range(min(k_max, 2) + 1):
        lhs = matmul(coboundary_matrix(irep, k), embedding(rho, n ** k))
        rhs = matmul(embedding(rho, n ** (k + 1)), coboundary_matrix(arep, k))
        diff = mat_sub(lhs, rhs)
        for col in sorted({j for i in range(diff.rows) for j, _ in diff.row_items(i)}):
            ok = False
            pos, v = divmod(col, n)
            notes.append(f"correspondence fails on basis cochain "
                         f"(degree {k}, tuple #{pos}, value {v})")
    return ok, notes
