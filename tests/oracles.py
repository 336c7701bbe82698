"""Literal per-tuple formulas, as test oracles.

Each function pushes basis vectors through the bilinear brackets one tuple
at a time, exactly as the formulas are written, and reports witnesses in
nested-loop order.  The library evaluates the same identities as sparse
tensor contractions and the coboundary as one sparse matrix; the
differential tests compare the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from leibniz_kit import (
    AxiomReport,
    IdentityReport,
    LeibnizAlgebra,
    Lie2Algebra,
    Witness,
    bracket,
    jacobiator_closed,
    left_center,
    skew_bracket,
)
from leibniz_kit.linalg import HALF, vadd, vaddto, viszero, vsub, vzero


def basis(n: int, i: int) -> list[Fraction]:
    return [Fraction(int(j == i)) for j in range(n)]


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
                for t, w in enumerate(g.c[S[i1 - 1]][S[j1 - 1]]):
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
    witnesses = []
    for i in range(n):
        for j in range(n):
            sq = vadd(g.c[i][j], g.c[j][i])
            for k in range(n):
                d = bracket(g, sq, basis(n, k))
                if not viszero(d):
                    witnesses.append(Witness((i, j, k), tuple(d), "square-center"))
    return _report(witnesses)


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

    def coords(v):
        x = z.coordinates_of(v)
        if x is None:
            raise ValueError("not in the left center")
        return tuple(x)

    l2_01 = [[coords([HALF * t for t in bracket(g, basis(n, i), list(z.basis[a]))])
              for a in range(d1)] for i in range(n)]
    jt = jacobiator_table(g)
    l3 = [[[coords(jt[i][j][k]) for k in range(n)] for j in range(n)] for i in range(n)]
    l2_11 = [[vzero(d1) for _ in range(d1)] for _ in range(d1)]
    return Lie2Algebra(d1, n, z.basis_matrix(), skew_bracket(g), l2_01, l2_11, l3)


def check_lie2_structure(L: Lie2Algebra) -> IdentityReport:
    n = L.dim0
    witnesses = []
    for i in range(n):
        for j in range(n):
            d = vadd(L.l2_00[i][j], L.l2_00[j][i])
            if not viszero(d):
                witnesses.append(Witness((i, j), tuple(d), "l2-antisymmetry"))
    return _report(witnesses + _antisymmetry(L.l3, n, "l3-antisymmetry"))


def verify_lie2(L: Lie2Algebra) -> AxiomReport:
    n0, n1 = L.dim0, L.dim1
    e0 = [basis(n0, i) for i in range(n0)]
    e1 = [basis(n1, a) for a in range(n1)]
    incl = [list(L.l1.column(a)) for a in range(n1)]
    passed = {axiom: True for axiom in "abcde"}
    witnesses = []

    def l2(x, y):
        return apply_bilinear(L.l2_00, x, y) if n0 else []

    def l2_mixed(x, a):
        out = vzero(n1)
        for i, xi in enumerate(x):
            for b, ab in enumerate(a):
                vaddto(out, xi * ab, L.l2_01[i][b])
        return out

    def l3(x, y, z):
        return apply_trilinear(L.l3, x, y, z) if n0 else []

    def check(axiom, where, lhs, rhs):
        d = vsub(lhs, rhs)
        if not viszero(d):
            passed[axiom] = False
            witnesses.append(Witness(where, tuple(d), axiom))

    for i in range(n0):
        for a in range(n1):
            check("a", (i, a), L.l1.mv(l2_mixed(e0[i], e1[a])), l2(e0[i], incl[a]))
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
                check("c", (i, j, k), acc, L.l1.mv(L.l3[i][j][k]))
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
    return AxiomReport(passed, tuple(witnesses))
