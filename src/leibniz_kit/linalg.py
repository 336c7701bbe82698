"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always in lowest
terms with positive denominator), so every rank, kernel and solution below
is exact: there are no tolerances anywhere in this package.  Every number
the package reads as text follows one grammar, written here once:
``INTEGER``, an optional sign and ASCII digits, and ``RATIONAL``, an
integer and optionally "/q" with q ASCII digits and no leading zero, each
matched whole.  ``as_rational`` reads every exact scalar by it, and
``as_integer`` every count.

One product serves the whole package: ``contract``, an einsum-style sum of
contractions of sparse tensors over their supports, exact over one common
denominator.  Every identity check is a ``contract`` sum, and so are the
verification of ``kernel_basis`` and the conjugation action.

One elimination kernel computes every rank: ``integer_rank`` first peels,
taking as a pivot every row that is alone in some column, again and again
as the peeled rows leave further columns with one row, and then runs
right-looking, fraction-free elimination over Python ints with a
Markowitz-style pivot (the sparsest live row, on its column with the fewest
live rows, ties to the lowest index) on the rows left, so its fill-in stays
low whatever the order of the basis.  The pivots come in that order: the
peeled ones as they were peeled, then one per elimination step.  ``rank``
feeds it the rows of a matrix as given, rows of ints as they are and
rational rows scaled to integers; ``cohomology.betti`` hands ``rank`` the
coboundary columns over one common denominator, the shorter side of d_k,
which are integer already.  One helper, ``_to_integers``, scales a sparse
rational tensor to integers over its common denominator: the rows ``rank``
eliminates, the operands of ``contract`` and the structure and action
tensors ``cohomology.coboundary_columns`` assembles.  ``rref`` (and through
it ``reduced_rows`` and ``solve``) needs the reduced matrix itself, not just
its rank, and runs Gauss-Jordan elimination over Fractions.  It stays a
second loop: canonical bases need lowest-column pivots and
back-elimination, which the Markowitz kernel lacks and which would slow
every rank.

One reduction serves every quotient: ``reduced_rows(t)`` gives R, the
projection of Q^n onto Q^n / ker t, and its pivot columns J.
``kernel_basis``, ``span_of_rows``, ``algebra.quotient_by_left_center`` (R
of left multiplication) and a naive representation (R of v -> rho(e_v),
onto g / ker rho) are built on it, and every ``Subspace`` holds a basis
in that reduced form, so its coordinates are read at its key columns.

The kernel also reports, on request, the pivot column of each step; the
input restricted to those columns keeps its rank.  ``betti`` uses this to
clear, as persistent-homology codes do (Chen and Kerber, EuroCG 2011;
Bauer, Kerber and Reininghaus, "Clear and compress", 2014).  Once
d_k d_(k-1) = 0 is proven on the instance, im d_(k-1) projects
isomorphically onto the pivot coordinates of its elimination, so the
columns of d_k at those coordinates are combinations of the others and are
not built.

A ``Matrix`` stores each row as a {column: nonzero} dict; coboundary
matrices of tensor-power complexes are overwhelmingly sparse and dense row
lists were measured to exhaust memory near the resource cap.  It only
carries rows into ``rank``, ``rref`` and ``solve``, and has no arithmetic
of its own.  A vector is sparse too: the 1-axis tensor {(a,): nonzero
Fraction} that ``contract`` reads and writes.  A family of vectors, such as
the basis of a ``Subspace`` or the matrix whose kernel ``kernel_basis``
takes, is one read-only 2-axis ``Tensor``, its entry (u, a) coordinate a of
vector u.  The package reads every ``Tensor`` by its keys and items; the
dense view (an int index, and iteration along the first axis) reads the
entries when asked, at the cost of the support, and serves only the
benchmark's own tests and the test oracles.  ``Subspace`` takes such a
tensor or a sequence of sparse vectors (or dense sequences, through
``sparse_tensor``), and ``span_of_rows`` such a sequence.
``coordinates_of`` takes a vector, or any tensor whose last axis is the
ambient one, and checks all of its vectors in one ``contract``, at the cost
of the supports it touches, not of the ambient dimension.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


# the one grammar of a number read as text (see the module docstring)
INTEGER = re.compile(r"[+-]?[0-9]+")
RATIONAL = re.compile(rf"{INTEGER.pattern}(/[1-9][0-9]*)?")


def as_integer(text: str) -> int:
    """The int that text spells in the integer grammar.  Raises ValueError
    on any other text, and on one past the interpreter's digit limit."""
    if INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text[:64]!r}")
    return int(text)


def as_rational(x) -> Fraction:
    """x as a Fraction: an int (a bool is none), a Fraction, or a str in the
    rational grammar.  Any other type raises TypeError; a str outside the
    grammar, or past the interpreter's digit limit, raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and RATIONAL.fullmatch(x) is None:
        raise ValueError(f"not an integer or 'p/q' string: {x[:64]!r}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


class Frozen:
    """Base of the validated value types: a subclass names its fields in
    ``__slots__`` in constructor order and stores them once, with ``_set``.
    Equality, hash and repr go by value; assigning raises AttributeError.

    Slots named with a leading underscore come last and hold forms derived
    from the fields: ``_set`` stores those a constructor derives, and
    ``_derived`` fills the others on first use.  One of those is
    ``_verdict``, the report of a checked type's defining identity, so each
    value is checked once.  Equality, hash, repr and pickling see only the
    fields, so a copy or an unpickled twin derives them again."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _derived(self, name: str, build):
        """The derived slot ``name``, filled with ``build(self)`` when first read."""
        try:
            return getattr(self, name)
        except AttributeError:
            object.__setattr__(self, name, build(self))
            return getattr(self, name)

    def _fields(self) -> list:
        return [name for name in self.__slots__ if name[0] != "_"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__name__}({fields})"


def freeze(x, shape: tuple, what: str) -> tuple:
    """Nested tuples of Fractions from nested sequences of the given shape.

    Raises ValueError, naming ``what``, when an axis is no list or tuple or
    has the wrong length.
    """
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what}: an axis of type {type(x).__name__}, expected a list or tuple")
    if len(x) != shape[0]:
        raise ValueError(f"{what}: an axis of length {len(x)}, expected {shape[0]}")
    if len(shape) == 1:
        return tuple(map(as_rational, x))
    return tuple(freeze(v, shape[1:], what) for v in x)


def sparse(tensor, depth: int) -> dict:
    """{index tuple: entry} of the nonzero entries of a nested sequence
    indexed ``depth`` >= 1 levels deep, in lexicographic order."""
    items = [((), tensor)]
    for _ in range(depth - 1):
        items = [(key + (i,), sub) for key, t in items for i, sub in enumerate(t)]
    return {key + (i,): v for key, t in items for i, v in enumerate(t) if v}


class Tensor(dict):
    """A read-only sparse tensor of a given ``shape``: the dict {index tuple:
    nonzero Fraction}, keys in lexicographic order, that ``sparse_tensor``
    builds.  It hashes by its items and pickles as a dict; ``len``, ``in``,
    ``keys``, ``items``, ``get``, lookup by index tuple and equality are a
    dict's.

    An int index and iteration read the dense form along the first axis:
    ``t[i]`` is the sub-tensor at i, or the entry (zero included) on the
    last axis.  The sub-tensor is read from the entries when asked, at the
    cost of the support.  This view serves only code that reads the fields
    as nested sequences, the benchmark's own tests and the test oracles, all
    on small tensors; no code path of the package reads it.  ``iter(t)``
    walks this view, not the keys, so the package reads ``keys()`` and
    ``items()``."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple, entries: dict):
        super().__init__(entries)
        self.shape = shape

    def _read_only(self, *args, **kwargs):
        raise TypeError("a sparse tensor is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return Tensor, (self.shape, dict(self.items()))

    def __getitem__(self, index):
        if isinstance(index, tuple):
            return super().__getitem__(index)
        if not 0 <= index < self.shape[0]:
            raise IndexError(f"index {index} out of range for axis of length {self.shape[0]}")
        if len(self.shape) == 1:
            return self.get((index,), ZERO)
        return Tensor(self.shape[1:], {k[1:]: v for k, v in self.items() if k[0] == index})

    def __iter__(self):
        return map(self.__getitem__, range(self.shape[0]))


def sparse_tensor(t, shape: tuple, what: str) -> Tensor:
    """The ``Tensor`` of the given shape holding t: a mapping {index tuple:
    scalar}, or the nested sequences of the dense form.  Zeros are dropped.
    Raises ValueError, naming ``what``, on a shape with an axis that is no
    size (an int >= 0; a bool is none), on a key that is no index of the
    shape (a bool is none) or on an axis of the wrong length."""
    if not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"{what}: shape {shape!r} has an axis that is no size")
    if not isinstance(t, Mapping):
        t = sparse(freeze(t, shape, what), len(shape))
    out = {}
    for key, v in t.items():
        if not (isinstance(key, tuple) and len(key) == len(shape)
                and all(type(i) is int and 0 <= i < d for i, d in zip(key, shape))):
            raise ValueError(f"{what}: key {key!r} is no index of shape {shape}")
        v = as_rational(v)
        if v:
            out[key] = v
    return Tensor(shape, dict(sorted(out.items())))


class Matrix:
    """Immutable rows x cols matrix of exact rationals (Fractions, or ints).

    ``entry(i, j)`` gives the dense view; internally each row is a dict of
    its nonzero entries.  It carries rows into ``rank``, ``rref`` and
    ``solve`` and out of ``rref``; products of matrices and tensors are
    ``contract``'s.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: list[dict[int, Fraction]]):
        if rows < 0 or cols < 0 or len(data) != rows:
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        # scrub explicit zeros so equality and sparsity stay canonical; a row
        # without one is kept as given, so callers must not change it later
        self._data = [row if all(row.values()) else {j: v for j, v in row.items() if v}
                      for row in data]

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i].get(j, ZERO)

    def row_items(self, i: int):
        return self._data[i].items()

    def nnz(self) -> int:
        return sum(len(row) for row in self._data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self._data == other._data)


class Echelon(NamedTuple):
    """Result of row reduction: the RREF matrix, its rank, and pivot columns."""
    matrix: Matrix
    rank: int
    pivot_columns: tuple[int, ...]


def rref(m: Matrix) -> Echelon:
    """Reduced row echelon form by exact Gauss-Jordan elimination.

    Fractions renormalise (gcd) after every arithmetic operation, which keeps
    intermediate entries small.  Callers that need only the rank should call
    ``rank``, whose fraction-free integer elimination skips both the
    back-elimination and the per-operation Fraction normalisation.
    """
    work = [dict(m._data[i]) for i in range(m.rows)]
    reduced: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    for col in range(m.cols):
        pivot_row = None
        for idx, row in enumerate(work):
            if col in row:
                pivot_row = idx
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        p = row[col]
        if p != ONE:
            row = {j: Fraction(v, p) for j, v in row.items()}
        for target in chain(work, reduced):
            f = target.get(col)
            if f:
                for j, v in row.items():
                    nv = target.get(j, ZERO) - f * v
                    if nv:
                        target[j] = nv
                    else:
                        target.pop(j, None)
        reduced.append(row)
        pivots.append(col)
    data = reduced + [{} for _ in range(m.rows - len(reduced))]
    return Echelon(Matrix(m.rows, m.cols, data), len(reduced), tuple(pivots))


def _content_free(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    c = gcd(*row.values())
    return row if c == 1 else {j: v // c for j, v in row.items()}


def integer_rank(rows: Iterable[dict[int, int]],
                 pivots: Optional[list[int]] = None) -> int:
    """Exact rank of an integer matrix given by its rows as {column: nonzero
    int} dicts, columns being ints >= 0: a peel, then right-looking
    fraction-free elimination with a Markowitz-style pivot on the rows the
    peel leaves.  The rows are not modified, and a negative column raises
    ValueError.

    The peel is step 1 of structured Gaussian elimination (LaMacchia and
    Odlyzko, CRYPTO 1990).  One counting pass keeps, per column, the number
    of live rows holding it and the XOR of their indices.  While some column
    is held by a single row, that row is a pivot on that column: it is taken
    out, and the counts of its other columns drop, which may leave further
    columns with a single row.  No arithmetic is done.  The rows left are
    zero on every peeled column, so the rank is the number of peeled rows
    plus the rank of the rows left.  After the clearing in
    ``cohomology.betti`` the rows are mostly independent and sparse: the
    peel takes all of them in the top degree of the omni2 adjoint complex,
    and from a sixth to over two thirds of them in the top degrees of the
    largest complexes within the cap.

    Each step of the elimination takes the sparsest live row from a heap
    (ties: lowest row index) and pivots on its column with the fewest live
    rows (ties: lowest column index), so every run takes the same steps and
    the fill-in stays low whatever the order of the basis (Markowitz,
    Management Science 1957).  Every other live row holding that column is
    replaced by a*row - b*pivot, with a, b the two entries in the pivot
    column divided by their gcd, and then divided by its content (the gcd of
    its entries), as in Bareiss (Math. Comp. 1968), so entries stay small.
    Column-to-row sets track which live rows hold each column as entries
    fill in or cancel.  Every step is an invertible row operation (a is
    never 0) and leaves the pivot row alone in its column, so the pivot
    count is the rank.

    When ``pivots`` is a list, the pivot column of each peeled row, in the
    order they were peeled, and then of each elimination step is appended to
    it.  They are distinct, and the input restricted to them keeps its rank:
    in that order the peeled rows and then the reduced rows are triangular
    on these columns with a nonzero diagonal.  ``cohomology.betti`` clears
    the next degree's rank with them.
    """
    rows = [row for row in rows if row]
    if rows and min(map(min, rows)) < 0:
        raise ValueError("a column index is negative")
    # the peel: count[j] live rows hold column j, and owner[j] is the XOR of
    # their indices, so it names the one row left when count[j] is 1
    ncols = max(map(max, rows), default=-1) + 1
    count, owner = [0] * ncols, [0] * ncols
    for i, row in enumerate(rows):
        for j in row:
            count[j] += 1
            owner[j] ^= i
    peeled = [False] * len(rows)
    single = [j for j, n in enumerate(count) if n == 1]
    while single:
        col = single.pop()
        if count[col] != 1:
            continue  # its row went with another column
        i = owner[col]
        peeled[i] = True
        if pivots is not None:
            pivots.append(col)
        for j in rows[i]:
            n = count[j] - 1
            count[j] = n
            owner[j] ^= i
            if n == 1:
                single.append(j)
    done = peeled.count(True)
    live: dict[int, dict[int, int]] = {}
    col_rows: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        if peeled[i]:
            continue
        live[i] = _content_free(dict(row))
        for j in row:
            col_rows[j].add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    while heap:
        size, i = heappop(heap)
        pivot = live.get(i)
        if pivot is None or len(pivot) != size:
            continue  # eliminated, or an entry left from before the row changed
        del live[i]
        done += 1
        counts = [len(col_rows[j]) for j in pivot]
        fewest = min(counts)
        col = min(j for j, n in zip(pivot, counts) if n == fewest)
        if pivots is not None:
            pivots.append(col)
        for j in pivot:
            col_rows[j].discard(i)
        p = pivot.pop(col)
        rest = pivot.items()
        for s in col_rows.pop(col):
            row = live[s]
            b = row.pop(col)
            g = gcd(p, b)
            a, b = p // g, b // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, v in rest:
                w = row.get(j)
                if w is None:
                    row[j] = -b * v
                    col_rows[j].add(s)
                else:
                    w -= b * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        col_rows[j].discard(s)
            if row:
                live[s] = row = _content_free(row)
                heappush(heap, (len(row), s))
            else:
                del live[s]
    return done


def _to_integers(t: dict) -> tuple[dict, int]:
    """Integers and a denominator d with t = integers / d entrywise, for a
    sparse tensor or matrix row {key: nonzero}; d is the lcm of the
    denominators.  A dict of ints comes back as it is, with d = 1, so the
    integer rows ``betti`` passes to ``rank`` are not copied (callers never
    change the result)."""
    if set(map(type, t.values())) <= {int}:
        return t, 1
    d = lcm(*{v.denominator for v in t.values()})
    return {k: v.numerator * (d // v.denominator) for k, v in t.items()}, d


def _picker(letters: str, wanted: str):
    """Map an index tuple labelled by ``letters`` to the tuple of ``wanted``."""
    positions = [letters.index(ch) for ch in wanted]
    if len(positions) == 1:
        p = positions[0]
        return lambda key: (key[p],)
    return itemgetter(*positions) if positions else lambda key: ()


def contract(terms) -> dict:
    """Sum of einsum-style terms ``(coeff, spec, *operands)`` over sparse tensors.

    ``(1, "jka,iat->ijkt", x, y)`` adds sum_a x[j,k,a] * y[i,a,t] at
    (i,j,k,t), and ``(-1, "jikt->ijkt", x)`` subtracts x with its first two
    axes swapped.
    Letters missing from the output are summed over; only stored entries are
    ever multiplied, so the cost follows the supports, not the dimension.
    The sum is exact: each operand is scaled to integers, the terms are
    accumulated as integers over one common denominator, and the nonzero
    entries come back as Fractions.
    """
    integral: dict = {}
    parsed = []
    scale = 1
    for coeff, spec, *operands in terms:
        inputs, out = spec.split("->")
        subs = inputs.split(",")
        if (len(subs) != len(operands) or len(subs) > 2 or not set(out) <= set(inputs)
                or any(len(set(sub)) != len(sub) for sub in subs)):
            raise ValueError(f"bad contraction spec {spec!r}")
        ints = []
        weight = as_rational(coeff)
        for t in operands:
            if id(t) not in integral:  # holding t keeps its id from being reused
                integral[id(t)] = (t, *_to_integers(t))
            _, it, d = integral[id(t)]
            ints.append(it)
            weight /= d
        parsed.append((weight, subs, out, ints))
        scale = lcm(scale, weight.denominator)
    acc: dict = {}
    for weight, subs, out, ints in parsed:
        w = weight.numerator * (scale // weight.denominator)
        if len(subs) == 1:
            pick = _picker(subs[0], out)
            for key, v in ints[0].items():
                k = pick(key)
                acc[k] = acc.get(k, 0) + w * v
            continue
        (sx, sy), (x, y) = subs, ints
        shared = "".join(ch for ch in sx if ch in sy)
        by_shared: dict = {}
        key_y = _picker(sy, shared)
        for ky, vy in y.items():
            by_shared.setdefault(key_y(ky), []).append((ky, vy))
        key_x, pick = _picker(sx, shared), _picker(sx + sy, out)
        for kx, vx in x.items():
            matches = by_shared.get(key_x(kx))
            if matches:
                wx = w * vx
                for ky, vy in matches:
                    k = pick(kx + ky)
                    acc[k] = acc.get(k, 0) + wx * vy
    return {k: Fraction(v, scale) for k, v in acc.items() if v}


def rank(m: Matrix, pivots: Optional[list[int]] = None) -> int:
    """Exact rank by ``integer_rank`` on the rows of m as given, each scaled
    to integers; ``pivots`` goes to ``integer_rank`` and receives columns of
    m.  The elimination follows the rows, so a caller passes the shorter
    side: ``betti`` passes the integer matrix (D d_k)^T, whose rows reach the
    kernel without a copy."""
    return integer_rank((_to_integers(row)[0] for row in m._data), pivots)


class Subspace(Frozen):
    """A subspace of Q^ambient_dim given by a basis in reduced form.

    ``basis`` is the read-only sparse ``Tensor`` of shape (dim, ambient_dim)
    whose entry (u, a) is coordinate a of the u-th basis vector.  The
    constructor takes such a ``Tensor``, converted once by ``sparse_tensor``,
    or a sequence of vectors, each a sparse vector {(a,): x} or a dense
    sequence, stacked into one (``_stacked``).

    Reduced form means each basis vector u has a key column, where u is 1
    and every other basis vector is 0: the pivots of RREF rows
    (``span_of_rows``), the free columns of ``kernel_basis``.  The
    constructor finds them with one count over the entries, stores the
    lowest key column of each vector in ``_keys`` and refuses any other
    basis, a dependent one included.  Like every reader of a ``Tensor`` in
    the package, it reads the basis by its keys and items only.
    """

    __slots__ = ("ambient_dim", "basis", "_keys")

    def __init__(self, ambient_dim: int, basis):
        if not isinstance(basis, Tensor):
            basis = _stacked(ambient_dim, basis, "basis vector")
        basis = sparse_tensor(basis, (basis.shape[0], ambient_dim), "basis")
        held = Counter(a for _, a in basis.keys())
        # read backwards, so the lowest key column of each vector is written last
        lowest = {u: a for (u, a), x in reversed(basis.items()) if x == ONE and held[a] == 1}
        keys = tuple(map(lowest.get, range(basis.shape[0])))
        if None in keys:
            raise ValueError(f"basis vector {keys.index(None)} has no key column: "
                             "the basis is not in reduced form")
        self._set(ambient_dim, basis, keys)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coordinates_of(self, t) -> Optional[dict]:
        """Coordinates of t in this basis, or None if t is outside the span.

        t is a vector, sparse {(a,): x} or a dense sequence, whose
        coordinates are {(u,): nonzero x}; or any sparse ``Tensor`` whose
        last axis has length ``ambient_dim``, a family of vectors indexed by
        the other axes, whose coordinates are {(*prefix, u): nonzero x} and
        None if any of its vectors is outside the span.

        Each vector read at the keys is the only candidate.  One
        ``contract`` checks all of them exactly, by rebuilding t from the
        basis, which touches only the supports of t and of the basis vectors
        it uses."""
        if not isinstance(t, Tensor):
            t = sparse_tensor(t, (self.ambient_dim,), "vector")
        if t.shape[-1:] != (self.ambient_dim,):
            raise ValueError(f"vector: shape {t.shape} does not end in an axis of length "
                             f"{self.ambient_dim}")
        column = {a: u for u, a in enumerate(self._keys)}
        x = {(*key[:-1], column[key[-1]]): v for key, v in t.items() if key[-1] in column}
        prefix = "bcdefghijklmnopqrstvwxyz"[:len(t.shape) - 1]
        rebuilt = contract([(1, f"{prefix}u,ua->{prefix}a", x, self.basis),
                            (-1, f"{prefix}a->{prefix}a", t)])
        return None if rebuilt else x


def _stacked(ambient_dim: int, vectors: Iterable, what: str) -> Tensor:
    """The 2-axis ``Tensor`` whose entry (u, a) is entry a of the u-th of
    the given vectors, each refused by ``sparse_tensor`` as ``what``."""
    rows = [sparse_tensor(v, (ambient_dim,), what) for v in vectors]
    return Tensor((len(rows), ambient_dim), {(u, *key): x for u, row in enumerate(rows)
                                             for key, x in row.items()})


def reduced_rows(t: Tensor) -> tuple[Tensor, tuple[int, ...]]:
    """(R, J): the nonzero rows R of the RREF of a 2-axis ``Tensor`` t of
    shape (rows, cols), a ``Tensor`` of shape (rank, cols), and their pivot
    columns J.  Only the rows t stores are eliminated, so a tall t with few
    stored rows costs its support, not its height.  R has the kernel of t
    and is the identity on J, so it is the projection of Q^cols onto
    Q^cols / ker t in the basis of the classes of the e_j, j in J."""
    rows: dict = {}
    for (i, j), x in t.items():
        rows.setdefault(i, {})[j] = x
    ech = rref(Matrix(len(rows), t.shape[1], list(rows.values())))
    return (Tensor((ech.rank, t.shape[1]), {(a, j): x for a in range(ech.rank)
                                             for j, x in sorted(ech.matrix.row_items(a))}),
            ech.pivot_columns)


def span_of_rows(ambient_dim: int, vectors: Iterable) -> Subspace:
    """Subspace spanned by the given vectors, each a sparse vector {(a,): x}
    or a dense sequence, with a canonical (RREF) basis: R of their
    ``reduced_rows``."""
    return Subspace(ambient_dim, reduced_rows(_stacked(ambient_dim, vectors, "vector"))[0])


def kernel_basis(t: Tensor) -> Subspace:
    """Basis of {x : t x = 0} for a 2-axis ``Tensor`` t of shape (rows,
    cols); dimension is cols - rank by rank-nullity.  With (R, J) =
    ``reduced_rows(t)``, the vector of the u-th free column j is e_j minus
    R[a, j] at each pivot J_a.  The basis, the tensor K of shape
    (cols - rank, cols), is verified by one contraction, t K^T = 0, and is
    the basis of the ``Subspace``."""
    R, pivots = reduced_rows(t)
    free = {j: u for u, j in enumerate(j for j in range(t.shape[1]) if j not in pivots)}
    kernel = {(u, j): ONE for j, u in free.items()}
    kernel.update({(free[j], pivots[a]): -x for (a, j), x in R.items() if j in free})
    kernel = sparse_tensor(kernel, (len(free), t.shape[1]), "kernel")
    if contract([(1, "ia,ua->iu", t, kernel)]):
        raise AssertionError("kernel vector failed verification")
    return Subspace(t.shape[1], kernel)


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Some x with m x = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    data = [dict(m._data[i]) for i in range(m.rows)]
    for i, v in enumerate(b):
        v = as_rational(v)
        if v:
            data[i][m.cols] = v
    aug = Matrix(m.rows, m.cols + 1, data)
    ech = rref(aug)
    if m.cols in ech.pivot_columns:
        return None
    x = [ZERO] * m.cols
    for i, p in enumerate(ech.pivot_columns):
        x[p] = ech.matrix.entry(i, m.cols)
    return x
