"""Exact linear algebra over the Gaussian rationals.

Matrices, subspaces with canonical reduced-echelon bases, and
integer-indexed filtrations, each with an adapted basis in which its steps
are coordinate subspaces.  Every operation in this module is exact:
scalars are ``a + b*i`` with ``fractions.Fraction`` components, and no
rounding ever occurs.  Subspace equality is decidable because bases are
kept in a canonical form (reduced column echelon, pivots on the first
nonzero coordinate of each basis vector).

A matrix is stored only as a common denominator over integer numerator
rows, with real and imaginary parts kept apart, and every matrix and
subspace operation runs on Python ints: rows are reduced fraction-free
with their content divided out.  :class:`Scalar` entries are built only
where a caller reads them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union

RatLike = Union[int, str, Fraction]
ScalarLike = Union["Scalar", int, str, Fraction]

_FZERO = Fraction(0)


def _rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return _FZERO if x == 0 else Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class Scalar:
    """A Gaussian rational ``re + im*i`` with exact arithmetic.

    Products and sums of two real scalars skip the imaginary parts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = _rat(re)
        self.im = _rat(im)

    # -- arithmetic -------------------------------------------------
    def __add__(self, other: ScalarLike) -> "Scalar":
        o = scalar(other)
        if self.im or o.im:
            return _make(self.re + o.re, self.im + o.im)
        return _make(self.re + o.re)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = scalar(other)
        if self.im or o.im:
            return _make(self.re - o.re, self.im - o.im)
        return _make(self.re - o.re)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return scalar(other) - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = scalar(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b:
            return _make(a * c, a * d) if d else _make(a * c)
        if not d:
            return _make(a * c, b * c)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero scalar")
            return _make(1 / self.re)
        n = self.re * self.re + self.im * self.im
        return _make(self.re / n, -self.im / n)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * scalar(other).inv()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return scalar(other) * self.inv()

    def __neg__(self) -> "Scalar":
        return _make(-self.re, -self.im)

    def conj(self) -> "Scalar":
        return _make(self.re, -self.im)

    # -- predicates / hashing ---------------------------------------
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, str, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def _make(re: Fraction, im: Fraction = _FZERO) -> Scalar:
    """A Scalar from two Fractions, without coercion."""
    s = object.__new__(Scalar)
    s.re = re
    s.im = im
    return s


def scalar(x: ScalarLike) -> Scalar:
    """Coerce an int, string, Fraction, or Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


# ----------------------------------------------------------------------
# integer forms
#
# An integer form is (den, re, im): integer rows ``re`` and ``im`` (None
# when every imaginary part is zero) with ``entries == (re + i*im)/den``.
# Rows are always lists, so forms compare and hash alike.


def _integer_form(rows: Sequence[Sequence[Scalar]]) -> tuple[int, list, list | None]:
    """Common positive denominator and integer numerator rows of Scalar rows.

    The denominator is the least common one, so the form is in lowest
    terms.  The shared ``ZERO`` and zero-Fraction objects are recognised
    by identity first, which skips most Fraction calls on sparse rows.
    """
    den = 1
    gaussian = False
    for row in rows:
        for a in row:
            if a is ZERO:
                continue
            d = a.re.denominator
            if d != 1:
                den = lcm(den, d)
            if a.im is not _FZERO and a.im:
                gaussian = True
                d = a.im.denominator
                if d != 1:
                    den = lcm(den, d)
    if den == 1:
        re = [[0 if a is ZERO else a.re.numerator for a in row] for row in rows]
    else:
        re = [[0 if a is ZERO else a.re.numerator * (den // a.re.denominator) for a in row]
              for row in rows]
    im = None
    if gaussian:
        im = [[0 if a is ZERO else a.im.numerator * (den // a.im.denominator) for a in row]
              for row in rows]
    return den, re, im


def _vector_form(v: Sequence[ScalarLike]) -> tuple[int, list[int], list[int] | None]:
    den, re, im = _integer_form([[x if type(x) is Scalar else scalar(x) for x in v]])
    return den, re[0], None if im is None else im[0]


def _scalar_row(den: int, re: Sequence[int], im: Sequence[int] | None) -> tuple[Scalar, ...]:
    """Scalars (re + i*im)/den of one integer row; zeros are the shared ``ZERO``."""
    if im is None:
        if den == 1:
            return tuple([_make(Fraction(x)) if x else ZERO for x in re])
        return tuple([_make(Fraction(x, den)) if x else ZERO for x in re])
    return tuple([_make(Fraction(x, den), Fraction(y, den)) if y
                  else _make(Fraction(x, den)) if x else ZERO for x, y in zip(re, im)])


def _imatmul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Integer matrix product.

    A row of A with more nonzeros than zeros takes one dot product per
    column of B (B is transposed once, on the first such row); any other
    row accumulates the rows of B over its nonzero entries.
    """
    out = []
    columns = None
    for arow in A:
        if 2 * arow.count(0) < len(arow):
            if columns is None:
                columns = list(zip(*B))
            out.append([sum(map(mul, arow, col)) for col in columns])
            continue
        acc = [0] * width
        for a, brow in zip(arow, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


def _imatvec(A: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in A]


def _ikron(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[a * b for a in arow for b in brow] for arow in A for brow in B]


def _transposed(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _combine(x: list | None, y: list | None, sign: int = 1) -> list | None:
    """x + sign*y on (possibly nested) integer lists, with None as zero."""
    if y is None:
        return x
    if x is None:
        return y if sign == 1 else _scaled(y, -1)
    if x and isinstance(x[0], list):
        return [_combine(a, b, sign) for a, b in zip(x, y)]
    return [a + sign * b for a, b in zip(x, y)]


def _scaled(x: list, c: int) -> list:
    if x and isinstance(x[0], list):
        return [[c * a for a in row] for row in x]
    return [c * a for a in x]


def _gaussian_product(f, ar, ai, br, bi):
    """(ar + i*ai)(br + i*bi) for an integer bilinear product f; None parts are zero."""
    re = f(ar, br)
    if ai is not None and bi is not None:
        re = _combine(re, f(ai, bi), -1)
    im = None
    if bi is not None:
        im = f(ar, bi)
    if ai is not None:
        im = _combine(im, f(ai, br))
    return re, im


def _common_form(ms: Sequence["ExactMatrix"]) -> tuple[int, list[tuple[list, list | None]]]:
    """A common denominator of ms and each one's (re, im) numerator rows over it.

    The imaginary rows are None for every matrix when all are real, and
    zeros for the real ones otherwise.
    """
    den = lcm(*(m.den for m in ms))
    gaussian = any(m.im is not None for m in ms)
    parts = []
    for m in ms:
        im = m.im
        if im is None and gaussian:
            im = [[0] * m.cols for _ in range(m.rows)]
        s = den // m.den
        parts.append((_scaled(m.re, s), None if im is None else _scaled(im, s)))
    return den, parts


# ----------------------------------------------------------------------
# fraction-free elimination


def _eliminate(m: list, gaussian: bool) -> tuple[list[int], list]:
    """Gauss-Jordan elimination on integer rows, in place.

    Rows are lists of ints, or ``(re, im)`` pairs of int lists when
    ``gaussian``.  A row operation replaces a row by ``a*row - b*pivot_row``
    (a, b the pivot entry and the row's entry over their gcd) and then
    divides out the content (gcd of all entries), so no fraction is ever
    formed and entries stay small.  Only ``m`` is changed, never a row
    list it holds.  Returns ``(pivots, scales)``: the first
    ``len(pivots)`` rows are the pivot rows, each zero at every other
    pivot column, and the determinant of ``m`` has been multiplied by the
    product of ``a/content`` over ``scales`` (``a`` an int or an
    ``(re, im)`` pair), times -1 per row swap (recorded as ``(-1, 1)``).
    """
    nrows = len(m)
    ncols = (len(m[0][0]) if gaussian else len(m[0])) if m else 0
    pivots: list[int] = []
    scales: list = []
    r = 0
    for c in range(ncols):
        if gaussian:
            pr = next((i for i in range(r, nrows) if m[i][0][c] or m[i][1][c]), None)
        else:
            pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            scales.append((-1, 1))
        if gaussian:
            vre, vim = m[r]
            pre, pim = vre[c], vim[c]
            for i in range(nrows):
                ure, uim = m[i]
                fre, fim = ure[c], uim[c]
                if i == r or not (fre or fim):
                    continue
                g = gcd(pre, pim, fre, fim)
                are, aim, bre, bim = pre // g, pim // g, fre // g, fim // g
                nre = [are * x - aim * y - bre * s + bim * t
                       for x, y, s, t in zip(ure, uim, vre, vim)]
                nim = [are * y + aim * x - bre * t - bim * s
                       for x, y, s, t in zip(ure, uim, vre, vim)]
                h = gcd(*nre, *nim)
                if h > 1:
                    nre = [x // h for x in nre]
                    nim = [x // h for x in nim]
                m[i] = (nre, nim)
                scales.append(((are, aim), h or 1))
        else:
            prow = m[r]
            p = prow[c]
            for i in range(nrows):
                row = m[i]
                f = row[c]
                if i == r or not f:
                    continue
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                h = gcd(*new)
                if h > 1:
                    new = [x // h for x in new]
                m[i] = new
                scales.append((a, h or 1))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, scales


def _row_reduce(re: Sequence[list[int]], im: Sequence[list[int]] | None = None,
                ) -> tuple["ExactMatrix", list[int]]:
    """Reduced row echelon form of the integer rows re + i*im (im None when real).

    Only the row space matters, so rows need no common denominator.
    Each row is scaled to coprime integers and eliminated fraction-free;
    pivot rows are divided by their pivots only in the returned matrix.
    Returns (the nonzero reduced rows, pivot columns).  The reduced
    echelon form is unique, so it is the one exact Gauss-Jordan
    elimination over Q[i] gives.
    """
    width = len(re[0]) if re else 0
    gaussian = im is not None and any(map(any, im))
    m: list = []
    for k, row in enumerate(re):
        irow = im[k] if gaussian else ()
        h = gcd(*row, *irow)
        if h > 1:
            row = [x // h for x in row]
            irow = [x // h for x in irow]
        m.append((row, irow) if gaussian else row)
    pivots, _ = _eliminate(m, gaussian)
    out_re, out_im = [], []
    if gaussian:
        # row/(p + i*q) = row*(p - i*q)/(p^2 + q^2)
        norms = [x[c] * x[c] + y[c] * y[c] for (x, y), c in zip(m, pivots)]
        den = lcm(*norms)
        for (x_row, y_row), c, n in zip(m, pivots, norms):
            p, q, s = x_row[c], y_row[c], den // n
            out_re.append([(x * p + y * q) * s for x, y in zip(x_row, y_row)])
            out_im.append([(y * p - x * q) * s for x, y in zip(x_row, y_row)])
        return ExactMatrix._from_ints(width, den, out_re, out_im), pivots
    den = lcm(*(abs(row[c]) for row, c in zip(m, pivots)))
    for row, c in zip(m, pivots):
        s = den // row[c]
        out_re.append([x * s for x in row])
    return ExactMatrix._from_ints(width, den, out_re), pivots


class ExactMatrix:
    """An immutable matrix over Q[i], stored as one integer form.

    ``den`` is a positive common denominator and ``re``/``im`` are the
    integer numerator rows of the real and imaginary parts (``im`` is
    None when every entry is real), in lowest terms, so equal matrices
    have equal forms.  :class:`Scalar` entries are built when first read
    and cached, or kept as given when the matrix is built from them.
    """

    __slots__ = ("rows", "cols", "den", "re", "im", "_entries", "_hash")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]], cols: int | None = None):
        grid = tuple(tuple([e if type(e) is Scalar else scalar(e) for e in row])
                     for row in entries)
        self.rows = len(grid)
        if grid:
            self.cols = len(grid[0])
            if any(len(r) != self.cols for r in grid):
                raise ValueError("ragged matrix")
        else:
            self.cols = 0 if cols is None else cols
        if cols is not None and self.cols != cols:
            raise ValueError("column count mismatch")
        self.den, self.re, self.im = _integer_form(grid)
        self._entries = grid
        self._hash = None

    @staticmethod
    def _from_ints(cols: int, den: int, re: list[list[int]],
                   im: list[list[int]] | None = None) -> "ExactMatrix":
        """The matrix (re + i*im)/den, brought to lowest terms."""
        if im is not None and not any(map(any, im)):
            im = None
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ())) if den > 1 else 1
        if g > 1:
            den //= g
            re = [[x // g for x in row] for row in re]
            if im is not None:
                im = [[x // g for x in row] for row in im]
        M = object.__new__(ExactMatrix)
        M.rows = len(re)
        M.cols = cols
        M.den, M.re, M.im = den, re, im
        M._entries = M._hash = None
        return M

    def _map(self, cols: int, f: Callable[[list], list]) -> "ExactMatrix":
        """The matrix over the same denominator whose numerator rows are f of these."""
        return ExactMatrix._from_ints(cols, self.den, f(self.re),
                                      None if self.im is None else f(self.im))

    @property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._entries is None:
            im = self.im
            self._entries = tuple(_scalar_row(self.den, row, None if im is None else im[i])
                                  for i, row in enumerate(self.re))
        return self._entries

    # -- constructors ----------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._from_ints(cols, 1, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._from_ints(n, 1, [[int(i == j) for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Sequence[ScalarLike]) -> "ExactMatrix":
        n = len(values)
        return ExactMatrix([[scalar(values[i]) if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[ScalarLike]], ambient_dim: int | None = None) -> "ExactMatrix":
        cols = [list(c) for c in columns]
        if not cols:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty column list")
            return ExactMatrix.zeros(ambient_dim, 0)
        return ExactMatrix(cols).transpose()

    @staticmethod
    def from_function(rows: int, cols: int, f: Callable[[int, int], ScalarLike]) -> "ExactMatrix":
        return ExactMatrix([[f(i, j) for j in range(cols)] for i in range(rows)], cols=cols)

    # -- access ------------------------------------------------------
    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries[ij[0]][ij[1]]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i]

    def _rows_at(self, indices: Sequence[int]) -> "ExactMatrix":
        return self._map(self.cols, lambda rows: [rows[i] for i in indices])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ExactMatrix":
        """The entries at the given row and column indices, in that order."""
        return self._map(len(cols), lambda m: [[m[i][j] for j in cols] for i in rows])

    # -- algebra -----------------------------------------------------
    def _plus(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        self._same_shape(other)
        den, ((ra, ia), (rb, ib)) = _common_form([self, other])
        return ExactMatrix._from_ints(self.cols, den, _combine(ra, rb, sign),
                                      _combine(ia, ib, sign))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return self._map(self.cols, lambda rows: _scaled(rows, -1))

    def scale(self, c: ScalarLike) -> "ExactMatrix":
        dc, (cre,), cim = _vector_form([c])
        re, im = _gaussian_product(_scaled, self.re, self.im, cre, None if cim is None else cim[0])
        return ExactMatrix._from_ints(self.cols, self.den * dc, re, im)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        width = other.cols
        re, im = _gaussian_product(lambda A, B: _imatmul(A, B, width),
                                   self.re, self.im, other.re, other.im)
        return ExactMatrix._from_ints(width, self.den * other.den, re, im)

    def apply(self, v: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
        """Matrix-vector product as a tuple."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        dv, vre, vim = _vector_form(v)
        return _scalar_row(self.den * dv, *_gaussian_product(_imatvec, self.re, self.im, vre, vim))

    def power(self, k: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = ExactMatrix.identity(self.rows)
        for _ in range(k):
            result = result @ self
        return result

    def transpose(self) -> "ExactMatrix":
        return self._map(self.rows, lambda rows: _transposed(rows, self.cols))

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix._from_ints(self.cols, self.den, self.re,
                                      None if self.im is None else _scaled(self.im, -1))

    def hstack(self, *others: "ExactMatrix") -> "ExactMatrix":
        """This matrix with the others placed to its right, in order."""
        if any(o.rows != self.rows for o in others):
            raise ValueError("row count mismatch in hstack")
        den, parts = _common_form([self, *others])

        def joined(blocks):
            return [list(chain.from_iterable(rows)) for rows in zip(*blocks)]

        im = None if parts[0][1] is None else joined([i for _, i in parts])
        return ExactMatrix._from_ints(self.cols + sum(o.cols for o in others), den,
                                      joined([r for r, _ in parts]), im)

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self @ other - other @ self

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def is_real(self) -> bool:
        return self.im is None

    def trace(self) -> Scalar:
        diagonal = range(min(self.rows, self.cols))
        im = [0] if self.im is None else [sum(self.im[i][i] for i in diagonal)]
        return _scalar_row(self.den, [sum(self.re[i][i] for i in diagonal)], im)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.den, self.re, self.im)
                == (other.rows, other.cols, other.den, other.re, other.im))

    def __hash__(self) -> int:
        # computed once: no code writes to a matrix's rows after construction
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.den, tuple(map(tuple, self.re)),
                               None if self.im is None else tuple(map(tuple, self.im))))
        return self._hash

    def _same_shape(self, other: "ExactMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self) -> str:
        body = "; ".join(" ".join(repr(a) for a in r) for r in self.entries)
        return f"ExactMatrix[{self.rows}x{self.cols}: {body}]"


def vstack(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """The blocks stacked top to bottom."""
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column count mismatch in vstack")
    den, parts = _common_form(blocks)
    im = None if parts[0][1] is None else [row for _, part in parts for row in part]
    return ExactMatrix._from_ints(cols, den, [row for re, _ in parts for row in re], im)


def block_diag(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """The block-diagonal matrix with the given blocks, top left to bottom right."""
    total, offset, rows = sum(b.cols for b in blocks), 0, []
    for b in blocks:
        after = ExactMatrix.zeros(b.rows, total - offset - b.cols)
        rows.append(ExactMatrix.zeros(b.rows, offset).hstack(b, after))
        offset += b.cols
    return vstack(rows)


def kron(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Kronecker product: entry (i*B.rows + k, j*B.cols + l) is A[i, j] * B[k, l]."""
    re, im = _gaussian_product(_ikron, A.re, A.im, B.re, B.im)
    return ExactMatrix._from_ints(A.cols * B.cols, A.den * B.den, re, im)


class Subspace:
    """A subspace of ``Scalar^n`` with a canonical reduced-echelon basis.

    The basis matrix has the subspace's dimension many columns; each
    column's first nonzero coordinate (its pivot) is 1, pivots are
    strictly increasing across columns, and every other basis column
    vanishes at each pivot coordinate.  Two subspaces are equal iff
    their canonical bases are equal entrywise, which makes filtration
    comparisons decidable.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: ExactMatrix, pivots: tuple[int, ...]):
        if basis.rows != ambient_dim:
            raise ValueError("basis ambient dimension mismatch")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    # -- constructors ----------------------------------------------
    @staticmethod
    def from_columns(ambient_dim: int, columns: Iterable[Sequence[ScalarLike]]) -> "Subspace":
        gen_rows = [[scalar(x) for x in col] for col in columns]
        for row in gen_rows:
            if len(row) != ambient_dim:
                raise ValueError("generator length mismatch")
        return _row_space(ExactMatrix(gen_rows, cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ExactMatrix.zeros(ambient_dim, 0), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ExactMatrix.identity(ambient_dim),
                        tuple(range(ambient_dim)))

    # -- structure ----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.basis.cols

    def pivots(self) -> tuple[int, ...]:
        return self._pivots

    def basis_columns(self) -> list[tuple[Scalar, ...]]:
        return self.basis.columns()

    def _residual(self, v: Sequence[ScalarLike]) -> tuple[int, list[int], list[int] | None]:
        """Integer form of ``w - B*(w at the pivots)``, B the canonical basis.

        A canonical basis vector is 1 at its own pivot and 0 at every
        other pivot, so this is the residual of subtracting the
        canonical projection: zero at all pivot coordinates, and zero
        exactly when v lies in the subspace.
        """
        dw, wre, wim = _vector_form(v)
        if len(wre) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        B = self.basis
        cre = [wre[p] for p in self._pivots]
        cim = None if wim is None else [wim[p] for p in self._pivots]
        pre, pim = _gaussian_product(_imatvec, B.re, B.im, cre, cim)
        return (dw * B.den, _combine(_scaled(wre, B.den), pre, -1),
                _combine(None if wim is None else _scaled(wim, B.den), pim, -1))

    def contains_vector(self, v: Sequence[ScalarLike]) -> bool:
        _, re, im = self._residual(v)
        return not any(re) and (im is None or not any(im))

    def contains(self, other: "Subspace") -> bool:
        return _pivot_coordinates(self, other.basis) is not None

    def coordinates(self, v: Sequence[ScalarLike]) -> tuple[Scalar, ...]:
        """Coordinates of v in the canonical basis (v must lie in the subspace)."""
        w = [scalar(x) for x in v]
        coords = tuple(w[p] for p in self._pivots)
        if not self.contains_vector(w):
            raise ValueError("vector not in subspace")
        return coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


# ----------------------------------------------------------------------
# subspace operations


def _pivot_coordinates(U: Subspace, X: ExactMatrix) -> ExactMatrix | None:
    """Coordinates of the columns of X in U's canonical basis, or None if one is not in U.

    The columns' entries at U's pivots are their coordinates when they
    lie in U (the residual of :meth:`Subspace._residual`, for all
    columns at once), so one product and one comparison decide it.
    """
    if X.rows != U.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    C = X._rows_at(U.pivots())
    return C if U.basis @ C == X else None


def _row_space(M: ExactMatrix) -> Subspace:
    """The span of the rows of M, in canonical form."""
    if not M.rows:
        return Subspace.zero(M.cols)
    red, pivots = _row_reduce(M.re, M.im)
    return Subspace(M.cols, red.transpose(), tuple(pivots))


def _null_generators(M: ExactMatrix) -> ExactMatrix:
    """Rows spanning the null space of M, one per free column of its RREF.

    They are not in canonical form; callers that only span them (and
    canonicalise a later image) skip the second row reduction of
    :func:`kernel`.
    """
    red, pivots = _row_reduce(M.re, M.im)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]

    def generators(rows: list[list[int]], unit: int) -> list[list[int]]:
        # red.den * -(e_f - sum_r red[r][f] e_{p_r}): the same span, in integers
        gens = []
        for f in free:
            v = [0] * M.cols
            v[f] = unit
            for row, p in zip(rows, pivots):
                v[p] = row[f]
            gens.append(v)
        return gens

    im = None if red.im is None else generators(red.im, 0)
    return ExactMatrix._from_ints(M.cols, 1, generators(red.re, -red.den), im)


def kernel(M: ExactMatrix) -> Subspace:
    """Exact null space of M, in canonical form."""
    return _row_space(_null_generators(M))


def image(M: ExactMatrix) -> Subspace:
    """Exact column space of M, in canonical form."""
    return _row_space(M.transpose())


def intersect(A: Subspace, B: Subspace) -> Subspace:
    """A ∩ B: one null space of [A | B] and one image.

    Meets with a filtration step read the filtration's adapted basis
    instead (:func:`bigraded_pieces`, :func:`induced_filtration_on_graded`).
    """
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if A.dim == 0 or B.dim == 0:
        return Subspace.zero(A.ambient_dim)
    # Ax = -By and Ax = By have the same solutions x up to the sign of y
    gens = _null_generators(A.basis.hstack(B.basis))
    return image(A.basis @ gens.submatrix(range(gens.rows), range(A.dim)).transpose())


def subspace_sum(first: Subspace, *others: Subspace) -> Subspace:
    """The span of all the given subspaces, in one image."""
    if any(o.ambient_dim != first.ambient_dim for o in others):
        raise ValueError("ambient dimension mismatch")
    return image(first.basis.hstack(*(o.basis for o in others)))


def apply_to_subspace(M: ExactMatrix, V: Subspace) -> Subspace:
    """Image M(V) of a subspace under a matrix."""
    if M.cols != V.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return image(M @ V.basis)


def matrix_between(M: ExactMatrix, V: Subspace, U: Subspace) -> ExactMatrix:
    """Matrix of M from V to U in their canonical bases.

    Raises ValueError if M does not map V into U.
    """
    X = _pivot_coordinates(U, M @ V.basis)
    if X is None:
        raise ValueError("vector not in subspace")
    return X


def maps_into(M: ExactMatrix, V: Subspace, U: Subspace) -> bool:
    """Whether M maps the subspace V into the subspace U."""
    return _pivot_coordinates(U, M @ V.basis) is not None


def solve(A: ExactMatrix, b: Sequence[ScalarLike]) -> tuple[Scalar, ...] | None:
    """One exact solution x of Ax = b, or None if inconsistent."""
    bb = [scalar(x) for x in b]
    if len(bb) != A.rows:
        raise ValueError("rhs length mismatch")
    aug = A.hstack(ExactMatrix([[x] for x in bb], cols=1))
    red, pivots = _row_reduce(aug.re, aug.im)
    if A.cols in pivots:
        return None
    x = [ZERO] * A.cols
    for p, value in zip(pivots, red.column(A.cols)):
        x[p] = value
    return tuple(x)


def rank(M: ExactMatrix) -> int:
    return len(_row_reduce(M.re, M.im)[1])


def _gaussian_int_product(values: Iterable) -> tuple[int, int]:
    """Product of ints and (re, im) int pairs, as an (re, im) pair."""
    re, im = 1, 0
    for v in values:
        if isinstance(v, tuple):
            re, im = re * v[0] - im * v[1], re * v[1] + im * v[0]
        else:
            re, im = re * v, im * v
    return re, im


def determinant(M: ExactMatrix) -> Scalar:
    """Exact determinant by the fraction-free elimination of :func:`_row_reduce`.

    Elimination scales the determinant by the recorded row factors and
    leaves a diagonal matrix of pivots, so det = prod(pivots) / (prod
    of factors * den**n) for the integer form ``(numerators)/den``.
    """
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    gaussian = M.im is not None
    m = list(zip(M.re, M.im)) if gaussian else list(M.re)
    pivots, scales = _eliminate(m, gaussian)
    if len(pivots) < n:
        return ZERO
    diag = [(row[0][c], row[1][c]) if gaussian else row[c] for row, c in zip(m, pivots)]
    num = _gaussian_int_product(chain(diag, (h for _, h in scales)))
    dden = _gaussian_int_product(chain((a for a, _ in scales), [M.den ** n]))
    return Scalar(num[0], num[1]) / Scalar(dden[0], dden[1])


def inverse(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square invertible matrix (ValueError if singular)."""
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    aug = M.hstack(ExactMatrix.identity(n))
    red, pivots = _row_reduce(aug.re, aug.im)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return red._map(n, lambda rows: [row[n:] for row in rows])


def exp_nilpotent(N: ExactMatrix, coeff: ScalarLike = 1) -> ExactMatrix:
    """exp(coeff * N) for nilpotent N — an exact polynomial sum."""
    if N.rows != N.cols:
        raise ValueError("non-square matrix")
    n = N.rows
    c = scalar(coeff)
    term = ExactMatrix.identity(n)
    total = term
    power = ONE
    fact = 1
    for k in range(1, n + 1):
        term = term @ N
        if term.is_zero():
            break
        power = power * c
        fact *= k
        total = total + term.scale(power * Scalar(Fraction(1, fact)))
    if not term.is_zero():
        raise ValueError("matrix is not nilpotent")
    return total


# ----------------------------------------------------------------------
# filtrations


def _pivot_complement(big: Subspace, small: Subspace) -> list[int]:
    """Positions of big's canonical basis columns whose pivots are not pivots of small.

    For small inside big these columns span a complement of small: nested
    canonical bases have nested pivot sets.
    """
    small_pivots = set(small.pivots())
    return [j for j, p in enumerate(big.pivots()) if p not in small_pivots]


class Filtration:
    """An integer-indexed chain of nested subspaces.

    ``direction`` is ``"increasing"`` (steps grow with the index, like a
    weight filtration) or ``"decreasing"`` (steps shrink, like a Hodge
    filtration).  Queries outside the stored index range saturate: an
    increasing filtration is zero below its lowest stored step and
    constant above its highest; a decreasing one is constant below its
    lowest stored index and zero above its highest.
    """

    INCREASING = "increasing"
    DECREASING = "decreasing"

    __slots__ = ("ambient_dim", "direction", "steps", "_adapted")

    def __init__(self, ambient_dim: int, direction: str,
                 steps: Sequence[tuple[int, Subspace]]):
        if direction not in (self.INCREASING, self.DECREASING):
            raise ValueError(f"bad direction {direction!r}")
        ordered = sorted(steps, key=lambda t: t[0])
        indices = [l for l, _ in ordered]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate filtration indices")
        for _, sub in ordered:
            if sub.ambient_dim != ambient_dim:
                raise ValueError("step ambient dimension mismatch")
        for (l1, s1), (l2, s2) in zip(ordered, ordered[1:]):
            lo, hi = (s1, s2) if direction == self.INCREASING else (s2, s1)
            if not hi.contains(lo):
                raise ValueError(f"filtration not nested between indices {l1} and {l2}")
        self.ambient_dim = ambient_dim
        self.direction = direction
        self.steps = tuple(ordered)
        self._adapted: tuple[ExactMatrix, tuple[int, ...]] | None = None

    @staticmethod
    def from_generators(ambient_dim: int, direction: str,
                        steps: Sequence[tuple[int, Iterable[Sequence[ScalarLike]]]]) -> "Filtration":
        return Filtration(ambient_dim, direction,
                          [(l, Subspace.from_columns(ambient_dim, gens)) for l, gens in steps])

    def indices(self) -> list[int]:
        return [l for l, _ in self.steps]

    def step(self, l: int) -> Subspace:
        """The subspace at index l, with saturation outside the stored range."""
        if self.direction == self.INCREASING:
            best = None
            for idx, sub in self.steps:
                if idx <= l:
                    best = sub
                else:
                    break
            return best if best is not None else Subspace.zero(self.ambient_dim)
        best = None
        for idx, sub in reversed(self.steps):
            if idx >= l:
                best = sub
            else:
                break
        return best if best is not None else Subspace.zero(self.ambient_dim)

    def _sub_step(self, l: int) -> Subspace:
        """The next-smaller step: index l-1 if increasing, l+1 if decreasing."""
        return self.step(l - 1) if self.direction == self.INCREASING else self.step(l + 1)

    def graded_dim(self, l: int) -> int:
        return self.step(l).dim - self._sub_step(l).dim

    def graded_range(self) -> list[int]:
        """Indices l with nonzero graded piece."""
        if not self.steps:
            return []
        indices = self.indices()
        lo, hi = indices[0], indices[-1]
        return [l for l in range(lo, hi + 1) if self.graded_dim(l) != 0]

    def graded_basis(self, l: int) -> ExactMatrix:
        """Deterministic quotient basis of Gr_l: the pivot-complement columns of step(l)."""
        big = self.step(l)
        return big.basis.submatrix(range(big.ambient_dim),
                                   _pivot_complement(big, self._sub_step(l)))

    def _graded_coordinates(self, l: int, X: ExactMatrix) -> ExactMatrix:
        """Coordinates in the graded_basis(l) quotient basis of the classes of
        the columns of X, which must lie in step(l).

        Subtracting the canonical projection onto the next-smaller step
        leaves a residual that is zero at that step's pivots, so its
        entries at the other pivots of step(l) are the coordinates.
        """
        big, small = self.step(l), self._sub_step(l)
        rows = [big.pivots()[j] for j in _pivot_complement(big, small)]
        return X._rows_at(rows) - small.basis._rows_at(rows) @ X._rows_at(small.pivots())

    def _graded_frame(self) -> tuple[ExactMatrix, tuple[int, ...]]:
        """P, the graded_basis(l) columns joined in increasing l, and each column's l."""
        levels = self.graded_range()
        bases = [self.graded_basis(l) for l in levels]
        P = ExactMatrix.zeros(self.ambient_dim, 0).hstack(*bases)
        return P, tuple(l for l, basis in zip(levels, bases) for _ in range(basis.cols))

    @property
    def adapted(self) -> tuple[ExactMatrix, tuple[int, ...]]:
        """The adapted basis as (Q, weights): Q inverts P of :meth:`_graded_frame`.

        Every step is a coordinate subspace in it: v lies in step(l)
        exactly when (Qv)_j = 0 for every weights[j] beyond l (above l if
        increasing, below l if decreasing), and for v in step(l) the
        entries at weight l are its coordinates in graded_basis(l).
        Computed once; ValueError when the graded pieces do not fill the
        space.
        """
        if self._adapted is None:
            P, weights = self._graded_frame()
            if P.cols != P.rows:
                raise ValueError("the filtration does not exhaust the space")
            self._adapted = (inverse(P), weights)
        return self._adapted

    def _beyond(self, l: int) -> list[int]:
        """The rows of Q whose vanishing on v says that v lies in step(l)."""
        _, weights = self.adapted
        if self.direction == self.INCREASING:
            return [j for j, w in enumerate(weights) if w > l]
        return [j for j, w in enumerate(weights) if w < l]

    def shift(self, offset: int) -> "Filtration":
        """Reindex: result.step(l) == self.step(l - offset).  An adapted basis
        already computed carries over with its weights moved by the offset."""
        out = Filtration(self.ambient_dim, self.direction,
                         [(l + offset, sub) for l, sub in self.steps])
        if self._adapted is not None:
            Q, weights = self._adapted
            out._adapted = (Q, tuple(w + offset for w in weights))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Filtration):
            return NotImplemented
        if (self.ambient_dim, self.direction) != (other.ambient_dim, other.direction):
            return False
        indices = sorted(set(self.indices()) | set(other.indices()))
        if not indices:
            return True
        lo, hi = indices[0] - 1, indices[-1] + 1
        return all(self.step(l) == other.step(l) for l in range(lo, hi + 1))

    def __repr__(self) -> str:
        parts = ", ".join(f"{l}:{sub.dim}" for l, sub in self.steps)
        return f"Filtration({self.direction}, dims {parts})"


def induced_map_on_graded(M: ExactMatrix, W: Filtration, l: int, shift: int = 0) -> ExactMatrix:
    """Matrix of the map Gr_l -> Gr_{l+shift} induced by M.

    Quotient bases are the deterministic pivot-complement bases of the
    filtration.  Raises ValueError if M fails to map step(l) into
    step(l+shift) (or the sub-steps correspondingly), i.e. if the
    induced map is not defined.  The matrix is 0x0 when Gr_{l+shift}
    is zero, whatever the dimension of Gr_l.
    """
    src, tgt = l, l + shift
    if not maps_into(M, W.step(src), W.step(tgt)):
        raise ValueError(f"matrix does not map step {src} into step {tgt}")
    if not maps_into(M, W._sub_step(src), W._sub_step(tgt)):
        raise ValueError("matrix does not respect the sub-steps")
    if W.graded_dim(tgt) == 0:
        # the top primitive level of hodgestruct._primitive_polarized
        # reads "trivial" through the 0x0 shape, and its reports depend on it
        return ExactMatrix.zeros(0, 0)
    return W._graded_coordinates(tgt, M @ W.graded_basis(src))


def _meet_coefficients(W: Filtration, l: int, QB: ExactMatrix) -> ExactMatrix | None:
    """Columns spanning the coefficients c with B·c in W_l, where QB is Q·B for
    W's adapted Q and B has independent columns; None when every c qualifies.

    In the adapted basis W_l is a coordinate subspace, so the meet of W_l
    with the span of B is B times the null space of the rows of QB beyond l.
    """
    rows = W._beyond(l)
    if len(rows) == W.ambient_dim:
        return ExactMatrix.zeros(QB.cols, 0)
    block = QB._rows_at(rows)
    return None if block.is_zero() else _null_generators(block).transpose()


def induced_filtration_on_graded(V: Filtration, W: Filtration, l: int) -> Filtration:
    """The filtration V induces on Gr_l(W), in the graded_basis(l) quotient basis.

    Step p is the image of V_p ∩ W_l in Gr_l: the weight-l rows of Q·B
    times the null space of its rows beyond l, Q from W's adapted basis
    and B the basis of V_p.  Equal consecutive steps are merged keeping
    the index that the saturation convention needs: the lowest for an
    increasing V, the highest for a decreasing one.
    """
    Q, weights = W.adapted
    at_l = [j for j, w in enumerate(weights) if w == l]
    order = V.indices()
    if V.direction == Filtration.DECREASING:
        order = list(reversed(order))
    steps: list[tuple[int, Subspace]] = []
    prev: Subspace | None = None
    for p in order:
        QB = Q @ V.step(p).basis
        K = _meet_coefficients(W, l, QB)
        graded = QB._rows_at(at_l)
        sub = image(graded if K is None else graded @ K)
        if prev is None or sub != prev:
            steps.append((p, sub))
            prev = sub
    return Filtration(len(at_l), V.direction, steps)


BigradedPiece = tuple[int, int, tuple[tuple[Scalar, ...], ...]]


def bigraded_pieces(W1: Filtration, W2: Filtration) -> tuple[BigradedPiece, ...]:
    """Canonical generators of the double grading by two increasing filtrations.

    For each pair (a, b) of graded levels, in order, with a nonzero piece,
    the generators span a complement of W1_{a-1}∩W2_b + W1_a∩W2_{b-1}
    inside W1_a∩W2_b: the pivot-complement columns of the canonical
    corner basis, which works because nested canonical bases have nested
    pivot sets.  Each corner W1_a∩W2_b is met once, in W1's adapted basis:
    Q·B for B the basis of W2_b is formed once per b, and the corner is B
    times the null space of its rows above a.
    """
    Q, _ = W1.adapted
    coords: dict[int, ExactMatrix] = {}
    corners: dict[tuple[int, int], Subspace] = {}

    def corner(a: int, b: int) -> Subspace:
        if (a, b) not in corners:
            step = W2.step(b)
            if b not in coords:
                coords[b] = Q @ step.basis
            K = _meet_coefficients(W1, a, coords[b])
            corners[(a, b)] = step if K is None else image(step.basis @ K)
        return corners[(a, b)]

    pieces: list[BigradedPiece] = []
    for a in W1.graded_range():
        for b in W2.graded_range():
            big = corner(a, b)
            if big.dim == 0:
                continue
            below = subspace_sum(corner(a - 1, b), corner(a, b - 1))
            if big.dim == below.dim:
                continue
            reps = tuple(big.basis.column(j) for j in _pivot_complement(big, below))
            pieces.append((a, b, reps))
    return tuple(pieces)


# ----------------------------------------------------------------------
# forms


def conj_vector(v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Entrywise complex conjugate."""
    return tuple(a.conj() for a in v)


def bilinear(S: ExactMatrix, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """u^T S v, with no conjugation; S(u, conj v) is bilinear(S, u, conj_vector(v))."""
    acc = ZERO
    for a, b in zip(u, S.apply(v)):
        if a and b:
            acc = acc + a * b
    return acc
