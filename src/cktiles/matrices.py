"""Dense integer matrices with exact arithmetic.

Entries are plain Python ints, so every operation is exact regardless of how
large intermediate values grow.  This is the substrate for all the normal-form
and K-group computations, where entry explosion is real even at modest sizes.
"""

from .errors import InputError


class IntMatrix:
    """A dense ``rows x cols`` matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        copied = [list(row) for row in data]
        rows = len(copied)
        cols = len(copied[0]) if rows else 0
        for row in copied:
            if len(row) != cols:
                raise InputError("matrix rows must all have the same length")
            for entry in row:
                if type(entry) is not int:
                    raise InputError(f"matrix entries must be ints, got {entry!r}")
        self.rows = rows
        self.cols = cols
        self.data = copied

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def all_ones(cls, n):
        """The n x n matrix with every entry equal to 1."""
        return cls([[1] * n for _ in range(n)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def to_lists(self):
        return [row[:] for row in self.data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    __hash__ = None

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def _require_same_shape(self, other):
        if not isinstance(other, IntMatrix):
            raise InputError("expected an IntMatrix operand")
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._require_same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        self._require_same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __neg__(self):
        return IntMatrix([[-a for a in row] for row in self.data])

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMatrix([[scalar * a for a in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        """The dense product of nonzero pairs; graphs count paths by ``textile._path_counts``."""
        if not isinstance(other, IntMatrix):
            raise InputError("expected an IntMatrix operand")
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        product = []
        for row in self.data:
            out = [0] * other.cols
            for a, other_row in zip(row, other.data):
                if a:
                    for j, y in enumerate(other_row):
                        if y:
                            out[j] += a * y
            product.append(out)
        return IntMatrix(product)

    def transpose(self):
        return IntMatrix([list(col) for col in zip(*self.data)]) if self.rows else IntMatrix([])

    def kron(self, other):
        """Kronecker product: block (i,j) of the result is self[i,j] * other."""
        if not isinstance(other, IntMatrix):
            raise InputError("expected an IntMatrix operand")
        data = []
        for arow in self.data:
            for brow in other.data:
                data.append([a * b for a in arow for b in brow])
        return IntMatrix(data)

    def det(self):
        """Exact determinant: the full-rank minor of :func:`rank_minor`, else 0."""
        if not self.is_square():
            raise InputError("determinant requires a square matrix")
        rank, minor = rank_minor(self.data)
        return minor if rank == self.rows else 0


def rank_minor(rows):
    """(r, minor) of int row lists: the rank r and a nonzero r x r minor, 1 when r = 0.

    One fraction-free (Bareiss) elimination with full pivoting, on a copy;
    the sign of the swaps is kept, so a square matrix of full rank gets its det.
    """
    m = [row[:] for row in rows]
    sign = prev = 1
    nrows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(nrows, cols)):
        found = next(((i, j) for j in range(k, cols) for i in range(k, nrows) if m[i][j]), None)
        if found is None:
            return k, sign * prev
        i, j = found
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        if j != k:
            for row in m:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, cols):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return min(nrows, cols), sign * prev
