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
                if not isinstance(entry, int):
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

    @classmethod
    def block2(cls, tl, tr, bl, br):
        """Assemble the 2x2 block matrix [[tl, tr], [bl, br]]."""
        if tl.rows != tr.rows or bl.rows != br.rows:
            raise InputError("block rows do not match")
        if tl.cols != bl.cols or tr.cols != br.cols:
            raise InputError("block columns do not match")
        data = [tl.data[i] + tr.data[i] for i in range(tl.rows)]
        data += [bl.data[i] + br.data[i] for i in range(bl.rows)]
        return cls(data)

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
        if not isinstance(other, IntMatrix):
            raise InputError("expected an IntMatrix operand")
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        cols = list(zip(*other.data)) if other.data else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.data]
        )

    def transpose(self):
        return IntMatrix([list(col) for col in zip(*self.data)]) if self.rows else IntMatrix([])

    @property
    def T(self):
        return self.transpose()

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
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise InputError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]
