"""Vectors, linear maps, and binary-ternary algebras with a twisting endomorphism.

An algebra is given over a labeled basis by exact structure constants:
``binary[i][j][k]`` is the e_k coordinate of e_i * e_j, ``ternary[i][j][k][l]``
the e_l coordinate of {e_i, e_j, e_k}, and ``twist`` a square matrix whose
column j is the image of e_j.  All entries are Scalars, so every evaluation
is exact and symbolic parameters ride along for free.

A structure tensor of arity r (2 for the binary product, 3 for the ternary
one) is a dense nested tuple indexed t[i1]...[ir]; ``tensor``, ``cell_at`` and
``HomAlgebra.cells`` build, read and walk both arities alike.  The kernels stay
written per arity: they loop over a private index of the nonzero entries and
build vectors through the trusted ``Vector._of``, which skips the coercion the
public constructor does.
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatch
from .scalars import Scalar, ZERO, ONE

__all__ = [
    "Vector",
    "LinearMap",
    "HomAlgebra",
    "is_weak_morphism",
    "is_morphism",
    "first_weak_morphism_failure",
    "morphism_residuals",
    "PRODUCTS",
    "tensor",
    "cell_at",
    "zero_tensor",
]

# (kind, arity) of the two structure tensors, in the order they are walked
PRODUCTS = (("binary", 2), ("ternary", 3))


def _as_scalar(x):
    s = Scalar._coerce(x)
    if s is None:
        raise TypeError(f"expected a scalar-like value, got {x!r}")
    return s


def _as_coords(seq, dim):
    coords = tuple(_as_scalar(x) for x in seq)
    if len(coords) != dim:
        raise DimensionMismatch(f"expected {dim} coordinates, got {len(coords)}")
    return coords


def _nonzero(coords):
    """The (index, entry) pairs of the nonzero entries of a Scalar tuple."""
    return [(k, c) for k, c in enumerate(coords) if not c.is_zero()]


def _accumulate(out, k, term):
    """out[k] += term, without the addition while out[k] is still zero."""
    acc = out[k]
    out[k] = term if acc.is_zero() else acc + term


class Vector:
    """An element of the algebra, as exact coordinates over the basis."""

    __slots__ = ("coords", "_nz")

    def __init__(self, coords):
        self.coords = tuple(_as_scalar(x) for x in coords)
        self._nz = None

    @classmethod
    def _of(cls, coords):
        """Trusted constructor: ``coords`` is a tuple of Scalars already."""
        v = cls.__new__(cls)
        v.coords = coords
        v._nz = None
        return v

    def _support(self):
        """The (index, coordinate) pairs of the nonzero coordinates, cached."""
        nz = self._nz
        if nz is None:
            nz = self._nz = _nonzero(self.coords)
        return nz

    @classmethod
    def zero(cls, dim):
        return cls._of((ZERO,) * dim)

    @classmethod
    def basis(cls, i, dim):
        return cls._of(tuple(ONE if j == i else ZERO for j in range(dim)))

    @property
    def dim(self):
        return len(self.coords)

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def scale(self, s):
        s = _as_scalar(s)
        out = list(self.coords)
        for k, c in self._support():
            out[k] = c * s
        return Vector._of(tuple(out))

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("vector dimensions differ")
        out = list(self.coords)
        for k, b in other._support():
            _accumulate(out, k, b)
        return Vector._of(tuple(out))

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch("vector dimensions differ")
        out = list(self.coords)
        for k, b in other._support():
            _accumulate(out, k, -b)
        return Vector._of(tuple(out))

    def __neg__(self):
        return Vector._of(tuple(-c for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return f"({', '.join(str(c) for c in self.coords)})"

    def __repr__(self):
        return f"Vector(({', '.join(str(c) for c in self.coords)}))"


class LinearMap:
    """A square matrix of Scalars; column j is the image of basis vector e_j."""

    __slots__ = ("rows", "_cols")

    def __init__(self, rows):
        rows = tuple(tuple(_as_scalar(x) for x in row) for row in rows)
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise DimensionMismatch("linear map matrix must be square")
        self._set_rows(rows)

    @classmethod
    def _of(cls, rows):
        """Trusted constructor: ``rows`` is a square tuple of Scalar tuples."""
        m = cls.__new__(cls)
        m._set_rows(rows)
        return m

    def _set_rows(self, rows):
        self.rows = rows
        # nonzero (i, entry) pairs of each column
        self._cols = tuple(_nonzero(col) for col in zip(*rows))

    @classmethod
    def identity(cls, dim):
        return cls._of(tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_columns(cls, cols):
        cols = tuple(tuple(_as_scalar(x) for x in col) for col in cols)
        dim = len(cols)
        return cls(tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim)))

    @property
    def dim(self):
        return len(self.rows)

    def column(self, j):
        return Vector._of(tuple(row[j] for row in self.rows))

    def apply(self, v):
        if not isinstance(v, Vector):
            v = Vector(v)
        if v.dim != self.dim:
            raise DimensionMismatch("map and vector dimensions differ")
        out = [ZERO] * self.dim
        for vj, col in zip(v.coords, self._cols):
            if not col or vj.is_zero():
                continue
            for i, entry in col:
                _accumulate(out, i, entry * vj)
        return Vector._of(tuple(out))

    def compose(self, other):
        """self after other (matrix product self . other)."""
        if not isinstance(other, LinearMap) or other.dim != self.dim:
            raise DimensionMismatch("composed maps must share one dimension")
        n = self.dim
        cols = []
        for other_col in other._cols:
            col = [ZERO] * n
            for k, b in other_col:
                for i, a in self._cols[k]:
                    _accumulate(col, i, a * b)
            cols.append(col)
        return LinearMap._of(tuple(zip(*cols)))

    def power(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("map powers take a nonnegative integer exponent")
        result = LinearMap.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            k >>= 1
            if k:
                base = base.compose(base)
        return result

    def is_identity(self):
        return self == LinearMap.identity(self.dim)

    def is_zero(self):
        return all(c.is_zero() for row in self.rows for c in row)

    def commutes_with(self, other):
        return self.compose(other) == other.compose(self)

    def variables(self):
        names = set()
        for row in self.rows:
            for entry in row:
                names |= entry.variables()
        return frozenset(names)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in row) for row in self.rows)
        return f"LinearMap([{body}])"


def tensor(dim, arity, cell):
    """The dense tensor t with t[i1]...[ir] == cell((i1, ..., ir)) for every
    index tuple of the given arity r; cells are made in lexicographic order."""
    flat = [cell(idx) for idx in itertools.product(range(dim), repeat=arity)]
    for _ in range(arity):
        flat = [tuple(flat[i : i + dim]) for i in range(0, len(flat), dim)]
    return flat[0]


def cell_at(t, idx):
    """t[i1]...[ir] for the index tuple idx."""
    for i in idx:
        t = t[i]
    return t


def zero_tensor(dim, arity):
    cell = (ZERO,) * dim
    return tensor(dim, arity, lambda idx: cell)


def _has_shape(t, dim, arity):
    """Whether t nests arity levels of length dim (its cells are not looked at)."""
    return len(t) == dim and (arity == 1 or all(_has_shape(s, dim, arity - 1) for s in t))


class HomAlgebra:
    """A finite-dimensional binary-ternary algebra together with a twisting map."""

    __slots__ = ("dim", "basis", "params", "binary", "ternary", "twist", "_binary_nz", "_ternary_nz")

    def __init__(self, dim, basis=None, params=(), binary=None, ternary=None, twist=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        if basis is None:
            basis = tuple(f"e{i + 1}" for i in range(dim))
        basis = tuple(basis)
        if len(basis) != dim or len(set(basis)) != dim:
            raise ValueError("basis labels must be distinct and match the dimension")
        self.basis = basis
        self.params = frozenset(params)
        given = {"binary": binary, "ternary": ternary}
        for kind, arity in PRODUCTS:
            raw = given[kind]
            if raw is None:
                raw = zero_tensor(dim, arity)
            elif not _has_shape(raw, dim, arity):
                raise DimensionMismatch(f"{kind} tensor shape does not match the dimension")
            dense = tensor(dim, arity, lambda idx: _as_coords(cell_at(raw, idx), dim))
            setattr(self, kind, dense)
            # nonzero (k, c) pairs of each cell; equality ignores them
            setattr(self, f"_{kind}_nz", tensor(dim, arity, lambda idx: _nonzero(cell_at(dense, idx))))
        if twist is None:
            twist = LinearMap.identity(dim)
        if twist.dim != dim:
            raise DimensionMismatch("twist matrix shape does not match the dimension")
        self.twist = twist

    def replace(self, **kwargs):
        fields = {
            "dim": self.dim,
            "basis": self.basis,
            "params": self.params,
            "binary": self.binary,
            "ternary": self.ternary,
            "twist": self.twist,
        }
        fields.update(kwargs)
        return HomAlgebra(**fields)

    def basis_vector(self, i):
        return Vector.basis(i, self.dim)

    def eval_binary(self, u, v):
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatch("operands do not match the algebra dimension")
        out = [ZERO] * self.dim
        vs = v._support()
        for i, ui in u._support():
            cells = self._binary_nz[i]
            for j, vj in vs:
                cell = cells[j]
                if not cell:
                    continue
                factor = ui * vj
                for k, c in cell:
                    _accumulate(out, k, factor * c)
        return Vector._of(tuple(out))

    def eval_ternary(self, u, v, w):
        if u.dim != self.dim or v.dim != self.dim or w.dim != self.dim:
            raise DimensionMismatch("operands do not match the algebra dimension")
        out = [ZERO] * self.dim
        vs = v._support()
        ws = w._support()
        for i, ui in u._support():
            for j, vj in vs:
                cells = self._ternary_nz[i][j]
                uv = None
                for k, wk in ws:
                    cell = cells[k]
                    if not cell:
                        continue
                    if uv is None:
                        uv = ui * vj
                    factor = uv * wk
                    for l, c in cell:
                        _accumulate(out, l, factor * c)
        return Vector._of(tuple(out))

    def binary_value(self, i, j):
        return Vector._of(self.binary[i][j])

    def ternary_value(self, i, j, k):
        return Vector._of(self.ternary[i][j][k])

    def is_multiplicative(self):
        """Whether the twist preserves both products (is a weak self-morphism)."""
        return first_weak_morphism_failure(self.twist, self, self) is None

    def cells(self):
        """(kind, index tuple, coords) for every cell of both products: the
        binary pairs, then the ternary triples, each in lexicographic order."""
        for kind, arity in PRODUCTS:
            t = getattr(self, kind)
            for idx in itertools.product(range(self.dim), repeat=arity):
                yield kind, idx, cell_at(t, idx)

    def all_variables(self):
        names = set(self.params)
        for _, _, coords in self.cells():
            for c in coords:
                names |= c.variables()
        names |= self.twist.variables()
        return frozenset(names)

    def __eq__(self, other):
        if not isinstance(other, HomAlgebra):
            return NotImplemented
        # declared parameter sets are bookkeeping, not algebra structure
        return (
            self.dim == other.dim
            and self.basis == other.basis
            and self.binary == other.binary
            and self.ternary == other.ternary
            and self.twist == other.twist
        )

    def __repr__(self):
        return f"HomAlgebra(dim={self.dim}, basis={self.basis})"


def morphism_residuals(theta, src, dst):
    """theta(x*y) - theta(x)*theta(y) on every basis pair, then
    theta({x,y,z}) - {theta(x),theta(y),theta(z)} on every basis triple, in
    lexicographic index order, as ("binary"|"ternary", index tuple, residual
    Vector)."""
    if src.dim != dst.dim or theta.dim != src.dim:
        raise DimensionMismatch("morphism check needs equal dimensions")
    images = [theta.column(j) for j in range(src.dim)]
    products = {"binary": dst.eval_binary, "ternary": dst.eval_ternary}
    for kind, idx, coords in src.cells():
        lhs = theta.apply(Vector._of(coords))
        yield kind, idx, lhs - products[kind](*(images[i] for i in idx))


def first_weak_morphism_failure(theta, src, dst):
    """First basis pair/triple where theta fails to intertwine the products.

    Returns None when theta is a weak morphism, else the first nonzero entry
    of ``morphism_residuals``.
    """
    return next((r for r in morphism_residuals(theta, src, dst) if not r[2].is_zero()), None)


def is_weak_morphism(theta, src, dst):
    """True iff theta intertwines both products on all basis tuples."""
    return first_weak_morphism_failure(theta, src, dst) is None


def is_morphism(theta, src, dst):
    """A weak morphism that also intertwines the twists."""
    if not is_weak_morphism(theta, src, dst):
        return False
    return theta.compose(src.twist) == dst.twist.compose(theta)
