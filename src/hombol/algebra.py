"""Vectors, linear maps, and binary-ternary algebras with a twisting endomorphism.

An algebra is given over a labeled basis by exact structure constants:
``binary[i][j][k]`` is the e_k coordinate of e_i * e_j, ``ternary[i][j][k][l]``
the e_l coordinate of {e_i, e_j, e_k}, and ``twist`` a square matrix whose
column j is the image of e_j.  All entries are Scalars, so every evaluation
is exact and symbolic parameters ride along for free.

A structure tensor of arity r (2 for the binary product, 3 for the ternary
one) is a dense nested tuple indexed t[i1]...[ir]; ``tensor``, ``cell_at`` and
``HomAlgebra.cells`` build, read and walk both arities alike.

A sparse vector is a dict {coordinate: nonzero Scalar}.  A Vector is its
dimension and one such dict (``coords`` lays it out densely), a LinearMap
keeps each column as one, and a HomAlgebra each product cell as a list of
its (coordinate, entry) pairs.  The kernels take and return sparse vectors:
one per arity (``LinearMap._apply``, ``HomAlgebra._binary`` and
``_ternary``, plus ``_scale`` and ``_add``), each looping over its operands'
entries and those of the columns or cells, multiplying and adding through
Scalar's own operators, which short-cut a zero or unit side, into a new dict
that drops the coordinates that cancel.  The identity tables call them
directly; ``apply``, ``compose``, ``eval_binary``, ``eval_ternary`` and the
Vector arithmetic wrap them through ``Vector._of``, the one trusted
constructor.  So vectors, map columns and table values share dicts, which is
safe only because no kernel writes to its inputs (``_add`` copies its first).
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatch, ExponentLimitError
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
    "POWER_LIMIT",
]

# the largest exponent LinearMap.power takes: it admits 2^(n+1) - 2 at the
# largest derived order n = 16, and since an entry of a symbolic map power can
# gain a term per factor, it also bounds the size of a twisted algebra
POWER_LIMIT = 2**17

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


def _sparse(coords):
    """The sparse vector of a Scalar sequence; the ZERO singleton is passed
    over by identity, without a call."""
    return {k: c for k, c in enumerate(coords) if c is not ZERO and c}


def _add(a, b):
    """The sum of two sparse vectors."""
    out = dict(a)
    for k, c in b.items():
        if k in out:
            c = out.pop(k) + c
            if c is ZERO:
                continue
        out[k] = c
    return out


def _scale(v, s):
    """The sparse vector v times the Scalar s."""
    return {k: c * s for k, c in v.items()} if s else {}


class Vector:
    """An element of the algebra: its dimension and its nonzero coordinates
    over the basis, as a sparse vector; ``coords`` lays out all of them."""

    __slots__ = ("dim", "_d")

    def __init__(self, coords):
        coords = [_as_scalar(x) for x in coords]
        self.dim = len(coords)
        self._d = _sparse(coords)

    @classmethod
    def _of(cls, d, dim):
        """Trusted constructor: ``d`` is a sparse vector of dimension ``dim``."""
        v = cls.__new__(cls)
        v.dim = dim
        v._d = d
        return v

    @classmethod
    def zero(cls, dim):
        return cls._of({}, dim)

    @classmethod
    def basis(cls, i, dim):
        if i not in range(dim):
            raise IndexError(f"basis index {i} out of range for dimension {dim}")
        return cls._of({i: ONE}, dim)

    @property
    def coords(self):
        out = [ZERO] * self.dim
        for k, c in self._d.items():
            out[k] = c
        return tuple(out)

    def is_zero(self):
        return not self._d

    def scale(self, s):
        return Vector._of(_scale(self._d, _as_scalar(s)), self.dim)

    def __add__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch("vector dimensions differ")
        return Vector._of(_add(self._d, other._d), self.dim)

    def __sub__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Vector._of({k: -c for k, c in self._d.items()}, self.dim)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.dim == other.dim and self._d == other._d

    def __hash__(self):
        return hash((self.dim, frozenset(self._d.items())))

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
    def _of(cls, rows, cols=None):
        """Trusted constructor: ``rows`` is a square tuple of Scalar tuples,
        and ``cols``, when given, holds the sparse vector of each column."""
        m = cls.__new__(cls)
        m._set_rows(rows, cols)
        return m

    def _set_rows(self, rows, cols=None):
        self.rows = rows
        self._cols = tuple(_sparse(col) for col in zip(*rows)) if cols is None else cols

    @classmethod
    def identity(cls, dim):
        return cls._of(tuple(tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)))

    @classmethod
    def from_columns(cls, cols):
        cols = tuple(tuple(col) for col in cols)
        if any(len(col) != len(cols) for col in cols):
            raise DimensionMismatch("linear map matrix must be square")
        return cls(tuple(zip(*cols)))

    @property
    def dim(self):
        return len(self.rows)

    def column(self, j):
        return Vector._of(self._cols[j], self.dim)

    def apply(self, v):
        if not isinstance(v, Vector):
            v = Vector(v)
        if v.dim != self.dim:
            raise DimensionMismatch("map and vector dimensions differ")
        return Vector._of(self._apply(v._d), self.dim)

    def _apply(self, v):
        """The kernel of apply, on a sparse vector."""
        out = {}
        cols = self._cols
        for j, vj in v.items():
            for i, entry in cols[j].items():
                term = entry * vj
                if i in out:
                    term = out.pop(i) + term
                    if term is ZERO:
                        continue
                out[i] = term
        return out

    def compose(self, other):
        """self after other (matrix product self . other): self applied to
        each column of other."""
        if not isinstance(other, LinearMap) or other.dim != self.dim:
            raise DimensionMismatch("composed maps must share one dimension")
        cols = tuple(self._apply(col) for col in other._cols)
        rows = tuple(tuple(col.get(i, ZERO) for col in cols) for i in range(self.dim))
        return LinearMap._of(rows, cols)

    def power(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("map powers take a nonnegative integer exponent")
        if k > POWER_LIMIT:
            raise ExponentLimitError(f"a map power exceeds the exponent limit {POWER_LIMIT}")
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
            # nonzero (k, c) pairs of each cell, for the kernels' fixed-depth
            # loops; equality ignores them
            setattr(self, f"_{kind}_nz", tensor(dim, arity, lambda idx: list(_sparse(cell_at(dense, idx)).items())))
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

    def eval_binary(self, u, v):
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatch("operands do not match the algebra dimension")
        return Vector._of(self._binary(u._d, v._d), self.dim)

    def eval_ternary(self, u, v, w):
        if u.dim != self.dim or v.dim != self.dim or w.dim != self.dim:
            raise DimensionMismatch("operands do not match the algebra dimension")
        return Vector._of(self._ternary(u._d, v._d, w._d), self.dim)

    def _binary(self, u, v):
        """The kernel of eval_binary, on sparse vectors."""
        out = {}
        vs = v.items()
        for i, ui in u.items():
            cells = self._binary_nz[i]
            for j, vj in vs:
                cell = cells[j]
                if not cell:
                    continue
                factor = ui * vj
                for k, c in cell:
                    term = factor * c
                    if k in out:
                        term = out.pop(k) + term
                        if term is ZERO:
                            continue
                    out[k] = term
        return out

    def _ternary(self, u, v, w):
        """The kernel of eval_ternary, on sparse vectors."""
        out = {}
        vs = v.items()
        ws = w.items()
        for i, ui in u.items():
            for j, vj in vs:
                cells = self._ternary_nz[i][j]
                pair = None
                for k, wk in ws:
                    cell = cells[k]
                    if not cell:
                        continue
                    if pair is None:
                        pair = ui * vj
                    factor = pair * wk
                    for l, c in cell:
                        term = factor * c
                        if l in out:
                            term = out.pop(l) + term
                            if term is ZERO:
                                continue
                        out[l] = term
        return out

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
    Vector); then ("twist", (i,), row i of theta.alpha_src - alpha_dst.theta)
    for every row i."""
    if src.dim != dst.dim or theta.dim != src.dim:
        raise DimensionMismatch("morphism check needs equal dimensions")
    n = src.dim
    images = [theta.column(j) for j in range(n)]
    products = {"binary": dst.eval_binary, "ternary": dst.eval_ternary}
    for kind, idx, coords in src.cells():
        lhs = theta.apply(Vector._of(_sparse(coords), n))
        yield kind, idx, lhs - products[kind](*(images[i] for i in idx))
    lhs, rhs = theta.compose(src.twist), dst.twist.compose(theta)
    for i in range(n):
        yield "twist", (i,), Vector._of(_sparse(lhs.rows[i]), n) - Vector._of(_sparse(rhs.rows[i]), n)


def first_weak_morphism_failure(theta, src, dst):
    """First basis pair/triple where theta fails to intertwine the products.

    Returns None when theta is a weak morphism, else the first nonzero
    product entry of ``morphism_residuals``; the twist rows are not read.
    """
    products = itertools.islice(morphism_residuals(theta, src, dst), src.dim**2 + src.dim**3)
    return next((r for r in products if not r[2].is_zero()), None)


def is_weak_morphism(theta, src, dst):
    """True iff theta intertwines both products on all basis tuples."""
    return first_weak_morphism_failure(theta, src, dst) is None


def is_morphism(theta, src, dst):
    """A weak morphism that also intertwines the twists."""
    return all(r[2].is_zero() for r in morphism_residuals(theta, src, dst))
