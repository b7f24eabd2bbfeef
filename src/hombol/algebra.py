"""Vectors, linear maps, and binary-ternary algebras with a twisting endomorphism.

An algebra is given over a labeled basis by exact structure constants:
``binary[i][j][k]`` is the e_k coordinate of e_i * e_j, ``ternary[i][j][k][l]``
the e_l coordinate of {e_i, e_j, e_k}, and ``twist`` a square matrix whose
column j is the image of e_j.  Every entry is exact: the public views give
Scalars, so symbolic parameters ride along for free.

A structure tensor of arity r (2 for the binary product, 3 for the ternary
one) is a dense nested tuple indexed t[i1]...[ir]; ``tensor``, ``cell_at`` and
``HomAlgebra.cells`` build, read and walk both arities alike.

A sparse vector is a dict {coordinate: nonzero value}, the one stored form:
a Vector is its dimension and one, a LinearMap one per column, a HomAlgebra
one per product cell.  A value is an int, a Fraction that is not integral, or
a Scalar that is not constant (see ``scalars``).  ``coords``, ``rows``,
``binary``, ``ternary`` and ``cells()`` lay the stored vectors out densely
when read, each coordinate as a Scalar.  The public constructors coerce dense
input; the builders hand sparse vectors to the trusted ``_of`` constructors.
The kernels (``LinearMap._apply``, ``HomAlgebra._binary`` and ``_ternary``,
plus ``_scale`` and ``_add``) loop over the entries of their operands and of
the columns or cells, multiply and add with ``*`` and ``+``, which work on
every mix of numbers and Scalars, drop the coordinates whose sum is zero by
truth value, make an integral Fraction its int, and return a new dict.
Where the constants are ints, as in most algebras, that is native int
arithmetic.  The identity tables call the kernels directly, and the public
methods wrap them with no copy.  So vectors, columns, cells and table values
share dicts, which is safe only because no kernel writes to its inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .errors import DimensionMismatch, ExponentLimitError, refuse_bad_basis, refuse_bad_params
from .scalars import Scalar, ZERO, _as_scalar, _canon, _value_of

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

# the work that finding and using an algebra's signed-permutation symmetries
# may take before a check settles for the trivial group: search nodes, group
# elements, and steps that list the basis tuples a check keeps
SYMMETRY_BUDGET = 5_000

# (kind, arity) of the two structure tensors, in the order they are walked
PRODUCTS = (("binary", 2), ("ternary", 3))
_EMPTY = {}  # the cell of every zero product: shared, as no cell is ever written to


def _as_value(x):
    """x as a stored value (see the module docstring)."""
    value = _value_of(x)
    if value is None:
        raise TypeError(f"expected a scalar-like value, got {x!r}")
    return value


def _as_coords(seq, dim):
    coords = tuple(_as_value(x) for x in seq)
    if len(coords) != dim:
        raise DimensionMismatch(f"expected {dim} coordinates, got {len(coords)}")
    return coords


def _sparse(coords):
    """The sparse vector of a sequence of values."""
    return {k: c for k, c in enumerate(coords) if c}


def _dense(v, dim):
    """The coordinates of the sparse vector v, laid out as a tuple of Scalars."""
    return tuple(_as_scalar(v[k]) if k in v else ZERO for k in range(dim))


def _add(a, b):
    """The sum of two sparse vectors."""
    out = dict(a)
    for k, c in b.items():
        if k in out:
            c = _canon(out.pop(k) + c)
            if not c:
                continue
        out[k] = c
    return out


def _scale(v, s):
    """The sparse vector v times the value s."""
    return {k: _canon(c * s) for k, c in v.items()} if s else {}


class Vector:
    """An element of the algebra: its dimension and its nonzero coordinates
    over the basis, as a sparse vector; ``coords`` lays out all of them."""

    __slots__ = ("dim", "_d")

    def __init__(self, coords):
        coords = [_as_value(x) for x in coords]
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
        return cls._of({i: 1}, dim)

    @property
    def coords(self):
        return _dense(self._d, self.dim)

    def is_zero(self):
        return not self._d

    def __bool__(self):
        """Whether some coordinate is nonzero, as for a Scalar."""
        return bool(self._d)

    def scale(self, s):
        return Vector._of(_scale(self._d, _as_value(s)), self.dim)

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
    """A square matrix of exact values, stored by sparse column; column j is the image of e_j."""

    __slots__ = ("_cols",)

    def __init__(self, rows):
        rows = tuple(tuple(_as_value(x) for x in row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("linear map matrix must be square")
        self._cols = tuple(_sparse(col) for col in zip(*rows))

    @classmethod
    def _of(cls, cols):
        """Trusted constructor: ``cols`` holds the sparse vector of each column."""
        m = cls.__new__(cls)
        m._cols = cols
        return m

    @classmethod
    def identity(cls, dim):
        return cls._of(tuple({j: 1} for j in range(dim)))

    @classmethod
    def from_columns(cls, cols):
        cols = tuple(tuple(col) for col in cols)
        if any(len(col) != len(cols) for col in cols):
            raise DimensionMismatch("linear map matrix must be square")
        return cls(tuple(zip(*cols)))

    @property
    def dim(self):
        return len(self._cols)

    @property
    def rows(self):
        """The matrix as a tuple of rows, laid out from the columns."""
        return tuple(zip(*(_dense(col, self.dim) for col in self._cols)))

    def column(self, j):
        return Vector._of(self._cols[j], self.dim)

    def _row(self, i):
        """Row i as a sparse vector."""
        return {j: col[i] for j, col in enumerate(self._cols) if i in col}

    def apply(self, v):
        if not isinstance(v, Vector):
            v = Vector(v)
        if v.dim != self.dim:
            raise DimensionMismatch("map and vector dimensions differ")
        return Vector._of(self._apply(v._d), self.dim)

    def _apply(self, v):
        """The kernel of apply, on a sparse vector.  A coordinate 1 takes its
        column's entries as they are, so no product makes a copy of them."""
        out = {}
        cols = self._cols
        for j, vj in v.items():
            unit = vj == 1
            for i, entry in cols[j].items():
                term = entry if unit else entry * vj
                if i in out:
                    term = out.pop(i) + term
                    if not term:
                        continue
                if term.__class__ is Fraction and term.denominator == 1:
                    term = term.numerator
                out[i] = term
        return out

    def compose(self, other):
        """self after other (matrix product self . other): self applied to
        each column of other."""
        if not isinstance(other, LinearMap) or other.dim != self.dim:
            raise DimensionMismatch("composed maps must share one dimension")
        return LinearMap._of(tuple(self._apply(col) for col in other._cols))

    def power(self, k):
        """self^k, left to right: square per bit after the leading one, and on
        each set bit compose with self on the right, reading its short columns."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("map powers take a nonnegative integer exponent")
        if k > POWER_LIMIT:
            raise ExponentLimitError(f"a map power exceeds the exponent limit {POWER_LIMIT}")
        if not k:
            return LinearMap.identity(self.dim)
        result = self
        for bit in bin(k)[3:]:
            result = result.compose(result)
            if bit == "1":
                result = result.compose(self)
        return result

    def is_identity(self):
        return self == LinearMap.identity(self.dim)

    def is_zero(self):
        return not any(self._cols)

    def variables(self):
        return _variables(self._cols)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self._cols == other._cols

    def __hash__(self):
        return hash(tuple(frozenset(col.items()) for col in self._cols))

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in row) for row in self.rows)
        return f"LinearMap([{body}])"


def _variables(vectors):
    """The parameters of the Scalar values of some sparse vectors."""
    return frozenset().union(*(c.variables() for v in vectors for c in v.values() if c.__class__ is Scalar))


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


def _skew_cells(t, dim, arity):
    """Whether the nested cells t change sign when their first two indices
    swap: each cell at (j, i, ...) is minus the one at (i, j, ...), so a
    cell at (i, i, ...) is zero.  The product is multilinear, so it then
    does so on all vectors."""
    rests = list(itertools.product(range(dim), repeat=arity - 2))
    return all(
        cell_at(t, (j, i) + rest) == {k: -c for k, c in cell_at(t, (i, j) + rest).items()}
        for i, j in itertools.combinations_with_replacement(range(dim), 2)
        for rest in rests
    )


def _index_group(alg):
    """The index permutations pi of the signed permutations g e_i = s_i e_pi(i)
    that are automorphisms of both products and commute with the twist, as a
    sorted tuple with the identity first.

    g is such a map iff every coordinate c at t of ``_coordinates`` is the
    product of s over t times the coordinate at pi(t).  A search assigns
    pi(i), pi(i+1), ... in turn, each to an index of the same invariants (how
    often an index takes each place of a nonzero coordinate of each magnitude
    and index pattern), checks each coordinate once its indices are assigned,
    and solves for the signs over GF(2) on the way (McKay and Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014).  Each
    coordinate is checked at its largest index, so a map the search returns
    has passed every one.  For i from the last index down, it finds one map
    fixing every index below i and sending i to each point of its orbit.
    Every element fixing the indices below i is one of these maps after an
    element fixing i as well, one listed at the level before, so the group is
    listed as these products (Butler, "Fundamental Algorithms for Permutation
    Groups", LNCS 559, 1991).  Past SYMMETRY_BUDGET search nodes, or group
    elements, the group is taken to be trivial."""
    dim = alg.dim
    coords = _coordinates(alg)
    invariants = [Counter() for _ in range(dim)]
    due = [[] for _ in range(dim)]  # the coordinates whose last index is i
    for (kind, t), c in coords.items():
        shape = (kind, tuple(map(t.index, t)), abs(c) if c.__class__ is not Scalar else frozenset((c, -c)))
        mask = 0
        for place, i in enumerate(t):
            invariants[i][shape, place] += 1
            mask ^= 1 << i
        due[max(t)].append((kind, t, c, mask))
    classes = {}
    kind_of = [classes.setdefault(frozenset(inv.items()), len(classes)) for inv in invariants]
    fixing = [{}]  # the sign system of the identity on the indices below i
    for i in range(dim):
        fixing.append(dict(fixing[-1]))
        for _, _, _, mask in due[i]:
            _solve(fixing[-1], mask, 0)
    image, work = list(range(dim)), 0

    def extend(i, system, targets):
        """The first pi that keeps image[:i] and sends i into targets."""
        nonlocal work
        for j in targets:
            if kind_of[j] != kind_of[i] or j in image[:i]:
                continue
            work += 1
            if work > SYMMETRY_BUDGET:
                return None
            image[i], eqs = j, dict(system)
            for kind, t, c, mask in due[i]:
                moved = coords.get((kind, tuple(image[x] for x in t)))
                if moved is None or not _solve(eqs, mask, 0 if moved == c else 1 if moved == -c else None):
                    break
            else:
                found = tuple(image) if i + 1 == dim else extend(i + 1, eqs, range(dim))
                if found:
                    return found
        return None

    identity = tuple(range(dim))
    group = [identity]
    for i in reversed(range(dim)):
        transversal = [identity] + [u for j in range(i + 1, dim) if (u := extend(i, fixing[i], (j,)))]
        if work > SYMMETRY_BUDGET or len(transversal) * len(group) > SYMMETRY_BUDGET:
            return (identity,)
        group = [tuple(u[x] for x in h) for u in transversal for h in group]
    return tuple(sorted(group))


def _solve(eqs, mask, eps):
    """Add the equation prod of s_i over the bits of mask = (-1)^eps to a
    GF(2) system {leading bit: (mask, eps)}; False when eps is None or the
    system then has no solution."""
    if eps is None:
        return False
    while mask:
        top = 1 << (mask.bit_length() - 1)
        if top not in eqs:
            eqs[top] = (mask, eps)
            return True
        m, e = eqs[top]
        mask, eps = mask ^ m, eps ^ e
    return not eps


def _coordinates(alg):
    """Every nonzero coordinate c of a cell or of the twist matrix, as
    {(kind, t): c} at the index tuple t: a cell's indices, then its output
    coordinate; a twist entry's row and column."""
    coords = {(kind, idx + (k,)): c for kind, idx, cell in alg._cells() for k, c in cell.items()}
    coords.update((("twist", (i, j)), c) for j, col in enumerate(alg.twist._cols) for i, c in col.items())
    return coords


class HomAlgebra:
    """A binary-ternary algebra with a twisting map, stored by sparse product cell."""

    __slots__ = ("dim", "basis", "params", "twist", "_products", "_skew", "_group")

    def __init__(self, dim, basis=None, params=(), binary=None, ternary=None, twist=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        basis = tuple(f"e{i + 1}" for i in range(dim)) if basis is None else tuple(basis)
        refuse_bad_basis(basis, dim)
        cells = {}
        for (kind, arity), raw in zip(PRODUCTS, (binary, ternary)):
            if raw is not None and not _has_shape(raw, dim, arity):
                raise DimensionMismatch(f"{kind} tensor shape does not match the dimension")
            indices = () if raw is None else itertools.product(range(dim), repeat=arity)
            cells[kind] = {idx: _sparse(_as_coords(cell_at(raw, idx), dim)) for idx in indices}
        twist = LinearMap.identity(dim) if twist is None else twist
        if twist.dim != dim:
            raise DimensionMismatch("twist matrix shape does not match the dimension")
        self._store(dim, basis, frozenset(params), cells, twist)
        refuse_bad_params(sorted(self.all_variables()), basis, "basis labels")

    @classmethod
    def _of(cls, dim, basis, params, cells, twist):
        """Trusted constructor: ``cells`` maps each kind to {index tuple:
        sparse vector}, a missing index being a zero cell; params is a frozenset."""
        alg = cls.__new__(cls)
        alg._store(dim, basis, params, cells, twist)
        return alg

    def _store(self, dim, basis, params, cells, twist):
        self.dim, self.basis, self.params, self.twist = dim, basis, params, twist
        # per kind, the cells nested [i][j] or [i][j][k] as the kernels index them
        self._products = {kind: tensor(dim, r, lambda idx: cells[kind].get(idx, _EMPTY)) for kind, r in PRODUCTS}
        self._skew = None  # _skew_kinds's answer
        self._group = None  # _symmetry's answer

    def _tensor(self, kind):
        cells = self._products[kind]
        return tensor(self.dim, dict(PRODUCTS)[kind], lambda idx: _dense(cell_at(cells, idx), self.dim))

    binary = property(lambda self: self._tensor("binary"))
    ternary = property(lambda self: self._tensor("ternary"))

    def replace(self, **kwargs):
        """A copy with the given fields replaced, each checked as the
        constructor checks it; a product not given is shared as it is stored."""
        fields = {"dim": self.dim, "basis": self.basis, "params": self.params, "twist": self.twist, **kwargs}
        alg = HomAlgebra(**fields)
        kept = {kind: cells for kind, cells in self._products.items() if kind not in kwargs}
        if kept and alg.dim != self.dim:
            raise DimensionMismatch(f"{next(iter(kept))} tensor shape does not match the dimension")
        alg._products.update(kept)
        # the constructor saw no kept product, whose symbols may be new basis labels
        refuse_bad_params(sorted(alg.all_variables()), alg.basis, "basis labels")
        return alg

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
            cells = self._products["binary"][i]
            for j, vj in vs:
                cell = cells[j]
                if not cell:
                    continue
                factor = ui * vj
                for k, c in cell.items():
                    term = factor * c
                    if k in out:
                        term = out.pop(k) + term
                        if not term:
                            continue
                    if term.__class__ is Fraction and term.denominator == 1:
                        term = term.numerator
                    out[k] = term
        return out

    def _ternary(self, u, v, w):
        """The kernel of eval_ternary, on sparse vectors."""
        out = {}
        vs = v.items()
        ws = w.items()
        for i, ui in u.items():
            for j, vj in vs:
                cells = self._products["ternary"][i][j]
                pair = None
                for k, wk in ws:
                    cell = cells[k]
                    if not cell:
                        continue
                    if pair is None:
                        pair = ui * vj
                    factor = pair * wk
                    for l, c in cell.items():
                        term = factor * c
                        if l in out:
                            term = out.pop(l) + term
                            if not term:
                                continue
                        if term.__class__ is Fraction and term.denominator == 1:
                            term = term.numerator
                        out[l] = term
        return out

    def _skew_kinds(self):
        """The product kinds that change sign when their first two arguments
        swap (_skew_cells), in the order of PRODUCTS, found once per algebra."""
        if self._skew is None:
            self._skew = tuple(kind for kind, r in PRODUCTS if _skew_cells(self._products[kind], self.dim, r))
        return self._skew

    def _symmetry(self):
        """The index permutations of the signed-permutation automorphisms
        that commute with the twist (``_index_group``), found once per
        algebra."""
        if self._group is None:
            self._group = _index_group(self)
        return self._group

    def is_multiplicative(self):
        """Whether the twist preserves both products (is a weak self-morphism)."""
        return first_weak_morphism_failure(self.twist, self, self) is None

    def cells(self):
        """(kind, index tuple, coords) for every cell of both products: the
        binary pairs, then the ternary triples, each in lexicographic order."""
        return ((kind, idx, _dense(cell, self.dim)) for kind, idx, cell in self._cells())

    def _cells(self):
        """(kind, index tuple, sparse vector) for every cell, in the order of ``cells``."""
        for kind, arity in PRODUCTS:
            flat = self._products[kind]
            for _ in range(arity - 1):
                flat = [cell for part in flat for cell in part]
            yield from zip(itertools.repeat(kind), itertools.product(range(self.dim), repeat=arity), flat)

    def all_variables(self):
        return self.params | _variables(cell for _, _, cell in self._cells()) | self.twist.variables()

    def __eq__(self, other):
        if not isinstance(other, HomAlgebra):
            return NotImplemented
        # declared parameter sets are bookkeeping, not algebra structure
        return (
            self.dim == other.dim
            and self.basis == other.basis
            and self._products == other._products
            and self.twist == other.twist
        )

    def __repr__(self):
        return f"HomAlgebra(dim={self.dim}, basis={self.basis})"


def _residuals(theta, src, dst):
    """``morphism_residuals`` with each residual as a sparse vector."""
    if src.dim != dst.dim or theta.dim != src.dim:
        raise DimensionMismatch("morphism check needs equal dimensions")
    images = theta._cols
    products = {"binary": dst._binary, "ternary": dst._ternary}
    for kind, idx, cell in src._cells():
        yield kind, idx, _sub(theta._apply(cell) if cell else cell, products[kind](*[images[i] for i in idx]))
    lhs, rhs = theta.compose(src.twist), dst.twist.compose(theta)
    for i in range(src.dim):
        yield "twist", (i,), _sub(lhs._row(i), rhs._row(i))


def _sub(a, b):
    """The difference of two sparse vectors."""
    return {} if a == b else _add(a, {k: -c for k, c in b.items()})


def morphism_residuals(theta, src, dst):
    """theta(x*y) - theta(x)*theta(y) on every basis pair, then
    theta({x,y,z}) - {theta(x),theta(y),theta(z)} on every basis triple, in
    lexicographic index order, as ("binary"|"ternary", index tuple, residual
    Vector); then ("twist", (i,), row i of theta.alpha_src - alpha_dst.theta)
    for every row i."""
    return ((kind, idx, Vector._of(r, src.dim)) for kind, idx, r in _residuals(theta, src, dst))


def first_weak_morphism_failure(theta, src, dst):
    """First basis pair/triple where theta fails to intertwine the products.

    Returns None when theta is a weak morphism, else the first nonzero
    product entry of ``morphism_residuals``; the twist rows are not read.
    """
    products = itertools.islice(_residuals(theta, src, dst), src.dim**2 + src.dim**3)
    return next(((kind, idx, Vector._of(r, src.dim)) for kind, idx, r in products if r), None)


def is_weak_morphism(theta, src, dst):
    """True iff theta intertwines both products on all basis tuples."""
    return first_weak_morphism_failure(theta, src, dst) is None


def is_morphism(theta, src, dst):
    """A weak morphism that also intertwines the twists."""
    return not any(r for _, _, r in _residuals(theta, src, dst))
