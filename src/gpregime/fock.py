"""Truncated bosonic sandbox for the excitation-map operator algebra.

Works on the space of occupation vectors (n_1 .. n_M) with total at most
N_cap. The modified ladder operators b = sqrt((N - NUM)/N) a stay inside
the truncation, the condensate-relabeling map U sends the top sector
onto the zero-condensate sub-basis (the condensate is mode 0), and the
quadratic-form decomposition of the two-body Hamiltonian is assembled by
exact operator algebra, so the energy identity

    <psi, H psi> = <U psi, Gamma L Gamma U psi>

holds to roundoff for every state in the top sector. Each generator is
exponentiated once per particle cap (dense scaling-and-squaring), and the
growth and remainder sweeps read every power off that one exponential.
They run on the generators' exact symmetries: B steps NUM by two, so e^B
is taken and read per NUM-parity block, and the remainder is formed from
its two blocks between the parities; S = (-1)^NUM gives S A S = -A and
C = (-1)^floor(NUM/2) gives C B C = -B. Both signs commute with NUM, so a
growth ratio depends on |power| and |t| alone and is solved once for
each, after the sign's premise (no entry inside a sign class) is checked.
The sweeps return their tables as the dicts the fock report writes.

The builders and the identity checks are written once, against a
NumberSystem: FLOAT here, exact radicals in gpregime.fockexact. Each
identity is a defect operator that is zero in exact arithmetic, grouped
under the fock suite that reads it; the float checks reduce it by its
largest entry, the exact check by a zero test.

A FLOAT matrix maps each displacement delta = n_row - n_col in Z^M to a
weight vector over columns (DIA storage, offset in occupation space).
A ladder monomial is one key, and the row of a column under delta is
fixed by the basis, so a product is one gather per pair of keys:
(d1, w1)(d2, w2) = (d1 + d2, w1[t_d2] * w2), t_d mapping a column to
the row of its state shifted by d. At dimension 10 to 210 that is a few
dozen vector operations, with no general sparse product's fixed cost.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import ceil, comb, factorial, log2, sqrt
from operator import add, sub
from typing import Callable, NamedTuple
import weakref

import numpy as np

from .errors import (
    InvalidParameterError,
    ResourceLimitError,
    SolverFailureError,
)

_EXPM_DIM_CAP = 5000


# ---------------------------------------------------------------------------
# the truncated space
# ---------------------------------------------------------------------------

def _enumerate_basis(M, N_cap):
    """Occupation vectors with total <= N_cap, graded by total: the
    multisets of `total` mode labels, counted per mode."""
    return tuple(tuple(combo.count(i) for i in range(M))
                 for total in range(N_cap + 1)
                 for combo in combinations_with_replacement(range(M), total))


@dataclass(frozen=True)
class FockSpace:
    """Occupation basis of at most N_cap bosons in M modes. Its totals,
    shift maps and float algebra are built on first use, outside the
    dataclass fields."""

    M: int
    N_cap: int
    basis: tuple = field(repr=False)
    index: dict = field(repr=False)
    dim: int

    @cached_property
    def _occupations(self):
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.M)

    @cached_property
    def _totals(self):
        return self._occupations.sum(axis=1).astype(float)

    def number_diag(self):
        return self._totals.copy()

    def sector_indices(self, total):
        return np.flatnonzero(self._totals == total)

    @cached_property
    def _shifts(self):
        return {}

    def shift(self, delta):
        """t_delta, computed once per delta: column -> index of its state
        shifted by delta, or -1 where that state is outside the space."""
        if delta not in self._shifts:
            occ = self._occupations + delta
            ok = (occ >= 0).all(axis=1) & (occ.sum(axis=1) <= self.N_cap)
            t = np.full(self.dim, -1)
            t[ok] = [self.index[n] for n in map(tuple, occ[ok].tolist())]
            self._shifts[delta] = t
        return self._shifts[delta]

    @cached_property
    def float_algebra(self):
        """The FLOAT Algebra of this space, built on first use. It and its
        matrices refer to the space through a weak proxy, so the space
        and its cache form no reference cycle and are freed together."""
        return algebra(weakref.proxy(self), FLOAT)


def build_fock_space(M, N_cap):
    if M < 1:
        raise InvalidParameterError(f"need at least one mode, got {M}")
    if N_cap < 0:
        raise InvalidParameterError(f"negative particle cap {N_cap}")
    basis = _enumerate_basis(M, N_cap)
    dim = comb(M + N_cap, M)
    if len(basis) != dim:
        raise SolverFailureError("basis enumeration lost states")
    index = {n: k for k, n in enumerate(basis)}
    return FockSpace(M=M, N_cap=N_cap, basis=basis, index=index, dim=dim)


# ---------------------------------------------------------------------------
# number systems and the ladder algebra
# ---------------------------------------------------------------------------

class NumberSystem(NamedTuple):
    """The entry arithmetic the builders run in.

    sqrt maps a nonnegative int or Fraction to an entry; matrix builds a
    square matrix on a FockSpace from distinct entries (values, rows,
    cols, space). Its matrices support @, +, -, * and / by a scalar, and
    .T, which is all the builders use.
    """

    sqrt: Callable
    matrix: Callable


class DisplacementMatrix:
    """Square float matrix on a FockSpace: weights maps delta, a tuple,
    to w with w[col] the entry at (space.shift(delta)[col], col). Where
    that shift is -1, w is 0, and every operation keeps it so. Stored
    vectors are never written, so matrices share them."""

    __slots__ = ("space", "weights")
    __array_ufunc__ = None   # scalar * matrix goes to __rmul__

    def __init__(self, space, weights):
        self.space, self.weights = space, weights

    @classmethod
    def build(cls, vals, rows, cols, space):
        """NumberSystem.matrix: one weight vector per displacement."""
        weights = {}
        for v, r, c in zip(vals, rows, cols):
            d = tuple(map(sub, space.basis[r], space.basis[c]))
            if d not in weights:
                weights[d] = np.zeros(space.dim)
            weights[d][c] = v
        return cls(space, weights)

    def _entries(self):
        """(delta, rows, cols, values) of each key's column weights."""
        for d, w in self.weights.items():
            t = self.space.shift(d)
            cols = np.flatnonzero(t >= 0)
            yield d, t[cols], cols, w[cols]

    def __add__(self, other):
        out = dict(self.weights)
        for d, w in other.weights.items():
            out[d] = out[d] + w if d in out else w
        return DisplacementMatrix(self.space, out)

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, c):
        return DisplacementMatrix(
            self.space, {d: w * c for d, w in self.weights.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return DisplacementMatrix(
            self.space, {d: w / c for d, w in self.weights.items()})

    @property
    def T(self):
        out = {}
        for d, rows, cols, v in self._entries():
            out[tuple(-x for x in d)] = w = np.zeros(self.space.dim)
            w[rows] = v
        return DisplacementMatrix(self.space, out)

    def __matmul__(self, other):
        """Product with a matrix: one gather per key pair, keeping the
        nonzero results. With a vector, or an array whose columns are
        vectors: one scatter-add per key."""
        if isinstance(other, np.ndarray):
            out = np.zeros(other.shape)
            for _, rows, cols, v in self._entries():
                out[rows] += (other[cols].T * v).T
            return out
        out = {}
        for d2, w2 in other.weights.items():
            t = self.space.shift(d2)
            for d1, w1 in self.weights.items():
                w = w1[t] * w2
                if w.any():
                    d = tuple(map(add, d1, d2))
                    if d in out:
                        out[d] += w
                    else:
                        out[d] = w
        return DisplacementMatrix(self.space, out)

    def toarray(self):
        out = np.zeros((self.space.dim, self.space.dim))
        for _, rows, cols, v in self._entries():
            out[rows, cols] = v
        return out


FLOAT = NumberSystem(sqrt=sqrt, matrix=DisplacementMatrix.build)


def _diag(space, ns, vals):
    return ns.matrix(vals, range(len(vals)), range(len(vals)), space)


class Ladder(NamedTuple):
    """Plain and truncation-modified ladder matrices for one mode."""

    a: object
    a_dag: object
    b: object
    b_dag: object


def _ladder(space, i, ns):
    """a has entries sqrt(n_i); b = sqrt((N - NUM)/N) a has entries
    sqrt(n_i (N - t + 1)/N), t the total occupation of the column."""
    if not 0 <= i < space.M:
        raise InvalidParameterError(
            f"mode {i} outside 0..{space.M - 1}")
    if space.N_cap < 1:
        raise InvalidParameterError(
            "ladder operators need a positive particle cap")
    N = space.N_cap
    rows, cols, a, b = [], [], [], []
    for col, n in enumerate(space.basis):
        if n[i] == 0:
            continue
        rows.append(space.index[n[:i] + (n[i] - 1,) + n[i + 1:]])
        cols.append(col)
        a.append(ns.sqrt(n[i]))
        b.append(ns.sqrt(Fraction(n[i] * (N - sum(n) + 1), N)))
    return Ladder(a=ns.matrix(a, rows, cols, space),
                  a_dag=ns.matrix(a, cols, rows, space),
                  b=ns.matrix(b, rows, cols, space),
                  b_dag=ns.matrix(b, cols, rows, space))


def build_ladder(space, i):
    return _ladder(space, i, FLOAT)


@dataclass(frozen=True)
class Algebra:
    """Per-mode ladders, number operator and identity of one space in
    one number system, built once and shared by the builders."""

    space: FockSpace
    ns: NumberSystem = field(repr=False)
    a: tuple = field(repr=False)
    a_dag: tuple = field(repr=False)
    b: tuple = field(repr=False)
    b_dag: tuple = field(repr=False)
    num: object = field(repr=False)
    eye: object = field(repr=False)

    @property
    def zero(self):
        return self.ns.matrix([], [], [], self.space)


def algebra(space, ns):
    a, a_dag, b, b_dag = zip(*(_ladder(space, i, ns)
                               for i in range(space.M)))
    return Algebra(space=space, ns=ns, a=a, a_dag=a_dag, b=b, b_dag=b_dag,
                   num=_diag(space, ns, [sum(n) for n in space.basis]),
                   eye=_diag(space, ns, [1] * space.dim))


def _combo(alg, coeffs, mats):
    """sum_i coeffs_i mats_i."""
    return sum((m * c for c, m in zip(coeffs, mats) if c), alg.zero)


def _nest(alg, left, c, inner):
    """sum_i left_i inner(c_i), over the i whose c_i is not all zero."""
    return sum((left[i] @ inner(c[i]) for i in range(len(c))
                if np.any(c[i] != 0)), alg.zero)


def _bilinear(alg, left, right, c):
    """sum_ij c_ij left_i right_j = sum_i left_i (sum_j c_ij right_j)."""
    return _nest(alg, left, c, lambda row: _combo(alg, row, right))


def _cubic(alg, c):
    """sum_xyz c_xyz b*_x a*_y a_z = sum_x b*_x (sum_yz c_xyz a*_y a_z)."""
    return _nest(alg, alg.b_dag, c,
                 lambda cx: _bilinear(alg, alg.a_dag, alg.a, cx))


def _two_body(alg, v):
    """(1/2) sum v_ijkl a*_i a*_j a_l a_k = sum_pq c_pq A_p.T A_q over the
    unordered pairs p = (i, j), q = (k, l), with A_(k,l) = a_l a_k for
    k <= l and c_pq the sum of v over the orderings of p and q, halved;
    only the pairs that a nonzero row or column of c reads are formed.
    Exact for any v: the a of distinct modes commute."""
    pairs = list(combinations_with_replacement(range(len(alg.a)), 2))
    w = v + v.transpose(1, 0, 2, 3)
    w = w + w.transpose(0, 1, 3, 2)
    c = np.array([[w[i, j, k, l] / (2 * (1 + (i == j)) * (1 + (k == l)))
                   for k, l in pairs] for i, j in pairs])
    nonzero = c != 0
    used = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    A = [alg.a[pairs[p][1]] @ alg.a[pairs[p][0]] for p in used]
    return _bilinear(alg, [X.T for X in A], A, c[np.ix_(used, used)])


def _excited(c):
    """c with every entry that has an index 0 (the condensate) set to zero."""
    c = c.copy()
    for axis in range(c.ndim):
        np.moveaxis(c, axis, 0)[0] = 0
    return c


def _held(space, mat):
    """mat on space itself, not on its float algebra's weak proxy, so a
    matrix a builder returns keeps its space alive."""
    return DisplacementMatrix(space, mat.weights)


def _max_abs(mat):
    """Largest entry magnitude of a DisplacementMatrix; 0.0 exactly when
    every weight is zero."""
    return max((float(np.max(np.abs(w))) for w in mat.weights.values()),
               default=0.0)


def _comm(X, Y):
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# the condensate relabeling map
# ---------------------------------------------------------------------------

def _un(space, ns):
    """The relabeling map U, square on the space (each top-sector state
    to that state with its condensate, mode 0, emptied, every other state
    to 0), and the top-sector projector P = U* U."""
    if space.N_cap < 1:
        raise InvalidParameterError("relabeling needs at least one particle")
    sector = space.sector_indices(space.N_cap)
    rows = [space.index[(0,) + space.basis[k][1:]] for k in sector]
    ones = [1] * len(rows)
    return (ns.matrix(ones, rows, sector, space),
            ns.matrix(ones, sector, sector, space))


def _gamma(space, ns):
    return _diag(space, ns, [int(n[0] == 0) for n in space.basis])


def build_UN(space):
    """The relabeling map U: a partial isometry from the top sector onto
    the zero-condensate sub-basis."""
    return _un(space, FLOAT)[0]


def gamma_projector(space):
    """Second-quantized projection onto states with an empty condensate."""
    return _gamma(space, FLOAT)


# ---------------------------------------------------------------------------
# coefficient sets and the quadratic-form decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSet:
    """Mode-space coefficients for the two-body problem.

    h is the one-body matrix, v the two-body tensor with bosonic
    symmetries v_ijkl = v_jikl = v_ijlk = v_klij (real case), eta the
    symmetric pair-kernel matrix, nu and g the field-kernel and lowpass
    coefficient matrices. Mode 0 is the condensate. Entries are floats,
    or Fractions in object arrays for exact arithmetic.
    """

    h: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)


def validate_coefficients(coeff, M):
    h, v = coeff.h, coeff.v
    if h.shape != (M, M) or not np.allclose(h, h.T, atol=1e-13):
        raise InvalidParameterError("one-body matrix must be symmetric")
    if v.shape != (M, M, M, M):
        raise InvalidParameterError("two-body tensor has the wrong shape")
    for perm, name in ((v.transpose(1, 0, 2, 3), "creator exchange"),
                       (v.transpose(0, 1, 3, 2), "annihilator exchange"),
                       (v.transpose(2, 3, 0, 1), "pair swap")):
        if not np.allclose(v, perm, atol=1e-13):
            raise InvalidParameterError(
                f"two-body tensor breaks {name} symmetry")
    if not np.allclose(coeff.eta, coeff.eta.T, atol=1e-13):
        raise InvalidParameterError("pair-kernel matrix must be symmetric")


def make_random_coefficients(M, seed=0):
    """Random real coefficient tensors with the symmetries built in."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(M, M))
    h = (x + x.T) / 2.0
    t = rng.normal(size=(M, M, M, M))
    t = (t + t.transpose(1, 0, 2, 3)) / 2.0
    t = (t + t.transpose(0, 1, 3, 2)) / 2.0
    v = (t + t.transpose(2, 3, 0, 1)) / 2.0
    e = rng.normal(size=(M, M))
    eta = (e + e.T) / 2.0
    nu = rng.normal(size=(M, M))
    g = rng.normal(size=(M, M))
    return CoefficientSet(h=h, v=v, eta=eta, nu=nu, g=g)


def _hn(alg, coeff):
    return _bilinear(alg, alg.a_dag, alg.a, coeff.h) + _two_body(alg, coeff.v)


def _ln(alg, coeff):
    """The five-piece decomposition of the relabeled Hamiltonian.

    Assembled directly from the coefficients by the exact substitution
    rules for condensate pairs, with every square-root weight kept in
    operator form, so the comparison with the conjugated Hamiltonian is
    an identity rather than an expansion. Sums over the excited modes
    are sums over coefficients with their condensate entries zeroed.
    """
    N, h, v = alg.space.N_cap, coeff.h, coeff.v
    N0 = alg.eye * N - alg.num
    N0m1 = N0 - alg.eye
    L0 = N0 * h[0, 0] + (N0 @ N0m1) * (v[0, 0, 0, 0] / 2)
    X1 = (_combo(alg, _excited(h[:, 0]), alg.b_dag)
          + _combo(alg, _excited(v[:, 0, 0, 0]), alg.b_dag) @ N0m1
          ) * alg.ns.sqrt(N)
    L2 = (_bilinear(alg, alg.a_dag, alg.a, _excited(h - 2 * v[:, 0, :, 0]))
          + _bilinear(alg, alg.b_dag, alg.b, _excited(2 * N * v[:, 0, :, 0])))
    pair = _bilinear(alg, alg.b_dag, alg.b_dag,
                     _excited(N * v[:, :, 0, 0] / 2))
    X3 = _cubic(alg, _excited(v[:, :, :, 0])) * alg.ns.sqrt(N)
    return {"L0": L0, "L1": X1 + X1.T, "L2": L2 + pair + pair.T,
            "L3": X3 + X3.T, "L4": _two_body(alg, _excited(v))}


def build_HN(coeff, space):
    """H_N = sum h_ij a*_i a_j + (1/2) sum v_ijkl a*_i a*_j a_l a_k."""
    validate_coefficients(coeff, space.M)
    return _held(space, _hn(space.float_algebra, coeff))


def build_LN(coeff, space):
    """The pieces L0..L4 of the relabeled Hamiltonian, by name."""
    validate_coefficients(coeff, space.M)
    return {name: _held(space, mat)
            for name, mat in _ln(space.float_algebra, coeff).items()}


def _pair_generator(alg, eta):
    """Pair generator (1/2) sum eta_ij (b*_i b*_j - b_i b_j).

    Assembled as X - X.T from the creation half, so antisymmetry is
    exact at the floating-point level, not up to rounding.
    """
    M = alg.space.M
    if eta.shape != (M, M) or not np.allclose(eta, eta.T, atol=1e-13):
        raise InvalidParameterError("pair generator needs a symmetric matrix")
    X = _bilinear(alg, alg.b_dag, alg.b_dag, eta / 2)
    return X - X.T


def build_B(space, eta):
    return _held(space, _pair_generator(space.float_algebra,
                                        np.asarray(eta, dtype=float)))


def build_A(space, nu, g):
    """Cubic generator (1/sqrt N) sum nu_xy g_xz (b*_x a*_y a_z - h.c.)."""
    nu = np.asarray(nu, dtype=float)
    g = np.asarray(g, dtype=float)
    if nu.shape != (space.M, space.M) or g.shape != (space.M, space.M):
        raise InvalidParameterError("coefficient matrices must be MxM")
    X = _cubic(space.float_algebra, nu[:, :, None] * g[:, None, :])
    return _held(space, (X - X.T) / sqrt(space.N_cap))


# ---------------------------------------------------------------------------
# the identities, as defect operators grouped by the suite that reads them
# ---------------------------------------------------------------------------

def ladder_defects(alg, f, g, h):
    """Defects of the ladder commutators: [a_i, a*_j] = delta_ij on
    states below the cap, [b_i, b*_j] = (1 - NUM/N) delta_ij - a*_j a_i / N,
    [b_i, b_j] = 0, [b_i, a*_j a_k] = delta_ij b_k, [b_i, NUM] = b_i,
    and the contraction [b(f), a*(g) a(h)] = <f, g> b(h).
    """
    space, N = alg.space, alg.space.N_cap
    a, a_dag, b, b_dag = alg.a, alg.a_dag, alg.b, alg.b_dag
    below = _diag(space, alg.ns, [int(sum(n) < N) for n in space.basis])
    for i in range(space.M):
        for j in range(space.M):
            ccr = _comm(a[i], a_dag[j])
            rhs = (a_dag[j] @ a[i]) / -N
            if i == j:
                ccr = ccr - alg.eye
                rhs = rhs + (alg.eye - alg.num / N)
            yield ccr @ below
            yield _comm(b[i], b_dag[j]) - rhs
            yield _comm(b[i], b[j])
            for k in range(space.M):
                d = _comm(b[i], a_dag[j] @ a[k])
                yield d - b[k] if i == j else d
        yield _comm(b[i], alg.num) - b[i]
    hop = _combo(alg, g, a_dag) @ _combo(alg, h, a)
    yield _comm(_combo(alg, f, b), hop) - _combo(alg, h, b) * (f @ g)


def un_defects(alg):
    """Defects of Gamma and of the relabeling map U, condensate mode 0.

    U vanishes off the top sector, so U X U* reads X off it. Each
    conjugation compares U X U* for a condensate bilinear X against its
    excitation-space image sandwiched by Gamma; the pure condensate
    relabels to the bare vacuum.
    """
    space, ns, N = alg.space, alg.ns, alg.space.N_cap
    U, P = _un(space, ns)
    G = _gamma(space, ns)
    yield G @ G - G
    yield _comm(G, alg.num)
    yield U.T @ U - P
    yield U @ U.T - G

    def conj(op):
        return U @ op @ U.T

    a0, a0d = alg.a[0], alg.a_dag[0]
    yield conj(a0d @ a0) - G @ (alg.eye * N - alg.num) @ G
    for p in range(1, space.M):
        for X, Y in ((alg.a_dag[p] @ a0, alg.b_dag[p]),
                     (a0d @ alg.a[p], alg.b[p])):
            yield conj(X) - (G @ Y @ G) * ns.sqrt(N)
        for q in range(1, space.M):
            hop = alg.a_dag[p] @ alg.a[q]
            yield conj(hop) - G @ hop @ G
    pure = space.index[(N,) + (0,) * (space.M - 1)]
    yield (U @ ns.matrix([1], [pure], [pure], space)
           - ns.matrix([1], [0], [pure], space))


def _energy_sides(alg, coeff):
    """H, U, L and P of the energy identity P H P = U* L U, with P the
    top-sector projector and L the sum of L0..L4. Gamma U = U (a
    defect of un_defects), so U* L U = U* Gamma L Gamma U."""
    U, P = _un(alg.space, alg.ns)
    L = sum(_ln(alg, coeff).values(), alg.zero)
    return _hn(alg, coeff), U, L, P


def generator_defects(alg, eta):
    """B from both halves is antisymmetric and steps NUM by two."""
    B = (_bilinear(alg, alg.b_dag, alg.b_dag, eta / 2)
         - _bilinear(alg, alg.b, alg.b, eta / 2))
    yield B + B.T
    yield _comm(alg.num, _comm(alg.num, B)) - B * 4


def _energy_defects(alg, coeff):
    H, U, L, P = _energy_sides(alg, coeff)
    yield P @ H @ P - U.T @ L @ U


def identity_defects(alg, coeff):
    """Every identity of the algebra, as {suite: generator of its defect
    operators} for the fock suites that read them: the ladder commutators
    (ccr), U_N and Gamma (un), the energy identity (ln) and the pair
    generator (bgrowth). A suite's defects are formed only as its
    generator is read."""
    return {"ccr": ladder_defects(alg, coeff.nu[0], coeff.g[0], coeff.h[0]),
            "un": un_defects(alg),
            "ln": _energy_defects(alg, coeff),
            "bgrowth": generator_defects(alg, coeff.eta)}


def verify_b_commutators(space, seed=0):
    """Max deviation over ladder_defects, contracted with random vectors."""
    f, g, h = np.random.default_rng(seed).normal(size=(3, space.M))
    return max(map(_max_abs, ladder_defects(space.float_algebra, f, g, h)))


def verify_un(space):
    """Max deviation over un_defects: unitarity and the conjugations."""
    return max(map(_max_abs, un_defects(space.float_algebra)))


def verify_energy_identity(coeff, space, seed=0):
    """Max relative defect of <psi, H psi> = <U psi, G L G U psi>, over
    20 random unit states of the top sector."""
    validate_coefficients(coeff, space.M)
    H, U, L, P = _energy_sides(space.float_algebra, coeff)
    scale = max(_max_abs(P @ H @ P), 1.0)
    sector = space.sector_indices(space.N_cap)
    rng = np.random.default_rng(seed)
    psi = np.zeros((space.dim, 20))
    for j in range(20):
        x = rng.normal(size=sector.size)
        psi[sector, j] = x / np.linalg.norm(x)
    energies = np.sum(psi * (H @ psi - U.T @ (L @ (U @ psi))), axis=0)
    return float(np.max(np.abs(energies), initial=0.0)) / scale


# ---------------------------------------------------------------------------
# generator exponentials and the growth lemmas as eigenvalue sweeps
# ---------------------------------------------------------------------------

class Workspace:
    """The spaces and pair exponentials that one run of the sweeps
    shares: one FockSpace per (M, cap), which keeps its float algebra
    and shift maps, and one exponential per (M, cap, eta). Create one
    per stage and drop it with the stage."""

    def __init__(self):
        self._spaces = {}
        self._pair_exps = {}

    def space(self, M, cap):
        if (M, cap) not in self._spaces:
            self._spaces[M, cap] = build_fock_space(M, cap)
        return self._spaces[M, cap]

    def pair_exponential(self, space, eta):
        """exp_generator of build_B(space, eta), taken once."""
        key = (space.M, space.N_cap, eta.tobytes())
        if key not in self._pair_exps:
            self._pair_exps[key] = exp_generator(_flipped(
                build_B(space, eta), space._totals // 2 % 2))
        return self._pair_exps[key]


# the 1-norm theta_m up to which the degree-m Pade approximant meets unit
# roundoff (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}


def _pade(A, m):
    """Odd part U and even part V of exp(A)'s degree-m Pade numerator;
    the approximant is (V - U)^-1 (V + U). Degree 13 forms only A^2, A^4
    and A^6 and takes its top three terms as A^6 times their sum: 6
    matrix products with A U, as in the paper, where one power per term
    takes 7. The powers are freed on return, before the solve."""
    b = [factorial(2 * m - j) / (factorial(j) * factorial(m - j))
         for j in range(m + 1)]
    P = A2 = A @ A
    U, V = (b[k] * np.eye(len(A)) + b[k + 2] * A2 for k in (1, 0))
    if m == 13:
        A4 = A2 @ A2
        P = A4 @ A2
        U += P @ (b[9] * A2 + b[11] * A4 + b[13] * P)
        V += P @ (b[8] * A2 + b[10] * A4 + b[12] * P)
        U += b[5] * A4 + b[7] * P
        V += b[4] * A4 + b[6] * P
    else:
        for j in range(2, m // 2 + 1):  # P = A^2j, up to A^(m-1)
            P = P @ A2
            U += b[2 * j + 1] * P
            V += b[2 * j] * P
    return A @ U, V


def expm(A):
    """exp(A) by Higham's Pade scaling and squaring: the least degree m
    with ||A||_1 <= theta_m, else m = 13 on A / 2^s, squared s times."""
    norm = float(np.abs(A).sum(axis=0).max())
    m = next((m for m, theta in _THETA.items() if norm <= theta), 13)
    s = ceil(log2(norm / _THETA[13])) if _THETA[m] < norm < np.inf else 0
    U, V = _pade(A / 2.0 ** s, m)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def exp_generator(mat):
    """Unitary exponential of an antisymmetric generator, as (states,
    dense block) pairs: one per NUM parity if a nonzero generator keeps it."""
    if mat.space.dim > _EXPM_DIM_CAP:
        raise ResourceLimitError(
            f"exponential dimension {mat.space.dim} exceeds {_EXPM_DIM_CAP}")
    dense, odd = mat.toarray(), mat.space._totals % 2 == 1
    skew = np.max(np.abs(dense + dense.T))
    if skew > 1e-12:
        raise InvalidParameterError(
            f"generator is not antisymmetric: defect {skew:.2e}")
    if not dense.any():
        return ((np.arange(len(dense)), np.eye(len(dense))),)
    index = ([np.arange(len(dense))] if dense[odd[:, None] != odd].any()
             else [np.flatnonzero(~odd), np.flatnonzero(odd)])
    blocks = tuple((i, expm(dense[np.ix_(i, i)])) for i in index)
    defect = max(np.max(np.abs(q.T @ q - np.eye(len(q)))) for _, q in blocks)
    if not np.isfinite(defect) or defect > 1e-10:
        raise SolverFailureError(
            f"exponential lost unitarity: defect {defect:.2e}")
    return blocks


def _is_identity(Q):
    """Q == I exactly, decided without allocating I (NaN is nonzero)."""
    return bool(np.all(Q.diagonal() == 1.0)) and np.count_nonzero(Q) == len(Q)


def _flipped(gen, labels):
    """gen, after checking that (-1)^labels conjugates it to -gen."""
    if gen.toarray()[labels[:, None] == labels].any():
        raise SolverFailureError("generator has an entry inside a sign class")
    return gen


def _growth_ratio(space, Q, n):
    """Largest eigenvalue of the (NUM+1)^n ratio operator conjugated by Q,
    over its blocks; exactly 1 when Q is the identity (zero generator)."""
    if not -2 <= n <= 2:
        raise InvalidParameterError(f"power ±{n} outside -2..2")
    if all(_is_identity(q) for _, q in Q):
        return 1.0

    def top(s, q):
        r = (s ** (-n / 2.0))[:, None] * ((q.T * s ** n) @ q) * s ** (-n / 2.0)
        return np.linalg.eigvalsh((r + r.T) / 2.0)[-1]
    return float(max(top(space._totals[idx] + 1.0, q) for idx, q in Q))


def verify_B_number_growth(M, eta_unit, scale, powers, caps=(2, 3, 4, 5, 6),
                           workspace=None):
    """Ratios of (NUM+1)^n under pair-generator conjugation across the
    caps, as {"n=<n>": {caps, ratios, sup}} per power n; each cap solves
    one per |n| on its one exponential."""
    ws = workspace or Workspace()
    eta = scale * np.asarray(eta_unit, dtype=float)

    def at(cap):
        space = ws.space(M, cap)
        Q = ws.pair_exponential(space, eta)
        solved = {m: _growth_ratio(space, Q, m) for m in set(map(abs, powers))}
        return [solved[abs(n)] for n in powers]
    return {f"n={n}": {"caps": list(caps), "ratios": list(row),
                       "sup": float(max(row))}
            for n, row in zip(powers, zip(*map(at, caps)))}


def verify_A_number_growth(M, nu, g, powers, t_grid=(-1.0, -0.5, 0.5, 1.0),
                           caps=(2, 3, 4, 5, 6), workspace=None):
    """Ratios of (NUM+1)^k under t A conjugation across the caps, as
    {"k=<k>": [{t_norm, ratios, sup} per t]}, t_norm = |t| |nu| |g|; each
    cap solves one per (|k|, |t|), one expm per |t|."""
    ws = workspace or Workspace()
    rows = [[[] for _ in t_grid] for _ in powers]
    for cap in caps:
        space = ws.space(M, cap)
        A = _flipped(build_A(space, nu, g), space._totals % 2)
        solved = {}
        for t in set(map(abs, t_grid)):
            Q = exp_generator(A * t)
            solved.update({(k, t): _growth_ratio(space, Q, k)
                           for k in set(map(abs, powers))})
            del Q  # one exponential alive at a time
        for row, k in zip(rows, powers):
            for j, t in enumerate(t_grid):
                row[j].append(solved[abs(k), abs(t)])
    return {f"k={k}": [{
        "t_norm": float(abs(t) * np.linalg.norm(nu) * np.linalg.norm(g)),
        "ratios": r, "sup": float(max(r))} for r, t in zip(row, t_grid)]
        for k, row in zip(powers, rows)}


# ---------------------------------------------------------------------------
# the conjugation remainder
# ---------------------------------------------------------------------------

def compute_d_eta(space, eta, f, Q, powers=(0,)):
    """Remainder d of e^{-B} b(f) e^B = b(cosh f) + b*(sinh f) + d.

    Q = e^B comes from exp_generator (the identity leaves d exactly 0);
    cosh and sinh act on f through the spectral decomposition of the
    symmetric matrix eta. Returns d, formed from its two blocks between
    the NUM parities, as a dense array and, for each power n, the ratio
    sup_xi |(NUM+1)^{n/2} d xi| / (|f| |(NUM+1)^{(n+3)/2} xi|), the
    weighted norm whose decay in the cap is the remainder bound's content.
    """
    f = np.asarray(f, dtype=float)
    fn = float(np.linalg.norm(f))
    if fn == 0.0:
        raise InvalidParameterError("remainder needs a nonzero mode vector")
    d = np.zeros((space.dim, space.dim))
    if not all(_is_identity(q) for _, q in Q):
        alg = space.float_algebra
        w, V = np.linalg.eigh(eta)
        cosh_f = V @ (np.cosh(w) * (V.T @ f))
        sinh_f = V @ (np.sinh(w) * (V.T @ f))
        bf = _combo(alg, f, alg.b).toarray()
        rest = (_combo(alg, cosh_f, alg.b)
                + _combo(alg, sinh_f, alg.b_dag)).toarray()
        for (r, qr), (c, qc) in zip(Q, Q[::-1]):
            d[np.ix_(r, c)] = qr.T @ bf[np.ix_(r, c)] @ qc - rest[np.ix_(r, c)]
    parts = [(r, c, d[np.ix_(r, c)]) for (r, _), (c, _) in zip(Q, Q[::-1])]
    shifted = space.number_diag() + 1.0
    return d, tuple(float(max(
        np.linalg.norm((shifted[r] ** (n / 2.0))[:, None] * x
                       * shifted[c] ** (-(n + 3) / 2.0) / fn, 2)
        for r, c, x in parts)) for n in powers)


def sweep_d_eta(M, eta_unit, scale, f, powers=(0,), caps=(2, 3, 4, 5, 6),
                workspace=None):
    """Remainder ratios across particle caps at fixed eta, as
    {"n=<n>": {caps, ratio_times_cap}} per power n; every power reads the
    pair exponential of each cap, which a shared workspace takes once for
    this sweep and the B-growth sweep."""
    ws = workspace or Workspace()
    eta = scale * np.asarray(eta_unit, dtype=float)

    def at(cap):
        space = ws.space(M, cap)
        Q = ws.pair_exponential(space, eta)
        return [r * cap for r in compute_d_eta(space, eta, f, Q, powers)[1]]
    return {f"n={n}": {"caps": list(caps), "ratio_times_cap": list(row)}
            for n, row in zip(powers, zip(*map(at, caps)))}
