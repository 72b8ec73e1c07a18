"""Dense symmetric linear algebra: eigendecomposition, inertia, and the
centering transforms everything else builds on.

Matrices are plain square ``numpy`` arrays; ``as_sym_matrix`` is the single
validation gate, passed once at each entry point: ``eig_sym``, ``_inertia``,
the one count of a whole matrix for every module, ``prefix_inertias`` and
the centering transforms. ``_eigenvalues`` takes a matrix that has passed
it, a leading block of one, or a matrix built symmetric from such blocks,
and validates nothing; ``eig_sym`` is its validating form with
eigenvectors. ``prefix_inertias`` also takes a matrix as ``CliqueBlocks``,
the blocks a countable model with a planted clique builds without the n x n
matrix, which check their own shapes and entries when made; it writes dense
leading blocks from them only for the sizes the pivot does not count. Inertia counting uses the eigenvalue
spectrum as the source of truth, with the zero threshold ``theta = tol_rel *
n * max|lambda|``; ``prefix_inertias`` counts a family of leading blocks
against one threshold, from a Perron bracket of max|lambda|, which for
``CliqueBlocks`` with all but an eighth of the points in the clique starts
in the clique's invariant subspace, at the band's
edges -+theta, or -+e, e = max(theta, sqrt(eps) max|lambda|): through a
planted clique's closed-form block where its ``CliqueBlocks`` hold all but an
eighth of the points (``_clique_pivot``), by one Schur chain, and by an
eigensolve where the chain refuses a size. The chain (``_chain_step``) holds
the inverses of A_a -+ e I of its last counted size a, or none at the empty
block, a = 0; each step adds the counts of its complement by Haynsworth
additivity, of a gapped size from its eigenvalues and of the sizes of a run
from the signs of its leading minors, certified from the step's residual,
and writes the inverses by the block formula, their one source.
``_clique_pivot`` forms the complement of the shifted clique block at each
edge from leading slices of the blocks, of the order of the points outside
the clique, and updates nothing.
``pinned_map`` is the one place that runs threads and controls BLAS
threading, for items with eigensolves large enough to overlap; ``_openblas``
is the one place that binds OpenBLAS. No public function
writes to an array its caller passed (see ``_eigenvalues``' ``overwrite``).
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NoConvergence
from .spaces import _integers

DEFAULT_TOL_REL = 1e-9

# Roundoff slack allowed before declaring an input asymmetric; inputs inside
# the slack are symmetrized exactly.
_SYM_SLACK = 1e-12

_WEIGHT_SUM_TOL = 1e-12

# A prefix of k points with c >= 2 in a planted clique takes the clique pivot
# when its r = k - c other points are at most k / _PIVOT_SHARE. Each of the
# pivot's two r x r complements then has at most k^2/64 entries, where the
# chain eigensolves k^2 of them or updates an inverse of order k^2. With more
# points outside, as at r = k/2, the chain's one-point steps cost less. The
# share decides the time only: every tier gives the same counts. The Perron
# bracket of such blocks starts in the clique's subspace under the same share.
_PIVOT_SHARE = 8

# A run of sizes one apart is counted in blocks of at most this many sizes:
# one step of the chain per block, and w x w determinants for the sizes in it.
_RUN_SIZES = 32

# The least edge the chain counts at, relative to max|lambda|. Steps pivot
# without choice: a Schur complement through blocks near an edge carries an
# error up to about eps * max|lambda|^2 / margin, below the margin only while
# it exceeds sqrt(eps) * max|lambda|. The default band is wider.
_EPS = float(np.finfo(float).eps)
_BORDER_FLOOR = float(np.sqrt(_EPS))

# (get, set) thread-count symbols of OpenBLAS: numpy's wheel build first, then
# the plain names of a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class Inertia(NamedTuple):
    """Counts of negative / zero / positive eigenvalues at threshold ``tol``."""

    s_minus: int
    s_zero: int
    s_plus: int
    tol: float

    @property
    def n(self) -> int:
        return self.s_minus + self.s_zero + self.s_plus

    @property
    def signature(self) -> tuple[int, int]:
        """The (s_minus, s_plus) pair."""
        return (self.s_minus, self.s_plus)

    def counts(self) -> tuple[int, int, int]:
        return (self.s_minus, self.s_zero, self.s_plus)


class EigenDecomposition(NamedTuple):
    """Full spectral decomposition; column ``i`` pairs with eigenvalue ``i``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_sym_matrix(a) -> np.ndarray:
    """Validate ``a`` as a finite square symmetric matrix.

    Asymmetry up to roundoff (1e-12 relative) is symmetrized exactly;
    anything larger raises InvalidInput.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidInput("matrix must have order >= 1")
    if not np.isfinite(A).all():
        raise InvalidInput("matrix has non-finite entries")
    if not np.array_equal(A, A.T):
        scale = max(float(np.abs(A).max()), 1.0)
        gap = float(np.abs(A - A.T).max())
        if gap > _SYM_SLACK * scale:
            raise InvalidInput(
                f"matrix is not symmetric (max |A - A^T| = {gap:.3e})"
            )
        A = 0.5 * (A + A.T)
    return A


def eig_sym(a) -> EigenDecomposition:
    """Spectral decomposition of a symmetric matrix, eigenvalues ascending."""
    return _eigenvalues(as_sym_matrix(a), vectors=True)


def _eigenvalues(A: np.ndarray, overwrite: bool = False, vectors: bool = False):
    """Eigenvalues, ascending, of a matrix that has passed ``as_sym_matrix``,
    a leading block of one, or a matrix the package builds symmetric, such
    as a complement formed from blocks of a validated matrix and
    symmetrized; with ``vectors``, its ``EigenDecomposition`` from
    ``np.linalg.eigh``. With ``overwrite`` the caller built ``A`` for this
    solve alone: a C-contiguous float64 ``A`` is then solved on its own
    buffer, left overwritten, by ``_openblas``'s dsyevd with the workspace
    LAPACK's query asks for, as numpy sizes it. The bits are those of
    ``np.linalg.eigvalsh``, which copies ``A`` and solves every other call."""
    owned = overwrite and A.dtype == np.float64 and A.flags.carray and A.shape == (len(A),) * 2
    lapack = owned and (_openblas() or (None,) * 3)[2]
    try:
        if vectors:
            return EigenDecomposition(*np.linalg.eigh(A))
        if not lapack:
            return np.linalg.eigvalsh(A)
        n, lwork, liwork, info = (ctypes.c_int64(v) for v in (len(A), -1, -1, 0))
        w, work, iwork = np.empty(len(A)), np.empty(1), np.empty(1, np.int64)
        # jobz N, uplo L: the C-order buffer holds A^T, which is A. The first
        # call, at lwork = liwork = -1, is the workspace query.
        lapack(b"N", b"L", n, A.ctypes, n, w.ctypes, work.ctypes, lwork, iwork.ctypes, liwork, info)
        lwork.value, liwork.value = int(work[0]), int(iwork[0])
        work, iwork = np.empty(lwork.value), np.empty(liwork.value, np.int64)
        lapack(b"N", b"L", n, A.ctypes, n, w.ctypes, work.ctypes, lwork, iwork.ctypes, liwork, info)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")  # numpy's words
        return w
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(
            f"eigensolver failed for matrix of order {A.shape[0]}: {exc}"
        ) from exc


@functools.cache
def _openblas():
    """(get, set, dsyevd) of the OpenBLAS that numpy loaded, found once
    through ``/proc/self/maps``: its thread-count functions and the ILP64
    ``scipy_dsyevd_64_`` of numpy's wheel, else None, since an LP64 one
    (scipy's wheel, a system OpenBLAS) is never bound. None when no OpenBLAS
    is mapped (MKL, Accelerate, no ``/proc``) or it lacks both pairs."""
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh]
    except OSError:
        return None
    for path in dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                dsyevd = getattr(lib, "scipy_dsyevd_64_", None)
                if dsyevd is not None:  # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info
                    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
                    dsyevd.argtypes = [ctypes.c_char_p] * 2 + [i64, ptr, i64, ptr, ptr, i64, ptr, i64, i64]
                    dsyevd.restype = None
                return get, put, dsyevd
    return None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` or a cpuset narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The least expected eigensolve order at which ``pinned_map`` starts a pool.
_POOL_MIN_ORDER = 200


class _BlasPin:
    """How many ``pinned_map`` pools are running, and the count saved when
    the first one started."""

    lock = threading.Lock()
    depth = 0
    saved = 0


def pinned_map(fn, items, order) -> list:
    """``[fn(x) for x in items]``, in order, for a sequence ``items`` whose
    largest eigensolve or factorization is expected to have order ``order``.

    Where ``_openblas`` finds OpenBLAS and ``order >= _POOL_MIN_ORDER``,
    ``min(len(items), usable CPUs)`` pool workers run the items with OpenBLAS
    pinned to one thread: a pool whose workers each start BLAS threads of
    their own is slower than one thread with threaded BLAS. The pin is
    process-global, so other BLAS work in the process also runs
    single-threaded meanwhile. Overlapping pools pin once and restore the
    saved count when the last one ends, also when ``fn`` raises. Otherwise,
    and with one worker (one usable CPU or one item), the items run serially
    in the calling thread with threaded BLAS: below that order an item is
    many small numpy calls under the interpreter lock, which pool workers
    only contend for. The route does not change the results.
    """
    api = _openblas()
    pooled = api is not None and order >= _POOL_MIN_ORDER
    workers = min(len(items), _usable_cpus()) if pooled else 1
    if workers <= 1:
        return [fn(x) for x in items]
    get, put, _ = api
    with _BlasPin.lock:
        if _BlasPin.depth == 0:
            _BlasPin.saved = get()
            put(1)
        _BlasPin.depth += 1
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    finally:
        with _BlasPin.lock:
            _BlasPin.depth -= 1
            if _BlasPin.depth == 0:
                put(_BlasPin.saved)


def _zero_band(n: int, tol_rel: float, rho: float) -> float:
    """The zero band tol_rel * n * rho of a block of order n and max|lambda| rho."""
    return tol_rel * n * rho


def _perron_bracket(A):
    """(Rayleigh quotient, upper bound) of max|lambda| of ``A``, or None.

    For ``A <= 0`` with no zero row, as -d^2/2 on distinct points, max|lambda|
    is the Perron root of -A, which the quotients (-A x)_i / x_i of every x > 0
    bracket (Collatz-Wielandt); so does the Rayleigh quotient, their x_i^2-
    weighted mean. A power iteration closes the bracket: from the ones vector
    for a matrix, and for ``CliqueBlocks`` from their ``perron_start``, the
    ones vector's iterate in the clique's invariant subspace, or from ones
    where there is none (more than an eighth of the points outside the
    clique, or an entry <= 0). ``A`` is a matrix or ``CliqueBlocks``: the
    loop reads its order, its largest entry and its products ``A @ x``,
    O(n r) for the blocks.
    """
    if not A.max() <= 0:
        return None
    x = A.perron_start() if isinstance(A, CliqueBlocks) else None
    x = np.ones(len(A)) if x is None else x
    for _ in range(64):  # an open bracket leaves the band to an eigensolve
        y = -(A @ x)
        q = y / x
        lo, hi = float(q.min()), float(q.max())
        if not lo > 0:
            return None
        if hi - lo <= 1e-14 * hi:  # hi gains the roundoff of sums of nonnegative terms
            return float(x @ y) / float(x @ x), hi * (1.0 + (len(A) + 2) * _EPS)
        x = y / hi
    return None


def _band_counts(vals: np.ndarray, theta: float) -> Inertia:
    s_minus = int(np.sum(vals < -theta))
    s_plus = int(np.sum(vals > theta))
    return Inertia(s_minus, len(vals) - s_minus - s_plus, s_plus, theta)


def _check_tol_rel(tol_rel) -> None:
    if not (math.isfinite(tol_rel) and tol_rel >= 0):  # NaN, inf: every eigenvalue is zero
        raise InvalidInput(f"tol_rel must be finite and nonnegative, got {tol_rel!r}")


def spectrum_inertia(vals, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """Inertia triple of a spectrum: its values below -theta, within +-theta and above."""
    _check_tol_rel(tol_rel)
    vals = np.asarray(vals, dtype=float)
    return _band_counts(vals, _zero_band(len(vals), tol_rel, float(np.abs(vals).max())))


def inertia(a, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """``spectrum_inertia`` of the eigenvalues of a symmetric matrix."""
    return _inertia(np.array(a, dtype=float), tol_rel)[1]


def _inertia(a, tol_rel: float, vectors: bool = False, esd: bool = False) -> tuple:
    """(spectrum, ``inertia``) of ``a``: the one count of a whole matrix.
    The spectrum is the eigenvalues, or with ``vectors`` the
    ``EigenDecomposition``, in ``a``'s units, an eigenvalue past the largest
    float at +-inf; with ``esd`` the eigenvalues are divided by sqrt(n) in
    the solve's units first, the ESD's values, which hold where an
    eigenvalue would not. ``vectors`` as in ``_eigenvalues``. ``a`` is built
    for this count (``inertia`` copies its caller's) and may be overwritten."""
    _check_tol_rel(tol_rel)
    A, power = _unit_scale(as_sym_matrix(a))
    spectrum = _eigenvalues(A, overwrite=True, vectors=vectors)
    vals = spectrum.eigenvalues if vectors else spectrum
    ine = spectrum_inertia(vals, tol_rel)
    if esd:
        vals /= math.sqrt(len(vals))
    if power:
        with np.errstate(over="ignore"):
            np.ldexp(vals, power, out=vals)
    return spectrum, ine._replace(tol=_band_in_units(ine.tol, power))


def _band_in_units(theta: float, power: int) -> float:
    """theta times 2^power: a band counted at unit scale, in the input's
    units. A band past the largest float raises InvalidInput."""
    try:
        return math.ldexp(theta, power)
    except OverflowError:
        raise InvalidInput(f"the zero band theta = {theta!r} * 2^{power} exceeds the largest float") from None


def _unit_scale(A):
    """(A times 2^-p, p) for a matrix or ``CliqueBlocks`` ``A`` whose
    max|entry| lies outside about [1e-146, 1e146], p its ``frexp`` exponent;
    else (A, 0). LAPACK's xSYEV scales such a matrix before it reduces it;
    times 2^-p, the counting entry points' matrix keeps its inertia, and
    theta scales exactly, with no subnormal or overflow. Of the blocks, B, D
    and gamma scale alike, gamma only where two clique points make it an
    entry: else it could underflow to 0."""
    blocks = isinstance(A, CliqueBlocks)
    gamma = A.gamma if blocks and len(A.inside) >= 2 else 0.0
    biggest = max(np.abs(A.B).max(initial=gamma), np.abs(A.D).max(initial=0.0)) if blocks else max(A.max(), -A.min())
    if biggest == 0.0 or 1e-146 <= biggest <= 1e146:
        return A, 0
    power = math.frexp(biggest)[1]
    if blocks:
        gamma = math.ldexp(gamma, -power) if gamma else A.gamma
        return CliqueBlocks(A.flags, np.ldexp(A.B, -power), np.ldexp(A.D, -power), gamma), power
    return np.ldexp(A, -power), power


class _Edge(NamedTuple):
    """A chain step's complement C at one edge: the bound ``delta`` on the
    step's change of A_k - sigma I, the bound ``weyl`` on the error of C's
    symmetric part, and that part's eigenvalues and eigenvectors, each None
    where the step does not read it."""

    delta: float
    weyl: float
    vals: np.ndarray | None
    vecs: np.ndarray | None


def _chain_step(A: np.ndarray, V: np.ndarray, anchor: tuple, band: tuple, run: bool):
    """(counts, anchor, bound): (below -e, below e) of A_k, k = len(A), or
    with ``run`` of each of A_{a+1}, ..., A_k as far as they are certified,
    stepped to from ``anchor`` = (a, A_a's exact counts, the norms of its
    inverses), whose inverses e (A_a - sigma I)^{-1} at sigma = -+e are in
    ``V[s, :a, :a]``, in units of e; then A_k's anchor, or None where its
    inverses are refused or have no room in ``V``, which is then left as it
    was; and the bound delta e. ``band`` is (e, the floor, a bound on
    ||A||_F).

    With B = A[:a, a:] / e, D = A[a:, a:] / e, X = V B and C = D - (sigma /
    e) I - B^T X, A_k - sigma I has as many eigenvalues below 0 as A_a -
    sigma I and C together (Haynsworth). V is an approximate inverse, since
    the block formula below cancels, so the step forms the residual R =
    (A_a - sigma I) X / e - B: C is the exact complement of a matrix within
    delta e of A_k - sigma I, delta = ||R||_F + eps (3 a (||A||_F / e +
    sqrt(a)) + a ||B||_F ||X||_F + 3 w ||C||_F + 4 ||X||_F + 4 ||B||_F), w =
    k - a, to first order, with the roundoff of R's product as a change of
    A_a, and C's symmetric part is within delta + (||X||_F + ||V||_F
    ||R||_F) ||R||_F of the exact C, since the exact X is X - V R. Where a
    check below fails, X takes one step of refinement, X - V R.

    From the empty block, ``anchor`` = (0, (0, 0), zeros(2)), C = A_k / e -
    (sigma / e) I and R is empty: both edges take the eigenpairs of one
    eigensolve of A_k / e, shifted, delta adds eps (||C||_F + 3 w sqrt(w))
    for the shift's rounding and the shift's part in the solve's error, and
    nothing is refined.

    - With ``run``, A_{a+j} counts A_a's count plus the sign changes along
      1, det C_1, ..., det C_j of C's leading minors at each edge (Jacobi),
      from one batched ``slogdet``: exact unless an eigenvalue lies within
      delta e of an edge. It is refused at a zero minor, where its count
      below -e exceeds its count below e, and where delta exceeds the floor.
    - Else A_k counts the eigenvalues below 0 of C's symmetric part, where
      the least |eigenvalue| exceeds that bound (Weyl).
    - The inverses of A_k follow by the block formula, [[V + Y X^T, -Y],
      [-Y^T, Z]] with Z = C^{-1} and Y = X Z. 1 / ||(A_k - sigma I)^{-1}||_F
      e, at most the distance from sigma to A_k's spectrum in units of e,
      must exceed delta: near an edge the inverses are inflated, and a step
      from them would cancel.
    """
    (a, below, norms), (e, floor, fro) = anchor, band
    k = len(A)
    w = k - a
    sigma = np.array([-1.0, 1.0])[:, None, None]  # sigma / e at each edge
    B, D = A[:a, a:] / e, A[a:, a:] / e
    b = math.sqrt(np.vdot(B, B))
    keep = k <= len(V[0])  # the inverses of A_k, where V has room for them
    whole = _eigenvalues(D, vectors=True) if keep and not a else None  # from the empty block, C = A_k / e - sigma I
    D = D - sigma * np.eye(w)
    X = V[:, :a, :a] @ B
    for refined in (False, True):  # one step of refinement, X - V R, where a check below fails
        R = A[:a, :a] @ X / e - sigma * X - B
        C = D - B.T @ X
        edges = []
        for s, M in enumerate(0.5 * (C + C.transpose(0, 2, 1))):
            x = math.sqrt(np.vdot(X[s], X[s]))
            r = math.sqrt(np.vdot(R[s], R[s])) + 4.0 * _EPS * (x + b)  # and the subtractions': ||AX|| <= r + x + b
            c = math.sqrt(np.vdot(C[s], C[s]))
            delta = r + _EPS * (3 * a * (fro / e + math.sqrt(a)) + a * b * x + 3 * w * c)
            if whole is None:
                vals, vecs = _eigenvalues(M, vectors=True) if keep else (None if run else _eigenvalues(M), None)
            else:  # A_k / e's eigenpairs, shifted: add the shift's rounding and its norm sqrt(w) in the solve's error
                vals, vecs = whole.eigenvalues - sigma[s, 0, 0], whole.eigenvectors
                delta += _EPS * (c + 3 * w * math.sqrt(w))
            edges.append(_Edge(delta, delta + (x + norms[s] * r) * r, vals, vecs))
        delta = max(edge.delta for edge in edges)
        counted = delta <= floor / e if run else all(np.abs(edge.vals).min() > edge.weyl for edge in edges)
        blocks = []  # the inverses of A_k at each edge, with their norms
        for s, edge in enumerate(edges if counted and keep else ()):
            if np.abs(edge.vals).min() > edge.delta:
                Z = (edge.vecs / edge.vals) @ edge.vecs.T
                Y = X[s] @ Z
                lead = Y @ X[s].T
                lead += V[s, :a, :a]
                norm = math.sqrt(np.vdot(lead, lead) + 2.0 * np.vdot(Y, Y) + np.sum(edge.vals**-2.0))
                blocks += [(lead, Y, Z, norm)] if norm * edge.delta < 1.0 else []
        if refined or not a or counted and (len(blocks) == 2 or not keep):  # from the empty block, R is empty
            break
        X -= V[:, :a, :a] @ R
    counts = []
    if run:
        within = np.tri(w, dtype=bool)  # within[j]: the rows and columns of C_{j+1}
        minors = np.where(within[:, :, None] & within[:, None, :], C[:, None], np.eye(w))
        signs = np.linalg.slogdet(minors)[0]  # signs[s, j] of det C_{j+1} at edge s
        flips = signs != np.concatenate([np.ones((2, 1)), signs[:, :-1]], axis=1)
        lo, hi = np.cumsum(flips, axis=1) + np.array(below)[:, None]
        bad = (signs == 0).any(axis=0) | (lo > hi) | (delta > floor / e)
        stop = int(np.argmax(bad)) if bad.any() else w
        counts = list(zip(lo[:stop].tolist(), hi[:stop].tolist()))
    elif counted:
        lo, hi = (below[s] + int(np.count_nonzero(edge.vals < 0)) for s, edge in enumerate(edges))
        counts = [(lo, hi)] if lo <= hi else []
    if len(counts) < (w if run else 1) or len(blocks) < 2:
        return counts, None, delta * e
    for s, (lead, Y, Z, _) in enumerate(blocks):
        V[s, :a, :a], V[s, :a, a:k], V[s, a:k, :a], V[s, a:k, a:k] = lead, -Y, -Y.T, Z
    return counts, (k, counts[-1], np.array([norm for *_, norm in blocks])), delta * e


class CliqueBlocks:
    """A symmetric matrix on n points held as the blocks of a planted clique.

    ``flags`` marks the c clique points, whose block is -gamma (J - I), a
    simplex's -d^2/2 up to scale; ``B`` holds the entries between the r
    points outside the clique (rows) and the c inside it (columns), and
    ``D`` those among the points outside, each in the points' order. Only
    the n r entries of ``B`` and ``D`` are stored. ``len``, ``max`` and
    ``@`` act as on the n x n matrix, so ``_perron_bracket`` takes either,
    and ``A @ x`` costs O(n r). Flags that are not a boolean vector, blocks
    of other shapes, a ``D`` that is not symmetric, a non-finite entry or a
    gamma that is not positive raise InvalidInput. Their bracket starts in
    the clique's invariant subspace (``perron_start``)."""

    def __init__(self, flags, B, D, gamma: float):
        self.flags, self.gamma = np.asarray(flags), float(gamma)
        self.B, self.D = np.asarray(B, dtype=float), np.asarray(D, dtype=float)
        if self.flags.dtype != bool or self.flags.ndim != 1:
            raise InvalidInput("clique flags must be a boolean vector")
        self.inside, self.outside = np.flatnonzero(self.flags), np.flatnonzero(~self.flags)
        r, c = len(self.outside), len(self.inside)
        if not (np.isfinite(self.B).all() and np.isfinite(self.D).all() and 0.0 < self.gamma < math.inf):
            raise InvalidInput("clique blocks need finite entries and a positive gamma")
        if self.B.shape != (r, c) or self.D.shape != (r, r) or not np.array_equal(self.D, self.D.T):
            raise InvalidInput(f"clique blocks must be B of shape {(r, c)} and a symmetric D of shape {(r, r)}")

    def __len__(self) -> int:
        return len(self.flags)

    def head(self, k: int) -> "CliqueBlocks":
        """The blocks of the first k points: these blocks at k = n."""
        if k == len(self):
            return self
        c = int(np.searchsorted(self.inside, k))
        return CliqueBlocks(self.flags[:k], self.B[:k - c, :c], self.D[:k - c, :k - c], self.gamma)

    @functools.cached_property
    def gram(self) -> tuple:
        """(s, H) = (B 1, B B^T), shared by ``perron_start`` and the pivot of
        all n points."""
        return self.B.sum(axis=1), self.B @ self.B.T

    def perron_start(self) -> np.ndarray | None:
        """The ones vector's power iterate under -A, taken in the clique's
        invariant subspace until it changes by at most the roundoff of one
        product, (2r + 1) eps, or for 64 products, and expanded once; None
        where it has an entry <= 0, and with r = 0 or r > n / 8
        (``_PIVOT_SHARE``), where ones is the start. -A maps x = (x_c, x_o)
        with x_c = alpha 1 + B^T w, the subspace, to such a vector, of
        alpha' = gamma (alpha (c - 1) + s^T w), w' = -gamma w - x_o and x_o'
        = -alpha s - H w - D x_o: a (2r + 1)-square operator on (alpha, w,
        x_o), O(r^2) a product. Its iterates are the ones start's, so it
        saves work only where that costs less than a product of O(n r), and
        the pivot of all n points reuses ``gram``: at r <= n / 8."""
        r, c = self.B.shape
        if not r or _PIVOT_SHARE * r > r + c:  # c >= 7 r >= 7 past this
            return None
        (s, H), g = self.gram, self.gamma
        M = np.zeros((2 * r + 1,) * 2)
        M[0, 0], M[0, 1:r + 1], M[r + 1:, 0] = g * (c - 1), g * s, -s
        M[1:r + 1, 1:r + 1], M[1:r + 1, r + 1:] = -g * np.eye(r), -np.eye(r)
        M[r + 1:, 1:r + 1], M[r + 1:, r + 1:] = -H, -self.D
        z = np.concatenate([[1.0], np.zeros(r), np.ones(r)])  # (alpha, w, x_o) of ones
        for _ in range(64):
            y = M @ z
            y /= np.abs(y).max()
            if np.abs(y - z).max() <= (2 * r + 1) * _EPS:
                break
            z = y
        x = np.empty(len(self))
        x[self.inside], x[self.outside] = y[0] + self.B.T @ y[1:r + 1], y[r + 1:]
        return x if (x > 0).all() else None

    def max(self) -> float:
        """The largest entry: 0 on the diagonal, else the largest entry of
        ``B`` or ``D``, since the clique's -gamma is below 0."""
        return max(self.B.max(initial=0.0), self.D.max(initial=0.0))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xc, xo = x[self.inside], x[self.outside]
        # the clique's rows are -gamma (1^T x_c - x_c) + B^T x_o; the sum of
        # the other x_j adds the sums before and after x_i, so for x > 0 it
        # errs as a row of the matrix would, where 1^T x_c - x_i could cancel
        others = np.zeros(len(xc))
        others[1:] += np.cumsum(xc)[:-1]
        others[:-1] += np.cumsum(xc[::-1])[::-1][1:]
        y = np.empty(len(x))
        y[self.inside] = self.B.T @ xo - self.gamma * others
        y[self.outside] = self.B @ xc + self.D @ xo
        return y

    def leading(self, k: int) -> np.ndarray:
        """The dense block of the first k points."""
        c = int(np.searchsorted(self.inside, k))
        inside, outside = self.inside[:c], self.outside[:k - c]
        A = np.empty((k, k))
        A[np.ix_(inside, inside)] = -self.gamma
        A[inside, inside] = 0.0
        A[np.ix_(outside, inside)] = B = self.B[:k - c, :c]
        A[np.ix_(inside, outside)] = B.T
        A[np.ix_(outside, outside)] = self.D[:k - c, :k - c]
        return A


def _clique_pivot(B: np.ndarray, D: np.ndarray, gamma: float, theta: float, gram=None):
    """(s_minus, s_zero, s_plus) at theta of A_k, the k = c + r points of a
    ``CliqueBlocks`` with c >= 2 in the clique, from its blocks ``B`` (r x c)
    and ``D`` (r x r), and their ``gram`` where the caller holds it; None
    where roundoff could decide one.

    Clique first, A_k = [[K, B^T], [B, D]], K = gamma (I - J). At an edge
    sigma, K - sigma I has the eigenvalues t = gamma - sigma (c - 1 times)
    and u = gamma (1 - c) - sigma, and the inverse (I + gamma J / u) / t. So
    A_k has as many eigenvalues below sigma as K - sigma I and Sigma = D -
    sigma I - (H + gamma s s^T / u) / t have below 0 (Haynsworth), with H =
    B B^T and s = B 1 from one GEMM of c r^2 for both edges +-theta.

    Refused, for B of any sign: t = 0 (t is correctly rounded); k |u| <=
    gamma (c - 1) + |sigma|, where u, off by the rounding of gamma (c - 1),
    may err by over k eps; a computed eigenvalue of Sigma within 2 k eps
    (||D||_F + |sigma| sqrt(r) + ||B||_F^2 (1 + 2 c gamma / |u|) / |t|) of
    0. That bounds Sigma's roundoff (Weyl): H errs by c eps |B| |B|^T <=
    c eps sqrt(H_ii H_jj) (Cauchy-Schwarz), c eps ||B||_F^2 in norm, and
    s s^T by 2 c^2 eps ||B||_F^2 (||s|| <= sqrt(c) ||B||_F); u adds k eps
    of its term, the other operations a few eps, eigvalsh r eps ||Sigma||."""
    r, c = B.shape  # r = 0 leaves every array below empty
    s, H = gram or (B.sum(axis=1), B @ B.T)
    b2, d_norm = float(np.trace(H)), float(np.linalg.norm(D))  # ||B||_F^2, ||D||_F
    below = []
    for sigma in (-theta, theta):
        t, u = gamma - sigma, gamma * (1 - c) - sigma
        if not (t and abs(u) * (c + r) > gamma * (c - 1) + abs(sigma)):
            return None
        n = (c - 1) * (t < 0) + (u < 0)
        if r:
            S = D - sigma * np.eye(r) - (H + np.multiply.outer(s, s * (gamma / u))) / t
            vals = _eigenvalues(0.5 * (S + S.T))
            terms = d_norm + abs(sigma) * math.sqrt(r) + b2 * (1.0 + 2.0 * c * gamma / abs(u)) / abs(t)
            if not np.abs(vals).min() > 2.0 * (c + r) * _EPS * terms:
                return None
            n += int(np.count_nonzero(vals < 0))
        below.append(int(n))  # a numpy theta would make it a numpy integer
    return below[0], below[1] - below[0], c + r - below[1]


def prefix_inertias(a, sizes, tol_rel: float = DEFAULT_TOL_REL) -> list:
    """Inertias of the leading blocks ``a[:k, :k]`` for increasing ``sizes``,
    all against one zero band.

    ``a`` is a symmetric matrix, or the ``CliqueBlocks`` of one, which mark
    its planted clique themselves; a matrix has no clique to pivot on. Either
    is first scaled by an exact power of two where its max|entry| lies
    outside LAPACK's safe range (``_unit_scale``). The band is theta =
    tol_rel * N * max|lambda| of the block of the largest size N, with
    max|lambda| from a ``_perron_bracket``, or from an eigensolve of that
    block when there is none; the bracket of ``CliqueBlocks`` shares their
    ``gram`` with the pivot of the largest size. By Cauchy interlacing the
    band bounds the theta of every smaller block, so s_minus and s_plus
    never decrease along the sizes. Each size k is counted in one of three
    ways:

    - by ``_clique_pivot``, at the band's two edges, from the leading slices
      of the clique's blocks, when c >= 2 of the k points are in the clique
      and the r = k - c others are at most k / 8 (``_PIVOT_SHARE``). A size
      whose edge lies within the pivot's roundoff of an eigenvalue goes to
      the chain;
    - by the chain (``_chain_step``), at the edges -+e, e = max(theta,
      floor), floor = sqrt(eps) max|lambda|. It holds the inverses of A_a -+
      e I of its anchor a, the last size it counted, and steps through a
      block of a run of sizes one apart after a, of at most 32 sizes
      (``_RUN_SIZES``, a run split evenly), or to the next size k where a >=
      k / 2. Every other size steps from the empty block, a = 0: the first,
      one more than twice the size of its anchor (a wider step costs more),
      one refused from a held anchor, and one after a step that keeps no
      inverses, unless the pivot takes it. Below the floor a size is kept
      only where its counts at -+floor agree: it reads (below, 0, k - below)
      at theta, and is eigensolved otherwise, the chain going on;
    - by an eigensolve otherwise: a size refused from the empty block, or
      one that no held anchor reaches where no later size may step from it.

    The chain reads dense leading blocks only, written from ``CliqueBlocks``
    when it first needs one, at the largest size that does not take the
    pivot, and again at a larger size whose pivot is refused. It holds the
    inverses up to the largest size below N that it counts.
    """
    _check_tol_rel(tol_rel)
    A = a if isinstance(a, CliqueBlocks) else as_sym_matrix(a)
    sizes = _integers(sizes, "prefix size").tolist()
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])) or any(k < 1 or k > len(A) for k in sizes):
        raise InvalidInput("sizes must be increasing and within the matrix order")
    if not sizes:
        return []
    N = sizes[-1]
    A, power = _unit_scale(A.head(N) if isinstance(A, CliqueBlocks) else A[:N, :N])
    blocks, dense = (A, None) if isinstance(A, CliqueBlocks) else (None, A)  # dense: the leading blocks the chain reads
    inside = blocks.inside if blocks is not None else np.empty(0, dtype=int)
    in_clique = np.searchsorted(inside, sizes).tolist()
    offered = [c >= 2 and _PIVOT_SHARE * (k - c) <= k for k, c in zip(sizes, in_clique)]
    chain_top = max((k for k, o in zip(sizes, offered) if not o), default=0)

    def lead(k):
        nonlocal dense
        if dense is None or len(dense) < k:
            dense = blocks.leading(max(k, chain_top))
        return dense[:k, :k]

    rho, top = _perron_bracket(dense if blocks is None else blocks), None
    if rho is None:  # not -d^2/2-like, or no closed bracket: the band's eigensolve
        top = _eigenvalues(lead(N))
        rho = (float(np.abs(top).max()),) * 2
    theta, floor = _zero_band(N, tol_rel, rho[0]), _BORDER_FLOOR * rho[1]
    band = (max(theta, floor), floor, math.sqrt(N) * rho[1])  # ||A_N||_F <= sqrt(N) max|lambda|
    counted = sizes if top is None else sizes[:-1]
    # ahead[i]: how many sizes one apart, none offered to the pivot, start at counted[i]
    ahead = [0] * (len(counted) + 1)
    for i in reversed(range(len(counted))):
        if not offered[i]:
            ahead[i] = 1 + (ahead[i + 1] if counted[i + 1:i + 2] == [counted[i] + 1] else 0)
    V = np.empty((2,) + (max((k for k, o in zip(counted, offered) if not o and k < N), default=0),) * 2)
    empty = (0, (0, 0), np.zeros(2))  # the chain's anchor where V holds no inverses
    anchor, out, i = empty, [], 0
    while i < len(counted):
        k, c = counted[i], in_clique[i]
        if offered[i]:
            gram = blocks.gram if k == N else None  # the bracket's start formed it
            pivot = _clique_pivot(blocks.B[:k - c, :c], blocks.D[:k - c, :k - c], blocks.gamma, theta, gram)
            if pivot is not None:
                out.append(Inertia(*pivot, theta))
                i += 1
                continue
            offered[i] = False  # refused: the chain counts k, and holds its inverses too
            if len(V[0]) < k < N:
                V = np.pad(V, ((0, 0), (0, k - len(V[0])), (0, k - len(V[0]))))
        if 2 * anchor[0] < k:  # a wider step costs more than one from the empty block
            anchor = empty
        j = -(-ahead[i] // -(-ahead[i] // _RUN_SIZES)) if k == anchor[0] + 1 and ahead[i] > 1 else 1
        if band[0] > 0 and (anchor[0] or j > 1 or not all(offered[i + 1:])):  # else no later size steps from k
            a = anchor[0]
            got, anchor, _ = _chain_step(lead(counted[i + j - 1]), V, anchor, band, j > 1)
            anchor = anchor or empty
            for size, (lo, hi) in zip(counted[i:], got):
                if theta >= floor or lo == hi:
                    out.append(Inertia(lo, hi - lo, size - hi, theta))
                else:  # an eigenvalue within the floor of 0
                    out.append(_band_counts(_eigenvalues(lead(size)), theta))
            i += len(got)
            if got or a:  # k, refused from a held anchor, steps again from the empty block
                continue
        out.append(_band_counts(_eigenvalues(lead(k)), theta))
        i += 1
    out = out if top is None else out + [_band_counts(top, theta)]
    theta = _band_in_units(theta, power)
    return [ine._replace(tol=theta) for ine in out]


def double_center(s) -> np.ndarray:
    """Pi S Pi with Pi = Id - 11^T/n; annihilates the all-ones vector."""
    S = as_sym_matrix(s)
    row = S.mean(axis=1)
    out = S - row[:, None] - row[None, :] + row.mean()
    return 0.5 * (out + out.T)


def validate_weights(w, n: int | None = None) -> np.ndarray:
    """Check a probability vector: numbers, nonnegative, sums to 1 within
    1e-12, and of length ``n`` when ``n`` is given. An array must have a
    numeric dtype, and a list or tuple hold real numbers only, since numpy
    would turn a string such as "0.5" or a bool into a float."""
    if isinstance(w, np.ndarray):
        if w.dtype.kind not in "iuf":
            raise InvalidInput(f"weights must be numbers: got an array of {w.dtype}")
    elif isinstance(w, (list, tuple)):
        for x in w:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise InvalidInput(f"weights must be numbers: {x!r} is not a number")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidInput(f"weights must be a vector, got shape {w.shape}")
    if n is not None and w.shape[0] != n:
        raise InvalidInput(f"expected {n} weights, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise InvalidInput("weights have non-finite entries")
    if (w < 0).any():
        i = int(np.argmin(w))
        raise InvalidInput(f"weight {i} is negative ({float(w[i])!r})")
    total = float(w.sum())
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidInput(f"weights sum to {total!r}, not 1")
    return w


def weighted_center(s, w) -> np.ndarray:
    """Weighted analogue of double centering.

    Returns M^(1/2) C_w S C_w^T M^(1/2) with C_w = Id - 1 w^T and
    M = diag(w): a symmetric matrix congruent-similar to the kernel matrix
    of the measure-centered operator, so its inertia matches that operator.
    The inner factor C_w S C_w^T subtracts row and column mu-averages and
    adds back the double average.
    """
    S = as_sym_matrix(s)
    w = validate_weights(w, S.shape[0])
    sw = S @ w
    centered = S - sw[:, None] - sw[None, :] + float(w @ sw)
    root = np.sqrt(w)
    out = centered * np.outer(root, root)
    return 0.5 * (out + out.T)
