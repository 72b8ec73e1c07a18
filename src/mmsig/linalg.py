"""Dense symmetric linear algebra: eigendecomposition, inertia, and the
centering transforms everything else builds on.

Matrices are plain square ``numpy`` arrays; ``as_sym_matrix`` is the single
validation gate, passed once at each entry point: ``eig_sym``, ``inertia``,
``prefix_inertias``, the centering transforms and
``spectral.esd_and_inertia``. ``_eigenvalues`` takes a matrix that has
passed it, a leading block of one, or a complement formed from such blocks
and symmetrized, and validates nothing. ``prefix_inertias`` also takes a
matrix as ``CliqueBlocks``, the blocks a countable model with a planted
clique builds without the n x n matrix, which check their own shapes and
entries when made; it writes dense leading blocks from them only for the
sizes the pivot does not count. Inertia counting uses the eigenvalue
spectrum as the source of truth, with the zero threshold ``theta = tol_rel *
n * max|lambda|``; ``prefix_inertias`` counts a family of leading blocks
against one threshold, from a Perron bracket of max|lambda|: at the band's
edges -+theta through a planted clique's closed-form block where its
``CliqueBlocks`` hold all but an eighth of the points (``_clique_pivot``), by
the signs of det(A_k -+ e I), e = max(theta, sqrt(eps) max|lambda|), along
runs of consecutive sizes, up to 32 of them from one LU (``_run_counts``), by
certified Schur blocks of one or more rows where they cost less than an
eigensolve, and by an eigensolve otherwise. ``_schur_step`` is the chain's
Schur complement: it adds a block's counts by Haynsworth additivity and, once
certified, updates the inverse the next step starts from;
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

# A Schur step to a prefix block S_k counts only when 1/||S_k^{-1}||_F, a
# lower bound on the smallest |eigenvalue| of S_k, exceeds the zero band by
# this factor, which absorbs the roundoff of the updated inverse.
BORDER_SAFETY = 10.0

# A prefix of k points with c >= 2 in a planted clique takes the clique pivot
# when its r = k - c other points are at most k / _PIVOT_SHARE. Each of the
# pivot's two r x r complements then has at most k^2/64 entries, where the
# chain eigensolves k^2 of them or updates an inverse of order k^2. With more
# points outside, as at r = k/2, the chain's one-point steps cost less. The
# share decides the time only: every tier gives the same counts.
_PIVOT_SHARE = 8

# A run of sizes one apart is counted in blocks of at most this many sizes:
# one LU of the anchor's order per block, and w x w determinants for the rest.
_RUN_SIZES = 32

# The least bound a step is checked against, relative to max|lambda|. Steps
# pivot without choice: a Schur complement through blocks near the bound
# carries an error up to about eps * max|lambda|^2 / bound, below the bound
# only while it exceeds sqrt(eps) * max|lambda|. The default band is wider.
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
    A = as_sym_matrix(a)
    try:
        vals, vecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(
            f"eigensolver failed for matrix of order {A.shape[0]}: {exc}"
        ) from exc
    return EigenDecomposition(vals, vecs)


def _eigenvalues(A: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues-only path of the same LAPACK solver family, of a matrix
    that has passed ``as_sym_matrix``, a leading block of one, or a
    complement formed from blocks of a validated matrix and symmetrized.
    With ``overwrite`` the caller built ``A`` for this solve alone: a
    C-contiguous float64 ``A`` is then solved on its own buffer, left
    overwritten, by ``_openblas``'s dsyevd with the workspace LAPACK's query
    asks for, as numpy sizes it. The bits are those of ``np.linalg.eigvalsh``,
    which copies ``A`` and solves every other call."""
    owned = overwrite and A.dtype == np.float64 and A.flags.carray and A.shape == (len(A),) * 2
    lapack = owned and (_openblas() or (None,) * 3)[2]
    try:
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


def _zero_band(n: int, tol_rel: float, rho: float, rho_hi: float | None = None) -> tuple:
    """(theta, bound) of a block of order n whose max|lambda| is rho <= rho_hi:
    the zero band theta = tol_rel * n * rho, and the least |eigenvalue| a Schur
    certificate must prove, a safe multiple of theta or of rho_hi."""
    hi = rho if rho_hi is None else rho_hi
    return tol_rel * n * rho, max(BORDER_SAFETY * tol_rel * n * hi, _BORDER_FLOOR * hi)


def _perron_bracket(A):
    """(Rayleigh quotient, upper bound) of max|lambda| of ``A``, or None.

    For ``A <= 0`` with no zero row, as -d^2/2 on distinct points, max|lambda|
    is the Perron root of -A, which the quotients (-A x)_i / x_i of every x > 0
    bracket (Collatz-Wielandt); so does the Rayleigh quotient, their x_i^2-
    weighted mean. A power iteration from the ones vector closes the bracket.
    ``A`` is a matrix or ``CliqueBlocks``: the loop reads its order, its
    largest entry and its products ``A @ x``, O(n r) for the blocks.
    """
    if not A.max() <= 0:
        return None
    x = np.ones(len(A))
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
    return _band_counts(vals, _zero_band(len(vals), tol_rel, float(np.abs(vals).max()))[0])


def inertia(a, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """``spectrum_inertia`` of the eigenvalues of a symmetric matrix."""
    return _inertia(a, tol_rel)


def _inertia(a, tol_rel: float, overwrite: bool = False) -> Inertia:
    """``inertia``; ``overwrite`` as in ``_eigenvalues``."""
    _check_tol_rel(tol_rel)
    return spectrum_inertia(_eigenvalues(as_sym_matrix(a), overwrite=overwrite), tol_rel)


def _schur_step(A: np.ndarray, inv: np.ndarray, a: int, k: int, bound: float, base: Inertia):
    """Step from ``inv[:a, :a]`` and ``base``, the inverse and inertia of A_a
    = ``A[:a, :a]``, to those of A_k through C = A_k / A_a, for k - a >= 1.

    If ``1/||A_k^{-1}||_F > bound`` proves A_k's eigenvalues all exceed
    ``bound`` in modulus, write A_k^{-1} into ``inv[:k, :k]`` and return C's
    count of negative eigenvalues with A_k's inertia, ``base`` plus C's
    (Haynsworth); else return None and leave ``inv`` as it was: the norm is
    taken before any block is written. A k past the order of ``inv`` writes
    nothing. Where the plain sum of the squares of A_k^{-1}'s entries under-
    or overflows, the certificate is ``||bound A_k^{-1}||_F < 1`` instead."""
    V = inv[:a, :a]
    B = A[:a, a:k]
    X = V @ B
    C = A[a:k, a:k] - B.T @ X
    vals, vecs = eig_sym(0.5 * (C + C.T))
    # C^{-1} is a block of A_k^{-1}, so a C this close to singular fails too:
    # 1/||C^{-1}||_F from C's eigenvalues, with the least as a divisor that
    # keeps every term <= 1, so that no |lambda|^-2 overflows
    mags = np.abs(vals)
    lo = mags.min()
    if not (lo > bound and lo / np.sqrt(np.sum((lo / mags) ** 2)) > bound):
        return None
    c_inv = (vecs / vals) @ vecs.T
    Y = X @ c_inv
    lead = Y @ X.T
    lead += V
    # the blocks of A_k^{-1} are V + Y X^T, -Y, -Y^T and C^{-1}
    parts = ((1.0, lead), (2.0, Y), (1.0, c_inv))
    with np.errstate(over="ignore"):
        norm2_k = sum(w * np.vdot(M, M) for w, M in parts)
        if 2.0 ** -900 < norm2_k < math.inf:
            clear = np.sqrt(norm2_k) * bound < 1.0
        else:  # a square under- or overflowed: the norm in units of 1/bound
            clear = sum(w * np.vdot(bound * M, bound * M) for w, M in parts) < 1.0
    if not clear:
        return None
    if k <= len(inv):
        V[...] = lead
        del lead  # before the temporaries of the blocks below
        inv[:a, a:k], inv[a:k, :a], inv[a:k, a:k] = -Y, -Y.T, c_inv
    neg = int(np.count_nonzero(vals < 0))
    return neg, Inertia(base.s_minus + neg, 0, base.s_plus + k - a - neg, base.tol)


def _run_counts(A: np.ndarray, m: int, theta: float, anchor: tuple, floor: float):
    """(inertias, delta): the inertias of the leading blocks of orders m + 1,
    ..., k = len(A) of ``A`` against the band theta, counted at the edges -+e,
    e = max(theta, floor), from ``anchor``, the counts of A_m below -e and
    below e ((0, 0) for m = 0), and the bound delta on their roundoff. The
    inertias stop before the first size whose count is refused; there are
    none when delta exceeds ``floor`` > 0 or A_m -+ e I is singular.

    At each edge sigma = -+e, one batched LU solves (A_m - sigma I) W = B
    for the w = k - m new columns B, and C = D - sigma I - B^T W is the
    w x w Schur complement. Since det(A_{m+j} - sigma I) = det(A_m - sigma
    I) det C_j, and by interlacing each added row adds at most one
    eigenvalue below sigma, A_{m+j} has as many below sigma as A_m plus the
    sign changes along 1, det C_1, ..., det C_j (Jacobi), all of them from
    one batched ``slogdet`` of the C_j, each padded with the identity to
    order w. A size is refused where a minor is 0, where its count below -e
    would exceed its count below e, or, for theta below the floor, where the
    two differ: a kept size then has no eigenvalue within the floor of 0, as
    a certified step proves, and reads (below, 0, k - below) at theta.

    The bound: gesv's W is exact for A_m - sigma I + E with |E| <= 3 m eps
    |L||U| (Higham, Thm 9.4), near 3 m eps ||A_m - sigma I||_F for the
    modest growth of partial pivoting, which the bound assumes; the GEMM
    B^T W errs by m eps ||B||_F ||W||_F, the subtractions and the LU of
    C_j by 3 w eps ||C||_F. So C_j is exactly the complement of a matrix
    within delta = eps (3 m (||A_m||_F + sqrt(m) e) + m ||B||_F ||W||_F
    + 3 w ||C||_F) of A_{m+j} - sigma I, not symmetric, with A_m - sigma I
    + E in its corner; and a determinant keeps its sign under a
    perturbation smaller than its matrix's least singular value. Each count
    is therefore exact unless A_m or A_{m+j} has an eigenvalue within delta
    of an edge, where an eigensolve's count is fragile too.
    """
    k = len(A)
    w = k - m
    edge = max(theta, floor)
    diag = np.arange(m)
    shifted = np.stack([A[:m, :m], A[:m, :m]])
    shifted[0, diag, diag] += edge  # A_m - sigma I at sigma = -edge
    shifted[1, diag, diag] -= edge  # and at sigma = edge
    B = A[:m, m:]
    try:
        W = np.linalg.solve(shifted, np.stack([B, B]))
    except np.linalg.LinAlgError:  # an exact zero pivot: an edge on an eigenvalue of A_m
        return [], math.inf
    C = A[m:, m:] - B.T @ W
    C[:, np.arange(w), np.arange(w)] += np.array([[edge], [-edge]])
    # delta in units of the edge, at least the floor and theta, so that no
    # square in a norm overflows, at a huge theta too
    a_norm, b_norm = float(np.linalg.norm(A[:m, :m] / edge)), float(np.linalg.norm(B / edge))
    delta = edge * _EPS * float(np.max(
        3 * m * (a_norm + math.sqrt(m))
        + m * b_norm * np.linalg.norm(W, axis=(1, 2))
        + 3 * w * np.linalg.norm(C / edge, axis=(1, 2))
    ))
    if not delta <= floor:
        return [], delta
    within = np.tri(w, dtype=bool)  # within[j]: the rows and columns of C_{j+1}
    minors = np.where(within[:, :, None] & within[:, None, :], C[:, None], np.eye(w))
    signs = np.linalg.slogdet(minors)[0]  # signs[s, j] of det C_{j+1} at edge s
    flips = signs != np.concatenate([np.ones((2, 1)), signs[:, :-1]], axis=1)
    below = np.cumsum(flips, axis=1) + np.array(anchor)[:, None]
    bad = (signs == 0).any(axis=0) | (below[0] > below[1])
    if theta < edge:  # below the floor a size counts only where no eigenvalue lies within it of 0
        bad |= below[0] != below[1]
    stop = int(np.argmax(bad)) if bad.any() else w
    lo, hi = below[:, :stop].tolist()
    return [Inertia(a, b - a, m + j + 1 - b, theta) for j, (a, b) in enumerate(zip(lo, hi))], delta


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
    gamma that is not positive raise InvalidInput."""

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
        """The blocks of the first k points."""
        c = int(np.searchsorted(self.inside, k))
        return CliqueBlocks(self.flags[:k], self.B[:k - c, :c], self.D[:k - c, :k - c], self.gamma)

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


def _clique_pivot(B: np.ndarray, D: np.ndarray, gamma: float, theta: float):
    """(s_minus, s_zero, s_plus) at theta of A_k, the k = c + r points of a
    ``CliqueBlocks`` with c >= 2 in the clique, from its blocks ``B`` (r x c)
    and ``D`` (r x r); None where roundoff could decide one.

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
    s = B.sum(axis=1)
    H = B @ B.T
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
    its planted clique themselves; a matrix has no clique to pivot on. The
    band is theta = tol_rel * N * max|lambda| of the block of the largest
    size N, with max|lambda| from a ``_perron_bracket``, or from an
    eigensolve of that block when there is none. By Cauchy interlacing it
    bounds the theta of every smaller block, so s_minus and s_plus never
    decrease along the sizes. Each size k is counted in one of four ways:

    - by ``_clique_pivot``, at the band's two edges, from the leading slices
      of the clique's blocks, when c >= 2 of the k points are in the clique
      and the r = k - c others are at most k / 8 (``_PIVOT_SHARE``). A size
      whose edge lies within the pivot's roundoff of an eigenvalue is
      counted by a step or an eigensolve below;
    - by the blocks of a run (``_run_counts``), at the band's two edges, or
      at -+floor where theta is below the certificate's floor, keeping only
      the sizes clear of it, since roundoff eigenvalues of a rank-deficient
      block may sit there. A run is two or more sizes one apart, none offered
      to the pivot, the first one after the empty block or after a counted
      size; every-size trajectories are one run. It is split evenly into
      blocks of at most 32 sizes (``_RUN_SIZES``), each counted from the size
      before it with one LU of that size's order. The first size a block
      refuses is eigensolved, and the run goes on with a block from it; below
      the floor only from a size clear of it, never from a pivot's count, and
      not at all with a floor of 0 (an underflowed max|lambda|);
    - by a certified ``_schur_step`` (Haynsworth additivity) from the anchor
      a, the last size a step certified (0 at first, the empty block), when
      a >= k // 2, since a wider step costs more than an eigensolve of order
      k; or, however wide, when the next size, outside a run, would step
      from k but not from a, so that k, once certified, is the anchor, until
      one such wide step from a fails. A failed step keeps the anchor. A
      certified count is the same for every theta below the bound;
    - by an eigensolve otherwise.

    No step is tried with a floor of 0, nor where an eigenvalue must lie in
    the band: the last counted size j held more in it than k - j, and each
    added row moves at most one out. The chain reads dense leading blocks
    only. From ``CliqueBlocks`` they are written when the chain first needs
    one, at the largest size that does not take the pivot, and again at a
    larger size whose pivot is refused; the chain's inverse is held at the
    largest size below N it counts.
    """
    _check_tol_rel(tol_rel)
    blocks = a if isinstance(a, CliqueBlocks) else None
    dense = as_sym_matrix(a) if blocks is None else None  # the leading blocks the chain reads
    n = len(a) if blocks is not None else len(dense)
    sizes = _integers(sizes, "prefix size").tolist()
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])) or any(k < 1 or k > n for k in sizes):
        raise InvalidInput("sizes must be increasing and within the matrix order")
    if not sizes:
        return []
    N = sizes[-1]
    if blocks is not None:
        blocks = blocks.head(N)
    flags = blocks.flags if blocks is not None else np.zeros(N, dtype=bool)
    inside = np.flatnonzero(flags)
    in_clique = np.searchsorted(inside, sizes).tolist()
    offered = [c >= 2 and _PIVOT_SHARE * (k - c) <= k for k, c in zip(sizes, in_clique)]
    chain_top = max((k for k, o in zip(sizes, offered) if not o), default=0)

    def lead(k):
        nonlocal dense
        if dense is None or len(dense) < k:
            dense = blocks.leading(max(k, chain_top))
        return dense[:k, :k]

    rho, top = _perron_bracket(dense[:N, :N] if blocks is None else blocks), None
    if rho is None:  # not -d^2/2-like, or no closed bracket: the band's eigensolve
        top = _eigenvalues(lead(N))
        rho = (float(np.abs(top).max()),) * 2
    theta, bound = _zero_band(N, tol_rel, *rho)
    floor = _BORDER_FLOOR * rho[1]
    counted = sizes if top is None else sizes[:-1]
    # a run: sizes one apart, the first one after the empty block or a
    # counted size, none offered to the pivot; ahead[i] of them from i on
    chained = [(counted[i - 1] if i else 0) == k - 1 and not o for i, (k, o) in enumerate(zip(counted, offered))]
    ahead = [0] * (len(counted) + 1)
    for i in reversed(range(len(counted))):
        ahead[i] = 1 + ahead[i + 1] if chained[i] else 0
    # the sizes the blocks count: runs of two or more, unless max|lambda| underflowed
    in_run = [floor > 0 and chained[i] and (ahead[i] > 1 or i > 0 and chained[i - 1])
              for i in range(len(counted))] + [False]
    # zeros keep the columns past the anchor finite; a step to N writes nothing
    inv = np.zeros((max((k for k, o in zip(counted, offered) if not o and k < N), default=0),) * 2)
    base = Inertia(0, 0, 0, theta)  # the anchor's counts
    stuck = None  # an anchor a wide step failed from: a retry seldom passes, and costs more than an eigensolve
    out, queue = [], []  # queue: a block's counts of the sizes ahead, then None if it refused one
    opens = True  # whether a block may start from the last counted size
    for i, (k, after, c, pivots) in enumerate(zip(counted, counted[1:] + [None], in_clique, offered)):
        anchor = base.n
        wants_anchor = after is not None and not in_run[i + 1] and anchor < after // 2 <= k and anchor != stuck
        in_band = out and out[-1].s_zero > k - out[-1].n
        steps = floor > 0 and not in_band and (anchor >= k // 2 or wants_anchor)
        if pivots:
            pivot = _clique_pivot(blocks.B[:k - c, :c], blocks.D[:k - c, :k - c], blocks.gamma, theta)
            if pivot is not None:
                out.append(Inertia(*pivot, theta))
                opens = theta >= floor  # it counts at -+theta only
                continue
            if len(inv) < k < N:  # refused: the chain holds this size's inverse too
                inv = np.pad(inv, (0, k - len(inv)))
        ine = None
        if in_run[i] and (queue or opens):
            if not queue:
                w = -(-ahead[i] // -(-ahead[i] // _RUN_SIZES))  # ahead[i] split evenly
                prev = (out[-1].s_minus, out[-1].n - out[-1].s_plus) if out else (0, 0)
                got = _run_counts(lead(k + w - 1), k - 1, theta, prev, floor)[0]
                queue = got + [None] * (len(got) < w)
            ine = queue.pop(0)
        elif steps:
            step = _schur_step(lead(k), inv, anchor, k, bound, base)
            if step is not None:
                base = step[1]
                out.append(base)
                opens = True  # certified: no eigenvalue within the bound, at least the floor, of 0
                continue
            if anchor < k // 2:  # a wide step
                stuck = anchor
        if ine is None:
            vals = _eigenvalues(lead(k))
            ine = _band_counts(vals, theta)
            opens = theta >= floor or np.abs(vals).min() > floor
        else:  # a block keeps a size below the floor only where it is clear of it
            opens = True
        out.append(ine)
    return out if top is None else out + [_band_counts(top, theta)]


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
