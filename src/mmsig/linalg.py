"""Dense symmetric linear algebra: eigendecomposition, inertia, Schur
complements, and the centering transforms everything else builds on.

Matrices are plain square ``numpy`` arrays; ``as_sym_matrix`` is the single
validation gate. Inertia counting uses the eigenvalue spectrum as the source
of truth, with the zero threshold ``theta = tol_rel * n * max|lambda|``;
``prefix_inertias`` counts a family of leading blocks against one threshold,
by certified bordering where it can.
``single_threaded_blas`` is the one place that controls BLAS threading.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidMeasure, NoConvergence, SingularBlock

DEFAULT_TOL_REL = 1e-9

# Reciprocal condition number a pivot block must clear before we trust its
# Schur complement.
SCHUR_RCOND_MIN = 1e-12

# Roundoff slack allowed before declaring an input asymmetric; inputs inside
# the slack are symmetrized exactly.
_SYM_SLACK = 1e-12

_WEIGHT_SUM_TOL = 1e-12

# A bordered prefix step is accepted only when 1/||S_k^{-1}||_F, a lower
# bound on the smallest |eigenvalue| of S_k, exceeds the zero band by this
# factor; the factor absorbs the roundoff of the bordered inverse.
BORDER_SAFETY = 10.0

# The least bound a bordered step is checked against, relative to max|lambda|.
# Bordering pivots without choice: through blocks whose smallest |eigenvalue|
# is near the bound, a pivot carries an error up to about
# eps * max|lambda|^2 / bound, which stays below the bound only while the
# bound exceeds sqrt(eps) * max|lambda|. The default band is wider already.
_BORDER_FLOOR = float(np.sqrt(np.finfo(float).eps))

# The largest gap between requested sizes that is bordered rather than
# eigensolved. One bordering step at order k costs 1/9 (k = 50) to 1/51
# (k = 1600) of an eigvalsh of that order, so eight never cost more than one.
BORDER_MAX_GAP = 8

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


def as_sym_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite square symmetric matrix.

    Asymmetry up to roundoff (1e-12 relative) is symmetrized exactly;
    anything larger raises InvalidInput.
    """
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise InvalidInput(f"{name} must have order >= 1")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} has non-finite entries")
    if not np.array_equal(A, A.T):
        scale = max(float(np.abs(A).max()), 1.0)
        gap = float(np.abs(A - A.T).max())
        if gap > _SYM_SLACK * scale:
            raise InvalidInput(
                f"{name} is not symmetric (max |A - A^T| = {gap:.3e})"
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


def _eigenvalues(a) -> np.ndarray:
    """Eigenvalues-only path of the same LAPACK solver family."""
    A = as_sym_matrix(a)
    try:
        return np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(
            f"eigensolver failed for matrix of order {A.shape[0]}: {exc}"
        ) from exc


@functools.cache
def _openblas_thread_api():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    loaded, found once through ``/proc/self/maps``; None when no OpenBLAS is
    mapped (MKL, Accelerate, no ``/proc``) or it lacks both symbol pairs."""
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
                return get, put
    return None


class _BlasPin:
    """How many ``single_threaded_blas`` bodies are open, and the count saved
    when the first one opened."""

    lock = threading.Lock()
    depth = 0
    saved = 0


@contextlib.contextmanager
def single_threaded_blas():
    """Pin OpenBLAS to one thread for the body; restore the previous count.

    Meant around a pool of threads that each run their own eigensolves, so
    that the pool's workers do not each start OpenBLAS threads of their own.
    The count is process-global: any other BLAS work in the process, on any
    thread, also runs single-threaded until the body ends. Bodies that
    overlap, on one thread or several, pin once and restore once, when the
    last one ends. Does nothing when ``_openblas_thread_api`` finds no
    OpenBLAS.
    """
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    get, put = api
    with _BlasPin.lock:
        if _BlasPin.depth == 0:
            _BlasPin.saved = get()
            put(1)
        _BlasPin.depth += 1
    try:
        yield
    finally:
        with _BlasPin.lock:
            _BlasPin.depth -= 1
            if _BlasPin.depth == 0:
                put(_BlasPin.saved)


def zero_threshold(eigenvalues: np.ndarray, tol_rel: float) -> float:
    """theta = tol_rel * n * max|lambda|; scale-invariant zero cutoff."""
    if len(eigenvalues) == 0:
        return 0.0
    return tol_rel * len(eigenvalues) * float(np.abs(eigenvalues).max())


def _band_counts(vals: np.ndarray, theta: float) -> Inertia:
    s_minus = int(np.sum(vals < -theta))
    s_plus = int(np.sum(vals > theta))
    return Inertia(s_minus, len(vals) - s_minus - s_plus, s_plus, theta)


def inertia(a, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """Inertia triple of a symmetric matrix: its eigenvalues below -theta,
    within +-theta and above theta."""
    if tol_rel < 0:
        raise InvalidInput("tol_rel must be nonnegative")
    vals = _eigenvalues(a)
    return _band_counts(vals, zero_threshold(vals, tol_rel))


def _clear_of(vals: np.ndarray, bound: float) -> bool:
    """Whether 1/||A^{-1}||_F, from A's eigenvalues, exceeds ``bound``."""
    mags = np.abs(vals)
    return bool(mags.min() > bound and 1.0 / np.sqrt(np.sum(mags**-2.0)) > bound)


def _border(A: np.ndarray, inv: np.ndarray, k: int, bound: float) -> int:
    """Extend ``inv[:k, :k]``, the inverse of ``A[:k, :k]``, in place to the
    inverse of ``A[:k+1, :k+1]``.

    Returns the sign of the Schur complement ``c - b^T A_k^{-1} b`` when
    ``1/||A_{k+1}^{-1}||_F > bound``, which proves every eigenvalue of
    ``A[:k+1, :k+1]`` has modulus above ``bound``; otherwise 0, and ``inv``
    no longer holds an inverse.
    """
    b = A[:k, k]
    x = inv[:k, :k] @ b
    s = A[k, k] - b @ x
    if not abs(s) > bound:
        return 0
    inv[:k, :k] += np.outer(x, x / s)
    inv[:k, k] = inv[k, :k] = -x / s
    inv[k, k] = 1.0 / s
    block = inv[: k + 1, : k + 1]
    if not np.sqrt(np.einsum("ij,ij->", block, block)) * bound < 1.0:
        return 0
    return 1 if s > 0 else -1


def prefix_inertias(a, sizes, tol_rel: float = DEFAULT_TOL_REL) -> list:
    """Inertias of the leading blocks ``a[:k, :k]`` for increasing ``sizes``,
    all against one zero band.

    The band is theta = tol_rel * N * max|lambda| of the block of the largest
    size N, from one eigensolve. By Cauchy interlacing it bounds the theta of
    every smaller block, so s_minus and s_plus never decrease along the sizes.
    A size at most ``BORDER_MAX_GAP`` above the last counted block is counted
    from it by bordering the inverse (O(k^2) per order): by Haynsworth inertia
    additivity each order adds the sign of the Schur complement
    ``c - b^T S_k^{-1} b``. A step counts only when
    ``1/||S_{k+1}^{-1}||_F > BORDER_SAFETY * theta``, which proves no
    eigenvalue of the block lies in the band. That bound is never below
    ``_BORDER_FLOOR * max|lambda|``, so a zero or tiny tol_rel certifies no
    sign that roundoff could flip. Any other size is eigensolved; the inverse
    is rebuilt there when the next size is within the gap and the eigenvalues
    show the block that far clear of the band.
    """
    if tol_rel < 0:
        raise InvalidInput("tol_rel must be nonnegative")
    A = as_sym_matrix(a)
    sizes = [int(k) for k in sizes]
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])) or any(
        k < 1 or k > A.shape[0] for k in sizes
    ):
        raise InvalidInput("sizes must be increasing and within the matrix order")
    if not sizes:
        return []
    N = sizes[-1]
    top = _eigenvalues(A[:N, :N])
    theta = zero_threshold(top, tol_rel)
    bound = max(BORDER_SAFETY * theta, _BORDER_FLOOR * float(np.abs(top).max()))
    inv = np.empty((N, N))
    anchor = 0  # inv holds the inverse of A[:anchor, :anchor]; None: of no block
    s_minus = s_plus = 0
    out = []
    for k, after in zip(sizes, sizes[1:] + [None]):
        if anchor is not None and k - anchor <= BORDER_MAX_GAP:
            steps = (_border(A, inv, j, bound) for j in range(anchor, k))
            signs = list(itertools.takewhile(bool, steps))
            if len(signs) == k - anchor:
                s_minus, s_plus = s_minus + signs.count(-1), s_plus + signs.count(1)
                out.append(Inertia(s_minus, 0, s_plus, theta))
                anchor = k
                continue
        vals = top if k == N else _eigenvalues(A[:k, :k])
        out.append(_band_counts(vals, theta))
        anchor = None
        if after is not None and after - k <= BORDER_MAX_GAP and _clear_of(vals, bound):
            s_minus, s_plus = out[-1].s_minus, out[-1].s_plus
            inv[:k, :k] = np.linalg.inv(A[:k, :k])
            anchor = k
    return out


def _normalize_block(block, n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in block)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise InvalidInput(f"block indices out of range for order {n}")
    return idx


def schur_complement(a, block) -> np.ndarray:
    """Schur complement A / A[block, block].

    The block must be well conditioned: its reciprocal condition estimate
    (min|lambda| / max|lambda|) has to reach SCHUR_RCOND_MIN, otherwise
    SingularBlock is raised.
    """
    A = as_sym_matrix(a)
    n = A.shape[0]
    idx = _normalize_block(block, n)
    if idx.size == 0:
        return A.copy()
    if idx.size == n:
        raise InvalidInput("block must leave at least one row outside")
    rest = np.setdiff1d(np.arange(n), idx)
    A11 = A[np.ix_(idx, idx)]
    vals = _eigenvalues(A11)
    vmax = float(np.abs(vals).max())
    rcond = float(np.abs(vals).min()) / vmax if vmax > 0 else 0.0
    if rcond < SCHUR_RCOND_MIN:
        raise SingularBlock(
            f"block of order {idx.size} has rcond {rcond:.3e} < {SCHUR_RCOND_MIN:.0e}"
        )
    A12 = A[np.ix_(idx, rest)]
    A22 = A[np.ix_(rest, rest)]
    out = A22 - A12.T @ np.linalg.solve(A11, A12)
    return 0.5 * (out + out.T)


def haynsworth_check(a, block, tol_rel: float = DEFAULT_TOL_REL) -> bool:
    """Inertia additivity: inertia(A) == inertia(block) + inertia(A/block)."""
    A = as_sym_matrix(a)
    idx = _normalize_block(block, A.shape[0])
    whole = inertia(A, tol_rel).counts()
    part = inertia(A[np.ix_(idx, idx)], tol_rel).counts()
    comp = inertia(schur_complement(A, idx), tol_rel).counts()
    return whole == tuple(p + c for p, c in zip(part, comp))


def double_center(s) -> np.ndarray:
    """Pi S Pi with Pi = Id - 11^T/n; annihilates the all-ones vector."""
    S = as_sym_matrix(s)
    row = S.mean(axis=1)
    out = S - row[:, None] - row[None, :] + row.mean()
    return 0.5 * (out + out.T)


def validate_weights(w, n: int | None = None) -> np.ndarray:
    """Check a probability vector: nonnegative, sums to 1 within 1e-12."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise InvalidMeasure(f"weights must be a vector, got shape {w.shape}")
    if n is not None and w.shape[0] != n:
        raise InvalidMeasure(f"expected {n} weights, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise InvalidMeasure("weights have non-finite entries")
    if (w < 0).any():
        i = int(np.argmin(w))
        raise InvalidMeasure(f"weight {i} is negative ({w[i]!r})")
    total = float(w.sum())
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidMeasure(f"weights sum to {total!r}, not 1")
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
