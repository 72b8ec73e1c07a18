"""Dense symmetric linear algebra: eigendecomposition, inertia, and the
centering transforms everything else builds on.

Matrices are plain square ``numpy`` arrays; ``as_sym_matrix`` is the single
validation gate, passed once at each entry point: ``eig_sym``, ``inertia``,
``prefix_inertias``, the centering transforms and
``spectral.esd_and_inertia``. ``_eigenvalues`` takes a matrix that has
passed it, or a leading block of one, and validates nothing. Inertia
counting uses the eigenvalue spectrum as the source of truth, with the zero
threshold ``theta = tol_rel * n * max|lambda|``; ``prefix_inertias`` counts
a family of leading blocks against one threshold, from a Perron bracket of
max|lambda|, by certified Schur blocks where they cost less than an
eigensolve. ``_schur_step`` is the one Schur complement:
it adds a block's counts by Haynsworth additivity and updates the inverse
the next step starts from.
``single_threaded_blas`` is the one place that controls BLAS threading.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, InvalidMeasure, NoConvergence

DEFAULT_TOL_REL = 1e-9

# Roundoff slack allowed before declaring an input asymmetric; inputs inside
# the slack are symmetrized exactly.
_SYM_SLACK = 1e-12

_WEIGHT_SUM_TOL = 1e-12

# A Schur step to a prefix block S_k counts only when 1/||S_k^{-1}||_F, a
# lower bound on the smallest |eigenvalue| of S_k, exceeds the zero band by
# this factor, which absorbs the roundoff of the updated inverse.
BORDER_SAFETY = 10.0

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


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues-only path of the same LAPACK solver family, of a matrix
    that has passed ``as_sym_matrix`` (or is a leading block of one)."""
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


def _zero_band(n: int, tol_rel: float, rho: float, rho_hi: float | None = None) -> tuple:
    """(theta, bound) of a block of order n whose max|lambda| is rho <= rho_hi:
    the zero band theta = tol_rel * n * rho, and the least |eigenvalue| a Schur
    certificate must prove, a safe multiple of theta or of rho_hi."""
    hi = rho if rho_hi is None else rho_hi
    return tol_rel * n * rho, max(BORDER_SAFETY * tol_rel * n * hi, _BORDER_FLOOR * hi)


def _perron_bracket(A: np.ndarray):
    """(Rayleigh quotient, upper bound) of max|lambda| of ``A``, or None.

    For ``A <= 0`` with no zero row, as -d^2/2 on distinct points, max|lambda|
    is the Perron root of -A, which the quotients (-A x)_i / x_i of every x > 0
    bracket (Collatz-Wielandt); so does the Rayleigh quotient, their x_i^2-
    weighted mean. A power iteration from the ones vector closes the bracket.
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
    _check_tol_rel(tol_rel)
    return spectrum_inertia(_eigenvalues(as_sym_matrix(a)), tol_rel)


def _clear_of(vals: np.ndarray, bound: float) -> bool:
    """Whether 1/||A^{-1}||_F, from A's eigenvalues, exceeds ``bound``."""
    mags = np.abs(vals)
    return bool(mags.min() > bound and 1.0 / np.sqrt(np.sum(mags**-2.0)) > bound)


def _schur_step(A: np.ndarray, inv: np.ndarray, a: int, k: int, bound: float):
    """Extend ``inv[:a, :a]``, the inverse of A_a = ``A[:a, :a]``, in place to
    that of A_k through C = A_k / A_a; return C's count of negative eigenvalues
    if ``1/||A_k^{-1}||_F > bound`` proves A_k's eigenvalues all exceed
    ``bound`` in modulus, else None (``inv`` then holds no inverse). A k past
    the order of ``inv`` writes only its leading block."""
    B = A[:a, a:k]
    X = inv[:a, :a] @ B
    C = A[a:k, a:k] - B.T @ X
    if k - a == 1:  # a scalar complement needs no eigensolve
        vals = C[0]
        if not abs(vals[0]) > bound:
            return None
        c_inv = 1.0 / C
        Y = X * c_inv
        inv[:a, :a] += Y * X.T  # numpy's rank-1 matmul is slow
    else:  # C^{-1} is a block of A_k^{-1}, so a C this close to singular fails too
        vals, vecs = eig_sym(0.5 * (C + C.T))
        if not _clear_of(vals, bound):
            return None
        c_inv = (vecs / vals) @ vecs.T
        Y = X @ c_inv
        inv[:a, :a] += Y @ X.T
    if k <= len(inv):
        inv[:a, a:k], inv[a:k, :a], inv[a:k, a:k] = -Y, -Y.T, c_inv
    parts = (inv[:a, :a], Y, Y, c_inv)  # the blocks of A_k^{-1}
    if not np.sqrt(sum(np.einsum("ij,ij->", p, p) for p in parts)) * bound < 1.0:
        return None
    return int(np.count_nonzero(vals < 0))


def prefix_inertias(a, sizes, tol_rel: float = DEFAULT_TOL_REL) -> list:
    """Inertias of the leading blocks ``a[:k, :k]`` for increasing ``sizes``,
    all against one zero band.

    The band is theta = tol_rel * N * max|lambda| of the block of the largest
    size N, with max|lambda| from a ``_perron_bracket``, or from an eigensolve
    of that block when there is none. By Cauchy interlacing it bounds the theta
    of every smaller block, so s_minus and s_plus never decrease along the
    sizes. A size k is counted from the last counted size a by a certified
    ``_schur_step`` (Haynsworth additivity) when a >= k // 2, since a wider
    step costs more than an eigensolve of order k, and from the empty block
    when the next size is a step from k. Other sizes, and those whose step
    fails its certificate, are eigensolved; the steps resume from one whose
    next size is a step and whose eigenvalues clear the certificate's bound.
    A certified count is the same for every theta below the bound.
    """
    _check_tol_rel(tol_rel)
    A = as_sym_matrix(a)
    sizes = [int(k) for k in sizes]
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])) or any(
        k < 1 or k > A.shape[0] for k in sizes
    ):
        raise InvalidInput("sizes must be increasing and within the matrix order")
    if not sizes:
        return []
    N = sizes[-1]
    rho, top = _perron_bracket(A[:N, :N]), None
    if rho is None:  # not -d^2/2-like, or no closed bracket: the band's eigensolve
        top = _eigenvalues(A[:N, :N])
        rho = (float(np.abs(top).max()),) * 2
    theta, bound = _zero_band(N, tol_rel, *rho)
    counted = sizes if top is None else sizes[:-1]
    inv = np.empty((max(sizes[:-1], default=0),) * 2)  # a step to N writes no new rows
    anchor = 0  # inv holds the inverse of A[:anchor, :anchor]; -1: of no block
    s_minus = s_plus = 0
    out = []
    for k, after in zip(counted, counted[1:] + [None]):
        next_steps = after is not None and k >= after // 2
        if anchor >= k // 2 or anchor == 0 and next_steps:
            neg = _schur_step(A, inv, anchor, k, bound)
            if neg is not None:
                s_minus, s_plus = s_minus + neg, s_plus + k - anchor - neg
                out.append(Inertia(s_minus, 0, s_plus, theta))
                anchor = k
                continue
        vals = _eigenvalues(A[:k, :k])
        out.append(_band_counts(vals, theta))
        anchor = -1
        if next_steps and _clear_of(vals, bound):
            s_minus, s_plus = out[-1].s_minus, out[-1].s_plus
            inv[:k, :k] = np.linalg.inv(A[:k, :k])
            anchor = k
    return out if top is None else out + [_band_counts(top, theta)]


def double_center(s) -> np.ndarray:
    """Pi S Pi with Pi = Id - 11^T/n; annihilates the all-ones vector."""
    S = as_sym_matrix(s)
    row = S.mean(axis=1)
    out = S - row[:, None] - row[None, :] + row.mean()
    return 0.5 * (out + out.T)


def validate_weights(w, n: int | None = None) -> np.ndarray:
    """Check a probability vector: numbers, nonnegative, sums to 1 within
    1e-12, and of length ``n`` when ``n`` is given."""
    try:
        w = np.asarray(w, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMeasure(f"weights must be numbers: {exc}") from exc
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
