"""Finite metric spaces and their constructors.

A FiniteMetricSpace is a validated distance matrix with labels; everything
else in the package consumes it, mostly through ``s_matrix`` (-d^2/2).
Constructors cover raw matrices, graphs with hop metric, Euclidean and
pseudo-Euclidean point sets, and the named example families (tripod,
extended tripod, simplex, sphere samples).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetryError,
    BadParams,
    ConeViolation,
    Disconnected,
    DuplicatePoints,
    InvalidInput,
    NegativeDistance,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownName,
    ZeroOffDiagonal,
)

# Relative slack for the non-strict triangle test, in units of the diameter.
TRIANGLE_TOL_REL = 1e-12

# Relative slack before a squared pseudo-Euclidean interval counts as negative.
CONE_TOL_REL = 1e-12

_MASK64 = (1 << 64) - 1


def _philox(seed: int) -> np.random.Generator:
    """The package's generator: Philox keyed by ``seed`` mod 2^64, so that
    every integer, a negative one too, is a seed."""
    return np.random.Generator(np.random.Philox(np.uint64(seed & _MASK64)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Validated N-point metric space: symmetric distances, zero diagonal,
    positive off-diagonal, triangle inequality."""

    dist: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dist", _frozen(np.asarray(self.dist, float)))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def s_matrix_on(self, indices) -> np.ndarray:
        """-d^2/2 on the given (possibly repeated) point indices, in their
        order; entry for entry equal to ``s_matrix(self)[np.ix_(idx, idx)]``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InvalidInput(f"point indices out of range for a {self.n}-point space")
        return -0.5 * self.dist[np.ix_(idx, idx)] ** 2

    def subspace(self, indices) -> "FiniteMetricSpace":
        """Restriction to a tuple of distinct point indices (order kept)."""
        idx = np.asarray(list(indices), dtype=int)
        if len(set(idx.tolist())) != len(idx):
            raise InvalidInput("subspace indices must be distinct")
        return FiniteMetricSpace(
            self.dist[np.ix_(idx, idx)], tuple(self.labels[i] for i in idx)
        )


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: n vertices, edges as sorted pairs."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("graph needs at least one vertex")
        norm = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise InvalidInput(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInput(f"edge {(u, v)} out of range for n={self.n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency_lists(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class PseudoEuclideanPointSet:
    """Points in R^(n,p): first n_neg coordinates carry the negative sign of
    the bilinear form. The cone condition (all squared ``intervals``
    nonnegative) is checked at construction."""

    n_neg: int
    n_pos: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if self.n_neg < 0 or self.n_pos < 0:
            raise InvalidInput("signature dimensions must be nonnegative")
        if pts.ndim != 2 or pts.shape[1] != self.n_neg + self.n_pos:
            raise InvalidInput(
                f"points must have {self.n_neg + self.n_pos} coordinates, "
                f"got shape {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise InvalidInput("points have non-finite coordinates")
        object.__setattr__(self, "points", _frozen(pts))
        sq = self.intervals
        scale = float(np.abs(sq).max()) if sq.size else 0.0
        worst = float(sq.min()) if sq.size else 0.0
        if worst < -CONE_TOL_REL * scale:
            i, j = np.unravel_index(int(np.argmin(sq)), sq.shape)
            raise ConeViolation(
                (int(i), int(j)),
                worst,
                f"squared interval of pair ({i}, {j}) is {worst!r} < 0",
            )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def intervals(self) -> np.ndarray:
        """``squared_intervals``, computed once for the cone check and later readers."""
        return _frozen(squared_intervals(self))


def _pairwise_sq_diffs(P: np.ndarray) -> np.ndarray:
    """sum_c (P[i, c] - P[j, c])^2, one row at a time from the diagonal on,
    mirrored into the lower triangle: (a - b)^2 is (b - a)^2 exactly and each
    row sums in the same order, so the result is the full square's to the
    bit. n x n memory, where the n x n x d difference tensor would take d
    times that."""
    out = np.empty((len(P), len(P)))
    for i, row in enumerate(P):
        out[i, i:] = ((row - P[i:]) ** 2).sum(axis=1)
        out[i + 1:, i] = out[i, i + 1:]
    return out


def _distances(sq: np.ndarray) -> np.ndarray:
    """The one path from squared distances or squared intervals to distances:
    the root of the nonnegative part, symmetrized, with a zero diagonal."""
    D = np.sqrt(np.maximum(sq, 0.0))
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def squared_intervals(ps: PseudoEuclideanPointSet) -> np.ndarray:
    """Pairwise squared intervals (z_i - z_j, z_i - z_j)_(n,p)."""
    k = ps.n_neg
    return _pairwise_sq_diffs(ps.points[:, k:]) - _pairwise_sq_diffs(ps.points[:, :k])


def _default_labels(n: int, prefix: str = "p") -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


def s_matrix(space: FiniteMetricSpace) -> np.ndarray:
    """-d^2/2: hollow, symmetric, strictly negative off the diagonal."""
    return -0.5 * space.dist**2


def _min_strict_slack(D: np.ndarray):
    """Smallest d(i,j) + d(j,k) - d(i,k) over distinct triples and its witness
    (i, j, k), i < k, least in (j, i, k) order; (inf, None) below three points.
    Row i takes k > i only (slack is symmetric in i, k): the half min-plus row
    T[k, j] = d(j,k) + d(i,j), +inf where j is k or i. Rounded subtraction is
    monotone, so min_j T[k, j] - d(i,k) is the least slack bit for bit."""
    n = D.shape[0]
    E = D.copy()
    np.fill_diagonal(E, np.inf)
    buf = np.empty((n - 1, n))
    best, witness = np.inf, None
    for i in range(n - 1):
        T = np.add(E[i + 1:], E[i], out=buf[: n - 1 - i])
        c = D[i, i + 1:]
        slack = T[np.arange(n - 1 - i), T.argmin(axis=1)] - c
        low = slack.min()
        if low > best or low == np.inf:  # below three points every slack is inf
            continue
        ties = np.flatnonzero(slack == low)  # other sums may round to this slack
        js = (T[ties] - c[ties, None] == low).argmax(axis=1)
        t = int(js.argmin())
        if low < best or js[t] < witness[1]:
            best, witness = float(low), (i, int(js[t]), i + 1 + int(ties[t]))
    return best, witness


def _check_triangle(D: np.ndarray) -> None:
    """Raise TriangleViolation unless the triangle inequality holds up to
    TRIANGLE_TOL_REL of the diameter.

    One ``_min_strict_slack`` scan decides it: the triples (i, j, i) and
    (i, i, k) have slack 2 d(i,j) and 0, so a violation is a distinct triple.
    """
    min_slack, witness = _min_strict_slack(D)
    if min_slack < -TRIANGLE_TOL_REL * float(D.max()):
        i, j, k = witness
        raise TriangleViolation(
            witness, f"d({i},{k}) exceeds d({i},{j}) + d({j},{k}) by {-min_slack!r}"
        )


def from_distance_matrix(d, labels=None) -> FiniteMetricSpace:
    """Validate a raw distance matrix into a FiniteMetricSpace. The triangle
    inequality must hold up to TRIANGLE_TOL_REL of the diameter; a violation
    reports a witness triple (i, j, k) meaning d(i,k) against d(i,j) + d(j,k)."""
    D = np.asarray(d, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1] or D.shape[0] < 1:
        raise InvalidInput(f"distance matrix must be square, got shape {D.shape}")
    if not np.isfinite(D).all():
        raise InvalidInput("distance matrix has non-finite entries")
    if not np.array_equal(D, D.T):
        i, j = np.unravel_index(int(np.argmax(np.abs(D - D.T))), D.shape)
        raise AsymmetryError(f"d({i},{j}) = {D[i, j]!r} but d({j},{i}) = {D[j, i]!r}")
    if (D < 0).any():
        i, j = np.unravel_index(int(np.argmin(D)), D.shape)
        raise NegativeDistance(f"d({i},{j}) = {D[i, j]!r} < 0")
    diag = np.diag(D)
    if (diag != 0).any():
        i = int(np.nonzero(diag)[0][0])
        raise NonzeroDiagonal(f"d({i},{i}) = {diag[i]!r} != 0")
    off = D.copy()
    np.fill_diagonal(off, np.inf)
    if (off == 0).any():
        i, j = np.unravel_index(int(np.argmin(off)), D.shape)
        raise ZeroOffDiagonal(f"distinct points {i} and {j} are at distance 0")
    # With max <= 2 min off the diagonal, d(i,j) + d(j,k) >= 2 min >= d(i,k)
    # for every triple, in floating point too (doubling is exact and rounding
    # monotone), so only a wider ratio needs the scan.
    if D.max() > 2 * off.min():
        _check_triangle(D)
    if labels is None:
        labels = _default_labels(D.shape[0])
    elif len(labels) != D.shape[0]:
        raise InvalidInput("label count does not match matrix order")
    return FiniteMetricSpace(D, tuple(labels))


def from_graph(g: Graph) -> FiniteMetricSpace:
    """Hop-count (breadth-first) metric of a connected graph; raises
    Disconnected otherwise."""
    adj = g.adjacency_lists()
    n = g.n
    D = np.empty((n, n))
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        nxt.append(v)
            frontier = nxt
        D[src] = dist
    if (D < 0).any():
        i, j = np.unravel_index(int(np.argmin(D)), D.shape)
        raise Disconnected((int(i), int(j)), f"no path between vertices {i} and {j}")
    # A connected graph's hop metric is a metric by construction: symmetric,
    # hollow, positive off the diagonal, and a shortest-path length obeys the
    # triangle inequality. So it skips validation, the O(n^3) scan included.
    return FiniteMetricSpace(D, _default_labels(n, "v"))


def from_euclidean_points(pts, labels=None) -> FiniteMetricSpace:
    """Metric space of pairwise Euclidean distances."""
    P = np.asarray(pts, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise InvalidInput(f"points must be a 2-d array, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise InvalidInput("points have non-finite coordinates")
    D = _distances(_pairwise_sq_diffs(P))
    off = D + np.eye(D.shape[0])
    if (off == 0).any():
        i, j = np.unravel_index(int(np.argmin(off)), D.shape)
        raise DuplicatePoints(f"points {i} and {j} coincide")
    return from_distance_matrix(D, labels=labels)


def from_pseudo_euclidean(ps: PseudoEuclideanPointSet) -> FiniteMetricSpace:
    """Metric space of pairwise pseudo-Euclidean intervals.

    The cone condition makes the intervals real but does not imply the
    triangle inequality, which is validated here and raised on failure.
    """
    return from_distance_matrix(_distances(ps.intervals))


# ---------------------------------------------------------------------------
# Named examples


def _tripod_matrix(n: int) -> np.ndarray:
    # d(i, 3) = 1 for i < 3; every other distinct pair at distance 2.
    D = np.full((n, n), 2.0)
    np.fill_diagonal(D, 0.0)
    for i in range(3):
        D[i, 3] = D[3, i] = 1.0
    return D


def _sphere_points(dim: int, n: int, seed: int) -> np.ndarray:
    rng = _philox(seed)
    for _ in range(100):
        pts = rng.normal(size=(n, dim + 1))
        norms = np.linalg.norm(pts, axis=1)
        if (norms == 0).any():
            continue
        pts /= norms[:, None]
        g = np.clip(pts @ pts.T, -1.0, 1.0)
        off = ~np.eye(n, dtype=bool)
        if n > 1 and (g[off] >= 1.0).any():
            continue  # coincident sample, resample
        return pts
    raise BadParams("could not draw distinct sphere points")


def _sphere_matrix(dim: int, n: int, seed: int) -> np.ndarray:
    """Geodesic distances 2 atan2(|p - q|, |p + q|), exact to roundoff at
    every angle, where the arccos of a Gram entry near +-1 is not."""
    pts = _sphere_points(dim, n, seed)
    norm = np.linalg.norm
    return np.array([2.0 * np.arctan2(norm(p - pts, axis=1), norm(p + pts, axis=1)) for p in pts])


# The parameters each named example takes, all of them required.
_EXAMPLE_PARAMS = {
    "tripod": (),
    "tripod_extended": ("n",),
    "simplex": ("n",),
    "sphere": ("dim", "n", "seed"),
    "sphere_sqrt": ("dim", "n", "seed"),
}


def named_example(name: str, **params) -> FiniteMetricSpace:
    """Build one of the named example spaces.

    tripod                   4 points, three legs of length 1, tips at 2
    tripod_extended(n>=5)    tripod plus points at distance 2 from everything
    simplex(n>=2)            all off-diagonal distances 1
    sphere(dim, n, seed)     geodesic distances of uniform points on S^dim
    sphere_sqrt(dim, n, seed)  square root of the geodesic distance
    """
    if name not in _EXAMPLE_PARAMS:
        raise UnknownName(f"unknown example {name!r}")
    wanted = set(_EXAMPLE_PARAMS[name])
    missing, extra = sorted(wanted - set(params)), sorted(set(params) - wanted)
    if missing:
        raise BadParams(f"{name} requires parameter {missing[0]!r}")
    if extra:
        raise BadParams(f"{name} takes no parameter {extra[0]!r}")
    if name == "tripod":
        return from_distance_matrix(_tripod_matrix(4))
    if name == "tripod_extended":
        n = int(params["n"])
        if n < 5:
            raise BadParams("tripod_extended needs n >= 5")
        return from_distance_matrix(_tripod_matrix(n))
    if name == "simplex":
        n = int(params["n"])
        if n < 2:
            raise BadParams("simplex needs n >= 2")
        D = np.ones((n, n)) - np.eye(n)
        return from_distance_matrix(D)
    if name in ("sphere", "sphere_sqrt"):
        dim, n, seed = (int(params[key]) for key in ("dim", "n", "seed"))
        if dim < 1 or n < 1:
            raise BadParams("sphere needs dim >= 1 and n >= 1")
        D = _sphere_matrix(dim, n, seed)
        if name == "sphere_sqrt":
            D = np.sqrt(D)
        return from_distance_matrix(D)


# ---------------------------------------------------------------------------
# File formats: distance-matrix CSV and edge-list text


def _write_csv(path, header, rows, comment: str | None = None):
    """The one CSV writer: a ``# comment`` line if given, the header, then the
    rows. To the file at ``path`` with csv's CRLF row ends, or to stdout with
    plain newlines when ``path`` is empty. Floats come in as ``repr`` strings,
    so they read back exactly."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\r\n" if path else "\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_distance_csv(space: FiniteMetricSpace, path, comment: str | None = None):
    """Header row of labels, then n rows of n floats (round-trip exact)."""
    rows = ([repr(float(x)) for x in row] for row in space.dist)
    _write_csv(path, space.labels, rows, comment)


def _is_kept(row) -> bool:
    """Whether a ``csv.reader`` row of a distance CSV is data: not blank, and
    its first field does not start with ``#``."""
    return bool(row) and not row[0].lstrip().startswith("#")


class _NotPlain(Exception):
    """A body line that only the ``csv.reader`` path may read."""


# The characters of a plain line: printable ASCII but the quote.
_PLAIN_CHARS = bytes(range(0x20, 0x7F)).replace(b'"', b"")


def _plain_lines(fh):
    """The kept lines of ``fh`` without their line ends, as ``csv.reader``
    would split them: blank and ``#`` lines dropped. Raise _NotPlain at the
    first line that is not plain: a bare CR line end, a character outside
    printable ASCII, a quote, only spaces (``csv`` keeps that as a row), or
    more characters than ``csv`` takes in one field."""
    limit = csv.field_size_limit()
    for line in fh:
        text = line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")
        if not text:
            continue
        if (not text.isascii() or text.encode().translate(None, _PLAIN_CHARS)
                or text.isspace() or len(text) > limit):
            raise _NotPlain
        if not text.lstrip().startswith("#"):
            yield text


def _read_plain_csv(path):
    """(labels, D) by numpy's C parser, or None where the ``csv.reader`` path
    must decide: a body that is not plain, a header with no rows, or a body
    that ``np.loadtxt`` refuses or reads in a shape other than n x n."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(filter(_is_kept, reader), None)
        if header is None:
            return None
        lines = _plain_lines(fh)  # the file past the header
        try:
            first = next(lines, None)
            if first is None:  # loadtxt would warn "input contained no data"
                return None
            D = np.loadtxt(
                itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2
            )
        except (_NotPlain, ValueError):
            return None
    labels = tuple(s.strip() for s in header)
    return (labels, D) if D.shape == (len(labels),) * 2 else None


def _read_any_csv(path):
    """(labels, D) by ``csv.reader`` and ``float()``, or InvalidInput naming
    the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)  # line_num: the file line a row ends on
        kept = [(reader.line_num, r) for r in reader if _is_kept(r)]
    if not kept:
        raise InvalidInput(f"{path}: empty distance CSV")
    lines, rows = zip(*kept)
    labels, data = tuple(s.strip() for s in rows[0]), rows[1:]
    try:  # numpy parses each field as Python's float() does
        D = np.array(data, dtype=float).reshape(len(data), len(labels))
    except ValueError:  # a ragged row or a bad field: name the first one
        for lineno, row in zip(lines[1:], data):
            if len(row) != len(labels):
                raise InvalidInput(
                    f"{path}:{lineno}: expected {len(labels)} columns, got {len(row)}"
                ) from None
            try:
                [float(x) for x in row]
            except ValueError as exc:
                raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
        raise
    if len(data) != len(labels):
        raise InvalidInput(
            f"{path}: header has {len(labels)} labels but {len(data)} rows follow"
        )
    return labels, D


def read_distance_csv(path) -> FiniteMetricSpace:
    """The space of a distance CSV: a header row of labels, then n rows of n
    floats; blank lines and lines whose first field starts with ``#`` are
    skipped.

    A plain body (printable ASCII with no quote, ``\\n`` or ``\\r\\n`` line
    ends, no line of spaces only), as ``write_distance_csv`` writes it, is
    parsed by ``np.loadtxt``, numpy's C tokenizer, whose correctly rounded
    parser gives the doubles ``float()`` gives. Every other file, and one
    that ``loadtxt`` refuses or reads in another shape, is read by
    ``csv.reader`` and ``float()``, the only source of error messages. So
    both paths give the same values and the same errors. A file that is not
    UTF-8 or that ``csv`` cannot split raises InvalidInput too.
    """
    try:
        labels, D = _read_plain_csv(path) or _read_any_csv(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    return from_distance_matrix(D, labels=labels)


def write_edge_list(graph: Graph, path):
    """One 'u v' pair per line, 0-based."""
    with open(path, "w") as fh:
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    edges = set()
    hi = -1
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise InvalidInput(f"{path}:{lineno}: expected 'u v', got {line!r}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError as exc:
                    raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
                edges.add((min(u, v), max(u, v)))
                hi = max(hi, u, v)
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if hi < 0:
        raise InvalidInput(f"{path}: empty edge list")
    return Graph(hi + 1, frozenset(edges))
