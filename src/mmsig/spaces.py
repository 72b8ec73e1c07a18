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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput

# Relative slack for the non-strict triangle test, in units of the diameter.
TRIANGLE_TOL_REL = 1e-12

# Points of fewer coordinates build Euclidean distances that cannot fail the
# triangle test (``from_euclidean_points``): 8 (d + 4) eps <= TRIANGLE_TOL_REL.
_EUCLID_SCAN_DIM = 559

# Relative slack before a squared pseudo-Euclidean interval counts as negative.
CONE_TOL_REL = 1e-12

_INT64 = np.iinfo(np.int64)


def _integer(value, what: str) -> int:
    """``value`` as an int where that loses nothing: an int or numpy integer,
    a number with no fractional part, or a decimal string such as "30". A
    bool, a fractional or non-finite number and anything else raise
    InvalidInput naming ``what`` and the value, instead of being truncated."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            number = int(value)
            # a string must spell the integer, a number must equal it
            if isinstance(value, str) or number == value:
                return number
    raise InvalidInput(f"{what} must be an integer, got {value!r}")


def _seed64(seed) -> int:
    """``seed`` read by ``_integer``, mod 2^64: every integer, a negative one
    too, is a seed, and a fraction or a bool raises InvalidInput."""
    return _integer(seed, "seed") % (1 << 64)


def _philox(seed: int) -> np.random.Generator:
    """The package's generator: Philox keyed by ``_seed64(seed)``."""
    return np.random.Generator(np.random.Philox(np.uint64(_seed64(seed))))


def _integers(values, what: str, shape=(-1,)) -> np.ndarray:
    """``values`` (an array or nested sequences) as an int64 array of
    ``shape``, -1 for any length: the one gate for indices callers give. An
    integer array or plain ints are taken whole, other entries by
    ``_integer``; a fraction, a bool or an entry outside int64 raises
    InvalidInput naming ``what``, where a cast would truncate or wrap it."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        values = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=object)
        if not set(map(type, values.flat)) <= {int}:  # a plain int needs no _integer
            values = np.array([_integer(v, what) for v in values.flat], dtype=object).reshape(values.shape)
    if values.size and (values.ndim != len(shape) or values.shape[1:] != shape[1:]):
        raise InvalidInput(f"{what} values must form an array of shape {shape}, got {values.shape}")
    outside = values[(values < _INT64.min) | (values > _INT64.max)]  # uint64 or Python ints
    if outside.size:
        raise InvalidInput(f"{what} {outside[0]} is outside int64")
    return values.astype(np.int64, copy=False).reshape(shape)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``: a validated object shares no memory with
    the caller, whose later writes would otherwise change it."""
    a = np.array(a, order="C")
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
        idx = _integers(indices, "point index")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InvalidInput(f"point indices out of range for a {self.n}-point space")
        return s_matrix(self, idx)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on the vertices 0..n-1. ``edges``, any vertex
    pairs, are held as a sorted, read-only (m, 2) int64 array of distinct
    pairs u < v. Graphs compare by identity."""

    n: int
    edges: np.ndarray = ()

    def __post_init__(self):
        n = _integer(self.n, "vertex count")
        if n < 1:
            raise InvalidInput("graph needs at least one vertex")
        edges = np.sort(_integers(self.edges, "vertex", (-1, 2)), axis=1)  # each pair as u <= v
        bad = np.flatnonzero((edges[:, 0] == edges[:, 1]) | (edges[:, 0] < 0) | (edges[:, 1] >= n))
        if bad.size:  # a self-loop or a vertex outside 0..n-1
            u, v = edges[bad[0]].tolist()
            raise InvalidInput(f"self-loop at vertex {u}" if u == v else f"edge {(u, v)} out of range for n={n}")
        edges = edges[np.lexsort(edges.T[::-1])]  # by u, then v: a repeated pair is adjacent
        fresh = np.diff(edges, axis=0, prepend=-1).any(axis=1)  # the first pair differs from (-1, -1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", _frozen(edges[fresh]))


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
            raise InvalidInput(f"squared interval of pair ({i}, {j}) is {worst!r} < 0")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def intervals(self) -> np.ndarray:
        """``squared_intervals``, computed once for the cone check and later
        readers; no one else holds the array, so it is frozen in place."""
        sq = squared_intervals(self)
        sq.flags.writeable = False
        return sq


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


def s_matrix(space: FiniteMetricSpace, indices=None) -> np.ndarray:
    """-d^2/2: hollow, symmetric, strictly negative off the diagonal. With
    ``indices`` (range-checked by ``s_matrix_on``), -d^2/2 on those points in
    their order, squaring only ``dist[np.ix_(indices, indices)]``."""
    idx = slice(None) if indices is None else np.ix_(indices, indices)
    return -0.5 * space.dist[idx] ** 2


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
    """Raise InvalidInput unless the triangle inequality holds up to
    TRIANGLE_TOL_REL of the diameter.

    One ``_min_strict_slack`` scan decides it: the triples (i, j, i) and
    (i, i, k) have slack 2 d(i,j) and 0, so a violation is a distinct triple.
    """
    min_slack, witness = _min_strict_slack(D)
    if min_slack < -TRIANGLE_TOL_REL * float(D.max()):
        i, j, k = witness
        raise InvalidInput(f"d({i},{k}) exceeds d({i},{j}) + d({j},{k}) by {-min_slack!r}")


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
        raise InvalidInput(f"d({i},{j}) = {float(D[i, j])!r} but d({j},{i}) = {float(D[j, i])!r}")
    if (D < 0).any():
        i, j = np.unravel_index(int(np.argmin(D)), D.shape)
        raise InvalidInput(f"d({i},{j}) = {float(D[i, j])!r} < 0")
    diag = np.diag(D)
    if (diag != 0).any():
        i = int(np.nonzero(diag)[0][0])
        raise InvalidInput(f"d({i},{i}) = {float(diag[i])!r} != 0")
    off = D.copy()
    np.fill_diagonal(off, np.inf)
    if (off == 0).any():
        i, j = np.unravel_index(int(np.argmin(off)), D.shape)
        raise InvalidInput(f"distinct points {i} and {j} are at distance 0")
    # With max <= 2 min off the diagonal, d(i,j) + d(j,k) >= 2 min >= d(i,k)
    # for every triple, in floating point too (doubling is exact and rounding
    # monotone), so only a wider ratio needs the scan.
    if D.max() > 2 * off.min():
        _check_triangle(D)
    return FiniteMetricSpace(D, _labels(labels, D.shape[0]))


def _labels(labels, n: int) -> tuple:
    if labels is None:
        return _default_labels(n)
    if len(labels) != n:
        raise InvalidInput("label count does not match matrix order")
    return tuple(labels)


def _levels(nbr, starts, frontier):
    """Yield, level by level, the bits that a breadth-first search newly sets
    in ``frontier`` (vertices x words, updated in place): bit s of row v is set
    at the level where the search from source s first reaches v. Vertex v has
    the neighbours ``nbr[starts[v]:starts[v + 1]]``, at least one."""
    unseen = ~frontier
    gathered = np.empty((len(nbr), frontier.shape[1]), frontier.dtype)
    pulled = np.empty_like(frontier)
    while True:
        np.take(frontier, nbr, axis=0, out=gathered)
        np.bitwise_or.reduceat(gathered, starts, axis=0, out=pulled)
        np.bitwise_and(pulled, unseen, out=frontier)
        if not frontier.any():
            return
        unseen ^= frontier
        yield frontier


def from_graph(g: Graph) -> FiniteMetricSpace:
    """Hop-count metric of a connected graph by one breadth-first search from
    every source at once, 64 sources to a word (Then et al., PVLDB 8(4),
    2014): about diameter x edges x n/64 word operations, and no more memory
    than D plus O(n^2) bytes. A disconnected graph raises InvalidInput from
    one search from vertex 0 over the vertices that have edges, in O(edges)
    memory, before any array of order n."""
    arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
    to, nbr = arcs[np.argsort(arcs[:, 0])].T  # each edge both ways, by endpoint
    starts = np.flatnonzero(np.diff(to, prepend=-1))
    verts = to[starts]
    nbr = np.searchsorted(verts, nbr)
    seen = (verts == 0)[:, None].astype(np.uint64)
    for new in _levels(nbr, starts, seen.copy()):
        seen |= new
    reached = {0, *verts[seen[:, 0] != 0].tolist()}
    j = next(j for j in itertools.count() if j not in reached)
    if j < g.n:  # (0, j) is the first unreachable pair in row-major order
        raise InvalidInput(f"no path between vertices 0 and {j}")
    # Connected, so verts is range(n), or empty for one vertex. Little-endian
    # words, so that their bytes unpack in source order.
    v = np.arange(len(verts), dtype=np.uint64)
    frontier = np.zeros((v.size, -(-v.size // 64)), np.dtype("<u8"))
    frontier[v, v // 64] = np.uint64(1) << v % 64
    planes = []  # planes[b][v] holds the sources whose hop count to v has bit b
    for level, new in enumerate(_levels(nbr, starts, frontier), start=1):
        if level == 1 << len(planes):
            planes.append(np.zeros_like(new))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= new
    hops = np.zeros((g.n, g.n), np.min_scalar_type((1 << len(planes)) - 1))
    for plane in reversed(planes):
        hops <<= 1
        hops |= np.unpackbits(plane.view(np.uint8), axis=1, count=g.n, bitorder="little")
    # A connected graph's hop metric is a metric by construction: symmetric,
    # hollow, positive off the diagonal, and a shortest-path length obeys the
    # triangle inequality. So it skips validation, the O(n^3) scan included.
    return FiniteMetricSpace(hops, _default_labels(g.n, "v"))


def from_euclidean_points(pts, labels=None) -> FiniteMetricSpace:
    """Metric space of pairwise Euclidean distances.

    The triangle scan runs only where roundoff could fail it. In dimension
    d, each squared distance is a sum of d rounded squares of rounded
    differences: within (3 d / 2 + 2) eps relative while the sum is a normal
    number, that is while every distance exceeds 2^-511. A distance is then
    within (3 d / 4 + 2) eps, and a computed triangle misses the inequality
    by at most (9 d / 4 + 10) eps of the diameter, scan rounding included.
    ``_EUCLID_SCAN_DIM`` keeps that below TRIANGLE_TOL_REL three times over.
    """
    P = np.asarray(pts, dtype=float)
    if P.ndim != 2 or P.shape[0] < 1:
        raise InvalidInput(f"points must be a 2-d array, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise InvalidInput("points have non-finite coordinates")
    D = _distances(_pairwise_sq_diffs(P))
    off = D + np.diag(np.full(D.shape[0], np.inf))
    if (off == 0).any():
        i, j = np.unravel_index(int(np.argmin(off)), D.shape)
        raise InvalidInput(f"points {i} and {j} coincide")
    if P.shape[1] < _EUCLID_SCAN_DIM and off.min() > 2.0**-511 and D.max() < np.inf:
        return FiniteMetricSpace(D, _labels(labels, D.shape[0]))
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
    """n uniform points on S^dim in R^(dim + 1), from one normalized Gaussian
    draw; a zero row (probability zero) raises InvalidInput."""
    pts = _philox(seed).normal(size=(n, dim + 1))
    norms = np.linalg.norm(pts, axis=1)
    if (norms == 0).any():
        raise InvalidInput("a Gaussian draw has a zero row; try another seed")
    return pts / norms[:, None]


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
        raise InvalidInput(f"unknown example {name!r}")
    wanted = set(_EXAMPLE_PARAMS[name])
    missing, extra = sorted(wanted - set(params)), sorted(set(params) - wanted)
    if missing:
        raise InvalidInput(f"{name} requires parameter {missing[0]!r}")
    if extra:
        raise InvalidInput(f"{name} takes no parameter {extra[0]!r}")
    params = {key: _integer(value, f"{name} parameter {key}") for key, value in params.items()}
    if name == "tripod":
        return from_distance_matrix(_tripod_matrix(4))
    if name == "tripod_extended":
        n = params["n"]
        if n < 5:
            raise InvalidInput("tripod_extended needs n >= 5")
        return from_distance_matrix(_tripod_matrix(n))
    if name == "simplex":
        n = params["n"]
        if n < 2:
            raise InvalidInput("simplex needs n >= 2")
        D = np.ones((n, n)) - np.eye(n)
        return from_distance_matrix(D)
    if name in ("sphere", "sphere_sqrt"):
        dim, n, seed = (params[key] for key in ("dim", "n", "seed"))
        if dim < 1 or n < 1:
            raise InvalidInput("sphere needs dim >= 1 and n >= 1")
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


def read_edge_list(path) -> Graph:
    edges = []
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
                if u == v:
                    raise InvalidInput(f"{path}:{lineno}: self-loop at vertex {u}")
                if min(u, v) < 0:
                    raise InvalidInput(f"{path}:{lineno}: negative vertex in edge {(u, v)}")
                if max(u, v) > _INT64.max:
                    raise InvalidInput(f"{path}:{lineno}: vertex {max(u, v)} is outside int64")
                edges.append((u, v))
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    if not edges:
        raise InvalidInput(f"{path}: empty edge list")
    return Graph(max(map(max, edges)) + 1, edges)
