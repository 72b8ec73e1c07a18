"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: eigenvalues via the
characteristic polynomial, triangle checks via triple loops, Gram matrices
straight from coordinates, random-graph adjacency one pair at a time in
Python integers. Others are plain, slower forms of a vectorized library
routine, which must match them exactly. ``exact_below`` counts eigenvalues
in exact integer arithmetic, with no rounding at all, and
``exact_prefix_below`` those of every leading block.
"""

import json
import math

import numpy as np

from mmsig.linalg import CliqueBlocks
from mmsig.spaces import _philox


def charpoly_eigenvalues(A):
    """Eigenvalues through numpy.roots on the characteristic polynomial.

    Independent of the symmetric eigensolver; adequate for small matrices.
    """
    coeffs = np.poly(np.asarray(A, dtype=float))
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def count_inertia(vals, theta):
    vals = np.asarray(vals, dtype=float)
    return (
        int(np.sum(vals < -theta)),
        int(np.sum(np.abs(vals) <= theta)),
        int(np.sum(vals > theta)),
    )


def brute_triangle_ok(D, tol=0.0, strict=False):
    """Triple-loop triangle check."""
    n = D.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if strict:
                    if len({i, j, k}) == 3 and D[i, k] >= D[i, j] + D[j, k]:
                        return False
                elif D[i, k] > D[i, j] + D[j, k] + tol:
                    return False
    return True


MASK64 = (1 << 64) - 1


def mix64(x):
    """SplitMix64 finalizer on one Python integer."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def rado_adjacent(model, i, j):
    """Scalar adjacency of vertices i and j in a ``CountableRadoModel``.

    The bit is the hash of (seed, min, max) against p * 2^64; planted pairs
    are adjacent, and a vertex is not adjacent to itself.
    """
    i, j = int(i), int(j)
    if i == j:
        return False
    if clique_member(model.planted_clique, i) and clique_member(model.planted_clique, j):
        return True
    lo, hi = min(i, j), max(i, j)
    return mix64(mix64(mix64(model.seed) ^ lo) ^ hi) < int(model.edge_prob * 2.0**64)


def clique_member(clique, i):
    """Whether vertex i is in a planted clique (None: no clique), by one
    scalar rule per kind of its ``spec()``: an index list holds i; a modular
    rule holds the i not divisible by its modulus; the quadratic rule holds
    the i whose 1-based position i + 1 is not k^2 + k."""
    if clique is None:
        return False
    spec, i = clique.spec(), int(i)
    if isinstance(spec, list):
        return i in spec
    if spec["rule"] == "modular":
        return i % int(spec["modulus"]) != 0
    x = i + 1
    k = (math.isqrt(4 * x + 1) - 1) // 2  # the largest k with k^2 + k <= x
    return k * k + k != x


def vmix64(x):
    """SplitMix64 finalizer on a uint64 array or scalar, modulo 2^64, into a
    new array."""
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def full_square_adjacency(model, indices):
    """``CountableRadoModel.adjacency_block`` with every ordered pair hashed,
    over whole n x n outer products, as the model built it before its
    row-blocked kernel."""
    idx = np.asarray(indices, dtype=np.int64)
    u = idx.astype(np.uint64)
    h = vmix64(np.minimum.outer(u, u) ^ vmix64(np.uint64(model.seed & MASK64)))
    h ^= np.maximum.outer(u, u)
    adj = vmix64(h) < np.uint64(int(model.edge_prob * 2.0**64))
    flags = np.array([clique_member(model.planted_clique, i) for i in idx.tolist()], dtype=bool)
    adj |= np.logical_and.outer(flags, flags)
    adj &= idx[:, None] != idx[None, :]
    return adj


def full_square_s_matrix(model, indices):
    """``CountableRadoModel.s_matrix_on`` from ``full_square_adjacency``."""
    idx = np.asarray(indices, dtype=np.int64)
    adj = full_square_adjacency(model, idx)
    distinct = idx[:, None] != idx[None, :]
    return np.where(adj, -0.5, np.where(distinct, -2.0, 0.0))


def centered_gram(points):
    """Gram matrix of mean-centered coordinates."""
    P = np.asarray(points, dtype=float)
    C = P - P.mean(axis=0, keepdims=True)
    return C @ C.T


def random_metric_matrix(rng, n):
    """Hollow symmetric with entries in [1, 2]; always a metric."""
    M = rng.uniform(1.0, 2.0, size=(n, n))
    D = 0.5 * (M + M.T)
    np.fill_diagonal(D, 0.0)
    return D


def random_symmetric(rng, n, scale=1.0):
    M = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (M + M.T)


def random_cospherical_points(rng, n, p):
    """n points in general position on a random sphere in R^p (n >= p + 1).

    Cospherical sets have squared-distance matrices of rank p + 1, hence
    inertia(S) = (1, n - 1 - p, p); ambient-generic sets would give p + 2.
    """
    assert n >= p + 1
    while True:
        u = rng.normal(size=(n, p))
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        if (norms == 0).any():
            continue
        u /= norms
        center = rng.normal(size=p)
        radius = rng.uniform(0.5, 3.0)
        pts = center + radius * u
        centered = pts - pts.mean(axis=0, keepdims=True)
        if np.linalg.matrix_rank(centered) == p:
            return pts


def unit_square_corners():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def b_matrix(n):
    """Squared-distance matrix of the extended tripod on n >= 4 points."""
    B = np.full((n, n), 4.0)
    np.fill_diagonal(B, 0.0)
    B[:4, :4] = np.array(
        [[0, 4, 4, 1], [4, 0, 4, 1], [4, 4, 0, 1], [1, 1, 1, 0]], dtype=float
    )
    return B


def prefix_counts_by_eigvalsh(S, sizes, tol_rel=1e-9):
    """(s_minus, s_zero, s_plus) of each leading block S[:k, :k], one
    eigvalsh per block, all against the zero band of the largest block."""
    top = np.linalg.eigvalsh(S[: sizes[-1], : sizes[-1]])
    theta = tol_rel * sizes[-1] * float(np.abs(top).max())
    return [count_inertia(np.linalg.eigvalsh(S[:k, :k]), theta) for k in sizes]


def clique_blocks_of(S, flags):
    """``linalg.CliqueBlocks`` sliced from a dense matrix ``S`` and a boolean
    clique mask: B = S[outside, inside], D = S[outside, outside] and gamma =
    -S[i0, i1] of the first two clique points. The clique block must be
    -gamma (J - I) itself; with fewer than two clique points it has no
    off-diagonal entry, and gamma is 1, which nothing reads."""
    inside, outside = np.flatnonzero(flags), np.flatnonzero(~flags)
    gamma = -float(S[inside[0], inside[1]]) if len(inside) >= 2 else 1.0
    assert gamma > 0 and np.array_equal(S[np.ix_(inside, inside)], -gamma * (1.0 - np.eye(len(inside))))
    return CliqueBlocks(flags, S[np.ix_(outside, inside)], S[np.ix_(outside, outside)], gamma)


def _sylvester_steps(A, sigma):
    """The elimination of ``exact_below``: after each pivot, (the order
    eliminated so far, the eigenvalues of A below sigma counted so far,
    whether every pivot so far was a 1 x 1 pivot in place)."""
    A = np.asarray(A, dtype=float)
    n = len(A)
    ratios = [x.as_integer_ratio() for x in A.ravel().tolist()] + [float(sigma).as_integer_ratio()]
    scale = max(den for _, den in ratios)  # each denominator is a power of two
    M = np.array([num * (scale // den) for num, den in ratios[:-1]], dtype=object).reshape(n, n)
    num, den = ratios[-1]
    M[np.arange(n), np.arange(n)] -= num * (scale // den)
    below, prev, k, in_place = 0, 1, 0, True  # prev: the last pivot minor, d_0 = 1
    while k < n:  # M stays symmetric; only the upper triangle of rows k on is kept
        nonzero = [i for i in range(k, n) if M[i, i]]
        if nonzero:
            pivot = nonzero[:1]
        else:
            off = np.argwhere(np.triu(M[k:, k:] != 0, 1))
            if not len(off):
                break
            pivot = [k + int(i) for i in off[0]]
        in_place = in_place and pivot == [k]
        if pivot != list(range(k, k + len(pivot))):  # a symmetric permutation
            lower = np.tril_indices(n, -1)
            M[lower] = M.T[lower]
            order = list(range(n))
            for pos, i in enumerate(pivot, start=k):
                j = order.index(i)
                order[pos], order[j] = order[j], order[pos]
            M = M[np.ix_(order, order)]
        if len(pivot) == 1:  # M_ij <- (d_k+1 M_ij - M_ik M_kj) / d_k
            p, row = M[k, k], M[k, k + 1:]
            for t, i in enumerate(range(k + 1, n)):
                M[i, i:] = (p * M[i, i:] - row[t] * row[t:]) // prev
            below += (p > 0) != (prev > 0)
            prev, k = p, k + 1
            yield k, below, in_place
        else:  # Sylvester's identity over two rows: M_ij <- det of rows k, k+1, i / d_k^2
            b, row0, row1 = M[k, k + 1], M[k, k + 2:], M[k + 1, k + 2:]
            for t, i in enumerate(range(k + 2, n)):
                M[i, i:] = (b * (row1[t] * row0[t:] + row0[t] * row1[t:]) - b * b * M[i, i:]) // (prev * prev)
            below += 1
            prev, k = -b * b // prev, k + 2
            yield k, below, in_place


def exact_below(A, sigma):
    """The number of eigenvalues of the symmetric float matrix ``A`` below the
    float ``sigma``, in exact arithmetic.

    Every float is a dyadic rational, so one power of two scales A - sigma I
    to Python integers. Fraction-free (Bareiss) elimination then makes each
    pivot a leading principal minor d_k of a symmetric permutation of that
    matrix, and by Sylvester's law the sign changes along 1, d_1, ..., d_n
    count its negative eigenvalues. A zero pivot is swapped for a nonzero
    diagonal entry further on; where every remaining diagonal entry is 0, a
    nonzero entry b off it makes a 2 x 2 pivot [[0, b], [b, 0]], of
    determinant -b^2 < 0, which holds one negative eigenvalue. Where the
    whole remainder is 0, its eigenvalues are 0, not below sigma."""
    below = 0
    for _, below, _ in _sylvester_steps(A, sigma):
        pass
    return below


def exact_prefix_below(A, sigma):
    """``[exact_below(A[:k, :k], sigma) for k in 1, ..., n]``, from one
    elimination as far as its pivots stay 1 x 1 and in place: the pivots are
    then the leading minors of A - sigma I, so the count after k of them is
    the k-th prefix's. Each prefix past that is eliminated alone."""
    counts = []
    for k, below, in_place in _sylvester_steps(A, sigma):
        if not in_place:
            break
        counts.append(below)
    return counts + [exact_below(A[:k, :k], sigma) for k in range(len(counts) + 1, len(A) + 1)]


def exact_counts(A, theta):
    """(s_minus, s_zero, s_plus) of ``A`` against the band |lambda| <= theta,
    from ``exact_below`` at -theta for A and for -A."""
    lo, hi = exact_below(A, -theta), exact_below(-np.asarray(A, dtype=float), -theta)
    return lo, len(A) - lo - hi, hi


def pairwise_sq_diffs_by_rows(points):
    """sum_c (P[i, c] - P[j, c])^2 with every row of the n x n square
    computed against all of P, as ``spaces._pairwise_sq_diffs`` did before
    it filled one triangle."""
    P = np.asarray(points, dtype=float)
    out = np.empty((len(P), len(P)))
    for i, row in enumerate(P):
        out[i] = ((row - P) ** 2).sum(axis=1)
    return out


def tensor_squared_intervals(points, n_neg):
    """Squared pseudo-Euclidean intervals straight from the n x n x d
    difference tensor, positive axes minus the first ``n_neg`` axes."""
    P = np.asarray(points, dtype=float)
    diff = P[:, None, :] - P[None, :, :]
    return (diff[:, :, n_neg:] ** 2).sum(axis=2) - (diff[:, :, :n_neg] ** 2).sum(axis=2)


def min_strict_slack_by_sweep(D):
    """Smallest d(i,j) + d(j,k) - d(i,k) over distinct triples and its
    witness (i, j, k), by a full n x n slack table for each middle point j,
    ascending; the first minimum wins. (inf, None) below three points."""
    best, witness = np.inf, None
    for j in range(D.shape[0]):
        slack = D[:, j][:, None] + D[j, :][None, :] - D
        slack[j, :] = np.inf
        slack[:, j] = np.inf
        np.fill_diagonal(slack, np.inf)
        i, k = np.unravel_index(int(np.argmin(slack)), slack.shape)
        if slack[i, k] < best:
            best, witness = float(slack[i, k]), (int(i), j, int(k))
    return best, witness


def hop_distances_by_bfs(graph):
    """Breadth-first hop counts from every vertex, written into an n x n
    float array entry by entry; -1 marks an unreachable pair."""
    adj = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    D = np.full((graph.n, graph.n), -1.0)
    for src in range(graph.n):
        D[src, src] = 0.0
        frontier, level = [src], 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if D[src, v] < 0:
                        D[src, v] = level
                        nxt.append(v)
            frontier = nxt
    return D


def first_appearances_by_unique(raw):
    """``(dedup, first_draws)`` of a whole sample by ``np.unique``: the
    distinct points in order of first appearance and their first positions."""
    raw = np.asarray(raw, dtype=np.int64)
    first = np.sort(np.unique(raw, return_index=True)[1])
    return raw[first], first


def raw_draws(measure, m, seed):
    """The m i.i.d. draws of a sample whole: one ``random`` call of the
    package's Philox stream, searched in the measure's cumulative weights."""
    return np.searchsorted(measure.cumulative(), _philox(seed).random(m), side="right")


def embedding_json_by_indent(embedding, provenance=None):
    """The embedding document through json's indenting encoder."""
    doc = {
        "n_neg": embedding.n_neg,
        "n_pos": embedding.n_pos,
        "points": [[float(x) for x in row] for row in embedding.points],
    }
    if provenance:
        doc.update(provenance)
    return json.dumps(doc, sort_keys=True, indent=2)


def circle_operator_eigenvalues(count):
    """The ``count`` largest-|lambda| eigenvalues, in that order, of the
    integral operator with kernel -theta^2/2 (theta the arc length) on the
    circle with the uniform probability measure: -pi^2/6 on the constants,
    then (-1)^(k+1)/k^2 on cos(k t) and sin(k t), twice each."""
    vals = [-np.pi**2 / 6]
    k = 1
    while len(vals) < count:
        vals += [(-1) ** (k + 1) / k**2] * 2
        k += 1
    return np.array(vals[:count])


def sphere2_operator_eigenvalues(degree_max):
    """Funk-Hecke eigenvalues lambda_l = 1/2 int_{-1}^{1} -arccos(t)^2/2
    P_l(t) dt, l = 0..degree_max, of the kernel -theta^2/2 on S^2 with the
    uniform probability measure; lambda_l has multiplicity 2l + 1."""
    t, w = np.polynomial.legendre.leggauss(400)
    kernel = -0.5 * np.arccos(t) ** 2
    return np.array([
        0.5 * np.sum(w * kernel * np.polynomial.legendre.Legendre.basis(l)(t))
        for l in range(degree_max + 1)
    ])
