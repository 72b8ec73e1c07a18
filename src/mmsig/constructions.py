"""Builders for spaces with prescribed or extremal signatures, and the
seeded countable random-graph models.

The countable model materializes adjacency lazily: the bit for a pair (i, j)
is a 64-bit mix of (seed, min, max) compared against p * 2^64, so truncations
of any size are prefix-consistent and O(1) in memory. One method,
``CountableRadoModel._edges``, computes that mix. Its {1, 2} distance rule
gives the -d^2/2 matrix: -1/2 on edges, -2 on non-edges, 0 on the diagonal.
``s_matrix_on`` builds it whole; ``clique_blocks`` builds, for a planted
clique, only the blocks with a point outside it (``linalg.CliqueBlocks``),
since the clique's own block is -1/2 off the diagonal.

A planted clique is a frozen rule with a vectorized ``members(idx)``;
``parse_clique_spec`` reads every spelling of one and ``spec()`` writes its
JSON form, so models pickle and round-trip through ``model_to_json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EpsilonUnderflow, InvalidInput, StrictnessViolated
from .linalg import DEFAULT_TOL_REL, CliqueBlocks, _inertia, double_center
from .spaces import (
    FiniteMetricSpace, _distances, _integer, _integers, _min_strict_slack, _pairwise_sq_diffs, _philox, _seed64,
    _sphere_points, from_distance_matrix, from_euclidean_points, s_matrix,
)

_EPS_FLOOR = 1e-300
_HASH_ROWS = 64  # rows of adjacency hashed at a time, a block that stays in cache


# ---------------------------------------------------------------------------
# Signature-prescribing perturbation


def perturb_to_max_negative(
    space: FiniteMetricSpace, seed: int, tol_rel: float = DEFAULT_TOL_REL
) -> FiniteMetricSpace:
    """Shrink squared distances along random directions until the centered
    matrix reaches the most negative signature the space allows.

    Requires the strict triangle inequality, which ``from_distance_matrix``
    does not check, and raises StrictnessViolated with the tightest triple
    otherwise. Uses d_eps^2 = d^2 - eps*|v_i - v_j|^2 with i.i.d. Gaussian
    v_i, halving eps from an analytic start until the perturbed table is a
    strictly triangular metric whose centered matrix keeps s_plus and reaches
    s_minus = N - 1 - s_plus, with max|d - d_eps| bounded by eps itself. On
    output s_plus(T_eps) = s_plus(T) and s_minus(T_eps) = N - 1 - s_plus(T).
    """
    result, _ = _perturb_with_eps(space, seed, tol_rel)
    return result


def _perturb_with_eps(space, seed, tol_rel):
    slack, witness = _min_strict_slack(space.dist)
    if not slack > 0:
        i, j, k = witness
        raise StrictnessViolated(
            f"input must satisfy the strict triangle inequality: d({i},{k}) = "
            f"d({i},{j}) + d({j},{k}) up to slack {slack!r}"
        )
    n = space.n
    S = s_matrix(space)
    vals, ine = _inertia(double_center(S), tol_rel)
    theta, s_plus = ine.tol, ine.s_plus
    target_minus = n - 1 - s_plus
    if s_plus == n - 1:
        return space, 0.0  # already maximal, nothing to perturb
    # T moves by (eps/2) Pi g2 Pi: by Weyl no eigenvalue moves more than its
    # norm, and theta by tol_rel * n times that. The target_minus-th needs
    need = float(vals[target_minus - 1] + theta) / (1.0 + tol_rel * n)  # to pass -theta

    # directions of too low a rank (probability zero) fail the contract below
    g2 = _pairwise_sq_diffs(_philox(seed).normal(size=(n, n)))
    np.fill_diagonal(g2, 0.0)
    # Rescale directions so |d^2 - d_eps^2| <= eps * d_min; then
    # |d - d_eps| <= eps/2-ish, making the eps-bound condition reachable.
    offdiag = ~np.eye(n, dtype=bool)
    d_min = float(space.dist[offdiag].min())
    g2 *= d_min / float(g2.max())

    D2 = -2.0 * S  # d^2 to the bit: scaling by -1/2 and back is exact
    weyl = 0.5 * float(np.linalg.norm(double_center(g2)))  # Frobenius >= 2-norm
    roundoff = n * np.finfo(float).eps * float(np.linalg.norm(D2))  # sqrt/square round trip
    eps = 0.5 * slack / float(g2.max())  # finite: n >= 3 past the early return
    while True:
        move = eps * weyl + roundoff
        if move < need:
            raise EpsilonUnderflow(f"at eps = {eps!r} no eigenvalue moves more than {move!r}, "
                                   f"but the signature contract needs a move of {need!r}")
        if eps < _EPS_FLOOR:
            raise EpsilonUnderflow(
                "halving reached 1e-300 without meeting the signature contract"
            )
        d2 = D2 - eps * g2
        off = d2 + np.eye(n)
        if (off <= 0).any():
            eps *= 0.5
            continue
        D_eps = _distances(d2)
        if float(np.abs(D_eps - space.dist).max()) > eps:
            eps *= 0.5
            continue
        if not _min_strict_slack(D_eps)[0] > 0:
            eps *= 0.5
            continue
        # symmetric, hollow, positive and strictly triangular: skips validation
        out = FiniteMetricSpace(D_eps, space.labels)
        ine = _inertia(double_center(s_matrix(out)), tol_rel)[1]
        if ine.s_plus == s_plus and ine.s_minus == target_minus:
            return out, eps
        eps *= 0.5


def prescribed_signature_space(
    n: int, p: int, seed: int, tol_rel: float = DEFAULT_TOL_REL
) -> FiniteMetricSpace:
    """An (n + p + 1)-point space whose centered matrix has signature
    s_minus = n, s_plus = p.

    Samples the points on the unit sphere of R^p, in general position with
    strict triangles almost surely, and applies the signature-maximizing
    perturbation. A sample in an affine hyperplane, which no perturbation
    gives its p positive eigenvalues, raises InvalidInput.
    """
    n, p = _integer(n, "prescribed signature n"), _integer(p, "prescribed signature p")
    if n < 1 or p < 2:
        raise InvalidInput("prescribed signature needs n >= 1 and p >= 2")
    pts = _sphere_points(p - 1, n + p + 1, seed)
    if np.linalg.matrix_rank(pts - pts.mean(axis=0, keepdims=True)) < p:
        raise InvalidInput("the sampled points lie in an affine hyperplane; try another seed")
    base = from_euclidean_points(pts)
    # ^ 1 keeps the perturbation's random stream, and so every space built before, bit for bit
    return perturb_to_max_negative(base, seed=_seed64(seed) ^ 1, tol_rel=tol_rel)


# ---------------------------------------------------------------------------
# Disjoint unions with constant cross distance


def union_space(components, h: float) -> FiniteMetricSpace:
    """Disjoint union with distance h between points of different components.

    Each component must have diameter at most 2h, which is exactly what the
    triangle inequality needs.
    """
    comps = list(components)
    if not comps:
        raise InvalidInput("union needs at least one component")
    if not 0 < h < np.inf:  # NaN and inf too
        raise InvalidInput(f"cross distance h must be positive and finite, got {h!r}")
    for ci, comp in enumerate(comps):
        if comp.diameter > 2 * h:
            raise InvalidInput(f"component {ci} has diameter {comp.diameter!r} > 2h = {2 * h!r}")
    if len(comps) == 1:
        return comps[0]
    n = sum(c.n for c in comps)
    D = np.full((n, n), float(h))
    labels = []
    at = 0
    for ci, comp in enumerate(comps):
        D[at : at + comp.n, at : at + comp.n] = comp.dist
        labels.extend(f"c{ci}:{lab}" for lab in comp.labels)
        at += comp.n
    np.fill_diagonal(D, 0.0)
    return from_distance_matrix(D, labels=labels)


def union_r_matrix(components, h: float) -> np.ndarray:
    """Block diagnostic (h^2/2) 11^T + S of the union; block-diagonal with one
    block per component."""
    space = union_space(components, h)
    n = space.n
    return (h * h / 2.0) * np.ones((n, n)) + s_matrix(space)


# ---------------------------------------------------------------------------
# Countable random graph models


def _vmix64(x):
    """SplitMix64 finalizer modulo 2^64, in place on a uint64 array."""
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


@dataclass(frozen=True)
class IndexClique:
    """Planted clique on an explicit set of vertex indices."""

    indices: tuple = ()

    def __post_init__(self):
        indices = tuple(np.unique(_integers(self.indices, "clique index")).tolist())
        if indices and indices[0] < 0:
            raise InvalidInput("clique indices must be nonnegative")
        object.__setattr__(self, "indices", indices)

    def members(self, idx) -> np.ndarray:
        return np.isin(_integers(idx, "vertex index"), self.indices)

    def spec(self) -> list:
        return list(self.indices)


@dataclass(frozen=True)
class ResidueClassClique:
    """Clique membership: every index not divisible by ``modulus``.

    With modulus j+1 this splits the clique into j residue classes matching
    the class-biased measure's layout (class 0 is the non-clique part).
    """

    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "modulus", _integer(self.modulus, "clique modulus"))
        if self.modulus < 2:
            raise InvalidInput("modulus must be >= 2")

    def members(self, idx) -> np.ndarray:
        return _integers(idx, "vertex index") % self.modulus != 0

    def spec(self) -> dict:
        return {"rule": "modular", "modulus": self.modulus}


@dataclass(frozen=True)
class QuadraticGapClique:
    """Clique membership with non-clique vertices at 1-based positions
    k^2 + k, so that the first N^2 + N vertices hold N^2 clique members.

    This is the clique-first enumeration along which the positive/negative
    ratio of prefix signatures diverges.
    """

    def members(self, idx) -> np.ndarray:
        # x = idx + 1 <= 2^63 and k (k + 1) for k up to 2^31.5 fit in uint64
        x = _integers(idx, "vertex index").astype(np.uint64) + 1
        # the largest k with k (k + 1) <= x: floor(sqrt(x)) in floating point
        # is k or k + 1 give or take one; correct it
        k = np.floor(np.sqrt(x.astype(float))).astype(np.uint64)
        k -= k * (k + 1) > x
        k += (k + 1) * (k + 2) <= x
        return k * (k + 1) != x

    def spec(self) -> dict:
        return {"rule": "quadratic"}


def parse_clique_spec(spec):
    """A clique rule from a CLI string (``modular:M``, ``quadratic``), the JSON
    form that ``spec()`` writes, or a collection of vertex indices."""
    if spec is None or isinstance(spec, (IndexClique, ResidueClassClique, QuadraticGapClique)):
        return spec
    if isinstance(spec, str):
        name, _, param = spec.partition(":")
        spec = {"rule": name, "modulus": param} if param else {"rule": name}
    if not isinstance(spec, dict):
        return IndexClique(spec)
    name, modulus = spec.get("rule"), spec.get("modulus")
    if name == "quadratic":
        if modulus is not None:
            raise InvalidInput(f"quadratic clique rule takes no modulus, got {modulus!r}")
        return QuadraticGapClique()
    if name != "modular":
        raise InvalidInput(f"unknown clique rule {name!r}")
    if modulus is None:
        raise InvalidInput("modular clique rule needs a modulus")
    return ResidueClassClique(modulus)


@dataclass(frozen=True)
class CountableRadoModel:
    """Seeded infinite Bernoulli adjacency over the natural numbers.

    ``planted_clique`` is None or a clique rule; any spec that
    ``parse_clique_spec`` reads, such as an index collection, is turned into
    one. Planted pairs are always adjacent. Adjacency is symmetric, self-loop
    free, and a pure function of (seed, min(i,j), max(i,j)).
    """

    edge_prob: float
    seed: int
    planted_clique: object = None

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "model seed"))
        object.__setattr__(self, "planted_clique", parse_clique_spec(self.planted_clique))
        if not (0.0 < self.edge_prob < 1.0):
            raise InvalidInput(f"edge probability must be in (0, 1), got {self.edge_prob!r}")

    def _clique_flags(self, indices: np.ndarray) -> np.ndarray:
        if self.planted_clique is None:
            return np.zeros(indices.shape, dtype=bool)
        return self.planted_clique.members(indices)

    def _edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Hashed adjacency of each pair of uint64 vertices ``rows`` x
        ``cols`` (broadcast), the planted clique left out: a pure function of
        (seed, min, max)."""
        key, cut = _vmix64(np.uint64(_seed64(self.seed))), np.uint64(int(self.edge_prob * 2.0**64))
        return _vmix64(_vmix64(np.minimum(rows, cols) ^ key) ^ np.maximum(rows, cols)) < cut

    @staticmethod
    def _vertices(indices) -> np.ndarray:
        idx = _integers(indices, "vertex index")
        if idx.size and idx.min() < 0:
            raise InvalidInput("vertex indices must be nonnegative")
        return idx

    def adjacency_block(self, indices) -> np.ndarray:
        """Boolean adjacency among (possibly repeated) indices; repeated
        indices denote the same vertex, hence non-adjacent to themselves."""
        idx = self._vertices(indices)
        u = idx.astype(np.uint64)
        adj = np.empty((idx.size,) * 2, dtype=bool)
        # the hash depends on (min, max) only: hash each row block from r0 on, mirror it below
        for r0 in range(0, idx.size, _HASH_ROWS):
            adj[r0 : r0 + _HASH_ROWS, r0:] = block = self._edges(u[r0 : r0 + _HASH_ROWS, None], u[None, r0:])
            adj[r0:, r0 : r0 + _HASH_ROWS] = block.T
        flags = self._clique_flags(idx)
        adj |= np.logical_and.outer(flags, flags)
        adj &= idx[:, None] != idx[None, :]
        return adj

    def s_matrix_on(self, indices) -> np.ndarray:
        """-d^2/2 on sampled indices with the {1, 2} distance rule: adjacent
        pairs at 1, distinct non-adjacent at 2, repeated indices at 0. Zeros
        are +0.0, so a 1x1 matrix has the eigenvalue 0.0, not -0.0."""
        idx = self._vertices(indices)
        S = self.adjacency_block(idx) * 1.5
        S -= 2.0  # -1/2 on edges, -2 off, in S's one buffer: np.where is slower
        S[idx[:, None] == idx[None, :]] = 0.0
        return S

    def clique_blocks(self, indices) -> CliqueBlocks:
        """-d^2/2 on distinct vertex indices as ``linalg.CliqueBlocks``, with
        no n x n array: the planted clique's points are pairwise adjacent, at
        distance 1, so gamma = 1/2, and only the n r pairs with an endpoint
        among the r points outside the clique are hashed. The blocks carry
        the indices' clique flags. Repeated indices raise InvalidInput."""
        idx = self._vertices(indices)
        if len(np.unique(idx)) != idx.size:
            raise InvalidInput("clique blocks need distinct vertex indices")
        flags = self._clique_flags(idx)
        inside, outside = idx[flags].astype(np.uint64), idx[~flags].astype(np.uint64)
        B = self._edges(outside[:, None], inside[None, :]) * 1.5 - 2.0
        D = self._edges(outside[:, None], outside[None, :]) * 1.5 - 2.0
        np.fill_diagonal(D, 0.0)
        return CliqueBlocks(flags, B, D, 0.5)

    def metric_on(self, indices) -> FiniteMetricSpace:
        """The {1, 2}-valued metric on distinct vertex indices."""
        idx = self._vertices(indices)
        if len(set(idx.tolist())) != idx.size:
            raise InvalidInput("metric_on needs distinct vertex indices")
        D = 2.0 - self.adjacency_block(idx)  # 1 on edges, 2 off them
        np.fill_diagonal(D, 0.0)
        return from_distance_matrix(D, labels=tuple(f"v{i}" for i in idx))


def model_to_json(model: CountableRadoModel) -> str:
    """``p``, ``seed`` and the planted clique's ``spec()``: a sorted index list
    or a rule such as ``{"rule": "modular", "modulus": 31}``. Every form
    reads back through ``model_from_json`` to an equal model."""
    doc = {"p": model.edge_prob, "seed": model.seed}
    if model.planted_clique is not None:
        doc["planted_clique"] = model.planted_clique.spec()
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> CountableRadoModel:
    doc = json.loads(text)
    return CountableRadoModel(
        edge_prob=float(doc["p"]),
        seed=doc["seed"],
        planted_clique=doc.get("planted_clique"),
    )
