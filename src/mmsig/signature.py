"""Signature computations: inertia of the -d^2/2 matrix
(``spaces.s_matrix``) and of its centered form, limit-signature trajectories
over nested subsets, embeddability classification, and the indefinite
scaling embedding with isometry check.

Sign convention for embeddings: coordinates attached to negative eigenvalues
come first, matching R^(n,p) with the form -sum_1^n + sum_(n+1)^(n+p).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, MonotonicityViolation
from .linalg import (
    DEFAULT_TOL_REL,
    Inertia,
    _inertia,
    double_center,
    prefix_inertias,
)
from .linalg import inertia  # noqa: F401  unused; perfbench's tracer test still checks this binding
from .sampling import DiscreteMeasure, sample_order
from .spaces import (
    FiniteMetricSpace, PseudoEuclideanPointSet, _distances, _integers, _write_csv, s_matrix,
)

STABILIZATION_WINDOW = 25


def space_signature(space: FiniteMetricSpace, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """Inertia of the -d^2/2 matrix; the space's distance signature."""
    return _inertia(s_matrix(space), tol_rel)[1]


def centered_signature(space: FiniteMetricSpace, tol_rel: float = DEFAULT_TOL_REL) -> Inertia:
    """Inertia of Pi S Pi; constants are always in the kernel (s_zero >= 1)."""
    return _inertia(double_center(s_matrix(space)), tol_rel)[1]


@dataclass(frozen=True)
class SignatureTrajectory:
    """Inertia along nested prefixes; s_minus and s_plus never decrease."""

    sizes: tuple
    inertias: tuple
    stabilized: tuple | None

    def rows(self):
        for size, ine in zip(self.sizes, self.inertias):
            yield (size, ine.s_minus, ine.s_zero, ine.s_plus, ine.tol)


def limit_signature_trajectory(
    source,
    order,
    sizes=None,
    tol_rel: float = DEFAULT_TOL_REL,
) -> SignatureTrajectory:
    """Signatures of -d^2/2 on nested prefixes of a point order.

    ``source`` is a FiniteMetricSpace or a ``CountableRadoModel``; its
    ``s_matrix_on`` builds -d^2/2 on the order, and rejects out-of-range
    indices. ``order`` lists distinct point indices; ``sizes`` the
    increasing prefix sizes to evaluate, default every size from 1. Both
    hold integers: a fraction or a bool raises InvalidInput. The arguments
    are checked before the first eigensolve. Every prefix is counted
    against the zero band of the largest one (``linalg.prefix_inertias``),
    so all rows share one theta. A model with a planted clique hands over
    its ``clique_blocks``, which compute the clique flags once, and no
    n x n matrix is built past the sizes the clique pivot does not count.
    A stabilized (s_minus, s_plus) is reported when the last
    ``STABILIZATION_WINDOW`` evaluations agree; a plateau is evidence, never
    a proof, since the true limit may be infinite.
    """
    order = _integers(order, "point index")
    if len(set(order.tolist())) != len(order):
        raise InvalidInput("nesting order must not repeat points")
    sizes = range(1, order.size + 1) if sizes is None else _integers(sizes, "prefix size").tolist()
    if getattr(source, "planted_clique", None) is None:
        inertias = prefix_inertias(source.s_matrix_on(order), sizes, tol_rel)
    else:
        inertias = prefix_inertias(source.clique_blocks(order), sizes, tol_rel)
    for size, prev, ine in zip(sizes[1:], inertias, inertias[1:]):
        if ine.s_minus < prev.s_minus or ine.s_plus < prev.s_plus:
            raise MonotonicityViolation(
                f"signature decreased from {prev.signature} to {ine.signature} "
                f"at prefix size {size}; eigensolver or tolerance bug"
            )
    stabilized = None
    if len(inertias) >= STABILIZATION_WINDOW:
        tail = [i.signature for i in inertias[-STABILIZATION_WINDOW:]]
        if all(t == tail[0] for t in tail):
            stabilized = tail[0]
    return SignatureTrajectory(
        sizes=tuple(sizes),
        inertias=tuple(inertias),
        stabilized=stabilized,
    )


def sampled_signature_trajectory(
    source,
    measure: DiscreteMeasure,
    m_max: int,
    seed: int,
    sizes=None,
    tol_rel: float = DEFAULT_TOL_REL,
) -> SignatureTrajectory:
    """Trajectory along the dedup prefixes of an i.i.d. sample.

    Draws m_max points from the measure and nests the distinct ones in order
    of first appearance (``sampling.sample_order``). ``source`` is a space or
    a countable model, as in ``limit_signature_trajectory``. On a space, once
    the sample covers the support the signature equals the full space's.
    """
    order = sample_order(measure, m_max, seed)
    return limit_signature_trajectory(source, order, sizes=sizes, tol_rel=tol_rel)


def mds_embed(space: FiniteMetricSpace, tol_rel: float = DEFAULT_TOL_REL) -> PseudoEuclideanPointSet:
    """Spectral embedding into R^(n,p) from the centered -d^2/2 matrix.

    Point i gets coordinates sqrt|lambda_k| * u_k(i) over the eigenpairs of
    Pi S Pi with |lambda_k| above the zero threshold, negative eigenvalues
    first. The embedding is an isometry of the space onto its image and the
    image satisfies the cone condition.
    """
    (vals, vecs), ine = _inertia(double_center(s_matrix(space)), tol_rel, vectors=True)
    theta = ine.tol
    neg = np.where(vals < -theta)[0]          # ascending: most negative first
    pos = np.where(vals > theta)[0][::-1]     # largest positive first
    keep = np.concatenate([neg, pos])
    kept = vecs[:, keep]
    coords = kept * np.sqrt(np.abs(vals[keep]))[None, :]
    # deterministic sign: largest-magnitude entry of each eigenvector positive
    lead = np.argmax(np.abs(kept), axis=0)
    flip = kept[lead, np.arange(keep.size)] < 0
    coords[:, flip] = -coords[:, flip]
    return PseudoEuclideanPointSet(
        n_neg=int(neg.size), n_pos=int(pos.size), points=coords
    )


def verify_isometry(embedding: PseudoEuclideanPointSet, space: FiniteMetricSpace) -> float:
    """Largest deviation between embedded intervals and the input distances.
    No tolerance: the point set passed its cone check when it was built."""
    if embedding.n != space.n:
        raise InvalidInput(
            f"embedding has {embedding.n} points, space has {space.n}"
        )
    return float(np.abs(_distances(embedding.intervals) - space.dist).max())


@dataclass(frozen=True)
class EmbeddabilityVerdict:
    """Embedding classification with the centered inertia that justifies it.

    kind is "euclidean" when the centered matrix has no negative eigenvalues
    (for finite spaces, Hilbert and Euclidean embeddability coincide), else
    "pseudo" with the (n_neg, n_pos) target signature.
    """

    kind: str
    n_neg: int
    n_pos: int
    certificate: Inertia

    def describe(self) -> str:
        if self.kind == "euclidean":
            return f"euclidean({self.n_pos})"
        return f"pseudo({self.n_neg}, {self.n_pos})"


def classify_embeddability(
    space: FiniteMetricSpace, tol_rel: float = DEFAULT_TOL_REL
) -> EmbeddabilityVerdict:
    cert = centered_signature(space, tol_rel)
    kind = "euclidean" if cert.s_minus == 0 else "pseudo"
    return EmbeddabilityVerdict(
        kind=kind, n_neg=cert.s_minus, n_pos=cert.s_plus, certificate=cert
    )


# ---------------------------------------------------------------------------
# Serialization


def embedding_to_json(embedding: PseudoEuclideanPointSet, provenance: dict | None = None):
    """Yields ``json.dumps(doc, sort_keys=True, indent=2)`` in pieces, one per
    row of points, so no copy of the whole document is held. The indent
    means the pure-Python encoder, so the rows are encoded by the C one."""
    doc = {"n_neg": embedding.n_neg, "n_pos": embedding.n_pos, "points": None}
    if provenance:
        doc.update(provenance)
    head, _, tail = json.dumps(doc, sort_keys=True, indent=2).partition('\n  "points": null')
    yield head + '\n  "points": '
    row = json.JSONEncoder(separators=(",\n      ", ": ")).encode
    for i, coords in enumerate(embedding.points):
        text = row(coords.tolist())
        text = f"[\n      {text[1:-1]}\n    ]" if len(text) > 2 else text
        yield ("," if i else "[") + "\n    " + text
    yield ("[]" if embedding.n == 0 else "\n  ]") + tail


def write_trajectory_csv(traj: SignatureTrajectory, path, comment: str | None = None):
    """CSV rows (size, s_minus, s_zero, s_plus, theta); to stdout if ``path`` is empty."""
    rows = ([size, sm, s0, sp, repr(theta)] for size, sm, s0, sp, theta in traj.rows())
    _write_csv(path, ["size", "s_minus", "s_zero", "s_plus", "theta"], rows, comment)
