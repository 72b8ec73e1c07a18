"""Benchmark inputs, built with numpy alone from the workload seed.

Nothing here imports mmsig: if the package's own example builders change,
the inputs and the reference inertia counts stay the same. Files use the
package's formats: a distance CSV is a header row of labels followed by one
row of ``repr`` floats per point, and an edge list is one 0-based ``u v``
pair per line.
"""

from __future__ import annotations

import csv
import os

import numpy as np

# Relative zero band of the CLI's default --tol; the reference counts use the
# same theta = tol * n * max|lambda| rule the program documents.
TOL_REL = 1e-9
BAND = 1e-6


def request_seeds(seed: int, *stream: int):
    """Endless, independent 63-bit request seeds for one workload seed.

    Each request gets its own SeedSequence child, so neighbouring workload
    seeds share no request seeds (consecutive integers would collide under
    the program's per-trial ``seed ^ trial`` derivation). ``stream`` keeps
    workloads and worker processes apart.
    """
    root = np.random.SeedSequence([seed, *stream])
    while True:
        (child,) = root.spawn(1)
        yield int(child.generate_state(1, np.uint64)[0] >> np.uint64(1))


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, *name.encode()]))
    )


def sphere_distances(seed: int, n: int, name: str) -> np.ndarray:
    """Geodesic distances of n uniform points on the unit 2-sphere."""
    pts = _rng(seed, name).normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    D = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    return D


def one_two_distances(seed: int, n: int, name: str) -> np.ndarray:
    """A random {1, 2} metric: each pair at 1 or 2 with probability 1/2."""
    upper = np.triu(_rng(seed, name).random((n, n)) < 0.5, k=1)
    D = np.where(upper | upper.T, 1.0, 2.0)
    np.fill_diagonal(D, 0.0)
    return D


def ring_edges(seed: int, n: int, name: str):
    """Cycle graph on n vertices with seeded vertex labels and line order.

    Returns (edges, D): the edge list and the hop metric in label order,
    from the closed form min(|a - b|, n - |a - b|) on ring positions.
    """
    rng = _rng(seed, name)
    label = rng.permutation(n)  # label[position]
    pos = np.arange(n)
    edges = np.stack([label, label[(pos + 1) % n]], axis=1)
    edges = edges[rng.permutation(n)]
    at = np.empty(n, dtype=int)
    at[label] = pos
    gap = np.abs(at[:, None] - at[None, :])
    return edges, np.minimum(gap, n - gap).astype(float)


def write_distance_csv(D: np.ndarray, path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"p{i}" for i in range(D.shape[0])])
        for row in D:
            writer.writerow([repr(float(x)) for x in row])


def write_edges(edges: np.ndarray, path: str):
    with open(path, "w") as fh:
        fh.writelines(f"{int(u)} {int(v)}\n" for u, v in edges)


def inertia_band(A: np.ndarray) -> dict:
    """Reference inertia of a symmetric matrix at theta = tol * n * max|lambda|.

    An eigenvalue within a relative BAND of +-theta may fall on either side
    in another correct eigensolver, so each count is a (low, high) range.
    """
    return band_of_eigenvalues(np.linalg.eigvalsh(A))


def band_of_eigenvalues(vals: np.ndarray) -> dict:
    theta = TOL_REL * vals.size * float(np.abs(vals).max())
    wide, narrow = theta * (1 + BAND), theta * (1 - BAND)
    return {
        "n": int(vals.size),
        "minus": (int((vals < -wide).sum()), int((vals < -narrow).sum())),
        "plus": (int((vals > wide).sum()), int((vals > narrow).sum())),
    }


def in_band(minus: int, zero: int, plus: int, band: dict) -> bool:
    """True when the counts cover the order and each lies in its range."""
    return (
        minus + zero + plus == band["n"]
        and band["minus"][0] <= minus <= band["minus"][1]
        and band["plus"][0] <= plus <= band["plus"][1]
    )


def centered(S: np.ndarray) -> np.ndarray:
    """Pi S Pi with Pi = Id - 11^T / n."""
    row = S.mean(axis=1)
    return S - row[:, None] - row[None, :] + row.mean()


def tripod_extended(n: int) -> np.ndarray:
    """Legs of length 1 from point 3 to points 0, 1, 2; all else at 2."""
    D = np.full((n, n), 2.0)
    np.fill_diagonal(D, 0.0)
    D[:3, 3] = D[3, :3] = 1.0
    return D


def finite_space_inputs(seed: int, workdir: str) -> dict:
    """Write the finite_spaces input files; return their references.

    For each input (and the named ``tripod_extended`` example of order 600,
    built here independently): its path and the eigvalsh inertia bands of
    S = -D^2/2 and of its centered form, which the analyze, trajectory and
    embed outputs are checked against.
    """
    mats = {
        "sphere400.csv": sphere_distances(seed, 400, "sphere400"),
        "sphere200.csv": sphere_distances(seed, 200, "sphere200"),
        "pm300.csv": one_two_distances(seed, 300, "pm300"),
    }
    for fname, D in mats.items():
        write_distance_csv(D, os.path.join(workdir, fname))
    edges, mats["ring400.edges"] = ring_edges(seed, 400, "ring400")
    write_edges(edges, os.path.join(workdir, "ring400.edges"))
    mats["tripod_extended"] = tripod_extended(600)
    refs = {}
    for fname, D in mats.items():
        S = -0.5 * D**2
        refs[fname] = {
            "path": os.path.join(workdir, fname),
            "S": inertia_band(S),
            "T": inertia_band(centered(S)),
        }
    return refs
