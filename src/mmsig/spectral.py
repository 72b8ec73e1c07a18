"""Random-matrix statistics: empirical spectral distributions, the
semicircle comparison, and the positive/negative ratio experiments.

Statistical acceptance thresholds are desk-scale surrogates for the
asymptotic statements they operationalize; every stochastic experiment is
seeded, and trials derive their seeds with ``sampling.trial_seed``. The
checkpoints of one ratio trial are nested prefixes of one sample, counted
by ``signature.limit_signature_trajectory`` against one zero band.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constructions import CountableRadoModel
from .errors import InvalidInput
from .linalg import DEFAULT_TOL_REL, Inertia, _inertia, pinned_map
from .linalg import _eigenvalues, spectrum_inertia  # noqa: F401  unused; perfbench's tracer tests check them
from .sampling import DiscreteMeasure, _draws, _first_appearances, trial_seed
from .signature import limit_signature_trajectory
from .spaces import _write_csv


class ESD(NamedTuple):
    """Empirical spectral distribution: eigenvalues of A / sqrt(n), sorted."""

    n: int
    values: np.ndarray


def esd_and_inertia(a, tol_rel: float = DEFAULT_TOL_REL) -> tuple:
    """(ESD, inertia) from one eigensolve; the inertia counts the raw eigenvalues."""
    return _esd_and_inertia(a, tol_rel)


def _esd_and_inertia(a, tol_rel: float, overwrite: bool = False) -> tuple:
    """``esd_and_inertia``; ``overwrite`` as in ``_eigenvalues``."""
    vals, ine = _inertia(a, tol_rel, overwrite, esd=True)
    return ESD(len(vals), vals), ine


def semicircle_cdf(sigma: float, x) -> float | np.ndarray:
    """Closed-form CDF of the semicircle density with scale sigma.

    0 below -2 sigma, 1 above 2 sigma, and
    1/2 + x sqrt(4 sigma^2 - x^2) / (4 pi sigma^2) + arcsin(x / 2 sigma) / pi
    in between.
    """
    if not 0 < sigma < np.inf:  # NaN and inf too
        raise InvalidInput(f"sigma must be positive and finite, got {sigma!r}")
    x = np.asarray(x, dtype=float)
    t = np.clip(x, -2.0 * sigma, 2.0 * sigma)
    out = (
        0.5
        + t * np.sqrt(np.maximum(4.0 * sigma**2 - t**2, 0.0)) / (4.0 * np.pi * sigma**2)
        + np.arcsin(t / (2.0 * sigma)) / np.pi
    )
    return float(out) if out.ndim == 0 else out


def ks_to_semicircle(e: ESD, sigma: float) -> float:
    """Sup distance between the ESD's empirical CDF and the semicircle CDF.

    For the {1, 2}-rule random matrices use sigma = (3/2) sqrt(p (1 - p)),
    the off-diagonal standard deviation.
    """
    v = np.sort(np.asarray(e.values, dtype=float))
    n = v.size
    if n == 0:
        raise InvalidInput("empty spectrum")
    F = semicircle_cdf(sigma, v)
    i = np.arange(n)
    lower = np.abs(F - i / n)
    upper = np.abs(F - (i + 1) / n)
    return float(max(lower.max(), upper.max()))


def delta_ratio(ine: Inertia) -> float:
    """s_plus / s_minus; +inf when only positives exist, 1 when neither does."""
    if ine.s_minus == 0:
        return math.inf if ine.s_plus > 0 else 1.0
    return ine.s_plus / ine.s_minus


def default_checkpoints(m_max: int) -> tuple:
    """Geometric checkpoint schedule 16, 32, 64, ..., capped at m_max."""
    if m_max < 1:
        raise InvalidInput("m_max must be >= 1")
    pts = []
    m = 16
    while m < m_max:
        pts.append(m)
        m *= 2
    pts.append(m_max)
    return tuple(pts)


@dataclass(frozen=True)
class RatioTrajectory:
    """Positive/negative ratio along the checkpoints of one sampled trial."""

    seed: int
    m_values: tuple
    dedup_sizes: tuple
    inertias: tuple

    @property
    def deltas(self) -> tuple:
        return tuple(delta_ratio(ine) for ine in self.inertias)

    @property
    def final_delta(self) -> float:
        return self.deltas[-1]

    def max_delta(self) -> float:
        return max(self.deltas)


def rado_ratio_experiment(
    model: CountableRadoModel,
    measure: DiscreteMeasure,
    m_max: int,
    seed: int = 0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> RatioTrajectory:
    """Sample vertices i.i.d. from the measure (independently of the model
    seed), build -d^2/2 with the model's {1, 2} rule, and record the ratio at
    each checkpoint of ``default_checkpoints(m_max)``.

    Signatures are computed on the repetition-cancelled prefix, which leaves
    the ratio unchanged and the eigensolves small. The dedup prefixes are
    nested, so one ``limit_signature_trajectory`` counts them all against
    one zero band; checkpoints that add no new point share a count.
    """
    checkpoints = default_checkpoints(m_max)
    dedup, first_draws = _first_appearances(_draws(measure, m_max, seed))
    sizes = tuple(int(k) for k in np.searchsorted(first_draws, checkpoints))
    distinct = sorted(set(sizes))
    counted = limit_signature_trajectory(model, dedup, sizes=distinct, tol_rel=tol_rel)
    by_size = dict(zip(distinct, counted.inertias))
    inertias = tuple(by_size[k] for k in sizes)
    return RatioTrajectory(seed=seed, m_values=checkpoints, dedup_sizes=sizes, inertias=inertias)


def rado_ratio_trials(
    model: CountableRadoModel,
    measure: DiscreteMeasure,
    m_max: int,
    trials: int,
    seed: int = 0,
    tol_rel: float = DEFAULT_TOL_REL,
) -> list:
    """Independent repetitions, trial t seeded with ``trial_seed(seed, t)``.

    The trials run through ``linalg.pinned_map``, which sets the workers and
    the BLAS pin from the expected order of a trial's largest eigensolve: the
    expected number of distinct points outside the planted clique among
    ``m_max`` draws. Results do not depend on the route.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    default_checkpoints(m_max)  # refuses m_max < 1 before the power below
    w = measure.weights[~model._clique_flags(np.arange(measure.n))]
    order = float(np.sum(1.0 - (1.0 - w) ** m_max))

    def run(t):
        return rado_ratio_experiment(
            model,
            measure,
            m_max,
            seed=trial_seed(seed, t),
            tol_rel=tol_rel,
        )

    return pinned_map(run, range(trials), order)


def write_ratio_csv(trajectories, path, comment: str | None = None):
    """CSV rows (trial, m, s_minus, s_zero, s_plus, delta)."""
    rows = (
        [t, m, ine.s_minus, ine.s_zero, ine.s_plus, repr(delta)]
        for t, traj in enumerate(trajectories)
        for m, ine, delta in zip(traj.m_values, traj.inertias, traj.deltas)
    )
    _write_csv(path, ["trial", "m", "s_minus", "s_zero", "s_plus", "delta"], rows, comment)


def _check_thresholds(delta_threshold, min_fraction) -> None:
    """Refuse thresholds a summary cannot use: a non-finite ``delta_threshold``
    (JSON has no NaN or Infinity), or a ``min_fraction`` outside [0, 1]."""
    if min_fraction is not None and delta_threshold is None:
        raise InvalidInput("min_fraction needs delta_threshold")
    if delta_threshold is not None and not math.isfinite(delta_threshold):
        raise InvalidInput(f"delta_threshold must be finite, got {delta_threshold!r}")
    if min_fraction is not None and not 0.0 <= min_fraction <= 1.0:
        raise InvalidInput(f"min_fraction must be in [0, 1], got {min_fraction!r}")


def ratio_summary(
    trajectories,
    provenance: dict | None = None,
    delta_threshold: float | None = None,
    min_fraction: float | None = None,
) -> dict:
    """Quantiles of the final ratio across trials, JSON-ready.

    With ``delta_threshold`` the summary also reports the fraction of trials
    whose trajectory reaches the threshold at any checkpoint, and with
    ``min_fraction``, which needs the threshold, a pass/fail verdict.
    """
    _check_thresholds(delta_threshold, min_fraction)
    finals = np.asarray([t.final_delta for t in trajectories], dtype=float)
    finite = finals[np.isfinite(finals)]
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    values = np.quantile(finite, levels).tolist() if finite.size else []
    qs = {f"q{int(q * 100):03d}": v for q, v in zip(levels, values)}
    doc = {
        "trials": len(trajectories),
        "final_delta_quantiles": qs,
        "infinite_final_deltas": int(np.sum(~np.isfinite(finals))),
    }
    if delta_threshold is not None:
        reached = sum(t.max_delta() >= delta_threshold for t in trajectories)
        doc["delta_threshold"] = delta_threshold
        doc["fraction_reaching"] = reached / len(trajectories)
        if min_fraction is not None:
            doc["min_fraction"] = min_fraction
            doc["pass"] = bool(doc["fraction_reaching"] >= min_fraction)
    if provenance:
        doc.update(provenance)
    return doc


def write_esd_csv(e: ESD, path, comment: str | None = None):
    """CSV rows (index, value) of the sorted ESD values."""
    rows = ([i, repr(float(v))] for i, v in enumerate(e.values))
    _write_csv(path, ["index", "value"], rows, comment)


def summary_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)
