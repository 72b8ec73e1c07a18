"""Discrete measures, i.i.d. sampling with repetition cancelling, and the
finite matrices of the scaling operators.

Sampling is inverse-CDF on the cumulative weight vector driven by a Philox
counter-based generator, so trajectories are reproducible bit-for-bit across
platforms given the seed. Countable measures (geometric, super-geometric,
class-biased) are materialized down to a relative tail below 1e-18, beyond
the resolution of double-precision uniforms. A sample keeps only its
distinct points in order of first appearance and where they appeared; its
draws are searched ``_CHUNK`` uniforms at a time and never held.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .linalg import validate_weights, weighted_center
from .spaces import FiniteMetricSpace, _frozen, _integer, _philox, _seed64, s_matrix

_TAIL = 1e-18
_SUPPORT_MAX = 10**6  # the most points a countable measure materializes
_CHUNK = 1 << 16  # uniforms drawn and searched at a time


def _geometric_weights(q: float, name: str) -> np.ndarray:
    """Normalized (1 - q) q^k down to a tail below _TAIL; errors call q ``name``."""
    if not (0.0 < q < 1.0):
        raise InvalidInput(f"{name} must be in (0, 1), got {q!r}")
    length = max(int(math.ceil(math.log(_TAIL) / math.log(q))) + 1, 2)
    if length > _SUPPORT_MAX:
        raise InvalidInput(f"{name} {q!r} needs {length} support points; too close to 1")
    w = (1.0 - q) * q ** np.arange(length)
    return w / w.sum()


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability weights over point indices.

    For a finite space the vector length matches the point count; the
    countable rules carry their (truncated) effective range plus the rule
    that generated them for provenance.
    """

    weights: np.ndarray
    rule: dict | None = None

    def __post_init__(self):
        w = validate_weights(self.weights)
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.weights)
        cum[np.flatnonzero(self.weights)[-1]:] = 1.0  # no roundoff reaches a trailing zero
        return cum

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        n = _integer(n, "uniform measure point count n")
        if n < 1:
            raise InvalidInput("uniform measure needs n >= 1")
        return cls(np.full(n, 1.0 / n), rule={"type": "uniform"})

    @classmethod
    def geometric(cls, q: float) -> "DiscreteMeasure":
        """weights proportional to q^k over k = 0, 1, 2, ..."""
        return cls(_geometric_weights(q, "geometric ratio"), rule={"type": "geometric", "q": q})

    @classmethod
    def super_geometric(cls) -> "DiscreteMeasure":
        """weights proportional to 2^(-k^2) over k = 1, 2, ..."""
        ks = np.arange(1, 12)
        w = np.exp2(-(ks.astype(float) ** 2))
        # index 0 corresponds to k = 1
        return cls(w / w.sum(), rule={"type": "super_geometric"})

    @classmethod
    def class_biased(cls, j: int, level_q: float = 0.9) -> "DiscreteMeasure":
        """Equal mass 1/(j+1) on each of the classes {i : i mod (j+1) == c}.

        Index i belongs to class i mod (j+1) at level i // (j+1); every class
        gets the same pointwise mass at a given level, with a geometric
        distribution of ratio ``level_q`` over the levels.
        """
        j = _integer(j, "class_biased measure parameter j")
        if j < 1:
            raise InvalidInput("class count parameter j must be >= 1")
        levels = _geometric_weights(level_q, "class_biased q")
        size = levels.size * (j + 1)
        if size > _SUPPORT_MAX:
            raise InvalidInput(f"class_biased j={j} needs {size} support points, over {_SUPPORT_MAX}")
        w = np.repeat(levels, j + 1) / (j + 1)
        return cls(
            w / w.sum(), rule={"type": "class_biased", "j": j, "q": level_q}
        )


# Positional parameters of the string form name[:a[:b]] of each named rule.
_RULE_PARAMS = {
    "uniform": (),
    "geometric": ("q",),
    "super_geometric": (),
    "class_biased": ("j", "q"),
}


def _float_param(spec: dict, key: str, default=None) -> float:
    """``spec[key]`` (``default`` when absent) as a float."""
    value = spec.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(
            f"{spec['type']} measure parameter {key} must be a number, got {value!r}"
        ) from exc


def parse_measure_spec(spec, n: int | None = None) -> DiscreteMeasure:
    """Measure from a spec: a weight array, a JSON-style rule such as
    {"type": "class_biased", "j": 30, "q": 0.9}, or the same rule as the
    string name[:a[:b]]: uniform, geometric:q, super_geometric or
    class_biased:j[:q], with q defaulting to 0.9 for class_biased.

    ``n`` is the point count of a finite space: the uniform rule needs it,
    and a weight array must have exactly ``n`` entries. With ``n`` None (a
    countable model) a weight array may have any length.
    """
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        if kind not in _RULE_PARAMS:
            raise InvalidInput(f"unknown measure rule {kind!r}")
        values = rest.split(":") if rest else []
        keys = _RULE_PARAMS[kind]
        if len(values) > len(keys):
            raise InvalidInput(f"too many parameters in measure {spec!r}")
        spec = {"type": kind, **{k: v for k, v in zip(keys, values) if v}}
    if isinstance(spec, (list, tuple, np.ndarray)):
        measure = DiscreteMeasure(spec)
        if n not in (None, measure.n):
            raise InvalidInput(f"expected {n} weights, got {measure.n}")
        return measure
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "uniform":
            if n is None:
                raise InvalidInput("uniform measure needs the point count of a finite space")
            return DiscreteMeasure.uniform(n)
        if kind == "geometric":
            if "q" not in spec:
                raise InvalidInput("geometric measure needs a ratio, e.g. geometric:0.9")
            return DiscreteMeasure.geometric(_float_param(spec, "q"))
        if kind == "super_geometric":
            return DiscreteMeasure.super_geometric()
        if kind == "class_biased":
            if "j" not in spec:
                raise InvalidInput("class_biased needs j, e.g. class_biased:30")
            return DiscreteMeasure.class_biased(spec["j"], _float_param(spec, "q", 0.9))
        raise InvalidInput(f"unknown measure rule {kind!r}")
    raise InvalidInput(f"cannot interpret measure spec {spec!r}")


def load_measure(path, n: int | None = None) -> DiscreteMeasure:
    """``parse_measure_spec`` of a JSON file; InvalidInput names the path
    when the file is not UTF-8 JSON or holds no valid measure."""
    try:
        with open(path) as fh:
            return parse_measure_spec(json.load(fh), n=n)
    except (json.JSONDecodeError, UnicodeDecodeError, InvalidInput) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _distinct_draws(measure: DiscreteMeasure, m: int, seed: int) -> tuple:
    """``(dedup, first_draws)`` of m i.i.d. draws from the measure: the
    distinct points in order of first appearance and the increasing
    positions of those appearances, so the dedup of the first k draws is
    ``dedup[:searchsorted(first_draws, k)]``. The draws, ``_CHUNK`` uniforms
    of one Philox stream at a time, are searched in increasing order."""
    m = _integer(m, "sample size")
    if m < 0:
        raise InvalidInput("sample size must be nonnegative")
    rng, cum = _philox(seed), measure.cumulative()
    seen = np.empty(0, np.int64)  # increasing
    dedup, first_draws = [seen], [seen]
    for start in range(0, m, _CHUNK):
        u = rng.random(min(_CHUNK, m - start))
        by_u = np.argsort(u)
        points, positions = np.searchsorted(cum, u[by_u], side="right"), by_u + start
        runs = np.flatnonzero(np.diff(points, prepend=points[:1] - 1))  # runs of equal points
        distinct, first = points[runs], np.minimum.reduceat(positions, runs)
        at = np.searchsorted(seen, distinct)
        new = np.flatnonzero(np.searchsorted(seen, distinct, side="right") == at)
        seen = np.insert(seen, at[new], distinct[new])
        new = new[np.argsort(first[new])]
        dedup.append(distinct[new])
        first_draws.append(first[new])
    return np.concatenate(dedup), np.concatenate(first_draws)


def sample_order(measure: DiscreteMeasure, m: int, seed: int) -> np.ndarray:
    """The nesting order of a sampled trajectory: the distinct indices of m
    draws in order of first appearance, never empty. The draws are searched
    a chunk at a time and not kept."""
    order = _distinct_draws(measure, m, seed)[0]
    if order.size == 0:
        raise InvalidInput("empty sample; increase m_max")
    return order


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial``: the ``trial``-th ``SeedSequence(seed)`` child,
    so trials of different seeds share no seed, whatever the worker count."""
    child = np.random.SeedSequence(_seed64(seed), spawn_key=(trial,))
    return int(child.generate_state(1, np.uint64)[0])


def k_matrix(space: FiniteMetricSpace, measure: DiscreteMeasure) -> np.ndarray:
    """M^(1/2) S M^(1/2) with S = -d^2/2 and M = diag(weights).

    Congruent-similar to the kernel matrix acting on the weighted space, so
    its inertia is the inertia of the unnormalized scaling operator.
    """
    if measure.n != space.n:  # the weights were validated when the measure was built
        raise InvalidInput(f"expected {space.n} weights, got {measure.n}")
    root = np.sqrt(measure.weights)
    return s_matrix(space) * np.outer(root, root)  # exactly symmetric


def t_matrix(space: FiniteMetricSpace, measure: DiscreteMeasure) -> np.ndarray:
    """Measure-centered companion of k_matrix (see linalg.weighted_center)."""
    return weighted_center(s_matrix(space), measure.weights)
