"""Discrete measures, i.i.d. sampling with repetition cancelling, and the
finite matrices of the scaling operators.

Sampling is inverse-CDF on the cumulative weight vector driven by a Philox
counter-based generator, so trajectories are reproducible bit-for-bit across
platforms given the seed. Countable measures (geometric, super-geometric,
class-biased) are materialized down to a relative tail below 1e-18, beyond
the resolution of double-precision uniforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, InvalidMeasure
from .linalg import validate_weights, weighted_center
from .spaces import _MASK64, FiniteMetricSpace, _frozen, _philox, s_matrix

_TAIL = 1e-18
_SUPPORT_MAX = 10**6  # the most points a countable measure materializes


def _geometric_weights(q: float, name: str) -> np.ndarray:
    """Normalized (1 - q) q^k down to a tail below _TAIL; errors call q ``name``."""
    if not (0.0 < q < 1.0):
        raise InvalidMeasure(f"{name} must be in (0, 1), got {q!r}")
    length = max(int(math.ceil(math.log(_TAIL) / math.log(q))) + 1, 2)
    if length > _SUPPORT_MAX:
        raise InvalidMeasure(f"{name} {q!r} needs {length} support points; too close to 1")
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
        w = validate_weights(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def full_support(self) -> bool:
        return bool((self.weights > 0).all())

    def cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0  # guard searchsorted against trailing roundoff
        return cum

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        if n < 1:
            raise InvalidMeasure("uniform measure needs n >= 1")
        return cls(np.full(n, 1.0 / n), rule={"type": "uniform"})

    @classmethod
    def from_weights(cls, w) -> "DiscreteMeasure":
        return cls(np.asarray(w, dtype=float))

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
        if j < 1:
            raise InvalidMeasure("class count parameter j must be >= 1")
        levels = _geometric_weights(level_q, "class_biased q")
        size = levels.size * (j + 1)
        if size > _SUPPORT_MAX:
            raise InvalidMeasure(f"class_biased j={j} needs {size} support points, over {_SUPPORT_MAX}")
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


def _rule_param(spec: dict, key: str, convert, default=None):
    """``spec[key]`` (``default`` when absent) converted by int or float."""
    value = spec.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if convert is int else "a number"
        raise InvalidMeasure(
            f"{spec['type']} measure parameter {key} must be {what}, got {value!r}"
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
    if isinstance(spec, DiscreteMeasure):
        return spec
    if isinstance(spec, str):
        kind, _, rest = spec.partition(":")
        if kind not in _RULE_PARAMS:
            raise InvalidMeasure(f"unknown measure rule {kind!r}")
        values = rest.split(":") if rest else []
        keys = _RULE_PARAMS[kind]
        if len(values) > len(keys):
            raise InvalidMeasure(f"too many parameters in measure {spec!r}")
        spec = {"type": kind, **{k: v for k, v in zip(keys, values) if v}}
    if isinstance(spec, (list, tuple, np.ndarray)):
        return DiscreteMeasure.from_weights(validate_weights(spec, n))
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "uniform":
            if n is None:
                raise InvalidMeasure("uniform measure needs the point count of a finite space")
            return DiscreteMeasure.uniform(n)
        if kind == "geometric":
            if "q" not in spec:
                raise InvalidMeasure("geometric measure needs a ratio, e.g. geometric:0.9")
            return DiscreteMeasure.geometric(_rule_param(spec, "q", float))
        if kind == "super_geometric":
            return DiscreteMeasure.super_geometric()
        if kind == "class_biased":
            if "j" not in spec:
                raise InvalidMeasure("class_biased needs j, e.g. class_biased:30")
            return DiscreteMeasure.class_biased(
                _rule_param(spec, "j", int), _rule_param(spec, "q", float, 0.9)
            )
        raise InvalidMeasure(f"unknown measure rule {kind!r}")
    raise InvalidMeasure(f"cannot interpret measure spec {spec!r}")


def load_measure(path, n: int | None = None) -> DiscreteMeasure:
    """``parse_measure_spec`` of a JSON file; InvalidMeasure names the path
    when the file is not UTF-8 JSON or holds no valid measure."""
    try:
        with open(path) as fh:
            return parse_measure_spec(json.load(fh), n=n)
    except (json.JSONDecodeError, UnicodeDecodeError, InvalidMeasure) as exc:
        raise InvalidMeasure(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SampleTrajectory:
    """An i.i.d. sample of point indices plus its repetition-cancelled form.

    ``dedup`` keeps the first occurrence of every index in order of first
    appearance, mirroring the sampling scheme without repetitions;
    ``first_draws`` holds the increasing positions in ``raw`` of those first
    occurrences, so the dedup of ``raw[:m]`` is
    ``dedup[:searchsorted(first_draws, m)]``.
    """

    seed: int
    raw: np.ndarray
    dedup: np.ndarray = field(init=False)
    first_draws: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.int64)
        first = np.sort(np.unique(raw, return_index=True)[1])
        for name, a in (("raw", raw), ("first_draws", first), ("dedup", raw[first])):
            object.__setattr__(self, name, _frozen(a))

    @property
    def m(self) -> int:
        return self.raw.shape[0]


def gv_sample(measure: DiscreteMeasure, m: int, seed: int) -> SampleTrajectory:
    """Draw m i.i.d. indices from the measure, deterministic in the seed."""
    if m < 0:
        raise InvalidInput("sample size must be nonnegative")
    if not isinstance(measure, DiscreteMeasure):
        measure = parse_measure_spec(measure)
    rng = _philox(seed)
    u = rng.random(m)
    raw = np.searchsorted(measure.cumulative(), u, side="right")
    return SampleTrajectory(seed=seed, raw=raw.astype(np.int64))


def sample_order(measure: DiscreteMeasure, m: int, seed: int) -> np.ndarray:
    """The nesting order of a sampled trajectory: the distinct indices of m
    draws in order of first appearance (``gv_sample(...).dedup``), never empty."""
    order = gv_sample(measure, m, seed).dedup
    if order.size == 0:
        raise InvalidInput("empty sample; increase m_max")
    return order


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial``: the ``trial``-th ``SeedSequence(seed)`` child,
    so trials of different seeds share no seed, whatever the worker count."""
    child = np.random.SeedSequence(seed & _MASK64, spawn_key=(trial,))
    return int(child.generate_state(1, np.uint64)[0])


def k_matrix(space: FiniteMetricSpace, measure: DiscreteMeasure) -> np.ndarray:
    """M^(1/2) S M^(1/2) with S = -d^2/2 and M = diag(weights).

    Congruent-similar to the kernel matrix acting on the weighted space, so
    its inertia is the inertia of the unnormalized scaling operator.
    """
    w = validate_weights(measure.weights, space.n)
    root = np.sqrt(w)
    out = s_matrix(space) * np.outer(root, root)
    return 0.5 * (out + out.T)


def t_matrix(space: FiniteMetricSpace, measure: DiscreteMeasure) -> np.ndarray:
    """Measure-centered companion of k_matrix (see linalg.weighted_center)."""
    w = validate_weights(measure.weights, space.n)
    return weighted_center(s_matrix(space), w)
