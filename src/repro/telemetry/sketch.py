"""Mergeable relative-error quantile sketches (ISSUE 6).

Production runs of 10^5-10^6 requests need tail latencies that are
*provably* close to the truth while staying O(buckets).  This module
holds a DDSketch-style sketch whose buckets grow geometrically by
``gamma = (1+a)/(1-a)`` for a configured relative accuracy ``a``,
guaranteeing

    |quantile_estimate - true_quantile| <= a * true_quantile

for every quantile, at ~700 buckets per decade-spanning workload when
``a = 0.01``.  Three properties the telemetry stack leans on:

* **mergeable** — bucket counts of two sketches with the same ``gamma``
  simply add, so per-app series combine losslessly into a run-wide
  quantile (:func:`merged_quantile`);
* **deterministic** — buckets are pure functions of the samples, so a
  seeded run always produces the same sketch;
* **bounded** — memory is O(occupied buckets), independent of the
  number of samples.

Every registry histogram is a sketch:
:class:`~repro.telemetry.instruments.Histogram` subclasses
:class:`QuantileSketch` and adds only a name and labels.

Like the rest of :mod:`repro.telemetry`, stdlib only.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

#: Default relative accuracy: quantiles within 1 % of the true value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Smallest distinguishable sample (1 ns); anything at or below it
#: counts as zero.
DEFAULT_MIN_VALUE = 1e-9


class QuantileSketch:
    """A DDSketch-style mergeable quantile sketch over positive samples.

    Samples at or below ``min_value`` (default 1 ns) are counted exactly
    in ``zeros``; everything else lands in bucket
    ``ceil(log_gamma(v / min_value))``, whose value range is
    ``(min_value * gamma^(i-1), min_value * gamma^i]``.
    """

    __slots__ = (
        "relative_accuracy", "gamma", "_log_gamma", "min_value",
        "count", "sum", "min", "max", "zeros", "buckets",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ValueError(f"sketch min_value must be > 0, got {min_value}")
        self.relative_accuracy = relative_accuracy
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self.min_value = min_value
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0
        #: bucket index -> count of samples in that geometric bucket.
        self.buckets: Dict[int, int] = {}

    # -- online updates ------------------------------------------------------

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if v <= self.min_value:
            self.zeros += 1
            return
        idx = int(math.ceil(math.log(v / self.min_value) / self._log_gamma))
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (bucket layouts must match)."""
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__} into a sketch")
        if (other.relative_accuracy != self.relative_accuracy
                or other.min_value != self.min_value):
            raise ValueError(
                "cannot merge sketches with different bucket layouts: "
                f"a={self.relative_accuracy}/min={self.min_value} vs "
                f"a={other.relative_accuracy}/min={other.min_value}"
            )
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.zeros += other.zeros
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        return self

    # -- reads ---------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_value(self, idx: int) -> float:
        """The representative value of bucket ``idx``.

        ``2 * gamma^idx / (gamma + 1)`` is the point whose worst-case
        relative distance to either bucket edge is exactly the
        configured accuracy — the classic DDSketch estimator.
        """
        return self.min_value * 2.0 * self.gamma ** idx / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """q-quantile estimate, within ``relative_accuracy`` of the truth."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = self.zeros
        if seen >= target:
            return 0.0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= target:
                v = self.bucket_value(idx)
                return min(max(v, self.min), self.max)
        return self.max

    def bucket_bounds(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` per occupied bucket, ascending."""
        return [
            (self.min_value * self.gamma ** i, n)
            for i, n in sorted(self.buckets.items())
        ]

    def __len__(self) -> int:
        """Occupied buckets (the memory footprint driver)."""
        return len(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QuantileSketch a={self.relative_accuracy:g} n={self.count} "
            f"buckets={len(self.buckets)}>"
        )


def merged_quantile(sketches: Iterable[QuantileSketch], q: float) -> float:
    """Quantile over the union of several sketches (e.g. the per-app
    ``request.completion_s`` histograms behind the live console's
    run-wide p99); 0.0 when there are none."""
    merged = None
    for sk in sketches:
        if merged is None:
            merged = QuantileSketch(sk.relative_accuracy, sk.min_value)
        merged.merge(sk)
    return merged.quantile(q) if merged is not None else 0.0


__all__ = [
    "DEFAULT_MIN_VALUE",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "merged_quantile",
]
