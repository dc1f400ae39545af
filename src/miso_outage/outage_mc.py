"""Per-realization case classification and Monte-Carlo outage estimation.

For a target rate pair (r1, r2) every channel realization falls in exactly one
of five cases:

    A  : both targets exceed their single-user rates (neither link can succeed)
    B  : (r1, r2) is jointly achievable
    C1 : r1 is below its single-user rate, r2 is not (only link 1 can succeed)
    C2 : mirror image of C1
    D  : both targets are individually below the single-user rates but the
         pair is not jointly achievable (exactly one link can be served)

The transmission policy serves both links in case B at the column's
operating point (regions.Column's maximizer q2*, whose witness rates the
Column holds once computed), serves the feasible link with its matched filter (other
transmitter off) in C1/C2, switches both off in A, and in D serves link 1 with
probability p (a biased coin independent of the channels) and link 2
otherwise. Link i then succeeds exactly on B, Ci and its share of D.

Estimation reads a regions.InstantaneousRegionPipeline built on the stream;
the classification of sample k depends only on the realization itself, so any
partition of the index range sums to identical integer counts. Coin draws for
the policy come from a dedicated substream indexed by absolute sample position.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import SampleSource
from .rate_core import RATE_SLACK, as_rate_point
from .rate_core import achievability_slack_batch, frontier_batch  # wrapped by perfbench/tracer.py


class CaseLabel(enum.Enum):
    A = "A"
    B = "B"
    C1 = "C1"
    C2 = "C2"
    D = "D"


@dataclass
class CaseProbabilities:
    """Empirical case distribution at one rate point.

    Counts are exact integers summing to n_samples; count_d is their
    complement. p_d is the float complement of the other four estimates,
    which makes the five estimates sum to exactly 1.0 in floating point (the
    complement can differ from count_d / n_samples by about one ulp, far below
    any standard error). p_su_exceed_i estimates Pr{r_i > single-user rate of
    link i}, tallied independently of the case counts.
    """

    n_samples: int
    count_a: int
    count_b: int
    count_c1: int
    count_c2: int
    p_a: float
    p_b: float
    p_c1: float
    p_c2: float
    p_d: float
    count_su_exceed1: int
    count_su_exceed2: int
    p_su_exceed1: float
    p_su_exceed2: float

    @classmethod
    def from_counts(
        cls, n: int, c_a: int, c_b: int, c_c1: int, c_c2: int, c_e1: int, c_e2: int
    ) -> "CaseProbabilities":
        if n <= 0:
            raise ValueError("need at least one sample")
        p_a, p_b, p_c1, p_c2 = c_a / n, c_b / n, c_c1 / n, c_c2 / n
        return cls(
            n, c_a, c_b, c_c1, c_c2, p_a, p_b, p_c1, p_c2, 1.0 - (p_a + p_b + p_c1 + p_c2),
            c_e1, c_e2, c_e1 / n, c_e2 / n,
        )

    @classmethod
    def synthetic(
        cls, p_a: float, p_b: float, p_c1: float, p_c2: float, p_d: float
    ) -> "CaseProbabilities":
        """A probability vector without sample backing (membership algebra tests)."""
        return cls(0, 0, 0, 0, 0, p_a, p_b, p_c1, p_c2, p_d, 0, 0, p_a + p_c2, p_a + p_c1)

    @property
    def count_d(self) -> int:
        return self.n_samples - (self.count_a + self.count_b + self.count_c1 + self.count_c2)

    def as_dict(self) -> dict:
        n = self.n_samples
        estimates = {
            "p_a": self.p_a,
            "p_b": self.p_b,
            "p_c1": self.p_c1,
            "p_c2": self.p_c2,
            "p_d": self.p_d,
        }
        return {
            "n_samples": n,
            "counts": {
                "a": self.count_a,
                "b": self.count_b,
                "c1": self.count_c1,
                "c2": self.count_c2,
                "d": self.count_d,
            },
            "estimates": estimates,
            # Binomial standard errors; a synthetic vector (n = 0) has none.
            "standard_errors": {
                key: math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else 0.0
                for key, p in estimates.items()
            },
            "su_exceedance": {
                "p1": self.p_su_exceed1,
                "p2": self.p_su_exceed2,
            },
        }


def split_cases(exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray):
    """Masks (A, B, C1, C2, D) of the five-case split.

    exceed_i marks realizations where r_i exceeds the single-user rate of link
    i, joint those where the rate pair is jointly achievable.
    """
    a = exceed1 & exceed2
    b = ~a & joint
    c1 = ~a & ~b & exceed2
    c2 = ~a & ~b & exceed1
    return a, b, c1, c2, ~(a | b | c1 | c2)


def count_true(mask: np.ndarray) -> int:
    """Number of set entries of a boolean mask, as a Python int."""
    return int(np.count_nonzero(mask))


def classify(h, point, noise: tuple[float, float]) -> CaseLabel:
    """Case of a single realization at the rate point."""
    from .regions import InstantaneousRegionPipeline

    pipeline = InstantaneousRegionPipeline(SampleSource.explicit([h]), noise)
    masks = split_cases(*pipeline.case_tests(*as_rate_point(point)))
    return next(label for label, mask in zip(CaseLabel, masks) if mask[0])


def estimate_case_probs(
    source: SampleSource, point, noise: tuple[float, float]
) -> CaseProbabilities:
    """Empirical case distribution of the stream at the rate point."""
    from .regions import InstantaneousRegionPipeline

    return InstantaneousRegionPipeline(source, noise).case_probs(*as_rate_point(point))


@dataclass
class PolicyOutcome:
    """Result of simulating the case-based transmission policy."""

    n_samples: int
    bias: float
    coin_seed: int
    success1: int
    success2: int
    count_a: int
    count_b: int
    count_c1: int
    count_c2: int
    count_d1: int
    count_d2: int

    @property
    def success1_freq(self) -> float:
        return self.success1 / self.n_samples

    @property
    def success2_freq(self) -> float:
        return self.success2 / self.n_samples

    @property
    def outage1_freq(self) -> float:
        return 1.0 - self.success1_freq

    @property
    def outage2_freq(self) -> float:
        return 1.0 - self.success2_freq

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "bias": self.bias,
            "coin_seed": self.coin_seed,
            "success": {"link1": self.success1, "link2": self.success2},
            "success_freq": {"link1": self.success1_freq, "link2": self.success2_freq},
            "outage_freq": {"link1": self.outage1_freq, "link2": self.outage2_freq},
            "case_usage": {
                "a": self.count_a,
                "b": self.count_b,
                "c1": self.count_c1,
                "c2": self.count_c2,
                "d_serve1": self.count_d1,
                "d_serve2": self.count_d2,
            },
        }


def simulate_policy(
    source: SampleSource,
    point,
    bias: float,
    noise: tuple[float, float],
    coin_seed: int = 0,
) -> PolicyOutcome:
    """Simulate the policy with mixing bias p = Pr{serve link 1 in case D}.

    Success of link i is counted when its achieved rate is >= r_i - 1e-9. The
    coin stream is indexed by absolute sample position (one draw per sample,
    used only in case D), so results are reproducible for given source and
    coin seeds regardless of any batching.
    """
    from .regions import InstantaneousRegionPipeline

    r1, r2 = as_rate_point(point)
    bias = float(bias)
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    pipeline = InstantaneousRegionPipeline(source, noise)
    r1_witness, r2_witness = pipeline.witness_rates(r1)
    a, b, c1, c2, d = split_cases(*pipeline.case_tests(r1, r2))
    coin = np.random.default_rng(coin_seed).random(source.count)
    serve1 = d & (coin < bias)
    serve2 = d & ~serve1

    r1_ach = np.select([b, c1 | serve1], [r1_witness, pipeline.su1])
    r2_ach = np.select([b, c2 | serve2], [r2_witness, pipeline.su2])
    success1 = r1_ach >= r1 - RATE_SLACK
    success2 = r2_ach >= r2 - RATE_SLACK
    return PolicyOutcome(
        n_samples=source.count,
        bias=bias,
        coin_seed=int(coin_seed),
        success1=count_true(success1),
        success2=count_true(success2),
        count_a=count_true(a),
        count_b=count_true(b),
        count_c1=count_true(c1),
        count_c2=count_true(c2),
        count_d1=count_true(serve1),
        count_d2=count_true(serve2),
    )
