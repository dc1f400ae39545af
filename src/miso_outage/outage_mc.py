"""Per-realization case classification and Monte-Carlo outage estimation.

For a target rate pair (r1, r2) every channel realization falls in exactly one
of five cases:

    A  : both targets exceed their single-user rates (neither link can succeed)
    B  : (r1, r2) is jointly achievable
    C1 : r1 is below its single-user rate, r2 is not (only link 1 can succeed)
    C2 : mirror image of C1
    D  : both targets are individually below the single-user rates but the
         pair is not jointly achievable (exactly one link can be served)

The transmission policy serves both links with witness beamformers in case B,
serves the feasible link with its matched filter (other transmitter off) in
C1/C2, switches both off in A, and in D serves link 1 with probability p
(a biased coin independent of the channels) and link 2 otherwise. Link i then
succeeds exactly on B, Ci and its share of D.

Estimation is vectorized over a SampleSource stream; the classification of
sample k depends only on the realization itself, so any partition of the index
range sums to identical integer counts. Coin draws for the policy come from a
dedicated substream indexed by absolute sample position.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import CHANNEL_KEYS, SampleSource
from .rate_core import (
    FEASIBILITY_SLACK,
    RATE_SLACK,
    achievability_slack_batch,
    as_rate_point,
    frontier_batch,
    gamma_from_rate,
    su_rate_batch,
    witness_rates_batch,
)


class CaseLabel(enum.Enum):
    A = "A"
    B = "B"
    C1 = "C1"
    C2 = "C2"
    D = "D"


@dataclass
class CaseProbabilities:
    """Empirical case distribution at one rate point.

    Counts are exact integers summing to n_samples. p_d is the float
    complement of the other four estimates, which makes the five estimates sum
    to exactly 1.0 in floating point (the complement can differ from
    count_d / n_samples by about one ulp, far below any standard error).
    p_su_exceed_i estimates Pr{r_i > single-user rate of link i}, tallied
    independently of the case counts.
    """

    n_samples: int
    count_a: int
    count_b: int
    count_c1: int
    count_c2: int
    count_d: int
    p_a: float
    p_b: float
    p_c1: float
    p_c2: float
    p_d: float
    se_a: float
    se_b: float
    se_c1: float
    se_c2: float
    se_d: float
    count_su_exceed1: int
    count_su_exceed2: int
    p_su_exceed1: float
    p_su_exceed2: float

    @classmethod
    def from_counts(
        cls, n: int, c_a: int, c_b: int, c_c1: int, c_c2: int, c_e1: int, c_e2: int
    ) -> "CaseProbabilities":
        c_d = n - (c_a + c_b + c_c1 + c_c2)
        if n <= 0:
            raise ValueError("need at least one sample")
        p_a, p_b, p_c1, p_c2 = c_a / n, c_b / n, c_c1 / n, c_c2 / n
        p_d = 1.0 - (p_a + p_b + p_c1 + p_c2)

        def se(p):
            return math.sqrt(max(p * (1.0 - p), 0.0) / n)

        return cls(
            n_samples=n,
            count_a=c_a,
            count_b=c_b,
            count_c1=c_c1,
            count_c2=c_c2,
            count_d=c_d,
            p_a=p_a,
            p_b=p_b,
            p_c1=p_c1,
            p_c2=p_c2,
            p_d=p_d,
            se_a=se(p_a),
            se_b=se(p_b),
            se_c1=se(p_c1),
            se_c2=se(p_c2),
            se_d=se(p_d),
            count_su_exceed1=c_e1,
            count_su_exceed2=c_e2,
            p_su_exceed1=c_e1 / n,
            p_su_exceed2=c_e2 / n,
        )

    @classmethod
    def from_tests(
        cls, exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray
    ) -> "CaseProbabilities":
        """Counts of the split_cases masks."""
        a, b, c1, c2, _ = split_cases(exceed1, exceed2, joint)
        counts = (int(m.sum()) for m in (a, b, c1, c2, exceed1, exceed2))
        return cls.from_counts(exceed1.size, *counts)

    @classmethod
    def synthetic(
        cls, p_a: float, p_b: float, p_c1: float, p_c2: float, p_d: float
    ) -> "CaseProbabilities":
        """A probability vector without sample backing (membership algebra tests)."""
        return cls(
            n_samples=0,
            count_a=0,
            count_b=0,
            count_c1=0,
            count_c2=0,
            count_d=0,
            p_a=p_a,
            p_b=p_b,
            p_c1=p_c1,
            p_c2=p_c2,
            p_d=p_d,
            se_a=0.0,
            se_b=0.0,
            se_c1=0.0,
            se_c2=0.0,
            se_d=0.0,
            count_su_exceed1=0,
            count_su_exceed2=0,
            p_su_exceed1=p_a + p_c2,
            p_su_exceed2=p_a + p_c1,
        )

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "counts": {
                "a": self.count_a,
                "b": self.count_b,
                "c1": self.count_c1,
                "c2": self.count_c2,
                "d": self.count_d,
            },
            "estimates": {
                "p_a": self.p_a,
                "p_b": self.p_b,
                "p_c1": self.p_c1,
                "p_c2": self.p_c2,
                "p_d": self.p_d,
            },
            "standard_errors": {
                "p_a": self.se_a,
                "p_b": self.se_b,
                "p_c1": self.se_c1,
                "p_c2": self.se_c2,
                "p_d": self.se_d,
            },
            "su_exceedance": {
                "p1": self.p_su_exceed1,
                "p2": self.p_su_exceed2,
            },
        }


def split_cases(exceed1: np.ndarray, exceed2: np.ndarray, joint: np.ndarray):
    """Masks (A, B, C1, C2, D) of the five-case split.

    exceed_i marks realizations where r_i exceeds the single-user rate of link
    i, joint those where the rate pair is jointly achievable. Every classifier
    splits through here, whichever oracle decided joint.
    """
    a = exceed1 & exceed2
    b = ~a & joint
    c1 = ~a & ~b & exceed2
    c2 = ~a & ~b & exceed1
    return a, b, c1, c2, ~(a | b | c1 | c2)


def _classify_stream(arrs, point, noise):
    """Case tests (exceed1, exceed2, joint) of every realization.

    Also returns what the policy serves with: the frontiers and slack
    maximizers (F1, F2, q1_star, q2_star) and the single-user rates.
    """
    r1, r2 = as_rate_point(point)
    sigma1_sq, sigma2_sq = float(noise[0]), float(noise[1])
    F1 = frontier_batch(arrs["h11"], arrs["h12"])
    F2 = frontier_batch(arrs["h22"], arrs["h21"])
    su1 = su_rate_batch(arrs["h11"], sigma1_sq)
    su2 = su_rate_batch(arrs["h22"], sigma2_sq)
    g_max, q1_star, q2_star = achievability_slack_batch(
        F1, F2, float(gamma_from_rate(r1)), float(gamma_from_rate(r2)), noise
    )
    tests = (r1 > su1, r2 > su2, g_max >= -FEASIBILITY_SLACK)
    return tests, (F1, F2, q1_star, q2_star), (su1, su2)


def classify(h, point, noise: tuple[float, float]) -> CaseLabel:
    """Case of a single realization at the rate point."""
    arrs = {key: getattr(h, key)[None, :] for key in CHANNEL_KEYS}
    tests, _, _ = _classify_stream(arrs, point, noise)
    for label, mask in zip(CaseLabel, split_cases(*tests)):
        if mask[0]:
            return label


def estimate_case_probs(
    source: SampleSource, point, noise: tuple[float, float]
) -> CaseProbabilities:
    """Empirical case distribution of the stream at the rate point."""
    tests, _, _ = _classify_stream(source.arrays(), point, noise)
    return CaseProbabilities.from_tests(*tests)


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
    r1, r2 = as_rate_point(point)
    bias = float(bias)
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    tests, operating_points, (su1, su2) = _classify_stream(source.arrays(), point, noise)
    a, b, c1, c2, d = split_cases(*tests)
    r1_witness, r2_witness = witness_rates_batch(*operating_points, noise)
    coin = np.random.default_rng(coin_seed).random(source.count)
    serve1 = d & (coin < bias)
    serve2 = d & ~serve1

    zeros = np.zeros(source.count)
    r1_ach = np.select([b, c1 | serve1], [r1_witness, su1], zeros)
    r2_ach = np.select([b, c2 | serve2], [r2_witness, su2], zeros)
    success1 = r1_ach >= r1 - RATE_SLACK
    success2 = r2_ach >= r2 - RATE_SLACK
    return PolicyOutcome(
        n_samples=source.count,
        bias=bias,
        coin_seed=int(coin_seed),
        success1=int(success1.sum()),
        success2=int(success2.sum()),
        count_a=int(a.sum()),
        count_b=int(b.sum()),
        count_c1=int(c1.sum()),
        count_c2=int(c2.sum()),
        count_d1=int(serve1.sum()),
        count_d2=int(serve2.sum()),
    )
