"""Per-realization case classification and Monte-Carlo outage estimation.

For a target rate pair (r1, r2) every channel realization falls in exactly one
of five cases:

    A  : both targets exceed their single-user rates (neither link can succeed)
    B  : (r1, r2) is jointly achievable
    C1 : r1 is below its single-user rate, r2 is not (only link 1 can succeed)
    C2 : mirror image of C1
    D  : both targets are individually below the single-user rates but the
         pair is not jointly achievable (exactly one link can be served)

Every case, of one realization or of a whole stream, is counted by
regions.Column.case_probs, from the comparisons (exceed1, exceed2, joint) of
the Column at r1: exceed1 = r1 > su1 is also the column kernel's set of empty
rows, and joint compares r2 with the column, the realization's largest
achievable r2 at r1. So joint implies not exceed1, and case B is joint
itself. classify returns the case whose count is 1 on a batch-of-one
Column, and is_achievable decides case B on the same Column, with witness
beamformers at case B's operating point.

The transmission policy serves both links in case B at the column's
operating point (regions.Column's maximizer q2*, with transmitter 1 at the
least interference that reaches r1), serves the feasible link with its
matched filter (other transmitter off) in C1/C2, switches both off in A,
and in D serves link 1 with probability p (a biased coin independent of the
channels) and link 2 otherwise. Link i then succeeds exactly on B, Ci and
its share of D. A served link in C_i or D succeeds by definition: there r_i
is at most su_i, its matched-filter rate, and the target r_i - RATE_SLACK
rounds to at most r_i. On B the achieved rates are the witness rates at
the operating point, which the witness contract (rate_core.WITNESS_MARGIN)
ties to the targets: link 1's is at least r1 less a margin far below
RATE_SLACK, so link 1 succeeds on every case-B row, and link 2's is within
the margin of the column value, so link 2 succeeds wherever that value
passes r2 - RATE_SLACK by the margin. Link 2's witness rate is computed,
and compared with its target, only on the other case-B rows
(witness_unsettled), whose column value lies within the margin above the
threshold; at the benchmark's query points there are none.

The coin is independent of the channels, so at a fixed rate point every
realization's case and every success outside case D are the same at every
bias p; only case D's coin comparisons change with p. simulate_policy is
factored that way: the bias-free part (PolicySplit: the Column's case
counts, the successes outside case D and case D's coins) is taken once per
rate point and coin seed and held on the column at r1, and a simulate at
bias p counts only the case-D rows whose coin is below p.

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
from .rate_core import (
    RATE_SLACK,
    WITNESS_MARGIN,
    as_rate_point,
    frontier_point,
    power_frontier,
    rate_bf,
)
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

    A case distribution is its integer counts over n_samples >= 1 samples,
    built by from_counts (regions.Column.case_probs gives every command's);
    the membership margins read the counts, and the float estimates are
    derived from them. Counts are exact integers summing to n_samples;
    count_d is their complement. p_d is the float complement of the other
    four estimates, which makes the five estimates sum to exactly 1.0 in
    floating point (the complement can differ from count_d / n_samples by
    about one ulp, far below any standard error). p_su_exceed_i estimates Pr{r_i > single-user rate of
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

    @property
    def count_d(self) -> int:
        return self.n_samples - (self.count_a + self.count_b + self.count_c1 + self.count_c2)

    @property
    def counts(self) -> tuple:
        """(A, B, C1, C2, D), in CaseLabel order."""
        return self.count_a, self.count_b, self.count_c1, self.count_c2, self.count_d

    def as_dict(self) -> dict:
        estimates = {
            "p_a": self.p_a,
            "p_b": self.p_b,
            "p_c1": self.p_c1,
            "p_c2": self.p_c2,
            "p_d": self.p_d,
        }
        return {
            "n_samples": self.n_samples,
            "counts": dict(zip(("a", "b", "c1", "c2", "d"), self.counts)),
            "estimates": estimates,
            # Binomial standard errors.
            "standard_errors": {
                key: math.sqrt(max(p * (1.0 - p), 0.0) / self.n_samples)
                for key, p in estimates.items()
            },
            "su_exceedance": {
                "p1": self.p_su_exceed1,
                "p2": self.p_su_exceed2,
            },
        }


def count_true(mask: np.ndarray) -> int:
    """Number of set entries of a boolean mask, as a Python int."""
    return int(np.count_nonzero(mask))


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place."""
    array.flags.writeable = False
    return array


def classify(h, point, noise: tuple[float, float]) -> CaseLabel:
    """Case of a single realization at the rate point: the one case counted
    on its batch-of-one Column."""
    counts = estimate_case_probs(SampleSource.explicit([h]), point, noise).counts
    return list(CaseLabel)[counts.index(1)]


@dataclass
class FeasibilityWitness:
    """Whether a rate pair is achievable on one realization, with a
    constructive certificate.

    achievable is classify's case B. column_margin is the column at r1 minus
    r2, in bits: -inf above link 1's single-user rate, and achievable iff it
    is >= -RATE_SLACK. w1 and w2 are frontier beamformers at case B's
    operating point (transmitter 2 at the column's maximizer q2*,
    transmitter 1 at the least interference that reaches r1), or zero where
    the column is empty; margin is min_i (achieved rate_i - r_i) on them.
    """

    achievable: bool
    w1: np.ndarray
    w2: np.ndarray
    r1_achieved: float
    r2_achieved: float
    margin: float
    column_margin: float


def is_achievable(h, point, noise: tuple[float, float]) -> FeasibilityWitness:
    """Decide whether the rate pair lies in the realization's achievable
    region: case B's count on the batch-of-one Column that classify reads,
    so achievable equals classify(h, point, noise) is CaseLabel.B.

    Non-strict convention: the region is treated as comprehensive (rates may
    be reduced), and r2 may pass the column by RATE_SLACK.
    """
    from .regions import InstantaneousRegionPipeline

    r1, r2 = as_rate_point(point)
    pipeline = InstantaneousRegionPipeline(SampleSource.explicit([h]), noise)
    achievable = pipeline.case_probs(r1, r2).count_b == 1
    pipeline.witness_rates(r1)
    column = pipeline._column(r1)
    value = float(column.values[0])
    w1 = w2 = np.zeros(h.n, dtype=np.complex128)
    if value > -math.inf:
        w1 = frontier_point(power_frontier(h.h11, h.h12), float(column.q1[0]))
        w2 = frontier_point(power_frontier(h.h22, h.h21), float(column.q2[0]))
    r1_ach = rate_bf(h, w1, w2, 1, pipeline.noise[0])
    r2_ach = rate_bf(h, w1, w2, 2, pipeline.noise[1])
    return FeasibilityWitness(achievable, w1, w2, r1_ach, r2_ach,
                              min(r1_ach - r1, r2_ach - r2), value - r2)


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


@dataclass(frozen=True)
class PolicySplit:
    """The bias-free part of the policy's outcome at one rate point and coin
    seed, from which the outcome at any bias p follows.

    At a fixed rate point every realization's case, and every success
    outside case D, do not depend on p: only case D's coin comparisons do.
    So this holds the Column's case counts (probs), each link's successes
    outside case D (on B where its witness rate meets the target, on its own
    C case, and, where r_i <= RATE_SLACK, on the rows where its achieved rate
    is 0), whether that last term holds (idle1, idle2) and the coin draw of
    each case-D row, read-only. A served link succeeds on every case-D row.
    """

    probs: CaseProbabilities
    coin_seed: int
    success1: int
    success2: int
    idle1: bool
    idle2: bool
    coin: np.ndarray

    def outcome(self, bias: float) -> PolicyOutcome:
        """The outcome with link 1 served on the case-D rows whose coin < bias."""
        probs = self.probs
        count_d1 = count_true(self.coin < bias)
        count_d2 = self.coin.size - count_d1
        return PolicyOutcome(
            n_samples=probs.n_samples,
            bias=bias,
            coin_seed=self.coin_seed,
            success1=self.success1 + (self.coin.size if self.idle1 else count_d1),
            success2=self.success2 + (self.coin.size if self.idle2 else count_d2),
            count_a=probs.count_a,
            count_b=probs.count_b,
            count_c1=probs.count_c1,
            count_c2=probs.count_c2,
            count_d1=count_d1,
            count_d2=count_d2,
        )


def witness_unsettled(values: np.ndarray, joint: np.ndarray, r2: float) -> np.ndarray:
    """The case-B rows (joint) on which the witness contract leaves link 2's
    success open, in increasing order: those whose column value does not
    pass r2 - RATE_SLACK by WITNESS_MARGIN * max(1, |value|). values may be
    a lower bound of the column on rows that are not exact: link 2's
    witness rate is within the margin of the exact value, and the value
    less its margin only grows with the value."""
    margin = WITNESS_MARGIN * np.maximum(1.0, np.abs(values))
    return np.flatnonzero(joint & (values - margin < r2 - RATE_SLACK))


def split_policy(probs: CaseProbabilities, masks: tuple, rate2: np.ndarray, point: tuple,
                 coin_seed: int) -> PolicySplit:
    """The PolicySplit at a rate point from the Column's case counts there,
    its (exceed1, exceed2, joint) masks and link 2's witness rates on the
    witness_unsettled rows.

    Link i succeeds where its achieved rate is >= r_i - RATE_SLACK: on B
    where its witness rate is, on Ci and on the D rows that serve it always
    (see the module docstring), and elsewhere, at achieved rate 0, only
    where r_i <= RATE_SLACK. By the witness contract (rate_core.
    WITNESS_MARGIN) link 1 succeeds on every case-B row, and link 2 on every
    one but the unsettled rows, where rate2 decides. The coin stream has one
    draw per sample, indexed by absolute position, of which case D's rows,
    those of no other case, keep theirs.
    """
    r1, r2 = point
    need1, need2 = r1 - RATE_SLACK, r2 - RATE_SLACK
    idle1, idle2 = 0.0 >= need1, 0.0 >= need2
    exceed1, exceed2, joint = masks
    d = ~(exceed1 | exceed2 | joint)
    return PolicySplit(
        probs,
        coin_seed,
        success1=probs.count_b + probs.count_c1
        + (probs.count_a + probs.count_c2 if idle1 else 0),
        success2=probs.count_b - rate2.size + count_true(rate2 >= need2) + probs.count_c2
        + (probs.count_a + probs.count_c1 if idle2 else 0),
        idle1=idle1,
        idle2=idle2,
        coin=read_only(np.random.default_rng(coin_seed).random(d.size)[d]),
    )


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
    coin seeds regardless of any batching. The bias-free part (PolicySplit)
    is taken once per rate point and coin seed and held on the pipeline's
    column at r1, so a bias sweep at one point counts only case D's coins.
    """
    from .regions import InstantaneousRegionPipeline

    r1, r2 = as_rate_point(point)
    bias = float(bias)
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    pipeline = InstantaneousRegionPipeline(source, noise)
    return pipeline.policy_split(r1, r2, coin_seed).outcome(bias)
