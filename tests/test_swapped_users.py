"""Swapped users, a metamorphic oracle for instantaneous rows.

Relabelling the users maps each realization (h11, h12, h21, h22) and the
noise powers (sigma1^2, sigma2^2) to (h22, h21, h12, h11) and
(sigma2^2, sigma1^2) (`mirror`). The paper's definitions are symmetric in
the users, so case (A, B, C1, C2, D) at (r1, r2) becomes (A, B, C2, C1, D)
at (r2, r1). On the swapped stream joint achievability is decided by the
other transmitter's column, column'(r2) >= r1 - RATE_SLACK in place of
column(r1) >= r2 - RATE_SLACK: a second route through the frontier
inverse, the bracket and the Illinois stage.

In exact arithmetic column(r1) >= r2 iff column'(r2) >= r1. Each column
value is within GOLDEN_VALUE_TOL * max(1, |value|) of the exact one, and
the slack moves each threshold by RATE_SLACK, so the two routes can
disagree on a row only where its column value lies within
RATE_SLACK + 2 GOLDEN_VALUE_TOL * max(1, |threshold|) of its threshold's
rate (r2 on the first route, r1 on the swapped one), on either route: the
band. Outside it the per-row decisions agree, and at a rate point with no
row in the band the counts mirror exactly.
"""

import json

import numpy as np

from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.cli import parse_config
from miso_outage.presets import demo_config
from miso_outage.rate_core import GOLDEN_VALUE_TOL, RATE_SLACK
from miso_outage.regions import InstantaneousRegionPipeline

from conftest import realizations

ROWS = 2000
NOISE = (0.4, 0.7)
RATES = np.linspace(0.05, 1.7, 12)


def mirror(rows, noise) -> tuple:
    """The realizations and noise powers with the users swapped."""
    swapped = [ChannelRealization(h.h22, h.h21, h.h12, h.h11) for h in rows]
    return swapped, (noise[1], noise[0])


def in_band(values: np.ndarray, rate: float) -> np.ndarray:
    """The rows whose column value lies within the band of the threshold
    at the given rate."""
    return np.abs(values - rate) <= RATE_SLACK + 2.0 * GOLDEN_VALUE_TOL * max(1.0, rate)


def decisions(pipeline) -> tuple:
    """Per rate pair (r1, r2) of RATES x RATES on this pipeline's stream:
    the masks (exceed1, exceed2, joint) of case_tests, the five case counts,
    and the rows in the band, from its exact column at r1."""
    masks, counts, band = {}, {}, {}
    for r1 in RATES:
        for r2 in RATES:
            masks[r1, r2] = pipeline.case_tests(r1, r2)
            probs = pipeline.case_probs(r1, r2)
            counts[r1, r2] = (probs.count_a, probs.count_b, probs.count_c1, probs.count_c2,
                              probs.count_d)
        values = pipeline.column(r1)
        for r2 in RATES:
            band[r1, r2] = in_band(values, r2)
    return masks, counts, band


def test_swapped_users_mirror_the_rows_and_counts():
    """2000 demo rows (seed 3), noise (0.4, 0.7), a 12 x 12 grid on
    [0.05, 1.7]^2: su1 and su2 swap bit for bit, exceed1 and exceed2 swap
    at every point, joint agrees at (r1, r2) and (r2, r1) on every row
    outside the band, and the counts (A, B, C1, C2, D) mirror as
    (A, B, C2, C1, D) at every point with no row in the band."""
    config = parse_config(json.dumps(demo_config("individual-inst", mc_samples=ROWS, seed=3)))
    rows = realizations(config.source, 0, ROWS)
    swapped_rows, swapped_noise = mirror(rows, NOISE)
    ours = InstantaneousRegionPipeline(SampleSource.explicit(rows), NOISE)
    theirs = InstantaneousRegionPipeline(SampleSource.explicit(swapped_rows), swapped_noise)
    assert theirs.su1.tobytes() == ours.su2.tobytes()
    assert theirs.su2.tobytes() == ours.su1.tobytes()

    masks, counts, band = decisions(ours)
    masks2, counts2, band2 = decisions(theirs)
    disagreements = banded_rows = 0
    unmirrored = []
    for r1 in RATES:
        for r2 in RATES:
            exceed1, exceed2, joint = masks[r1, r2]
            exceed1_2, exceed2_2, joint_2 = masks2[r2, r1]
            np.testing.assert_array_equal(exceed1, exceed2_2)
            np.testing.assert_array_equal(exceed2, exceed1_2)
            banded = band[r1, r2] | band2[r2, r1]
            disagreements += np.count_nonzero((joint != joint_2) & ~banded)
            banded_rows += np.count_nonzero(banded)
            a, b, c1, c2, d = counts2[r2, r1]
            if not banded.any() and counts[r1, r2] != (a, b, c2, c1, d):
                unmirrored.append((r1, r2))
    assert disagreements == 0
    # Measured: no row of this grid lies in the band, so every count is
    # compared. Case B holds 117 different counts over the grid.
    assert banded_rows == 0
    assert unmirrored == []
