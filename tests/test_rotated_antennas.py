"""Rotated antennas, a metamorphic oracle for instantaneous rows.

A unitary change of basis at transmitter j maps its two channels h_j1, h_j2
to U_j^H h_j1, U_j^H h_j2 (`rotate`). Every beamformer w_j maps to U_j^H w_j
with the same norm, and every inner product |h^H w| is kept, so the
single-user rates, the frontiers and each realization's column are those of
the original in exact arithmetic, and so are the case decisions at every
rate point. In floating point the rotated stream takes another route
through the norms, the frontier inverse, the bracket and the Illinois
stage: the single-user rates agree within a few eps, the column values
within a small multiple of eps * max(1, |value|), and the joint decisions
outside the band about each threshold (test_swapped_users.in_band). At a
rate point with no row in the band the counts are equal.
"""

import json

import numpy as np

from miso_outage.channel import ChannelRealization, SampleSource
from miso_outage.cli import parse_config
from miso_outage.presets import demo_config
from miso_outage.regions import InstantaneousRegionPipeline

from conftest import realizations
from test_swapped_users import NOISE, RATES, ROWS, decisions

EPS = np.finfo(float).eps
# Measured on these 2000 demo rows: su1 and su2 within 3 eps, the column
# values within 30 eps * max(1, |value|).
SU_EPS = 8
COLUMN_EPS = 64


def random_unitary(rng, n: int) -> np.ndarray:
    """The Q factor of a complex Gaussian matrix."""
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def rotate(rows, U1: np.ndarray, U2: np.ndarray) -> list:
    """The realizations with transmitter j's channels h_j1, h_j2 mapped to
    U_j^H h_j1, U_j^H h_j2."""
    return [ChannelRealization(U1.conj().T @ h.h11, U1.conj().T @ h.h12,
                               U2.conj().T @ h.h21, U2.conj().T @ h.h22) for h in rows]


def within(a: np.ndarray, b: np.ndarray, ulps: int) -> bool:
    """a and b equal where either is infinite, and within ulps * eps *
    max(1, |a|) elsewhere."""
    finite = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~finite], b[~finite]):
        return False
    a, b = a[finite], b[finite]
    return bool(np.all(np.abs(a - b) <= ulps * EPS * np.maximum(1.0, np.abs(a))))


def test_rotated_antennas_keep_the_rows_and_counts():
    """2000 demo rows (seed 3), noise (0.4, 0.7), seeded random unitaries at
    both transmitters, a 12 x 12 grid on [0.05, 1.7]^2: su1 and su2 and
    every column agree within their stated eps, exceed1 and exceed2 are
    identical at every point, joint agrees on every row outside the band,
    and the counts (A, B, C1, C2, D) are equal at every point with no row
    in the band."""
    config = parse_config(json.dumps(demo_config("individual-inst", mc_samples=ROWS, seed=3)))
    rows = realizations(config.source, 0, ROWS)
    rng = np.random.default_rng(18)
    n = config.n
    rotated_rows = rotate(rows, random_unitary(rng, n), random_unitary(rng, n))
    ours = InstantaneousRegionPipeline(SampleSource.explicit(rows), NOISE)
    theirs = InstantaneousRegionPipeline(SampleSource.explicit(rotated_rows), NOISE)
    assert within(ours.su1, theirs.su1, SU_EPS)
    assert within(ours.su2, theirs.su2, SU_EPS)
    for r1 in RATES:
        assert within(ours.column(r1), theirs.column(r1), COLUMN_EPS), r1

    masks, counts, band = decisions(ours)
    masks2, counts2, band2 = decisions(theirs)
    disagreements = banded_rows = 0
    unequal = []
    for point, (exceed1, exceed2, joint) in masks.items():
        exceed1_2, exceed2_2, joint_2 = masks2[point]
        np.testing.assert_array_equal(exceed1, exceed1_2)
        np.testing.assert_array_equal(exceed2, exceed2_2)
        banded = band[point] | band2[point]
        disagreements += np.count_nonzero((joint != joint_2) & ~banded)
        banded_rows += np.count_nonzero(banded)
        if not banded.any() and counts[point] != counts2[point]:
            unequal.append(point)
    assert disagreements == 0
    # Measured: no row of this grid lies in the band, so every count is
    # compared.
    assert banded_rows == 0
    assert unequal == []
