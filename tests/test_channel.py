import math
import threading

import numpy as np
import pytest

from miso_outage import channel
from miso_outage.channel import (
    ChannelRealization,
    ChannelStatistics,
    SampleSource,
    ValidationError,
    factor_covariance,
    gaussian_sample_arrays,
    validate_statistics,
)

from conftest import random_psd, random_statistics, realizations


def simple_stats(n=2, sigma=1.0):
    eye = np.eye(n)
    return ChannelStatistics(
        n=n, Q11=eye, Q12=eye, Q21=eye, Q22=eye, sigma1_sq=sigma, sigma2_sq=sigma
    )


class TestRealization:
    def test_valid_vectors_coerced_complex(self):
        r = ChannelRealization([1.0, 2.0], [0.0, 1j], [1.0, 0.0], [2.0, 3.0])
        assert r.n == 2
        assert r.h11.dtype == np.complex128
        np.testing.assert_allclose(r.h12, [0.0, 1j])

    def test_matrix_rejected(self):
        with pytest.raises(ValidationError, match="h21"):
            ChannelRealization([1.0], [1.0], [[1.0]], [1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="h22"):
            ChannelRealization([1.0], [1.0], [1.0], [np.nan])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="h12"):
            ChannelRealization([1.0, 2.0], [1.0], [1.0, 0.0], [0.0, 1.0])


class TestStatisticsValidation:
    def test_valid_passes_through(self, rng):
        stats = random_statistics(rng)
        assert validate_statistics(stats) is stats

    def test_rank_deficient_is_legal(self):
        Q = np.array([[1.0, 1.0], [1.0, 1.0]])
        stats = simple_stats()
        stats.Q12 = Q.astype(complex)
        validate_statistics(stats)

    def test_non_hermitian_rejected(self):
        stats = simple_stats()
        stats.Q21 = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match="Q21"):
            validate_statistics(stats)

    def test_indefinite_rejected(self):
        stats = simple_stats()
        stats.Q22 = np.array([[1.0, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(ValidationError, match="Q22"):
            validate_statistics(stats)

    def test_wrong_shape_rejected(self):
        stats = simple_stats()
        stats.Q11 = np.eye(3, dtype=complex)
        with pytest.raises(ValidationError, match="Q11"):
            validate_statistics(stats)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_bad_noise_rejected(self, bad):
        stats = simple_stats()
        stats.sigma2_sq = bad
        with pytest.raises(ValidationError, match="sigma2_sq"):
            validate_statistics(stats)

    def test_covariances_are_decided_by_factor_covariance(self, monkeypatch):
        """validate_statistics runs no covariance test of its own: with
        factor_covariance stubbed to accept, an indefinite Q validates, and a
        factor_covariance error is raised with the key in front. The
        accepted factors are held by the statistics' covariance key, so the
        holder is emptied before the reject stub runs on the same
        statistics."""
        seen = []

        def accept(Q):
            seen.append(Q)
            return Q

        def forbidden(*args, **kwargs):
            raise AssertionError("validate_statistics decomposed a matrix")

        monkeypatch.setattr(channel, "factor_covariance", accept)
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        stats = simple_stats()
        stats.Q21 = np.diag([1.0, -0.5]).astype(complex)
        assert validate_statistics(stats) is stats
        assert [id(Q) for Q in seen] == [id(getattr(stats, k)) for k in channel.COVARIANCE_KEYS]

        def reject(Q):
            raise ValidationError("sentinel")

        channel._factors.clear()
        monkeypatch.setattr(channel, "factor_covariance", reject)
        with pytest.raises(ValidationError, match="^Q11: sentinel$"):
            validate_statistics(stats)


class TestFactorCovariance:
    def test_reconstructs_random_psd(self, rng):
        for _ in range(20):
            Q = random_psd(rng, 3)
            L = factor_covariance(Q)
            assert np.max(np.abs(L @ L.conj().T - Q)) <= 1e-9

    def test_reconstructs_rank_deficient(self, rng):
        for _ in range(10):
            Q = random_psd(rng, 3, rank=1)
            L = factor_covariance(Q)
            assert np.max(np.abs(L @ L.conj().T - Q)) <= 1e-9

    def test_zero_matrix(self):
        L = factor_covariance(np.zeros((2, 2)))
        np.testing.assert_allclose(L @ L.conj().T, np.zeros((2, 2)), atol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(ValidationError, match="indefinite"):
            factor_covariance(np.diag([1.0, -0.5]))

    def test_zero_covariance_samples_exact_zeros(self):
        stats = simple_stats()
        stats.Q12 = np.zeros((2, 2), dtype=complex)
        arrs = gaussian_sample_arrays(stats, seed=4, start=0, stop=500)
        assert not np.any(arrs["h12"])
        assert np.all(np.abs(arrs["h11"]) > 0.0)

    def test_rank_one_samples_stay_in_range(self, rng):
        for n in (2, 3, 4):
            for _ in range(20):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                stats = simple_stats(n)
                stats.Q21 = np.outer(u, u.conj())
                h21 = gaussian_sample_arrays(stats, seed=5, start=0, stop=200)["h21"]
                null_part = h21 - np.outer(h21 @ u.conj(), u) / np.vdot(u, u).real
                assert np.max(np.abs(null_part)) < 1e-12


class TestScaleFreeFactor:
    """factor_covariance's tolerances are relative to the matrix's scale:
    Q and 4^k Q give the same verdict and the factors L and 2^k L."""

    KS = (-100, -60, -40, -20, -5, 5, 14, 40, 100)

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_factor_scales_exactly(self, rng, rank):
        Q = random_psd(rng, 3, rank=rank)
        L = factor_covariance(Q)
        for k in self.KS:
            # equal values: a complex times a real scalar may flip a zero's sign
            assert np.array_equal(factor_covariance(4.0**k * Q), 2.0**k * L), k

    @pytest.mark.parametrize("Q, message", [
        (np.diag([1.0, -0.5]), "not positive semidefinite"),
        (np.array([[1.0, 1e-8], [0.0, 1.0]]), "not Hermitian"),
    ])
    def test_rejection_scales(self, Q, message):
        for k in (0, *self.KS):
            with pytest.raises(ValidationError, match=message):
                factor_covariance(4.0**k * Q)

    def test_rank_one_at_large_scale_samples_in_range(self, rng):
        """Rank-1 covariances at power scale 1e6 validate and sample in their
        range: rounding leaves asymmetry and negative eigenvalues of about
        1e-16 of the scale, which absolute tolerances of 1e-10 rejected."""
        for n in (2, 3, 4):
            for _ in range(10):
                u = 1e3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                stats = simple_stats(n)
                stats.Q21 = np.outer(u, u.conj())
                validate_statistics(stats)
                h21 = gaussian_sample_arrays(stats, seed=5, start=0, stop=200)["h21"]
                null_part = h21 - np.outer(h21 @ u.conj(), u) / np.vdot(u, u).real
                assert np.max(np.abs(null_part)) < 1e-12 * np.linalg.norm(u)

    def test_second_moments_at_picowatt_scale(self):
        """Q = 4^-20 diag(1, 0.005), about 1e-12: the weak direction is
        sampled, not cut off as rank deficiency (an absolute cut-off of
        1e-10 made every sample zero)."""
        s = 4.0**-20
        stats = simple_stats()
        stats.Q11 = s * np.diag([1.0, 0.005]).astype(complex)
        validate_statistics(stats)
        N = 20_000
        power = np.abs(gaussian_sample_arrays(stats, seed=8, start=0, stop=N)["h11"]) ** 2 / s
        for k, mean in enumerate((1.0, 0.005)):
            se = power[:, k].std() / math.sqrt(N)
            assert abs(power[:, k].mean() - mean) < 4.0 * se, k


class TestGaussianStream:
    def test_prefix_stability(self):
        stats = simple_stats()
        full = gaussian_sample_arrays(stats, seed=3, start=0, stop=1000)
        head = gaussian_sample_arrays(stats, seed=3, start=0, stop=100)
        for key in full:
            np.testing.assert_array_equal(head[key], full[key][:100])

    def test_offset_slice_matches_full_stream(self):
        stats = simple_stats(n=3)
        full = gaussian_sample_arrays(stats, seed=11, start=0, stop=200)
        mid = gaussian_sample_arrays(stats, seed=11, start=100, stop=200)
        for key in full:
            np.testing.assert_array_equal(mid[key], full[key][100:200])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_realization_matches_full_stream(self, rng, n):
        """numpy rounds a one-row matrix product differently from a many-row
        one; a one-row range must still equal its row of the stream."""
        stats = random_statistics(rng, n)
        full = gaussian_sample_arrays(stats, seed=6, start=0, stop=300)
        for k in range(0, 300, 7):
            one = gaussian_sample_arrays(stats, seed=6, start=k, stop=k + 1)
            for key in full:
                assert one[key].shape == (1, n)
                assert one[key].tobytes() == full[key][k:k + 1].tobytes()

    def test_seeds_differ(self):
        stats = simple_stats()
        a = gaussian_sample_arrays(stats, seed=1, start=0, stop=10)
        b = gaussian_sample_arrays(stats, seed=2, start=0, stop=10)
        assert np.max(np.abs(a["h11"] - b["h11"])) > 1e-6

    def test_empty_range(self):
        stats = simple_stats()
        out = gaussian_sample_arrays(stats, seed=0, start=5, stop=5)
        assert out["h11"].shape == (0, 2)

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            gaussian_sample_arrays(simple_stats(), seed=0, start=4, stop=2)

    def test_sample_covariance_converges(self, rng):
        n, N = 2, 200_000
        stats = random_statistics(rng, n)
        # keep covariances O(1) so one absolute tolerance fits all entries
        for key in ("Q11", "Q12", "Q21", "Q22"):
            Q = getattr(stats, key)
            setattr(stats, key, Q / np.trace(Q).real * n)
        arrs = gaussian_sample_arrays(stats, seed=99, start=0, stop=N)
        for key, h in arrs.items():
            emp = (h[:, :, None] * h[:, None, :].conj()).mean(axis=0)
            np.testing.assert_allclose(emp, stats.covariance(key), atol=0.02)

    def test_cross_channel_independence(self):
        stats = simple_stats()
        arrs = gaussian_sample_arrays(stats, seed=5, start=0, stop=200_000)
        cross = np.mean(arrs["h11"][:, 0] * np.conj(arrs["h22"][:, 0]))
        assert abs(cross) < 0.02



def inline_pieces(stats, seed, start, stop, piece=1000):
    """The stream start..stop-1 from calls too short to start a thread."""
    parts = [
        gaussian_sample_arrays(stats, seed, lo, min(lo + piece, stop))
        for lo in range(start, stop, piece)
    ]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


class TestThreadedFill:
    """A range long enough for several threads equals the same rows drawn by
    short single-threaded calls, byte for byte, at any CPU count. A thread
    is given from 4096 rows on here, so a short range takes several."""

    MIN_ROWS = 4096
    ROWS = 3 * MIN_ROWS + 5

    @pytest.fixture(autouse=True)
    def short_threads(self, monkeypatch):
        monkeypatch.setattr(channel, "_MIN_ROWS_PER_THREAD", self.MIN_ROWS)

    @pytest.mark.parametrize("n", [1, 3])
    def test_threaded_range_equals_inline_pieces(self, rng, n):
        stats = random_statistics(rng, n)
        start = 777
        whole = gaussian_sample_arrays(stats, 13, start, start + self.ROWS)
        pieces = inline_pieces(stats, 13, start, start + self.ROWS)
        for key in whole:
            assert whole[key].shape == (self.ROWS, n)
            assert whole[key].tobytes() == pieces[key].tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_any_cpu_count_gives_the_same_stream(self, rng, monkeypatch, cpus):
        stats = random_statistics(rng, 3)
        start = 4099
        pieces = inline_pieces(stats, 8, start, start + self.ROWS)
        monkeypatch.setattr(channel, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        whole = gaussian_sample_arrays(stats, 8, start, start + self.ROWS)
        # The region pool forks after sampling: no helper may outlive the call.
        assert threading.active_count() == before
        for key in whole:
            assert whole[key].tobytes() == pieces[key].tobytes()

    def test_helper_failure_is_raised_by_the_caller(self, monkeypatch):
        """A range a helper thread could not fill is an error, never a
        silently uninitialized block of the stream."""
        philox = np.random.Philox

        def first_range_only(key, counter):
            if counter:
                raise MemoryError("helper failed")
            return philox(key=key, counter=counter)

        monkeypatch.setattr(channel, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(np.random, "Philox", first_range_only)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="helper failed"):
            gaussian_sample_arrays(simple_stats(), 0, 0, self.ROWS)
        assert threading.active_count() == before


class TestSampleSource:
    def test_gaussian_source_matches_raw_stream(self):
        stats = simple_stats()
        src = SampleSource.gaussian(stats, seed=21, count=50)
        direct = gaussian_sample_arrays(stats, seed=21, start=10, stop=30)
        got = src.arrays(10, 30)
        for key in direct:
            np.testing.assert_array_equal(got[key], direct[key])

    def test_gaussian_validates_statistics(self):
        stats = simple_stats()
        stats.sigma1_sq = -1.0
        with pytest.raises(ValidationError):
            SampleSource.gaussian(stats, seed=0, count=10)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", -1), ("seed", 2**128), ("seed", True), ("seed", "3"),
        ("count", 2.7), ("count", False), ("count", np.float64(4.0)),
    ])
    def test_gaussian_rejects_bad_seed_and_count(self, name, value):
        """At construction and naming the field: a float seed would key the
        stream of its integer part, a negative one fail only at the first draw."""
        fields = {"seed": 1, "count": 10, name: value}
        with pytest.raises(ValueError, match=name):
            SampleSource.gaussian(simple_stats(), **fields)

    def test_gaussian_accepts_numpy_integers(self):
        src = SampleSource.gaussian(simple_stats(), seed=np.uint64(2**64 - 1), count=np.int32(3))
        assert (type(src.seed), type(src.count)) == (int, int)
        assert (src.seed, src.count) == (2**64 - 1, 3)
        largest = SampleSource.gaussian(simple_stats(), seed=2**128 - 1, count=2)
        assert largest.arrays()["h11"].shape == (2, 2)

    def test_explicit_round_trip(self, rng):
        rs = [
            ChannelRealization(*(rng.standard_normal(2) + 0j for _ in range(4)))
            for _ in range(5)
        ]
        src = SampleSource.explicit(rs)
        assert src.count == 5 and src.n == 2
        arrs = src.arrays()
        for k, r in enumerate(rs):
            np.testing.assert_array_equal(arrs["h12"][k], r.h12)
        back = realizations(src, 2, 4)
        np.testing.assert_array_equal(back[0].h11, rs[2].h11)

    def test_explicit_mismatched_n_rejected(self):
        r2 = ChannelRealization([1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0])
        r3 = ChannelRealization([1.0] * 3, [1.0] * 3, [1.0] * 3, [1.0] * 3)
        with pytest.raises(ValidationError, match="realization 1"):
            SampleSource.explicit([r2, r3])

    def test_explicit_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSource.explicit([])

    def test_range_outside_stream_raises(self):
        src = SampleSource.gaussian(simple_stats(), seed=0, count=10)
        with pytest.raises(ValueError):
            src.arrays(0, 11)
