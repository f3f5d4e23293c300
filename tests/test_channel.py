import numpy as np
import pytest

from hrscluster.channel import (
    ArrayGeometry,
    CovarianceMatrix,
    build_covariance,
    corrupt_csi,
    sample_channels,
)
from hrscluster.errors import ConfigurationError, NumericalConsistencyError


def test_uca_geometry_on_common_circle():
    geom = ArrayGeometry.uca(8)
    radii = np.linalg.norm(geom.element_positions, axis=1)
    assert np.allclose(radii, radii[0])
    angles = np.arctan2(geom.element_positions[:, 1], geom.element_positions[:, 0])
    gaps = np.diff(np.unwrap(angles))
    assert np.allclose(gaps, 2 * np.pi / 8)
    # adjacent chord spacing is half a wavelength
    chord = np.linalg.norm(geom.element_positions[1] - geom.element_positions[0])
    assert chord == pytest.approx(0.5, abs=1e-12)


def test_single_antenna_covariance_is_unit_scalar():
    geom = ArrayGeometry.uca(1)
    cov = build_covariance(geom, azimuth=0.3, spread=np.pi / 6)
    assert cov.R.shape == (1, 1)
    assert cov.R[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_trace_equals_antenna_count():
    geom = ArrayGeometry.uca(8)
    cov = build_covariance(geom, azimuth=-np.pi / 2, spread=np.pi / 6)
    assert np.trace(cov.R).real == pytest.approx(8.0, abs=1e-6)


def test_covariance_psd_and_reconstruction_across_settings():
    for m in (2, 4, 8):
        geom = ArrayGeometry.uca(m)
        for theta in (-np.pi / 2, 0.0, 1.1):
            for spread in (np.pi / 24, np.pi / 6, np.pi / 3):
                cov = build_covariance(geom, theta, spread)
                raw_eigs = np.linalg.eigvalsh(cov.R)
                assert raw_eigs.min() >= -1e-10
                assert cov.Lambda.min() >= 0.0
                recon = (cov.U * cov.Lambda) @ cov.U.conj().T
                assert np.linalg.norm(recon - cov.R) <= 1e-8
                assert np.all(np.diff(cov.Lambda) <= 1e-15)


def test_separated_sectors_have_weak_dominant_overlap():
    # oracle computed directly from the two covariances, no precoder code
    geom = ArrayGeometry.uca(8)
    c1 = build_covariance(geom, -np.pi / 2, np.pi / 6)
    c2 = build_covariance(geom, -np.pi / 2 + np.pi / 3, np.pi / 6)
    p1 = c1.U[:, :2] @ c1.U[:, :2].conj().T
    p2 = c2.U[:, :2] @ c2.U[:, :2].conj().T
    overlap = np.trace(p1 @ p2).real / 2
    assert 0.0 <= overlap < 0.5


def test_build_covariance_input_validation():
    geom = ArrayGeometry.uca(4)
    with pytest.raises(ConfigurationError):
        build_covariance(geom, 0.0, spread=0.0)


def test_from_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalConsistencyError):
        CovarianceMatrix.from_matrix(bad)


def test_sampling_second_moment_matches_identity():
    # Monte Carlo: 1e5 draws from R = I, empirical covariance within 2 %
    cov = CovarianceMatrix.from_matrix(np.eye(2))
    draws = 100_000
    channels = sample_channels([cov], [0] * draws, rng_seed=5)
    emp = channels.H_true @ channels.H_true.conj().T / draws
    assert np.abs(emp - np.eye(2)).max() < 0.02


def test_sampling_matches_correlated_covariance_within_3se():
    geom = ArrayGeometry.uca(4)
    cov = build_covariance(geom, 0.4, np.pi / 6)
    draws = 100_000
    channels = sample_channels([cov], [0] * draws, rng_seed=6)
    emp = channels.H_true @ channels.H_true.conj().T / draws
    d = np.sqrt(np.outer(np.diag(cov.R).real, np.diag(cov.R).real))
    assert np.all(np.abs(emp - cov.R) <= 3.0 * d / np.sqrt(draws) + 1e-12)


def test_zero_covariance_gives_zero_columns():
    cov = CovarianceMatrix.from_matrix(np.zeros((3, 3)))
    channels = sample_channels([cov], [0, 0], rng_seed=1)
    assert np.all(channels.H_true == 0)


def test_sampling_deterministic_for_fixed_seed():
    cov = CovarianceMatrix.from_matrix(np.eye(3))
    a = sample_channels([cov], [0, 0, 0, 0], rng_seed=42)
    b = sample_channels([cov], [0, 0, 0, 0], rng_seed=42)
    assert a.H_true.tobytes() == b.H_true.tobytes()


def test_sampling_rejects_mixed_dimensions():
    c2 = CovarianceMatrix.from_matrix(np.eye(2))
    c3 = CovarianceMatrix.from_matrix(np.eye(3))
    with pytest.raises(ConfigurationError):
        sample_channels([c2, c3], [0, 1], rng_seed=0)
    with pytest.raises(ConfigurationError):
        sample_channels([c2], [0, 1], rng_seed=0)


def test_tau_zero_is_bitwise_perfect_estimate():
    cov = CovarianceMatrix.from_matrix(np.eye(4))
    channels = sample_channels([cov], [0] * 3, rng_seed=9)
    corrupted = corrupt_csi(channels, 0.0, rng_seed=10)
    assert corrupted.H_hat.tobytes() == channels.H_true.tobytes()


def test_tau_one_keeps_covariance_but_forgets_innovations():
    geom = ArrayGeometry.uca(4)
    cov = build_covariance(geom, 0.2, np.pi / 5)
    draws = 40_000
    channels = sample_channels([cov], [0] * draws, rng_seed=11)
    corrupted = corrupt_csi(channels, 1.0, rng_seed=12)
    emp = corrupted.H_hat @ corrupted.H_hat.conj().T / draws
    d = np.sqrt(np.outer(np.diag(cov.R).real, np.diag(cov.R).real))
    assert np.all(np.abs(emp - cov.R) <= 4.0 * d / np.sqrt(draws) + 1e-12)
    # estimate decorrelated from the true innovations
    cross = np.abs(np.vdot(corrupted.H_hat, channels.H_true)) / (
        np.linalg.norm(corrupted.H_hat) * np.linalg.norm(channels.H_true)
    )
    assert cross < 0.05


def test_partial_tau_alignment_between_endpoints():
    # E[|h_hat^H h| / (|h_hat||h|)] decreases from tau=0 to tau=1
    cov = CovarianceMatrix.from_matrix(np.eye(4))
    draws = 10_000
    channels = sample_channels([cov], [0] * draws, rng_seed=13)

    def mean_alignment(tau):
        c = corrupt_csi(channels, tau, rng_seed=14)
        num = np.abs(np.sum(c.H_hat.conj() * channels.H_true, axis=0))
        den = np.linalg.norm(c.H_hat, axis=0) * np.linalg.norm(channels.H_true, axis=0)
        return float(np.mean(num / den))

    a0 = mean_alignment(0.0)
    a_mid = mean_alignment(np.sqrt(0.4))
    a1 = mean_alignment(1.0)
    assert a0 == pytest.approx(1.0, abs=1e-12)
    assert a1 < a_mid < a0


def test_estimate_continuous_in_tau_for_fixed_noise():
    cov = CovarianceMatrix.from_matrix(np.eye(3))
    channels = sample_channels([cov], [0, 0], rng_seed=15)
    for tau in (0.0, 0.3, 0.9):
        h = corrupt_csi(channels, tau, rng_seed=16).H_hat
        h_eps = corrupt_csi(channels, tau + 1e-9, rng_seed=16).H_hat
        assert np.linalg.norm(h_eps - h) < 1e-6


def test_corrupt_rejects_bad_tau():
    cov = CovarianceMatrix.from_matrix(np.eye(2))
    channels = sample_channels([cov], [0], rng_seed=17)
    for bad in (-0.1, 1.5):
        with pytest.raises(ConfigurationError):
            corrupt_csi(channels, bad, rng_seed=18)


def test_corrupt_leaves_true_channel_untouched():
    cov = CovarianceMatrix.from_matrix(np.eye(2))
    channels = sample_channels([cov], [0, 0], rng_seed=19)
    before = channels.H_true.tobytes()
    corrupted = corrupt_csi(channels, 0.7, rng_seed=20)
    assert channels.H_true.tobytes() == before
    assert corrupted.H_true.tobytes() == before
