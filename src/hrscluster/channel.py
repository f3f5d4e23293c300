"""Correlated Rayleigh channel generation for a uniform circular array.

Spatial covariances follow a one-ring scattering model: energy arrives
uniformly from the angular sector [theta - spread, theta + spread], so

    R = (1 / 2*spread) * integral over the sector of a(phi) a(phi)^H dphi

with a(phi) the array steering vector. Channels are drawn by coloring i.i.d.
circularly symmetric Gaussian innovations with U diag(sqrt(lambda)), and
imperfect receiver-side estimates blend those innovations with fresh noise
inside the same subspace:

    h_hat = U diag(sqrt(lambda)) (sqrt(1 - tau^2) g + tau z)

tau = 0 reproduces the true channel bit for bit; tau = 1 keeps only the
second-order statistics. A covariance keeps only R and its eigenpairs, not
the sector it was integrated over; a channel set does not record its tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, NumericalConsistencyError

EIGENVALUE_CLAMP_REL = 1e-12
HERMITIAN_TOL = 1e-10
INTEGRATION_POINTS = 512  # midpoints of the sector integral


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna element positions, in wavelengths, on a circle at the origin."""

    element_positions: np.ndarray  # (M, 2)

    @staticmethod
    def uca(num_elements: int) -> "ArrayGeometry":
        """Uniform circular array with half-wavelength chord spacing.

        Adjacent elements sit lambda/2 apart along the chord, which fixes the
        radius at 0.25 / sin(pi / M). A single element degenerates to the
        origin.
        """
        m = int(num_elements)
        if m < 1:
            raise ConfigurationError("array needs at least one element")
        if m == 1:
            pos = np.zeros((1, 2))
        else:
            radius = 0.25 / np.sin(np.pi / m)
            angles = 2.0 * np.pi * np.arange(m) / m
            pos = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pos.setflags(write=False)
        return ArrayGeometry(pos)

    def steering(self, phi) -> np.ndarray:
        """Steering vector(s) exp(j 2 pi <p_m, u(phi)>) for azimuth(s) phi."""
        phi = np.asarray(phi, dtype=float)
        direction = np.stack([np.cos(phi), np.sin(phi)])
        return np.exp(2j * np.pi * (self.element_positions @ direction))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Hermitian PSD channel covariance with its eigendecomposition attached.

    Eigenvalues are sorted descending and clamped at zero; values below
    1e-12 of the largest are treated as exact zeros (narrow angular sectors
    make R numerically rank deficient by design).
    """

    R: np.ndarray
    U: np.ndarray
    Lambda: np.ndarray

    @staticmethod
    def from_matrix(R: np.ndarray) -> "CovarianceMatrix":
        R = np.asarray(R, dtype=complex)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ConfigurationError(f"covariance must be square, got {R.shape}")
        herm_err = np.abs(R - R.conj().T).max()
        if herm_err > HERMITIAN_TOL:
            raise NumericalConsistencyError(
                f"covariance deviates from Hermitian by {herm_err:.3e}"
            )
        R = 0.5 * (R + R.conj().T)
        eigvals, eigvecs = np.linalg.eigh(R)
        if eigvals.min() < -1e-10:
            raise NumericalConsistencyError(
                f"covariance has negative eigenvalue {eigvals.min():.3e}"
            )
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order].copy()
        eigvecs = eigvecs[:, order].copy()
        top = max(eigvals.max(initial=0.0), 0.0)
        eigvals[eigvals < top * EIGENVALUE_CLAMP_REL] = 0.0
        np.clip(eigvals, 0.0, None, out=eigvals)
        for a in (R, eigvecs, eigvals):
            a.setflags(write=False)
        return CovarianceMatrix(R, eigvecs, eigvals)

    @property
    def num_antennas(self) -> int:
        return self.R.shape[0]

    def coloring_matrix(self) -> np.ndarray:
        """U diag(sqrt(lambda)), the square root used to color innovations."""
        return self.U * np.sqrt(self.Lambda)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of true and estimated channels for N users.

    ``innovations`` keeps the pre-coloring Gaussian draws so the estimate can
    be re-derived for any tau without touching the true channel.
    """

    H_true: np.ndarray
    H_hat: np.ndarray
    cov_assignment: tuple[int, ...]
    innovations: np.ndarray = field(repr=False)
    covariances: tuple[CovarianceMatrix, ...] = field(repr=False)


def build_covariance(geometry: ArrayGeometry, azimuth: float, spread: float) -> CovarianceMatrix:
    """One-ring covariance for a uniform sector, midpoint-rule integration
    over INTEGRATION_POINTS points.

    Each steering vector has unit per-element magnitude, so trace(R) equals
    the number of antennas exactly (per-antenna average gain of one).
    """
    if spread <= 0:
        raise ConfigurationError("angular spread must be positive")
    n = INTEGRATION_POINTS
    step = 2.0 * spread / n
    phis = azimuth - spread + (np.arange(n) + 0.5) * step
    A = geometry.steering(phis)  # (M, n)
    R = (A @ A.conj().T) / n
    return CovarianceMatrix.from_matrix(R)


def sample_channels(
    covs: list[CovarianceMatrix] | tuple[CovarianceMatrix, ...],
    assignment,
    rng_seed,
) -> ChannelSet:
    """Draw correlated channels; column k is colored from covariance
    ``covs[assignment[k]]``. The returned set has a perfect estimate
    (tau = 0, H_hat is H_true). ``rng_seed`` is anything
    ``np.random.default_rng`` accepts; generation passes a tuple of ints."""
    covs = tuple(covs)
    if not covs:
        raise ConfigurationError("need at least one covariance")
    m = covs[0].num_antennas
    if any(c.num_antennas != m for c in covs):
        raise ConfigurationError("covariances disagree on antenna count")
    assignment = tuple(int(a) for a in assignment)
    if any(a < 0 or a >= len(covs) for a in assignment):
        raise ConfigurationError("covariance assignment index out of range")
    n = len(assignment)
    rng = np.random.default_rng(rng_seed)
    g = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)
    h = _color(covs, assignment, g)
    return ChannelSet(h, h, assignment, g, covs)


def corrupt_csi(channels: ChannelSet, tau: float, rng_seed) -> ChannelSet:
    """Replace the estimate with one of quality tau in [0, 1].

    Uses the stored innovations of the true channel plus fresh in-subspace
    noise; the true channel is untouched. ``rng_seed`` is anything
    ``np.random.default_rng`` accepts, as for ``sample_channels``.
    """
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must lie in [0, 1], got {tau}")
    rng = np.random.default_rng(rng_seed)
    shape = channels.innovations.shape
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    g_hat = np.sqrt(1.0 - tau**2) * channels.innovations + tau * z
    h_hat = _color(channels.covariances, channels.cov_assignment, g_hat)
    return replace(channels, H_hat=h_hat)


def _color(covs, assignment, g: np.ndarray) -> np.ndarray:
    out = np.zeros_like(g)
    assignment = np.asarray(assignment)
    for a in np.unique(assignment):
        idx = np.flatnonzero(assignment == a)
        out[:, idx] = covs[a].coloring_matrix() @ g[:, idx]
    return out
