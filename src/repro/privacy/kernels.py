"""Noise kernels: the single home of every noise-sampling code path.

A :class:`NoiseKernel` is a pure sampling object — it owns the calibration
(scale, sigma, success probability, bound) but *not* the random stream:
every draw comes from a caller-supplied :class:`numpy.random.Generator`.
That split is what makes the layering auditable:

* the **kernel** is the only place the noise distribution is implemented,
* the **answerer / mechanism** owns the RNG stream and the true statistic,
* the **accountant** charges the :class:`~repro.privacy.accounting.PrivacySpend`
  recorded next to the kernel in a :class:`MechanismSpec`,
* the **verifier** (:func:`repro.dp.verify.verify_spec`) empirically tests
  the very same spec object the accountant charged.

Each kernel has a caller outside the tests: Laplace (the Theorem 1.3
mechanism, the Laplace answerer, the synthesizers), Gaussian (the Gaussian
answerer and DP-SGD), geometric (the hierarchical synthesizer), the two
bounded-noise shapes (the bounded-noise answerer) and zero (the noiseless
answerers).

Bit-identity contract
---------------------
For every kernel and every ``Generator`` state, ``sample_n(rng, m)``
consumes the stream exactly as ``m`` successive ``sample(rng)`` calls
would and returns the identical floating-point bits.  The vectorized
answering path (:meth:`repro.queries.mechanism.QueryAnswerer.answer_workload`)
and all golden-output tests rely on this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.privacy.accounting import PrivacySpend

__all__ = [
    "BoundedExtremesKernel",
    "BoundedUniformKernel",
    "GaussianKernel",
    "GeometricKernel",
    "LaplaceKernel",
    "MechanismSpec",
    "NoiseKernel",
    "ZeroKernel",
]

class NoiseKernel(ABC):
    """A calibrated noise distribution with scalar and vectorized draws.

    Subclasses hold their calibration as read-only attributes and implement
    two methods that share one stream contract: ``sample_n(rng, m)`` is
    bit-identical to stacking ``m`` calls of ``sample(rng)``.
    """

    #: Short stable identifier, e.g. ``"laplace"`` — used in spec names.
    name: str = "noise"

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one noise value from ``rng``."""

    @abstractmethod
    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        """Draw ``size`` noise values from ``rng``, stream-identical to a
        ``sample`` loop in C order."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ZeroKernel(NoiseKernel):
    """The no-noise kernel: returns exact zeros and consumes no randomness.

    Exact, rounding, and subsampling answerers use it so that *every*
    answerer carries a kernel — the degenerate mechanisms are specs too.
    """

    name = "zero"

    def sample(self, rng: np.random.Generator) -> float:
        return 0.0

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return np.zeros(size, dtype=np.float64)


class LaplaceKernel(NoiseKernel):
    """Laplace noise with a fixed scale ``b``: density ``exp(-|x|/b) / 2b``.

    :meth:`calibrate` is the one implementation of the Theorem 1.3
    calibration ``b = sensitivity / epsilon`` — mechanisms and answerers
    must route through it rather than re-deriving the scale.
    """

    name = "laplace"

    def __init__(self, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = float(scale)

    @classmethod
    def calibrate(cls, epsilon: float, sensitivity: float = 1.0) -> "LaplaceKernel":
        """Theorem 1.3 calibration: ``scale = sensitivity / epsilon``."""
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {sensitivity}")
        return cls(sensitivity / epsilon)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.laplace(0.0, self.scale))

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return rng.laplace(0.0, self.scale, size=size)

    def __repr__(self) -> str:
        return f"LaplaceKernel(scale={self.scale!r})"


class GaussianKernel(NoiseKernel):
    """Gaussian noise with a fixed standard deviation ``sigma``.

    :meth:`calibrate` is the one implementation of the classical
    ``(epsilon, delta)`` calibration
    ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon``.
    """

    name = "gaussian"

    def __init__(self, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    @classmethod
    def calibrate(
        cls, epsilon: float, delta: float, sensitivity: float = 1.0
    ) -> "GaussianKernel":
        """Classical Gaussian-mechanism calibration (valid for ``0 < eps <= 1``)."""
        if not 0 < epsilon <= 1:
            raise ValueError(
                "the classical Gaussian calibration requires 0 < epsilon <= 1, "
                f"got {epsilon}"
            )
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {sensitivity}")
        sigma = sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon
        return cls(sigma)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.normal(0.0, self.sigma))

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=size)

    def __repr__(self) -> str:
        return f"GaussianKernel(sigma={self.sigma!r})"


class GeometricKernel(NoiseKernel):
    """Two-sided geometric (discrete Laplace) noise.

    The noise is ``G+ - G-`` for two i.i.d. geometric variables with
    success probability ``p = 1 - exp(-epsilon / sensitivity)``; draws are
    integer-valued but returned as floats for interface uniformity.  Each
    sample consumes the positive draw, then the negative draw — the
    vectorized path preserves that interleaving exactly.
    """

    name = "geometric"

    def __init__(self, p: float) -> None:
        if not 0 < p < 1:
            raise ValueError(f"p must lie in (0, 1), got {p}")
        self.p = float(p)

    @classmethod
    def calibrate(cls, epsilon: float, sensitivity: float = 1.0) -> "GeometricKernel":
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {sensitivity}")
        return cls(1.0 - np.exp(-epsilon / sensitivity))

    def sample(self, rng: np.random.Generator) -> float:
        positive = rng.geometric(self.p) - 1
        negative = rng.geometric(self.p) - 1
        return float(positive - negative)

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        shape = (size,) if isinstance(size, int) else tuple(size)
        # One (pos, neg) pair per sample; C-order fill matches the scalar
        # interleaving draw-for-draw.
        pairs = rng.geometric(self.p, size=(*shape, 2))
        return (pairs[..., 0] - pairs[..., 1]).astype(np.float64)

    def __repr__(self) -> str:
        return f"GeometricKernel(p={self.p!r})"


class BoundedUniformKernel(NoiseKernel):
    """Uniform noise on ``[-alpha, alpha]`` (non-DP, bounded-error).

    ``alpha == 0`` is the exact mechanism and consumes no randomness at
    all — callers rely on the untouched stream.
    """

    name = "bounded-uniform"

    def __init__(self, alpha: float) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def sample(self, rng: np.random.Generator) -> float:
        if self.alpha == 0:
            return 0.0
        return float(rng.uniform(-self.alpha, self.alpha))

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        if self.alpha == 0:
            return np.zeros(size, dtype=np.float64)
        return rng.uniform(-self.alpha, self.alpha, size=size)

    def __repr__(self) -> str:
        return f"BoundedUniformKernel(alpha={self.alpha!r})"


class BoundedExtremesKernel(NoiseKernel):
    """Noise that is exactly ``+alpha`` or ``-alpha`` with equal probability.

    The adversarial corner of the bounded-noise class: worst-case error is
    attained on every draw.  ``alpha == 0`` consumes no randomness.
    """

    name = "bounded-extremes"

    def __init__(self, alpha: float) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def sample(self, rng: np.random.Generator) -> float:
        if self.alpha == 0:
            return 0.0
        return float(self.alpha * (1 if rng.random() < 0.5 else -1))

    def sample_n(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        if self.alpha == 0:
            return np.zeros(size, dtype=np.float64)
        flips = rng.random(size) < 0.5
        return np.where(flips, self.alpha, -self.alpha)

    def __repr__(self) -> str:
        return f"BoundedExtremesKernel(alpha={self.alpha!r})"


@dataclass(frozen=True)
class MechanismSpec:
    """The auditable identity of an answering mechanism.

    One immutable record ties together everything the three layers need to
    agree on: the noise ``kernel`` (how answers are perturbed), the
    ``sensitivity`` the calibration assumed, the per-query ``spend`` the
    accountant must charge, the worst-case ``error_bound`` the
    reconstruction theorems consume, and whether the mechanism claims
    differential privacy (``dp``).  The service charges ``spec.spend``, the
    answerer samples ``spec.kernel``, and the verifier tests the identical
    object — no drift between the layers is representable.
    """

    name: str
    kernel: NoiseKernel
    spend: PrivacySpend = field(default_factory=lambda: PrivacySpend(0.0))
    sensitivity: float = 1.0
    error_bound: float = float("inf")
    dp: bool = False

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if self.error_bound < 0:
            raise ValueError(f"error_bound must be non-negative, got {self.error_bound}")
        if self.dp and not self.spend.epsilon > 0:
            raise ValueError("a DP mechanism must carry a positive epsilon spend")

    @property
    def epsilon_per_query(self) -> float:
        """Epsilon charged per answered query (0.0 for non-DP mechanisms)."""
        return self.spend.epsilon
