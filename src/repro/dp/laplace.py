"""The Laplace mechanism (paper, Theorem 1.3).

``M_Lap(x) = f(x) + Lap(sensitivity / epsilon)`` is epsilon-DP for any
statistic ``f`` of global sensitivity ``sensitivity``.  The paper
instantiates it for counting: ``f(x) = sum_i x_i`` over ``x in {0,1}^n`` has
sensitivity 1.
"""

from __future__ import annotations

from repro.privacy.accounting import PrivacySpend
from repro.privacy.kernels import LaplaceKernel, MechanismSpec
from repro.utils.rng import RngSeed, ensure_rng


class LaplaceMechanism:
    """Additive Laplace noise calibrated to sensitivity/epsilon.

    All sampling delegates to a :class:`~repro.privacy.kernels.LaplaceKernel`
    calibrated once at construction — the mechanism owns the statistic and
    the privacy claim, the kernel owns the noise.

    Attributes:
        epsilon: the privacy-loss parameter (> 0).
        sensitivity: the statistic's global sensitivity (> 0).
        kernel: the calibrated noise kernel.
    """

    def __init__(self, epsilon: float, sensitivity: float = 1.0):
        self.kernel = LaplaceKernel.calibrate(epsilon, sensitivity)
        self.epsilon = float(epsilon)
        self.sensitivity = float(sensitivity)

    @property
    def scale(self) -> float:
        """The Laplace scale parameter ``b = sensitivity / epsilon``."""
        return self.kernel.scale

    def spec(self) -> MechanismSpec:
        """The mechanism's auditable identity: kernel + per-release spend."""
        return MechanismSpec(
            name=f"laplace(eps={self.epsilon})",
            kernel=self.kernel,
            spend=PrivacySpend(self.epsilon),
            sensitivity=self.sensitivity,
            dp=True,
        )

    def release(self, true_value: float, rng: RngSeed = None) -> float:
        """One noisy release of ``true_value``."""
        generator = ensure_rng(rng)
        return float(true_value + self.kernel.sample(generator))

    def __repr__(self) -> str:
        return f"LaplaceMechanism(epsilon={self.epsilon}, sensitivity={self.sensitivity})"
