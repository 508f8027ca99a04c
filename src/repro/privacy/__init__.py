"""The layered privacy core every other layer consumes.

The paper's arc — mechanisms (Thm 1.3) through composition (the ledgers
add epsilons) to service-level auditing — is implemented here exactly
once and consumed everywhere::

    repro.privacy.kernels          NoiseKernel, MechanismSpec
        |  sample()/sample_n() draws; calibrations live on the kernels
        v
    repro.privacy.accounting       PrivacySpend, PrivacyAccountant,
        |                          BasicAccountant (multi-analyst)
        v
    repro.queries.mechanism        QueryAnswerer subclasses delegate all
        |                          noise to kernels, budgets to accountants
        v
    repro.service / repro.dp.verify
        QueryServer charges the spec's spend; verify_spec() empirically
        tests the very same MechanismSpec the accountant charged.

"""

from repro.privacy.accounting import (
    BasicAccountant,
    BudgetExhausted,
    BudgetLease,
    PrivacyAccountant,
    PrivacySpend,
    advanced_composition,
)
from repro.privacy.kernels import (
    BoundedExtremesKernel,
    BoundedUniformKernel,
    GaussianKernel,
    GeometricKernel,
    LaplaceKernel,
    MechanismSpec,
    NoiseKernel,
    ZeroKernel,
)

__all__ = [
    "BasicAccountant",
    "BoundedExtremesKernel",
    "BoundedUniformKernel",
    "BudgetExhausted",
    "BudgetLease",
    "GaussianKernel",
    "GeometricKernel",
    "LaplaceKernel",
    "MechanismSpec",
    "NoiseKernel",
    "PrivacyAccountant",
    "PrivacySpend",
    "ZeroKernel",
    "advanced_composition",
]
