"""Differential privacy substrate.

Implements Definition 1.2 (epsilon-DP) with the mechanisms the experiments
run: the Laplace mechanism of Theorem 1.3, the exponential mechanism (MWEM's
query selection), and the DP census-table release.  An *empirical verifier*
checks Theorem 1.3 ("the Laplace mechanism is epsilon-differentially
private") by measurement rather than assuming it.  Composition accounting
lives in :mod:`repro.privacy.accounting`, and every noise draw comes from a
:mod:`repro.privacy.kernels` kernel.
"""

from repro.dp.exponential import ExponentialMechanism
from repro.dp.laplace import LaplaceMechanism
from repro.dp.tabular import dp_block_tables, dp_tabulation
from repro.dp.verify import DPVerdict, verify_dp, verify_spec

__all__ = [
    "DPVerdict",
    "ExponentialMechanism",
    "LaplaceMechanism",
    "dp_block_tables",
    "dp_tabulation",
    "verify_dp",
    "verify_spec",
]
