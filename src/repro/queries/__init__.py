"""Statistical-query substrate: the access model of Dinur-Nissim [16].

The paper's Section 1 analyzes an analyst who reaches a binary dataset
``x in {0,1}^n`` only through subset-counting queries ``q subseteq [n]``
answered with bounded error ``|a_q - sum_{i in q} x_i| <= alpha``.  This
subpackage provides the queries (:mod:`repro.queries.query`), the answering
mechanisms with their noise models (:mod:`repro.queries.mechanism`), and
query-workload generators (:mod:`repro.queries.workload`).  The
reconstruction attacks in :mod:`repro.reconstruction` consume these.
"""

from repro.queries.mechanism import (
    BoundedNoiseAnswerer,
    ExactAnswerer,
    GaussianAnswerer,
    LaplaceAnswerer,
    QueryAnswerer,
    RoundingAnswerer,
    SubsamplingAnswerer,
)
from repro.queries.query import SubsetQuery
from repro.queries.workload import Workload

__all__ = [
    "BoundedNoiseAnswerer",
    "ExactAnswerer",
    "GaussianAnswerer",
    "LaplaceAnswerer",
    "QueryAnswerer",
    "RoundingAnswerer",
    "SubsamplingAnswerer",
    "SubsetQuery",
    "Workload",
]
