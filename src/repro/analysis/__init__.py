"""Program analysis: symbolic tables, joint tables, LR-slices.

- :mod:`repro.analysis.symbolic` -- per-transaction symbolic tables
  via the backward construction of Figure 6.
- :mod:`repro.analysis.joint` -- joint tables for transaction sets
  (the K+1-ary relation of Section 2.2).
- :mod:`repro.analysis.factorize` -- SDD-1-style independence
  factorization keeping joint tables small (Section 5.1).
- :mod:`repro.analysis.slices` -- local-remote partitions, LR-slices
  and observational equivalence (Definitions 3.2-3.7).
- :mod:`repro.analysis.pathsplit` -- per-path write summaries and
  the two commit-check kinds (``free`` skips the check, ``full`` runs
  it), selected at treaty install.
- :mod:`repro.analysis.classify` -- the coordination-freedom
  classifier: FREE / PATH_SENSITIVE / TREATY / SYNC verdicts with
  machine-checkable witnesses.
"""

from repro.analysis.symbolic import (
    AnalysisError,
    Row,
    SymbolicTable,
    build_symbolic_table,
)
from repro.analysis.joint import JointRow, JointSymbolicTable, build_joint_table
from repro.analysis.factorize import FactorizedJointTable, factorize_workload
from repro.analysis.classify import (
    Classification,
    ClassificationError,
    PathClassification,
    classify_catalog,
)
from repro.analysis.pathsplit import PathCheck, WriteSummary, build_path_checks
from repro.analysis.slices import (
    LocalRemotePartition,
    is_lr_slice,
    is_valid_global_treaty,
    observationally_equivalent,
)

__all__ = [
    "AnalysisError",
    "Classification",
    "ClassificationError",
    "FactorizedJointTable",
    "JointRow",
    "JointSymbolicTable",
    "LocalRemotePartition",
    "PathCheck",
    "PathClassification",
    "Row",
    "SymbolicTable",
    "WriteSummary",
    "build_joint_table",
    "build_path_checks",
    "build_symbolic_table",
    "classify_catalog",
    "factorize_workload",
    "is_lr_slice",
    "is_valid_global_treaty",
    "observationally_equivalent",
]
