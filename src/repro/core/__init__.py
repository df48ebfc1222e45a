"""Core contribution of the paper: database privacy homomorphisms.

* :mod:`repro.core.dph` -- the abstract ``(K, E, Eq, D)`` interface of
  Definition 1.1, the shared ciphertext data model and the client-side
  false-positive filter.
* :mod:`repro.core.construction` -- the Section-3 construction: a database PH
  preserving exact selects, generic over a searchable encryption scheme, with
  SWP and secure-index backends.
* :mod:`repro.core.homomorphism` -- an executable check of the homomorphism
  property used by tests and experiments.
"""

from repro.core.construction import (
    INDEX_BACKEND,
    SWP_BACKEND,
    SearchableSelectDph,
    SearchableServerEvaluator,
)
from repro.core.dph import (
    DatabasePrivacyHomomorphism,
    DecryptionReport,
    DphError,
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
    ServerEvaluator,
    filter_tuples,
)
from repro.core.variable_length import (
    VARIABLE_BACKEND,
    VariableWidthSelectDph,
    VariableWidthServerEvaluator,
)
from repro.core.homomorphism import (
    HomomorphismReport,
    QueryCheck,
    check_homomorphism,
)

__all__ = [
    "INDEX_BACKEND",
    "SWP_BACKEND",
    "SearchableSelectDph",
    "SearchableServerEvaluator",
    "DatabasePrivacyHomomorphism",
    "DecryptionReport",
    "DphError",
    "EncryptedQuery",
    "EncryptedRelation",
    "EncryptedTuple",
    "EvaluationResult",
    "ServerEvaluator",
    "filter_tuples",
    "VARIABLE_BACKEND",
    "VariableWidthSelectDph",
    "VariableWidthServerEvaluator",
    "HomomorphismReport",
    "QueryCheck",
    "check_homomorphism",
]
