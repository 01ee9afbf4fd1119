"""Second Chern classes of SL(n) representations.

Computes the index n_lambda = c2(gamma_n^lambda) for irreducible
representations labelled by partitions, enumerates minimal generating
sets of the representation rings of the quotients SL(n)/mu_d, and
certifies the gcd of the indices over such a set.
"""
# The one version string: the cache stamps its records with it and
# pyproject.toml reads it.  Set before the imports below, since .cache
# imports it while this package is still initialising.
__version__ = "0.1.0"

from .chern import (
    ChernResult,
    CrossCheckError,
    c2,
    c2_closed_form,
    c2_enumeration,
    c2_subshape,
)
from .partitions import (
    InputError,
    InvariantError,
    Partition,
    PartitionError,
    partition,
    schur_dimension,
    ssyt_stream,
)
from .tables import (
    CASES,
    REFERENCE_TABLES,
    CaseReport,
    ConjectureReport,
    GeneratorTable,
    TableRow,
    explore_conjecture,
    generator_table,
    image_index,
    table_against_reference,
    verify_case,
)
from .weights import (
    GroupSpec,
    Weight,
    hilbert_basis,
    is_monoid_irreducible,
    partition_of,
    weight_str,
)

__all__ = [
    "CASES",
    "CaseReport",
    "ChernResult",
    "ConjectureReport",
    "CrossCheckError",
    "GeneratorTable",
    "GroupSpec",
    "InputError",
    "InvariantError",
    "Partition",
    "PartitionError",
    "REFERENCE_TABLES",
    "TableRow",
    "Weight",
    "c2",
    "c2_closed_form",
    "c2_enumeration",
    "c2_subshape",
    "explore_conjecture",
    "generator_table",
    "hilbert_basis",
    "image_index",
    "is_monoid_irreducible",
    "partition",
    "partition_of",
    "schur_dimension",
    "ssyt_stream",
    "table_against_reference",
    "verify_case",
    "weight_str",
    "__version__",
]
