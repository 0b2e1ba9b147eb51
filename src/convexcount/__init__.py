"""Exact counting of plane graph classes on convex point sets via production
matrices, with closed-form, spectral and combinatorial verification."""

from .exact import (
    CountVector,
    HTMatrix,
    IntPolynomial,
    binomial,
    charpoly_determinant,
    exact_div,
    mat_vec,
)
from .closedform import (
    connected_entry,
    connected_vector,
    geometric_entry,
    geometric_vector,
    kangulation_entry,
    kangulation_vector,
    lemma1_check,
    partition_entry,
    partition_vector,
)
from .production import (
    GraphClassSpec,
    build_connected_matrix,
    build_geometric_matrix,
    build_k_angulation_matrix,
    build_partition_matrix,
    build_relation_matrix,
    connected_class,
    connected_totals,
    count_sequence,
    geometric_class,
    k_angulation_class,
    k_angulation_total,
    partition_class,
    relation_class,
    relation_weights,
)
from .spectral import (
    EigenPair,
    charpoly_closed_connected,
    charpoly_closed_geometric,
    charpoly_closed_kangulation,
    charpoly_closed_partition,
    charpoly_recurrence,
    dominant_eigenvalue,
    eigenvector_from_charpoly,
    precision_bits,
    real_roots,
)
from .oracle import (
    count_spanning_structures,
    spanning_counts,
)

__version__ = "0.1.0"
