"""Exact counting of plane graph classes on convex point sets via production
matrices, with closed-form, spectral and combinatorial verification.

The public names below are imported from their layer on first access
(PEP 562), so importing the package, or the CLI, loads no layer it does not
use: counting never loads ``closedform``, ``spectral`` or ``oracle``, and
only ``verify`` loads the suites.  The characteristic polynomials come from
``exact``, whose recurrence and Berkowitz give the tuple (d_0, ..., d_n) of
coefficient tuples and ``charpoly_top`` d_n alone, and from ``closedform``,
whose closed forms give d_n alone; ``spectral`` holds the real roots and
eigenpairs.
"""

_EXPORTS = {
    "exact": "CountVector HTMatrix binomial charpoly_determinant charpoly_recurrence"
    " charpoly_top exact_div mat_vec",
    "closedform": "charpoly_closed_connected charpoly_closed_geometric"
    " charpoly_closed_kangulation charpoly_closed_partition connected_vector geometric_vector"
    " kangulation_vector lemma1_check partition_vector",
    "production": "GraphClassSpec build_connected_matrix build_geometric_matrix"
    " build_k_angulation_matrix build_partition_matrix build_relation_matrix connected_totals"
    " count_sequence count_totals k_angulation_total relation_weights",
    "spectral": "EigenPair dominant_root eigenvector_from_charpoly real_roots",
    "oracle": "count_spanning_structures spanning_counts",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
# The submodules that ``convexcount.<name>`` loads on first access.
_SUBMODULES = (*_EXPORTS, "cli", "verify")
__all__ = tuple(_LAYER_OF)

__version__ = "0.1.0"

# The verify suites, in the order ``verify all`` runs them, and the least size
# of each check that once ran at a fixed range, so that no default range
# shrinks: charpoly's n, lemma1's bound on t, m and n, the partitions'
# elements, the k-angulations' vertices and the relation levels.  They are
# defined here so that the CLI's parser reads them without loading ``verify``.
SUITE_NAMES = ("vectors", "charpoly", "eigen", "oracle", "lemma1", "relation")
FLOORS = {
    "charpoly": 20,
    "lemma1": 12,
    "oracle/partition": 20,
    "oracle/kangulation": 22,
    "relation/connected-to-geometric": 10,
}


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAYER_OF:
        return getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAYER_OF))
