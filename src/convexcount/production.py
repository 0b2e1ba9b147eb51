"""Production matrices for plane graph classes on convex point sets and the
counting engine that iterates v(i+1) = A v(i).

Five matrix families are provided: k-angulations by face count, all plane
graphs and connected plane graphs by visibility degree of the root vertex,
non-crossing partitions by isolation degree, and the relation matrix whose
band is a weighted sum of a supplied count sequence (connected graphs,
spanning trees or spanning paths, depending on what is being counted).

Each class is defined once, as a row of ``CLASSES``; the CLI and the
verification suites read that table instead of naming classes.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .exact import CountVector, HTMatrix, binomial, exact_div, mat_vec

KANGULATION = "kangulation"
GEOMETRIC = "geometric"
CONNECTED = "connected"
PARTITION = "partition"
RELATION = "relation"


def build_k_angulation_matrix(k: int, r: int) -> HTMatrix:
    """r x r production matrix for k-angulations counted by number of k-gons.

    Subdiagonal 1; offset-m band entry C(k-2+m, k-3), so for k=3 the whole
    upper band is 1s.
    """
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    band = tuple(binomial(k - 2 + m, k - 3) for m in range(r))
    # sum_m C(k-2+m, k-3) x^m = (1 - (1-x)^(k-2)) / (x (1-x)^(k-2))
    den = tuple((-1) ** s * binomial(k - 2, s) for s in range(k - 1))
    return HTMatrix(r, 1, band, band_gf=(tuple(-c for c in den[1:]), den))


def build_geometric_matrix(n: int) -> HTMatrix:
    """n x n production matrix for plane graphs by visibility degree.

    Subdiagonal 2; offset-m band entry 2**(m+1), giving first row
    2, 4, 8, ..., 2**n.
    """
    band = tuple(2 ** (m + 1) for m in range(n))
    return HTMatrix(n, 2, band, band_gf=((2,), (1, -2)))


def build_connected_matrix(n: int) -> HTMatrix:
    """n x n production matrix for connected plane graphs by visibility degree.

    Subdiagonal 1; offset-m band entry 2**(m+2) - 1, giving first row
    3, 7, 15, ..., 2**(n+1) - 1.
    """
    band = tuple(2 ** (m + 2) - 1 for m in range(n))
    # 4 / (1 - 2x) - 1 / (1 - x)
    return HTMatrix(n, 1, band, band_gf=((3, -2), (1, -3, 2)))


def build_partition_matrix(n: int) -> HTMatrix:
    """n x n production matrix for non-crossing partitions by isolation degree.

    Subdiagonal 1, zero main diagonal, offset-m band entry 2**(m-1) for
    m >= 1, giving first row 0, 1, 2, 4, ..., 2**(n-2).
    """
    band = (0,) + tuple(2 ** (m - 1) for m in range(1, n))
    return HTMatrix(n, 1, band, band_gf=((0, 1), (1, -2)))


def _check_counts(counts: Sequence[int], top: int) -> None:
    if len(counts) < top - 1:
        raise ValueError(f"count sequence too short: need c_2..c_{top}, got {len(counts)} values")


def relation_weights(counts: Sequence[int], top: int) -> tuple[int, ...]:
    """Band weights a_2..a_top from a count sequence c_2..c_top.

    ``counts[0]`` is c_2.  The weight with index j is
    sum over i of C(j-2, i-2) * c_i, for i = 2..j: the binomial transform,
    taken as the first entries of repeated adjacent sums (Pascal's rule).
    """
    _check_counts(counts, top)
    row = list(counts[: max(top - 1, 0)])
    out = []
    while row:
        out.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(out)


def build_relation_matrix(n: int, counts: Sequence[int] | None = None) -> HTMatrix:
    """n x n relation matrix from a count sequence c_2..c_n (counts[0] = c_2).

    Subdiagonal 1, zero main diagonal; the offset-m entry for m >= 1 is the
    weight a_{m+1} = sum_i C(m-1, i-2) c_i.  Fed with connected-graph totals
    it reproduces the plane-graph counts; with spanning-tree totals, forest
    counts; with spanning-path totals, counts of forests of paths.  The
    counts default to the connected-graph totals; a 1 x 1 matrix reads none.
    """
    if n < 2:
        return HTMatrix(n, 1, (0,))
    weights = relation_weights(connected_totals(n) if counts is None else counts, n)
    return HTMatrix(n, 1, (0,) + weights)


class GraphClassSpec(namedtuple("GraphClassSpec", "name param", defaults=(None,))):
    """A countable class: the name of its ``CLASSES`` row and ``param``, the
    one value the row's matrix builder takes (k for kangulation, a count
    sequence c_2, c_3, ... for relation, kept as a tuple, None for the
    others and for relation's default, the connected-graph totals).  Its
    start level and initial vector are read from the row.
    """

    __slots__ = ()

    def __new__(cls, name: str, param=None):
        if name not in CLASSES:
            raise ValueError(f"unknown class {name!r}")
        takes = CLASSES[name].param
        if takes is None and param is not None:
            raise ValueError(f"{name} class takes no parameter")
        if takes == "k" and param is None:
            raise ValueError(f"{name} class requires k")
        if takes == "weights" and param is not None:
            param = tuple(param)  # equal sequences give equal, hashable specs
        # The builder rejects a parameter it cannot use, such as k < 3.
        CLASSES[name].build(1, param)
        return super().__new__(cls, name, param)

    @property
    def start_index(self) -> int:
        return CLASSES[self.name].start_index

    def build_matrix(self, size: int) -> HTMatrix:
        return CLASSES[self.name].build(size, self.param)


class ClassDef(namedtuple(
    "ClassDef",
    "name start_index initial_entries param size_option build vector charpoly",
    defaults=(None, None),
)):
    """One row of the class table: everything that differs between classes.

    The class's objects start at level ``start_index`` with count vector
    ``initial_entries``.  ``param`` names what the matrix builder takes
    (``"k"``, ``"weights"`` for a count sequence, which defaults to the
    connected-graph totals, or None), whose value a ``GraphClassSpec``
    carries, and ``size_option`` the CLI option that gives the matrix size
    or level.  ``build(size, param)``,
    ``vector(param, level)`` (the closed-form count vector) and
    ``charpoly(param, n)`` (the closed-form characteristic polynomial) look
    up the functions they call at call time, so a function patched on its
    module, as the bench tracer does, is the one that runs, and
    ``closedform`` is imported only when a closed form is asked for.
    """

    __slots__ = ()

    def spec(self, param=None) -> GraphClassSpec:
        return GraphClassSpec(self.name, param)


def _closedform():
    from . import closedform

    return closedform


CLASSES = {
    # one k-gon, root degree 0
    KANGULATION: ClassDef(
        KANGULATION, 1, (1,), "k", "r",
        lambda size, k: build_k_angulation_matrix(k, size),
        lambda k, r: _closedform().kangulation_vector(k, r),
        lambda k, r: _closedform().charpoly_closed_kangulation(k, r),
    ),
    GEOMETRIC: ClassDef(
        GEOMETRIC, 2, (2,), None, "n",
        lambda size, _: build_geometric_matrix(size),
        lambda _, n: _closedform().geometric_vector(n),
        lambda _, n: _closedform().charpoly_closed_geometric(n),
    ),
    CONNECTED: ClassDef(
        CONNECTED, 2, (1,), None, "n",
        lambda size, _: build_connected_matrix(size),
        lambda _, n: _closedform().connected_vector(n),
        lambda _, n: _closedform().charpoly_closed_connected(n),
    ),
    PARTITION: ClassDef(
        PARTITION, 1, (0, 1), None, "n",
        lambda size, _: build_partition_matrix(size),
        lambda _, n: _closedform().partition_vector(n),
        lambda _, n: _closedform().charpoly_closed_partition(n),
    ),
    RELATION: ClassDef(
        RELATION, 1, (0, 1), "weights", "n",
        lambda size, counts: build_relation_matrix(size, counts),
    ),
}
CLASS_NAMES = tuple(CLASSES)


def k_angulation_class(k: int) -> GraphClassSpec:
    return CLASSES[KANGULATION].spec(k)


def geometric_class() -> GraphClassSpec:
    return CLASSES[GEOMETRIC].spec()


def connected_class() -> GraphClassSpec:
    return CLASSES[CONNECTED].spec()


def partition_class() -> GraphClassSpec:
    return CLASSES[PARTITION].spec()


def relation_class(counts: Sequence[int] | None = None) -> GraphClassSpec:
    """The relation class; ``counts`` defaults to the connected-graph totals."""
    return CLASSES[RELATION].spec(counts)


def count_sequence(spec: GraphClassSpec, n_max: int) -> list[CountVector]:
    """Count vectors of the class at each level from its start level to
    n_max: the initial vector, then one production step per level.

    The matrix is materialized at ``n_max + 2``: the isolation degree of an
    n-vertex object can reach n, so its vector has a nonzero entry at index
    n+1.  Every vector has that length.  The steps read the band below
    offset n_max only, so of a count sequence only c_2..c_n_max are needed;
    the counts past them, which no step reads, are taken as 0.
    """
    row = CLASSES[spec.name]
    if n_max < row.start_index:
        raise ValueError(f"n_max must be at least the start level {row.start_index}")
    param = spec.param
    if row.param == "weights" and param is not None:
        _check_counts(param, n_max)
        param = param[: n_max - 1] + (0, 0)
    m = row.build(n_max + 2, param)
    pad = (0,) * (m.size - len(row.initial_entries))
    out = [CountVector(row.initial_entries + pad, row.start_index)]
    while out[-1].level < n_max:
        out.append(mat_vec(m, out[-1]))
    return out


def k_angulation_total(k: int, r: int) -> int:
    """Number of k-angulations with r k-gons: C((k-1)r, r) / ((k-2)r + 1)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    return exact_div(binomial((k - 1) * r, r), (k - 2) * r + 1)


def connected_totals(n_max: int) -> tuple[int, ...]:
    """Connected plane graph totals c_2..c_n_max via matrix iteration."""
    return tuple(v.total for v in count_sequence(connected_class(), n_max))
