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
from collections.abc import Sequence
from math import isqrt

from .exact import CountVector, HTMatrix, _strided_totals, binomial, exact_div, mat_vec


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


def _check_integers(counts: Sequence[int]) -> None:
    for c in counts:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"counts must be integers, got {c!r}")


def relation_weights(counts: Sequence[int], top: int) -> tuple[int, ...]:
    """Band weights a_2..a_top from a count sequence c_2..c_top.

    ``counts[0]`` is c_2.  The weight with index j is
    sum over i of C(j-2, i-2) * c_i, for i = 2..j: the binomial transform,
    taken as the first entries of repeated adjacent sums (Pascal's rule).
    Each count read must be an int.
    """
    _check_counts(counts, top)
    row = list(counts[: max(top - 1, 0)])
    _check_integers(row)
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
    """A countable class, and the only constructor of one: the name of its
    ``CLASSES`` row and ``param``, the one value the row's matrix builder
    takes (k for kangulation, a count sequence c_2, c_3, ... for relation,
    kept as a tuple, None for the others and for relation's default, the
    connected-graph totals).  A count sequence counts objects, so a count
    that is not an int, or is negative, is rejected here, for every
    command.  Its start level and initial vector are read from the row.
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
            _check_integers(param)
            if any(c < 0 for c in param):
                raise ValueError(f"counts must be non-negative, got {min(param)}")
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
    "name start_index initial_entries param size_option build oracle vector charpoly total",
    defaults=(None, None, None),
)):
    """One row of the class table: everything that differs between classes.

    The class's objects start at level ``start_index`` with count vector
    ``initial_entries``.  ``param`` names what the matrix builder takes
    (``"k"``, ``"weights"`` for a count sequence, which defaults to the
    connected-graph totals, or None), whose value a ``GraphClassSpec``
    carries, and ``size_option`` the CLI option that gives the matrix size
    or level.  ``build(size, param)``, ``oracle(param, size)`` (the
    oracle's degree histograms, {level: histogram} for every level from
    ``start_index`` to ``size``, from one fill; at the default counts for
    ``"weights"``), ``vector(param, level)`` (the closed-form count vector),
    ``charpoly(param, n)`` (the closed-form characteristic polynomial d_n
    of the size-n matrix) and ``total(param, level)`` (a closed-form total)
    look up the functions they call at call time, so a function patched on
    its module, as the bench tracer does, is the one that runs, and
    ``closedform`` and ``oracle`` are imported only when a closed form or a
    histogram is asked for.
    """

    __slots__ = ()


def _closedform():
    from . import closedform

    return closedform


def _oracle():
    from . import oracle

    return oracle


CLASSES = {row.name: row for row in (
    # one k-gon, root degree 0
    ClassDef(
        "kangulation", 1, (1,), "k", "r",
        lambda size, k: build_k_angulation_matrix(k, size),
        lambda k, r: _oracle().dissection_degree_histograms(k, r),
        lambda k, r: _closedform().kangulation_vector(k, r),
        lambda k, r: _closedform().charpoly_closed_kangulation(k, r),
        lambda k, r: k_angulation_total(k, r),
    ),
    ClassDef(
        "geometric", 2, (2,), None, "n",
        lambda size, _: build_geometric_matrix(size),
        lambda _, n: _oracle().visibility_histograms(n),
        lambda _, n: _closedform().geometric_vector(n),
        lambda _, n: _closedform().charpoly_closed_geometric(n),
    ),
    ClassDef(
        "connected", 2, (1,), None, "n",
        lambda size, _: build_connected_matrix(size),
        lambda _, n: _oracle().connected_visibility_histograms(n),
        lambda _, n: _closedform().connected_vector(n),
        lambda _, n: _closedform().charpoly_closed_connected(n),
    ),
    ClassDef(
        "partition", 1, (0, 1), None, "n",
        lambda size, _: build_partition_matrix(size),
        lambda _, n: _oracle().partition_isolation_histograms(n),
        lambda _, n: _closedform().partition_vector(n),
        lambda _, n: _closedform().charpoly_closed_partition(n),
    ),
    ClassDef(
        "relation", 1, (0, 1), "weights", "n",
        lambda size, counts: build_relation_matrix(size, counts),
        lambda _, n: _oracle().isolation_histograms(n),
    ),
)}
CLASS_NAMES = tuple(CLASSES)


def _start(spec: GraphClassSpec, n_max: int) -> tuple[HTMatrix, CountVector]:
    """The class's matrix at n_max + 2, since an n-vertex object's isolation
    degree can reach n, and its initial vector of that length.  The steps to
    n_max read the band below offset n_max only, so the counts past c_n_max
    are taken as 0."""
    row = CLASSES[spec.name]
    if n_max < row.start_index:
        raise ValueError(f"n_max must be at least the start level {row.start_index}")
    param = spec.param
    if row.param == "weights" and param is not None:
        _check_counts(param, n_max)
        param = param[: n_max - 1] + (0, 0)
    m = row.build(n_max + 2, param)
    pad = (0,) * (m.size - len(row.initial_entries))
    return m, CountVector(row.initial_entries + pad, row.start_index)


def count_sequence(spec: GraphClassSpec, n_max: int) -> list[CountVector]:
    """Count vectors of the class at each level from its start level to
    n_max: the initial vector, then one production step per level."""
    m, v = _start(spec, n_max)
    out = [v]
    while out[-1].level < n_max:
        out.append(mat_vec(m, out[-1]))
    return out


def count_totals(spec: GraphClassSpec, n_max: int) -> list[tuple[int, int]]:
    """(level, total) at each level to n_max, the totals of ``count_sequence``.
    A band without a generating function (den = 1, relation) costs O(L^2) a
    step, so when k = isqrt(n_max) // 2 >= 2 it strides k levels per product
    by the A-sequence's k-th power (``exact._strided_totals``): O(n^2.5)
    products, not O(n^3).  A band whose den has terms past den_0 steps one
    level at a time, as ``_suffix_sums`` and ``charpoly_top`` choose."""
    k = isqrt(max(n_max, 0)) // 2
    if k < 2 or any(spec.build_matrix(1).band_series[1][1:]):
        return [(v.level, v.total) for v in count_sequence(spec, n_max)]
    return _strided_totals(*_start(spec, n_max), n_max, k)


def k_angulation_total(k: int, r: int) -> int:
    """Number of k-angulations with r k-gons: C((k-1)r, r) / ((k-2)r + 1)."""
    if k < 3:
        raise ValueError("k-angulations require k >= 3")
    if r < 1:
        raise ValueError("r must be >= 1")
    return exact_div(binomial((k - 1) * r, r), (k - 2) * r + 1)


def connected_totals(n_max: int) -> tuple[int, ...]:
    """Connected plane graph totals c_2..c_n_max via matrix iteration."""
    return tuple(total for _, total in count_totals(GraphClassSpec("connected"), n_max))
