"""The package's lazy exports and its immutable value types."""
import os
import re
import subprocess
import sys
from importlib import import_module

import pytest

import convexcount
from convexcount import verify
from convexcount.exact import CountVector, HTMatrix
from convexcount.production import CLASSES, GraphClassSpec
from convexcount.spectral import EigenPair

# Every name the package exports, by the layer that defines it.
EXPORTS = {
    "exact": [
        "CountVector", "HTMatrix", "binomial", "charpoly_determinant", "charpoly_recurrence",
        "charpoly_top", "exact_div", "mat_vec",
    ],
    "closedform": [
        "charpoly_closed_connected", "charpoly_closed_geometric", "charpoly_closed_kangulation",
        "charpoly_closed_partition", "connected_vector", "geometric_vector",
        "kangulation_vector", "lemma1_check", "partition_vector",
    ],
    "production": [
        "GraphClassSpec", "build_connected_matrix", "build_geometric_matrix",
        "build_k_angulation_matrix", "build_partition_matrix", "build_relation_matrix",
        "connected_totals", "count_sequence", "count_totals", "k_angulation_total", "relation_weights",
    ],
    "spectral": [
        "EigenPair", "dominant_root", "eigenvector_from_charpoly", "real_roots",
    ],
    "oracle": ["count_spanning_structures", "spanning_counts"],
}


@pytest.mark.parametrize("layer", EXPORTS)
def test_exports_resolve_to_their_layer(layer):
    module = import_module(f"convexcount.{layer}")
    assert getattr(convexcount, layer) is module
    listed = dir(convexcount)
    for name in EXPORTS[layer]:
        assert getattr(convexcount, name) is getattr(module, name)
        assert name in listed and name in convexcount.__all__
    namespace = {}
    exec(f"from convexcount import {', '.join(EXPORTS[layer])}", namespace)
    assert all(namespace[name] is getattr(module, name) for name in EXPORTS[layer])


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        convexcount.no_such_name


# Run in a fresh interpreter, where nothing has imported cli or verify yet.
SUBMODULES_SCRIPT = """
import sys, convexcount
assert not {"convexcount.cli", "convexcount.verify"} & set(sys.modules)
assert all(callable(getattr(convexcount.verify, f"suite_{name}")) for name in convexcount.SUITE_NAMES)
assert convexcount.cli.build_parser is sys.modules["convexcount.cli"].build_parser
"""


def test_cli_and_verify_resolve_after_a_bare_import():
    src = os.path.dirname(os.path.dirname(convexcount.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SUBMODULES_SCRIPT], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet_runs():
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "value, attr",
    [
        (HTMatrix(2, 2, (2, 4)), "band"),
        (CountVector((2, 0), 2), "entries"),
        (GraphClassSpec("geometric"), "param"),
        (CLASSES["geometric"], "build"),
        (verify.CheckResult("demo", True), "passed"),
        (EigenPair(1, (1,), 1, 0), "residual"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_value_types_are_immutable(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_htmatrix_equality_and_hash_ignore_band_gf():
    plain, with_gf = HTMatrix(3, 2, (2, 4, 8)), HTMatrix(3, 2, [2, 4, 8], ((2,), (1, -2)))
    assert plain == with_gf and not plain != with_gf and hash(plain) == hash(with_gf)
    assert plain != HTMatrix(3, 1, (2, 4, 8)) and plain != (3, 2, (2, 4, 8), None)
    with pytest.raises(ValueError, match="disagrees"):
        HTMatrix(3, 2, (2, 4, 9), ((2,), (1, -2)))


def test_relation_specs_stay_hashable():
    assert {GraphClassSpec("relation", [1, 2]): 1}[GraphClassSpec("relation", (1, 2))] == 1
    with pytest.raises(ValueError, match="takes no parameter"):
        GraphClassSpec("geometric", 3)
