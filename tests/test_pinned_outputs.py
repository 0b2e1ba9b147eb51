"""Pinned outputs: the CLI commands at the sizes the benchmark runs each
exit 0 with stdout of a recorded sha256.  A change that alters any printed
digit or line, or the exit status, of these commands fails here; a change
that is meant to alter one updates its digest here, in the same commit.
The ``eigen`` digests leave out the residual lines (a table's residual lines,
a json record's residual fields), whose digits follow mpmath's rounding at
every step; each residual must be at most 1e-30.
"""
import hashlib
import json
import math

import pytest

from convexcount.cli import main


def _spanning_tree_totals(n_max):
    # C(3n-3, n-1) / (2n-1) for n = 2..n_max: fed to the relation matrix they
    # count forests.
    return ",".join(str(math.comb(3 * n - 3, n - 1) // (2 * n - 1)) for n in range(2, n_max + 1))


BFILE = ("--n-max", "200", "--bfile", "--force")

# Each command's argv.
PINNED = {
    **{
        f"counts-kangulation{k}": ("counts", "kangulation", "--k", str(k)) + BFILE
        for k in (3, 4, 5)
    },
    **{
        f"counts-{cls}": ("counts", cls) + BFILE
        for cls in ("geometric", "connected", "partition", "relation")
    },
    "counts-relation-trees": (
        ("counts", "relation", "--c-values", _spanning_tree_totals(202)) + BFILE
    ),
    **{
        f"charpoly-{cls}-{method}": ("charpoly", cls, "--n", "150", "--method", method)
        for cls in ("geometric", "connected", "partition")
        for method in ("closed", "recurrence")
    },
    **{
        f"charpoly-kangulation4-{method}": (
            ("charpoly", "kangulation", "--k", "4", "--r", "150", "--method", method)
        )
        for method in ("closed", "recurrence")
    },
    "charpoly-relation": ("charpoly", "relation", "--n", "150"),
    **{
        f"matrix-{cls}": ("matrix", cls, "--n", "12", "--format", "json")
        for cls in ("geometric", "connected", "partition", "relation")
    },
    "matrix-kangulation4": ("matrix", "kangulation", "--k", "4", "--r", "12", "--format", "json"),
    # The table, csv and json printers of each command.
    **{
        f"counts-kangulation4-{fmt}": ("counts", "kangulation", "--k", "4", "--n-max", "12", "--format", fmt)
        for fmt in ("table", "csv", "json")
    },
    **{
        f"counts-relation-{fmt}": ("counts", "relation", "--n-max", "10", "--format", fmt)
        for fmt in ("table", "csv", "json")
    },
    "counts-geometric-default": ("counts", "geometric", "--n-max", "8"),
    "matrix-relation-table": ("matrix", "relation", "--n", "12"),
    "matrix-kangulation4-csv": ("matrix", "kangulation", "--k", "4", "--r", "12", "--format", "csv"),
    "charpoly-geometric-csv": ("charpoly", "geometric", "--n", "40", "--format", "csv"),
    "charpoly-kangulation4-json": (
        ("charpoly", "kangulation", "--k", "4", "--r", "40", "--method", "closed", "--format", "json")
    ),
    "verify-all": ("verify", "all", "--n-max", "6"),
    # The benchmark's size: the relation suite's spanning weights reach
    # 9 vertices.
    "verify-all-7": ("verify", "all", "--n-max", "7"),
}


# sha256 of each command's stdout.
DIGESTS = {
    "counts-kangulation3": "70be881b47fd37f0306fe3c66bcaca754f21e572d9efdd6397b3da5535074f90",
    "counts-kangulation4": "cb33e45b15ffd56de75bb9774fecc17ef23d4bc4d54bd8032fce634560dca4c9",
    "counts-kangulation5": "33537ac2b1939315786869bb8e274aa3e68536ad02c2872a01fb2e183d5555bf",
    "counts-geometric": "c6eadb48ff6ba18cb143a16f4e5aa7e8f5a6d5273182a1ebffa5d64b283ec3cd",
    "counts-connected": "603b2644797baafa2aeb3b48131c1c85005737e98a2a2aa15eca6c666a4b3110",
    "counts-partition": "70be881b47fd37f0306fe3c66bcaca754f21e572d9efdd6397b3da5535074f90",
    "counts-relation": "a69777761d57682cdd13d7a306fd2ac5d2543e516dc3b614e15437282eaaadc8",
    "counts-relation-trees": "ab3b816804e95df01fd07f077d45538d184a6673e25afb9c52b70670c1e85102",
    "charpoly-geometric-closed": "4b3e7dbf37ed1a08dba862671c6e644ee0758c95f9d9d5b947a758621c57e1fd",
    "charpoly-geometric-recurrence": "4b3e7dbf37ed1a08dba862671c6e644ee0758c95f9d9d5b947a758621c57e1fd",
    "charpoly-connected-closed": "68a06ee9987eacb50b8ce6447c0e9e6a83980287ad4a5340de4910ee239b4d32",
    "charpoly-connected-recurrence": "68a06ee9987eacb50b8ce6447c0e9e6a83980287ad4a5340de4910ee239b4d32",
    "charpoly-partition-closed": "5bc6f7e624d06c040a406ea684571fbcd5a2b6955154f3f3f4c0a700e82774d5",
    "charpoly-partition-recurrence": "5bc6f7e624d06c040a406ea684571fbcd5a2b6955154f3f3f4c0a700e82774d5",
    "charpoly-kangulation4-closed": "21399883611319d12008a3c96b0ce1558703f2500570e77fec6d14f333b8e092",
    "charpoly-kangulation4-recurrence": "21399883611319d12008a3c96b0ce1558703f2500570e77fec6d14f333b8e092",
    "charpoly-relation": "234c9e00ab8dfedaa9117a1f20703bebb0d2451f05aa6d5f7ba68c18d68859f0",
    "matrix-geometric": "d72ed8f3ba352422be890e84cb0aad4d5c507b307be3a4c1bc35e14f5839bbc6",
    "matrix-connected": "a07ec554bb06404db27c2819894a0d3b8b0f6cbf69f9a5310c5674b57845049f",
    "matrix-partition": "433a66f2fdc602e36d81551c672ee9304e25668357521b4f8a2bc439666973fb",
    "matrix-relation": "be3db96d469b8efb6d740a31128c3dc64b134b6c818f10f27432af879a3fd0c1",
    "matrix-kangulation4": "c6ae3b852d5f6ec0eb3d9f178ee117fe14b464ca28482122adc6a42510d6cc50",
    "counts-kangulation4-table": "98e183bbae42dac3195c6b8eb03c720d4b07e64e723356dceabcced3eb3d1d72",
    "counts-kangulation4-csv": "513c4027a3604caa62ac301b88fbc7076ab9b5122f2d64c2bb1fb8d9962085f4",
    "counts-kangulation4-json": "c7ceb4334027f79e3bdabab8f7d03c3eade192605b39650cc821c930f2e1cc79",
    "counts-relation-table": "dbcabc127184f92f53eef28efc5ea79af5b8669ad202178f1b442016bcab32b2",
    "counts-relation-csv": "d9f74e47824f27344c8360fb87ffadbe0837f38dfef97bf976ef707d0ed150df",
    "counts-relation-json": "2b80a992419acecebfcaa923f64d3446450e6e69a44e0c6134a8585dec4569e6",
    "counts-geometric-default": "e4ab7c967930b119622554f7f4330e2c08368427503dcd347541a947bf1d4b1d",
    "matrix-relation-table": "004ae8a1aa08c3357ab9160b9573ef9ea05f217b8c2d963efe907bab86f3e37b",
    "matrix-kangulation4-csv": "13efa36b9cc63aa5373c698ce28cc2b0cfcbff0b692ae4dd9e702a2d675f73e9",
    "charpoly-geometric-csv": "54ff7aa50e61919949dd5ce70701c7b7aa8c1a6104284f0c54727ff3042c66fb",
    "charpoly-kangulation4-json": "613aea6edc5be2d7561b9e5411c341850e956ec32c45ac46d4f1063c2986dbee",
    "verify-all": "12a907f95458825ebf5e91342e1496cc516a3d03f3286f98c64a6777141f4320",
    "verify-all-7": "12a907f95458825ebf5e91342e1496cc516a3d03f3286f98c64a6777141f4320",
}


@pytest.mark.parametrize("key", PINNED)
def test_output_is_pinned(capsys, key):
    assert main(list(PINNED[key])) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]


EIGEN = {
    **{
        f"eigen-{cls}": ("eigen", cls, "--n", "28", "--all-roots")
        for cls in ("geometric", "connected", "partition", "relation")
    },
    "eigen-kangulation4": ("eigen", "kangulation", "--k", "4", "--r", "28", "--all-roots"),
    # The dominant root alone, and the json printer.
    "eigen-geometric-dominant": ("eigen", "geometric", "--n", "28"),
    "eigen-relation-json": ("eigen", "relation", "--n", "28", "--all-roots", "--format", "json"),
}
# sha256 of each command's stdout without its residual lines (a table's
# "  residual ..." lines, a json record's "residual" fields).
EIGEN_DIGESTS = {
    "eigen-geometric": "d6b5b7926956db03bdc5469b55fbddc96a38fa5b8aece01f2a7a75ac98b24d5d",
    "eigen-connected": "c7355759109d58ce1924b14bfc146d72998105424ca82b9d5b4a6868cb7a5ff0",
    "eigen-partition": "4edd45fd05de7f959813e56fb1898eb1d3bdc7b0693283bfa071621444fef2ac",
    "eigen-relation": "8dfa3d47137650d83ef666408557b0df313d1dd47be2fb796824d1d78a329fe3",
    "eigen-kangulation4": "d168205cf3fdef583328ceb387fc84a433329411375421b581a94046f6771d67",
    "eigen-geometric-dominant": "ab064889e84b98d51e50f3f18e12b3036bf0bcf7b60366574e9f7527f7db03fd",
    "eigen-relation-json": "17c85ae762231a99272dc831c63b5ccd03a0ffd1d7e6832d15ac3d30c1ce3068",
}


def _is_residual(line):
    return line.lstrip().startswith(("residual ", '"residual": '))


@pytest.mark.parametrize("key", EIGEN)
def test_eigen_output_is_pinned(capsys, key):
    assert main(list(EIGEN[key])) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines(keepends=True)
    residuals = [float(line.split()[1].strip('"')) for line in lines if _is_residual(line)]
    if "json" in EIGEN[key]:
        count = json.loads(out)["payload"]["real_root_count"]
    else:
        count = int(lines[0].removeprefix("real roots found: "))
    assert residuals and max(residuals) <= 1e-30
    assert len(residuals) == (count if "--all-roots" in EIGEN[key] else 1)
    kept = "".join(line for line in lines if not _is_residual(line))
    assert hashlib.sha256(kept.encode()).hexdigest() == EIGEN_DIGESTS[key]
