"""Pinned outputs: exact-integer CLI commands at the sizes the benchmark
runs each exit 0 with stdout of a recorded sha256.  A change that alters
any printed digit or line, or the exit status, of these commands fails
here; a change that is meant to alter one updates its digest here, in the
same commit.
"""
import hashlib
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
    "verify-all": "a00f64f2ba3c75522c1f44f5b40c0b956511ef8ad3f4d490b48343d5156e743d",
    "verify-all-7": "a00f64f2ba3c75522c1f44f5b40c0b956511ef8ad3f4d490b48343d5156e743d",
}


@pytest.mark.parametrize("key", PINNED)
def test_output_is_pinned(capsys, key):
    assert main(list(PINNED[key])) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
