"""CLI output on the criterion-9 corpus, compared byte for byte with stored files.

The corpus is the six generated systems of
``test_criterion_9_cli_golden_behavior`` (same seeds and shapes) and
``sys54``, a two-block 2x2 system whose member set crosses x2 = 0 inside
the scan box, so its scans hold member cells on both sides of x2 = 0
and, at the odd resolution, on it.  For each system the stored files under ``tests/golden/`` hold the ``gen``
document, the stdout of ``check`` at the criterion's point, of
``decompose`` and of ``convert --target ae-flatten``; for the
two-unknown systems also the ``scan2d`` CSV and SVG at
``--bounds=-2,2,-2,2 --resolution 16`` and at the corner cases of
``SCAN_CORNERS``: a one-cell grid, an odd resolution whose cell centres
include x1 = 0 and x2 = 0, bounds with unlike denominators, and a box
wholly below x2 = 0.  One absineq document and its
``convert --target from-absineq`` output are stored beside them
(``absineq.json``, ``absineq.from-absineq.json``).  ``render_corpus`` produces
every one of them, so the files can be rewritten from it when an
output change is intended.
"""

import io
import json
import os
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from iqlin.cli import EXIT_NOT_MEMBER, EXIT_OK, main
from iqlin.oracle import random_point

GOLDEN = Path(__file__).with_name("golden")
CORPUS = ((1, 1, 1, 1), (2, 2, 2, 1), (3, 1, 2, 2), (4, 2, 1, 2), (5, 1, 1, 3), (6, 2, 2, 2), (54, 2, 2, 2))
SCAN = ["--bounds=-2,2,-2,2", "--resolution", "16"]
SCAN_CORNERS = {
    "res1": ["--bounds=-2,2,-2,2", "--resolution", "1"],
    "odd15": ["--bounds=-2,2,-2,2", "--resolution", "15"],
    "thirds": ["--bounds=-1/3,2/3,-7/5,1/2", "--resolution", "16"],
    "below": ["--bounds=0,1,-3,-1", "--resolution", "16"],
}
# Both signs of D and d, and a zero entry, so both quantifiers and the tie appear.
ABSINEQ = {
    "format": "iqlin-system", "version": 1, "kind": "absineq",
    "C": [["3", "-1/2"], ["0", "2"]],
    "D": [["-1", "1/3"], ["0", "-2/5"]],
    "c": ["5", "-1"],
    "d": ["2", "-1/4"],
}


def _stdout(argv, codes=(EXIT_OK,)) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code in codes, f"{argv} exited {code}"
    return buf.getvalue().encode("utf-8")


def render_corpus(workdir) -> dict:
    """Golden file name -> the bytes the CLI prints for it now."""
    out = {}
    rng = random.Random(20250909)
    for seed, m, n, kappa in CORPUS:
        name = f"sys{seed}"
        path = os.path.join(str(workdir), f"{name}.json")
        out[f"{name}.json"] = doc = _stdout(["gen", "--seed", str(seed), "--m", str(m), "--n", str(n),
                                             "--kappa", str(kappa), "--zero-prob", "0.5"])
        with open(path, "wb") as handle:
            handle.write(doc)
        point = ",".join(str(random_point(n, rng, magnitude=3)[j]) for j in range(n))
        out[f"{name}.check.txt"] = _stdout(["check", "--system", path, f"--point={point}"],
                                           codes=(EXIT_OK, EXIT_NOT_MEMBER))
        out[f"{name}.decompose.txt"] = _stdout(["decompose", "--system", path])
        out[f"{name}.ae-flatten.json"] = _stdout(["convert", "--system", path, "--target", "ae-flatten"])
        if n == 2:
            for fmt in ("csv", "svg"):
                out[f"{name}.scan.{fmt}"] = _stdout(["scan2d", "--system", path, *SCAN, "--format", fmt])
                for corner, argv in SCAN_CORNERS.items():
                    out[f"{name}.scan-{corner}.{fmt}"] = _stdout(["scan2d", "--system", path, *argv,
                                                                  "--format", fmt])
    path = os.path.join(str(workdir), "absineq.json")
    out["absineq.json"] = doc = (json.dumps(ABSINEQ, indent=2) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(doc)
    out["absineq.from-absineq.json"] = _stdout(["convert", "--system", path, "--target", "from-absineq"])
    return out


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    return render_corpus(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(rendered):
    assert sorted(rendered) == sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_output_matches_golden(rendered, name):
    assert rendered.get(name) == (GOLDEN / name).read_bytes()
