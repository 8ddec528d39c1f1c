"""The exit-code contract of ``main`` on mutated documents, points and flags.

hypothesis mutates the three document kinds (the stored golden documents
``sys6.json``, ``sys2.ae-flatten.json`` and ``absineq.json``, all with
n = 2): it replaces or deletes random fields and inserts wrong types,
nested values, ``"1/0"``, ``"1e4300"`` and 5000-digit strings.  Each
mutated document then goes through ``check``, ``decompose``, both
``convert`` targets or ``scan2d``; ``gen`` gets in-range and
just-out-of-range flag values instead.  Whatever the input:

* the exit code is one of 0, 1, 2, 3, and nothing but argparse's
  ``SystemExit(2)`` escapes ``main``;
* exit 2 comes with an ``error:`` line on stderr and empty stdout;
* a non-zero exit leaves no ``--output`` file behind.
"""

import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqlin.cli import EXIT_USAGE, MAX_GEN_SLOTS, MAX_NODE_CAP, MAX_ORACLE_GRID, MAX_SCAN_RESOLUTION, main

GOLDEN = Path(__file__).with_name("golden")
DOCS = [json.loads((GOLDEN / name).read_text()) for name in ("sys6.json", "sys2.ae-flatten.json", "absineq.json")]
CLASSIC_TEXT = (GOLDEN / "sys2.ae-flatten.json").read_text()
DEEP_TEXT = "[" * 100000 + "]" * 100000
# Placeholders the test replaces with its file paths.
POINTS, OUTPUT = "@points", "@output"

BAD_SCALARS = ["1/0", "1e4300", "-1e4300", "9" * 5000, "x", ""]
SCALARS = st.sampled_from(["0", "2", "-1/2", "0.25", *BAD_SCALARS]) | st.integers(-3, 3)
LEAVES = SCALARS | st.none() | st.booleans() | st.floats(allow_nan=True, allow_infinity=True)
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=6)
FIELDS = st.sampled_from(["format", "version", "kind", "m", "n", "kappa", "A", "b", "prefix", "blocks",
                          "C", "D", "c", "d", "points"]) | st.text(max_size=3)


@st.composite
def mutated(draw, docs):
    """One of ``docs`` after up to three random edits, as JSON text."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
                break
            node = node[key]
        action = draw(st.sampled_from(("replace", "delete", "insert")))
        if action == "insert" or not keys:
            if isinstance(node, dict):
                node[draw(FIELDS)] = draw(VALUES)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(VALUES))
        elif action == "delete":
            del node[key]
        else:
            node[key] = draw(VALUES)
    return json.dumps(doc)


# Valid choices are listed more than once so that most examples get past
# argument checking and reach the membership tests.
COORD = st.sampled_from(["1", "-3/2", "0", "1/3"] * 4 + BAD_SCALARS)
POINT_TEXT = st.sampled_from([2, 2, 2, 2, 1, 3]).flatmap(lambda k: st.lists(COORD, min_size=k, max_size=k))
CHECK = st.builds(
    lambda points, method, flags, use_file: [
        "check", *[f"--point={','.join(p)}" for p in points], "--method", method, *flags,
        *(["--points", POINTS] if use_file else [])],
    st.lists(POINT_TEXT, min_size=1, max_size=3),
    st.sampled_from(["abs", "interval", "shary", "rohn", "oracle", "all"]),
    st.sampled_from([["--grid", "3", "--node-cap", "300"]] * 4 + [
        ["--grid", "1"], ["--grid", str(MAX_ORACLE_GRID + 1)],
        ["--node-cap", "0"], ["--node-cap", str(MAX_NODE_CAP + 1)]]),
    st.booleans(),
)
SCAN = st.builds(
    lambda res, bounds, fmt: ["scan2d", f"--bounds={bounds}", "--resolution", str(res), "--format", fmt,
                              "--output", OUTPUT],
    st.sampled_from([3, 3, 3, 0, MAX_SCAN_RESOLUTION + 1]),
    st.sampled_from(["-2,2,-2,2"] * 3 + ["1,-1,0,1", "1/0,1,0,1", "-1e4300,1e4300,-1,1", "0,1,0"]),
    st.sampled_from(["csv", "svg"]),
)
# gen takes no --system.  In-range sizes stay small; each flag also takes
# the first value past its limit, the slot cap included (m = 250001, n = 1).
GEN = st.builds(
    lambda dims, zero_prob, magnitude, max_den, seed, to_file: [
        "gen", *dims, "--zero-prob", zero_prob, "--magnitude", magnitude, "--max-den", max_den,
        "--seed", seed, *(["--output", OUTPUT] if to_file else [])],
    st.lists(st.sampled_from(["1", "2", "3"] * 4 + ["0"]), min_size=3, max_size=3).map(
        lambda v: ["--m", v[0], "--n", v[1], "--kappa", v[2]])
    | st.just(["--m", str(MAX_GEN_SLOTS // 4 + 1), "--n", "1", "--kappa", "1"]),
    st.sampled_from(["0", "0.5", "1"] * 3 + ["1.0001", "-0.1", "nan"]),
    st.sampled_from(["1", "8", "100"] * 3 + ["0"]),
    st.sampled_from(["1", "4", "9"] * 3 + ["0"]),
    st.sampled_from(["0", "7", "-3"]),
    st.booleans(),
)
COMMANDS = CHECK | SCAN | GEN | st.just(["decompose"]) | st.sampled_from(["ae-flatten", "from-absineq"]).map(
    lambda target: ["convert", "--target", target, "--output", OUTPUT])
POINTS_DOCS = [{"points": [["1", "2"], ["-1/2", "0"]]}, [["0", "0"]]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(system=mutated(DOCS), points=mutated(POINTS_DOCS), command=COMMANDS)
@example(system=CLASSIC_TEXT, points="[]", command=["check", "--point=2,2", "--point=1e4300,1", "--method", "abs"])
@example(system=CLASSIC_TEXT.replace('"4"', '"1e4300"'), points="[]", command=["decompose"])
@example(system=DEEP_TEXT, points="[]", command=["check", "--point=1,1"])
@example(system=CLASSIC_TEXT, points=DEEP_TEXT, command=["check", "--points", POINTS])
def test_exit_code_contract(workdir, system, points, command):
    paths = {name: os.path.join(workdir, name) for name in ("system.json", "points.json", "out")}
    Path(paths["system.json"]).write_text(system)
    Path(paths["points.json"]).write_text(points)
    if os.path.exists(paths["out"]):
        os.remove(paths["out"])
    system = [] if command[0] == "gen" else ["--system", paths["system.json"]]
    argv = [command[0], *system,
            *[{POINTS: paths["points.json"], OUTPUT: paths["out"]}.get(a, a) for a in command[1:]]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE
            code = None
    assert code in (None, 0, 1, 2, 3)
    if code in (None, EXIT_USAGE):
        assert out.getvalue() == ""
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ")
    if code != 0:
        assert not os.path.exists(paths["out"])
