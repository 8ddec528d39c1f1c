"""CLI command behavior, the JSON document format, and output determinism."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from unittest import mock

import pytest

import iqlin.oracle
from iqlin import (
    AbsFormEvaluator,
    InstanceSpec,
    build_tuples,
    line_members,
    member_absform,
    member_intervalform,
    prop2_flatten,
    random_instance,
)
from iqlin.charac import MembershipVerdict
from iqlin.cli import (
    EXIT_CROSS_CHECK,
    EXIT_NOT_MEMBER,
    EXIT_OK,
    EXIT_USAGE,
    MAX_NODE_CAP,
    MAX_ORACLE_GRID,
    MAX_SCAN_RESOLUTION,
    as_generalized,
    classic_document,
    generalized_document,
    load_system,
    main,
    parse_system,
)
from iqlin.prefix import ClassicIQSystem, GeneralizedIQSystem, recompose_prefix
from conftest import gen_1x1, imat, ivec, outer_exists_system, random_classic, wide_exists_system

UNITED_DOC = {
    "format": "iqlin-system",
    "version": 1,
    "kind": "classic",
    "m": 1,
    "n": 1,
    "A": [[["2", "4"]]],
    "b": [["6", "8"]],
    "prefix": "E a[1,1] E b[1]",
}


@pytest.fixture
def united_path(tmp_path):
    path = tmp_path / "united.json"
    path.write_text(json.dumps(UNITED_DOC))
    return str(path)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocumentFormat:
    def test_classic_round_trip(self, rng):
        for _ in range(20):
            sys = random_classic(rng, 2, 2, zero_prob=0.2)
            doc = classic_document(sys)
            parsed = parse_system(json.loads(json.dumps(doc), parse_float=Fraction))
            assert parsed == sys
            assert classic_document(parsed) == doc

    def test_generalized_round_trip(self, rng):
        for seed in range(20):
            gen = random_instance(InstanceSpec(m=2, n=3, kappa=3, seed=seed, zero_prob=0.4))
            doc = generalized_document(gen)
            parsed = parse_system(json.loads(json.dumps(doc), parse_float=Fraction))
            assert parsed == gen
            assert generalized_document(parsed) == doc

    def test_decimal_and_number_literals_parse_exactly(self, tmp_path):
        doc = dict(UNITED_DOC)
        doc["A"] = [[["0.25", 4]]]
        doc["b"] = [[0.1, "8"]]  # JSON float literal, read as exact decimal
        path = write_doc(tmp_path, "dec.json", doc)
        sys = load_system(path)
        assert sys.A.entry(0, 0).lo == Fraction(1, 4)
        assert sys.b[0].lo == Fraction(1, 10)

    def test_malformed_documents_rejected(self, tmp_path):
        for broken in (
            {"kind": "classic"},
            {**UNITED_DOC, "version": 2},
            {**UNITED_DOC, "kind": "mystery"},
            {**UNITED_DOC, "A": [[["4", "2"]]]},
            {**UNITED_DOC, "prefix": "E a[1,1]"},
        ):
            path = write_doc(tmp_path, "broken.json", broken)
            assert main(["check", "--system", path, "--point", "1"]) == EXIT_USAGE

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        for doc in ({**UNITED_DOC, "A": [[["1/0", "2"]]]},
                    {"format": "iqlin-system", "version": 1, "kind": "absineq",
                     "C": [["1"]], "D": [["0"]], "c": ["5/0"], "d": ["1"]}):
            path = write_doc(tmp_path, "zero-den.json", doc)
            assert main(["check", "--system", path, "--point", "1"]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    # JSON true is not the number 1, and neither is 1.0 where an integer is
    # required: each place that reads a number rejects them.
    @pytest.mark.parametrize("doc", [
        {**UNITED_DOC, "A": [[[True, "2"]]]},
        {**UNITED_DOC, "m": True},
        {**UNITED_DOC, "n": True},
        {**UNITED_DOC, "version": True},
        {**generalized_document(gen_1x1(a_ex=(2, 4), b_ex=(6, 8))), "kappa": True},
        {**UNITED_DOC, "version": 1.0},
        {**generalized_document(gen_1x1(a_ex=(2, 4), b_ex=(6, 8))), "kappa": 1.0},
    ], ids=["scalar", "m", "n", "version", "kappa", "version-decimal", "kappa-decimal"])
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, doc):
        path = write_doc(tmp_path, "bool.json", doc)
        assert main(["check", "--system", path, "--point", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # Each absineq array is shape-checked before it is read.
    @pytest.mark.parametrize("fields", [
        {"c": 5},
        {"D": [5]},
        {"C": [["1"], 5]},
        {"C": [[]]},
        {"C": [["1"], ["1", "2"]]},
        {"D": [["0", "0"]]},
        {"d": ["1", "1"]},
    ], ids=["c-scalar", "D-flat", "C-ragged", "C-empty-row", "C-uneven", "D-shape", "d-length"])
    @pytest.mark.parametrize("command", [
        ["check", "--point", "1"],
        ["decompose"],
        ["convert", "--target", "from-absineq"],
    ], ids=["check", "decompose", "convert"])
    def test_malformed_absineq_arrays(self, tmp_path, capsys, fields, command):
        doc = {"format": "iqlin-system", "version": 1, "kind": "absineq",
               "C": [["1"]], "D": [["0"]], "c": ["5"], "d": ["1"], **fields}
        path = write_doc(tmp_path, "absineq.json", doc)
        assert main([command[0], "--system", path, *command[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # An exponent past Python's 4300-digit int limit is refused before the
    # power of ten is built, whether it is a string or a JSON number.
    @pytest.mark.parametrize("literal", ['"1e5000"', "1e5000", '"0e5000"', "-1E-5000"],
                             ids=["string", "number", "zero-string", "negative-number"])
    def test_huge_exponent_literal_is_usage_error(self, tmp_path, capsys, literal):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({**UNITED_DOC, "b": [["@", "@"]]}).replace('"@"', literal))
        assert main(["check", "--system", str(path), "--point", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "exponent" in captured.err

    def test_convert_output_round_trip(self):
        flat = prop2_flatten(outer_exists_system())
        classic = ClassicIQSystem(flat.summed_a(), flat.summed_b(), recompose_prefix(flat))
        doc = classic_document(classic)
        assert parse_system(json.loads(json.dumps(doc), parse_float=Fraction)) == classic


class TestCheck:
    def test_member_exit_zero(self, united_path, capsys):
        assert main(["check", "--system", united_path, "--point", "3/2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "agreement ok" in out

    def test_not_member_exit_one(self, united_path, capsys):
        assert main(["check", "--system", united_path, "--point", "1"]) == EXIT_NOT_MEMBER
        out = capsys.readouterr().out
        assert "not-member" in out

    def test_points_file(self, united_path, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [["3/2"], ["2"]]}))
        assert main(["check", "--system", united_path, "--points", str(pts)]) == EXIT_OK

    def test_shary_requires_one_block(self, tmp_path, capsys):
        doc = generalized_document(outer_exists_system())
        path = write_doc(tmp_path, "k2.json", doc)
        assert main(["check", "--system", path, "--point", "0", "--method", "shary"]) == EXIT_USAGE
        assert "kappa=1" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["shary", "rohn"])
    def test_one_block_method_on_k2_exits_two_with_empty_stdout(self, tmp_path, capsys, method):
        path = write_doc(tmp_path, "k2.json", generalized_document(outer_exists_system()))
        assert main(["check", "--system", path, "--point", "0", "--method", method]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected a one-block (kappa=1) system, got kappa = 2\n"

    def test_all_skips_one_block_methods_on_k2(self, tmp_path, capsys):
        doc = generalized_document(outer_exists_system())
        path = write_doc(tmp_path, "k2.json", doc)
        assert main(["check", "--system", path, "--point", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "shary" not in out
        assert "oracle" in out

    def test_invalid_arguments_rejected_before_any_output(self, united_path, capsys):
        for extra in (["--grid", "1"], ["--grid", str(MAX_ORACLE_GRID + 1)], ["--node-cap", "0"],
                      ["--node-cap", str(MAX_NODE_CAP + 1)], ["--point", "1/0"]):
            assert main(["check", "--system", united_path, "--point", "3/2", *extra]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_missing_points_is_usage_error(self, united_path):
        assert main(["check", "--system", united_path]) == EXIT_USAGE

    def test_forced_disagreement_exits_three(self, united_path, capsys):
        fake = mock.Mock(return_value=MembershipVerdict(True))
        with mock.patch("iqlin.cli.member_intervalform", fake):
            code = main(["check", "--system", united_path, "--point", "1"])
        assert code == EXIT_CROSS_CHECK
        assert "disagreement" in capsys.readouterr().err

    def test_oracle_unknown_alone_is_not_membership(self, tmp_path, capsys):
        # A two-block member whose witness needs a finer grid: the oracle
        # answers unknown and unknown alone must not exit 0.
        from iqlin import GeneralizedIQSystem
        from conftest import imat, ivec
        gen = GeneralizedIQSystem(
            a_forall=[imat([[(1, 2)]]), imat([[(0, 0)]])],
            a_exists=[imat([[(0, 0)]])] * 2,
            b_forall=[ivec([(0, 0)])] * 2,
            b_exists=[ivec([(-2, 2)]), ivec([(-1, 1)])],
        )
        path = write_doc(tmp_path, "fine.json", generalized_document(gen))
        assert member_absform(gen, ["1/3"]).member
        code = main(["check", "--system", path, "--point", "1/3", "--method", "oracle",
                     "--grid", "3"])
        assert code == EXIT_NOT_MEMBER
        assert "unknown" in capsys.readouterr().out


class TestDecompose:
    def test_classic_report(self, tmp_path, capsys):
        doc = dict(UNITED_DOC)
        doc["prefix"] = "E b[1] A a[1,1]"
        path = write_doc(tmp_path, "sys.json", doc)
        assert main(["decompose", "--system", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "kappa: 2" in out
        assert "sums reproduce A,b: ok" in out

    def test_byte_identical_across_runs(self, united_path, capsys):
        main(["decompose", "--system", united_path])
        first = capsys.readouterr().out
        main(["decompose", "--system", united_path])
        second = capsys.readouterr().out
        assert first == second

    def test_generalized_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, "gen.json", generalized_document(outer_exists_system()))
        assert main(["decompose", "--system", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tuples are disjoint: yes" in out


class TestConvert:
    def test_ae_flatten_two_blocks(self, tmp_path):
        src = write_doc(tmp_path, "k2.json", generalized_document(outer_exists_system()))
        out = str(tmp_path / "flat.json")
        assert main(["convert", "--system", src, "--target", "ae-flatten", "--output", out]) == EXIT_OK
        flat = load_system(out)
        assert isinstance(flat, ClassicIQSystem)
        assert flat.shape == (2, 1)
        gen = outer_exists_system()
        from iqlin import build_tuples, member_intervalform
        flat_gen = build_tuples(flat)
        for x in ("0", "1/4", "1/2", "-1"):
            assert member_intervalform(flat_gen, [x]).member == member_absform(gen, [x]).member

    def test_from_absineq(self, tmp_path):
        doc = {
            "format": "iqlin-system", "version": 1, "kind": "absineq",
            "C": [["3"]], "D": [["-1"]], "c": ["5"], "d": ["2"],
        }
        src = write_doc(tmp_path, "abs.json", doc)
        out = str(tmp_path / "ae.json")
        assert main(["convert", "--system", src, "--target", "from-absineq", "--output", out]) == EXIT_OK
        ae_sys = load_system(out)
        assert ae_sys.A == imat([[(2, 4)]])
        assert ae_sys.b == ivec([(3, 7)])
        assert ae_sys.prefix.quantifier_word() == "AE"

    def test_spot_check_guard_exits_three(self, tmp_path, capsys):
        src = write_doc(tmp_path, "k2.json", generalized_document(outer_exists_system()))
        fake = mock.Mock(return_value=MembershipVerdict(True))
        with mock.patch("iqlin.cli.member_rohn", fake):
            code = main(["convert", "--system", src, "--target", "ae-flatten",
                         "--output", str(tmp_path / "x.json")])
        assert code == EXIT_CROSS_CHECK
        assert not (tmp_path / "x.json").exists()

    def test_wrong_kind_rejected(self, united_path):
        assert main(["convert", "--system", united_path, "--target", "from-absineq"]) == EXIT_USAGE

    def test_ae_flatten_identity_on_one_block(self, united_path, tmp_path):
        out = str(tmp_path / "flat1.json")
        assert main(["convert", "--system", united_path, "--target", "ae-flatten",
                     "--output", out]) == EXIT_OK
        flat = load_system(out)
        assert isinstance(flat, ClassicIQSystem)
        assert flat.shape == (1, 1)
        from iqlin import build_tuples, member_intervalform
        source = build_tuples(load_system(united_path))
        flat_gen = build_tuples(flat)
        for x in ("1", "3/2", "4", "9/2"):
            assert member_intervalform(flat_gen, [x]).member == member_absform(source, [x]).member


class TestScan2d:
    def make_two_var_doc(self, tmp_path):
        # Two uncoupled copies of the order-sensitive pair: solution set {(0, 0)}.
        gen = GeneralizedIQSystem(
            a_forall=[imat([[(1, 2), (0, 0)], [(0, 0), (1, 2)]]), imat([[(0, 0)] * 2] * 2)],
            a_exists=[imat([[(0, 0)] * 2] * 2)] * 2,
            b_forall=[ivec([(0, 0), (0, 0)])] * 2,
            b_exists=[ivec([(0, 0), (0, 0)]), ivec([(-1, 1), (-1, 1)])],
        )
        return write_doc(tmp_path, "pointset.json", generalized_document(gen))

    def test_requires_two_unknowns(self, united_path):
        assert main(["scan2d", "--system", united_path, "--bounds=-1,1,-1,1"]) == EXIT_USAGE

    def test_csv_row_count_and_membership(self, tmp_path, capsys):
        path = self.make_two_var_doc(tmp_path)
        assert main(["scan2d", "--system", path, "--bounds=-1,1,-1,1",
                     "--resolution", "5", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1,x2,member"
        assert len(lines) == 1 + 25
        members = [line for line in lines[1:] if line.endswith(",1")]
        # Only the central cell contains the lone solution point (0, 0).
        assert members == ["0,0,1"]

    def test_even_resolution_misses_the_origin(self, tmp_path, capsys):
        path = self.make_two_var_doc(tmp_path)
        assert main(["scan2d", "--system", path, "--bounds=-1,1,-1,1",
                     "--resolution", "4", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert not any(line.endswith(",1") for line in lines[1:])

    def test_svg_deterministic(self, tmp_path):
        path = self.make_two_var_doc(tmp_path)
        outputs = []
        for run in range(2):
            out = str(tmp_path / f"scan-{run}.svg")
            assert main(["scan2d", "--system", path, "--bounds=-1,1,-1,1",
                         "--resolution", "9", "--format", "svg", "--output", out]) == EXIT_OK
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]
        assert b"<svg" in outputs[0]

    def test_bad_bounds(self, tmp_path):
        path = self.make_two_var_doc(tmp_path)
        assert main(["scan2d", "--system", path, "--bounds=1,-1,0,1"]) == EXIT_USAGE
        assert main(["scan2d", "--system", path, "--bounds=0,1,0"]) == EXIT_USAGE

    def test_resolution_cap(self, tmp_path, capsys):
        path = self.make_two_var_doc(tmp_path)
        for res in (0, MAX_SCAN_RESOLUTION + 1):
            assert main(["scan2d", "--system", path, "--bounds=-1,1,-1,1",
                         "--resolution", str(res)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "--resolution" in captured.err

    def test_rows_beyond_int64(self, tmp_path, capsys):
        # An entry of [-10^23, 10^23] gives compiled rows past int64; every
        # cell must still be decided exactly, without a traceback.
        doc = dict(UNITED_DOC, n=2, A=[[["-100000000000000000000000", "100000000000000000000000"], ["1", "2"]]],
                   b=[["0", "1"]], prefix="A a[1,1] E a[1,2] E b[1]")
        path = write_doc(tmp_path, "huge.json", doc)
        assert main(["scan2d", "--system", path, "--bounds=-2,2,-2,2",
                     "--resolution", "5", "--format", "csv"]) == EXIT_OK
        gen = build_tuples(load_system(path))
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 25
        for x1, x2, flag in rows:
            assert flag == ("1" if member_intervalform(gen, [x1, x2]).member else "0")
        assert {(x1, x2) for x1, x2, flag in rows if flag == "1"} == {("0", "0"), ("0", "4/5")}

    @pytest.mark.parametrize("name", ["sys2", "sys3", "sys6"])
    def test_no_point_encoding(self, name, capsys):
        # Each row is solved exactly from the compiled rows; the batch
        # evaluator is never asked, and the output is the stored one.
        golden = Path(__file__).with_name("golden")
        with mock.patch.object(AbsFormEvaluator, "encode_points", side_effect=AssertionError("encode_points")), \
                mock.patch.object(AbsFormEvaluator, "member_many", side_effect=AssertionError("member_many")):
            for fmt in ("csv", "svg"):
                assert main(["scan2d", "--system", str(golden / f"{name}.json"), "--bounds=-2,2,-2,2",
                             "--resolution", "16", "--format", fmt]) == EXIT_OK
                assert capsys.readouterr().out.encode("utf-8") == (golden / f"{name}.scan.{fmt}").read_bytes()

    @staticmethod
    def centres(lo, hi, res):
        """The res cell centres of [lo, hi], as scan2d places them."""
        return [lo + (hi - lo) * (2 * j + 1) / (2 * res) for j in range(res)]

    @staticmethod
    def assert_scan_equals(argv, xs, ys, want, capsys):
        """The CSV flags and the SVG cells of the scan equal want, the flags of (x1, x2) for x1 in xs, x2 in ys."""
        res = len(xs)
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"{x1},{x2},{1 if flag else 0}"
                             for (x1, x2), flag in zip(((a, b) for a in xs for b in ys), want)]
        assert main(argv + ["--format", "svg"]) == EXIT_OK
        # One rect per maximal run of members in a column, bottom row last.
        runs = []
        for i in range(res):
            j = 0
            for flag, group in groupby(want[i * res:(i + 1) * res]):
                size = len(list(group))
                if flag:
                    runs.append((str(i), str(res - j - size), str(size)))
                j += size
        assert re.findall(r'<rect x="(\d+)" y="(\d+)" width="1" height="(\d+)" fill="#1f6feb"/>',
                          capsys.readouterr().out) == runs

    def test_grids_equal_batch_evaluator(self, tmp_path, capsys):
        # 120 seeded two-unknown systems at resolution 40: every CSV flag and
        # every SVG cell equals AbsFormEvaluator.member_many at the cell center.
        rng = random.Random(20261019)
        res = 40
        mixed = 0
        for k in range(120):
            gen = wide_exists_system(rng, m=1 + k % 3, n=2, kappa=1 + k // 3 % 3)
            path = write_doc(tmp_path, f"doc{k}.json", generalized_document(gen))
            bounds = rng.choice(["-4,4,-4,4", "-2,6,-5,3", "-1/3,2/3,-7,1"])
            xmin, xmax, ymin, ymax = map(Fraction, bounds.split(","))
            xs, ys = self.centres(xmin, xmax, res), self.centres(ymin, ymax, res)
            want = AbsFormEvaluator(gen).member_many([(x1, x2) for x1 in xs for x2 in ys])
            self.assert_scan_equals(["scan2d", "--system", path, f"--bounds={bounds}", "--resolution", str(res)],
                                    xs, ys, want, capsys)
            mixed += 0 < sum(want) < res * res
        assert mixed >= 60

    def test_centres_on_exact_ends(self, tmp_path, capsys):
        # The y-bounds put a cell centre exactly on an end of a column's
        # member set, where >= against > decides the cell; odd resolutions
        # on symmetric bounds put centres on x1 = 0 and x2 = 0, where the
        # two half-lines meet.  Every CSV flag and SVG cell equals member_many.
        rng = random.Random(20261020)
        on_end = {"lower": 0, "upper": 0}
        through_zero = 0
        for k in range(200):
            gen = wide_exists_system(rng, m=1 + k % 3, n=2, kappa=1 + k // 3 % 3)
            path = write_doc(tmp_path, f"doc{k}.json", generalized_document(gen))
            res = rng.choice([5, 15] if k % 2 else [5, 12, 15])
            half_x, half_y = (Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(2))
            xs = self.centres(-half_x, half_x, res)
            if k % 2:
                y_bounds = [(-half_y, half_y)]
                # Columns whose member set runs through the centre at x2 = 0.
                through_zero += sum(any((lo is None or lo < 0) and (hi is None or 0 < hi)
                                        for lo, hi in line_members(gen, (x1, 0), 1)) for x1 in xs)
            else:
                i = rng.randrange(res)
                y_bounds = []
                for pair in line_members(gen, (xs[i], 0), 1):
                    for end, side in zip(pair, ("lower", "upper")):
                        if end is not None:
                            # Centre j of [ymin, ymin + 2 * half_y] is the end.
                            j = rng.randrange(res)
                            ymin = end - half_y * (2 * j + 1) / res
                            y_bounds.append((ymin, ymin + 2 * half_y))
                            assert self.centres(*y_bounds[-1], res)[j] == end
                            on_end[side] += 1
            evaluator = AbsFormEvaluator(gen)
            for ymin, ymax in y_bounds:
                ys = self.centres(ymin, ymax, res)
                want = evaluator.member_many([(x1, x2) for x1 in xs for x2 in ys])
                self.assert_scan_equals(["scan2d", "--system", path, f"--bounds={-half_x},{half_x},{ymin},{ymax}",
                                         "--resolution", str(res)], xs, ys, want, capsys)
        assert min(on_end.values()) >= 40 and through_zero >= 100, (on_end, through_zero)

    def test_zero_denominator_bounds(self, tmp_path, capsys):
        path = self.make_two_var_doc(tmp_path)
        assert main(["scan2d", "--system", path, "--bounds=1/0,1,0,1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "1/0" in captured.err


class TestGen:
    def test_seed_determinism_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["gen", "--seed", "1", "--m", "2", "--n", "2",
                         "--kappa", "2", "--output", out]) == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_generated_document_parses(self, tmp_path):
        out = str(tmp_path / "g.json")
        assert main(["gen", "--seed", "7", "--m", "1", "--n", "2", "--kappa", "3",
                     "--zero-prob", "0.6", "--output", out]) == EXIT_OK
        gen = load_system(out)
        assert isinstance(gen, GeneralizedIQSystem)
        assert gen.kappa == 3

    def test_zero_prob_one_accepts_everything(self, tmp_path, capsys):
        out = str(tmp_path / "trivial.json")
        assert main(["gen", "--seed", "3", "--m", "2", "--n", "2", "--kappa", "2",
                     "--zero-prob", "1", "--output", out]) == EXIT_OK
        assert main(["check", "--system", out, "--point", "5,-7"]) == EXIT_OK

    def test_invalid_spec(self, tmp_path):
        assert main(["gen", "--m", "0", "--output", str(tmp_path / "x.json")]) == EXIT_USAGE

    def test_size_cap(self, tmp_path, capsys):
        # 2*kappa*m*(n+1) slots: 1,045,200 and 2*10^12 are both past 10^6.
        for dims in (["--m", "200", "--n", "200", "--kappa", "13"], ["--m", "10000", "--n", "10000"]):
            assert main(["gen", *dims]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter with this tree's iqlin on its path."""
    import iqlin

    src = os.path.dirname(os.path.dirname(os.path.abspath(iqlin.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
                          **kwargs)


def test_import_loads_no_process_pool():
    # The CLI runs in one process; importing it must not load process-pool
    # machinery.  The one scalar type is fractions.Fraction.
    code = ("import fractions, sys, iqlin.cli, iqlin.ivcore; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]); "
            "print(iqlin.ivcore.Rational is fractions.Fraction)")
    result = _python("-c", code, check=True)
    assert result.stdout.splitlines() == ["[]", "True"]


def test_import_loads_no_numpy():
    # numpy is imported only when an AbsFormEvaluator is built.
    result = _python("-c", "import sys, iqlin, iqlin.cli; print('numpy' in sys.modules)", check=True)
    assert result.stdout == "False\n"


_GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize("name", ["sys2", "sys6"])
@pytest.mark.parametrize("command", ["check", "decompose", "convert", "scan2d"])
def test_command_loads_no_numpy(tmp_path, name, command):
    # Each per-point command runs in a fresh child without importing numpy,
    # and its output is still the stored one.
    system = str(_GOLDEN / f"{name}.json")
    out = tmp_path / "out"
    point = (_GOLDEN / f"{name}.check.txt").read_text().split("\n")[0].split(": ")[1].strip("()")
    argv, golden = {
        "check": (["check", "--system", system, f"--point={point}", "--method", "all"], "check.txt"),
        "decompose": (["decompose", "--system", system], "decompose.txt"),
        "convert": (["convert", "--system", system, "--target", "ae-flatten", "--output", str(out)],
                    "ae-flatten.json"),
        "scan2d": (["scan2d", "--system", system, "--bounds=-2,2,-2,2", "--resolution", "16",
                    "--format", "svg", "--output", str(out)], "scan.svg"),
    }[command]
    code = (f"import sys; from iqlin.cli import main; code = main({argv!r}); "
            "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)")
    result = _python("-c", code, cwd=str(tmp_path))
    assert result.stderr == "False\n"
    assert result.returncode in (EXIT_OK, EXIT_NOT_MEMBER)
    written = out.read_text() if command in ("convert", "scan2d") else result.stdout
    assert written == (_GOLDEN / f"{name}.{golden}").read_text()


def test_evaluator_from_cold_start():
    # A fresh child builds the evaluator, so every deferred numpy import runs
    # first there: in-bound points take the int64 kernel, and the point with
    # denominator 2**61 + 1 is masked and decided by member_absform.
    points = [[Fraction(i, 2), Fraction(j, 3)] for i in range(-5, 6) for j in range(-6, 7)]
    points.insert(40, [Fraction(1, 2 ** 61 + 1), Fraction(-1)])
    code = ("import json, sys; from fractions import Fraction; "
            "from iqlin import AbsFormEvaluator; from iqlin.cli import as_generalized, load_system; "
            "assert 'numpy' not in sys.modules; "
            f"ev = AbsFormEvaluator(as_generalized(load_system({str(_GOLDEN / 'sys6.json')!r}))); "
            "points = [[Fraction(v) for v in p] for p in json.load(sys.stdin)]; "
            "print(json.dumps(ev.member_many(points)))")
    result = _python("-c", code, input=json.dumps([[str(v) for v in p] for p in points]), check=True)
    gen = as_generalized(load_system(str(_GOLDEN / "sys6.json")))
    expected = [member_absform(gen, p).member for p in points]
    assert json.loads(result.stdout) == expected
    assert True in expected and False in expected
    assert AbsFormEvaluator(gen).encode_points(points[40:41]) is None


# Errors that come late: json.load recursing on deep nesting, and str() of a
# 4301-digit endpoint after the first decompose lines are built.
@pytest.mark.parametrize("text, command", [
    ("[" * 100000 + "]" * 100000, "check"),
    (json.dumps({**UNITED_DOC, "b": [["6", "1e4300"]]}), "decompose"),
], ids=["deep-nesting", "huge-endpoint"])
def test_late_error_at_process_boundary(tmp_path, text, command):
    path = tmp_path / "doc.json"
    path.write_text(text)
    extra = ["--point", "1"] if command == "check" else []
    result = _python("-m", "iqlin.cli", command, "--system", str(path), *extra)
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("n, kappa", [(990, 1), (200, 2), (5000, 1)])
def test_wide_row_stops_at_the_move_cap(tmp_path, n, kappa):
    # A row wider than the oracle's move cap once ended in a RecursionError
    # traceback and exit 1 ("not a member") on this member point.
    block = {"a_forall": [[["0", "0"]] * n], "a_exists": [[["-1", "2"]] * n],
             "b_forall": [["0", "0"]], "b_exists": [["-1", "1"]]}
    doc = {"format": "iqlin-system", "version": 1, "kind": "generalized", "m": 1, "n": n,
           "kappa": kappa, "block_order": "innermost-first", "blocks": [block] * kappa}
    path = write_doc(tmp_path, "wide.json", doc)
    result = _python("-m", "iqlin.cli", "check", "--system", path, "--point", ",".join(["1"] * n))
    assert "Traceback" not in result.stderr
    assert result.returncode in (EXIT_OK, EXIT_USAGE)
    if result.returncode == EXIT_USAGE:
        assert result.stdout == ""
        assert result.stderr == f"error: {kappa * (n + 1)} moves of one row need branching, cap is {iqlin.oracle.MAX_ROW_MOVES}\n"
