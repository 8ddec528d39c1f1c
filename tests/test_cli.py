"""CLI command behavior, the JSON document format, and output determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from iqlin import InstanceSpec, build_tuples, member_absform, member_intervalform, prop2_flatten, random_instance
from iqlin.charac import MembershipVerdict
from iqlin.cli import (
    EXIT_CROSS_CHECK,
    EXIT_NOT_MEMBER,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SCAN_RESOLUTION,
    ae_as_classic,
    classic_document,
    generalized_document,
    load_system,
    main,
    parse_system,
)
from iqlin.prefix import ClassicIQSystem, GeneralizedIQSystem
from conftest import gen_1x1, imat, ivec, outer_exists_system, random_classic

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

    def test_ae_as_classic_round_trip(self):
        gen = outer_exists_system()
        ae = prop2_flatten(gen)
        classic = ae_as_classic(ae)
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

    def test_all_skips_one_block_methods_on_k2(self, tmp_path, capsys):
        doc = generalized_document(outer_exists_system())
        path = write_doc(tmp_path, "k2.json", doc)
        assert main(["check", "--system", path, "--point", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "shary" not in out
        assert "oracle" in out

    def test_invalid_arguments_rejected_before_any_output(self, united_path, capsys):
        for extra in (["--grid", "1"], ["--node-cap", "0"], ["--point", "1/0"]):
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

    def test_svg_deterministic_and_parallel_equal(self, tmp_path):
        path = self.make_two_var_doc(tmp_path)
        outputs = []
        for threads in ("1", "1", "2"):
            out = str(tmp_path / f"scan-{threads}-{len(outputs)}.svg")
            with mock.patch.dict(os.environ, {"IQLIN_THREADS": threads}):
                assert main(["scan2d", "--system", path, "--bounds=-1,1,-1,1",
                             "--resolution", "9", "--format", "svg", "--output", out]) == EXIT_OK
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
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


def test_import_loads_no_process_pool():
    # The CLI runs in one process; importing it must not load process-pool
    # machinery.  The one scalar type is fractions.Fraction.
    import iqlin

    code = ("import fractions, sys, iqlin.cli, iqlin.ivcore; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules]); "
            "print(iqlin.ivcore.Rational is fractions.Fraction)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(iqlin.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    assert result.stdout.splitlines() == ["[]", "True"]
