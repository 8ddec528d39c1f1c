"""Prefix parsing, AE-block decomposition, and the block-tuple partition."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqlin import (
    ClassicIQSystem,
    Quantifier,
    QuantifierPrefix,
    block_assignment,
    block_shapes,
    build_tuples,
    decompose_ae_blocks,
    format_prefix,
    matrix_param,
    member_absform,
    parse_prefix,
    parse_prefix_text,
    recompose_prefix,
    rhs_param,
    validate_disjoint,
)
from iqlin.ivcore import Interval
from conftest import brute_valid_cut_sets, imat, ivec, random_classic

A, E = Quantifier.FORALL, Quantifier.EXISTS


def word_prefix(word: str, m: int, n: int) -> QuantifierPrefix:
    """Prefix with the given outermost-first quantifier word, parameters row-major."""
    params = [matrix_param(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    params += [rhs_param(i) for i in range(1, m + 1)]
    assert len(word) == len(params)
    return QuantifierPrefix(m, n, [(p, Quantifier(c)) for p, c in zip(params, word)])


class TestParsing:
    def test_basic(self):
        p = parse_prefix(1, 1, [(E, rhs_param(1)), (A, matrix_param(1, 1))])
        assert p.mu == 2
        assert p.quantifier_word() == "EA"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_prefix(1, 1, [(A, matrix_param(1, 1)), (A, matrix_param(1, 1))])

    def test_unbound_rejected(self):
        with pytest.raises(ValueError, match="unbound"):
            parse_prefix(1, 1, [(A, matrix_param(1, 1))])

    def test_unbound_listed_row_major(self):
        # The first four unbound parameters, a[i,1..n] before b[i], row by row.
        for text, shown in (("E a[2,2]", "a[1,1], a[1,2], b[1], a[2,1]"),
                            ("A b[2] E a[1,2]", "a[1,1], b[1], a[2,1], a[2,2]")):
            with pytest.raises(ValueError) as info:
                parse_prefix_text(2, 2, text)
            assert str(info.value) == f"prefix must bind every parameter; unbound: {shown}"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_prefix(1, 1, [(A, matrix_param(2, 1)), (E, rhs_param(1))])

    def test_text_grammar_round_trip(self):
        text = "A a[2,1] E b[3] E a[1,1] A a[1,2] A a[2,2] E b[1] A b[2] E a[3,1] A a[3,2] E b[2]"
        # use a 3x2 system: mu = 3*3 = 9... adjust to exactly the parameter set
        p = parse_prefix_text(3, 2, "A a[2,1] E b[3] E a[1,1] A a[1,2] A a[2,2] E b[1] A b[2] E a[3,1] A a[3,2]")
        assert format_prefix(p) == "A a[2,1] E b[3] E a[1,1] A a[1,2] A a[2,2] E b[1] A b[2] E a[3,1] A a[3,2]"
        assert parse_prefix_text(3, 2, format_prefix(p)) == p

    def test_text_grammar_errors(self):
        with pytest.raises(ValueError, match="alternate"):
            parse_prefix_text(1, 1, "A a[1,1] E")
        with pytest.raises(ValueError, match="malformed"):
            parse_prefix_text(1, 1, "A a(1,1) E b[1]")
        with pytest.raises(ValueError, match="quantifier token"):
            parse_prefix_text(1, 1, "Q a[1,1] E b[1]")


class TestDecomposition:
    def test_three_blocks(self):
        p = word_prefix("EEAEAA", 2, 2)
        bd = decompose_ae_blocks(p)
        assert bd.kappa == 3
        assert block_shapes(p) == ("AA", "AE", "EE")

    def test_all_exists_single_block(self):
        p = word_prefix("EE", 1, 1)
        bd = decompose_ae_blocks(p)
        assert bd.kappa == 1
        assert block_shapes(p) == ("EE",)

    def test_forall_exists_single_block(self):
        p = word_prefix("AAEE", 1, 3)
        bd = decompose_ae_blocks(p)
        assert bd.kappa == 1

    def test_all_forall_single_block(self):
        p = word_prefix("AA", 1, 1)
        assert decompose_ae_blocks(p).kappa == 1

    def test_matches_brute_force_up_to_mu_8(self):
        # Every word has exactly one valid split, and it is the one we compute.
        for mu in range(1, 9):
            m, n = 1, mu - 1
            if n == 0:
                continue
            A, b = imat([[(1, 2)] * n]), ivec([(0, 1)])
            for bits in range(2 ** mu):
                word = "".join("AE"[(bits >> t) & 1] for t in range(mu))
                p = word_prefix(word, m, n)
                valid = brute_valid_cut_sets(word)
                assert len(valid) == 1, (word, valid)
                assert decompose_ae_blocks(p).cuts == valid[0]
                kappa = build_tuples(ClassicIQSystem(A, b, p)).kappa
                assert kappa == len(block_shapes(p)) == len(valid[0]) - 1, word

    def test_kappa_one_iff_forall_exists_shape(self):
        rng = random.Random(3)
        for _ in range(200):
            mu = rng.randint(2, 8)
            word = "".join(rng.choice("AE") for _ in range(mu))
            p = word_prefix(word, 1, mu - 1)
            bd = decompose_ae_blocks(p)
            assert 1 <= bd.kappa <= mu
            assert (bd.kappa == 1) == bool(re.fullmatch(r"A*E*", word))


class TestBuildTuples:
    def test_forall_matrix_exists_rhs(self):
        sys = ClassicIQSystem(
            imat([[(2, 4)]]), ivec([(6, 8)]),
            parse_prefix_text(1, 1, "A a[1,1] E b[1]"),
        )
        gen = build_tuples(sys)
        assert gen.kappa == 1
        assert gen.a_forall[0] == imat([[(2, 4)]])
        assert gen.b_exists[0] == ivec([(6, 8)])
        assert gen.a_exists[0] == imat([[(0, 0)]])
        assert gen.b_forall[0] == ivec([(0, 0)])

    def test_all_forall(self):
        sys = ClassicIQSystem(
            imat([[(2, 4)]]), ivec([(6, 8)]),
            parse_prefix_text(1, 1, "A a[1,1] A b[1]"),
        )
        gen = build_tuples(sys)
        assert gen.kappa == 1
        assert gen.a_forall[0] == sys.A
        assert gen.b_forall[0] == sys.b
        assert gen.a_exists[0] == imat([[(0, 0)]])
        assert gen.b_exists[0] == ivec([(0, 0)])

    def test_three_block_slotting(self):
        # EEAEAA over a 2x2 system, parameters row-major: a11 a12 b1 a21 a22 b2.
        sys = ClassicIQSystem(
            imat([[(1, 2), (3, 4)], [(5, 6), (7, 8)]]),
            ivec([(9, 10), (11, 12)]),
            word_prefix("EEAEAA", 2, 2),
        )
        gen = build_tuples(sys)
        assert gen.kappa == 3
        # Innermost block AA holds the last two bindings b1, b2 as foralls.
        assert gen.b_forall[0] == ivec([(9, 10), (11, 12)])
        # Middle block AE: a21 forall (outer), a22 exists (inner).
        assert gen.a_forall[1].entry(1, 0) == Interval(5, 6)
        assert gen.a_exists[1].entry(1, 1) == Interval(7, 8)
        # Outermost block EE: a11, a12 exists.
        assert gen.a_exists[2].entry(0, 0) == Interval(1, 2)
        assert gen.a_exists[2].entry(0, 1) == Interval(3, 4)
        report = validate_disjoint(gen, sys.A, sys.b)
        assert report.ok

    def test_partition_property(self, rng):
        for _ in range(120):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            sys = random_classic(rng, m, n, zero_prob=0.2)
            gen = build_tuples(sys)
            assert validate_disjoint(gen, sys.A, sys.b).ok
            assert gen.summed_a() == sys.A
            assert gen.summed_b() == sys.b
            # Per-slot nonzero count over the 2*kappa tuples is at most one.
            for i in range(m):
                for j in range(n):
                    count = sum(
                        1 for mat in (*gen.a_forall, *gen.a_exists)
                        if not mat.entry(i, j).is_zero()
                    )
                    assert count <= 1


class TestValidateDisjoint:
    def test_double_claim_reported(self):
        gen_bad = build_tuples(ClassicIQSystem(
            imat([[(1, 2)]]), ivec([(0, 0)]),
            parse_prefix_text(1, 1, "E b[1] A a[1,1]"),
        ))
        # Forge a second claim of slot (1,1) in the outer block.
        from iqlin import GeneralizedIQSystem
        forged = GeneralizedIQSystem(
            a_forall=(gen_bad.a_forall[0], imat([[(1, 2)]])),
            a_exists=gen_bad.a_exists,
            b_forall=gen_bad.b_forall,
            b_exists=gen_bad.b_exists,
        )
        report = validate_disjoint(forged, imat([[(2, 4)]]), ivec([(0, 0)]))
        assert not report.ok
        assert report.param == matrix_param(1, 1)
        assert "claim" in report.reason

    def test_sum_mismatch_reported(self):
        gen = build_tuples(ClassicIQSystem(
            imat([[(1, 3)]]), ivec([(0, 0)]),
            parse_prefix_text(1, 1, "E a[1,1] E b[1]"),
        ))
        report = validate_disjoint(gen, imat([[(1, 4)]]), ivec([(0, 0)]))
        assert not report.ok
        assert report.param == matrix_param(1, 1)
        assert report.reason == "slot sum [1, 3] != [1, 4]"
        # Every slot of b[1] is zero: the sum is the zero slot.
        report = validate_disjoint(gen, imat([[(1, 3)]]), ivec([("-1/2", 0)]))
        assert str(report) == "disjoint partition violated at b[1]: slot sum [0, 0] != [-1/2, 0]"


class TestRecompose:
    def test_round_trip_exact(self, rng):
        # With no zero-point parameters the tuples pin down block and
        # quantifier of every slot, so rebuilding is exact.
        for _ in range(100):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            sys = random_classic(rng, m, n, avoid_zero=True)
            gen = build_tuples(sys)
            rebuilt = build_tuples(ClassicIQSystem(sys.A, sys.b, recompose_prefix(gen)))
            assert rebuilt == gen

    def test_boundaries_preserved_on_nonzero_parameters(self, rng):
        for _ in range(60):
            m, n = rng.randint(1, 2), rng.randint(1, 3)
            sys = random_classic(rng, m, n, avoid_zero=True)
            gen = build_tuples(sys)
            original = decompose_ae_blocks(sys.prefix)
            recomposed = decompose_ae_blocks(recompose_prefix(gen))
            assert recomposed.cuts == original.cuts

    def test_zero_parameter_goes_innermost_exists(self):
        sys = ClassicIQSystem(
            imat([[(0, 0)]]), ivec([(1, 2)]),
            parse_prefix_text(1, 1, "A a[1,1] E b[1]"),
        )
        gen = build_tuples(sys)
        prefix = recompose_prefix(gen)
        # The zero matrix entry is reassigned to the innermost exists group.
        assert (matrix_param(1, 1), E) in prefix.bindings
        assert prefix.quantifier_word() == "EE"
        # Solution data unaffected: tuples agree up to the zero slot.
        assert build_tuples(ClassicIQSystem(sys.A, sys.b, prefix)).summed_a() == sys.A
        # With two blocks, a zero bound in the outer block moves innermost too.
        sys = ClassicIQSystem(
            imat([[(1, 2), (0, 0)]]), ivec([(1, 2)]),
            parse_prefix_text(1, 2, "E a[1,2] E a[1,1] A b[1]"),
        )
        assert format_prefix(recompose_prefix(build_tuples(sys))) == "E a[1,1] A b[1] E a[1,2]"

    def test_all_exists_round_trip(self):
        sys = ClassicIQSystem(
            imat([[(1, 2)]]), ivec([(3, 4)]),
            parse_prefix_text(1, 1, "E a[1,1] E b[1]"),
        )
        gen = build_tuples(sys)
        assert recompose_prefix(gen).quantifier_word() == "EE"

    def test_non_disjoint_rejected(self):
        from iqlin import GeneralizedIQSystem
        gen = GeneralizedIQSystem(
            a_forall=(imat([[(1, 2)]]), imat([[(1, 2)]])),
            a_exists=(imat([[(0, 0)]]),) * 2,
            b_forall=(ivec([(0, 0)]),) * 2,
            b_exists=(ivec([(0, 1)]), ivec([(0, 0)])),
        )
        with pytest.raises(ValueError, match="disjoint"):
            recompose_prefix(gen)

    def test_refusal_matches_validate_disjoint(self):
        # recompose_prefix forms no slot sum; it must refuse exactly the
        # tuples that validate_disjoint rejects against their own sums, at
        # the same first slot.
        from iqlin import InstanceSpec, random_instance
        rng = random.Random(611)
        refused = 0
        for _ in range(300):
            gen = random_instance(InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=rng.randint(1, 3),
                                               seed=rng.randrange(2 ** 31), zero_prob=rng.choice([0.6, 0.8, 0.95])))
            report = validate_disjoint(gen, gen.summed_a(), gen.summed_b())
            if report.ok:
                recompose_prefix(gen)
            else:
                refused += 1
                with pytest.raises(ValueError) as info:
                    recompose_prefix(gen)
                assert str(info.value) == f"cannot recompose a prefix: {report}"
        assert 50 < refused < 250


class TestBlockAssignment:
    def test_assignment_matches_shapes(self):
        p = word_prefix("EEAEAA", 2, 2)
        blocks = block_assignment(p)
        # Outermost-first listing: first two bindings sit in block 3, then 2, 2, then 1, 1.
        assert blocks == (3, 3, 2, 2, 1, 1)


def member_under(sys: ClassicIQSystem, bindings, x) -> bool:
    """Membership of x when sys's data is read under the prefix ``bindings``."""
    prefix = QuantifierPrefix(*sys.shape, bindings)
    return member_absform(build_tuples(ClassicIQSystem(sys.A, sys.b, prefix)), x).member


def prefix_relations(sys: ClassicIQSystem, x) -> tuple:
    """Check the two one-way prefix relations at x; return (f checks, f strict, g checks, g strict).

    (f) "A p E q" -> "E q A p" strengthens the formula: member after implies member before.
    (g) one A -> E weakens it: member before implies member after.
    Every adjacent A-E pair and every A of the prefix is tried.
    """
    bindings = sys.prefix.bindings
    word = sys.prefix.quantifier_word()
    before = member_under(sys, bindings, x)
    f = f_strict = g = g_strict = 0
    for k in range(len(word)):
        if word[k:k + 2] == "AE":
            swapped = [*bindings[:k], bindings[k + 1], bindings[k], *bindings[k + 2:]]
            after = member_under(sys, swapped, x)
            assert before or not after, (sys, k, x)
            f += 1
            f_strict += before and not after
        if word[k] == "A":
            flipped = [*bindings[:k], (bindings[k][0], E), *bindings[k + 1:]]
            after = member_under(sys, flipped, x)
            assert after or not before, (sys, k, x)
            g += 1
            g_strict += after and not before
    return f, f_strict, g, g_strict


class TestPrefixRelations:
    def test_one_way_relations_seeded(self):
        rng = random.Random(20261022)
        totals = [0, 0, 0, 0]
        for _ in range(400):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            sys = random_classic(rng, m, n, zero_prob=0.2)
            for _ in range(3):
                x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                totals = [t + c for t, c in zip(totals, prefix_relations(sys, x))]
        f, f_strict, g, g_strict = totals
        # Both relations must be strict somewhere, or they could hold vacuously.
        assert f > 1200 and g > 3000, totals
        assert f_strict >= 5 and g_strict >= 100, totals

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1),
           coords=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=3, max_size=3))
    def test_one_way_relations_hypothesis(self, m, n, seed, coords):
        prefix_relations(random_classic(random.Random(seed), m, n, zero_prob=0.2), coords[:n])
