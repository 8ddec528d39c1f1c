"""Membership characterizations, their equivalences, and the conversions."""

from fractions import Fraction

import pytest

from iqlin import (
    AbsFormEvaluator,
    AbsIneqSystem,
    ConditionKind,
    GeneralizedIQSystem,
    Interval,
    IntervalMatrix,
    IntervalVector,
    Outcome,
    build_tuples,
    corollary1_construct,
    game_oracle,
    member_absform,
    member_absineq,
    member_controllable,
    member_intervalform,
    member_rohn,
    member_rohn_blocks,
    member_shary,
    member_shary_blocks,
    member_tolerable,
    member_united,
    prop1_construct,
    prop2_flatten,
    random_point,
    rat,
    vertex_oracle_k1,
)
from conftest import (
    gen_1x1,
    imat,
    ivec,
    ivl,
    outer_exists_system,
    pvec,
    random_classic,
    random_interval,
)


def united_gen(a, b):
    return gen_1x1(a_ex=a, b_ex=b)


def tolerable_gen(a, b):
    return gen_1x1(a_fa=a, b_ex=b)


def controllable_gen(a, b):
    return gen_1x1(a_ex=a, b_fa=b)


class TestWorkedOneDimensionalSets:
    """The united/tolerable/controllable 1-D sets, anchored by the vertex oracle."""

    def test_united_set(self):
        samples = ["1", "3/2", "2", "4", "9/2", "-1"]
        expected = [False, True, True, True, False, False]
        gen = united_gen((2, 4), (6, 8))
        oracle = [vertex_oracle_k1(gen, [x]).outcome is Outcome.MEMBER_CERTIFIED for x in samples]
        assert oracle == expected
        A_, b_ = imat([[(2, 4)]]), ivec([(6, 8)])
        assert [member_united(A_, b_, [x]).member for x in samples] == expected

    def test_tolerable_set(self):
        samples = ["1/2", "1", "3/2", "2", "5/2"]
        expected = [False, True, True, True, False]
        gen = tolerable_gen((2, 4), (2, 8))
        oracle = [vertex_oracle_k1(gen, [x]).outcome is Outcome.MEMBER_CERTIFIED for x in samples]
        assert oracle == expected
        A_, b_ = imat([[(2, 4)]]), ivec([(2, 8)])
        assert [member_tolerable(A_, b_, [x]).member for x in samples] == expected

    def test_controllable_contains_two(self):
        gen = controllable_gen((2, 4), (6, 8))
        assert vertex_oracle_k1(gen, ["2"]).outcome is Outcome.MEMBER_CERTIFIED
        assert member_controllable(imat([[(2, 4)]]), ivec([(6, 8)]), ["2"]).member

    def test_united_at_four_has_vertex_witness(self):
        # 2 * 4 = 8 realizes the boundary point.
        assert member_united(imat([[(2, 4)]]), ivec([(6, 8)]), ["4"]).member


# Every decision entry point that takes a point, as decide(gen, x), in
# both charac and oracle; the evaluator decides a one-point batch.
POINT_DECIDERS = (
    member_intervalform,
    member_absform,
    lambda gen, x: member_shary_blocks(*gen.block(1), x),
    lambda gen, x: member_rohn_blocks(*gen.block(1), x),
    lambda gen, x: AbsFormEvaluator(gen).member_many([x]),
    game_oracle,
    vertex_oracle_k1,
)


class TestIntervalForm:
    def test_united_member(self):
        gen = united_gen((2, 4), (6, 8))
        assert member_intervalform(gen, ["2"]).member

    def test_tolerable_member(self):
        gen = tolerable_gen((2, 4), (2, 8))
        assert member_intervalform(gen, ["1"]).member

    def test_order_sensitive_width_violation(self):
        verdict = member_intervalform(outer_exists_system(), ["1"])
        assert not verdict.member
        assert verdict.violated.kind is ConditionKind.WIDTH_ORDER
        assert verdict.violated.index == 1

    def test_inclusion_violation_row_reported(self):
        verdict = member_intervalform(united_gen((2, 4), (6, 8)), ["1"])
        assert not verdict.member
        assert verdict.violated.kind is ConditionKind.INCLUSION
        assert verdict.violated.index == 1

    def test_dimension_mismatch(self):
        gen = united_gen((2, 4), (6, 8))
        for decide in POINT_DECIDERS:
            for bad in (["1", "2"], (Fraction(1), 2), ()):
                with pytest.raises(ValueError):
                    decide(gen, bad)


class TestBareSequencePoints:
    def test_same_verdicts_as_point_vector(self, rng):
        from iqlin import InstanceSpec, random_instance
        for k in range(40):
            kappa = 1 + k % 2
            spec = InstanceSpec(m=rng.randint(1, 2), n=rng.randint(1, 3), kappa=kappa,
                                seed=rng.randint(0, 10 ** 9), zero_prob=0.4, magnitude=4)
            gen = random_instance(spec)
            evaluator = AbsFormEvaluator(gen)
            points = [random_point(spec.n, rng, magnitude=3) for _ in range(2)]
            points.append(pvec(*(rng.randint(-3, 3) for _ in range(spec.n))))
            for pv in points:
                bare = [tuple(pv), list(pv), [str(v) for v in pv]]
                if all(v.denominator == 1 for v in pv):
                    bare += [tuple(int(v) for v in pv), [int(v) for v in pv]]
                assert evaluator.member_many(bare) == evaluator.member_many([pv] * len(bare))
                want_abs = member_absform(gen, pv)
                want_oracle = game_oracle(gen, pv, grid=3)
                for x in bare:
                    assert member_absform(gen, x) == want_abs
                    assert game_oracle(gen, x, grid=3) == want_oracle
                    if kappa == 1:
                        assert member_shary_blocks(*gen.block(1), x) == member_shary_blocks(*gen.block(1), pv)

    def test_float_coordinates_refused(self):
        gen = united_gen((2, 4), (6, 8))
        for decide in POINT_DECIDERS:
            for bad in ([0.5], (Fraction(1, 2), 0.5)):
                with pytest.raises(TypeError):
                    decide(gen, bad)


class TestAbsForm:
    def test_united_boundary(self):
        gen = united_gen((2, 4), (6, 8))
        assert member_absform(gen, ["3/2"]).member
        assert not member_absform(gen, ["1"]).member

    def test_tolerable_boundary(self):
        gen = tolerable_gen((2, 4), (2, 8))
        assert member_absform(gen, ["2"]).member
        assert not member_absform(gen, ["5/2"]).member

    def test_two_block_solution_is_origin(self):
        gen = outer_exists_system()
        for x in ["0", "1/4", "-1/4", "1/2", "-1/2", "1"]:
            assert member_absform(gen, [x]).member == (rat(x) == 0)

    def test_diagnostic_order_radius_before_center(self):
        # At x=1 both the level-1 radius ordering and the center bound fail;
        # the verdict must blame the radius level first.
        verdict = member_absform(outer_exists_system(), ["1"])
        assert verdict.violated.kind is ConditionKind.RADIUS_ORDER
        assert verdict.violated.index == 1

    def test_center_bound_row_index(self):
        gen = GeneralizedIQSystem(
            [IntervalMatrix([[ivl(1, 1)], [ivl(1, 1)]])],
            [imat([[(0, 0)]] * 2)],
            [ivec([(0, 0)] * 2)],
            [IntervalVector([ivl(0, 0), ivl(5, 6)])],
        )
        verdict = member_absform(gen, ["0"])
        assert not verdict.member
        assert verdict.violated.kind is ConditionKind.CENTER_BOUND
        assert verdict.violated.index == 2


class TestEquivalences:
    def test_interval_equals_abs(self, rng):
        from iqlin import InstanceSpec, random_instance
        for k in range(400):
            spec = InstanceSpec(
                m=rng.randint(1, 4), n=rng.randint(1, 4), kappa=rng.randint(1, 4),
                seed=rng.randint(0, 10 ** 9), zero_prob=rng.choice([0.2, 0.5, 0.8]),
            )
            gen = random_instance(spec)
            for _ in range(4):
                x = random_point(spec.n, rng)
                a = member_absform(gen, x).member
                assert member_intervalform(gen, x).member == a

    def test_k1_collapse_to_shary_and_rohn(self, rng):
        from iqlin import InstanceSpec, random_instance
        for k in range(200):
            spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=1,
                                seed=rng.randint(0, 10 ** 9), zero_prob=0.4)
            gen = random_instance(spec)
            blocks = gen.block(1)
            for _ in range(3):
                x = random_point(spec.n, rng)
                a = member_absform(gen, x).member
                assert member_intervalform(gen, x).member == a
                assert member_shary_blocks(*blocks, x).member == a
                assert member_rohn_blocks(*blocks, x).member == a

    def test_exists_widening_preserves_membership(self, rng):
        # Growing an exists interval can only keep or add members; growing a
        # forall interval can only keep or remove them.
        from iqlin import InstanceSpec, random_instance
        for k in range(150):
            spec = InstanceSpec(m=rng.randint(1, 2), n=rng.randint(1, 2),
                                kappa=rng.randint(1, 3), seed=rng.randint(0, 10 ** 9),
                                zero_prob=0.3)
            gen = random_instance(spec)
            x = random_point(spec.n, rng)
            before = member_absform(gen, x).member
            s = rng.randrange(gen.kappa)
            i = rng.randrange(spec.m)
            j = rng.randrange(spec.n)
            grow = rat(rng.randint(1, 3))
            def widen(mat, ii, jj):
                rows = [list(r) for r in mat.rows]
                old = rows[ii][jj]
                rows[ii][jj] = Interval(old.lo - grow, old.hi + grow)
                return IntervalMatrix(rows)
            wider_e = GeneralizedIQSystem(
                gen.a_forall,
                tuple(widen(mat, i, j) if t == s else mat for t, mat in enumerate(gen.a_exists)),
                gen.b_forall, gen.b_exists,
            )
            after_e = member_absform(wider_e, x).member
            if before:
                assert after_e
            wider_f = GeneralizedIQSystem(
                tuple(widen(mat, i, j) if t == s else mat for t, mat in enumerate(gen.a_forall)),
                gen.a_exists, gen.b_forall, gen.b_exists,
            )
            after_f = member_absform(wider_f, x).member
            if not before:
                assert not after_f

    def test_moving_exists_inward_grows_solution_set(self, rng):
        # An exists parameter moved to an inner block is committed later,
        # with more information, so membership can only improve.
        for k in range(150):
            kappa = rng.randint(2, 4)
            outer = rng.randint(2, kappa)
            inner = rng.randint(1, outer - 1)
            box = random_interval(rng)
            blocks = []
            for s in range(1, kappa + 1):
                blocks.append((
                    random_interval(rng, zero_prob=0.5),
                    box if s == outer else (0, 0),
                    random_interval(rng, zero_prob=0.5),
                    random_interval(rng, zero_prob=0.5),
                ))
            gen_outer = gen_1x1(blocks=blocks)
            blocks[outer - 1] = (blocks[outer - 1][0], (0, 0), blocks[outer - 1][2], blocks[outer - 1][3])
            blocks[inner - 1] = (blocks[inner - 1][0], box, blocks[inner - 1][2], blocks[inner - 1][3])
            gen_inner = gen_1x1(blocks=blocks)
            x = random_point(1, rng)
            if member_absform(gen_outer, x).member:
                assert member_absform(gen_inner, x).member

    def test_zero_point_specialization(self, rng):
        # At x = 0 membership reduces to rhs data alone.
        from iqlin import InstanceSpec, random_instance
        for k in range(100):
            spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3),
                                kappa=rng.randint(1, 3), seed=rng.randint(0, 10 ** 9),
                                zero_prob=0.4)
            gen = random_instance(spec)
            m = spec.m
            zero = pvec(*([0] * spec.n))
            expected = True
            for i in range(m):
                lacc = rat(0)
                racc = rat(0)
                for level in range(1, gen.kappa):
                    lacc += gen.b_forall[level - 1][i].rad()
                    racc += gen.b_exists[level - 1][i].rad()
                    if lacc > racc:
                        expected = False
                center = sum((gen.b_forall[s][i].mid() + gen.b_exists[s][i].mid()
                              for s in range(gen.kappa)), rat(0))
                total_l = sum((gen.b_forall[s][i].rad() for s in range(gen.kappa)), rat(0))
                total_r = sum((gen.b_exists[s][i].rad() for s in range(gen.kappa)), rat(0))
                if abs(center) + total_l > total_r:
                    expected = False
            assert member_absform(gen, zero).member == expected


class TestAESystem:
    """One-block (AE) systems: the forall/exists slots of block 1 and its deciders."""

    def test_split_is_disjoint_partition(self):
        # D < 0 puts the box [1, 2] in the forall slot; D, d > 0 put [3, 4], [5, 6] in exists.
        sys = AbsIneqSystem([["3/2", "7/2"]], [["-1/2", "1/2"]], ["11/2"], ["1/2"])
        fa, ex, bfa, bex = prop1_construct(sys).block(1)
        assert fa.entry(0, 0) == ivl(1, 2) and ex.entry(0, 0).is_zero()
        assert ex.entry(0, 1) == ivl(3, 4) and fa.entry(0, 1).is_zero()
        assert bex[0] == ivl(5, 6) and bfa[0].is_zero()
        assert fa + ex == imat([[(1, 2), (3, 4)]])

    def test_shary_rohn_agree_on_degenerate_system(self):
        gen = gen_1x1(a_fa=(3, 3), b_ex=(6, 6))
        for x, want in (("2", True), ("1", False)):
            assert member_shary(gen, [x]).member is want
            assert member_rohn(gen, [x]).member is want

    def test_verdict_tags(self):
        gen = united_gen((2, 4), (6, 8))
        v1 = member_shary(gen, ["1"])
        assert v1.violated.kind is ConditionKind.SHARY_INCLUSION
        v2 = member_rohn(gen, ["1"])
        assert v2.violated.kind is ConditionKind.ROHN_BOUND

    @pytest.mark.parametrize("named", [member_united, member_tolerable, member_controllable])
    def test_named_sets_refuse_mismatched_rhs(self, named):
        with pytest.raises(ValueError, match="rhs length"):
            named(imat([[(2, 4)]]), ivec([(6, 8), (1, 2)]), ["1"])

    @pytest.mark.parametrize("decide", [member_shary, member_rohn], ids=["shary", "rohn"])
    def test_two_blocks_refused(self, decide):
        with pytest.raises(ValueError, match="kappa = 2"):
            decide(outer_exists_system(), ["0"])


class TestProp1:
    def test_worked_example(self):
        sys = AbsIneqSystem([["3"]], [["-1"]], ["5"], ["2"])
        ae = prop1_construct(sys)
        # D = -1 puts [2, 4] in the forall slot, d = 2 puts [3, 7] in exists.
        assert ae.block(1) == (imat([[(2, 4)]]), imat([[(0, 0)]]), ivec([(0, 0)]), ivec([(3, 7)]))
        x = ["3/2"]
        assert member_absineq(sys, x).member
        assert member_rohn(ae, x).member

    def test_degenerate_point_system(self):
        sys = AbsIneqSystem([[2]], [[0]], [6], [0])
        ae = prop1_construct(sys)
        for x in ("3", "2", "0"):
            assert member_rohn(ae, [x]).member == (rat(x) * 2 == 6)

    def test_vacuous_inequality(self):
        sys = AbsIneqSystem([[0]], [[1]], [0], [1])
        ae = prop1_construct(sys)
        for x in ("0", "5", "-7/2"):
            assert member_rohn(ae, [x]).member

    def test_zero_coefficient_ties_to_exists(self):
        sys = AbsIneqSystem([[1]], [[0]], [2], [0])
        ae = prop1_construct(sys)
        assert ae.block(1) == (imat([[(0, 0)]]), imat([[(1, 1)]]), ivec([(0, 0)]), ivec([(2, 2)]))

    def test_equivalence_property(self, rng):
        for k in range(250):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            def rmat():
                return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
            def rvec():
                return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            sys = AbsIneqSystem(rmat(), rmat(), rvec(), rvec())
            ae = prop1_construct(sys)
            for _ in range(4):
                x = random_point(n, rng)
                assert member_absineq(sys, x).member == member_rohn(ae, x).member


class TestCorollary1:
    def test_united_reproduction(self):
        ae = corollary1_construct(
            imat([[(0, 0)]]), imat([[(2, 4)]]),
            ivec([(0, 0)]), ivec([(6, 8)]),
        )
        for x, want in (("3/2", True), ("4", True), ("1", False), ("9/2", False)):
            assert member_rohn(ae, [x]).member is want

    def test_tolerable_reproduction(self):
        ae = corollary1_construct(
            imat([[(2, 4)]]), imat([[(0, 0)]]),
            ivec([(0, 0)]), ivec([(2, 8)]),
        )
        for x, want in (("1", True), ("2", True), ("1/2", False), ("5/2", False)):
            assert member_rohn(ae, [x]).member is want

    def test_degenerate_exact_system(self):
        ae = corollary1_construct(
            imat([[(3, 3)]]), imat([[(0, 0)]]),
            ivec([(6, 6)]), ivec([(0, 0)]),
        )
        assert member_rohn(ae, ["2"]).member
        assert not member_rohn(ae, ["1"]).member

    def test_matches_pair_characterization(self, rng):
        for k in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            a_fa = IntervalMatrix([[random_interval(rng, zero_prob=0.3) for _ in range(n)] for _ in range(m)])
            a_ex = IntervalMatrix([[random_interval(rng, zero_prob=0.3) for _ in range(n)] for _ in range(m)])
            b_fa = IntervalVector([random_interval(rng, zero_prob=0.3) for _ in range(m)])
            b_ex = IntervalVector([random_interval(rng, zero_prob=0.3) for _ in range(m)])
            ae = corollary1_construct(a_fa, a_ex, b_fa, b_ex)
            for _ in range(4):
                x = random_point(n, rng)
                want = member_rohn_blocks(a_fa, a_ex, b_fa, b_ex, x).member
                assert member_rohn(ae, x).member == want
                assert member_shary_blocks(a_fa, a_ex, b_fa, b_ex, x).member == want


class TestProp2:
    def test_two_block_worked_example(self):
        ae = prop2_flatten(outer_exists_system())
        assert ae.shape == (2, 1) and ae.kappa == 1
        fa, ex, bfa, bex = ae.block(1)
        # Level row: radius slack -1/2 |x|, center zero, universal matrix entry.
        assert fa.entry(0, 0) == ivl("-1/2", "1/2") and ex.entry(0, 0).is_zero()
        assert bex[0] == ivl(0, 0) and bfa[0].is_zero()
        # Center row: [1, 2] universal, rhs [-1, 1] existential.
        assert fa.entry(1, 0) == ivl(1, 2) and ex.entry(1, 0).is_zero()
        assert bex[1] == ivl(-1, 1) and bfa[1].is_zero()
        for x in ("0", "1/4", "-1/2", "1"):
            assert member_rohn(ae, [x]).member == (rat(x) == 0)

    def test_k1_flattening_reproduces_pair_form(self, rng):
        from iqlin import InstanceSpec, random_instance
        spec = InstanceSpec(m=2, n=2, kappa=1, seed=11, zero_prob=0.3)
        gen = random_instance(spec)
        ae = prop2_flatten(gen)
        assert ae.shape == (2, 2)
        for _ in range(10):
            x = random_point(2, rng)
            assert member_rohn(ae, x).member == member_rohn_blocks(*gen.block(1), x).member

    def test_all_zero_tuples_accept_everything(self, rng):
        gen = GeneralizedIQSystem(
            [imat([[(0, 0)] * 2] * 2)] * 3,
            [imat([[(0, 0)] * 2] * 2)] * 3,
            [ivec([(0, 0)] * 2)] * 3,
            [ivec([(0, 0)] * 2)] * 3,
        )
        ae = prop2_flatten(gen)
        for _ in range(5):
            x = random_point(2, rng)
            assert member_rohn(ae, x).member
            assert member_absform(gen, x).member

    def test_equivalence_property(self, rng):
        from iqlin import InstanceSpec, random_instance
        for k in range(200):
            spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3),
                                kappa=rng.randint(1, 4), seed=rng.randint(0, 10 ** 9),
                                zero_prob=0.4)
            gen = random_instance(spec)
            ae = prop2_flatten(gen)
            for _ in range(4):
                x = random_point(spec.n, rng)
                assert member_absform(gen, x).member == member_rohn(ae, x).member


class TestBatchEvaluator:
    def test_matches_absform(self, rng):
        from iqlin import InstanceSpec, random_instance
        for k in range(100):
            spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3),
                                kappa=rng.randint(1, 3), seed=rng.randint(0, 10 ** 9),
                                zero_prob=0.3)
            gen = random_instance(spec)
            ev = AbsFormEvaluator(gen)
            pts = [random_point(spec.n, rng) for _ in range(6)]
            assert ev.member_many(pts) == [member_absform(gen, p).member for p in pts]

    def test_overflow_falls_back_to_exact_path(self):
        gen = tolerable_gen((2, 4), (2, 8))
        ev = AbsFormEvaluator(gen)
        huge = 10 ** 30
        pts = [pvec(Fraction(huge, 7)), pvec(1), pvec(Fraction(3, 2))]
        assert ev.encode_points(pts) is None
        assert ev.member_many(pts) == [member_absform(gen, p).member for p in pts]

    def test_empty_batch(self):
        ev = AbsFormEvaluator(tolerable_gen((2, 4), (2, 8)))
        assert ev.member_many([]) == []


class TestBuildTuplesIntegration:
    def test_classic_pipeline_matches_direct_blocks(self, rng):
        # A classic system's membership equals the pair characterization of
        # its summed forall/exists split when the prefix is one AE block.
        for _ in range(50):
            sys = random_classic(rng, 2, 2)
            gen = build_tuples(sys)
            x = random_point(2, rng)
            assert member_absform(gen, x).member == member_intervalform(gen, x).member
