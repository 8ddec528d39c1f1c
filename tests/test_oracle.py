"""Game-search oracles against the closed forms, plus instance generation."""

import ast
from pathlib import Path

import pytest

import iqlin.oracle
from iqlin import (
    GeneralizedIQSystem,
    InstanceSpec,
    IntervalMatrix,
    IntervalVector,
    NodeCapExceeded,
    Outcome,
    game_oracle,
    member_absform,
    random_instance,
    random_point,
    vertex_oracle_k1,
)
from conftest import gen_1x1, imat, inner_exists_system, ivec, outer_exists_system, pvec


class TestVertexOracle:
    def test_united_member(self):
        gen = gen_1x1(a_ex=(2, 4), b_ex=(6, 8))
        verdict = vertex_oracle_k1(gen, ["3/2"])
        assert verdict.outcome is Outcome.MEMBER_CERTIFIED

    def test_tolerable_vertex_refutes(self):
        gen = gen_1x1(a_fa=(2, 4), b_ex=(2, 8))
        verdict = vertex_oracle_k1(gen, ["3"])
        assert verdict.outcome is Outcome.NOT_MEMBER_CERTIFIED

    def test_degenerate_point_system(self):
        gen = gen_1x1(a_ex=(3, 3), b_ex=(6, 6))
        assert vertex_oracle_k1(gen, ["2"]).outcome is Outcome.MEMBER_CERTIFIED
        assert vertex_oracle_k1(gen, ["1"]).outcome is Outcome.NOT_MEMBER_CERTIFIED

    def test_requires_one_block(self):
        with pytest.raises(ValueError):
            vertex_oracle_k1(outer_exists_system(), ["0"])

    def test_branching_cap(self):
        m, n = 3, 6
        gen = GeneralizedIQSystem(
            [IntervalMatrix([[imat([[(0, 1)]]).entry(0, 0)] * n for _ in range(m)])],
            [imat([[(0, 0)] * n] * m)],
            [IntervalVector([ivec([(0, 1)])[0]] * m)],
            [ivec([(0, 0)] * m)],
        )
        x = pvec(*([1] * n))
        with pytest.raises(NodeCapExceeded):
            vertex_oracle_k1(gen, x, max_forall=20)
        # A per-instance cap raise admits it again (3 * 7 = 21 branchings).
        vertex_oracle_k1(gen, x, max_forall=21)

    def test_agrees_with_absform(self, rng):
        for k in range(300):
            spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=1,
                                seed=rng.randint(0, 10 ** 9),
                                zero_prob=rng.choice([0.2, 0.5, 0.8]))
            gen = random_instance(spec)
            x = random_point(spec.n, rng)
            got = vertex_oracle_k1(gen, x).outcome is Outcome.MEMBER_CERTIFIED
            assert got == member_absform(gen, x).member


class TestGameOracle:
    def test_two_block_member_with_grid_witness(self):
        verdict = game_oracle(outer_exists_system(), ["0"], grid=3)
        assert verdict.outcome is Outcome.MEMBER_CERTIFIED

    def test_two_block_refutation_needs_feasibility_windows(self):
        # The committed-outside rhs cannot match both adversarial matrix
        # vertices once x is nonzero, and the oracle must notice that
        # without any help from the closed forms.
        verdict = game_oracle(outer_exists_system(), ["1/4"], grid=3)
        assert verdict.outcome is Outcome.NOT_MEMBER_CERTIFIED

    def test_reversed_order_admits_half_interval(self):
        gen = inner_exists_system()
        for x, want in (("0", True), ("1/4", True), ("1/2", True), ("1", False)):
            verdict = game_oracle(gen, [x], grid=3)
            want_outcome = Outcome.MEMBER_CERTIFIED if want else Outcome.NOT_MEMBER_CERTIFIED
            assert verdict.outcome is want_outcome

    def test_one_block_is_never_unknown(self, rng):
        for k in range(120):
            spec = InstanceSpec(m=rng.randint(1, 2), n=rng.randint(1, 2), kappa=1,
                                seed=rng.randint(0, 10 ** 9), zero_prob=0.5)
            gen = random_instance(spec)
            x = random_point(spec.n, rng)
            verdict = game_oracle(gen, x)
            assert verdict.outcome is not Outcome.UNKNOWN
            assert (verdict.outcome is Outcome.MEMBER_CERTIFIED) == member_absform(gen, x).member

    def test_soundness_on_small_instances(self, rng):
        outcomes = {Outcome.MEMBER_CERTIFIED: 0, Outcome.NOT_MEMBER_CERTIFIED: 0, Outcome.UNKNOWN: 0}
        for k in range(250):
            spec = InstanceSpec(m=rng.randint(1, 2), n=rng.randint(1, 2),
                                kappa=rng.randint(1, 3), seed=rng.randint(0, 10 ** 9),
                                zero_prob=0.55, magnitude=4)
            gen = random_instance(spec)
            x = random_point(spec.n, rng, magnitude=3)
            verdict = game_oracle(gen, x, grid=3)
            outcomes[verdict.outcome] += 1
            member = member_absform(gen, x).member
            if verdict.outcome is Outcome.MEMBER_CERTIFIED:
                assert member
            elif verdict.outcome is Outcome.NOT_MEMBER_CERTIFIED:
                assert not member
        # The sample must actually exercise both certified directions.
        assert outcomes[Outcome.MEMBER_CERTIFIED] > 0
        assert outcomes[Outcome.NOT_MEMBER_CERTIFIED] > 0

    def test_grid_refinement_monotone(self, rng):
        # Nested grids (3, 5, 9) can only convert Unknown into certified.
        suite = []
        while len(suite) < 40:
            spec = InstanceSpec(m=1, n=rng.randint(1, 2), kappa=rng.randint(2, 3),
                                seed=rng.randint(0, 10 ** 9), zero_prob=0.5, magnitude=4)
            gen = random_instance(spec)
            x = random_point(spec.n, rng, magnitude=2)
            if member_absform(gen, x).member:
                suite.append((gen, x))
        unknowns = {}
        for g in (3, 5, 9):
            unknowns[g] = sum(
                1 for gen, x in suite
                if game_oracle(gen, x, grid=g, node_cap=10 ** 7).outcome is Outcome.UNKNOWN
            )
        assert unknowns[3] >= unknowns[5] >= unknowns[9]

    def test_member_with_slack_certified_on_fine_grid(self):
        # Inner exists slack keeps x=1/2 strictly inside the solution set;
        # the g=9 grids carry exact witnesses (commit 1/2 outside, answer
        # each matrix vertex with 0 or 1/2 inside).
        gen = gen_1x1(blocks=[((1, 2), (0, 0), (0, 0), (-2, 2)),
                              ((0, 0), (0, 0), (0, 0), (-1, 1))])
        assert member_absform(gen, ["1/2"]).member
        verdict = game_oracle(gen, ["1/2"], grid=9)
        assert verdict.outcome is Outcome.MEMBER_CERTIFIED

    def test_node_cap_errors_instead_of_unknown(self):
        with pytest.raises(NodeCapExceeded):
            game_oracle(outer_exists_system(), ["0"], grid=3, node_cap=1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            game_oracle(inner_exists_system(), ["0"], grid=1)

    @pytest.mark.parametrize("kappa", [1, 2])
    @pytest.mark.parametrize("universal", [False, True], ids=["exists", "forall"])
    def test_row_at_the_move_cap_finishes(self, kappa, universal):
        # Each pass reaches full depth at its first leaf: the universal row
        # fails there, and the gridded existential row misses 0 there.  At the
        # cap both passes finish or stop at the leaf budget under this stack;
        # one more move is refused before any search.
        cap = iqlin.oracle.MAX_ROW_MOVES
        n = cap + 1
        for moves in (cap, cap + 1):
            nonzero = moves if universal else moves - 1
            block = (([(0, 1)] * n, [(0, 0)] * n, (0, 0), (5, 5)) if universal
                     else ([(0, 0)] * n, [(-1, 2)] * n, (0, 0), (-1, 1)))
            blocks = [block] + [([(0, 0)] * n, [(0, 0)] * n, (0, 0), (0, 0))] * (kappa - 1)
            gen = GeneralizedIQSystem(*([imat([blk[k]]) for blk in blocks] for k in (0, 1)),
                                      *([ivec([blk[k]]) for blk in blocks] for k in (2, 3)))
            x = [1] * nonzero + [0] * (n - nonzero)
            if moves > cap:
                with pytest.raises(NodeCapExceeded, match=f"^{moves} moves of one row need branching, cap is {cap}$"):
                    game_oracle(gen, x, node_cap=10 ** 4)
            else:
                try:
                    game_oracle(gen, x, node_cap=10 ** 4)
                except NodeCapExceeded as exc:
                    assert str(exc) == "leaf evaluation budget of 10000 exceeded"

    def test_determinism(self):
        gen = outer_exists_system()
        a = game_oracle(gen, ["1/8"], grid=5)
        b = game_oracle(gen, ["1/8"], grid=5)
        assert a == b


class TestRandomInstances:
    def test_seed_determinism(self):
        spec = InstanceSpec(m=2, n=3, kappa=2, seed=99, zero_prob=0.4)
        assert random_instance(spec) == random_instance(spec)

    def test_golden_snapshot_seed_one(self):
        gen = random_instance(InstanceSpec(m=1, n=1, kappa=1, seed=1, zero_prob=0.5))
        assert gen.a_forall[0] == imat([[(0, 0)]])
        assert gen.a_exists[0] == imat([[("-2", "-5/4")]])
        assert gen.b_forall[0] == ivec([("-2", "7/4")])
        assert gen.b_exists[0] == ivec([(0, 0)])

    def test_zero_probability_one_accepts_all(self, rng):
        spec = InstanceSpec(m=2, n=2, kappa=3, seed=5, zero_prob=1.0)
        gen = random_instance(spec)
        for _ in range(5):
            x = random_point(2, rng)
            assert member_absform(gen, x).member
            assert game_oracle(gen, x).outcome is Outcome.MEMBER_CERTIFIED

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec(m=0, n=1, kappa=1)
        with pytest.raises(ValueError):
            InstanceSpec(m=1, n=1, kappa=1, zero_prob=1.5)


class TestIndependence:
    def test_oracle_reads_no_closed_form_code(self):
        # The oracles cross-check the closed forms, so they may share the
        # interval types and the prefix but none of the compiled rows.
        tree = ast.parse(Path(iqlin.oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                if node.module is None:
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "iqlin":
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names if a.name.split(".")[0] == "iqlin")
            elif isinstance(node, ast.Attribute):
                assert node.attr != "compiled", f"line {node.lineno} reads .compiled"
        assert imported == {"ivcore", "prefix"}
