"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single "ACCEPTANCE <n> ... PASS" line with its
measured numbers (visible with ``pytest -s`` or on failure); the test
outcome itself is the pass/fail signal.  Run with::

    pytest tests/test_acceptance.py -v
"""

import os
import random
import time
from pathlib import Path

from iqlin import (
    AbsFormEvaluator,
    AbsIneqSystem,
    InstanceSpec,
    NodeCapExceeded,
    Outcome,
    QuantifierPrefix,
    Quantifier,
    build_tuples,
    corollary1_construct,
    decompose_ae_blocks,
    game_oracle,
    matrix_param,
    member_absform,
    member_absineq,
    member_controllable,
    member_intervalform,
    member_rohn,
    member_rohn_blocks,
    member_shary_blocks,
    member_tolerable,
    member_united,
    prop1_construct,
    prop2_flatten,
    random_instance,
    random_point,
    rhs_param,
    validate_disjoint,
    vertex_oracle_k1,
)
from iqlin.cli import EXIT_NOT_MEMBER, EXIT_OK, main
from iqlin.prefix import ClassicIQSystem
from conftest import (
    brute_valid_cut_sets,
    gen_1x1,
    imat,
    inner_exists_system,
    ivec,
    outer_exists_system,
    random_interval,
)

from fractions import Fraction


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS — {detail}")


def test_criterion_1_characterization_equivalence():
    """Interval form and midpoint-radius form agree on 1e4 random systems."""
    rng = random.Random(20250101)
    instances = 10_000
    points_per = 10
    disagreements = 0
    checks = 0
    start = time.perf_counter()
    for k in range(instances):
        spec = InstanceSpec(
            m=rng.randint(1, 4),
            n=rng.randint(1, 4),
            kappa=rng.randint(1, 4),
            seed=1_000_000 + k,
            zero_prob=rng.choice([0.2, 0.4, 0.6, 0.8]),
        )
        gen = random_instance(spec)
        for _ in range(points_per):
            x = random_point(spec.n, rng)
            checks += 1
            if member_intervalform(gen, x).member != member_absform(gen, x).member:
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s (target < 60s)"
    report(1, "characterization equivalence",
           f"{checks} paired verdicts, 0 disagreements, {elapsed:.1f}s")


def test_criterion_2_one_block_quadruple_agreement():
    """All four closed forms and the vertex oracle coincide at kappa = 1."""
    rng = random.Random(20250202)
    instances = 1_000
    checks = 0
    for k in range(instances):
        spec = InstanceSpec(
            m=rng.randint(1, 3),
            n=rng.randint(1, 3),
            kappa=1,
            seed=2_000_000 + k,
            zero_prob=rng.choice([0.3, 0.5, 0.7]),
        )
        gen = random_instance(spec)
        blocks = gen.block(1)
        for _ in range(3):
            x = random_point(spec.n, rng)
            votes = {
                member_intervalform(gen, x).member,
                member_absform(gen, x).member,
                member_shary_blocks(*blocks, x).member,
                member_rohn_blocks(*blocks, x).member,
                vertex_oracle_k1(gen, x).outcome is Outcome.MEMBER_CERTIFIED,
            }
            assert len(votes) == 1, (spec, str(x))
            checks += 1
    report(2, "one-block quadruple agreement", f"{instances} systems, {checks} unanimous verdicts")


def test_criterion_3_worked_one_dimensional_sets():
    """Hand-derived united/tolerable/controllable sets, zero tolerance."""
    A_u, b_u = imat([[(2, 4)]]), ivec([(6, 8)])
    samples = ["1", "3/2", "2", "4", "9/2", "-1"]
    expected = [False, True, True, True, False, False]
    united_oracle = [
        vertex_oracle_k1(gen_1x1(a_ex=(2, 4), b_ex=(6, 8)), [x]).outcome is Outcome.MEMBER_CERTIFIED
        for x in samples
    ]
    assert united_oracle == expected
    assert [member_united(A_u, b_u, [x]).member for x in samples] == expected

    A_t, b_t = imat([[(2, 4)]]), ivec([(2, 8)])
    tol_samples = ["1/2", "1", "3/2", "2", "5/2"]
    tol_expected = [False, True, True, True, False]
    tol_oracle = [
        vertex_oracle_k1(gen_1x1(a_fa=(2, 4), b_ex=(2, 8)), [x]).outcome is Outcome.MEMBER_CERTIFIED
        for x in tol_samples
    ]
    assert tol_oracle == tol_expected
    assert [member_tolerable(A_t, b_t, [x]).member for x in tol_samples] == tol_expected

    assert vertex_oracle_k1(gen_1x1(a_ex=(2, 4), b_fa=(6, 8)), ["2"]).outcome is Outcome.MEMBER_CERTIFIED
    assert member_controllable(A_u, b_u, ["2"]).member
    report(3, "worked 1-D sets", "united [3/2,4], tolerable [1,2], controllable at 2; all exact")


def test_criterion_4_two_block_order_sensitivity():
    """Committing the rhs outside the matrix collapses the set to a point."""
    outer = outer_exists_system()
    inner = inner_exists_system()
    samples = ["0", "1/4", "-1/4", "1/2", "-1/2", "1", "-1"]
    outer_expected = [True] + [False] * 6
    inner_expected = [True, True, True, True, True, False, False]
    for methods in (member_absform, member_intervalform):
        assert [methods(outer, [x]).member for x in samples] == outer_expected
        assert [methods(inner, [x]).member for x in samples] == inner_expected
    # The game search certifies the same picture without the closed forms.
    for x, want in zip(samples, outer_expected):
        verdict = game_oracle(outer, [x], grid=3)
        assert (verdict.outcome is Outcome.MEMBER_CERTIFIED) == want
    # Strict inclusion: every outer member is an inner member, not conversely.
    assert all(i or not o for o, i in zip(outer_expected, inner_expected))
    assert any(i and not o for o, i in zip(outer_expected, inner_expected))
    report(4, "two-block order sensitivity", "{0} strictly inside [-1/2, 1/2], exact at 7 points")


def test_criterion_5_conversion_round_trips():
    """Constructed AE systems keep the source solution sets pointwise."""
    rng = random.Random(20250505)
    per_family = 1_000
    checks = 0
    for k in range(per_family):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        C = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        D = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        d = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        sys = AbsIneqSystem(C, D, c, d)
        ae = prop1_construct(sys)
        for _ in range(10):
            x = random_point(n, rng)
            assert member_absineq(sys, x).member == member_rohn(ae, x).member
            checks += 1
    for k in range(per_family):
        spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=rng.randint(1, 4),
                            seed=5_000_000 + k, zero_prob=0.4)
        gen = random_instance(spec)
        flat = prop2_flatten(gen)
        for _ in range(10):
            x = random_point(spec.n, rng)
            assert member_absform(gen, x).member == member_rohn(flat, x).member
            checks += 1
    for k in range(per_family):
        spec = InstanceSpec(m=rng.randint(1, 3), n=rng.randint(1, 3), kappa=1,
                            seed=6_000_000 + k, zero_prob=0.4)
        gen = random_instance(spec)
        blocks = gen.block(1)
        ae = corollary1_construct(*blocks)
        for _ in range(10):
            x = random_point(spec.n, rng)
            assert member_shary_blocks(*blocks, x).member == member_rohn(ae, x).member
            checks += 1
    report(5, "conversion round trips", f"3x{per_family} systems, {checks} equal verdict pairs")


def test_criterion_6_oracle_soundness_and_grid_refinement():
    """Certified game verdicts imply the closed form; unknowns shrink with g."""
    rng = random.Random(20250606)
    certified_member = certified_not = unknown = 0
    for k in range(400):
        spec = InstanceSpec(m=rng.randint(1, 2), n=rng.randint(1, 2),
                            kappa=rng.randint(1, 3), seed=7_000_000 + k,
                            zero_prob=0.55, magnitude=4)
        gen = random_instance(spec)
        x = random_point(spec.n, rng, magnitude=3)
        try:
            verdict = game_oracle(gen, x, grid=3)
        except NodeCapExceeded:
            continue
        member = member_absform(gen, x).member
        if verdict.outcome is Outcome.MEMBER_CERTIFIED:
            assert member, (spec, str(x))
            certified_member += 1
        elif verdict.outcome is Outcome.NOT_MEMBER_CERTIFIED:
            assert not member, (spec, str(x))
            certified_not += 1
        else:
            unknown += 1
    assert certified_member > 0 and certified_not > 0

    suite = []
    while len(suite) < 60:
        spec = InstanceSpec(m=1, n=rng.randint(1, 2), kappa=rng.randint(2, 3),
                            seed=rng.randint(0, 10 ** 9), zero_prob=0.5, magnitude=4,
                            max_denominator=3)
        gen = random_instance(spec)
        x = random_point(spec.n, rng, magnitude=2, max_denominator=3)
        if member_absform(gen, x).member:
            suite.append((gen, x))
    unknown_rate = {}
    for g in (3, 5, 9):
        unknown_rate[g] = sum(
            1 for gen, x in suite
            if game_oracle(gen, x, grid=g, node_cap=10 ** 7).outcome is Outcome.UNKNOWN
        )
    assert unknown_rate[3] >= unknown_rate[5] >= unknown_rate[9]
    report(6, "oracle soundness",
           f"member={certified_member} not-member={certified_not} unknown={unknown}; "
           f"unknowns over g=3,5,9: {unknown_rate[3]},{unknown_rate[5]},{unknown_rate[9]}")


def _bench_setup(m: int, n: int, kappa: int, points: int):
    spec = InstanceSpec(m=m, n=n, kappa=kappa, seed=42, zero_prob=0.3, magnitude=6)
    evaluator = AbsFormEvaluator(random_instance(spec))
    rng = random.Random(9)
    pts = [random_point(n, rng, magnitude=4) for _ in range(points)]
    encoded = evaluator.encode_points(pts)
    assert encoded is not None
    return evaluator, encoded


def test_criterion_7_membership_cost_scaling():
    """Decision cost grows linearly in kappa*m*n and sustains 1e6 checks in 10s."""
    batch = 100_000
    rounds = 25
    configs = {
        "base": _bench_setup(10, 10, 3, batch),
        "mn": _bench_setup(20, 20, 3, batch),
        "kappa": _bench_setup(10, 10, 6, batch),
    }
    # Warm caches and the jit, then interleave the measurements so all three
    # configurations see the same machine state; keep per-config minima of
    # process time (wall time on this class of hardware is dominated by
    # scheduler noise that has nothing to do with the algorithm).
    for evaluator, encoded in configs.values():
        evaluator.member_batch(encoded)
        evaluator.member_batch(encoded)
    best = {key: float("inf") for key in configs}
    for _ in range(rounds):
        for key, (evaluator, encoded) in configs.items():
            t0 = time.process_time()
            evaluator.member_batch(encoded)
            best[key] = min(best[key], time.process_time() - t0)
    mn_ratio = best["mn"] / best["base"]
    kappa_ratio = best["kappa"] / best["base"]
    assert 3.5 <= mn_ratio <= 4.5, f"m*n scaling ratio {mn_ratio:.2f} outside 4.0±0.5"
    assert 1.7 <= kappa_ratio <= 2.3, f"kappa scaling ratio {kappa_ratio:.2f} outside 2.0±0.3"

    evaluator, encoded = configs["base"]
    t0 = time.perf_counter()
    for _ in range(10):
        evaluator.member_batch(encoded)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"1e6 membership checks took {elapsed:.2f}s (target < 10s)"
    report(7, "membership cost scaling",
           f"mn ratio {mn_ratio:.2f}, kappa ratio {kappa_ratio:.2f}, 1e6 checks in {elapsed:.2f}s")


def _shapes_for_mu(mu: int):
    shapes = [(1, mu - 1)]
    for m in range(2, mu):
        if mu % m == 0 and mu // m >= 2:
            shapes.append((m, mu // m - 1))
    return shapes


def test_criterion_8_exhaustive_decomposition():
    """Every quantifier word up to length 10 has exactly our cut set."""
    rng = random.Random(20250808)
    words = 0
    tuple_checks = 0
    for mu in range(2, 11):
        shapes = _shapes_for_mu(mu)
        for bits in range(2 ** mu):
            word = "".join("AE"[(bits >> t) & 1] for t in range(mu))
            valid = brute_valid_cut_sets(word)
            m, n = shapes[0]
            params = [matrix_param(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            params += [rhs_param(i) for i in range(1, m + 1)]
            prefix = QuantifierPrefix(m, n, [(p, Quantifier(c)) for p, c in zip(params, word)])
            assert len(valid) == 1, (word, valid)
            assert decompose_ae_blocks(prefix).cuts == valid[0]
            words += 1
            if bits % 97 == 0:  # spot systems across all realizable shapes
                for m2, n2 in shapes:
                    params = [matrix_param(i, j) for i in range(1, m2 + 1) for j in range(1, n2 + 1)]
                    params += [rhs_param(i) for i in range(1, m2 + 1)]
                    rng.shuffle(params)
                    prefix = QuantifierPrefix(m2, n2, [(p, Quantifier(c)) for p, c in zip(params, word)])
                    A = imat([[random_interval(rng, zero_prob=0.2) for _ in range(n2)] for _ in range(m2)])
                    b = ivec([random_interval(rng, zero_prob=0.2) for _ in range(m2)])
                    gen = build_tuples(ClassicIQSystem(A, b, prefix))
                    assert validate_disjoint(gen, A, b).ok
                    tuple_checks += 1
    report(8, "exhaustive decomposition",
           f"{words} words checked against brute force; {tuple_checks} tuple partitions verified")


def test_criterion_9_cli_golden_behavior(tmp_path):
    """Scan and decompose are byte-stable; cross-method check never trips."""
    corpus = []
    for seed, m, n, kappa in ((1, 1, 1, 1), (2, 2, 2, 1), (3, 1, 2, 2), (4, 2, 1, 2), (5, 1, 1, 3), (6, 2, 2, 2)):
        path = str(tmp_path / f"sys{seed}.json")
        assert main(["gen", "--seed", str(seed), "--m", str(m), "--n", str(n),
                     "--kappa", str(kappa), "--zero-prob", "0.5", "--output", path]) == EXIT_OK
        corpus.append((path, n))
    rng = random.Random(20250909)
    for path, n in corpus:
        points = ",".join(str(random_point(n, rng, magnitude=3)[j]) for j in range(n))
        code = main(["check", "--system", path, f"--point={points}"])
        assert code in (EXIT_OK, EXIT_NOT_MEMBER), f"cross-method failure on {path}"

    two_var = [path for path, n in corpus if n == 2]
    for path in two_var[:2]:
        outs = []
        for run in range(2):
            out = str(tmp_path / f"{os.path.basename(path)}.{run}.svg")
            assert main(["scan2d", "--system", path, "--bounds=-2,2,-2,2",
                         "--resolution", "16", "--format", "svg", "--output", out]) == EXIT_OK
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]
        csvs = []
        for run in range(2):
            out = str(tmp_path / f"{os.path.basename(path)}.{run}.csv")
            assert main(["scan2d", "--system", path, "--bounds=-2,2,-2,2",
                         "--resolution", "16", "--format", "csv", "--output", out]) == EXIT_OK
            csvs.append(Path(out).read_bytes())
        assert csvs[0] == csvs[1]

    import io
    from contextlib import redirect_stdout
    texts = []
    for run in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["decompose", "--system", corpus[0][0]]) == EXIT_OK
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]
    report(9, "CLI golden behavior",
           f"{len(corpus)} generated systems; byte-identical scans and decompositions; no exit 3")
