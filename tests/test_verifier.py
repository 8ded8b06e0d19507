"""Simulation, estimation, and the statistical check."""

import math
import os
import time
from fractions import Fraction

import pytest

from loopmoments import ExpPoly, Moment, MomentTable, Poly, analyze, verifier
from loopmoments.frontend import DISTRIBUTIONS, Distribution, parse_program, validate_program
from loopmoments.symbolic import ONE
from loopmoments.verifier import (
    MomentEstimate,
    SimConfig,
    VerifierError,
    _compile_poly,
    check,
    simulate,
)

from corpus import (
    CORPUS,
    DISCRETE,
    THREE_VAR,
    WALK,
    assert_no_child_is_left,
    count_forks,
    enumerate_moments,
    load,
    reference_simulate,
)


def M(text: str) -> Moment:
    return Moment.parse(text)


def test_deterministic_program_is_estimated_exactly():
    vp = load("counter")
    cfg = SimConfig(bindings={}, iterations=7, trials=50, seed=1)
    est = simulate(vp, cfg, {M("v^1")})[M("v^1")]
    assert est.mean == 7.0
    assert est.sd == 0.0


def test_iteration_zero_measures_the_initial_state():
    vp = load("walk")
    cfg = SimConfig(bindings={"b": 2, "y(0)": 5}, iterations=0, trials=10, seed=1)
    est = simulate(vp, cfg, {M("x^2"), M("y^1")})
    assert est[M("x^2")].mean == 0.0
    assert est[M("y^1")].mean == 5.0


def test_same_seed_reproduces_bit_for_bit():
    vp = load("walk")
    cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=10, trials=6000, seed=42)
    targets = {M("x^2"), M("y^2")}
    first = simulate(vp, cfg, targets)
    second = simulate(vp, cfg, targets)
    for t in targets:
        assert first[t].mean == second[t].mean
        assert first[t].sd == second[t].sd


def test_different_seeds_differ():
    vp = load("walk")
    targets = {M("x^2")}
    means = set()
    for seed in (1, 2, 3):
        cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=10, trials=4000, seed=seed)
        means.add(simulate(vp, cfg, targets)[M("x^2")].mean)
    assert len(means) == 3


@pytest.mark.parametrize(
    "source, name",
    [
        ("x = 0\nwhile true:\n  x = p*x + 1\n", "p"),
        ("x = 0\nwhile true:\n  x = x + 1 @ p; x @ 1 - p\n", "p"),
        ("x = 0\nwhile true:\n  u = RV(uniform, 0, p)\n  x = x + u\n", "p"),
        ("x = RV(gauss, p, 1)\nwhile true:\n  x = x + 1\n", "p"),
        ("while true:\n  x = x + 1\n", "x(0)"),
    ],
    ids=["update-coefficient", "branch-probability", "draw-argument", "initial-distribution",
         "initial-value"],
)
def test_unbound_parameter_is_reported(source, name):
    # simulate's up-front check is the one place that names unbound symbols.
    vp = validate_program(parse_program(source))
    cfg = SimConfig(bindings={}, iterations=5, trials=10, seed=0)
    with pytest.raises(VerifierError) as err:
        simulate(vp, cfg, {M("x^1")})
    assert str(err.value) == f"unbound parameter(s): {name}"
    assert vp.symbols == {name}


def test_unbound_parameters_are_named_beside_bound_ones():
    vp = load("walk")
    for bindings, missing in (({"b": 2}, "y(0)"), ({}, "b, y(0)")):
        cfg = SimConfig(bindings=bindings, iterations=5, trials=10, seed=0)
        with pytest.raises(VerifierError) as err:
            simulate(vp, cfg, {M("y^1")})
        assert str(err.value) == f"unbound parameter(s): {missing}"


def test_unknown_target_variable_is_a_verifier_error():
    cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=1, trials=10, seed=0)
    with pytest.raises(VerifierError, match=r"^target E\[q\^1\] mentions unknown q$"):
        simulate(load("walk"), cfg, {M("x^1"), M("q^1")})


@pytest.mark.parametrize(
    "closed,message",
    [
        ({}, "no closed form supplied for E[v^1]"),
        ({M("v^1"): ExpPoly.const(Poly.var("p"))},
         "parameter 'p' of the closed form for E[v^1] is unbound"),
    ],
    ids=["no-closed-form", "unbound-parameter"],
)
def test_check_rejects_estimates_it_cannot_compare(closed, message):
    cfg = SimConfig(bindings={}, iterations=3, trials=10, seed=0)
    estimates = {M("v^1"): MomentEstimate(M("v^1"), 1.0, 0.0, 0.0)}
    with pytest.raises(VerifierError) as err:
        check(closed, estimates, cfg)
    assert str(err.value) == message


def test_probability_binding_outside_unit_interval():
    vp = analyze("v=0\nwhile true:\nv = v + 1 @ p; v @ 1 - p\n", [1]).validated
    cfg = SimConfig(bindings={"p": Fraction(3, 2)}, iterations=3, trials=10, seed=0)
    with pytest.raises(VerifierError, match="outside"):
        simulate(vp, cfg, {M("v^1")})


def test_config_sanity():
    with pytest.raises(VerifierError):
        SimConfig(bindings={}, iterations=-1, trials=10, seed=0)
    with pytest.raises(VerifierError):
        SimConfig(bindings={}, iterations=1, trials=1, seed=0)


def test_negative_seed_is_a_verifier_error():
    # numpy's SeedSequence takes non-negative entropy only
    with pytest.raises(VerifierError, match=r"^seed must be >= 0$"):
        SimConfig(bindings={}, iterations=1, trials=10, seed=-1)


def test_check_passes_on_matching_estimates():
    report = analyze(WALK, [1, 2])
    cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=12, trials=20_000, seed=5)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    result = check(report.invariants, estimates, cfg)
    assert result.passed
    assert {str(e.moment) for e in result.entries} == {str(m) for m in report.invariants}
    assert all(e.margin >= 0 for e in result.entries)


def test_check_detects_a_perturbed_closed_form():
    report = analyze(WALK, ["x^2"])
    cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=20, trials=100_000, seed=9)
    estimates = simulate(report.validated, cfg, {M("x^2")})
    # se of E[x^2] at this budget is about 0.1, so a +1 shift must fail at z=5
    assert estimates[M("x^2")].se < 0.2
    perturbed = {
        M("x^2"): ExpPoly.linear_combination(
            [(ONE, report.invariants[M("x^2")]), (ONE, ExpPoly.const(1))]
        )
    }
    result = check(perturbed, estimates, cfg)
    assert not result.passed
    honest = check(report.invariants, estimates, cfg)
    assert honest.passed


def test_large_offset_keeps_the_spread():
    # x(20) = 2e9 + a sum of 20 uniforms: sd sqrt(20/12) = 1.29 beside a mean
    # whose square is 4e18, where sum-of-squares minus n*mean^2 cancels to 0
    source = "x = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + 100000000 + u\n"
    report = analyze(source, ["x^1"])
    cfg = SimConfig(bindings={}, iterations=20, trials=100_000, seed=0)
    estimates = simulate(report.validated, cfg, {M("x^1")})
    assert estimates[M("x^1")].sd == pytest.approx(math.sqrt(20 / 12), rel=0.02)
    assert check(report.invariants, estimates, cfg).passed


def test_deterministic_fractions_keep_a_zero_spread():
    # every trial gives the same float, but 1/10 does not add up exactly, so
    # a block's sum divided by its size is not that float again
    source = "x = 1/10\nwhile true:\nx = x + 1/10\n"
    report = analyze(source, ["x^1"])
    cfg = SimConfig(bindings={}, iterations=3, trials=100_000, seed=0)
    estimates = simulate(report.validated, cfg, {M("x^1")})
    assert estimates[M("x^1")].sd == 0.0
    assert check(report.invariants, estimates, cfg).passed


def test_check_fails_a_closed_form_beyond_float_range():
    cfg = SimConfig(bindings={}, iterations=3, trials=10, seed=0)
    for value, expected in ((10**400, math.inf), (-(10**400), -math.inf)):
        closed = {M("v^1"): ExpPoly.const(value)}
        # a zero spread gets no floor here, so neither estimate can pass
        for mean, sd, se in ((1.0, 0.5, 0.1), (math.copysign(1e308, expected), 0.0, 0.0)):
            estimates = {M("v^1"): MomentEstimate(M("v^1"), mean, sd, se)}
            [entry] = check(closed, estimates, cfg).entries
            assert entry.expected == expected
            assert not entry.passed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the sample standard error misses the rare paths "
    "that carry a skewed mean, so a correct closed form FAILs",
)
def test_a_skewed_moment_passes_its_correct_closed_form():
    report = analyze("x = 1\nwhile true:\n  x = 10*x @ 1/100; x @ 99/100\n", [1])
    assert report.invariants == {M("x^1"): ExpPoly({(Poly.const(Fraction(109, 100)), 0): ONE})}
    cfg = SimConfig(bindings={}, iterations=30, trials=20000, seed=6)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    (entry,) = check(report.invariants, estimates, cfg).entries
    # today: expected 13.26767847, estimate 9.8002, sample se 0.434
    assert entry.passed, entry


def test_deterministic_case_passes_via_absolute_floor():
    vp = load("counter")
    cfg = SimConfig(bindings={}, iterations=7, trials=50, seed=1)
    estimates = simulate(vp, cfg, {M("v^1")})
    closed = {M("v^1"): ExpPoly({(ONE, 1): ONE})}  # n
    result = check(closed, estimates, cfg)
    assert result.passed
    entry = result.entries[0]
    # the estimate is exact, so the margin is the floor 1e-9 * max(1, |7|)
    assert entry.sd == 0.0 and entry.expected == 7.0
    assert entry.margin == pytest.approx(7e-9)


def test_zero_spread_floor_scales_with_the_expected_value():
    cfg = SimConfig(bindings={}, iterations=3, trials=10, seed=0)
    value = Fraction(1732085267, 1000)
    closed = {M("v^1"): ExpPoly.const(value)}
    for off, passed in ((1.3e-8, True), (1e-2, False)):
        estimates = {M("v^1"): MomentEstimate(M("v^1"), float(value) + off, 0.0, 0.0)}
        [entry] = check(closed, estimates, cfg).entries
        assert entry.passed is passed


@pytest.mark.parametrize("name", sorted(DISCRETE))
def test_closed_forms_equal_exact_enumeration(name):
    # For branch-only programs, enumerating every path is an independent
    # semantics oracle; the closed forms must agree with it exactly.
    source, goals, bindings = CORPUS[name]
    report = analyze(source, goals, name=name)
    targets = sorted(report.invariants, key=Moment.sort_key)
    history = enumerate_moments(report.validated, bindings, targets, steps=5)
    for n in range(6):
        for t in targets:
            assert report.invariants[t].evaluate(n, bindings) == history[n][t], (
                name,
                str(t),
                n,
            )


def test_simulation_agrees_with_exact_enumeration():
    # Discrete program: the empirical mean over many trials must sit within
    # five standard errors of the exactly enumerated expectation.
    vp = load("stutter")
    cfg = SimConfig(bindings={}, iterations=5, trials=40_000, seed=13)
    targets = [M("s^1"), M("s^2")]
    estimates = simulate(vp, cfg, targets)
    exact = enumerate_moments(vp, {}, targets, steps=5)[5]
    for t in targets:
        est = estimates[t]
        assert abs(float(exact[t]) - est.mean) <= 5 * est.se + 1e-9


def test_statistical_soundness_across_seeds():
    # With z = 5 a correct closed form essentially never fails; spot-check
    # twenty seeds at a smaller budget.
    report = analyze(WALK, ["x^2"])
    failures = 0
    for seed in range(20):
        cfg = SimConfig(bindings={"b": 2, "y(0)": 0}, iterations=20, trials=8000, seed=seed)
        estimates = simulate(report.validated, cfg, {M("x^2")})
        if not check(report.invariants, estimates, cfg).passed:
            failures += 1
    assert failures == 0


def test_mixed_draw_state_moment_matches_simulation():
    # E[x*u] with x = x + u is a correlated joint moment (n/4 + 1/12 for
    # n >= 1); the measured estimate must match it, not E[x]*E[u].
    source = "x = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u\n"
    report = analyze(source, ["x^1", "u^1*x^1"])
    cfg = SimConfig(bindings={}, iterations=12, trials=40_000, seed=77)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    result = check(report.invariants, estimates, cfg)
    assert result.passed
    joint = report.invariants[M("u^1*x^1")]
    assert joint.evaluate(12, {}) == Fraction(12, 4) + Fraction(1, 12)


def test_gaussian_program_matches_closed_forms():
    source, goals, bindings = CORPUS["gauss_sum"]
    report = analyze(source, goals)
    cfg = SimConfig(bindings=bindings, iterations=15, trials=30_000, seed=21)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    assert check(report.invariants, estimates, cfg).passed


@pytest.mark.parametrize(
    "source, what",
    [
        ("x = 0\nwhile true:\nx = x + c\n", "the update of 'x'"),
        ("x = 0\nwhile true:\nu = RV(uniform, 0, c)\nx = x + u\n", "argument of 'u'"),
        ("x = c\nwhile true:\nx = x + 1\n", "the initial value of 'x'"),
    ],
)
def test_parameter_beyond_float_range_is_a_verifier_error(source, what):
    vp = analyze(source, [1]).validated
    cfg = SimConfig(bindings={"c": Fraction(10) ** 400}, iterations=2, trials=10, seed=0)
    with pytest.raises(VerifierError, match=r"beyond float range \(parameter c\)") as info:
        simulate(vp, cfg, {M("x^1")})
    assert what in str(info.value)


def test_negative_gauss_variance_is_a_verifier_error():
    vp = analyze("x = 0\nwhile true:\ng = RV(gauss, 0, v)\nx = x + g\n", [1]).validated
    cfg = SimConfig(bindings={"v": Fraction(-1, 2)}, iterations=2, trials=10, seed=0)
    with pytest.raises(VerifierError, match="gauss variance evaluates to the negative value -0.5"):
        simulate(vp, cfg, {M("x^1")})


# One concrete pair of arguments per kind of the distribution table.
_KIND_ARGUMENTS = {
    "uniform": (Fraction(-1, 2), Fraction(3, 2)),
    "gauss": (Fraction(1, 3), Fraction(2)),
}


@pytest.mark.parametrize("kind", list(DISTRIBUTIONS))
def test_distribution_sampler_matches_its_raw_moments(kind):
    # The two halves of a table entry describe one distribution: the sample
    # mean of X^k from the sampler agrees with the exact E[X^k] of the
    # raw-moment rule within 5 standard errors, for k = 1..4.
    import numpy as np

    entry = DISTRIBUTIONS[kind]
    a, b = _KIND_ARGUMENTS[kind]
    assert entry.check(a, b) is None and entry.check(float(a), float(b)) is None
    draws = entry.sampler(float(a), float(b))(np.random.default_rng(7), 200_000)
    table, dist = MomentTable(), Distribution(kind, Poly.const(a), Poly.const(b))
    for k in range(1, 5):
        powers = draws**k
        exact = table.moment(dist, k).const_value()
        se = powers.std(ddof=1) / math.sqrt(len(powers))
        assert abs(powers.mean() - float(exact)) <= 5 * se, (kind, k, powers.mean(), exact)


def test_uniform_width_beyond_float_range_is_a_verifier_error():
    source = "x = 0\nwhile true:\nu = RV(uniform, -c, c)\nx = x + u\n"
    vp = analyze(source, [1]).validated
    cfg = SimConfig(bindings={"c": Fraction(10) ** 308}, iterations=2, trials=10, seed=0)
    with pytest.raises(
        VerifierError,
        match=r"width of the uniform draw of 'u' is beyond float range \(parameter c\)",
    ):
        simulate(vp, cfg, {M("x^1")})


def test_check_fails_a_non_finite_estimate():
    cfg = SimConfig(bindings={}, iterations=3, trials=10, seed=0)
    closed = {M("v^1"): ExpPoly.const(1)}
    for mean, se in ((math.inf, math.nan), (math.nan, math.nan), (1.0, math.inf)):
        estimates = {M("v^1"): MomentEstimate(M("v^1"), mean, se, se)}
        [entry] = check(closed, estimates, cfg).entries
        assert not entry.passed


def test_compiled_evaluator_matches_the_per_term_formula():
    # The reference builds each term from np.full(size, c); the evaluator
    # starts from the scalar c and must give the same floats bit for bit.
    import numpy as np

    rng = np.random.default_rng(7)
    x, y, c = Poly.var("x"), Poly.var("y"), Poly.var("c")
    bindings = {"c": Fraction(-7, 3)}
    state_names = frozenset({"x", "y"})
    polys = [
        Poly.const(Fraction(5, 7)),
        Fraction(1, 3) * x**3 - c * x * y + y**2 / 7 + c**2,
        (x + Fraction(2, 5) * y + c) ** 4,
    ]
    for poly in polys:
        evaluate = _compile_poly(poly, bindings, state_names, "a test polynomial")
        for size in (1, 17, 1000):
            state = {"x": rng.normal(size=size), "y": rng.uniform(-3, 3, size=size)}
            expected = np.zeros(size)
            for mono, coeff in poly.terms():
                value = coeff
                for name, exp in mono:
                    if name not in state_names:
                        value *= bindings[name] ** exp
                term = np.full(size, float(value))
                for name, exp in mono:
                    if name in state_names:
                        term = term * state[name] ** exp
                expected += term
            assert np.array_equal(evaluate(state, size), expected)


def test_terms_on_one_state_monomial_are_summed_exactly_and_rounded_once():
    # 1/7*p*x + 2/7*x at p = 1/3 is exactly 1/3*x: one coefficient, not two
    # rounded terms added in floats
    import numpy as np

    x, p = Poly.var("x"), Poly.var("p")
    poly = Fraction(1, 7) * p * x + Fraction(2, 7) * x
    evaluate = _compile_poly(poly, {"p": Fraction(1, 3)}, frozenset({"x"}), "a test polynomial")
    state = {"x": np.random.default_rng(5).normal(size=100_000)}
    assert np.array_equal(evaluate(state, 100_000), float(Fraction(1, 3)) * state["x"])


def test_an_update_with_terms_on_one_state_monomial_passes_verification():
    report = analyze("v = 1\nwhile true:\nv = 1/7*p*v + 2/7*v @ 1/2; 2*v @ 1/2\n", [1, 2])
    cfg = SimConfig(bindings={"p": Fraction(1, 3)}, iterations=20, trials=100_000, seed=9)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    result = check(report.invariants, estimates, cfg)
    assert [str(e.moment) for e in result.entries] == ["v^1", "v^2"]
    assert result.passed


# (source, bindings) beyond the corpus for the bit-identity test: a
# multi-factor term with a coefficient other than 1 and a uniform with its
# arguments reversed, three branches, a branch of probability 0, and a
# uniform draw of width 0.
_LEAN_LOOP_CASES = {
    "three_var": (THREE_VAR, {"y(0)": Fraction(1, 2), "z(0)": Fraction(-1, 3)}),
    "scaled_product": (
        "x = 1\ny = 0\nwhile true:\nu = RV(uniform, 1, 0)\nx = x + u\ny = y + 1/3*x*u\n",
        {},
    ),
    "three_branches": ("v = 0\nwhile true:\nv = v + 1 @ 1/6; v - 1 @ 1/3; 2*v @ 1/2\n", {}),
    "dead_branch": ("v = 1\nwhile true:\nv = v + 1 @ 1/2; 3*v @ 0; -v @ 1/2\n", {}),
    "point_mass": (
        "x = 0\nwhile true:\nu = RV(uniform, c, c)\ng = RV(gauss, 0, 1)\nx = x + u*g\n",
        {"c": Fraction(3, 2)},
    ),
    # -x of 0.0 is -0.0 where the reference's sum from zeros gives 0.0
    "negated_zero": ("x = 0\nwhile true:\nx = -x\n", {}),
    **{name: (source, bindings) for name, (source, _, bindings) in CORPUS.items()},
}


def _assert_matches_the_reference(name, iterations, trials):
    # Every mean and sd agrees to the last bit, for all powers up to 3 and
    # all products of two variables.
    source, bindings = _LEAN_LOOP_CASES[name]
    vp = analyze(source, [1]).validated
    names = vp.variables
    targets = {Moment.single(v, k) for v in names for k in (1, 2, 3)}
    targets |= {Moment(((v, 1), (w, 1))) for v in names for w in names if v < w}
    cfg = SimConfig(bindings=bindings, iterations=iterations, trials=trials, seed=11)
    got = simulate(vp, cfg, targets)
    expected = reference_simulate(vp, bindings, iterations, trials, 11, targets)
    for t in targets:
        assert (got[t].mean.hex(), got[t].sd.hex()) == tuple(x.hex() for x in expected[t]), t


@pytest.mark.parametrize("name", sorted(_LEAN_LOOP_CASES))
@pytest.mark.parametrize("iterations, trials", [(0, 5), (7, 5000)])
def test_simulate_matches_the_reference_loop_bit_for_bit(name, iterations, trials):
    # The lean loop must see the same draws and do the same float operations
    # as the reference.
    _assert_matches_the_reference(name, iterations, trials)


@pytest.mark.parametrize("name", ["three_branches", "three_var", "walk"])
def test_blocks_in_forked_workers_match_the_reference_loop(monkeypatch, name):
    # Four blocks, the last of 5 trials: the calling process and up to three
    # forked workers share blocks 1-3 on any machine, and the reference runs
    # them one after another.
    monkeypatch.setattr(verifier, "_cpus", lambda: 4)
    _assert_matches_the_reference(name, 7, 3 * 4096 + 5)


def _wait_until_exited(pids):
    # Peeks at each worker's exit without reaping it, as simulate must.
    deadline = time.monotonic() + 60
    while not all(os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                  for pid in pids):
        assert time.monotonic() < deadline
        time.sleep(0.01)


def test_estimates_do_not_depend_on_the_cpu_count(monkeypatch):
    # 17 blocks: at 8 CPUs, more workers than this machine's CPUs.  A block
    # taken twice or never changes a sum or leaves no result.
    vp = load("walk")
    cfg = SimConfig(bindings={"b": 2, "y(0)": Fraction(1, 3)}, iterations=2,
                    trials=16 * 4096 + 1, seed=3)
    targets = {M("x^2"), M("y^1"), M("u^1*x^1")}
    forked = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2, 4, 8):
        monkeypatch.setattr(verifier, "_cpus", lambda: cpus)
        forked.clear()
        est = simulate(vp, cfg, targets)
        runs.append({t: (est[t].mean.hex(), est[t].sd.hex()) for t in targets})
        # one CPU forks no worker; never more workers than further CPUs
        assert len(forked) <= cpus - 1
        assert_no_child_is_left()
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.mark.skipif(not verifier._FORK, reason="blocks run in forked workers on Linux only")
def test_a_block_that_raises_in_a_forked_worker_stops_the_run(monkeypatch):
    # One sampler call per block: the initial value of x.  Three CPUs fork
    # two workers, and of the 8 blocks the calling process takes 0, 1, 4
    # and 7.  Each worker's first block raises.  If the caller gets to block
    # 1, that block waits until both workers have exited, so before its next
    # block the caller sees the failure and runs no further block.
    vp = validate_program(parse_program("x = 0\nwhile true:\n  x = x + 1\n"))
    cfg = SimConfig(bindings={}, iterations=3, trials=8 * 4096, seed=0)
    real_sampler = verifier._sampler
    caller, calls_here = os.getpid(), []
    forked = count_forks(monkeypatch)

    def sampler(value, bindings, var):
        sample = real_sampler(value, bindings, var)

        def failing(rng, size):
            if os.getpid() != caller:
                raise RuntimeError("a block failed")
            calls_here.append(None)
            if len(calls_here) == 2:
                _wait_until_exited(forked)
            return sample(rng, size)

        return failing

    monkeypatch.setattr(verifier, "_sampler", sampler)
    monkeypatch.setattr(verifier, "_cpus", lambda: 3)
    with pytest.raises(RuntimeError, match="^a block failed$"):
        simulate(vp, cfg, {M("x^1")})
    assert len(forked) == 2
    assert len(calls_here) <= 2  # block 0, and at most block 1
    assert_no_child_is_left()


@pytest.mark.skipif(not verifier._FORK, reason="blocks run in forked workers on Linux only")
def test_a_worker_that_sends_nothing_names_its_exit_status(monkeypatch):
    vp = validate_program(parse_program("x = 0\nwhile true:\n  x = x + 1\n"))
    cfg = SimConfig(bindings={}, iterations=1, trials=3 * 4096, seed=0)
    real_sampler, caller = verifier._sampler, os.getpid()

    def sampler(value, bindings, var):
        sample = real_sampler(value, bindings, var)

        def leaving(rng, size):
            if os.getpid() != caller:
                os._exit(3)
            return sample(rng, size)

        return leaving

    monkeypatch.setattr(verifier, "_sampler", sampler)
    monkeypatch.setattr(verifier, "_cpus", lambda: 2)
    with pytest.raises(VerifierError, match="worker exited with status 3 without sending"):
        simulate(vp, cfg, {M("x^1")})
    assert_no_child_is_left()


@pytest.mark.skipif(not verifier._FORK, reason="blocks run in forked workers on Linux only")
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failure_in_the_caller_kills_the_running_workers(monkeypatch, error):
    # The workers would sleep for a minute; the caller's block 1 raises
    # while they run, and simulate kills and reaps them before it returns.
    vp = validate_program(parse_program("x = 0\nwhile true:\n  x = x + 1\n"))
    cfg = SimConfig(bindings={}, iterations=1, trials=5 * 4096, seed=0)
    real_sampler, caller, calls_here = verifier._sampler, os.getpid(), []
    forked = count_forks(monkeypatch)

    def sampler(value, bindings, var):
        sample = real_sampler(value, bindings, var)

        def interrupted(rng, size):
            if os.getpid() != caller:
                time.sleep(60)
            calls_here.append(None)
            if len(calls_here) == 2:
                raise error("the caller failed")
            return sample(rng, size)

        return interrupted

    monkeypatch.setattr(verifier, "_sampler", sampler)
    monkeypatch.setattr(verifier, "_cpus", lambda: 4)
    start = time.monotonic()
    with pytest.raises(error, match="the caller failed"):
        simulate(vp, cfg, {M("x^1")})
    assert time.monotonic() - start < 30
    assert len(forked) == 3
    assert_no_child_is_left()
