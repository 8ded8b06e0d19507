"""Monte-Carlo cross-check of closed-form moments.

The simulator runs the validated loop forward under concrete bindings of
the program's ``symbols`` (its parameters and ``v(0)`` initial values),
starting each trial from its ``initial`` table and sampling its ``draws``
every iteration.  It estimates the target moments at iteration ``n`` from
independent trials and compares each estimate against the exact closed
form with a z-score rule: :func:`check` builds the verdict, a
:class:`VerifyReport` of one :class:`VerifyEntry` per target, and the
report only carries it.  The symbolic side is exact, so the whole
tolerance budget is statistical.  The standard error is the *sample* one,
so a correct closed form of a skewed moment can FAIL: most samples miss the
rare paths that carry its mean, and the estimate runs low with too small a
standard error (``x = 1``, ``x = 10*x @ 1/100; x @ 99/100`` at ``n = 30``,
20000 trials, seed 6: 13.27 expected, 9.80 estimated, se 0.434).

Trials are grouped into fixed-size blocks; block ``b`` uses the RNG
substream spawned from ``(seed, b)``.  The blocks run on the CPUs in the
process's affinity set, one thread per CPU at most, and their sums are
added in block order, so identical configurations reproduce bit for bit
whatever the CPU count.  A negative seed is a configuration error.  An
update with several branches draws one uniform per trial and compares it
with the cumulative branch probabilities; the last branch takes any
rounding remainder.  Each arithmetic step is one numpy call over a block.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .frontend import DISTRIBUTIONS, Distribution, ValidatedProgram
from .moments import Moment
from .symbolic import ExpPoly, Poly, UnboundSymbolError

_BLOCK = 4096
# The z of check's z-score rule.
_Z = 5.0


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class VerifierError(Exception):
    """Bad simulation configuration (unbound parameter, invalid binding)."""


@dataclass(frozen=True)
class SimConfig:
    """Concrete bindings and sampling budget for one verification run."""

    bindings: Mapping[str, Fraction]
    iterations: int
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "bindings", {k: Fraction(v) for k, v in dict(self.bindings).items()}
        )
        if self.iterations < 0:
            raise VerifierError("iterations must be >= 0")
        if self.trials < 2:
            raise VerifierError("at least two trials are needed for a standard error")
        if self.seed < 0:
            raise VerifierError("seed must be >= 0")


@dataclass(frozen=True)
class VerifyEntry:
    """Comparison of one closed form against its simulation estimate."""

    moment: Moment
    expected: float
    mean: float
    sd: float
    se: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    """The verdict of :func:`check`: the run's configuration and one entry
    per target moment; it passes when every entry does."""

    iterations: int
    trials: int
    seed: int
    z: float
    bindings: tuple[tuple[str, str], ...]  # parameter -> exact rational, as text
    entries: tuple[VerifyEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


@dataclass(frozen=True)
class MomentEstimate:
    moment: Moment
    mean: float
    sd: float
    se: float


def _beyond_range(what: str, params: set[str]) -> VerifierError:
    named = f" (parameter {', '.join(sorted(params))})" if params else ""
    return VerifierError(f"{what} is beyond float range{named}")


def _float(value: Fraction, what: str, params: set[str]) -> float:
    try:
        return float(value)
    except OverflowError:
        raise _beyond_range(what, params) from None


def _eval_float(poly: Poly, bindings: Mapping[str, Fraction], what: str) -> float:
    return _float(poly.evaluate(bindings), what, poly.symbols())


def _compile_poly(
    poly: Poly, bindings: Mapping[str, Fraction], state_names: frozenset[str], what: str
):
    """Fold parameters into float coefficients; keep state factors symbolic."""
    import numpy as np

    compiled: list[tuple[bool, float, tuple[tuple[str, int], ...]]] = []
    for mono, coeff in poly.terms():
        value = coeff
        factors: list[tuple[str, int]] = []
        params: set[str] = set()
        for name, exp in mono:
            if name in state_names:
                factors.append((name, exp))
            else:
                value *= bindings[name] ** exp
                params.add(name)
        c = _float(value, f"a coefficient of {what}", params)
        subtract = bool(compiled) and c == -1.0
        compiled.append((subtract, 1.0 if subtract else c, tuple(factors)))

    # ``c * p1 * p2 ...`` left to right, terms summed in order, one numpy
    # call per step.  Starting from the first term rather than from zeros can
    # only leave -0.0 for 0.0, which no estimate sees: its sums start at 0.0
    # and nothing divides.  A later -1 term is subtracted: the bits of adding
    # it times -1.0.  The result may be a state array: never write to it.
    def evaluate(state: dict[str, np.ndarray], size: int) -> np.ndarray:
        total = None
        for subtract, c, factors in compiled:
            term = None if c == 1.0 and factors else c
            for name, exp in factors:
                power = state[name] if exp == 1 else state[name] ** exp
                term = power if term is None else term * power
            if total is None:
                total = term if factors else np.full(size, term)
            else:
                total = total - term if subtract else total + term
        return np.zeros(size) if total is None else total

    return evaluate


def _sampler(value: Poly | Distribution, bindings: Mapping[str, Fraction], var: str):
    """``sample(rng, size)`` for a constant or a distribution, with its
    parameters evaluated once."""
    import numpy as np

    if isinstance(value, Poly):
        c = _eval_float(value, bindings, f"the initial value of {var!r}")
        return lambda rng, size: np.full(size, c)
    what = f"a distribution argument of {var!r}"
    a = _eval_float(value.arg1, bindings, what)
    b = _eval_float(value.arg2, bindings, what)
    entry = DISTRIBUTIONS[value.kind]
    problem = entry.check(a, b)
    if problem is not None:
        raise VerifierError(problem)
    try:
        return entry.sampler(a, b)
    except OverflowError as exc:
        raise _beyond_range(f"{exc} of {var!r}", value.symbols()) from None


def simulate(
    vp: ValidatedProgram, cfg: SimConfig, targets: Sequence[Moment] | set[Moment]
) -> dict[Moment, MomentEstimate]:
    """Estimate the target moments at iteration ``cfg.iterations``.

    Each trial initializes the variables (sampling distribution-valued
    initials, and giving draw variables a fresh initial sample so their
    moments are measurable at n = 0), then runs the body ``iterations``
    times: fresh draws first, then the updates in order, each update
    choosing a branch independently with its bound probabilities.  A value
    that overflows makes its estimate non-finite, without a warning.
    """
    import numpy as np

    missing = sorted(vp.symbols - set(cfg.bindings))
    if missing:
        raise VerifierError(f"unbound parameter(s): {', '.join(missing)}")
    target_list = sorted(set(targets), key=Moment.sort_key)
    for t in target_list:
        unknown = sorted(set(t.variables()) - vp.initial.keys())
        if unknown:
            raise VerifierError(f"target E[{t}] mentions unknown {', '.join(unknown)}")

    state_names = frozenset(vp.variables)
    bindings = cfg.bindings

    # Pre-compute branch probabilities (exactly) and compile expressions.
    updates = []
    for assignment in vp.update_assignments:
        probs = []
        for branch in assignment.branches:
            p = branch.prob.evaluate(bindings)
            if p < 0 or p > 1:
                raise VerifierError(
                    f"branch probability of {assignment.var!r} evaluates to {p}, "
                    "outside [0, 1]"
                )
            probs.append(p)
        # Branch i > 0 is taken where the uniform reaches the sum before it.
        thresholds = np.cumsum([float(p) for p in probs])[:-1].tolist()
        what = f"the update of {assignment.var!r}"
        first, *others = (
            _compile_poly(branch.expr, bindings, state_names, what)
            for branch in assignment.branches
        )
        updates.append((assignment.var, first, list(zip(thresholds, others))))

    inits = [(var, _sampler(value, bindings, var)) for var, value in vp.initial.items()]
    draws = [(var, _sampler(dist, bindings, var)) for var, dist in vp.draws.items()]
    monomials = [_compile_poly(t.as_poly(), bindings, state_names, f"E[{t}]") for t in target_list]

    # Per target and block: the sum of the values, and the first two sums of
    # the values shifted by the first one simulated.  The shift keeps the
    # variance from cancelling when the spread is tiny beside the mean, and
    # identical values give exactly 0.  An overflow leaves an inf or nan
    # estimate, which check() fails and the report names: numpy's warnings
    # about it would only be noise, in whichever thread.
    shifts: dict[Moment, float] = {}

    def run_block(block: int) -> list[tuple[float, float, float]]:
        size = min(_BLOCK, cfg.trials - block * _BLOCK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(block,)))
        with np.errstate(over="ignore", invalid="ignore"):
            state = {var: sample(rng, size) for var, sample in inits}
            for _ in range(cfg.iterations):
                for var, sample in draws:
                    state[var] = sample(rng, size)
                for var, first, others in updates:
                    values = first(state, size)
                    if others:
                        u = rng.random(size)
                        for threshold, evaluate in others:
                            values = np.where(u >= threshold, evaluate(state, size), values)
                    state[var] = values
            sums = []
            for t, monomial in zip(target_list, monomials):
                values = monomial(state, size)
                shifted = values - shifts.setdefault(t, float(values[0]))
                sums.append((float(values.sum()), float(shifted.sum()), float(shifted.dot(shifted))))
        return sums

    # Block 0 fixes the shifts.  Then the calling thread and one helper per
    # further CPU take the other blocks in turn; once a block has raised,
    # each stops before its next block.
    n_blocks = (cfg.trials + _BLOCK - 1) // _BLOCK
    results = [run_block(0)] + [None] * (n_blocks - 1)
    pending, lock, failures = iter(range(1, n_blocks)), threading.Lock(), []

    def work():
        try:
            while not failures:
                with lock:
                    block = next(pending, None)
                if block is None:
                    return
                results[block] = run_block(block)
        except BaseException as exc:
            failures.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(_cpus(), n_blocks - 1) - 1)]
    for thread in helpers:
        thread.start()
    work()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]

    # Added in block order, one float at a time, as one thread would.
    out = {}
    n = cfg.trials
    for t, per_block in zip(target_list, zip(*results)):
        total = s1 = s2 = 0.0
        for block_total, block_s1, block_s2 in per_block:
            total, s1, s2 = total + block_total, s1 + block_s1, s2 + block_s2
        sd = math.sqrt(max(s2 - s1 * s1 / n, 0.0) / (n - 1))
        out[t] = MomentEstimate(t, total / n, sd, sd / math.sqrt(n))
    return out


def check(
    closed: Mapping[Moment, ExpPoly],
    estimates: Mapping[Moment, MomentEstimate],
    cfg: SimConfig,
) -> VerifyReport:
    """Compare closed forms against simulation estimates.

    A moment passes when |exact - mean| <= z*se, with z = 5 and a floor of
    1e-9 * max(1, |exact|) reserved for the degenerate sd == 0 case
    (deterministic programs, where the estimate must agree to rounding, and
    rounding grows with the value).  An exact value beyond float range is
    expected as +-inf and fails, with no floor, and so does an estimate whose
    mean or standard error overflowed.  Failures are entries in the report,
    not exceptions.
    """
    entries = []
    for moment in sorted(estimates, key=Moment.sort_key):
        if moment not in closed:
            raise VerifierError(f"no closed form supplied for E[{moment}]")
        est = estimates[moment]
        try:
            exact = closed[moment].evaluate(cfg.iterations, cfg.bindings)
        except UnboundSymbolError as exc:
            raise VerifierError(
                f"parameter {exc.name!r} of the closed form for E[{moment}] is unbound"
            ) from None
        try:
            expected = float(exact)
        except OverflowError:
            expected = math.inf if exact > 0 else -math.inf
        zero_spread = est.sd == 0.0 and math.isfinite(expected)
        atol = 1e-9 * max(1.0, abs(expected)) if zero_spread else 0.0
        diff = abs(expected - est.mean)
        allowance = _Z * est.se + atol
        entries.append(
            VerifyEntry(
                moment=moment,
                expected=expected,
                mean=est.mean,
                sd=est.sd,
                se=est.se,
                margin=allowance - diff,
                passed=math.isfinite(est.mean) and math.isfinite(est.se) and diff <= allowance,
            )
        )
    bindings = tuple(
        (name, str(value)) for name, value in sorted(cfg.bindings.items())
    )
    return VerifyReport(
        iterations=cfg.iterations,
        trials=cfg.trials,
        seed=cfg.seed,
        z=_Z,
        bindings=bindings,
        entries=tuple(entries),
    )
