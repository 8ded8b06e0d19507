"""Command-line driver.

Usage::

    loopmoments PROGRAM --goal 1 --goal 2 [--format txt|tex|json] [--out PATH]
                [--verify --param b=2 --param "y(0)=0"
                 --iters 20 --trials 100000 --seed 0]

Exit codes: 0 success, 1 verification or configuration failure, 2 parse
error (including unreadable or non-UTF-8 input, bad goals and bad flags), 3
unsupported program structure, 4 solver failure or moment-set blowup.
Diagnostics go to stderr; the report goes to stdout and, when requested,
to a file: one that cannot be written exits 2 after the report is printed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from .frontend import ParseError, UnsupportedProgramError
from .moments import ClosureOverflowError
from .pipeline import GoalError, analyze
from .recurrences import SolverError
from .report import FORMATS, emit
from .verifier import SimConfig, VerifierError, check, simulate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_SOLVER = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopmoments",
        description=(
            "Compute exact closed-form moments of probabilistic loop "
            "programs, optionally cross-checked by simulation."
        ),
    )
    parser.add_argument("program", help="path to the loop program")
    parser.add_argument(
        "--goal",
        action="append",
        default=[],
        metavar="K|MONOMIAL",
        help="moment order for all variables (e.g. 2) or a specific "
        "monomial (e.g. x^2*y); repeatable, at least one required",
    )
    parser.add_argument("--format", choices=FORMATS, default="txt")
    parser.add_argument("--out", metavar="PATH", help="also write the report here")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="simulate the program and check the closed forms statistically",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="exact parameter binding for --verify (VALUE may be 2, 1/2, 0.25)",
    )
    parser.add_argument("--iters", type=int, default=20, metavar="N",
                        help="iteration count checked by --verify (default %(default)s)")
    parser.add_argument("--trials", type=int, default=100_000, metavar="T",
                        help="simulation trials for --verify (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="master RNG seed for --verify (default %(default)s)")
    return parser


def _parse_bindings(pairs: Sequence[str]) -> dict[str, Fraction]:
    bindings: dict[str, Fraction] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        name = name.strip()
        if not name or "=" not in pair:
            raise VerifierError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in bindings:
            raise VerifierError(f"--param {name!r} is given more than once")
        try:
            bindings[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise VerifierError(f"cannot read {value!r} as an exact rational") from None
    return bindings


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = EXIT_OK
    try:
        if not args.goal:
            raise GoalError("at least one goal is required (use --goal)")
        bindings = _parse_bindings(args.param)
        with open(args.program, "r", encoding="utf-8") as handle:
            # A leading byte-order mark is dropped after decoding, so a
            # decoding error's byte offset still counts from the file's start.
            source = handle.read().removeprefix("\ufeff")
        report = analyze(source, args.goal, name=args.program)
        if args.verify:
            cfg = SimConfig(
                bindings=bindings, iterations=args.iters, trials=args.trials, seed=args.seed
            )
            estimates = simulate(report.validated, cfg, set(report.invariants))
            report = report.with_verification(check(report.invariants, estimates, cfg))
            if not report.verification.passed:
                code = EXIT_FAILURE
        rendered = emit(report, args.format)
    except OSError as exc:
        print(f"error: file access failed: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"error: {args.program} is not UTF-8 text: {exc.reason} at byte {exc.start}",
              file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, GoalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedProgramError as exc:
        print(f"error: unsupported program structure: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (SolverError, ClosureOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VerifierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    sys.stdout.write(rendered)
    if code == EXIT_FAILURE:
        print("verification failed; see report", file=sys.stderr)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_PARSE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
