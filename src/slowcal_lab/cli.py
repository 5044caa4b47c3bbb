"""Command-line entry point.

``run`` executes one experiment config, synthetic or MNIST; ``sweep`` and
``mnist`` are its aliases, and ``--data`` names the MNIST directory of an
mnist-logistic config.

Exit codes: 0 ok, 1 divergence (any run, or an entirely-diverged grid),
2 config error (out of memory included), 3 verification failure.
"""
from __future__ import annotations

import argparse
import sys

from .objectives import DegenerateProblemError
from .runner import ConfigError, RunSummary, load_spec, run_experiment
from .tuning import GridSearchError
from .verify import verify_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowcal-lab",
        description="Distributed convex-optimization laboratory: drift-corrected "
                    "local SGD against minibatch and local baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", aliases=["sweep", "mnist"],
                           help="execute one experiment config (its full cartesian sweep)")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--data", default=None,
                       help="directory holding the four canonical MNIST IDX files "
                            "(mnist-logistic configs only)")
    run_p.add_argument("--out", default=None, help="output directory override")

    sub.add_parser("verify", help="run the exact-identity self-check suite")
    return parser


def _report(summary: RunSummary) -> int:
    print(f"wrote {summary.num_runs} runs to {summary.csv_path}")
    print(f"manifest: {summary.manifest_path}")
    if summary.any_diverged:
        print("at least one run diverged", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command != "verify":
            return _report(run_experiment(load_spec(args.config), out_dir=args.out,
                                          data_dir=args.data))
        report = verify_suite()
        for line in report.lines():
            print(line)
        if not report.all_passed:
            print("verification failed", file=sys.stderr)
            return 3
        print("all checks passed")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateProblemError as exc:
        print(f"config error: degenerate problem: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except GridSearchError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
