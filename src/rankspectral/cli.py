"""Command-line front end.

Subcommands: ``test`` (run the eigenvalue test on a matrix file),
``simulate`` (rejection-rate experiment for a generative model),
``reproduce`` (canned table/figure targets), ``esd`` (spectral histogram of
one whitened realization), ``qq`` (null QQ data for either statistic).

Exit codes: 0 = no rejection / success, 10 = test rejected the null,
64 = usage error, 65 = malformed data (parse or tie violation),
66 = missing input file, 70 = internal numerical failure. Every error path
prints a single-line JSON record ``{"error": class, "message": text}`` to
stderr. Stochastic subcommands require an explicit --seed; nothing draws
from OS entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .experiments import (
    ExperimentConfig,
    QQ_REPLICATES,
    TABLE_REPLICATES,
    null_distribution_experiment,
    rejection_rate_experiment,
    semicircle_experiment,
    write_histogram_csv,
    write_qq_csv,
)
from .inference import run_test
from .models import DistributionParseError
from .ranking import TiePolicy, TieError
from .reproduce import TARGETS, reproduce_target
from .symmetric import FORMATS, FormatError, MatrixSource, load_matrix

EXIT_OK = 0
EXIT_REJECT = 10
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70

_THREADS_HELP = (
    "replicates run at once, replicate i in forked worker i mod threads (a thread off Linux or "
    "beside another Python thread), each with its own memory peak; results do not depend on it"
)


def _fail(error: str, message: str, code: int) -> NoReturn:
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    """argparse with sysexits-style usage failures and JSON error records."""

    def error(self, message: str) -> NoReturn:  # type: ignore[override]
        _fail("UsageError", message, EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankspectral",
        description="Distribution-free spectral tests for latent structure in symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_test = sub.add_parser("test", help="run the eigenvalue test on a matrix file")
    p_test.add_argument("matrix", help="input matrix path")
    p_test.add_argument("--format", choices=FORMATS, default="dense-csv")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--ties", choices=("error", "random"), default="error")
    p_test.add_argument("--seed", type=int, help="required when --ties random")
    p_test.add_argument(
        "--alternative", choices=("two-sided", "greater"), default="two-sided"
    )
    p_test.add_argument("--out", help="write the result JSON here instead of stdout")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="rejection-rate experiment for a model")
    p_sim.add_argument(
        "model", nargs="?", choices=("homogeneous", "two_block", "planted")
    )
    p_sim.add_argument("distributions", nargs="*", help="1 or 2 specs like 'normal(1,0.4)'")
    p_sim.add_argument("--config", help="JSON ExperimentConfig file (replaces positionals)")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--n1", type=int)
    p_sim.add_argument("--replicates", type=int, default=TABLE_REPLICATES)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument(
        "--threads", type=int, help=_THREADS_HELP + "; default 1, or the --config file's"
    )
    p_sim.add_argument("--dump", help="per-replicate CSV path")
    p_sim.add_argument("--out", help="write the report JSON here instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="rebuild a result table or figure as CSV")
    p_rep.add_argument("target", choices=TARGETS)
    p_rep.add_argument("--seed", type=int, required=True)
    p_rep.add_argument("--scale", type=float, default=1.0)
    p_rep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_rep.add_argument("--out", default="reproduction", help="output directory")
    p_rep.set_defaults(func=cmd_reproduce)

    p_esd = sub.add_parser("esd", help="spectral histogram of one whitened realization")
    p_esd.add_argument("--n", type=int, required=True)
    p_esd.add_argument("--bins", type=int, default=80)
    p_esd.add_argument("--seed", type=int, required=True)
    p_esd.add_argument("--out", default=".", help="output directory")
    p_esd.set_defaults(func=cmd_esd)

    p_qq = sub.add_parser("qq", help="null QQ data for a standardized statistic")
    p_qq.add_argument("--n", type=int, required=True)
    p_qq.add_argument("--replicates", type=int, default=QQ_REPLICATES)
    p_qq.add_argument("--which", choices=("eigenvalue", "eigenvector"), default="eigenvalue")
    p_qq.add_argument("--seed", type=int, required=True)
    p_qq.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_qq.add_argument("--out", default=".", help="output directory")
    p_qq.set_defaults(func=cmd_qq)

    return parser


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_test(args: argparse.Namespace) -> int:
    if args.ties == "random" and args.seed is None:
        _fail("UsageError", "--ties random requires --seed", EXIT_USAGE)
    policy = TiePolicy.random(args.seed) if args.ties == "random" else TiePolicy.error()
    matrix = load_matrix(MatrixSource(format=args.format, path=args.matrix))
    result = run_test(matrix, alpha=args.alpha, policy=policy, alternative=args.alternative)
    _write_text(args.out, result.to_json(indent=2) + "\n")
    return EXIT_REJECT if result.reject else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.config is not None:
        if args.model or args.distributions or args.seed is not None:
            _fail(
                "UsageError",
                "--config replaces the positional model/distribution arguments and --seed",
                EXIT_USAGE,
            )
        config = ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
        if args.threads is not None:
            config.threads = args.threads
    else:
        if args.model is None:
            _fail("UsageError", "a model (or --config) is required", EXIT_USAGE)
        if args.n is None:
            _fail("UsageError", "--n is required", EXIT_USAGE)
        if args.seed is None:
            _fail("UsageError", "--seed is required", EXIT_USAGE)
        wanted = 1 if args.model == "homogeneous" else 2
        if len(args.distributions) != wanted:
            _fail(
                "UsageError",
                f"{args.model} takes {wanted} distribution spec(s), got {len(args.distributions)}",
                EXIT_USAGE,
            )
        config = ExperimentConfig(
            experiment=args.model,
            n=args.n,
            replicates=args.replicates,
            master_seed=args.seed,
            alpha=args.alpha,
            f1=args.distributions[0],
            f2=args.distributions[1] if wanted == 2 else None,
            n1=args.n1,
            threads=1 if args.threads is None else args.threads,
        )
    report = rejection_rate_experiment(config, dump_path=args.dump)
    _write_text(args.out, report.to_json() + "\n")
    return EXIT_OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    paths = reproduce_target(
        args.target, seed=args.seed, out_dir=args.out, scale=args.scale, threads=args.threads
    )
    for path in paths:
        sys.stdout.write(f"{path}\n")
    return EXIT_OK


def cmd_esd(args: argparse.Namespace) -> int:
    summary, report = semicircle_experiment(n=args.n, bins=args.bins, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "esd_histogram.csv"
    write_histogram_csv(csv_path, summary)
    json_path = out / "esd_summary.json"
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    sys.stdout.write(f"{csv_path}\n{json_path}\n")
    return EXIT_OK


def cmd_qq(args: argparse.Namespace) -> int:
    report = null_distribution_experiment(
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
        which=args.which,
        threads=args.threads,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"qq_{args.which}.csv"
    write_qq_csv(csv_path, report.arrays[f"{args.which}_stat"])
    json_path = out / "qq_summary.json"
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    sys.stdout.write(f"{csv_path}\n{json_path}\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, TieError, DistributionParseError) as exc:
        _fail(type(exc).__name__, str(exc), EXIT_DATA)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _fail(type(exc).__name__, str(exc), EXIT_NOINPUT)
    except (ValueError, json.JSONDecodeError) as exc:
        _fail(type(exc).__name__, str(exc), EXIT_USAGE)
    except Exception as exc:  # last resort: keep the record machine-parseable
        _fail(type(exc).__name__, str(exc), EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
