"""Command line entry point.

Subcommands:
  verify                 deterministic invariant suite, no Monte Carlo
  run CONFIG             run one config-driven experiment
  dump-matrix --n N      dense certificate matrix as CSV (n <= 64)
  dump-net ...           net hierarchy of a stream as CSV

Exit status is 0 only when every assertion passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import dyadic_matrix, experiments, streams
from .sign_families import ResourceLimitError


def _cmd_verify(args) -> int:
    checks = experiments.verify_suite()
    if args.json:
        print(json.dumps({
            "checks": [dataclasses.asdict(c) for c in checks],
            "all_passed": all(c.passed for c in checks),
        }, indent=1))
    else:
        for c in checks:
            print(c.line())
    return 0 if all(c.passed for c in checks) else 1


def _cmd_run(args) -> int:
    config = experiments.ExperimentConfig.from_file(args.config)
    reads = experiments.EXPERIMENT_KINDS[config.kind].experiment
    for key in ("trials", "seed", "output", "workers"):
        if getattr(args, key) is not None:
            if key not in reads:
                raise ValueError(f"{config.kind} does not read --{key}")
            setattr(config, key, getattr(args, key))
    table = experiments.run(config)
    if args.json:
        print(json.dumps(table.summary(), indent=1))
    else:
        for c in table.checks:
            print(c.line())
        if config.output:
            print(f"wrote {len(table.rows)} rows to {config.output}")
    return 0 if table.all_passed else 1


def _cmd_dump_matrix(args) -> int:
    if args.output:
        with open(args.output, "w") as out:
            dyadic_matrix.dump_csv(args.n, out)
    else:
        dyadic_matrix.dump_csv(args.n, sys.stdout)
    return 0


def _cmd_dump_net(args) -> int:
    # argparse makes exactly one of --stream and --generator the source
    if args.stream is not None:
        if args.m is not None:
            raise ValueError("--m is read only with --generator")
        stream = streams.read_stream(args.stream, n=args.n)
    else:
        if args.n is not None:
            raise ValueError("--n is read only with --stream")
        if args.m is None:
            raise ValueError("--generator needs --m")
        stream = streams.STREAM_GENERATORS[args.generator](args.m)
    nets = streams.build_nets(stream)
    if args.output:
        with open(args.output, "w") as out:
            nets.to_csv(out)
    else:
        nets.to_csv(sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwalks",
        description="sign-family construction and excursion-bound experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact invariant suite")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--output")
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_mat = sub.add_parser("dump-matrix", help="dense certificate matrix CSV")
    p_mat.add_argument("--n", type=int, required=True)
    p_mat.add_argument("--output")
    p_mat.set_defaults(fn=_cmd_dump_matrix)

    p_net = sub.add_parser("dump-net", help="net hierarchy CSV")
    source = p_net.add_mutually_exclusive_group(required=True)
    source.add_argument("--stream", help="file of newline-delimited items")
    p_net.add_argument("--n", type=int, help="dimension override for --stream")
    source.add_argument("--generator", choices=sorted(streams.STREAM_GENERATORS))
    p_net.add_argument("--m", type=int, help="length for --generator")
    p_net.set_defaults(fn=_cmd_dump_net)
    p_net.add_argument("--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
