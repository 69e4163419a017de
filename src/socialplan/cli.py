"""Command-line entry point.

Subcommands: ``sim`` (closed-loop policy runs), ``infer`` (weight estimation
from tracks), ``regen`` (regeneration MSE table), ``fixture`` (synthetic
track generation).  Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import SocialPlanError
from .workflows import make_fixture, parse_policy, run_infer, run_regen, run_sim

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures exit 1, not argparse's default 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="socialplan", description=__doc__)
    parser.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_sim = sub.add_parser("sim", help="simulate the scenario under one or more ego policies")
    common(p_sim)
    p_sim.add_argument(
        "--policy",
        action="append",
        default=None,
        help="egoism|courtesy|confidence or 'w1,w2,w3'; repeatable (default: all three)",
    )
    p_sim.add_argument(
        "--threads", type=int, default=1, help="accepted (>= 1) and ignored; the policies step in lockstep"
    )

    p_inf = sub.add_parser("infer", help="estimate reward weights from recorded tracks")
    common(p_inf)

    p_reg = sub.add_parser("regen", help="regeneration MSE table against recorded tracks")
    common(p_reg)

    p_fix = sub.add_parser("fixture", help="generate synthetic tracks from a scenario")
    common(p_fix)
    p_fix.add_argument("--lambda", dest="lam", default="egoism", help="leader policy for the fixture")
    p_fix.add_argument("--switch-step", type=int, default=None, help="step at which the leader switches policy")
    p_fix.add_argument("--lambda-after", dest="lam_after", default=None, help="policy after the switch")
    return parser


def _load(args):
    from .config import load_config

    cfg = load_config(Path(args.config))
    if args.seed is not None:
        from dataclasses import replace

        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _run(args) -> int:
    out = Path(args.out)
    if args.command == "sim":
        policies = args.policy or ["egoism", "courtesy", "confidence"]
        for p in policies:
            parse_policy(p)  # validate upfront so bad flags are usage errors
        run_sim(_load(args), policies, out, threads=args.threads)
    elif args.command == "infer":
        run_infer(_load(args), out)
    elif args.command == "regen":
        run_regen(_load(args), out)
    elif args.command == "fixture":
        lam = parse_policy(args.lam)
        lam_after = parse_policy(args.lam_after) if args.lam_after else None
        cfg = _load(args)
        make_fixture(
            cfg,
            lam,
            seed=cfg.seed,
            out_dir=out,
            switch_step=args.switch_step,
            lam_after=lam_after,
        )
    return EXIT_OK


def _report(message: str, kind: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    else:
        print(f"socialplan: {kind}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _report(str(exc), "usage", "--json-errors" in (argv if argv is not None else sys.argv))
        return EXIT_USAGE
    try:
        try:
            return _run(args)
        except ValueError as exc:  # bad flag values (policy triples etc.)
            _report(str(exc), "usage", args.json_errors)
            return EXIT_USAGE
    except (SocialPlanError, OSError) as exc:
        _report(str(exc), type(exc).__name__, args.json_errors)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
