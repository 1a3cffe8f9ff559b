"""Command-line front end.

Subcommands: ``schatten`` (matrix norms), ``norm`` and ``stabilized``
(induced super-operator norms of channel files), ``verify`` (claim suites),
``explore`` (open-question surveys), and ``example`` (emit a named example
channel as JSON).  All numeric output is JSON or fixed 12-decimal text and is
byte-deterministic for a fixed invocation including ``--seed``.

Exit codes: 0 success, 1 a verification suite failed, 2 usage, input,
size-limit, numerical (a decomposition did not converge), resource (out of
memory) or worker (a verify worker process died) errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from numpy.linalg import LinAlgError

from .channels import EXAMPLE_NAMES, build_example
from .errors import InvalidInputError
from .explore import explore_open_question
from .optimize import NormQuery, OptimizerConfig, norm_q_to_p, stabilized_norm
from .schatten import parse_exponent, schatten_norm
from .serialize import channel_to_json, load_channel, load_matrix
from .superop import difference
from .verify import claim_ids, verify


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _print_estimate(est, seed: int) -> None:
    print(
        _compact(
            {
                "value": est.value,
                "converged": est.converged,
                "seed": seed,
            }
        )
    )


def _cmd_schatten(args) -> int:
    value = schatten_norm(load_matrix(args.matrix), parse_exponent(args.p))
    print(f"{value:.12f}")
    return 0


def _cmd_norm(args) -> int:
    phi = load_channel(args.channel)
    query = NormQuery(
        parse_exponent(args.q), parse_exponent(args.p), args.hermitian, args.stabilize
    )
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    _print_estimate(norm_q_to_p(phi, query, cfg), args.seed)
    return 0


def _cmd_stabilized(args) -> int:
    phi = load_channel(args.channel)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    est = stabilized_norm(phi, parse_exponent(args.p), args.hermitian, cfg)
    _print_estimate(est, args.seed)
    return 0


def _cmd_verify(args) -> int:
    ids = claim_ids() if args.suite == "all" else (args.suite,)
    all_passed = True
    for claim_id in ids:
        report = verify(claim_id, seed=args.seed, trials=args.trials, restarts=args.restarts)
        print(report.to_json())
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_explore(args) -> int:
    phi = load_channel(args.channel)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    result = explore_open_question(
        phi,
        args.question,
        q=parse_exponent(args.q),
        p=parse_exponent(args.p),
        samples=args.samples,
        config=cfg,
    )
    print(_compact(result))
    return 0


def _cmd_example(args) -> int:
    built = build_example(args.name)
    if isinstance(built, tuple):
        part = args.part if args.part is not None else "difference"
        phi = difference(*built) if part == "difference" else built[int(part)]
    else:
        if args.part is not None:
            raise InvalidInputError(f"{args.name!r} is a single map; --part applies to pairs")
        phi = built
    print(channel_to_json(phi))
    return 0


def _add_seed_flags(sp) -> None:
    sp.add_argument("--seed", type=int, default=42, help="RNG seed (default: %(default)s)")
    sp.add_argument(
        "--restarts", type=int, default=32, help="optimizer restarts (default: %(default)s)"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args does not change the parser
    parser = argparse.ArgumentParser(
        prog="supernorms",
        description="Schatten norms and induced super-operator norms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("schatten", help="Schatten p-norm of a matrix file")
    sp.add_argument("matrix", help="path to a matrix JSON file")
    sp.add_argument("--p", required=True, help='exponent: "inf" or a decimal >= 1')
    sp.set_defaults(func=_cmd_schatten)

    sp = sub.add_parser("norm", help="induced q->p norm of a channel file")
    sp.add_argument("channel", help="path to a channel JSON file")
    sp.add_argument("--q", required=True, help='input exponent: "inf" or a decimal >= 1')
    sp.add_argument("--p", required=True, help='output exponent: "inf" or a decimal >= 1')
    sp.add_argument(
        "--hermitian", action="store_true", help="restrict the supremum to Hermitian inputs"
    )
    sp.add_argument(
        "--stabilize",
        type=int,
        default=0,
        metavar="K",
        help="tensor with the identity on a K-dimensional ancilla first (default: %(default)s)",
    )
    _add_seed_flags(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser(
        "stabilized", help="stabilized 1->p norm (ancilla = input dimension)"
    )
    sp.add_argument("channel", help="path to a channel JSON file")
    sp.add_argument("--p", required=True, help='output exponent: "inf" or a decimal >= 1')
    sp.add_argument(
        "--hermitian", action="store_true", help="restrict the supremum to Hermitian inputs"
    )
    _add_seed_flags(sp)
    sp.set_defaults(func=_cmd_stabilized)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument(
        "--suite",
        required=True,
        help="claim id or 'all'; known ids: " + ", ".join(claim_ids()),
    )
    sp.add_argument(
        "--trials", type=int, default=50, help="random trials per suite (default: %(default)s)"
    )
    _add_seed_flags(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("explore", help="survey data for the open questions")
    sp.add_argument("channel", help="path to a channel JSON file")
    sp.add_argument("--question", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--q", default="1", help='input exponent (default: %(default)s)')
    sp.add_argument("--p", default="1", help='output exponent (default: %(default)s)')
    sp.add_argument(
        "--samples", type=int, default=20, help="re-mixings to sample (default: %(default)s)"
    )
    _add_seed_flags(sp)
    sp.set_defaults(func=_cmd_explore)

    sp = sub.add_parser("example", help="emit a named example channel as JSON")
    sp.add_argument("name", help="one of: " + ", ".join(EXAMPLE_NAMES))
    sp.add_argument(
        "--part",
        choices=("0", "1", "difference"),
        help="for pair examples: which map to emit (default: difference)",
    )
    sp.set_defaults(func=_cmd_example)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinAlgError as exc:
        # a ValueError subclass; named so it is not mistaken for bad input
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # imported here: the process pool module is loaded only by a verify fan-out
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"error: worker process failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
