"""Command-line surface: flows, contraction, patterns, counts, branching
fixtures, polygons, and the invariant verifier.

Exit codes: 0 success, 1 domain error or a LAPACK failure (the error class
name goes to stderr), 2 I/O or parse error. Config precedence is flag >
MFLOW_* env var > default; `--show-config` prints the resolved values.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import serialize
from .branching import (
    cg_admissible,
    cg_multiplicity,
    dominance_cone_member,
    fiber_chain_member,
    parse_newick,
    pieri_admissible,
    polygon_monoid_member,
    tree_polytope_count,
)
from .config import Config, env_var_name, flag_name, load_config
from .contraction import contract_closed_form
from .errors import MFlowError, ParseError
from .flow import integrate_flow
from .gelfand_tsetlin import enumerate_gt, gt_pattern, weyl_dim
from .polygons import bend, build_polygon, caterpillar_triangulation, diagonal_lengths
from .verify import run_all


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text: str):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _chain(text: str):
    return [_int_list(part) for part in text.split(":")]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the mflow command line.

    A subcommand's inputs (`--in`, `--weight`, `--tree`, `--r`, one of the
    `branch` tests) are not argparse-required: `main` demands them unless
    `--show-config` is given, so showing the configuration needs none.
    """
    p = argparse.ArgumentParser(prog="mflow", description=__doc__)
    p.add_argument("--show-config", action="store_true",
                   help="print the resolved configuration and exit")
    p.set_defaults(needs=())
    sub = p.add_subparsers(dest="command")

    fields = {f.name: f for f in dataclasses.fields(Config)}

    def config_flags(sp, *names):
        """Flags for the Config fields that this subcommand reads."""
        for name in names:
            sp.add_argument(flag_name(name), type=type(fields[name].default), default=None,
                            dest=name, help=f"overrides {env_var_name(name)}")

    def needs(sp, *groups):
        """Record the inputs sp runs on: one action of each group."""
        sp.set_defaults(needs=groups)

    sp = sub.add_parser("gt-pattern", help="Gel'fand-Tsetlin pattern of a Hermitian matrix")
    needs(sp, [sp.add_argument("--in", dest="inp")])
    sp.add_argument("--out", dest="out")

    sp = sub.add_parser("flow", help="integrate the determinant gradient flow")
    needs(sp, [sp.add_argument("--in", dest="inp")])
    sp.add_argument("--out", dest="out")
    sp.add_argument("--samples", type=int, default=None,
                    help="resample the CSV onto a uniform time grid")
    config_flags(sp, "m")

    sp = sub.add_parser("contract", help="closed-form symplectic contraction of a matrix")
    needs(sp, [sp.add_argument("--in", dest="inp")])
    sp.add_argument("--out", dest="out")

    sp = sub.add_parser("gt-count", help="lattice count of a GT polytope vs the Weyl dimension")
    needs(sp, [sp.add_argument("--weight", type=_int_list)])

    sp = sub.add_parser("branch", help="branching-rule membership and multiplicity fixtures")
    g = sp.add_mutually_exclusive_group()
    needs(sp, [g.add_argument("--cg", type=_int_list, metavar="R1,R2,..."),
               g.add_argument("--pieri", type=_chain, metavar="ETA:LAMBDA"),
               g.add_argument("--dominance", type=_chain, metavar="LAMBDA:MU"),
               g.add_argument("--polygon-monoid", type=_int_list, metavar="R1,...,RN"),
               g.add_argument("--chain", type=_chain, metavar="W1:W2:...")])

    sp = sub.add_parser("tree-count", help="lattice points of a tree polytope vs CG multiplicity")
    needs(sp, [sp.add_argument("--tree", help='Newick string, e.g. "((1,2),(3,4))"')],
          [sp.add_argument("--r", type=_int_list, help="leaf weights by label")])

    sp = sub.add_parser("polygon", help="build a polygon, apply bends, report diagonals")
    sp.add_argument("--r", type=_float_list, help="side lengths")
    sp.add_argument("--d", type=_float_list, help="fan diagonal lengths (n-3 values)")
    sp.add_argument("--angles", type=_float_list, help="fan dihedral angles (n-3 values)")
    sp.add_argument("--scenario", help="JSON file with r, d, angles, bends")
    sp.add_argument("--out", dest="out")

    sp = sub.add_parser("verify", help="run the invariant suite")
    config_flags(sp, "seed")

    return p


def _bool_word(b: bool) -> str:
    return "true" if b else "false"


def cmd_gt_pattern(args, cfg) -> int:
    M = serialize.load_matrix(args.inp)
    P = gt_pattern(M)
    if args.out:
        serialize.save_pattern(args.out, P)
    else:
        print(json.dumps(serialize.pattern_to_json(P)))
    return 0


def cmd_flow(args, cfg) -> int:
    if args.samples is not None and args.samples < 0:
        raise ParseError(f"--samples must be >= 0, got {args.samples}")
    if args.samples is not None and not args.out:
        raise ParseError("--samples resamples the CSV, so it needs --out")
    M = serialize.load_matrix(args.inp)
    traj = integrate_flow(M, cfg)
    if args.out:
        serialize.save_trajectory(args.out, traj, samples=args.samples)
    stats = traj.step_stats
    print(f"steps accepted={stats.accepted} rejected={stats.rejected} "
          f"min_step={stats.min_step:.3e} rhs_calls={stats.rhs_calls} "
          f"err_rejects={stats.err_rejects} singular_rejects={stats.singular_rejects} "
          f"det_rejects={stats.det_rejects} k={traj.time_exponent}")
    print(f"terminal |det|={abs(np.linalg.det(traj.terminal)):.3e} "
          f"mu_drift={traj.momentum_drift().max():.3e} t_last={traj.times()[-1]:.17g}")
    return 0


def cmd_contract(args, cfg) -> int:
    M = serialize.load_matrix(args.inp)
    C = contract_closed_form(M)
    if args.out:
        serialize.save_matrix(args.out, C)
    else:
        print(json.dumps(serialize.matrix_to_json(C)))
    return 0


def cmd_gt_count(args, cfg) -> int:
    count = enumerate_gt(args.weight)
    dim = weyl_dim(args.weight)
    print(count)
    verdict = "MATCH" if count == dim else "MISMATCH"
    print(f"weyl={dim} {verdict}")
    return 0 if verdict == "MATCH" else 1


def cmd_branch(args, cfg) -> int:
    if args.cg is not None:
        mult = cg_multiplicity(args.cg)
        if len(args.cg) == 3:
            print(f"admissible={_bool_word(cg_admissible(*args.cg))} multiplicity={mult}")
        else:
            print(f"multiplicity={mult}")
    elif args.pieri is not None:
        if len(args.pieri) != 2:
            raise ParseError("--pieri needs ETA:LAMBDA")
        eta, lam = args.pieri
        print(f"admissible={_bool_word(pieri_admissible(eta, lam))}")
    elif args.dominance is not None:
        if len(args.dominance) != 2:
            raise ParseError("--dominance needs LAMBDA:MU")
        lam, mu = args.dominance
        print(f"member={_bool_word(dominance_cone_member(lam, mu))}")
    elif args.polygon_monoid is not None:
        print(f"member={_bool_word(polygon_monoid_member(args.polygon_monoid))}")
    else:
        print(f"member={_bool_word(fiber_chain_member(args.chain))}")
    return 0


def cmd_tree_count(args, cfg) -> int:
    tree = parse_newick(args.tree)
    count = tree_polytope_count(tree, args.r)
    mult = cg_multiplicity(args.r)
    print(count)
    verdict = "MATCH" if count == mult else "MISMATCH"
    print(f"cg={mult} {verdict}")
    return 0 if verdict == "MATCH" else 1


def cmd_polygon(args, cfg) -> int:
    if args.scenario:
        r, d, angles, bends = serialize.load_scenario(args.scenario)
    else:
        if args.r is None:
            raise ParseError("polygon needs --r or --scenario")
        r = args.r
        d = args.d if args.d is not None else []
        angles = args.angles if args.angles is not None else [0.0] * max(0, len(r) - 3)
        bends = []
    P = build_polygon(r, d, angles)
    for diagonal, theta in bends:
        P = bend(P, diagonal, theta)
    T = caterpillar_triangulation(P.n)
    sides = " ".join(f"{v:.12g}" for v in P.side_lengths())
    diags = " ".join(f"{v:.12g}" for v in diagonal_lengths(P, T))
    print(f"sides {sides}")
    print(f"diagonals {diags}")
    if args.out:
        serialize.save_polygon(args.out, P)
    return 0


def cmd_verify(args, cfg) -> int:
    results = run_all(seed=cfg.seed)
    for r in results:
        print(f"PASS {r.name} {r.numbers}" if r.passed else f"FAIL {r.name}: {r.detail} {r.numbers}")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "gt-pattern": cmd_gt_pattern,
    "flow": cmd_flow,
    "contract": cmd_contract,
    "gt-count": cmd_gt_count,
    "branch": cmd_branch,
    "tree-count": cmd_tree_count,
    "polygon": cmd_polygon,
    "verify": cmd_verify,
}


def _require_inputs(args) -> None:
    """Raise ParseError naming the flag when the subcommand lacks an input."""
    for group in args.needs:
        if all(getattr(args, a.dest) is None for a in group):
            flags = ", ".join(a.option_strings[0] for a in group)
            raise ParseError(f"{args.command} needs {'one of ' if len(group) > 1 else ''}{flags}")


# main's parser, built on the first call rather than at import; argparse
# keeps no state between parse_args calls, so every call may share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None and not args.show_config:
        parser.print_help()
        return 2
    try:
        if not args.show_config:
            _require_inputs(args)
        cfg = load_config(**{f.name: getattr(args, f.name, None)
                             for f in dataclasses.fields(Config)})
        if args.show_config:
            print(cfg.describe())
            return 0
        return _COMMANDS[args.command](args, cfg)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (MFlowError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
