"""Command-line front end.

Subcommands:
  build    construct a graph or design and write it to disk
  switch   write the switched graph plus the partition description
  certify  run the full certification pipeline and emit a JSON certificate

Exit codes: 0 success / all verdicts pass; 1 a verified claim failed;
2 usage or parameter error; 3 the graph J_q(2e+1, e+1) has more than
construct.MAX_VERTICES (2^15) vertices, refused before anything is built.
`certify --budget` only chooses how cospectrality is certified.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certify import (
    DEFAULT_CERTIFY_SPECTRAL_BUDGET,
    certificate_to_json,
    run_certification,
)
from .construct import (
    Parameters,
    block_graph,
    jt_design,
    canonical_grassmann,
    pg_design,
    standard_polarity,
    switching_partition,
    twisted_grassmann,
)
from .errors import BudgetExceededError, DomainError, ParameterError
from .graph import Graph, gm_switch
from .graphio import label_table_json, to_edge_list, to_graph6, to_json

BUDGET_ENV_VAR = "GMTWIST_BUDGET"

BUILD_KINDS = ("grassmann", "twisted", "pg-design", "jt-design", "block-graph")


def _write_graph(G: Graph, out: str, fmt: str) -> None:
    if fmt == "graph6":
        with open(out, "wb") as fh:
            fh.write(to_graph6(G) + b"\n")
    elif fmt == "edges":
        with open(out, "w") as fh:
            fh.write(to_edge_list(G))
    elif fmt == "json":
        with open(out, "w") as fh:
            fh.write(to_json(G))
    else:
        raise ParameterError(f"unknown format {fmt!r}")
    with open(out + ".labels.json", "w") as fh:
        fh.write(label_table_json(G) + "\n")


def _cmd_build(args) -> int:
    params = Parameters(args.q, args.e)
    if args.kind in ("pg-design", "jt-design"):
        if args.format != "json":
            raise ParameterError(f"designs serialize as JSON only, not {args.format!r}")
        design = (
            pg_design(params)
            if args.kind == "pg-design"
            else jt_design(params, standard_polarity(params))
        )
        with open(args.out, "w") as fh:
            json.dump(design.to_json(), fh, sort_keys=True)
            fh.write("\n")
        return 0
    if args.kind == "grassmann":
        G = canonical_grassmann(params)
    elif args.kind == "twisted":
        G = twisted_grassmann(params)
    else:  # block-graph: the block graph of the pseudo-geometric design
        q, e = params.q, params.e
        G = block_graph(jt_design(params, standard_polarity(params)), (q**e - 1) // (q - 1))
    _write_graph(G, args.out, args.format)
    return 0


def _cmd_switch(args) -> int:
    params = Parameters(args.q, args.e)
    if params.e < 2:
        raise ParameterError("switching is certified for e >= 2 only")
    sigma = standard_polarity(params)
    G = canonical_grassmann(params)
    info = switching_partition(params, sigma)
    switched = gm_switch(G, info.partition)
    _write_graph(switched, args.out, args.format)
    partition_doc = {
        "cells": [list(c) for c in info.partition.cells],
        "exempt": list(info.partition.exempt),
    }
    with open(args.out + ".partition.json", "w") as fh:
        json.dump(partition_doc, fh, sort_keys=True)
        fh.write("\n")
    return 0


def _parse_budget(source: str, text: str) -> int:
    """The spectral budget given as `text` by `source`: an integer >= 0."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ParameterError(f"{source} must be an integer >= 0, got {text!r}")
    return budget


def _cmd_certify(args) -> int:
    if args.budget is not None:
        budget = _parse_budget("--budget", args.budget)
    elif BUDGET_ENV_VAR in os.environ:
        budget = _parse_budget(BUDGET_ENV_VAR, os.environ[BUDGET_ENV_VAR])
    else:
        budget = DEFAULT_CERTIFY_SPECTRAL_BUDGET
    cert = run_certification(
        args.q,
        args.e,
        skip_charpoly=args.skip_charpoly,
        spectral_budget=budget,
        invariant=args.invariant,
    )
    text = certificate_to_json(cert)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if cert["overall"] == "pass" else 1


def _add_common(sub):
    sub.add_argument("--q", type=int, required=True, help="field order (prime power <= 16)")
    sub.add_argument("--e", type=int, required=True, help="half-dimension parameter (>= 2 for certification)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmtwist", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="construct a graph or design and write it out")
    b.add_argument("kind", choices=BUILD_KINDS)
    _add_common(b)
    b.add_argument("--out", required=True)
    b.add_argument("--format", choices=("graph6", "edges", "json"), default="graph6")
    b.set_defaults(func=_cmd_build)

    s = subs.add_parser("switch", help="write the switched graph and its partition")
    _add_common(s)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=("graph6", "edges", "json"), default="graph6")
    s.set_defaults(func=_cmd_switch)

    c = subs.add_parser("certify", help="run the full certification pipeline")
    _add_common(c)
    c.add_argument("--out", help="certificate path (stdout if omitted)")
    c.add_argument("--skip-charpoly", action="store_true", help="certify cospectrality via intersection arrays only")
    c.add_argument(
        "--budget",
        help=f"max vertices for exact char polys (default {DEFAULT_CERTIFY_SPECTRAL_BUDGET}, env {BUDGET_ENV_VAR})",
    )
    c.add_argument(
        "--invariant",
        choices=("nbhd-charpoly", "clique-counts"),
        default="nbhd-charpoly",
        help="per-vertex invariant for the transitivity evidence",
    )
    c.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
