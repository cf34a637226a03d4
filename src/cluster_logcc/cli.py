"""Command-line interface.

Three subcommands: `mutate` walks a mutation path and dumps every
intermediate seed (with companion matrices under principal coefficients),
`tpaths` lists the admissible paths of a chord and the variable they sum to,
and `verify` runs one named claim checker and reports witnesses.

All results are emitted as JSON with a trailing newline, either to stdout or
to --out.  Output is byte-deterministic for a given invocation; wall-clock
timings go to stderr only.  Exit codes: 0 success (for verify: claim holds
or exploration found nothing), 1 verification produced witnesses, 2 usage or
input errors, or an exchange that did not divide exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .pattern import (
    a_n_matrix,
    coefficient_free_seed,
    f_data,
    mutate,
    principal_state,
    seed_to_json,
    state_step,
)
from .polygon import (
    boundary_to_one,
    enumerate_t_paths,
    fan,
    path_sum,
    tpath_to_json,
    triangulation_from_json,
    triangulation_to_json,
    zigzag,
)
from .poly import InexactDivisionError, poly_to_json
from .verify import CLAIM_IDS, run_claim


def _emit(obj: dict, out_path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _parse_path(raw: str, rank: int) -> List[int]:
    if raw.strip() == "":
        return []
    out = []
    for piece in raw.split(","):
        k = int(piece.strip())
        if not 1 <= k <= rank:
            raise ValueError(f"mutation direction {k} out of range 1..{rank}")
        out.append(k)
    return out


def cmd_mutate(args: argparse.Namespace) -> int:
    rank = args.rank
    if rank < 1:
        raise ValueError("rank must be at least 1")
    path = _parse_path(args.path, rank)
    principal = args.coeff == "principal"
    B = a_n_matrix(rank)
    st = principal_state(B) if principal else coefficient_free_seed(B)
    states: List[dict] = []
    for step, direction in enumerate([None] + path):
        if direction is not None:
            st = state_step(st, direction) if principal else mutate(st, direction)
        seed = st.seed if principal else st
        states.append({"step": step, "direction": direction, "seed": seed_to_json(seed)})
        if principal:
            fd = f_data(seed)
            states[-1].update(
                C=[list(r) for r in st.C],
                G=[list(r) for r in st.G],
                D=[list(r) for r in st.D],
                f_polynomials=[poly_to_json(fp) for fp in fd.f_polynomials],
                f_matrix=[list(r) for r in fd.f_matrix],
            )
    _emit(
        {"rank": rank, "coefficients": args.coeff, "path": path, "states": states},
        args.out,
    )
    return 0


def _load_triangulation(source: str, ngon: Optional[int]):
    if source in ("zigzag", "fan"):
        if ngon is None:
            raise ValueError("--ngon is required with the built-in triangulations")
        if ngon < 4:
            raise ValueError("--ngon must be at least 4")
        return zigzag(ngon - 3) if source == "zigzag" else fan(ngon - 3)
    p = Path(source)
    if not p.is_file():
        raise ValueError(f"triangulation file not found: {source}")
    tri = triangulation_from_json(json.loads(p.read_text(encoding="utf-8")))
    if ngon is not None and tri.size != ngon:
        raise ValueError(f"--ngon {ngon} does not match the file's {tri.size}-gon")
    return tri


def cmd_tpaths(args: argparse.Namespace) -> int:
    tri = _load_triangulation(args.triangulation, args.ngon)
    a, b = args.vertex_from, args.vertex_to
    paths = enumerate_t_paths(tri, a, b)
    kept = path_sum(tri, paths)
    _emit(
        {
            "triangulation": triangulation_to_json(tri),
            "chord": [min(a, b), max(a, b)],
            "paths": [tpath_to_json(tri, p) for p in paths],
            "variable": poly_to_json(boundary_to_one(tri, kept)),
            "variable_with_boundary": poly_to_json(kept),
        },
        args.out,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    report = run_claim(args.claim, rank=args.rank, deg=args.deg)
    elapsed = time.monotonic() - started
    print(f"verify {args.claim}: {report.status} in {elapsed:.2f}s", file=sys.stderr)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-logcc",
        description="Exact mutation, chord expansion, and log-concavity checks "
        "for rank-n cluster patterns of the linear (polygon) type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mut = sub.add_parser("mutate", help="walk a mutation path and dump each seed")
    p_mut.add_argument("--rank", type=int, required=True, help="number of mutable directions")
    p_mut.add_argument(
        "--coeff",
        choices=("free", "principal"),
        default="free",
        help="coefficient setup (principal adds companion matrices and x->1 data)",
    )
    p_mut.add_argument(
        "--path",
        default="",
        help="comma-separated 1-based mutation directions, e.g. 1,2,1",
    )
    p_mut.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_mut.set_defaults(func=cmd_mutate)

    p_tp = sub.add_parser("tpaths", help="admissible paths of a chord and their sum")
    p_tp.add_argument("--ngon", type=int, default=None, help="number of polygon vertices")
    p_tp.add_argument(
        "--triangulation",
        default="zigzag",
        help="zigzag, fan, or a path to a triangulation JSON file",
    )
    p_tp.add_argument(
        "--from", dest="vertex_from", type=int, required=True, help="chord endpoint"
    )
    p_tp.add_argument(
        "--to", dest="vertex_to", type=int, required=True, help="chord endpoint"
    )
    p_tp.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_tp.set_defaults(func=cmd_tpaths)

    p_ver = sub.add_parser("verify", help="run one claim checker and report witnesses")
    p_ver.add_argument("--claim", choices=CLAIM_IDS, required=True)
    p_ver.add_argument("--rank", type=int, help="rank for rank-scoped claims (default 3)")
    p_ver.add_argument(
        "--deg", type=int, help="total degree bound for monomial claims (default 6)"
    )
    p_ver.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (
        ValueError, KeyError, IndexError, RuntimeError, OSError, InexactDivisionError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
