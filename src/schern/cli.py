"""Command-line front end.

The parsed flags are the only settings; the environment supplies nothing
but the default cache location under XDG_CACHE_HOME.  Only default-mode
c2 and table rows go through the result cache, via tables.cached_c2; dim
and --method runs never touch it.

Exit codes: 0 success, 1 an arithmetic invariant failed (verify found an
index that is not a multiple of the H^4 generator, or the closed form or
the hook-content dimension did not divide exactly), 2 bad arguments or
violated preconditions (unknown case, ceiling exceeded, malformed
partition, unusable cache path), 3 a consistency check failed (method
cross-check, a table row whose cross-check failed, or --verify-cache
disagreement).
"""
from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .cache import ResultCache, StaleCacheError
from .chern import (
    DEFAULT_ENUMERATION_CEILING,
    CrossCheckError,
    EnumerationCeilingError,
)
from .partitions import Partition, PartitionError, partition, schur_dimension
from .tables import (
    CASES,
    REFERENCE_TABLES,
    GeneratorTable,
    cached_c2,
    explore_conjecture,
    generator_table,
    image_index,
    table_against_reference,
    verify_case,
)
from .weights import GroupSpec, weight_str

METHOD_BY_FLAG = {
    None: "auto",
    "enum": "enumeration",
    "weyl": "closed-form",
    "both": "both",
}


def parse_partition(text: str) -> Partition:
    """"2,2,1" -> (2, 2, 1); "" and "0" denote the empty partition.

    Each part is ASCII digits, with spaces around it allowed: int() alone
    would also take "1_0", "+2" and non-ASCII digits.
    """
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise PartitionError(f"cannot parse partition {text!r}")
    return partition(map(int, tokens))


def _cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(args.cache, verify=args.verify_cache)


# ---------------------------------------------------------------- rendering

def _row_payload(row) -> dict:
    out = {
        "weight": list(row.weight),
        "weight_str": weight_str(row.weight),
        "partition": list(row.partition),
        "n_lambda": row.n_lambda,
        "flagged": row.flagged,
        "cross_checked": row.cross_checked,
    }
    if row.reference_value is not None:
        out["reference"] = row.reference_value
    if row.error is not None:
        out["error"] = str(row.error)
    return out


def render_table(table: GeneratorTable, fmt: str, case_id: str | None = None) -> str:
    if fmt == "json":
        import json  # only this format needs it; keep it off every start-up

        payload = {
            "n": table.spec.n,
            "d": table.spec.d,
            "gcd": table.gcd,
            "rows": [_row_payload(r) for r in table.rows],
        }
        if case_id is not None:
            payload["case"] = case_id
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv  # only this format needs it; keep it off every start-up

        buf = []
        for r in table.rows:
            buf.append(
                [
                    weight_str(r.weight),
                    "(" + ",".join(str(p) for p in r.partition) + ")",
                    "" if r.n_lambda is None else str(r.n_lambda),
                    "true" if r.flagged else "false",
                ]
            )
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["weight", "partition", "n_lambda", "flagged"])
        w.writerows(buf)
        return out.getvalue()
    # text
    header = ["weight", "partition", "n_lambda", "note"]
    body = []
    for r in table.rows:
        if r.error is not None:
            note = f"ERROR {r.error}"
        elif r.flagged:
            note = f"reference prints {r.reference_value}"
        else:
            note = ""
        body.append(
            [
                weight_str(r.weight),
                "(" + ",".join(str(p) for p in r.partition) + ")",
                "?" if r.n_lambda is None else str(r.n_lambda),
                note,
            ]
        )
    widths = [max(len(row[i]) for row in [header] + body) for i in range(4)]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append(f"gcd {table.gcd}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- commands

def _cmd_c2(args) -> int:
    lam = parse_partition(args.partition)
    method = METHOD_BY_FLAG[args.method]
    res = cached_c2(args.n, None, lam, method, args.ceiling, _cache(args))
    print(res.n_lambda)
    return 0


def _cmd_dim(args) -> int:
    print(schur_dimension(args.n, parse_partition(args.partition)))
    return 0


def _cmd_generators(args) -> int:
    spec = GroupSpec(args.n, args.d)
    table = generator_table(spec, ceiling=args.ceiling, cache=_cache(args))
    sys.stdout.write(render_table(table, args.format))
    table.raise_on_error()
    return 0


def _cmd_image_index(args) -> int:
    spec = GroupSpec(args.n, args.d)
    print(image_index(spec, ceiling=args.ceiling, cache=_cache(args)))
    return 0


def _cmd_verify(args) -> int:
    report = verify_case(args.case, ceiling=args.ceiling)
    match = "matches" if report.matches_expected else "DIFFERS FROM"
    print(
        f"{report.case_id}: image index {report.computed_index}, "
        f"H^4 generator multiplier {report.h4_multiplier}, "
        f"verdict {report.verdict}"
    )
    print(f"  {match} stored expectation {report.expected_gcd} ({report.source})")
    return 0 if report.matches_expected else 3


def _cmd_table(args) -> int:
    table = table_against_reference(
        args.case, ceiling=args.ceiling, cache=_cache(args)
    )
    sys.stdout.write(render_table(table, args.format, case_id=args.case))
    table.raise_on_error()
    return 0


def _cmd_conjecture(args) -> int:
    rep = explore_conjecture(args.ell)
    yn = {True: "yes", False: "no"}
    print(f"ell: {rep.ell}")
    print(f"group: SL({rep.spec.n})/mu_{rep.spec.d}")
    print(f"generators: {rep.basis_size}")
    print(f"image index: {rep.image_index}")
    print(f"index equals ell: {yn[rep.matches_ell]}")
    print(f"all rows divisible by ell: {yn[rep.all_rows_divisible]}")
    print(f"duality invariant: {yn[rep.duality_invariant]}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    xdg = Path(os.environ.get("XDG_CACHE_HOME") or "~/.cache").expanduser()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ceiling", type=int, metavar="N",
                        default=DEFAULT_ENUMERATION_CEILING,
                        help="dimension bound for the cross-check and for "
                        "enumeration")
    common.add_argument("--cache", type=Path, metavar="PATH",
                        default=xdg / "schern" / "results.jsonl",
                        help="cache file location")
    common.add_argument("--no-cache", action="store_true",
                        help="skip the cache entirely")
    common.add_argument("--verify-cache", action="store_true",
                        help="recompute cached rows; disagreement exits 3")

    p = argparse.ArgumentParser(
        prog="schern",
        description="Second Chern classes of SL(n) representations and "
        "generating sets for representation rings of the quotients "
        "SL(n)/mu_d.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("c2", parents=[common],
                        help="index n_lambda of one representation")
    sp.add_argument("n", type=int)
    sp.add_argument("partition", help="comma separated, e.g. 2,2,2")
    sp.add_argument("--method", choices=["enum", "weyl", "both"],
                    help="default: closed form, cross-checked when small")
    sp.set_defaults(func=_cmd_c2)

    sp = sub.add_parser("dim", parents=[common], help="dimension of gamma_n^lambda")
    sp.add_argument("n", type=int)
    sp.add_argument("partition")
    sp.set_defaults(func=_cmd_dim)

    sp = sub.add_parser("generators", parents=[common],
                        help="minimal generating set of R[SL(n)/mu_d] with indices")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.set_defaults(func=_cmd_generators)

    sp = sub.add_parser("image-index", parents=[common],
                        help="gcd of n_lambda over the generating set")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.set_defaults(func=_cmd_image_index)

    sp = sub.add_parser("verify", parents=[common],
                        help="compare a computed index with its stored expectation")
    sp.add_argument("case", choices=sorted(CASES))
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("table", parents=[common],
                        help="recompute a bundled reference table and diff it")
    sp.add_argument("--case", required=True, choices=sorted(REFERENCE_TABLES))
    sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("conjecture", parents=[common],
                        help="image index of SL(ell^2)/mu_ell for an odd prime ell")
    sp.add_argument("ell", type=int)
    sp.set_defaults(func=_cmd_conjecture)

    return p


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CrossCheckError, StaleCacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PartitionError, EnumerationCeilingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
