#!/usr/bin/env python3
"""Recompute the bundled generator tables and expectations in one pass.

Prints each reference table with disagreements marked, the full minimal
generating sets (which for SL(9)/mu_3 is strictly larger than the bundled
reference), and the verdict for every stored case.
"""
import argparse
import sys
import time

from schern import (
    CASES,
    REFERENCE_TABLES,
    generator_table,
    table_against_reference,
    verify_case,
    weight_str,
)


def show(table, title):
    print(f"== {title} ==")
    for row in table.rows:
        mark = ""
        if row.flagged:
            mark = f"   <- reference prints {row.reference_value}"
        lam = ",".join(str(p) for p in row.partition)
        print(f"  {weight_str(row.weight):<10} ({lam:<20}) {row.n_lambda}{mark}")
    print(f"  gcd = {table.gcd}")
    print()


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    t0 = time.perf_counter()
    for case_id in sorted(REFERENCE_TABLES):
        ref = REFERENCE_TABLES[case_id]
        diff = table_against_reference(case_id)
        show(diff, f"{case_id}: bundled rows recomputed ({len(diff.rows)})")
        full = generator_table(ref.spec)
        extra = len(full.rows) - len(diff.rows)
        show(
            full,
            f"{case_id}: full minimal generating set "
            f"({len(full.rows)} rows, {extra} beyond the bundled table)",
        )

    print("== stored case expectations ==")
    ok = True
    for case_id in sorted(CASES):
        rep = verify_case(case_id)
        status = "ok" if rep.matches_expected else "MISMATCH"
        ok &= rep.matches_expected
        print(
            f"  {case_id:<10} index {rep.computed_index:>2}  "
            f"verdict {rep.verdict:<14} [{status}]"
        )
    print(f"\nelapsed {time.perf_counter() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
