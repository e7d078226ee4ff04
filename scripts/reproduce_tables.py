#!/usr/bin/env python3
"""Rebuild every embedded reference table and print a one-line verdict each.

Exit status is the worst per-table exit code, so a nonzero status means some
unflagged cell moved outside its print tolerance.  For the cells of one table,
run `bondtaylor table --id ID --format csv`.
"""

from bondtaylor.tables import TABLE_IDS, build_table


def main() -> int:
    worst = 0
    for table_id in TABLE_IDS:
        report = build_table(table_id)
        n_pass, n_flag, n_fail = report.counts()
        verdict = "ok" if report.passed else "MISMATCH"
        print(f"{table_id:16s} {verdict:8s} "
              f"({n_pass} pass, {n_flag} flagged, {n_fail} fail)")
        if not report.passed:
            worst = 3
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
