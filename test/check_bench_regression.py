#!/usr/bin/env python3
"""Guard benchmark results against regressions.

Compares a fresh BENCH_CORE.json (e.g. the CI smoke run) against a
committed baseline. Rows are matched by their identifying key fields;
only rows present in both files are compared, so a quick-mode run is
checked against whatever subset of the full grid it shares with the
baseline.

Two kinds of checks:

* throughput metrics (higher is better): fail when the fresh value
  drops more than ``--tolerance`` (default 25%) below the baseline;
  improvements always pass.
* deterministic metrics (seeded sim results -- sim time, message,
  byte, resident-object and fetch counts): fail on any difference. A
  seeded simulation repeats them exactly, so a change to one is a
  re-baseline: regenerate the committed file and say why.

Additionally, when the baseline carries an EXP-OBS-SHARD section, its
observe=off acceptance gate (``gate_pass``) must hold: the committed
full-scale measurement is the record that observability off-mode
overhead stayed under 2%.

Usage:
    check_bench_regression.py BASELINE FRESH [--tolerance 0.25]

Exits 0 when every matched row is within bands, 1 with a per-row diff
otherwise.
"""

import json
import sys

# section -> (rows key, identity fields, metrics where higher is better)
THROUGHPUT = {
    "EXP-DELIVERY": (
        "drain",
        ("p", "depth"),
        ("fast_updates_per_s",),
    ),
}

# section -> (rows key, identity fields, seeded-deterministic metrics)
DETERMINISTIC = {
    "EXP-SHARD": (
        "runs",
        ("procs", "objects", "writes", "rounds", "mode"),
        (
            "sim_time",
            "messages",
            "update_messages",
            "bytes",
            "resident_max",
            "fetches",
        ),
    ),
}


def rows_by_key(doc, section, rows_key, id_fields):
    table = {}
    for row in doc.get(section, {}).get(rows_key, []):
        try:
            key = tuple(row[f] for f in id_fields)
        except KeyError:
            continue
        table[key] = row
    return table


def check(baseline, fresh, tolerance):
    failures = []
    compared = 0

    def match(section, spec, check_row):
        nonlocal compared
        rows_key, id_fields, metrics = spec
        base_rows = rows_by_key(baseline, section, rows_key, id_fields)
        fresh_rows = rows_by_key(fresh, section, rows_key, id_fields)
        for key in sorted(set(base_rows) & set(fresh_rows), key=str):
            for metric in metrics:
                b = base_rows[key].get(metric)
                f = fresh_rows[key].get(metric)
                if not isinstance(b, (int, float)) or not isinstance(f, (int, float)):
                    continue
                compared += 1
                check_row(section, key, metric, b, f)

    def throughput(section, key, metric, b, f):
        if b > 0 and f < b * (1.0 - tolerance):
            failures.append(
                f"{section}{list(key)}.{metric}: {f:.1f} is more than "
                f"{tolerance:.0%} below baseline {b:.1f}"
            )

    def deterministic(section, key, metric, b, f):
        if f != b:
            failures.append(
                f"{section}{list(key)}.{metric}: {f} differs from baseline {b}"
            )

    for section, spec in THROUGHPUT.items():
        match(section, spec, throughput)
    for section, spec in DETERMINISTIC.items():
        match(section, spec, deterministic)

    for run in baseline.get("EXP-OBS-SHARD", {}).get("runs", []):
        if "gate_pass" in run:
            compared += 1
            if not run["gate_pass"]:
                failures.append(
                    "EXP-OBS-SHARD baseline: observe=off overhead gate failed "
                    f"(off_overhead={run.get('off_overhead')})"
                )

    return compared, failures


def main(argv):
    tolerance = 0.25
    if "--tolerance" in argv:
        i = argv.index("--tolerance")
        tolerance = float(argv[i + 1])
        del argv[i : i + 2]
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as fh:
        baseline = json.load(fh)
    with open(argv[1]) as fh:
        fresh = json.load(fh)
    compared, failures = check(baseline, fresh, tolerance)
    if failures:
        print(f"bench regression guard: {len(failures)} failure(s)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"bench regression guard: {compared} metric(s) match the baseline "
        f"(throughput within {tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
