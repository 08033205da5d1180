#!/usr/bin/env python3
"""Merge archived bench JSON files into a per-commit trajectory table.

Each input is a bench_common.hpp JSON document:

    { "bench": "tape_engine", "env": {...}, "records": [ {...}, ... ] }

CI's perf-smoke job uploads ``BENCH_<name>.json`` per commit; collect a few
of those (one directory per commit, e.g. ``runs/<sha>/BENCH_*.json``) and
this script pivots them into one table — rows are (instance, mode/policy)
metric keys, columns are commits — so throughput regressions read straight
off the diff.  Standard library only.

Usage:
    plot_trajectory.py [--output FILE] [--format {tsv,markdown}] JSON...

Column labels default to the file's parent directory name (the per-commit
directory); files living in the working directory fall back to the file
stem.
"""

import argparse
import json
import os
import re
import sys

# bench name -> (key fields joined into the row label, metric fields; each
# metric present in a record becomes one trajectory row)
KNOWN_BENCHES = {
    "tape_engine": (("instance", "mode"),
                    ("iters_per_sec", "harvest_rows_per_sec")),
    "round_parallel": (("instance", "policy", "workers"),
                       ("sol_per_sec", "harvest_rows_per_worker_sec")),
    "service_throughput": (("instance", "mode"),
                           ("svc_uniques_per_sec", "req_per_sec",
                            "multiplier", "overhead_pct")),
}
# bench name -> metrics that describe the instance, not the mode: every
# record of an instance repeats them, so they get one row per instance.
INSTANCE_METRICS = {
    "tape_engine": ("transform_ms", "circuit_ops", "randomize_ms",
                    "reseed_ms", "engine_ctor_ms"),
}
# Fallback metric candidates for benches this script does not know yet.
FALLBACK_METRICS = ("iters_per_sec", "sol_per_sec", "throughput", "elapsed_ms")
# Histogram-percentile fields (p50_ms, slice_p99_ms, ...) are always picked
# up in addition to the declared metrics: telemetry histograms surface as
# pNN summaries in bench records, and every one of them is a trajectory.
PERCENTILE_RE = re.compile(r"(?:^|_)p\d{1,3}(?:_|$)")


def label_for(path):
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    stem = os.path.splitext(os.path.basename(path))[0]
    cwd = os.path.basename(os.getcwd())
    return stem if parent in ("", ".", cwd) else parent


def rows_from(doc):
    bench = doc.get("bench", "?")
    key_fields, metrics = KNOWN_BENCHES.get(bench, (None, None))
    for record in doc.get("records", []):
        for metric in INSTANCE_METRICS.get(bench, ()):
            value = record.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield f"{bench}:{record.get('instance', '?')} [{metric}]", float(value)
        if key_fields is None:
            metric = next((m for m in FALLBACK_METRICS if m in record), None)
            if metric is None:
                continue
            fields = [str(v) for k, v in record.items()
                      if isinstance(v, str)][:2]
            record_metrics = (metric,)
        else:
            fields = [str(record.get(k, "?")) for k in key_fields]
            record_metrics = metrics
        percentiles = tuple(
            k for k in record
            if k not in record_metrics and PERCENTILE_RE.search(k))
        for metric in record_metrics + percentiles:
            value = record.get(metric)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield f"{bench}:{'/'.join(fields)} [{metric}]", float(value)


def render(table, labels, fmt):
    keys = sorted(table)
    widths = [max([len("metric")] + [len(k) for k in keys])]
    widths += [max(len(lbl), 10) for lbl in labels]

    def fmt_value(key, lbl):
        value = table[key].get(lbl)
        return "-" if value is None else f"{value:.1f}"

    lines = []
    if fmt == "markdown":
        lines.append("| " + " | ".join(["metric"] + labels) + " |")
        lines.append("|" + "|".join("---" for _ in range(len(labels) + 1)) + "|")
        for key in keys:
            cells = [key] + [fmt_value(key, lbl) for lbl in labels]
            lines.append("| " + " | ".join(cells) + " |")
    else:
        lines.append("\t".join(["metric"] + labels))
        for key in keys:
            lines.append(
                "\t".join([key] + [fmt_value(key, lbl) for lbl in labels]))
    return "\n".join(lines) + "\n"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="JSON")
    parser.add_argument("--output", help="write the table here (default stdout)")
    parser.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    args = parser.parse_args(argv)

    table = {}  # key -> {label -> value}
    labels = []
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"plot_trajectory: skipping {path}: {error}", file=sys.stderr)
            continue
        label = label_for(path)
        if label not in labels:
            labels.append(label)
        for key, value in rows_from(doc):
            table.setdefault(key, {})[label] = value

    if not table:
        print("plot_trajectory: no usable records", file=sys.stderr)
        return 1
    out = render(table, labels, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(out)
        print(f"wrote {args.output} ({len(table)} metrics x {len(labels)} runs)")
    else:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
