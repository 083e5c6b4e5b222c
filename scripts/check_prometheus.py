#!/usr/bin/env python3
"""Validates Prometheus text exposition output (format 0.0.4).

Checks the output of `obs::RenderPrometheus()` — served by `tabulard
--metrics-port` at GET /metrics — for structural correctness:

  * every sample line belongs to a metric introduced by a `# TYPE` line,
    and metric names match [a-zA-Z_:][a-zA-Z0-9_:]*
  * TYPE is one of counter, gauge, histogram; counter/gauge metrics have
    exactly one sample; sample values are finite numbers (counters
    non-negative)
  * histogram series are complete and coherent: cumulative `_bucket{le=..}`
    samples with strictly increasing `le` bounds and non-decreasing
    cumulative counts, a final `le="+Inf"` bucket, and `_sum`/`_count`
    samples with `_count` equal to the +Inf bucket

Usage:
  check_prometheus.py --file metrics.txt [--expect tabular_server_requests]
  check_prometheus.py --url http://127.0.0.1:9464/metrics
  some_command | check_prometheus.py     # reads stdin when neither given

Exit status 0 when every check passes, 1 otherwise.
"""

import argparse
import math
import re
import sys
import urllib.request

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$")


def fail(msg):
    print(f"check_prometheus: FAIL: {msg}", file=sys.stderr)
    return 1


def parse_le(label_text):
    """The value of the `le` label, or None."""
    if not label_text:
        return None
    m = re.search(r'le="([^"]*)"', label_text)
    return m.group(1) if m else None


def check_text(text):
    types = {}          # metric name -> counter|gauge|histogram
    samples = {}        # metric name -> [(labels, value)]
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                return fail(f"line {lineno}: malformed TYPE line: {line!r}")
            _, _, name, kind = parts
            if not NAME_RE.match(name):
                return fail(f"line {lineno}: bad metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram"):
                return fail(f"line {lineno}: unknown metric type {kind!r}")
            if name in types:
                return fail(f"line {lineno}: duplicate TYPE for {name!r}")
            types[name] = kind
            continue
        if line.startswith("#"):
            return fail(f"line {lineno}: unknown comment form: {line!r}")
        m = SAMPLE_RE.match(line)
        if not m:
            return fail(f"line {lineno}: malformed sample line: {line!r}")
        name = m.group("name")
        try:
            value = float(m.group("value"))
        except ValueError:
            return fail(f"line {lineno}: non-numeric value in: {line!r}")
        if not math.isfinite(value):
            return fail(f"line {lineno}: non-finite value in: {line!r}")
        # A histogram's series are name_bucket/name_sum/name_count.
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
                break
        if base not in types:
            return fail(f"line {lineno}: sample for undeclared metric "
                        f"{name!r} (no preceding # TYPE)")
        samples.setdefault(base, []).append(
            (name, parse_le(m.group("labels")), value))

    if not types:
        return fail("no metrics found (empty exposition?)")

    for name, kind in types.items():
        series = samples.get(name, [])
        if not series:
            return fail(f"{name}: TYPE declared but no samples")
        if kind in ("counter", "gauge"):
            if len(series) != 1:
                return fail(f"{name}: expected 1 sample, got {len(series)}")
            sample_name, le, value = series[0]
            if sample_name != name or le is not None:
                return fail(f"{name}: unexpected sample {sample_name!r}")
            if kind == "counter" and value < 0:
                return fail(f"{name}: negative counter value {value}")
            continue
        # Histogram: buckets must be cumulative/monotone, +Inf == _count.
        buckets = [(le, v) for (n, le, v) in series if n == name + "_bucket"]
        sums = [v for (n, le, v) in series if n == name + "_sum"]
        counts = [v for (n, le, v) in series if n == name + "_count"]
        if not buckets:
            return fail(f"{name}: histogram without _bucket samples")
        if len(sums) != 1 or len(counts) != 1:
            return fail(f"{name}: histogram needs exactly one _sum and one "
                        f"_count sample")
        if buckets[-1][0] != "+Inf":
            return fail(f"{name}: last bucket le={buckets[-1][0]!r}, "
                        f"expected +Inf")
        prev_bound = -math.inf
        prev_cum = -math.inf
        for le, cum in buckets:
            bound = math.inf if le == "+Inf" else float(le)
            if bound <= prev_bound:
                return fail(f"{name}: bucket bounds not strictly "
                            f"increasing at le={le}")
            if cum < prev_cum:
                return fail(f"{name}: cumulative bucket counts decrease "
                            f"at le={le} ({cum} < {prev_cum})")
            prev_bound, prev_cum = bound, cum
        if buckets[-1][1] != counts[0]:
            return fail(f"{name}: +Inf bucket {buckets[-1][1]} != _count "
                        f"{counts[0]}")
        if counts[0] > 0 and sums[0] < 0:
            return fail(f"{name}: negative _sum {sums[0]}")

    return 0, types


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file", help="exposition text file to validate")
    parser.add_argument("--url", help="scrape this URL and validate the body")
    parser.add_argument("--expect", action="append", default=[],
                        help="metric name that must be present (repeatable)")
    args = parser.parse_args()

    if args.url:
        try:
            with urllib.request.urlopen(args.url, timeout=10) as resp:
                text = resp.read().decode("utf-8")
        except OSError as e:
            return fail(f"cannot scrape {args.url}: {e}")
    elif args.file:
        try:
            with open(args.file, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            return fail(f"cannot read {args.file}: {e}")
    else:
        text = sys.stdin.read()

    result = check_text(text)
    if isinstance(result, int):
        return result
    _, types = result

    for want in args.expect:
        if want not in types:
            return fail(f"expected metric {want!r} not present "
                        f"(have {len(types)} metrics)")

    print(f"check_prometheus: OK: {len(types)} metrics "
          f"({sum(1 for k in types.values() if k == 'histogram')} "
          f"histograms), {len(args.expect)} expected names present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
