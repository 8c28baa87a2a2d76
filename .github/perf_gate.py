#!/usr/bin/env python3
"""Compare perfbench runs of a change against runs of its base commit.

    python3 .github/perf_gate.py BENCHMARK.json BASE.out HEAD.out [BASE.out HEAD.out ...]

Each .out file is the standard output of one `perfbench/run.py` run; its
last non-blank line is the run's JSON object (`correct`, `attempted`,
`failed`, `metrics`).  Metric names, directions and bounds come from the
`end_to_end` list of BENCHMARK.json.  For each (base, head) pair:

- the head run fails the gate when it is not `correct` or has `failed` > 0;
- a metric fails when the head is more than 2x worse than the base;
- a metric past its `bound` (1 + bound times worse) only warns.

Exit status: 0 when nothing failed, 1 when something did, 2 when an input
cannot be read.
"""

import json
import sys

HARD_FACTOR = 2.0


def last_json(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    if not lines:
        raise ValueError("%s: empty output" % path)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError("%s: last line is not JSON (%s)" % (path, e))


def worse_by(better, base, head):
    """How many times worse head is than base (1.0 = same, < 1 = better)."""
    num, den = (head, base) if better == "lower" else (base, head)
    if den > 0:
        return num / den
    return 1.0 if num <= 0 else float("inf")


def gate_pair(spec, base_path, head_path):
    base, head = last_json(base_path), last_json(head_path)
    failures = []
    if head.get("correct") is not True:
        failures.append("%s: run is not correct" % head_path)
    if head.get("failed", 0) > 0:
        failures.append("%s: %d of %d requests failed"
                        % (head_path, head["failed"], head.get("attempted", 0)))
    for m in spec["end_to_end"]:
        name = m["name"]
        try:
            b = base["metrics"][name]["value"]
            h = head["metrics"][name]["value"]
        except KeyError:
            failures.append("%s: metric %s missing" % (head_path, name))
            continue
        w = worse_by(m["better"], b, h)
        verdict = "ok"
        if w > HARD_FACTOR:
            verdict = "FAIL"
            failures.append("%s: %s is %.2fx worse than base (limit %.1fx)"
                            % (head_path, name, w, HARD_FACTOR))
        elif w > 1 + m["bound"]:
            verdict = "warn"
            print("::warning::%s: %s is %.2fx worse than base (bound %.2f)"
                  % (head_path, name, w, m["bound"]))
        print("%-28s %-12s base %12.4g  head %12.4g  worse %5.2fx  %s"
              % (head_path, name, b, h, w, verdict))
    return failures


def main(argv):
    if len(argv) < 4 or len(argv) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            spec = json.load(f)
        failures = []
        for i in range(2, len(argv), 2):
            failures += gate_pair(spec, argv[i], argv[i + 1])
    except (OSError, ValueError) as e:
        print("perf_gate: %s" % e, file=sys.stderr)
        return 2
    for f in failures:
        print("::error::%s" % f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
