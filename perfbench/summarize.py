"""Median and quartiles of every metric in a results file, per workload.

    python3 perfbench/summarize.py [.perfbench_runs/results.jsonl]

Runs are grouped by the digests of src/ and perfbench/, trace mode and
workload.  The spread is (q3 - q1) / median with quartiles from
statistics.quantiles(values, n=4).  Prints a JSON list, one entry per
group, with the environment record of the group's first run.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(lines):
    groups = defaultdict(list)
    for line in lines:
        rec = json.loads(line)
        env = rec["env"]
        key = (env["src_sha256"][:12], env["bench_sha256"][:12], rec["trace"], env["workload"])
        groups[key].append(rec)
    out = []
    for (src, bench, trace, workload), recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        out.append({
            "src_sha256": src, "bench_sha256": bench, "trace": trace, "workload": workload,
            "runs": len(recs), "seeds": [r["env"]["seed"] for r in recs],
            "correct": all(r["result"]["correct"] for r in recs),
            "metrics": metrics, "env": recs[0]["env"]})
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1] if len(sys.argv) > 1 else ".perfbench_runs/results.jsonl")
    print(json.dumps(summarize(path.read_text().splitlines()), indent=1))
