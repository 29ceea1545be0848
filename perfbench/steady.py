#!/usr/bin/env python3
"""Steadiness check for perfbench: run sets of seeded runs and compare them.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads audit --sets 1
    python3 perfbench/steady.py --runs 3 --sets 1 --trace      # adds traced runs: overhead, layers

Run from the root of a checkout. Each set runs every chosen workload
--runs times with seeds 1..runs through perfbench/run.py. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json. With two sets it
also prints how much worse the second set's median is than the first's
and whether op_pages and provision's checkpoint bytes repeat exactly for
each seed. It checks that every failed share is identical. It flags a
spread or a drift above the bound and exits 1 if there is one (setup_s
is exempt from the spread check: only its drift between sets is gated).
The ungated figures each run prints on its "report" line (the op's
latency percentiles and throughput, provision's dial latency and
recover time) are summarized the same way, without bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1000)
    if r.returncode != 0:
        raise SystemExit(f"steady.py: {workload} seed {seed} failed (exit {r.returncode})")
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["report"] = {}
    for line in lines:
        if line.startswith("report "):
            res["report"] = json.loads(line[len("report "):]).get("figures", {})
    return res


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(sets, bench, workloads):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    bad = []
    for w in workloads:
        print(f"\n== {w}")
        fail_shares = [{round(r["failed"] / r["attempted"], 12) for r in s[w]} for s in sets]
        print(f"   failed share per set: {[sorted(x) for x in fail_shares]}")
        if len(set().union(*fail_shares)) != 1:
            bad.append(f"{w}: failed share differs between runs")
        if len(sets) == 2:
            # Page counts and checkpoint bytes are exact for a seed.
            exact = [(a["metrics"]["op_pages"]["value"], a["report"].get("ckpt_kb_per_write.p50"))
                     == (b["metrics"]["op_pages"]["value"], b["report"].get("ckpt_kb_per_write.p50"))
                     for a, b in zip(sets[0][w], sets[1][w])]
            print(f"   op_pages and ckpt_kb_per_write repeat exactly per seed: {all(exact)}")
            if not all(exact):
                bad.append(f"{w}: op_pages or ckpt_kb_per_write differ between two runs of one seed")
        for name, m in bounds.items():
            cols = []
            meds = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s[w]]
                q1, q2, q3 = quartiles(vals)
                sp = spread(vals)
                meds.append(q2)
                flag = ""
                if name != "setup_s" and sp > m["bound"]:
                    flag = " SPREAD>BOUND"
                    bad.append(f"{w} {name}: spread {sp:.3f} > bound {m['bound']}")
                elif name != "setup_s" and sp > m["bound"] / 3:
                    flag = " (spread > bound/3)"
                cols.append(f"med={q2:.5g} q1={q1:.5g} q3={q3:.5g} spread={sp:.3f}{flag}")
            line = f"   {name:14s} bound={m['bound']:<5} " + " | ".join(cols)
            if len(meds) == 2 and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                line += f" | 2nd worse by {worse:+.3f}"
                if worse > m["bound"]:
                    bad.append(f"{w} {name}: second median worse by {worse:.3f} > bound {m['bound']}")
            print(line)
        keys = sorted(set().union(*[r["report"].keys() for s in sets for r in s[w]]))
        for k in keys:
            cols = []
            for s in sets:
                vals = [r["report"][k] for r in s[w] if k in r["report"]]
                q1, q2, q3 = quartiles(vals)
                cols.append(f"med={q2:.5g} q1={q1:.5g} q3={q3:.5g} spread={spread(vals):.3f}")
            print(f"   {k:24s} (report) " + " | ".join(cols))
    return bad


def overhead(sets, traced, workloads):
    print("\n== tracing overhead (traced.op_p50_ms vs op_p50_ms, medians over seeds)")
    for w in workloads:
        base = statistics.median(r["report"]["op_p50_ms"] for r in sets[0][w])
        tr = statistics.median(r["metrics"]["traced.op_p50_ms"]["value"] for r in traced[w])
        print(f"   {w:10s} untraced={base:.5g} ms traced={tr:.5g} ms overhead={(tr - base) / base:+.3f}")
    print("\n== per-layer medians over the traced runs (layers reading 0 omitted)")
    for w in workloads:
        names = sorted(traced[w][0]["metrics"])
        meds = {k: statistics.median(r["metrics"][k]["value"] for r in traced[w]) for k in names}
        print(f"   {w}: " + ", ".join(f"{k} {v:.4g}" for k, v in meds.items() if v))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", action="store_true", help="also run one traced set and report the overhead")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    for k in range(args.sets):
        s = {w: [] for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                r = run_once(w, seed, seconds, 0)
                s[w].append(r)
                print(f"set {k + 1} {w} seed {seed}: setup_s={r['metrics']['setup_s']['value']:.4g}"
                      f" op_p50_ms={r['report']['op_p50_ms']:.4g}", file=sys.stderr)
        sets.append(s)
    traced = None
    if args.trace:
        traced = {w: [run_once(w, seed, seconds, 1) for seed in range(1, args.runs + 1)] for w in workloads}
    bad = summarize(sets, bench, workloads)
    if traced:
        overhead(sets, traced, workloads)
    print()
    for b in bad:
        print("FLAG:", b)
    print("steady" if not bad else "NOT steady")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
