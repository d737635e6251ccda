#!/usr/bin/env python3
"""CI perf gate: compare fresh bench runs against the checked-in
baseline and fail on a meaningful regression.

Usage:
    scripts/check_perf_regression.py --current /tmp/t9.json \
        [--current-cluster /tmp/cluster.json] \
        [--current-pipeline /tmp/pipeline.json] \
        [--current-chaos /tmp/chaos.json] \
        [--current-placement /tmp/placement.json] \
        [--current-serving /tmp/serving.json] \
        [--baseline BENCH_freepart.json] [--tolerance 0.20]

Every gate is one row of GATES: (section, metric, kind, bound). A
section is checked when its bench output is given (--current is
required, the others optional). The kinds:

  min / max   absolute floor / ceiling: fail if current < / > bound
  eq          fail unless current == bound (identity, zero lost acks)
  below       fail unless current < the section's `bound` metric
  drop / rise fail on a > tolerance relative decrease / increase
              from the baseline value; bound REQUIRED means the
              baseline must carry the metric, IF_BASELINED skips the
              row when it does not (newer gates, older baselines)

The whole run is deterministic simulated time, so any drift is a real
code change, not machine noise; the tolerance only absorbs intentional
small cost-model tweaks.
"""

import argparse
import json
import sys

REQUIRED = "required"
IF_BASELINED = "if-baselined"

# (baseline section, --current* option) in command-line order.
SECTIONS = [("table9_overhead", "current"),
            ("shard_cluster", "current_cluster"),
            ("pipeline_parallel", "current_pipeline"),
            ("chaos_cluster", "current_chaos"),
            ("placement", "current_placement"),
            ("serve_autoscale", "current_serving")]

GATES = [
    # bench_table9_overhead: FreePart's simulated overhead over the
    # no-isolation baseline (e.g. 5.2% -> 6.3% is a >20% rise).
    ("table9_overhead", "freepart_overhead_pct", "rise", REQUIRED),
    # bench_shard_cluster: 4-shard uniform-key scaling, and no acked
    # call lost in the kill-one-shard drill.
    ("shard_cluster", "throughput_uniform_4shards", "drop", REQUIRED),
    ("shard_cluster", "speedup_uniform_4shards", "drop", REQUIRED),
    ("shard_cluster", "kill_lost_acks", "eq", 0),
    # bench_pipeline_parallel: async-vs-sync speedup over the
    # pipeline-shaped Table 6 apps with flip speculation on (DESIGN.md
    # §15); replays byte-identical and deterministic; the speculation-
    # off numbers must keep reproducing the pre-speculation behaviour.
    ("pipeline_parallel", "pipeline_speedup", "min", 1.2),
    ("pipeline_parallel", "pipeline_speedup", "drop", REQUIRED),
    ("pipeline_parallel", "byte_identical", "eq", 1),
    ("pipeline_parallel", "pipeline_overlap_fraction", "min", 0.50),
    ("pipeline_parallel", "rollback_rate", "max", 0.20),
    ("pipeline_parallel", "deterministic_replay", "eq", 1),
    ("pipeline_parallel", "adv_byte_identical", "eq", 1),
    ("pipeline_parallel", "nospec_pipeline_speedup", "drop",
     IF_BASELINED),
    ("pipeline_parallel", "nospec_mean_overlap_fraction", "drop",
     IF_BASELINED),
    # bench_chaos_cluster: the 23-app open-loop replay under the seeded
    # 10% chaos plan.
    ("chaos_cluster", "availability_at_10pct", "min", 0.95),
    ("chaos_cluster", "shed_rate_at_10pct", "max", 0.10),
    ("chaos_cluster", "lost_acks_at_0pct", "eq", 0),
    ("chaos_cluster", "lost_acks_at_10pct", "eq", 0),
    ("chaos_cluster", "deterministic_replay", "eq", 1),
    # bench_placement: load-aware placement vs consistent hashing
    # under the Zipf workload.
    ("placement", "imbalance_zipf_opt_4shards", "max", 1.2),
    ("placement", "cross_rate_zipf_opt_4shards", "below",
     "cross_rate_zipf_hash_4shards"),
    ("placement", "cross_rate_zipf_opt_8shards", "below",
     "cross_rate_zipf_hash_8shards"),
    ("placement", "budget_respected", "eq", 1),
    ("placement", "deterministic_replay", "eq", 1),
    ("placement", "cross_rate_zipf_opt_4shards", "rise", IF_BASELINED),
    ("placement", "throughput_zipf_opt_4shards", "drop", IF_BASELINED),
    # bench_serve_autoscale: the multi-tenant Zipf ramp through the
    # SLO-driven autoscaler (three runs: autoscaled, static max, cold).
    ("serve_autoscale", "slo_attainment_autoscaled", "min", 0.95),
    ("serve_autoscale", "lost_acks_autoscaled", "eq", 0),
    ("serve_autoscale", "lost_acks_static", "eq", 0),
    ("serve_autoscale", "lost_acks_coldstart", "eq", 0),
    ("serve_autoscale", "shard_seconds_autoscaled", "below",
     "shard_seconds_static"),
    ("serve_autoscale", "warm_checkout_mean_us", "below",
     "cold_checkout_mean_us"),
    ("serve_autoscale", "scale_up_events", "min", 1),
    ("serve_autoscale", "scale_down_events", "min", 1),
    ("serve_autoscale", "deterministic_replay", "eq", 1),
    ("serve_autoscale", "p99_us_autoscaled", "rise", IF_BASELINED),
    ("serve_autoscale", "shard_seconds_saved_pct", "drop", IF_BASELINED),
]

EPILOG = """\
the gate set (all deterministic simulated time):
  table9 overhead   freepart_overhead_pct must not rise > tolerance
  shard cluster     4-shard throughput + speedup must not drop >
                    tolerance; zero acked calls lost in the kill drill
  pipeline          speedup >= 1.2x absolute, overlap >= 0.5,
                    rollback rate <= 20%, no > tolerance drop (spec
                    on or off), replays byte-identical + deterministic
  chaos             availability >= 95%, shed rate <= 10%, zero lost
                    acks, deterministic replay
  placement         optimized imbalance <= 1.2 absolute, optimized
                    cross-shard rate strictly below hash at 4 and 8
                    shards, per-epoch moved bytes within budget,
                    deterministic replay
  serving           SLO attainment >= 95%, zero lost acks, autoscaled
                    shard-seconds strictly below static max, warm
                    checkout strictly below cold, >= 1 scale-up and
                    >= 1 scale-down, deterministic replay

after an intentional perf change, refresh the checked-in baseline
with the same bench outputs instead of hand-editing it:

  scripts/check_perf_regression.py --current table9.json \\
      --current-cluster cluster.json --current-pipeline pipeline.json \\
      --current-chaos chaos.json --current-placement placement.json \\
      --current-serving serving.json --write-baseline

the partition-boundary lint gate (freepart_lint + LINT_baseline.json)
runs as its own CI job; see DESIGN.md §12.
"""


def check(gate, current, baseline, tolerance):
    """Evaluate one gate row; returns False on a failure."""
    section, metric, kind, bound = gate
    value = current[metric]
    name = f"{section}.{metric}"
    if kind in ("drop", "rise"):
        if metric not in baseline and bound == IF_BASELINED:
            return True
        base = baseline[metric]
        sign = -1.0 if kind == "drop" else 1.0
        limit = base * (1.0 + sign * tolerance)
        print(f"{name}: baseline {base:.2f}, current {value:.2f}, "
              f"{'floor' if kind == 'drop' else 'limit'} {limit:.2f}")
        failed = value < limit if kind == "drop" else value > limit
        reason = "regressed beyond tolerance"
    elif kind == "below":
        other = current[bound]
        print(f"{name}: current {value:.4f}, must be below "
              f"{bound} {other:.4f}")
        failed = not value < other
        reason = f"not strictly below {bound}"
    else:
        print(f"{name}: current {value}, {kind} {bound}")
        failed = {"min": value < bound, "max": value > bound,
                  "eq": value != bound}[kind]
        reason = {"min": "below its floor", "max": "above its ceiling",
                  "eq": "differs from the required value"}[kind]
    if failed:
        print(f"FAIL: {name} {reason}", file=sys.stderr)
    return not failed


def write_baseline(args):
    """Refresh the --baseline file's sections from the --current*
    bench outputs, leaving sections without a fresh input alone."""
    with open(args.baseline) as handle:
        baseline_doc = json.load(handle)

    for section, option in SECTIONS:
        path = getattr(args, option)
        if not path:
            continue
        with open(path) as handle:
            baseline_doc[section] = json.load(handle)["metrics"]
        print(f"updated {section} from {path}")

    with open(args.baseline, "w") as handle:
        json.dump(baseline_doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.baseline}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="CI perf gate over the checked-in bench baseline",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", required=True,
                        help="JSON written by bench_table9_overhead --json")
    parser.add_argument("--current-cluster",
                        help="JSON written by bench_shard_cluster --json")
    parser.add_argument("--current-pipeline",
                        help="JSON written by bench_pipeline_parallel "
                             "--json")
    parser.add_argument("--current-chaos",
                        help="JSON written by bench_chaos_cluster "
                             "--json")
    parser.add_argument("--current-placement",
                        help="JSON written by bench_placement --json")
    parser.add_argument("--current-serving",
                        help="JSON written by bench_serve_autoscale "
                             "--json")
    parser.add_argument("--baseline", default="BENCH_freepart.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative drift (0.20 = 20%%)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="instead of gating, update the --baseline "
                             "file's sections from the provided "
                             "--current* files (documented refresh "
                             "after an intentional perf change)")
    args = parser.parse_args()

    if args.write_baseline:
        return write_baseline(args)

    with open(args.baseline) as handle:
        baseline_doc = json.load(handle)

    ok = True
    for section, option in SECTIONS:
        path = getattr(args, option)
        if not path:
            continue
        with open(path) as handle:
            current = json.load(handle)["metrics"]
        baseline = baseline_doc.get(section, {})
        for gate in GATES:
            if gate[0] == section:
                ok &= check(gate, current, baseline, args.tolerance)

    if not ok:
        return 1
    print("ok: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
