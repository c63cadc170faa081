"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` are what a user of the command line sees; they are measured
with tracing off.  ``LAYERS`` come from the traced run, one entry per layer
metric with the end-to-end metric and workload it should move, so that a
later change can say in advance which numbers it expects to shift.

A cycle is one pass over a workload's inputs: one job, or twelve on
pvar-walk, whose jobs differ in cost.
"""

SETUPS = 3  # fresh worker processes per untraced run, each also timed

WORKLOADS = {
    "step4": "spike-train paths of up to 43,498 samples but at most 12 distinct "
    "values; about 90% of the time is in variation.pvar, so it shows the "
    "distinct-value DP",
    "example3": "sparse linf space where every sample is distinct and the "
    "embedding is 1,501 columns wide; the only sparse workload, it shows "
    "embedding memory and bypasses distinct-value grouping",
    "bound-check": "one seeded 250-sample 1-D random walk; about 99% of the "
    "time is in operators.estimate_holder, so it shows the Holder scan while "
    "the DP share stays near 2%",
    "pvar-walk": "seeded 6,000-sample dense random walks rotating dimension "
    "1-3, four norms and p in {1,2,3}; every value distinct, and the only "
    "workload where JSON loading does measurable work",
}

# name -> (unit, note)
END_TO_END = {
    "setup_s": ("s", "interpreter start, import, input generation and one "
                "tiny-size warm-up job; median over %d fresh processes" % SETUPS),
    "job_s.min": ("s", "wall time per job on the run's fastest cycle, from all "
                  "%d processes" % SETUPS),
    "job_s.p50": ("s", "median wall time per job: the median over cycles, "
                  "from all %d processes, of a cycle's mean job time" % SETUPS),
    "samples_per_s": ("1/s", "input-path samples of all timed jobs over their "
                      "summed wall time"),
    "peak_rss_mb": ("MB", "peak RSS of a fresh worker process by the end of its "
                    "timed jobs; median over the %d processes" % SETUPS),
    "failed_ratio": ("ratio", "failed jobs over attempted jobs; a job fails on "
                     "a non-zero exit, an exception or a failed output check"),
}

# Reported in BENCHMARK.json and on the last output line.  failed_ratio is 0
# on a healthy run, so it has no relative bound; the last line carries it as
# the `attempted` and `failed` counts instead.  The shared host has slow
# phases, at up to half speed for 20 s and more, that only ever add time.
# Median and mean times move with them: across ten seeds job_s.p50 spread
# 0.41 of its median on bound-check, past the largest bound allowed.  The
# fastest cycle moves only when a whole run falls in one, so job_s.min is
# the bounded time and job_s.p50 and samples_per_s are reported beside it.
BOUNDED = ("setup_s", "job_s.min", "peak_rss_mb")

_DP = "job_s.min on step4, pvar-walk and example3; not bound-check"
_HOLDER = "job_s.min on bound-check; nothing elsewhere"
_COMPOSE = "job_s.min on step4"
_EMBED = "peak_rss_mb and job_s.min on example3"
_IO = "job_s.min on pvar-walk"
_LAB = "job_s.min on step4 and example3, a small share of each"

# name -> (unit, what it should move).  Times are self times: a span minus
# its child spans.  Every value is a total per cycle; times are the median
# over the traced cycles.
LAYERS = {
    "variation.pvar_s": ("s", _DP),
    "variation.pvar_calls": ("count", _DP),
    "variation.samples": ("count", _DP),
    "variation.distinct_values": ("count", _DP + "; k by np.unique outside the span"),
    "variation.pairs_computed": ("count", _DP + "; sum of n(n-1)/2, as computed"),
    "operators.holder_s": ("s", _HOLDER),
    "operators.holder_pairs": ("count", _HOLDER + "; HolderEstimate.pair_count"),
    "operators.compose_s": ("s", _COMPOSE),
    "operators.compose_samples": ("count", _COMPOSE),
    "operators.covering_s": ("s", "job_s.min on example3"),
    "spaces.embed_s": ("s", _EMBED + "; first coordinate_matrix() call, before pvar"),
    "spaces.embed_bytes": ("bytes", _EMBED + "; rows x cols x 8"),
    "spaces.embed_cols": ("count", _EMBED),
    "paths.from_json_s": ("s", _IO),
    "paths.samples": ("count", _IO),
    "cli.load_s": ("s", _IO),
    "cli.write_s": ("s", _IO),
    "cli.bytes_in": ("bytes", _IO),
    "cli.bytes_out": ("bytes", _IO),
    "lab.build_s": ("s", _LAB + "; gen_step4_path and gen_example3"),
    "lab.violators_s": ("s", _LAB + "; find_holder_violators"),
    "lab.blocks_capped": ("count", _LAB),
    "lab.self_s": ("s", _LAB + "; the job minus its children: bound sums and reports"),
    "trace.overhead_s": ("s", "traced wall time minus untraced wall time per cycle"),
}

# Counts that depend only on the inputs; two runs with one seed must agree.
EXACT_COUNTS = (
    "paths.samples",
    "variation.distinct_values",
    "spaces.embed_bytes",
    "operators.holder_pairs",
    "lab.blocks_capped",
)
