package harness

// Shard4kBench* pin the sharded-engine benchmark point that the
// benchjson shard_4k_msgs_per_sec canary measures: a uniform-
// destination open-loop workload on a 4096-node torus, offered far
// past saturation (64 MB/s per node) so in-flight frames, credit
// stalls, and retries dominate the event mix — the regime where the
// machine-wide serial heap is deepest and per-shard heaps plus
// shard-local state pay. Destinations are uniform (ZipfS = 0) rather
// than the default hotspot skew: a hotspot caps deliveries at one
// node's links and leaves idle polling as the dominant event, which
// measures the poll loop, not the fabric at scale. Shards = 64 puts
// one 64-node torus row per shard, so X-dimension hops stay
// shard-local and only Y-dimension hops cross.
const (
	Shard4kBenchNodes       = 4096
	Shard4kBenchShards      = 64
	Shard4kBenchWarm        = 2_000  // cycles before the measurement window
	Shard4kBenchMeasure     = 10_000 // measurement window length
	Shard4kBenchPerNodeMBps = 64.0
)
