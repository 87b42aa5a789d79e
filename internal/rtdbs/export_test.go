package rtdbs

// Internal helpers of the monitor tests, for the external test package
// (which can read the benchmark's scenario files: the scenario package
// imports this one).
var (
	CheckBothWays = checkBothWays
	FaultyConfig  = faultyConfig
	ShardedConfig = shardedConfig
)
