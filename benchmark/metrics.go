package main

// metricDef names one reported metric. exact marks a count the simulator
// makes itself: it repeats exactly for a given seed, so -compare demands
// equality on it and any difference means the model changed.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEndMetrics come from untraced runs (-trace 0). Apart from the
// set-up time the contract asks for, the gated cost is bytes allocated
// per update processed in a measurement window, the paper's unit of work:
// a trial's size varies 2x with its seed, its cost per update by a few
// percent, and the allocator's count does not depend on how busy the host
// is. The host-time rates cannot be gated on a shared VM whose speed
// drifts by a third within minutes; they are the per-layer metrics
// proc.updates_per_s and proc.cpu_us_per_update, read from the untraced
// pass of the traced run, and -compare judges them by pairs.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "alloc_bytes_per_update", unit: "B"},
}

// perLayerMetrics come from the traced run (-trace 1). A metric that a
// workload does not exercise reads 0 there.
var perLayerMetrics = []metricDef{
	{name: "topology.build_ms", unit: "ms"},
	{name: "failure.select_us", unit: "us"},
	{name: "bgp.new_ms", unit: "ms"},
	{name: "bgp.converge_initial_s", unit: "s"},
	{name: "bgp.setup_ns_per_update", unit: "ns"},
	{name: "bgp.storm_s", unit: "s"},
	{name: "bgp.storm_ns_per_update", unit: "ns"},
	{name: "bgp.window_updates", unit: "count", exact: true},
	{name: "bgp.total_updates", unit: "count", exact: true},
	{name: "bgp.window_messages", unit: "count", exact: true},
	{name: "bgp.window_discarded", unit: "count", exact: true},
	{name: "bgp.route_changes", unit: "count", exact: true},
	{name: "bgp.max_queue_len", unit: "count", exact: true},
	{name: "bgp.path_registered", unit: "count", exact: true},
	{name: "bgp.path_live", unit: "count", exact: true},
	{name: "bgp.path_compactions", unit: "count", exact: true},
	{name: "bgp.route_change_ratio", unit: "ratio", exact: true},
	{name: "bgp.discard_ratio", unit: "ratio", exact: true},
	{name: "metrics.sim_delay_s", unit: "s", exact: true},
	{name: "metrics.sim_messages", unit: "count", exact: true},
	{name: "snapshot.compute_ms", unit: "ms"},
	{name: "snapshot.rounds", unit: "count", exact: true},
	{name: "des.hold_ns_per_event_n64", unit: "ns"},
	{name: "des.hold_ns_per_event_n4096", unit: "ns"},
	{name: "des.drain_ns_per_event_dense", unit: "ns"},
	{name: "experiment.cells", unit: "count", exact: true},
	{name: "experiment.cell_ms_p50", unit: "ms"},
	{name: "experiment.cell_ms_max", unit: "ms"},
	{name: "experiment.topo_cache_hit_ns", unit: "ns"},
	{name: "churn.expand_ms", unit: "ms"},
	{name: "churn.windows", unit: "count", exact: true},
	{name: "churn.windows_per_s", unit: "1/s"},
	{name: "churn.trial_s_p50", unit: "s"},
	{name: "churn.window_us_p50", unit: "us"},
	{name: "churn.window_us_p99", unit: "us"},
	{name: "dist.jobs", unit: "count", exact: true},
	{name: "dist.lease_us_p50", unit: "us"},
	{name: "dist.lease_us_p95", unit: "us"},
	{name: "dist.complete_us_p50", unit: "us"},
	{name: "dist.complete_us_p95", unit: "us"},
	{name: "dist.handler_busy_s", unit: "s"},
	{name: "dist.wait_polls", unit: "count"},
	{name: "dist.bytes_per_job", unit: "B"},
	{name: "dist.http_errors", unit: "count"},
	{name: "dist.overhead_ms_per_job", unit: "ms"},
	{name: "proc.updates_per_s", unit: "1/s"},
	{name: "proc.cpu_us_per_update", unit: "us"},
	{name: "proc.wall_s", unit: "s"},
	{name: "proc.cpu_s", unit: "s"},
	{name: "proc.alloc_mb", unit: "MB"},
	{name: "proc.mallocs_per_update", unit: "count"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.peak_rss_mb", unit: "MB"},
	{name: "proc.trace_overhead_pct", unit: "%"},
	{name: "proc.fail_share", unit: "ratio"},
}
