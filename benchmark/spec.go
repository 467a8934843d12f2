package main

// Workload names. Later issues refer to them; do not rename.
const (
	wlRoundtrip  = "followme-roundtrip"
	wlStaticCold = "followme-static-cold"
	wlQuorum     = "session-quorum"
	wlRestore    = "restore-read"
)

var workloadNames = []string{wlRoundtrip, wlStaticCold, wlQuorum, wlRestore}

// metricSpec declares one metric. BENCHMARK.json at the repository root
// repeats the three fields; a test holds the two lists equal. README.md
// says which end-to-end metric each per-layer metric is expected to move.
type metricSpec struct {
	name, unit, better string
}

// End-to-end metrics, reported by every workload with tracing off.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p95_ms", unit: "ms", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
}

// Per-layer metrics, reported by every workload's traced run. The prefix
// is the module measured.
var perLayer = []metricSpec{
	{"transport.echo_small_p50_us", "us", "lower"},
	{"transport.echo_small_c2_ops_per_s", "1/s", "higher"},
	{"transport.echo_small_allocs_per_op", "count", "lower"},
	{"transport.echo_small_alloc_bytes_per_op", "B", "lower"},
	{"transport.send_bulk_p50_ms", "ms", "lower"},

	{"ctl.info_rtt_p50_us", "us", "lower"},
	{"ctl.migrate_overhead_p50_ms", "ms", "lower"},
	{"ctl.watch_lag_p50_us", "us", "lower"},
	{"ctl.watch_lag_p95_us", "us", "lower"},
	{"ctl.watch_delivered_per_s", "1/s", "higher"},
	{"ctl.watch_lost_total", "count", "lower"},

	{"migrate.suspend_p50_ms", "ms", "lower"},
	{"migrate.migrate_p50_ms", "ms", "lower"},
	{"migrate.resume_p50_ms", "ms", "lower"},
	{"migrate.capture_p50_ms", "ms", "lower"},
	{"migrate.transfer_p50_ms", "ms", "lower"},
	{"migrate.restore_p50_ms", "ms", "lower"},
	{"migrate.rebind_p50_ms", "ms", "lower"},
	{"migrate.bytes_moved_per_op", "B", "lower"},
	{"migrate.warm_ratio", "ratio", "higher"},

	{"registry.lookup_rtt_p50_us", "us", "lower"},
	{"registry.register_rtt_p50_us", "us", "lower"},
	{"registry.plan_rebinding_rtt_p50_us", "us", "lower"},
	{"media.open_remote_p50_us", "us", "lower"},

	{"state.encode_wrap_2mb_p50_ms", "ms", "lower"},
	{"state.decode_wrap_2mb_p50_ms", "ms", "lower"},
	{"state.encode_delta_p50_us", "us", "lower"},
	{"state.apply_delta_p50_us", "us", "lower"},
	{"state.capture_self_p50_us", "us", "lower"},
	{"state.reassemble_p50_us", "us", "lower"},
	{"state.delta_frame_bytes", "B", "lower"},
	{"state.full_frame_bytes", "B", "lower"},
	{"state.full_frame_ratio", "ratio", "lower"},

	{"cluster.put_quorum_p50_us", "us", "lower"},
	{"cluster.put_one_p50_us", "us", "lower"},
	{"cluster.put_async_p50_us", "us", "lower"},
	{"cluster.fed_ack_p50_us", "us", "lower"},
	{"cluster.fed_ack_wait_mean_us", "us", "lower"},
	{"cluster.fed_pushes_per_op", "count", "lower"},
	{"cluster.fed_nacks_per_op", "count", "lower"},
	{"cluster.fed_delta_rejects_total", "count", "lower"},
	{"cluster.fetch_latest_p50_us", "us", "lower"},
	{"cluster.fetch_delta_only_ratio", "ratio", "higher"},

	{"store.put_small_p50_us", "us", "lower"},
	{"store.put_blob_p50_us", "us", "lower"},
	{"store.get_small_p50_us", "us", "lower"},
	{"store.get_blob_p50_us", "us", "lower"},
	{"store.put_wait_mean_us", "us", "lower"},
	{"store.fsyncs_per_op", "count", "lower"},
	{"store.wal_bytes_per_op", "B", "lower"},
	{"store.commit_batch_frames_mean", "count", "higher"},
	{"store.compactions_total", "count", "lower"},
	{"store.disk_bytes_per_live_byte", "ratio", "lower"},

	{"ctxkernel.publishes_per_op", "count", "lower"},

	{"proc.agentd_cpu_ms_per_op", "ms", "lower"},
	{"proc.center_cpu_ms_per_op", "ms", "lower"},
	{"proc.bench_cpu_ms_per_op", "ms", "lower"},
	{"proc.agentd_write_syscalls_per_op", "count", "lower"},
	{"proc.center_write_syscalls_per_op", "count", "lower"},
	{"proc.agentd_wchar_per_op", "B", "lower"},
	{"proc.center_wchar_per_op", "B", "lower"},
	{"proc.agentd_rss_peak_mb", "MB", "lower"},
	{"proc.center_rss_peak_mb", "MB", "lower"},

	{"e2e.op_top_pctl", "%", "higher"},
	{"e2e.op_top_ms", "ms", "lower"},
	{"e2e.failed_ops_ratio", "ratio", "lower"},
	{"e2e.bg_writer_late_p95_ms", "ms", "lower"},
	{"budget.explained_frac", "ratio", "higher"},
	{"budget.unexplained_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metrics is a run's named results. set keeps the first value a name is
// given: the workload's own window reports first, and the probe passes
// that follow only fill in the layers the workload does not touch.
type metrics map[string]float64

func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// missing lists the declared names m lacks.
func (m metrics) missing(spec []metricSpec) []string {
	var out []string
	for _, s := range spec {
		if _, ok := m[s.name]; !ok {
			out = append(out, s.name)
		}
	}
	return out
}
