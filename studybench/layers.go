package main

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same metrics; the package test keeps the two in step.
type metricSpec struct{ name, unit string }

var endToEndSpec = []metricSpec{
	{"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayerSpec = []metricSpec{
	{"experiments.plan_ms", "ms"}, {"experiments.run_s", "s"}, {"experiments.render_ms", "ms"},
	{"experiments.retries", "count"}, {"experiments.failed_share", "ratio"},
	{"sched.utilization", "ratio"}, {"sched.cell_p50_ms", "ms"}, {"sched.cell_p95_ms", "ms"},
	{"sched.cell_max_ms", "ms"},
	{"core.reference_s", "s"}, {"core.smarts_s", "s"}, {"core.simpoint_s", "s"},
	{"core.truncated_s", "s"}, {"core.reduced_s", "s"},
	{"cpu.detailed_ns_per_instr", "ns/instr"}, {"cpu.replay_detailed_ns_per_instr", "ns/instr"},
	{"cpu.detailed_ns_per_cycle", "ns/cycle"}, {"cpu.sim_cpi", "cycles/instr"},
	{"cpu.ff_ns_per_instr", "ns/instr"}, {"cpu.warm_ns_per_instr", "ns/instr"},
	{"cpu.profile_ns_per_instr", "ns/instr"},
	{"mem.access_ns", "ns"}, {"mem.warm_ns_per_req", "ns/req"}, {"mem.l1d_miss_rate", "ratio"},
	{"mem.l2_miss_rate", "ratio"}, {"mem.dtlb_miss_rate", "ratio"},
	{"branch.ns_per_branch", "ns/branch"}, {"branch.accuracy", "ratio"},
	{"bench.build_ms", "ms"}, {"bench.build_mb", "MB"},
	{"sim.new_runner_ms", "ms"}, {"sim.new_runner_mb", "MB"},
	{"trace.hit_ratio", "ratio"}, {"trace.misses", "count"}, {"trace.evictions", "count"},
	{"trace.waits", "count"}, {"trace.recorded_mb", "MB"},
	{"ckpt.hit_ratio", "ratio"}, {"ckpt.misses", "count"}, {"ckpt.evictions", "count"},
	{"ckpt.waits", "count"}, {"ckpt.resident_mb", "MB"},
	{"simpoint.build_plan_ms", "ms"}, {"characterize.profile_ms", "ms"},
	{"runtime.alloc_gb", "GB"}, {"runtime.gc_cpu_share", "ratio"},
	{"traced.overhead_pct", "%"}, {"traced.residual_share", "ratio"},
}

// layerMetrics reports the traced samples' medians, the probes' rates,
// and the two checks on the traced run itself: its overhead against the
// untraced samples, and the share of summed cell wall time that the
// probe rates times the ledger's per-mode instruction counts leave
// unexplained. failed_share is over every sample of the run.
func layerMetrics(samples []measured, probes map[string]float64, res result) map[string]metricValue {
	vals := map[string][]float64{}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	var untracedWall []float64
	for _, m := range samples {
		if !m.Traced {
			untracedWall = append(untracedWall, m.WallS)
			continue
		}
		l := m.Sample.Layers
		add("traced.wall_s", m.WallS)
		add("experiments.plan_ms", l.PlanMS)
		add("experiments.run_s", l.RunS)
		add("experiments.render_ms", l.RenderMS)
		add("experiments.retries", float64(l.Retries))
		add("sched.utilization", l.Utilization)
		add("sched.cell_p50_ms", l.CellP50MS)
		add("sched.cell_p95_ms", l.CellP95MS)
		add("sched.cell_max_ms", l.CellMaxMS)
		for _, f := range []string{"reference", "smarts", "simpoint", "truncated", "reduced"} {
			add("core."+f+"_s", l.FamilyS[f])
		}
		for prefix, s := range map[string]storeStats{"trace": l.Trace, "ckpt": l.Ckpt} {
			ratio := 0.0
			if s.Hits+s.Misses > 0 {
				ratio = float64(s.Hits) / float64(s.Hits+s.Misses)
			}
			add(prefix+".hit_ratio", ratio)
			add(prefix+".misses", float64(s.Misses))
			add(prefix+".evictions", float64(s.Evictions))
			add(prefix+".waits", float64(s.Waits))
		}
		add("trace.recorded_mb", l.Trace.MB)
		add("ckpt.resident_mb", l.Ckpt.MB)
		add("runtime.alloc_gb", l.AllocGB)
		add("runtime.gc_cpu_share", l.GCCPUShare)
		predicted := l.Instr["detailed"]*probes["cpu.detailed_ns_per_instr"] +
			l.Instr["replay"]*probes["cpu.replay_detailed_ns_per_instr"] +
			l.Instr["warm"]*probes["cpu.warm_ns_per_instr"] +
			l.Instr["profile"]*probes["cpu.profile_ns_per_instr"] +
			l.Instr["ff"]*probes["cpu.ff_ns_per_instr"]
		if l.CellWallS > 0 {
			add("traced.residual_share", 1-predicted/1e9/l.CellWallS)
		}
	}
	out := map[string]metricValue{}
	for _, s := range perLayerSpec {
		v, ok := probes[s.name]
		if !ok {
			v = median(vals[s.name])
		}
		out[s.name] = metricValue{v, s.unit}
	}
	out["experiments.failed_share"] = metricValue{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if u := median(untracedWall); u > 0 {
		out["traced.overhead_pct"] = metricValue{(median(vals["traced.wall_s"]) - u) / u * 100, "%"}
	}
	return out
}
