package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// layerModules are the internal/<module> packages a traced run attributes
// CPU to: every repository package the benchmark links.
var layerModules = []string{
	"sim", "netsim", "mpisim", "workload", "inject", "probe", "core", "engine",
	"sched", "cluster", "model", "predict", "queuing", "stats", "telemetry",
	"experiments", "report",
}

// schedModules are the scheduler-side modules sched.us_per_job charges.
var schedModules = []string{"sched", "cluster", "model", "predict", "queuing"}

// phaseNames are the traced phases some workload runs; see tracedPhases
// and runTraced.
var phaseNames = []string{"fill", "baselines", "pairs", "schedule", "assemble"}

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports, in order.
var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, m := range layerModules {
		out = append(out, layerMetric{m + ".cpu_s", "s"})
	}
	out = append(out,
		layerMetric{"sim.events_fired", "count"},
		layerMetric{"sim.events_scheduled", "count"},
		layerMetric{"sim.pool_reuses", "count"},
		layerMetric{"netsim.events_elided", "count"},
		layerMetric{"netsim.elided_share", "ratio"},
		layerMetric{"netsim.trains_walked", "count"},
		layerMetric{"netsim.pkts_per_train", "count"},
		layerMetric{"netsim.ledger_clamps", "count"},
		layerMetric{"mpisim.fast_resumes", "count"},
		layerMetric{"mpisim.rank_switches", "count"},
		layerMetric{"core.runs", "count"},
		layerMetric{"core.sim_wall_s", "s"},
		layerMetric{"core.ns_per_event", "ns"},
		layerMetric{"engine.lookups", "count"},
		layerMetric{"engine.memory_hits", "count"},
		layerMetric{"engine.disk_hits", "count"},
		layerMetric{"engine.simulated", "count"},
		layerMetric{"engine.stored", "count"},
		layerMetric{"engine.load_errors", "count"},
		layerMetric{"engine.store_errors", "count"},
		layerMetric{"engine.hit_ratio", "ratio"},
		layerMetric{"sched.jobs", "count"},
		layerMetric{"sched.oracle_lookups", "count"},
		layerMetric{"sched.oracle_misses", "count"},
		layerMetric{"sched.us_per_job", "us"},
		layerMetric{"telemetry.trace_events", "count"},
		layerMetric{"runtime.gc_cpu_s", "s"},
		layerMetric{"runtime.other_cpu_s", "s"},
		layerMetric{"runtime.alloc_mb", "MB"},
		layerMetric{"runtime.mallocs", "count"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"runtime.gc_pause_ms", "ms"},
	)
	for _, p := range phaseNames {
		out = append(out,
			layerMetric{"experiments." + p + "_s", "s"},
			layerMetric{"experiments." + p + "_simulated", "count"})
	}
	return append(out,
		layerMetric{"bench.profile_cpu_s", "s"},
		layerMetric{"bench.trace_overhead", "ratio"})
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced runs the workload once more as traced phases under a CPU profile,
// in a fresh worker that is not one of the timed samples, and derives the
// per-layer metrics.  For the warm workload the traced worker also fills
// its store first, so the profile covers the set-up campaign too.
// untraced is a timed sample of the same campaign, filled the set-up fill
// of a warm run (zero for a cold one), and untracedS the median timed
// campaign_s, for the overhead ratio.
func (b *bench) traced(untraced, filled workerResult, untracedS float64) (map[string]float64, []phaseResult, error) {
	profile := filepath.Join(b.work, "cpu.prof")
	store, err := b.freshDir("traced")
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-worker", "run", "-store", store, "-jobs", strconv.Itoa(b.w.jobs), "-cpuprofile", profile}
	if b.w.warm {
		args = append(args, "-fill")
	}
	r, err := b.spawn(args...)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(b.ctx, "go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w", err)
	}
	folded, err := FoldTraces(&out)
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	attributed := folded.GC + folded.Other
	for _, mod := range layerModules {
		m[mod+".cpu_s"] = folded.Modules[mod]
		attributed += folded.Modules[mod]
	}
	for mod := range folded.Modules {
		if _, ok := m[mod+".cpu_s"]; !ok {
			b.fail("profile attributes CPU to unlisted module %s", mod)
		}
	}
	if math.Abs(attributed-folded.Total) > 1e-6 {
		b.fail("module CPU adds up to %g s, profile total %g s", attributed, folded.Total)
	}

	s, e := r.Sim, r.Engine
	fired, elided := float64(s.EventsFired), float64(s.EventsElided)
	m["sim.events_fired"] = fired
	m["sim.events_scheduled"] = float64(s.EventsScheduled)
	m["sim.pool_reuses"] = float64(s.PoolReuses)
	m["netsim.events_elided"] = elided
	m["netsim.elided_share"] = ratio(elided, fired+elided)
	m["netsim.trains_walked"] = float64(s.TrainsWalked)
	m["netsim.pkts_per_train"] = ratio(float64(s.TrainPackets), float64(s.TrainsWalked))
	m["netsim.ledger_clamps"] = float64(s.LedgerClamps)
	m["mpisim.fast_resumes"] = float64(s.ProcFastResumes)
	m["mpisim.rank_switches"] = float64(s.ProcSwitches)
	m["core.runs"] = float64(s.Runs)
	m["core.sim_wall_s"] = float64(s.WallNS) / 1e9
	m["core.ns_per_event"] = ratio(float64(s.WallNS), fired+elided)
	lookups := float64(e.Lookups())
	m["engine.lookups"] = lookups
	m["engine.memory_hits"] = float64(e.MemoryHits)
	m["engine.disk_hits"] = float64(e.DiskHits)
	m["engine.simulated"] = float64(e.Simulated)
	m["engine.stored"] = float64(e.Stored)
	m["engine.load_errors"] = float64(e.LoadErrors)
	m["engine.store_errors"] = float64(e.StoreErrors)
	m["engine.hit_ratio"] = ratio(float64(e.MemoryHits+e.DiskHits+e.Deduped), lookups)
	jobs := r.Counters["swprobe_sched_jobs_total"]
	m["sched.jobs"] = jobs
	m["sched.oracle_lookups"] = r.Counters["swprobe_sched_oracle_lookups_total"]
	m["sched.oracle_misses"] = r.Counters["swprobe_sched_oracle_misses_total"]
	var schedCPU float64
	for _, mod := range schedModules {
		schedCPU += folded.Modules[mod]
	}
	m["sched.us_per_job"] = ratio(schedCPU*1e6, jobs)
	m["telemetry.trace_events"] = r.Counters["swprobe_trace_events_total"]
	m["runtime.gc_cpu_s"] = folded.GC
	m["runtime.other_cpu_s"] = folded.Other
	m["runtime.alloc_mb"] = float64(r.Mem.AllocBytes) / (1 << 20)
	m["runtime.mallocs"] = float64(r.Mem.Mallocs)
	m["runtime.gc_cycles"] = float64(r.Mem.GCCycles)
	m["runtime.gc_pause_ms"] = float64(r.Mem.GCPauseNS) / 1e6

	var simulated int64
	for _, name := range phaseNames {
		m["experiments."+name+"_s"] = 0
		m["experiments."+name+"_simulated"] = 0
	}
	for _, p := range r.Phases {
		m["experiments."+p.Name+"_s"] = p.Seconds
		m["experiments."+p.Name+"_simulated"] = float64(p.Simulated)
		simulated += p.Simulated
	}
	if want := untraced.Engine.Simulated + filled.FillEngine.Simulated; simulated != want {
		b.fail("traced phases simulated %d RunSpecs, untraced set-up and campaign %d", simulated, want)
	}
	if r.Digest != untraced.Digest || r.FillDigest != filled.FillDigest {
		b.fail("traced output digests %.12s, fill %.12s differ from untraced %.12s, fill %.12s",
			r.Digest, r.FillDigest, untraced.Digest, filled.FillDigest)
	}
	m["bench.profile_cpu_s"] = folded.Total
	m["bench.trace_overhead"] = ratio(r.CampaignS, untracedS)
	return m, r.Phases, nil
}
