package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/telemetry"
)

// A worker is one fresh process that prints a workerResult as JSON.
//
// Modes:
//
//	setup  time -setups set-ups (config, fresh store, suite) and exit.
//	fill   time set-up plus the default sched campaign into -store: the
//	       set-up of the warm workload.
//	run    open -store and run the campaign with one simulation worker
//	       (Config.Parallelism = 1); the store is fresh for the cold
//	       workload and filled for the warm one.
//
// With -cpuprofile the campaign runs as traced phases under a CPU profile.
// With -fill as well, the traced run first fills its fresh -store as the
// warm workload's set-up does, as one more phase.
type workerArgs struct {
	mode     string
	campaign string // "table1" or "sched"
	seed     int64
	store    string
	setups   int
	jobs     int // sched stream length; 0 = the campaign default
	profile  string
	fill     bool // traced run: fill the store first, as phase "fill"
}

type phaseResult struct {
	Name      string             `json:"name"`
	Seconds   float64            `json:"seconds"`
	Simulated int64              `json:"simulated"`
	Counters  map[string]float64 `json:"counters,omitempty"`
}

type memDelta struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`
}

type workerResult struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	SetupS     []float64          `json:"setup_s"`
	CampaignS  float64            `json:"campaign_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Digest     string             `json:"digest"`
	FillDigest string             `json:"fill_digest,omitempty"`
	FillEngine engine.Stats       `json:"fill_engine"`
	Engine     engine.Stats       `json:"engine"`
	Sim        core.SimUsage      `json:"sim"`
	Counters   map[string]float64 `json:"counters"`
	Mem        memDelta           `json:"mem"`
	Phases     []phaseResult      `json:"phases,omitempty"`
}

// newSuite is the timed set-up: configuration, a fresh (or, for the warm
// workload, filled) store and the suite on top of it.
func newSuite(seed int64, store string) (*experiments.Suite, error) {
	cfg, err := experiments.NewConfig(experiments.PresetCI, seed)
	if err != nil {
		return nil, err
	}
	cfg.Parallelism = 1
	eng, err := engine.Open(store, false)
	if err != nil {
		return nil, err
	}
	if !eng.Persistent() {
		return nil, fmt.Errorf("store %s could not be opened", store)
	}
	return experiments.NewSuiteWithEngine(cfg, eng), nil
}

// campaign runs one campaign through the suite and renders its CSV, as
// swprobe -exp <campaign> -csv does.
func campaign(s *experiments.Suite, name string, jobs int) ([]byte, error) {
	switch name {
	case "table1":
		res, err := s.Table1()
		if err != nil {
			return nil, err
		}
		return render(report.Table1Table(res))
	case "sched":
		res, err := s.Sched(experiments.SchedSpec{Jobs: jobs})
		if err != nil {
			return nil, err
		}
		return render(report.SchedTable(res))
	default:
		return nil, fmt.Errorf("unknown campaign %q", name)
	}
}

func render(tbl report.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// phase is one blocking step of a traced campaign: a Suite phase method
// called by the benchmark in dependency order.
type phase struct {
	name string
	run  func(s *experiments.Suite) error
}

// tracedPhases lists, per campaign, the Suite phase methods whose RunSpecs
// the campaign resolves, ending with "assemble", which builds and renders
// the campaign's table.  The engine caches each result, so the phases do
// the same work as the untraced campaign.  The sched campaign resolves its
// coefficients (slot baselines, placed pairs, signatures and profiles on
// each fabric) inside Suite.Sched, so its simulations land in "schedule";
// calling Calibration, AppSignatures or Profiles would simulate RunSpecs the
// campaign never requests.
func tracedPhases(name string, jobs int, csv *[]byte) []phase {
	switch name {
	case "table1":
		return []phase{
			{"baselines", func(s *experiments.Suite) error { _, err := s.Baselines(); return err }},
			{"pairs", func(s *experiments.Suite) error { _, err := s.PairSlowdowns(); return err }},
			{"assemble", func(s *experiments.Suite) (err error) {
				*csv, err = campaign(s, name, jobs)
				return err
			}},
		}
	default:
		var res experiments.SchedResult
		return []phase{
			{"schedule", func(s *experiments.Suite) (err error) {
				res, err = s.Sched(experiments.SchedSpec{Jobs: jobs})
				return err
			}},
			{"assemble", func(*experiments.Suite) (err error) {
				*csv, err = render(report.SchedTable(res))
				return err
			}},
		}
	}
}

// counterTotals sums every counter family of the process-wide registry over
// its labeled series.
func counterTotals() map[string]float64 {
	out := map[string]float64{}
	for _, f := range telemetry.Default().Gather() {
		if f.Type != telemetry.TypeCounter {
			continue
		}
		for _, s := range f.Samples {
			out[f.Name] += s.Value
		}
	}
	return out
}

// counterDeltas returns the nonzero differences after − before.
func counterDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timeSetups times a.setups set-ups, each onto its own fresh, empty store.
// The store directories are created before the timer starts and named
// relative to the store root: directory creation times the host's file
// system, which drifts severalfold over minutes, and the path lookup would
// grow with the depth of the checkout.
func timeSetups(a workerArgs) (workerResult, error) {
	res := workerResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if err := os.MkdirAll(a.store, 0o755); err != nil {
		return res, err
	}
	if err := os.Chdir(a.store); err != nil {
		return res, err
	}
	dirs := make([]string, a.setups)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("s%d", i)
		if err := os.MkdirAll(filepath.Join(dirs[i], core.SpecVersion()), 0o755); err != nil {
			return res, err
		}
	}
	for _, dir := range dirs {
		t0 := time.Now()
		if _, err := newSuite(a.seed, dir); err != nil {
			return res, err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	return res, nil
}

func runWorker(a workerArgs) (workerResult, error) {
	res := workerResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	switch a.mode {
	case "setup":
		return timeSetups(a)
	case "fill":
		t0 := time.Now()
		if err := fill(a, &res); err != nil {
			return res, err
		}
		res.SetupS = []float64{time.Since(t0).Seconds()}
		return res, nil
	case "run":
	default:
		return res, fmt.Errorf("unknown worker mode %q", a.mode)
	}
	suite, err := newSuite(a.seed, a.store)
	if err != nil {
		return res, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	counters0 := counterTotals()
	var out []byte
	cpu0 := cpuSeconds()
	t0 := time.Now()
	if a.profile == "" {
		if out, err = campaign(suite, a.campaign, a.jobs); err != nil {
			return res, err
		}
	} else {
		phases, err := runTraced(suite, a, &out, &res)
		if err != nil {
			return res, err
		}
		res.Phases = phases
	}
	res.CampaignS = time.Since(t0).Seconds()
	for _, p := range res.Phases {
		if p.Name == "fill" {
			res.CampaignS -= p.Seconds // set-up, not campaign
		}
	}
	res.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.PeakRSSMB = peakRSSMB()
	res.Digest = digest(out)
	res.Engine = suite.Engine().Stats()
	res.Sim = experiments.SimUsage()
	res.Counters = counterDeltas(counters0, counterTotals())
	res.Mem = memDelta{
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		GCCycles:   ms1.NumGC - ms0.NumGC,
		GCPauseNS:  ms1.PauseTotalNs - ms0.PauseTotalNs,
	}
	return res, nil
}

// fill runs the warm workload's set-up campaign, the default sched campaign,
// into a.store through a suite of its own, and records its output digest
// and engine stats in res.
func fill(a workerArgs, res *workerResult) error {
	s, err := newSuite(a.seed, a.store)
	if err != nil {
		return err
	}
	out, err := campaign(s, "sched", 0)
	if err != nil {
		return err
	}
	res.FillDigest = digest(out)
	res.FillEngine = s.Engine().Stats()
	return nil
}

// runTraced runs the campaign as phases under a CPU profile, recording a
// span and the registry counter deltas around each phase.  With a.fill the
// first phase fills the store through a suite of its own; suite's engine
// finds the filled blobs on disk, as a timed warm sample does.
func runTraced(suite *experiments.Suite, a workerArgs, csv *[]byte, res *workerResult) ([]phaseResult, error) {
	f, err := os.Create(a.profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	var phases []phaseResult
	if a.fill {
		c0 := counterTotals()
		t0 := time.Now()
		if err := fill(a, res); err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("phase fill: %w", err)
		}
		phases = append(phases, phaseResult{
			Name:      "fill",
			Seconds:   time.Since(t0).Seconds(),
			Simulated: res.FillEngine.Simulated,
			Counters:  counterDeltas(c0, counterTotals()),
		})
	}
	for _, p := range tracedPhases(a.campaign, a.jobs, csv) {
		sim0 := suite.Engine().Stats().Simulated
		c0 := counterTotals()
		t0 := time.Now()
		if err := p.run(suite); err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("phase %s: %w", p.name, err)
		}
		phases = append(phases, phaseResult{
			Name:      p.name,
			Seconds:   time.Since(t0).Seconds(),
			Simulated: suite.Engine().Stats().Simulated - sim0,
			Counters:  counterDeltas(c0, counterTotals()),
		})
	}
	pprof.StopCPUProfile()
	return phases, f.Close()
}

// workerMain runs one worker and prints its result as the last line.
func workerMain(a workerArgs) int {
	res, err := runWorker(a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	return 0
}
