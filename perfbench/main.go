// Command perfbench is the repository's end-to-end benchmark.  It times the
// paper's two uses of the simulator, the co-run slowdown matrix (Table I)
// and the contention-aware scheduler, at the ci preset with one simulation
// worker, and attributes a separate traced run's CPU to the repository's
// layers.  See README.md for the workloads and metrics.
//
//	perfbench -root DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Every timed campaign runs in a fresh worker process (this binary with
// -worker).  The last line of standard output is the result object.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	preset = "ci"
	// warmJobs is the stream length of the warm workload's timed sched
	// campaign: long enough that scheduling, not store reads, dominates
	// (about 2 s on a 2-vCPU host).
	warmJobs = 2048
	// A cold set-up takes a few microseconds, and its time varies by a
	// third from one process to the next.  Before each timed campaign a
	// cold run starts setupWorkers processes that each time setupReps
	// set-ups; setup_s is the median over all of them.
	setupWorkers = 4
	setupReps    = 200
	// warmFills is how many stores the warm workload fills in its set-up.
	// Each fill takes about 7 s, so more would eat the time the runs of all
	// workloads share.
	warmFills = 2
	// fillName names the recorded digest of the fill: the default sched
	// campaign run cold, which the warm workload's set-up times.
	fillName = "sched-fill"
	// minSamples is the fewest timed campaigns a run reports.
	minSamples = 3
	// runBudget bounds a whole run, so it exits before a 180 s limit.
	runBudget = 170 * time.Second
)

// campaignSeeds are the campaign seeds the benchmark has recorded digests
// for: the CLI's default seed and a held-out seed.  The benchmark's --seed
// picks one of them, so every run's output is checked against a recorded
// digest.
var campaignSeeds = [2]int64{1, 7}

func campaignSeed(seed int64) int64 {
	i := seed % int64(len(campaignSeeds))
	if i < 0 {
		i = -i
	}
	return campaignSeeds[i]
}

// A workload is one campaign the benchmark times.
type workload struct {
	name     string
	campaign string // "table1" or "sched"
	warm     bool   // set-up fills a store; the timed campaign reads it
	jobs     int    // sched stream length; 0 = campaign default
}

// The cold sched campaign is not a workload of its own: the warm
// workload's set-up runs it, so setup_s there times it.  See README.md.
var workloads = []workload{
	{name: "table1-cold", campaign: "table1"},
	{name: "sched-warm", campaign: "sched", warm: true, jobs: warmJobs},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is one end-to-end metric over a run's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) summary {
	q := quartiles(xs)
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: len(xs), Unit: unit}
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out
}

// runReport is the run's full record, printed on the line before the result.
type runReport struct {
	Workload   string             `json:"workload"`
	Provenance map[string]any     `json:"provenance"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	Digest     string             `json:"digest"`
	Simulated  int64              `json:"simulated_per_campaign"`
	Problems   []string           `json:"problems,omitempty"`
	Phases     []phaseResult      `json:"phases,omitempty"`
}

// bench holds one benchmark run's state.
type bench struct {
	root, self, work string
	w                workload
	benchSeed        int64 // the --seed argument
	seed             int64 // the campaign seed it selects
	ctx              context.Context
	digests          map[string]string
	problems         []string
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// spawn runs one worker process and decodes its result.
func (b *bench) spawn(args ...string) (workerResult, error) {
	var res workerResult
	cmd := exec.CommandContext(b.ctx, b.self, append([]string{
		"-campaign", b.w.campaign,
		"-campaign-seed", strconv.FormatInt(b.seed, 10),
	}, args...)...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("worker %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("worker %v: decoding result: %w", args, err)
	}
	return res, nil
}

// digestKey names a recorded digest.
func digestKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/seed%d", workload, seed)
}

// checkDigest compares a campaign's output digest with the recorded one.
func (b *bench) checkDigest(workload, got string) bool {
	want, ok := b.digests[digestKey(workload, b.seed)]
	if !ok {
		b.fail("no recorded digest for %s", digestKey(workload, b.seed))
		return false
	}
	if got != want {
		b.fail("%s output digest %.12s, recorded %.12s", workload, got, want)
		return false
	}
	return true
}

// checkSample applies the output check to one timed campaign and reports
// whether it passed.
func (b *bench) checkSample(r workerResult, first workerResult) bool {
	ok := b.checkDigest(b.w.name, r.Digest)
	e := r.Engine
	if e.LoadErrors != 0 || e.StoreErrors != 0 {
		b.fail("store errors: %d load, %d store", e.LoadErrors, e.StoreErrors)
		ok = false
	}
	if b.w.warm && (e.Simulated != 0 || e.DiskHits == 0) {
		b.fail("warm campaign simulated %d RunSpecs and read %d from disk", e.Simulated, e.DiskHits)
		ok = false
	}
	if !b.w.warm && (e.Simulated == 0 || e.Simulated != first.Engine.Simulated) {
		b.fail("cold campaign simulated %d RunSpecs, first sample %d", e.Simulated, first.Engine.Simulated)
		ok = false
	}
	return ok
}

// freshDir returns a path under the run's work directory with nothing at
// it, so a store opened there starts empty.
func (b *bench) freshDir(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// coldSetups runs the set-up workers of one cold sample and returns their
// set-up times.
func (b *bench) coldSetups() ([]float64, error) {
	var out []float64
	for i := 0; i < setupWorkers; i++ {
		dir, err := b.freshDir("setup")
		if err != nil {
			return nil, err
		}
		r, err := b.spawn("-worker", "setup", "-store", dir, "-setups", strconv.Itoa(setupReps))
		if err != nil {
			return nil, err
		}
		out = append(out, r.SetupS...)
	}
	return out, nil
}

func (b *bench) run(seconds int, trace bool) (result, runReport, error) {
	res := result{Metrics: map[string]metric{}}
	rep := runReport{
		Workload: b.w.name,
		EndToEnd: map[string]summary{},
	}
	var setup []float64
	var stores []string
	var filled workerResult

	if b.w.warm {
		for i := 0; i < warmFills; i++ {
			dir, err := b.freshDir(fmt.Sprintf("store%d", i))
			if err != nil {
				return res, rep, err
			}
			r, err := b.spawn("-worker", "fill", "-store", dir)
			if err != nil {
				return res, rep, err
			}
			b.checkDigest(fillName, r.FillDigest)
			e := r.FillEngine
			if e.LoadErrors != 0 || e.StoreErrors != 0 || e.Stored == 0 {
				b.fail("fill: %d stored, %d load errors, %d store errors",
					e.Stored, e.LoadErrors, e.StoreErrors)
			}
			filled = r
			setup = append(setup, r.SetupS...)
			stores = append(stores, dir)
		}
	}

	var samples []workerResult
	var cycles []float64 // wall time of each sample with its set-ups
	start := time.Now()
	for {
		cycleStart := time.Now()
		var store string
		if b.w.warm {
			store = stores[len(samples)%len(stores)]
		} else {
			s, err := b.coldSetups()
			if err != nil {
				return res, rep, err
			}
			setup = append(setup, s...)
			if store, err = b.freshDir("cold"); err != nil {
				return res, rep, err
			}
		}
		r, err := b.spawn("-worker", "run", "-store", store, "-jobs", strconv.Itoa(b.w.jobs))
		if err != nil {
			return res, rep, err
		}
		if !b.w.warm {
			if err := os.RemoveAll(store); err != nil {
				return res, rep, err
			}
		}
		samples = append(samples, r)
		lookups := r.Engine.Lookups()
		res.Attempted += lookups
		if !b.checkSample(r, samples[0]) {
			res.Failed += max(lookups, 1)
		}
		cycles = append(cycles, time.Since(cycleStart).Seconds())
		// Stop when the next sample would likely end more than half a
		// sample past --seconds, so runs take --seconds on average.
		half := quartiles(cycles)[1] / 2
		if len(samples) >= minSamples && time.Since(start).Seconds()+half > float64(seconds) {
			break
		}
	}

	col := func(f func(workerResult) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	rep.EndToEnd["campaign_s"] = summarize(col(func(r workerResult) float64 { return r.CampaignS }), "s")
	rep.EndToEnd["cpu_s"] = summarize(col(func(r workerResult) float64 { return r.CPUS }), "s")
	rep.EndToEnd["peak_rss_mb"] = summarize(col(func(r workerResult) float64 { return r.PeakRSSMB }), "MB")
	rep.EndToEnd["setup_s"] = summarize(setup, "s")
	rep.Digest = samples[0].Digest
	rep.Simulated = samples[0].Engine.Simulated
	rep.Provenance = provenance(b.root, b.w, b.benchSeed, samples[0].GOMAXPROCS)

	if !trace {
		for name, s := range rep.EndToEnd {
			res.Metrics[name] = metric{Value: s.Median, Unit: s.Unit}
		}
	} else {
		layers, phases, err := b.traced(samples[0], filled, rep.EndToEnd["campaign_s"].Median)
		if err != nil {
			return res, rep, err
		}
		rep.Phases = phases
		for _, l := range perLayer {
			v, ok := layers[l.name]
			if !ok {
				b.fail("traced run did not report %s", l.name)
			}
			res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		}
	}
	rep.Problems = b.problems
	res.Correct = len(b.problems) == 0
	return res, rep, nil
}

// provenance records what the run ran on.
func provenance(root string, w workload, seed int64, gomaxprocs int) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    gomaxprocs,
		"go_version":    runtime.Version(),
		"commit":        commit(root),
		"sim_workers":   1,
		"preset":        preset,
		"seed":          seed,
		"campaign_seed": campaignSeed(seed),
		"workload":      w.name,
	}
}

// commit identifies the code under test: the git HEAD when the checkout is
// a repository, otherwise a digest of every Go source and module file.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && filepath.Base(rel) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// record runs every workload once per recorded seed and writes the output
// digests the output check compares against.
func record(root, self, path string) error {
	digests := map[string]string{}
	for _, seed := range campaignSeeds {
		for _, w := range workloads {
			b := &bench{root: root, self: self, w: w, seed: seed, ctx: context.Background(),
				work: filepath.Join(root, ".bench_build", "perfbench", "record")}
			dir, err := b.freshDir("store")
			if err != nil {
				return err
			}
			if w.warm {
				f, err := b.spawn("-worker", "fill", "-store", dir)
				if err != nil {
					return err
				}
				digests[digestKey(fillName, seed)] = f.FillDigest
			}
			r, err := b.spawn("-worker", "run", "-store", dir, "-jobs", strconv.Itoa(w.jobs))
			if err != nil {
				return err
			}
			digests[digestKey(w.name, seed)] = r.Digest
			fmt.Fprintf(os.Stderr, "%s: %s\n", digestKey(w.name, seed), r.Digest)
			if err := os.RemoveAll(b.work); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		a        workerArgs
		root     = flag.String("root", ".", "root of the checkout under test")
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "benchmark seed; selects the recorded campaign seed")
		seconds  = flag.Int("seconds", 48, "how long the timed campaigns run in total")
		trace    = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
		doRecord = flag.Bool("record", false, "record the output digests of every workload and exit")
	)
	flag.StringVar(&a.mode, "worker", "", "internal: run as a worker (setup, fill or run)")
	flag.StringVar(&a.campaign, "campaign", "", "internal: worker campaign")
	flag.Int64Var(&a.seed, "campaign-seed", 1, "internal: worker campaign seed")
	flag.StringVar(&a.store, "store", "", "internal: worker store directory")
	flag.IntVar(&a.setups, "setups", 1, "internal: timed set-ups in a setup worker")
	flag.IntVar(&a.jobs, "jobs", 0, "internal: sched stream length")
	flag.StringVar(&a.profile, "cpuprofile", "", "internal: traced worker CPU profile path")
	flag.BoolVar(&a.fill, "fill", false, "internal: traced worker fills its store first")
	flag.Parse()
	if a.mode != "" {
		os.Exit(workerMain(a))
	}
	if err := benchMain(*root, *name, *seed, *seconds, *trace, *doRecord); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func benchMain(rootArg, name string, seed int64, seconds, trace int, doRecord bool) error {
	root, err := filepath.Abs(rootArg)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	digestsPath := filepath.Join(root, "perfbench", "digests.json")
	if doRecord {
		return record(root, self, digestsPath)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	digests, err := loadDigests(digestsPath)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	b := &bench{
		root: root, self: self, w: w, benchSeed: seed, seed: campaignSeed(seed), ctx: ctx, digests: digests,
		work: filepath.Join(root, ".bench_build", "perfbench", fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
	}
	defer os.RemoveAll(b.work)
	res, rep, err := b.run(seconds, trace == 1)
	if err != nil {
		return err
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return errors.New("non-finite metric")
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}
