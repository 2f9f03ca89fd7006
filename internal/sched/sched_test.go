package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/netsim"
)

// testMachine returns a machine with the given node count split across
// leaves (2 nodes per leaf slot pair by default).
func testMachine(nodes, leaves int) cluster.Config {
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	if leaves > 1 {
		cfg.Net.Topology = netsim.FatTree{Leaves: leaves, UplinksPerLeaf: 1}
	}
	return cfg
}

// flatOracle returns a static oracle where every workload iterates in
// iterSec and every shared pair slows down by sharedPct (disjoint pairs are
// free).
func flatOracle(iterSec, sharedPct float64, apps ...string) *StaticOracle {
	o := &StaticOracle{
		IterSec:         map[string]float64{},
		Shared:          map[string]float64{},
		Util:            map[string]float64{},
		ContendedFabric: true,
	}
	for _, a := range apps {
		o.IterSec[a] = iterSec
		o.Util[a] = 10
		for _, b := range apps {
			o.Shared[PairKey(a, b)] = sharedPct
		}
	}
	return o
}

func TestArrivalSpecDeterministic(t *testing.T) {
	spec := ArrivalSpec{
		Jobs: 20, Seed: 7, Mix: []string{"FFTW", "MCB"},
		MeanInterarrival: 0.1, MinIterations: 10, MaxIterations: 30,
		TwoSlotFraction: 0.25,
	}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different streams")
	}
	spec.Seed = 8
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
	twoSlot := false
	for i, j := range a {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not monotone at job %d", i)
		}
		if j.Iterations < 10 || j.Iterations > 30 {
			t.Fatalf("job %d iterations %d outside range", i, j.Iterations)
		}
		if j.Slots == 2 {
			twoSlot = true
		}
	}
	if !twoSlot {
		t.Fatal("no two-slot jobs in a 20-job stream with fraction 0.25")
	}
}

func TestArrivalSpecRejectsBadInput(t *testing.T) {
	good := ArrivalSpec{Jobs: 1, Mix: []string{"FFTW"}, MeanInterarrival: 1, MinIterations: 1, MaxIterations: 1}
	for _, mutate := range []func(*ArrivalSpec){
		func(s *ArrivalSpec) { s.Jobs = 0 },
		func(s *ArrivalSpec) { s.Mix = nil },
		func(s *ArrivalSpec) { s.MeanInterarrival = 0 },
		func(s *ArrivalSpec) { s.MinIterations = 0 },
		func(s *ArrivalSpec) { s.MaxIterations = 0 },
		func(s *ArrivalSpec) { s.TwoSlotFraction = 1.5 },
	} {
		s := good
		mutate(&s)
		if _, err := s.Generate(); err == nil {
			t.Fatalf("expected error for %+v", s)
		}
	}
}

func TestRunSingleJobNoContention(t *testing.T) {
	res, err := Run(Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 50, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("got %d outcomes", len(res.Jobs))
	}
	j := res.Jobs[0]
	if math.Abs(j.Stretch-1) > 1e-12 || math.Abs(res.MakespanSec-1.0) > 1e-12 {
		t.Fatalf("solo job stretch %v makespan %v, want 1 and 1.0s", j.Stretch, res.MakespanSec)
	}
	if j.Colocated || res.Colocations != 0 {
		t.Fatal("solo job marked colocated")
	}
}

// TestRunSharedChargeSlowsBothJobs pins the charging arithmetic: two
// identical jobs packed onto one leaf at 100% mutual slowdown run at half
// speed and finish together at twice the solo duration.
func TestRunSharedChargeSlowsBothJobs(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	packed, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Pack{},
		Oracle: flatOracle(0.1, 100, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range packed.Jobs {
		if math.Abs(j.End-2.0) > 1e-9 || math.Abs(j.Stretch-2.0) > 1e-9 {
			t.Fatalf("packed job %d end %v stretch %v, want 2.0 and 2.0", j.ID, j.End, j.Stretch)
		}
	}
	if packed.Colocations != 1 {
		t.Fatalf("packed colocations = %d, want 1", packed.Colocations)
	}

	spread, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 100, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range spread.Jobs {
		if math.Abs(j.Stretch-1.0) > 1e-9 {
			t.Fatalf("spread job %d stretch %v, want 1.0 (disjoint leaves are free)", j.ID, j.Stretch)
		}
	}
	if spread.Colocations != 0 {
		t.Fatalf("spread colocations = %d, want 0", spread.Colocations)
	}
}

// TestRunQueueingFCFS fills a one-leaf (star) machine and checks the third
// job waits for a completion, keeping FCFS order.
func TestRunQueueingFCFS(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 20, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	res, err := Run(Config{
		Machine: testMachine(4, 1), Jobs: jobs, Policy: FirstFit{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slots: 4 nodes / 2 slots => 2 concurrent jobs. Job 0 ends at 1.0,
	// job 2 starts then, job 1 ends at 2.0, job 2 at 2.0.
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID[2].Start != byID[0].End {
		t.Fatalf("job 2 started at %v, want at job 0's end %v", byID[2].Start, byID[0].End)
	}
	if w := byID[2].WaitSec; math.Abs(w-1.0) > 1e-9 {
		t.Fatalf("job 2 waited %v, want 1.0", w)
	}
	if res.MeanWaitSec == 0 || res.P95Stretch < res.MeanStretch {
		t.Fatalf("summary inconsistent: meanWait %v p95 %v mean %v", res.MeanWaitSec, res.P95Stretch, res.MeanStretch)
	}
}

// TestRunTwoSlotJobNeedsWholeLeaf checks a two-slot job blocks (FCFS, no
// backfill) until a whole leaf is free.
func TestRunTwoSlotJobNeedsWholeLeaf(t *testing.T) {
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 2, Iterations: 10, Arrival: 0.01},
		{ID: 3, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0.02},
	}
	res, err := Run(Config{
		Machine: testMachine(4, 2), Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	// Spread puts jobs 0 and 1 on different leaves; the 2-slot job 2 must
	// wait for a full leaf, and job 3 must not jump the queue.
	if byID[2].Start <= 0.01 {
		t.Fatalf("two-slot job started at %v despite no free leaf", byID[2].Start)
	}
	if byID[3].Start < byID[2].Start {
		t.Fatalf("job 3 (start %v) backfilled ahead of blocked job 2 (start %v)", byID[3].Start, byID[2].Start)
	}
}

func TestRunRejectsOversizedJob(t *testing.T) {
	_, err := Run(Config{
		Machine: testMachine(4, 2),
		Jobs:    []JobSpec{{ID: 0, Workload: "A", Slots: 3, Iterations: 1, Arrival: 0}},
		Policy:  FirstFit{},
		Oracle:  flatOracle(0.1, 0, "A"),
	})
	if err == nil {
		t.Fatal("expected error for a job larger than any leaf")
	}
}

// TestRunUnevenLeaves places jobs on a 5-node, 2-leaf machine where the
// second leaf has fewer nodes and therefore fewer slots.
func TestRunUnevenLeaves(t *testing.T) {
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 5
	cfg.Net.Topology = netsim.FatTree{Leaves: 2, UplinksPerLeaf: 1}
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 2, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
	}
	res, err := Run(Config{
		Machine: cfg, Jobs: jobs, Policy: Spread{},
		Oracle: flatOracle(0.1, 0, "A"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf 0 holds nodes {0,1,2} (2 slots of 1 node... nodesPerSlot =
	// ceil? 3/2=1 node per slot), leaf 1 holds {3,4} (2 slots).  All three
	// jobs run immediately.
	if res.TotalSlots < 3 {
		t.Fatalf("total slots %d, want at least 3", res.TotalSlots)
	}
	for _, j := range res.Jobs {
		if j.WaitSec != 0 {
			t.Fatalf("job %d waited %v on a cluster with free slots", j.ID, j.WaitSec)
		}
	}
}

// fakePredictor predicts from a fixed (target app, co-runner component)
// table, so policy behaviour is pinned without measurements.
type fakePredictor struct {
	table map[string]float64
}

func (fakePredictor) Name() string { return "fake" }

func (f fakePredictor) Predict(target core.Profile, coRunner core.Signature) (float64, error) {
	return f.table[PairKey(target.App, coRunner.Component)], nil
}

// predictorFixture builds a predictor-guided config on a 3-leaf cluster
// (2 nodes per leaf, two one-node slots each) with the given job stream.
func predictorFixture(pred fakePredictor, jobs []JobSpec) Config {
	apps := []string{"Heavy", "Light", "Target", "Blocker"}
	oracle := flatOracle(0.1, 50, apps...)
	oracle.Sigs = map[string]core.Signature{}
	oracle.Profiles = map[string]core.Profile{}
	for _, a := range apps {
		oracle.Sigs[a] = core.Signature{Component: a}
		oracle.Profiles[a] = core.Profile{App: a}
	}
	return Config{
		Machine: testMachine(6, 3),
		Jobs:    jobs,
		Policy:  NewPredictorGuided(pred, oracle),
		Oracle:  oracle,
	}
}

// TestPredictorGuidedPicksCompatibleLeaf: the arriving target avoids
// occupied leaves while an empty one exists, and when forced to co-locate it
// joins the resident its predictor scores cheapest.
func TestPredictorGuidedPicksCompatibleLeaf(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{
		PairKey("Target", "Heavy"): 80,
		PairKey("Heavy", "Target"): 40,
		PairKey("Target", "Light"): 5,
		PairKey("Light", "Target"): 5,
		PairKey("Light", "Heavy"):  30,
		PairKey("Heavy", "Light"):  30,
	}}
	res, err := Run(predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0},
		{ID: 1, Workload: "Light", Slots: 1, Iterations: 100, Arrival: 0.001},
		{ID: 2, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	}))
	if err != nil {
		t.Fatal(err)
	}
	leafOf := map[string]int{}
	for _, j := range res.Jobs {
		leafOf[j.Workload] = j.Leaf
	}
	// Light's leaf scores within the consolidation margin of the empty
	// leaf, so the target absorbs Light's spare slot and leaves the empty
	// leaf for less compatible arrivals; Heavy's leaf (score 120) is out.
	if leafOf["Target"] == leafOf["Heavy"] {
		t.Fatalf("target joined Heavy's leaf %d", leafOf["Target"])
	}
	if leafOf["Target"] != leafOf["Light"] {
		t.Fatalf("target placed on leaf %d, want to consolidate onto Light's leaf %d",
			leafOf["Target"], leafOf["Light"])
	}

	// Fill the empty leaf with a two-slot blocker: the target must now
	// co-locate and must pick Light (score 10) over Heavy (score 120).
	res, err = Run(predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0},
		{ID: 1, Workload: "Light", Slots: 1, Iterations: 100, Arrival: 0.001},
		{ID: 2, Workload: "Blocker", Slots: 2, Iterations: 100, Arrival: 0.002},
		{ID: 3, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	}))
	if err != nil {
		t.Fatal(err)
	}
	leafOf = map[string]int{}
	for _, j := range res.Jobs {
		leafOf[j.Workload] = j.Leaf
	}
	if leafOf["Target"] != leafOf["Light"] {
		t.Fatalf("target placed on leaf %d, want Light's leaf %d (Heavy on %d)",
			leafOf["Target"], leafOf["Light"], leafOf["Heavy"])
	}
	var targetDecision Decision
	for _, d := range res.Decisions {
		if d.Workload == "Target" {
			targetDecision = d
		}
	}
	if targetDecision.Score != 10 || targetDecision.Feasible != 2 {
		t.Fatalf("decision log %+v, want score 10 over 2 feasible leaves", targetDecision)
	}
}

// TestPredictorGuidedDefersCatastrophicPlacement: when every feasible leaf
// predicts a heavily contended pairing, the policy waits for a completion
// instead of committing, and the job starts exactly when a resident leaves.
func TestPredictorGuidedDefersCatastrophicPlacement(t *testing.T) {
	pred := fakePredictor{table: map[string]float64{
		PairKey("Target", "Heavy"): 80,
		PairKey("Heavy", "Target"): 40,
		PairKey("Heavy", "Heavy"):  100,
	}}
	cfg := predictorFixture(pred, []JobSpec{
		{ID: 0, Workload: "Heavy", Slots: 1, Iterations: 100, Arrival: 0}, // 10s solo
		{ID: 1, Workload: "Heavy", Slots: 1, Iterations: 200, Arrival: 0.001},
		{ID: 2, Workload: "Heavy", Slots: 1, Iterations: 300, Arrival: 0.002},
		{ID: 3, Workload: "Target", Slots: 1, Iterations: 10, Arrival: 0.01},
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]JobOutcome{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if res.Deferrals == 0 {
		t.Fatal("expected deferrals with only catastrophic placements available")
	}
	if got, want := byID[3].Start, byID[0].End; got != want {
		t.Fatalf("target started at %v, want at the first Heavy's completion %v", got, want)
	}
	if byID[3].Colocated {
		t.Fatal("target should start on the freed leaf, not co-located")
	}
}

func TestPolicyChoices(t *testing.T) {
	cands := []Candidate{
		{Leaf: 0, FreeSlots: 1, UsedSlots: 1, Residents: []string{"A"}},
		{Leaf: 1, FreeSlots: 2, UsedSlots: 0},
		{Leaf: 2, FreeSlots: 1, UsedSlots: 1, Residents: []string{"B"}},
	}
	job := JobSpec{ID: 9, Workload: "C", Slots: 1, Iterations: 1}
	if i, _, _ := (FirstFit{}).Choose(job, cands); i != 0 {
		t.Fatalf("firstfit chose %d, want 0", i)
	}
	if i, _, _ := (Pack{}).Choose(job, cands); i != 0 {
		t.Fatalf("pack chose %d, want 0 (most loaded, lowest index)", i)
	}
	if i, _, _ := (Spread{}).Choose(job, cands); i != 1 {
		t.Fatalf("spread chose %d, want 1 (least loaded)", i)
	}
	r1, r2 := NewRandom(3), NewRandom(3)
	for i := 0; i < 10; i++ {
		a, _, _ := r1.Choose(job, cands)
		b, _, _ := r2.Choose(job, cands)
		if a != b {
			t.Fatal("random policy not deterministic per seed")
		}
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		pred, oracle := fakePredictor{}, flatOracle(1, 0, "A")
		p, err := NewPolicy(name, 1, pred, oracle)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("greedy", 1, nil, nil); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if _, err := NewPolicy(PolicyPredictor, 1, nil, nil); err == nil {
		t.Fatal("expected error for predictor policy without a predictor")
	}
}

// goldenApps are the workloads of the golden schedule: two network-heavy
// and two quiet ones, with distinct solo times so completion order depends
// on every rate.
var goldenApps = []string{"Heavy", "Bursty", "Quiet", "Compute"}

// goldenOracle returns a static oracle with asymmetric shared slowdowns,
// partly missing disjoint slowdowns (which default to zero), utilizations
// whose sum crosses the 100% cap, and predictor inputs for every workload.
// An uncontended fabric (the star) gets a fifth of the shared slowdowns.
func goldenOracle(contended bool) *StaticOracle {
	o := &StaticOracle{
		IterSec:         map[string]float64{"Heavy": 0.05, "Bursty": 0.03, "Quiet": 0.02, "Compute": 0.04},
		Shared:          map[string]float64{},
		Disjoint:        map[string]float64{},
		Util:            map[string]float64{"Heavy": 70, "Bursty": 45, "Quiet": 10, "Compute": 20},
		Sigs:            map[string]core.Signature{},
		Profiles:        map[string]core.Profile{},
		ContendedFabric: contended,
	}
	scale := 1.0
	if !contended {
		scale = 0.2
	}
	for i, a := range goldenApps {
		o.Sigs[a] = core.Signature{Component: a}
		o.Profiles[a] = core.Profile{App: a}
		for j, b := range goldenApps {
			o.Shared[PairKey(a, b)] = scale * (float64((i+1)*(2*j+3)*7%150) + 0.25*float64(i))
			if (i+j)%2 == 0 {
				o.Disjoint[PairKey(a, b)] = float64(i+j) * 1.5
			}
		}
	}
	return o
}

// goldenPredictor predicts heavy pairings far above the deferral threshold
// and quiet ones inside the consolidation margin.
func goldenPredictor() fakePredictor {
	table := map[string]float64{}
	for i, a := range goldenApps {
		for j, b := range goldenApps {
			table[PairKey(a, b)] = float64((3*i+5*j+1)*11%97) - 4
		}
	}
	return fakePredictor{table: table}
}

// goldenJobs generates the golden workload stream: about 60% load on the
// nine slots of the golden machines, a quarter of the jobs two slots wide.
func goldenJobs(tb testing.TB, n int) []JobSpec {
	tb.Helper()
	jobs, err := ArrivalSpec{
		Jobs: n, Seed: 11, Mix: goldenApps,
		MeanInterarrival: 0.6, MinIterations: 10, MaxIterations: 60,
		TwoSlotFraction: 0.25,
	}.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// goldenStreamHash runs every policy over one 512-job stream on the given
// machine and folds each full Result — jobs, decisions with residents,
// timeline and summary fields — into h.  Floats print in Go's shortest
// round-trip form, so the digest pins every bit of every field.
func goldenStreamHash(t *testing.T, h io.Writer, label string, contended bool, cfg Config) (requeues, deferrals, colocations int) {
	t.Helper()
	jobs := goldenJobs(t, 512)
	cfg.Jobs = jobs
	cfg.NodesPerSlot = 2
	cfg.Seed = 5
	for _, name := range PolicyNames() {
		oracle := goldenOracle(contended)
		policy, err := NewPolicy(name, 5, goldenPredictor(), oracle)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy, cfg.Oracle = policy, oracle
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, name, err)
		}
		if len(res.Jobs) != len(jobs) {
			t.Fatalf("%s/%s: %d outcomes for %d jobs", label, name, len(res.Jobs), len(jobs))
		}
		fmt.Fprintf(h, "%s/%s\n%+v\n", label, name, res)
		requeues += res.Requeues
		deferrals += res.Deferrals
		colocations += res.Colocations
	}
	return requeues, deferrals, colocations
}

// goldenScheduleSHA256 is the digest of goldenStreamHash over the three
// machines of TestRunGoldenSchedule.  It was recorded before the event loop
// was optimised; any change to it means a schedule changed.
const goldenScheduleSHA256 = "f24c6b303ca34a7f30a034854d01ccf264fe06048afed011e9411d5e1b34ab40"

// TestRunGoldenSchedule pins the full output of Run: all five policies over
// a 512-job stream on a 3-leaf fat-tree and on the star, plus a fat-tree run
// whose health feed kills, revives and degrades leaves so the requeue path
// is covered.
func TestRunGoldenSchedule(t *testing.T) {
	h := sha256.New()
	fattree := testMachine(18, 3) // 6 nodes per leaf: three 2-node slots
	goldenStreamHash(t, h, "fattree3", true, Config{Machine: fattree})
	_, deferrals, colocations := goldenStreamHash(t, h, "star", false, Config{Machine: testMachine(18, 1)})
	if colocations == 0 {
		t.Fatal("golden star runs never co-located a job")
	}
	requeues, deferrals2, _ := goldenStreamHash(t, h, "fattree3-health", true, Config{
		Machine: fattree,
		Health: healthTimeline(map[int][]struct {
			At float64
			H  LeafHealth
		}{
			0: {{At: 150, H: HealthDead}, {At: 160, H: HealthOK}},
			1: {{At: 30, H: HealthDead}, {At: 45, H: HealthOK}},
			2: {{At: 60, H: HealthDegraded}, {At: 70, H: HealthOK}},
		}),
		HealthEvents: []float64{150, 30, 45, 60, 70, 160},
	})
	if requeues == 0 {
		t.Fatal("golden health runs never requeued a job")
	}
	if deferrals+deferrals2 == 0 {
		t.Fatal("golden runs never deferred a placement")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenScheduleSHA256 {
		t.Fatalf("golden schedule digest %s, want %s", got, goldenScheduleSHA256)
	}
}

// countingOracle counts the calls made to the wrapped oracle per method and
// argument tuple.
type countingOracle struct {
	Oracle
	calls map[string]int
}

func (c *countingOracle) count(call string) { c.calls[call]++ }

func (c *countingOracle) SoloIterationSec(app string) (float64, error) {
	c.count("SoloIterationSec(" + app + ")")
	return c.Oracle.SoloIterationSec(app)
}

func (c *countingOracle) SharedSlowdownPct(target, corunner string) (float64, error) {
	c.count("SharedSlowdownPct(" + target + "," + corunner + ")")
	return c.Oracle.SharedSlowdownPct(target, corunner)
}

func (c *countingOracle) DisjointSlowdownPct(target, corunner string) (float64, error) {
	c.count("DisjointSlowdownPct(" + target + "," + corunner + ")")
	return c.Oracle.DisjointSlowdownPct(target, corunner)
}

func (c *countingOracle) UtilizationPct(app string) (float64, error) {
	c.count("UtilizationPct(" + app + ")")
	return c.Oracle.UtilizationPct(app)
}

func (c *countingOracle) Signature(app string) (core.Signature, error) {
	c.count("Signature(" + app + ")")
	return c.Oracle.Signature(app)
}

func (c *countingOracle) Profile(app string) (core.Profile, error) {
	c.count("Profile(" + app + ")")
	return c.Oracle.Profile(app)
}

// TestRunAsksOracleOncePerTuple pins the per-run coefficient table: one Run
// asks the oracle for each distinct argument tuple at most once, however
// many events reuse the answer.
func TestRunAsksOracleOncePerTuple(t *testing.T) {
	for _, name := range PolicyNames() {
		oracle := &countingOracle{Oracle: goldenOracle(true), calls: map[string]int{}}
		policy, err := NewPolicy(name, 5, goldenPredictor(), oracle)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Machine: testMachine(18, 3), NodesPerSlot: 2, Seed: 5,
			Jobs: goldenJobs(t, 512), Policy: policy, Oracle: oracle,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Colocations == 0 {
			t.Fatalf("%s: no co-located jobs, so no shared slowdown was needed", name)
		}
		shared := 0
		for call, n := range oracle.calls {
			if n > 1 {
				t.Errorf("%s: %s asked %d times in one run", name, call, n)
			}
			if strings.HasPrefix(call, "SharedSlowdownPct(") {
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("%s: the run never asked for a shared slowdown", name)
		}
	}
}

// TestRunAsksOnlyForCoefficientsItUses: coefficients resolve on first use,
// so a shared slowdown missing for a pair that never shares a leaf is never
// asked for, while the same gap fails the run once the pair co-runs.
func TestRunAsksOnlyForCoefficientsItUses(t *testing.T) {
	oracle := flatOracle(0.1, 50, "A", "B")
	delete(oracle.Shared, PairKey("A", "B"))
	delete(oracle.Shared, PairKey("B", "A"))
	jobs := []JobSpec{
		{ID: 0, Workload: "A", Slots: 1, Iterations: 10, Arrival: 0},
		{ID: 1, Workload: "B", Slots: 1, Iterations: 10, Arrival: 0},
	}
	if _, err := Run(Config{Machine: testMachine(4, 2), Jobs: jobs, Policy: Spread{}, Oracle: oracle}); err != nil {
		t.Fatalf("spread keeps A and B apart, yet the run failed: %v", err)
	}
	if _, err := Run(Config{Machine: testMachine(4, 2), Jobs: jobs, Policy: Pack{}, Oracle: oracle}); err == nil {
		t.Fatal("pack co-locates A and B without a shared slowdown, yet the run succeeded")
	}
}

// BenchmarkSchedRun times one scheduler run — every placement decision,
// rate refresh and completion of a 2048-job stream — under the
// predictor-guided policy on the 3-leaf fat-tree, from a static oracle.
func BenchmarkSchedRun(b *testing.B) {
	jobs := goldenJobs(b, 2048)
	oracle := goldenOracle(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			Machine: testMachine(18, 3), NodesPerSlot: 2, Seed: 5,
			Jobs: jobs, Policy: NewPredictorGuided(goldenPredictor(), oracle), Oracle: oracle,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != len(jobs) {
			b.Fatalf("%d outcomes for %d jobs", len(res.Jobs), len(jobs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(jobs)), "ns/job")
}
