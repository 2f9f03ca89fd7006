package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// occupancyModel is the reference core-occupancy bookkeeping: a plain map
// from core to job name with the allocation rules spelled out directly.
type occupancyModel struct {
	cfg  Config
	used map[CoreID]string
}

// fit returns the placements allocate must produce for the node order, or
// nil when some socket lacks ranksPerSocket free cores.
func (o *occupancyModel) fit(ranksPerSocket int, order []int) []Placement {
	var out []Placement
	for _, node := range order {
		for s := 0; s < o.cfg.SocketsPerNode; s++ {
			got := 0
			for c := 0; c < o.cfg.CoresPerSocket && got < ranksPerSocket; c++ {
				core := CoreID{Node: node, Socket: s, Core: c}
				if _, taken := o.used[core]; !taken {
					out = append(out, Placement{Rank: len(out), Core: core})
					got++
				}
			}
			if got < ranksPerSocket {
				return nil
			}
		}
	}
	return out
}

func (o *occupancyModel) commit(job *Job) {
	for _, p := range job.Placements {
		o.used[p.Core] = job.Name
	}
}

func (o *occupancyModel) release(job *Job) {
	if job == nil {
		return
	}
	for _, p := range job.Placements {
		if name, ok := o.used[p.Core]; ok && name == job.Name {
			delete(o.used, p.Core)
		}
	}
}

// check compares every occupancy query of the machine with the model,
// including core ids just outside the machine.
func (o *occupancyModel) check(t *testing.T, m *Machine, step int, op string) {
	t.Helper()
	if got, want := m.AllocatedCores(), len(o.used); got != want {
		t.Fatalf("step %d (%s): AllocatedCores = %d, model %d", step, op, got, want)
	}
	for n := 0; n < o.cfg.Nodes(); n++ {
		free := 0
		for s := 0; s < o.cfg.SocketsPerNode; s++ {
			for c := 0; c < o.cfg.CoresPerSocket; c++ {
				core := CoreID{Node: n, Socket: s, Core: c}
				want, wantOK := o.used[core]
				got, gotOK := m.AllocatedJobOn(core)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d (%s): AllocatedJobOn(%v) = %q,%v, model %q,%v", step, op, core, got, gotOK, want, wantOK)
				}
				if !wantOK {
					free++
				}
			}
		}
		if got := m.FreeCores(n); got != free {
			t.Fatalf("step %d (%s): FreeCores(%d) = %d, model %d", step, op, n, got, free)
		}
	}
	for _, core := range []CoreID{
		{Node: -1}, {Node: o.cfg.Nodes()}, {Socket: -1}, {Socket: o.cfg.SocketsPerNode},
		{Core: -1}, {Core: o.cfg.CoresPerSocket}, {Node: o.cfg.Nodes() - 1, Socket: o.cfg.SocketsPerNode - 1, Core: o.cfg.CoresPerSocket},
	} {
		if name, ok := m.AllocatedJobOn(core); ok || name != "" {
			t.Fatalf("step %d (%s): out-of-range core %v reported as held by %q", step, op, core, name)
		}
	}
}

// TestOccupancyMatchesReferenceModel drives a machine through seeded random
// sequences of leaf-targeted and placed allocations, releases (live,
// repeated and nil) and over-allocations that must fail, checking every
// occupancy query against the reference model after each step.  Job names
// come from a small pool, so a stale release can meet a core re-allocated
// under the same name.
func TestOccupancyMatchesReferenceModel(t *testing.T) {
	cfg := CabConfig()
	cfg.Net.Nodes = 5
	cfg.Net.Topology = netsim.FatTree{Leaves: 2, UplinksPerLeaf: 1}
	cfg.CoresPerSocket = 4
	policies := []PlacementPolicy{PlacePack, PlaceSpread, PlaceRandom}
	for seed := int64(1); seed <= 4; seed++ {
		m := MustNew(sim.NewKernel(seed), cfg)
		model := &occupancyModel{cfg: cfg, used: map[CoreID]string{}}
		rng := rand.New(rand.NewSource(seed))
		var live, released []*Job
		for step := 0; step < 1500; step++ {
			name := fmt.Sprintf("job%d", rng.Intn(6))
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				nodes := rng.Perm(cfg.Nodes())[:1+rng.Intn(3)]
				rps := 1 + rng.Intn(cfg.CoresPerSocket)
				op = fmt.Sprintf("AllocateOnNodes(%s, %d, %v)", name, rps, nodes)
				want := model.fit(rps, nodes)
				job, err := m.AllocateOnNodes(name, rps, nodes)
				if (err == nil) != (want != nil) {
					t.Fatalf("seed %d step %d: %s err = %v, model fits = %v", seed, step, op, err, want != nil)
				}
				if err == nil {
					if !reflect.DeepEqual(job.Placements, want) {
						t.Fatalf("seed %d step %d: %s placed %v, model %v", seed, step, op, job.Placements, want)
					}
					model.commit(job)
					live = append(live, job)
				}
			case k < 5:
				policy := policies[rng.Intn(len(policies))]
				nodes := 1 + rng.Intn(2)
				rps := 1 + rng.Intn(2)
				op = fmt.Sprintf("AllocatePlaced(%s, %d, %d, %s)", name, rps, nodes, policy)
				var want []Placement
				if policy != PlaceRandom { // random's order draws from the kernel stream
					order, err := m.NodeOrder(policy)
					if err != nil {
						t.Fatal(err)
					}
					want = model.fit(rps, order[:nodes])
				}
				before := len(model.used)
				job, err := m.AllocatePlaced(name, rps, nodes, policy)
				if policy != PlaceRandom && (err == nil) != (want != nil) {
					t.Fatalf("seed %d step %d: %s err = %v, model fits = %v", seed, step, op, err, want != nil)
				}
				if err == nil {
					if policy != PlaceRandom && !reflect.DeepEqual(job.Placements, want) {
						t.Fatalf("seed %d step %d: %s placed %v, model %v", seed, step, op, job.Placements, want)
					}
					for _, p := range job.Placements {
						if _, taken := model.used[p.Core]; taken {
							t.Fatalf("seed %d step %d: %s took busy core %v", seed, step, op, p.Core)
						}
					}
					model.commit(job)
					if got, want := len(model.used)-before, nodes*cfg.SocketsPerNode*rps; got != want {
						t.Fatalf("seed %d step %d: %s allocated %d cores, want %d", seed, step, op, got, want)
					}
					live = append(live, job)
				}
			case k < 6:
				// An over-allocation: more ranks per socket than any socket
				// holds, or more nodes than the machine has.
				op = "over-allocation"
				if _, err := m.AllocateOnNodes(name, cfg.CoresPerSocket+1, []int{rng.Intn(cfg.Nodes())}); err == nil {
					t.Fatalf("seed %d step %d: over-wide allocation succeeded", seed, step)
				}
				if _, err := m.AllocatePlaced(name, 1, cfg.Nodes()+1, PlacePack); err == nil {
					t.Fatalf("seed %d step %d: over-long allocation succeeded", seed, step)
				}
			case k < 9 && len(live) > 0:
				i := rng.Intn(len(live))
				job := live[i]
				op = "Release(" + job.Name + ")"
				live = append(live[:i], live[i+1:]...)
				released = append(released, job)
				m.Release(job)
				model.release(job)
			case len(released) > 0 && rng.Intn(2) == 0:
				job := released[rng.Intn(len(released))]
				op = "double Release(" + job.Name + ")"
				m.Release(job)
				model.release(job)
			default:
				op = "Release(nil)"
				m.Release(nil)
			}
			model.check(t, m, step, op)
		}
	}
}

// TestReleaseIgnoresForeignCores pins the guards of Release: a job value
// naming cores outside the machine, or carrying no name, frees nothing.
func TestReleaseIgnoresForeignCores(t *testing.T) {
	m := MustNew(sim.NewKernel(1), smallConfig())
	job, err := m.AllocateSpread("a", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	held := m.AllocatedCores()
	m.Release(&Job{Name: "a", Placements: []Placement{{Core: CoreID{Node: 99}}, {Core: CoreID{Core: -1}}}})
	m.Release(&Job{Placements: job.Placements})
	if m.AllocatedCores() != held {
		t.Fatalf("foreign releases changed the allocation: %d -> %d cores", held, m.AllocatedCores())
	}
	if got := m.FreeCores(-1); got != m.Config().CoresPerNode() {
		t.Fatalf("FreeCores of a node outside the machine = %d", got)
	}
}
