// Package cluster models the machine the experiments run on: a set of
// multi-socket compute nodes attached to a network fabric (a single switch
// or a multi-switch fat-tree, selected by the netsim topology), and the
// placement of software components (jobs) onto cores — including how a job's
// nodes are picked across the fabric's leaf switches.
//
// The defaults mirror one bottom-level switch of LLNL's Cab cluster as
// described in the paper's experimental setup: 18 nodes, two 8-core Intel
// Xeon E5-2670 sockets per node at 2.6 GHz, QLogic QDR switch with ~5 GB/s
// links.
package cluster

import (
	"fmt"
	"strconv"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// PlacementPolicy selects how a job's nodes are picked across the topology's
// leaf switches.
type PlacementPolicy string

const (
	// PlacePack fills leaves one at a time (plain node order), keeping a job
	// on as few leaves as possible.  It is the default and matches the
	// paper's single-switch process mapping exactly.
	PlacePack PlacementPolicy = "pack"
	// PlaceSpread round-robins nodes across leaves, giving the job a
	// footprint on every leaf so its traffic crosses the spine.
	PlaceSpread PlacementPolicy = "spread"
	// PlaceRandom shuffles the node order deterministically from the
	// machine's seed.
	PlaceRandom PlacementPolicy = "random"
)

// ParsePlacement parses a textual policy name; the empty string means
// PlacePack.
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch PlacementPolicy(s) {
	case "", PlacePack:
		return PlacePack, nil
	case PlaceSpread:
		return PlaceSpread, nil
	case PlaceRandom:
		return PlaceRandom, nil
	default:
		return "", fmt.Errorf("cluster: unknown placement policy %q (valid: pack, spread, random)", s)
	}
}

// Config describes the machine.
type Config struct {
	// Net is the switch/link configuration.
	Net netsim.Config
	// SocketsPerNode is the number of CPU sockets per node.
	SocketsPerNode int
	// CoresPerSocket is the number of cores per socket.
	CoresPerSocket int
	// ClockHz is the core clock frequency, used to convert the cycle counts
	// of the paper's benchmark parameters (e.g. CompressionB's sleep of B
	// cycles) into time.
	ClockHz float64
	// IntraNodeLatency is the latency of a message between two ranks on the
	// same node (shared memory path).
	IntraNodeLatency sim.Duration
	// IntraNodeBandwidth is the shared-memory copy bandwidth in bytes/second.
	IntraNodeBandwidth float64
}

// CabConfig returns the Cab-like default machine.
func CabConfig() Config {
	return Config{
		Net:                netsim.CabConfig(),
		SocketsPerNode:     2,
		CoresPerSocket:     8,
		ClockHz:            2.6e9,
		IntraNodeLatency:   600 * sim.Nanosecond,
		IntraNodeBandwidth: 8e9,
	}
}

// Fingerprint returns a canonical, deterministic encoding of every field
// that influences simulated behaviour, delegating the network part to
// netsim.Config.Fingerprint.  It is the machine layer's contribution to
// content-addressed run hashing.  New Config fields MUST be added here.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("net{%s};sockets=%d;cores=%d;clock=%s;ilat=%d;ibw=%s",
		c.Net.Fingerprint(),
		c.SocketsPerNode,
		c.CoresPerSocket,
		strconv.FormatFloat(c.ClockHz, 'g', -1, 64),
		int64(c.IntraNodeLatency),
		strconv.FormatFloat(c.IntraNodeBandwidth, 'g', -1, 64))
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	return c.validateHost()
}

// validateHost checks the non-network fields, so machine construction can
// leave the network validation (including the topology layout build) to
// netsim.New instead of running it twice.
func (c Config) validateHost() error {
	if c.SocketsPerNode <= 0 {
		return fmt.Errorf("cluster: non-positive sockets per node %d", c.SocketsPerNode)
	}
	if c.CoresPerSocket <= 0 {
		return fmt.Errorf("cluster: non-positive cores per socket %d", c.CoresPerSocket)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("cluster: non-positive clock %v", c.ClockHz)
	}
	if c.IntraNodeLatency < 0 {
		return fmt.Errorf("cluster: negative intra-node latency %v", c.IntraNodeLatency)
	}
	if c.IntraNodeBandwidth <= 0 {
		return fmt.Errorf("cluster: non-positive intra-node bandwidth %v", c.IntraNodeBandwidth)
	}
	return nil
}

// Nodes returns the number of nodes attached to the switch.
func (c Config) Nodes() int { return c.Net.Nodes }

// CoresPerNode returns the number of cores per node.
func (c Config) CoresPerNode() int { return c.SocketsPerNode * c.CoresPerSocket }

// TotalCores returns the number of cores in the whole machine.
func (c Config) TotalCores() int { return c.Nodes() * c.CoresPerNode() }

// CoreID identifies one core in the machine.
type CoreID struct {
	Node   int
	Socket int
	Core   int // core index within the socket
}

// String renders the core id as node/socket/core.
func (c CoreID) String() string { return fmt.Sprintf("n%d.s%d.c%d", c.Node, c.Socket, c.Core) }

// Placement assigns one rank of a job to a core.
type Placement struct {
	Rank int
	Core CoreID
}

// Job is a software component (a whole application or a micro-benchmark)
// placed on the machine.
type Job struct {
	Name       string
	Placements []Placement
}

// Size returns the number of ranks in the job.
func (j *Job) Size() int { return len(j.Placements) }

// NodeOf returns, for every rank, the node it is placed on (the mapping the
// MPI layer needs).
func (j *Job) NodeOf() []int {
	out := make([]int, len(j.Placements))
	for _, p := range j.Placements {
		out[p.Rank] = p.Core.Node
	}
	return out
}

// Nodes returns the distinct nodes the job uses, in the order their first
// rank was placed (not sorted).
func (j *Job) Nodes() []int {
	seen := make(map[int]bool)
	var out []int
	for _, p := range j.Placements {
		if !seen[p.Core.Node] {
			seen[p.Core.Node] = true
			out = append(out, p.Core.Node)
		}
	}
	return out
}

// Machine is the simulated machine: kernel, network and core allocation
// state.
type Machine struct {
	cfg Config
	k   *sim.Kernel
	net *netsim.Network
	// owner holds the job name on every core, indexed by coreIndex; ""
	// marks a free core (allocate rejects nameless jobs).
	owner []string
	// free counts each node's unallocated cores; busy counts the allocated
	// cores of the whole machine.
	free []int
	busy int
}

// New builds a machine on the given kernel.
func New(k *sim.Kernel, cfg Config) (*Machine, error) {
	if err := cfg.validateHost(); err != nil {
		return nil, err
	}
	net, err := netsim.New(k, cfg.Net)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		k:     k,
		net:   net,
		owner: make([]string, cfg.TotalCores()),
		free:  make([]int, cfg.Nodes()),
	}
	for n := range m.free {
		m.free[n] = cfg.CoresPerNode()
	}
	return m, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(k *sim.Kernel, cfg Config) *Machine {
	m, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Kernel returns the simulation kernel driving the machine.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// Network returns the simulated switch network.
func (m *Machine) Network() *netsim.Network { return m.net }

// Leaves returns the number of leaf switches in the machine's fabric.
func (m *Machine) Leaves() int { return m.net.Leaves() }

// LeafOf returns the leaf switch the node attaches to.
func (m *Machine) LeafOf(node int) int { return m.net.LeafOf(node) }

// NodeOrder returns the order in which nodes are filled under a placement
// policy.  Pack is plain node order (leaf-major, since the topologies assign
// nodes to leaves contiguously); spread round-robins across leaves; random
// is a deterministic shuffle derived from the machine's seed.
func (m *Machine) NodeOrder(policy PlacementPolicy) ([]int, error) {
	n := m.cfg.Nodes()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	switch policy {
	case "", PlacePack:
	case PlaceSpread:
		byLeaf := make([][]int, m.net.Leaves())
		for i := 0; i < n; i++ {
			leaf := m.net.LeafOf(i)
			byLeaf[leaf] = append(byLeaf[leaf], i)
		}
		order = order[:0]
		for round := 0; len(order) < n; round++ {
			for _, nodes := range byLeaf {
				if round < len(nodes) {
					order = append(order, nodes[round])
				}
			}
		}
	case PlaceRandom:
		rng := m.k.NewRand("placement")
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %q", policy)
	}
	return order, nil
}

// CyclesToDuration converts a cycle count at the machine's clock rate into
// virtual time.  CompressionB's "bubble" parameter B is expressed in cycles.
func (m *Machine) CyclesToDuration(cycles float64) sim.Duration {
	return sim.Duration(cycles / m.cfg.ClockHz * float64(sim.Second))
}

// coreIndex returns the core's position in the occupancy table, or -1 if
// the id lies outside the machine.
func (m *Machine) coreIndex(c CoreID) int {
	if c.Node < 0 || c.Node >= m.cfg.Nodes() ||
		c.Socket < 0 || c.Socket >= m.cfg.SocketsPerNode ||
		c.Core < 0 || c.Core >= m.cfg.CoresPerSocket {
		return -1
	}
	return (c.Node*m.cfg.SocketsPerNode+c.Socket)*m.cfg.CoresPerSocket + c.Core
}

// FreeCores returns the number of unallocated cores on the given node (a
// node outside the machine has no allocated cores, so all of them).
func (m *Machine) FreeCores(node int) int {
	if node < 0 || node >= len(m.free) {
		return m.cfg.CoresPerNode()
	}
	return m.free[node]
}

// AllocatedJobOn returns the job name occupying a core, if any.
func (m *Machine) AllocatedJobOn(core CoreID) (string, bool) {
	i := m.coreIndex(core)
	if i < 0 || m.owner[i] == "" {
		return "", false
	}
	return m.owner[i], true
}

// AllocateSpread places ranksPerSocket ranks of a new job on every socket of
// the first nodes nodes, assigning ranks in node-major, socket-minor, core
// order (the paper's process mapping: e.g. 4 processes per socket on all 18
// nodes gives 144 ranks).  It fails if any required core is already used.
func (m *Machine) AllocateSpread(name string, ranksPerSocket, nodes int) (*Job, error) {
	return m.allocate(name, ranksPerSocket, nodes, nil)
}

// AllocatePlaced is AllocateSpread with the node fill order chosen by a
// placement policy over the topology's leaves.
func (m *Machine) AllocatePlaced(name string, ranksPerSocket, nodes int, policy PlacementPolicy) (*Job, error) {
	order, err := m.NodeOrder(policy)
	if err != nil {
		return nil, err
	}
	return m.allocate(name, ranksPerSocket, nodes, order)
}

// AllocateOnNodes places ranksPerSocket ranks per socket on exactly the given
// nodes, in the given order.
func (m *Machine) AllocateOnNodes(name string, ranksPerSocket int, nodes []int) (*Job, error) {
	seen := make([]bool, m.cfg.Nodes())
	for _, node := range nodes {
		if node < 0 || node >= m.cfg.Nodes() {
			return nil, fmt.Errorf("cluster: node %d outside [0, %d)", node, m.cfg.Nodes())
		}
		if seen[node] {
			return nil, fmt.Errorf("cluster: duplicate node %d in allocation for %q", node, name)
		}
		seen[node] = true
	}
	return m.allocate(name, ranksPerSocket, len(nodes), nodes)
}

// allocate is the shared allocation loop; order is the node fill order (nil
// means plain 0..n-1).
func (m *Machine) allocate(name string, ranksPerSocket, nodes int, order []int) (*Job, error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: job needs a name")
	}
	if ranksPerSocket <= 0 || ranksPerSocket > m.cfg.CoresPerSocket {
		return nil, fmt.Errorf("cluster: ranks per socket %d outside [1, %d]", ranksPerSocket, m.cfg.CoresPerSocket)
	}
	if nodes <= 0 || nodes > m.cfg.Nodes() {
		return nil, fmt.Errorf("cluster: node count %d outside [1, %d]", nodes, m.cfg.Nodes())
	}
	placements := make([]Placement, 0, nodes*m.cfg.SocketsPerNode*ranksPerSocket)
	rank := 0
	for n := 0; n < nodes; n++ {
		node := n
		if order != nil {
			node = order[n]
		}
		for s := 0; s < m.cfg.SocketsPerNode; s++ {
			allocated := 0
			base := (node*m.cfg.SocketsPerNode + s) * m.cfg.CoresPerSocket
			for c := 0; c < m.cfg.CoresPerSocket && allocated < ranksPerSocket; c++ {
				if m.owner[base+c] != "" {
					continue
				}
				placements = append(placements, Placement{Rank: rank, Core: CoreID{Node: node, Socket: s, Core: c}})
				rank++
				allocated++
			}
			if allocated < ranksPerSocket {
				// Nothing is committed until every socket has fit, so a
				// failure leaves the occupancy untouched.
				return nil, fmt.Errorf("cluster: not enough free cores on node %d socket %d for job %q", node, s, name)
			}
		}
	}
	job := &Job{Name: name, Placements: placements}
	for _, p := range placements {
		m.owner[m.coreIndex(p.Core)] = name
		m.free[p.Core.Node]--
	}
	m.busy += len(placements)
	return job, nil
}

// Release frees every core held by the job.  Cores the job no longer holds
// (a second release, or a core since reallocated to another job) are left
// alone.
func (m *Machine) Release(job *Job) {
	if job == nil || job.Name == "" {
		return
	}
	for _, p := range job.Placements {
		i := m.coreIndex(p.Core)
		if i < 0 || m.owner[i] != job.Name {
			continue
		}
		m.owner[i] = ""
		m.free[p.Core.Node]++
		m.busy--
	}
}

// AllocatedCores returns the number of cores currently allocated to any job.
func (m *Machine) AllocatedCores() int { return m.busy }
