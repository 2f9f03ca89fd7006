package sched

// coefTable is one run's memo of the oracle's per-workload answers, indexed
// by the workload's position among the run's distinct workloads.  Entries
// fill on first use, so the oracle sees the same queries, in the same
// first-touch order, as a loop that asked it every time: a coefficient the
// run never needs is never asked for, and a failing one fails at the same
// event (errors are not memoized).
type coefTable struct {
	oracle Oracle
	apps   []string
	index  map[string]int // workload name -> position in apps
	// solo and util are per workload; shared and disjoint are
	// target-major: entry [target*len(apps)+corunner].
	solo, util       []coef
	shared, disjoint []coef
}

type coef struct {
	v  float64
	ok bool
}

// newCoefTable indexes the workloads of jobs in order of first appearance
// and returns the empty table.
func newCoefTable(o Oracle, jobs []JobSpec) *coefTable {
	t := &coefTable{oracle: o, index: make(map[string]int)}
	for _, j := range jobs {
		if _, ok := t.index[j.Workload]; !ok {
			t.index[j.Workload] = len(t.apps)
			t.apps = append(t.apps, j.Workload)
		}
	}
	n := len(t.apps)
	t.solo = make([]coef, n)
	t.util = make([]coef, n)
	t.shared = make([]coef, n*n)
	t.disjoint = make([]coef, n*n)
	return t
}

// set memoizes a first-use answer; errors are passed through unmemoized.
func (c *coef) set(v float64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	*c = coef{v: v, ok: true}
	return v, nil
}

// soloIterationSec serves Oracle.SoloIterationSec for workload app.
func (t *coefTable) soloIterationSec(app int) (float64, error) {
	c := &t.solo[app]
	if c.ok {
		return c.v, nil
	}
	return c.set(t.oracle.SoloIterationSec(t.apps[app]))
}

// utilizationPct serves Oracle.UtilizationPct for workload app.
func (t *coefTable) utilizationPct(app int) (float64, error) {
	c := &t.util[app]
	if c.ok {
		return c.v, nil
	}
	return c.set(t.oracle.UtilizationPct(t.apps[app]))
}

// slowdownPct serves Oracle.SharedSlowdownPct (same leaf) or
// Oracle.DisjointSlowdownPct (different leaves) for target next to
// corunner.
func (t *coefTable) slowdownPct(sameLeaf bool, target, corunner int) (float64, error) {
	i := target*len(t.apps) + corunner
	if sameLeaf {
		c := &t.shared[i]
		if c.ok {
			return c.v, nil
		}
		return c.set(t.oracle.SharedSlowdownPct(t.apps[target], t.apps[corunner]))
	}
	c := &t.disjoint[i]
	if c.ok {
		return c.v, nil
	}
	return c.set(t.oracle.DisjointSlowdownPct(t.apps[target], t.apps[corunner]))
}
