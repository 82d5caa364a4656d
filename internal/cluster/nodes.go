package cluster

import (
	"fmt"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
)

// substrate is the node plumbing Fleet and Disagg share: one
// simclock.Sharded executor over an hw.Cluster — shard 0 the frontend,
// shard i+1 physical node i, the network's one-way latency the
// lookahead (the gpusim.PlanCluster partition) — and one core.Engine
// per node.
type substrate struct {
	sh      *simclock.Sharded
	front   *simclock.Engine
	latency simclock.Time
	nodes   []*node
}

// dispatchRec maps one node-runtime completion ID back to the request
// submitted under it and the replica (or pool slot) charged for it.
type dispatchRec struct {
	req int
	rep int
}

// node is one physical node's simulation. All mutable fields are owned
// by the node's shard.
type node struct {
	idx    int // physical node index; its shard is idx+1
	eng    *simclock.Engine
	core   *core.Engine
	rt     runtimes.Runtime
	tagged runtimes.Tagged
	elast  runtimes.Elastic
	// subs is indexed by completion ID: runtimes number completions in
	// submission order.
	subs      []dispatchRec
	submitErr error
}

// newSubstrate validates the topology and builds the executor and one
// engine per node (spares included) from opts, with each node's Clock
// set to its shard and its Faults to perNode[i] when that schedule is
// non-empty (perNode may be nil). workers <= 1 runs windows serially.
func newSubstrate(topo hw.Cluster, opts core.Options, workers int, perNode []faults.Schedule) (*substrate, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	plan := gpusim.PlanCluster(topo)
	if !plan.Parallel() {
		return nil, fmt.Errorf("cluster: network %q admits no lookahead window", topo.Network.Name)
	}
	s := &substrate{
		sh:      simclock.NewSharded(plan.Domains, plan.Lookahead, max(workers, 1)),
		latency: plan.Lookahead,
	}
	s.front = s.sh.Shard(0)
	for i := 0; i < topo.TotalNodes(); i++ {
		o := opts
		o.Clock = s.sh.Shard(i + 1)
		if perNode != nil && (len(perNode[i].Events) > 0 || perNode[i].CollTimeout > 0) {
			sched := perNode[i]
			o.Faults = &sched
		}
		eng, err := core.NewEngine(o)
		if err != nil {
			s.sh.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &node{idx: i, eng: o.Clock, core: eng, rt: eng.Runtime()}
		n.tagged, _ = n.rt.(runtimes.Tagged)
		n.elast, _ = n.rt.(runtimes.Elastic)
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// submit hands w to the node's runtime under rec; it runs on the node's
// shard. The first failure is also kept for run to surface.
func (n *node) submit(w model.Workload, rec dispatchRec) error {
	n.subs = append(n.subs, rec)
	var err error
	if n.tagged != nil {
		err = n.tagged.SubmitReq(w, rec.req)
	} else {
		err = n.rt.Submit(w)
	}
	if err != nil && n.submitErr == nil {
		n.submitErr = fmt.Errorf("cluster: node %d submit: %w", n.idx, err)
	}
	return err
}

// onDone routes the node's runtime completions to fn together with the
// record each was submitted under.
func (n *node) onDone(fn func(rec dispatchRec, c runtimes.Completion)) {
	n.rt.SetOnDone(func(c runtimes.Completion) { fn(n.subs[c.ID], c) })
}

// run executes every shard to completion, releases the worker pool, and
// returns the first submit error any node recorded.
func (s *substrate) run() error {
	defer s.sh.Close()
	s.sh.Run()
	for _, n := range s.nodes {
		if n.submitErr != nil {
			return n.submitErr
		}
	}
	return nil
}
