package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runner"
	"liger/internal/serve"
)

// FleetJSONName is the machine-readable artifact of the fleet-failover
// sweep (written into RunConfig.JSONDir when set).
const FleetJSONName = "BENCH_fleet.json"

// fleetSetup fixes the fleet experiment's shared knobs so the
// experiment driver, its determinism test, and the CI smoke agree.
type fleetSetup struct {
	p        panel
	network  hw.NetworkSpec
	replicas []int
	instants []float64
	kinds    []core.RuntimeKind
	solo     time.Duration
	// capacity is one node's intra-op saturated throughput; a fleet of
	// R replicas serves rate(R) = utilization * R * capacity.
	capacity    float64
	utilization float64
}

func newFleetSetup(cfg RunConfig) fleetSetup {
	// Same testbed as the single-node failover sweep — OPT-30B on the
	// 4xA100 node — replicated across an InfiniBand fabric. Losing a
	// whole node removes 1/R of fleet capacity. 60% utilization is
	// chosen so the doubled load on a 2-replica survivor lands between
	// the runtimes' capacities: under Liger's interleaved throughput,
	// beyond intra-op's — the sweep separates them instead of drowning
	// everyone.
	p := panel{nodeKey: "a100", node: hw.A100Node(), spec: model.OPT30B(), batch: 2, phase: model.Context}
	capacity := intraCapacity(p)
	replicas := []int{2, 3}
	instants := []float64{0.3, 0.6}
	if cfg.Quick {
		replicas = []int{2}
		instants = []float64{0.45}
	}
	return fleetSetup{
		p:           p,
		network:     hw.IBNetwork(),
		replicas:    replicas,
		instants:    instants,
		kinds:       []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp},
		solo:        time.Duration(float64(time.Second) / capacity),
		capacity:    capacity,
		utilization: 0.6,
	}
}

func (s fleetSetup) rate(replicas int) float64 {
	return s.utilization * float64(replicas) * s.capacity
}

func (s fleetSetup) policy() serve.Policy {
	return serve.Policy{
		// Interactive-serving SLO: two solo batch durations. Tight on
		// purpose — inter-op pipelining has the raw throughput to absorb
		// a node loss, but its per-batch latency (~1.5x intra) blows this
		// deadline, which is exactly the regime where interleaving wins.
		Deadline:   2 * s.solo,
		MaxRetries: 3,
		Backoff:    s.solo / 2,
		BackoffCap: 4 * s.solo,
		// Bounded admission fleet-wide: the post-loss backlog sheds past
		// 24 unresolved batches instead of compounding into retries.
		QueueLimit: 24,
	}
}

// fleetPoint identifies one simulation of the sweep: a fleet of
// Replicas nodes (plus one spare) serving with Kind, losing node 0 at
// AtFrac of the horizon (AtFrac < 0 is the loss-free baseline).
type fleetPoint struct {
	kind     core.RuntimeKind
	replicas int
	atFrac   float64
}

func (s fleetSetup) points() []fleetPoint {
	var pts []fleetPoint
	for _, r := range s.replicas {
		for _, kind := range s.kinds {
			pts = append(pts, fleetPoint{kind: kind, replicas: r, atFrac: -1})
		}
	}
	for _, r := range s.replicas {
		for _, at := range s.instants {
			for _, kind := range s.kinds {
				pts = append(pts, fleetPoint{kind: kind, replicas: r, atFrac: at})
			}
		}
	}
	return pts
}

// runFleetPoint serves one point: replicas + 1 spare behind the
// health-aware router, whole-node loss injected at the instant.
func runFleetPoint(s fleetSetup, pt fleetPoint, cfg RunConfig) (serve.Result, error) {
	rate := s.rate(pt.replicas)
	horizon := time.Duration(float64(cfg.Batches) / rate * float64(time.Second))
	ccfg := cluster.Config{
		Cluster: hw.Cluster{
			Name:    fmt.Sprintf("%s-x%d", s.p.nodeKey, pt.replicas),
			Node:    s.p.node,
			Nodes:   pt.replicas,
			Spares:  1,
			Network: s.network,
		},
		Model:    s.p.spec,
		Runtime:  pt.kind,
		Workers:  cfg.Shards,
		Liger:    liger.DegradationAwareConfig(s.p.nodeKey),
		LigerSet: true,
	}
	if pt.atFrac >= 0 {
		ccfg.Faults = &faults.Schedule{Events: []faults.Event{{
			Kind:  faults.NodeFail,
			Node:  0,
			Start: time.Duration(pt.atFrac * float64(horizon)),
		}}}
	}
	f, err := cluster.New(ccfg)
	if err != nil {
		return serve.Result{}, err
	}
	trace, err := genTrace(s.p, rate, cfg)
	if err != nil {
		return serve.Result{}, err
	}
	return serve.RunFleet(f, trace, s.policy(), serve.RouterPolicy{Seed: cfg.Seed})
}

// fleetRow is one JSON record of the sweep.
type fleetRow struct {
	Runtime  string  `json:"runtime"`
	Replicas int     `json:"replicas"`
	AtFrac   float64 `json:"at_frac"`
	// Goodput is within-deadline throughput (batches/s); GoodputRetained
	// is its ratio to the same (runtime, replicas) loss-free baseline.
	Goodput         float64 `json:"goodput"`
	GoodputRetained float64 `json:"goodput_retained"`
	// RecoveryMs is node-loss instant to replica re-placement on the
	// spare (weight transfer over the fabric plus communicator rebuild).
	RecoveryMs float64 `json:"recovery_ms"`
	Failovers  int     `json:"failovers"`
	Shed       int     `json:"shed"`
	Retries    int     `json:"retries"`
	Failed     int     `json:"failed"`
	Completed  int     `json:"completed"`
}

// fleetReport is the full artifact: per-point rows plus the headline
// aggregates the experiment exists to measure.
type fleetReport struct {
	Batches  int        `json:"batches"`
	Seed     int64      `json:"seed"`
	Rows     []fleetRow `json:"rows"`
	Headline retention  `json:"headline"`
}

// buildFleetReport runs the sweep and aggregates it; shared by the
// experiment driver and the pinned tests.
func buildFleetReport(s fleetSetup, cfg RunConfig) (fleetReport, []fleetPoint, []serve.Result, error) {
	pts := s.points()
	results, err := runner.Map(cfg.Parallel, len(pts), func(i int) (serve.Result, error) {
		return runFleetPoint(s, pts[i], cfg)
	})
	if err != nil {
		return fleetReport{}, nil, nil, err
	}
	// Loss-free baselines anchor the goodput-retained ratios per
	// (runtime, replicas) pair.
	baseline := make(map[fleetPoint]float64)
	for i, pt := range pts {
		if pt.atFrac < 0 {
			baseline[fleetPoint{kind: pt.kind, replicas: pt.replicas, atFrac: -1}] = results[i].PolicyGoodput()
		}
	}
	rep := fleetReport{Batches: cfg.Batches, Seed: cfg.Seed}
	var losses []lossOutcome
	for i, pt := range pts {
		res := results[i]
		row := fleetRow{
			Runtime:    res.Runtime,
			Replicas:   pt.replicas,
			AtFrac:     pt.atFrac,
			Goodput:    res.PolicyGoodput(),
			RecoveryMs: float64(res.RecoveryTime) / float64(time.Millisecond),
			Failovers:  res.Failovers,
			Shed:       res.Shed,
			Retries:    res.Retries,
			Failed:     res.Failed,
			Completed:  res.Completed,
		}
		if base := baseline[fleetPoint{kind: pt.kind, replicas: pt.replicas, atFrac: -1}]; base > 0 {
			row.GoodputRetained = row.Goodput / base
		}
		if pt.atFrac >= 0 {
			losses = append(losses, lossOutcome{kind: pt.kind, retained: row.GoodputRetained, recoveryMs: row.RecoveryMs})
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Headline = newRetention(s.kinds, losses)
	return rep, pts, results, nil
}

// RunFleet is the fleet-failover experiment: replicate the serving
// node R times (plus one spare) behind the health-aware router, kill
// node 0 at several instants, and measure per runtime how much
// within-deadline goodput the fleet retains and how long replica
// re-placement takes. Every point is an independent simulation, so
// the sweep parallelizes and its output — table and JSON artifact —
// is byte-identical at any -parallel or -shards value.
func RunFleet(cfg RunConfig, w io.Writer) error {
	s := newFleetSetup(cfg)
	rep, pts, results, err := buildFleetReport(s, cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fleet\tloss\truntime\tgoodput\tretained\trecovery\tfailovers\tshed\tretries\tfailed")
	for i, pt := range pts {
		row := rep.Rows[i]
		label := "none"
		if pt.atFrac >= 0 {
			label = fmt.Sprintf("node0@%.0f%%", 100*pt.atFrac)
		}
		fmt.Fprintf(tw, "%dx+1\t%s\t%s\t%.2f\t%.0f%%\t%s\t%d\t%d\t%d\t%d\n",
			pt.replicas, label, row.Runtime, row.Goodput, 100*row.GoodputRetained,
			fmtDur(results[i].RecoveryTime), row.Failovers, row.Shed, row.Retries, row.Failed)
	}
	pol := s.policy()
	fmt.Fprintf(tw, "\nfabric: %s, %.0f GB/s effective, %s one-way; policy: deadline %s, %d retries, queue limit %d; seed %d\n",
		s.network.Name, s.network.EffectiveBWGBs(), s.network.Latency,
		fmtDur(pol.Deadline), pol.MaxRetries, pol.QueueLimit, cfg.Seed)
	rep.Headline.fprint(tw, "node losses", 1)
	fmt.Fprintln(tw, "extension: a NodeFail drops the node's shard mid-epoch; the router evicts it, re-dispatches its in-flight batches to the survivors, and re-places the replica onto the spare after the weight transfer + communicator rebuild")
	if err := tw.Flush(); err != nil {
		return err
	}
	return writeJSON(cfg.JSONDir, FleetJSONName, rep)
}
