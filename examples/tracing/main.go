// Tracing: record every simulated kernel during an interleaved serving
// run, quantify the compute/communication overlap Liger creates on each
// device, and export a Chrome trace (open in chrome://tracing or
// https://ui.perfetto.dev) that visualizes the Fig. 6 interleaving.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"liger/internal/analyze"
	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

func main() {
	log.SetFlags(0)
	node := hw.A100Node()
	spec := model.OPT30B().WithLayers(8) // short run, readable trace

	rec := trace.NewRecorder()
	eng, err := core.NewEngine(core.Options{
		Node:    node,
		Model:   spec,
		Runtime: core.KindLiger,
		Tracer:  rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := serve.Generate(serve.TraceConfig{
		Batches:    12,
		BatchSize:  2,
		RatePerSec: 200, // dense arrivals so batches interleave
		MinSeq:     32,
		MaxSeq:     96,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Serve(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d batches, avg latency %v\n", res.Completed, res.AvgLatency)
	for _, d := range analyze.Analyze(rec, analyze.Options{}).Overlap.Devices {
		fmt.Printf("gpu%d compute/comm overlap: %v\n", d.Device, d.Hidden)
	}

	// ASCII view of the interleaving (the Fig. 6 picture): '#' compute,
	// '=' communication. A 3 ms window in the middle of the run shows the
	// alternation; the full-run view shows both lanes kept busy.
	fmt.Println()
	mid := simclock.Time(res.Makespan / 2)
	if err := trace.NewTimeline(rec, 100).Render(os.Stdout, mid, mid+simclock.Time(3*time.Millisecond)); err != nil {
		log.Fatal(err)
	}

	const out = "liger_trace.json"
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d kernel spans) — open in chrome://tracing\n", out, len(rec.Spans()))
}
