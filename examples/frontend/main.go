// Frontend: request-level serving through the batching frontend. Unlike
// the other examples (which submit pre-formed batches), requests arrive
// one at a time and serve.Pack groups them — up to 4 per batch, waiting
// at most 40 ms — so the reported latency is the full user-visible path:
// batching delay + pending + execution.
//
//	go run ./examples/frontend
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/stats"
)

func main() {
	log.SetFlags(0)
	node := hw.A100Node()
	spec := model.OPT30B()

	reqs, err := serve.Generate(serve.TraceConfig{
		Batches:    600,
		BatchSize:  1,  // one request per arrival
		RatePerSec: 32, // ~12 batches/s after packing
		MinSeq:     16,
		MaxSeq:     128,
		Process:    serve.Poisson,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	batches, batchOf, err := serve.Pack(reqs, 4, 40*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "runtime\tavg req latency\tp99\tbatching delay\tbatches")
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind})
		if err != nil {
			log.Fatal(err)
		}
		res, err := serve.Run(eng.Clock(), eng.Runtime(), batches)
		if err != nil {
			log.Fatal(err)
		}
		// Per-request latency runs from the request's own arrival, so it
		// includes the wait for its batch to close.
		lat := make([]time.Duration, len(reqs))
		wait := make([]time.Duration, len(reqs))
		for i, r := range reqs {
			b := batchOf[i]
			lat[i] = res.PerRequest[b].Done - r.At
			wait[i] = batches[b].At - r.At
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%d\n",
			res.Runtime, stats.Mean(lat).Round(time.Microsecond),
			stats.Percentile(lat, 99).Round(time.Microsecond),
			stats.Mean(wait).Round(time.Microsecond), len(batches))
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
