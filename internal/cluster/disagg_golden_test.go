package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// renderDisaggResult prints every DisaggResult field by name, so the
// golden pins values rather than the struct's layout.
func renderDisaggResult(res DisaggResult) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "conversations %d\nqueued_for_kv %d\n", res.Conversations, res.QueuedForKV)
	fmt.Fprintf(&b, "ttft %v\ntpot %v\ntotal %v\n", res.TTFT, res.TPOT, res.Total)
	fmt.Fprintf(&b, "makespan %v\niterations %d\nmean_pool %v\n", res.Makespan, res.Iterations, res.MeanPool)
	fmt.Fprintf(&b, "preemptions %d\nrecomputed_tokens %d\n", res.Preemptions, res.RecomputedTokens)
	fmt.Fprintf(&b, "kv_transfers %d\nkv_transfer_bytes %d\nkv_peak_blocks %d\n",
		res.KVTransfers, res.KVTransferBytes, res.KVPeakBlocks)
	return b.Bytes()
}

// TestDisaggGolden pins a small traced disaggregated run — its result
// and its merged serving trace rendered as Chrome JSON — byte for byte
// at Workers 1 and 2.
func TestDisaggGolden(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := disaggCfg(workers)
			cfg.Trace = true
			d, err := NewDisagg(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			var chrome bytes.Buffer
			if err := d.ServingTrace().WriteChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]byte{
				"disagg_result.golden":     renderDisaggResult(res),
				"disagg_trace.json.golden": chrome.Bytes(),
			} {
				golden := filepath.Join("testdata", name)
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s drifted (%d bytes, want %d):\n--- got ---\n%.2000s", name, len(got), len(want), got)
				}
			}
		})
	}
}
