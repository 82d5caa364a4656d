package parallel

import (
	"fmt"
	"testing"
	"time"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/race"
)

func sumBytes(ks []KernelDesc) int64 {
	var b int64
	for _, k := range ks {
		b += k.Bytes
	}
	return b
}

// checkPrefixBytes asserts that every SplitPrefix(parts, take) of k
// conserves k's payload (head plus remainder) and that the remainder
// re-splits into pieces carrying exactly its own payload. depth > 0
// repeats the check on each remainder (the rest of a rest).
func checkPrefixBytes(t *testing.T, k KernelDesc, depth int) {
	t.Helper()
	for parts := 2; parts <= 8; parts++ {
		for take := 1; take < parts; take++ {
			head, rest, ok := k.SplitPrefix(parts, take)
			if !ok {
				t.Fatalf("%s: SplitPrefix(%d,%d) failed", k.Name, parts, take)
			}
			if got := sumBytes(head) + rest.Bytes; got != k.Bytes {
				t.Fatalf("%s: SplitPrefix(%d,%d) head+rest carry %d bytes, want %d",
					k.Name, parts, take, got, k.Bytes)
			}
			for p := 2; p <= 8; p++ {
				pieces, _ := rest.Split(p)
				if got := sumBytes(pieces); got != rest.Bytes {
					t.Fatalf("%s: Split(%d) pieces carry %d bytes, want %d",
						rest.Name, p, got, rest.Bytes)
				}
			}
			if depth > 0 {
				checkPrefixBytes(t, rest, depth-1)
			}
		}
	}
}

// TestSplitPrefixConservesBytes is the payload property of runtime
// decomposition over every decomposable kernel of one-layer OPT-30B and
// LLaMA plans: peeling a prefix, re-splitting the remainder, and
// peeling again never gain or lose a byte. (Scaling each re-split
// piece's payload by the remainder's fraction instead loses 1-6 bytes
// per take, for example on OPT-30B's l0.attn_out_ar at tp 4, sequence
// length 37.)
func TestSplitPrefixConservesBytes(t *testing.T) {
	c := NewCompiler(hw.A100Node().WithGPUs(8), nccl.Config{ReducedChannels: true})
	w := model.Workload{Batch: 1, SeqLen: 37, Phase: model.Context}
	for _, spec := range []model.Spec{model.OPT30B(), model.LLaMA70B()} {
		for _, tp := range []int{2, 4, 8} {
			ks, err := c.IntraOp(spec.WithLayers(1), tp, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				if k.CanSplit() {
					checkPrefixBytes(t, k, 1)
				}
			}
		}
	}
}

// TestSplitWithinTakesFittingPrefix checks SplitWithin against the
// two-step decomposition it replaces: count the pieces of a full split
// that fit in the budget (one short of all of them), then SplitPrefix.
func TestSplitWithinTakesFittingPrefix(t *testing.T) {
	c := compilerFor(hw.V100Node())
	ks, err := c.IntraOp(model.OPT30B().WithLayers(1), 4, ctxWorkload(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if !k.CanSplit() {
			if _, _, ok := k.SplitWithin(4, time.Hour); ok {
				t.Fatalf("%s: indivisible kernel split", k.Name)
			}
			continue
		}
		for parts := 1; parts <= 8; parts++ {
			for step := 0; step <= 10; step++ {
				budget := k.Duration * time.Duration(step) / 8
				take := 0
				if pieces, ok := k.Split(parts); ok {
					var acc time.Duration
					for _, p := range pieces[:parts-1] {
						if acc+p.Duration > budget {
							break
						}
						acc += p.Duration
						take++
					}
				}
				head, rest, ok := k.SplitWithin(parts, budget)
				where := fmt.Sprintf("%s SplitWithin(%d, %v)", k.Name, parts, budget)
				if ok != (take > 0) {
					t.Fatalf("%s: ok %v, want take %d", where, ok, take)
				}
				if !ok {
					continue
				}
				wantHead, wantRest, _ := k.SplitPrefix(parts, take)
				if d := diffPieces(head, wantHead); d != "" {
					t.Fatalf("%s head: %s", where, d)
				}
				if d := diffFields(rest, wantRest); d != "" {
					t.Fatalf("%s rest: %s", where, d)
				}
			}
		}
	}
}

// TestCompileIntraOpAllocs guards the layer-template compile: an
// OPT-30B plan costs a fixed handful of allocations (the plan, the
// templates, their splitters), not a few per kernel.
func TestCompileIntraOpAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := NewCompiler(hw.V100Node(), nccl.Config{ReducedChannels: true})
	w := ctxWorkload(2, 64)
	spec := model.OPT30B()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.IntraOp(spec, 4, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("IntraOp(OPT-30B, tp 4) = %.0f allocs, want <= 40", allocs)
	}
}
