package parallel

import (
	"fmt"
	"testing"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
)

// refIntraOp and refInterOp are the direct definition of a plan: every
// op of every layer lowered on its own under an "l<i>." prefix. The
// layer-template compile must reproduce them field by field and split
// by split.

func refIntraOp(c *Compiler, spec model.Spec, tp int, w model.Workload) []KernelDesc {
	var out []KernelDesc
	for _, op := range model.PreOps(spec, w) {
		out = c.compileOp(out, "", op, tp, w)
	}
	for l := 0; l < spec.Layers; l++ {
		prefix := fmt.Sprintf("l%d.", l)
		for _, op := range model.LayerOps(spec, w) {
			out = c.compileOp(out, prefix, op, tp, w)
		}
	}
	for _, op := range model.PostOps(spec, w) {
		out = c.compileOp(out, "", op, tp, w)
	}
	return out
}

func refInterOp(c *Compiler, spec model.Spec, stages int, w model.Workload, tp int) []Stage {
	perStage := spec.Layers / stages
	extra := spec.Layers % stages
	actBytes := int64(w.Tokens()) * int64(spec.Hidden) * 2
	var out []Stage
	layer := 0
	for st := 0; st < stages; st++ {
		count := perStage
		if st < extra {
			count++
		}
		stage := Stage{Device: st}
		if st == 0 {
			for _, op := range model.PreOps(spec, w) {
				stage.Kernels = refCompilePieces(c, stage.Kernels, "", op, tp, w)
			}
		}
		for i := 0; i < count; i++ {
			prefix := fmt.Sprintf("l%d.", layer)
			for _, op := range model.LayerOps(spec, w) {
				stage.Kernels = refCompilePieces(c, stage.Kernels, prefix, op, tp, w)
			}
			layer++
		}
		if st == stages-1 {
			for _, op := range model.PostOps(spec, w) {
				stage.Kernels = refCompilePieces(c, stage.Kernels, "", op, tp, w)
			}
		} else {
			stage.SendNext = c.p2pDesc(fmt.Sprintf("s%d_send", st), actBytes)
			stage.HasSend = true
		}
		out = append(out, stage)
	}
	return out
}

func refCompilePieces(c *Compiler, out []KernelDesc, prefix string, op model.Op, tp int, w model.Workload) []KernelDesc {
	op.ReduceAfter = false
	if tp == 1 {
		return c.compileOp(out, prefix, op, 1, w)
	}
	switch op.Partition {
	case model.PartCols, model.PartRows, model.PartHeads:
		for p := 0; p < tp; p++ {
			out = c.compileOp(out, fmt.Sprintf("%sp%d.", prefix, p), op, tp, w)
		}
		return out
	default:
		return c.compileOp(out, prefix, op, 1, w)
	}
}

// diffFields compares every field of two kernels except the splitter,
// which is compared through CanSplit. It returns "" when they match.
func diffFields(got, want KernelDesc) string {
	if got.Name != want.Name || got.Class != want.Class || got.Duration != want.Duration ||
		got.ComputeDemand != want.ComputeDemand || got.MemBWDemand != want.MemBWDemand ||
		got.Collective != want.Collective || got.Bytes != want.Bytes ||
		got.CanSplit() != want.CanSplit() {
		return fmt.Sprintf("got %+v (split %v), want %+v (split %v)",
			got, got.CanSplit(), want, want.CanSplit())
	}
	return ""
}

func diffPieces(got, want []KernelDesc) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pieces, want %d", len(got), len(want))
	}
	for i := range got {
		if d := diffFields(got[i], want[i]); d != "" {
			return fmt.Sprintf("piece %d: %s", i, d)
		}
	}
	return ""
}

// diffKernel compares two kernels field by field and, for decomposable
// ones, their Split(p) pieces and the SplitPrefix(p, t) head and
// remainder (the remainder's own re-split included) for the first,
// middle and last take.
func diffKernel(got, want KernelDesc) string {
	if d := diffFields(got, want); d != "" || !want.CanSplit() {
		return d
	}
	for _, p := range []int{2, 3, 8} {
		gp, _ := got.Split(p)
		wp, _ := want.Split(p)
		if d := diffPieces(gp, wp); d != "" {
			return fmt.Sprintf("Split(%d): %s", p, d)
		}
		for _, take := range probeTakes(p) {
			gh, gr, gok := got.SplitPrefix(p, take)
			wh, wr, wok := want.SplitPrefix(p, take)
			grp, _ := gr.Split(p)
			wrp, _ := wr.Split(p)
			d := diffPieces(gh, wh)
			if d == "" {
				d = diffFields(gr, wr)
			}
			if d == "" {
				d = diffPieces(grp, wrp)
			}
			if d != "" || gok != wok {
				return fmt.Sprintf("SplitPrefix(%d,%d) ok %v/%v: %s", p, take, gok, wok, d)
			}
		}
	}
	return ""
}

// probeTakes returns the distinct first, middle and last takes of a
// p-way split.
func probeTakes(p int) []int {
	if p == 2 {
		return []int{1}
	}
	if p == 3 {
		return []int{1, 2}
	}
	return []int{1, p / 2, p - 1}
}

func samePlan(t *testing.T, where string, got, want []KernelDesc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d kernels, want %d", where, len(got), len(want))
	}
	for i := range got {
		if d := diffKernel(got[i], want[i]); d != "" {
			t.Fatalf("%s kernel %d (%s): %s", where, i, want[i].Name, d)
		}
	}
}

// TestTemplateCompileMatchesPerLayer checks IntraOp, InterOp and InterTh
// against the per-layer reference across models (dense OPT-30B and a
// grouped-query, gated-FFN LLaMA cut to 10 layers so stages split
// unevenly), phases, degrees, GEMM split
// strategies and a ForWorldSize compiler. One compiler per strategy
// serves every case, so later compiles reuse (and grow) the name table
// earlier ones built.
func TestTemplateCompileMatchesPerLayer(t *testing.T) {
	node := hw.A100Node().WithGPUs(8)
	specs := []model.Spec{model.OPT30B(), model.LLaMA70B().WithLayers(10)}
	workloads := []model.Workload{
		{Batch: 2, SeqLen: 37, Phase: model.Context},
		{Batch: 4, CtxLen: 300, Phase: model.Decode},
	}
	for _, strategy := range []SplitStrategy{SplitVertical, SplitHorizontal} {
		base := NewCompiler(node, nccl.Config{ReducedChannels: true}, WithGEMMSplit(strategy))
		compilers := []struct {
			name string
			c    *Compiler
		}{{"node", base}, {"world3", base.ForWorldSize(3)}}
		for _, cc := range compilers {
			c := cc.c
			// A 1-layer compile first, so the full models extend the table.
			if _, err := c.IntraOp(model.OPT30B().WithLayers(1), 2, workloads[0]); err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				for wi, w := range workloads {
					for _, deg := range []int{1, 2, 4, 8} {
						where := fmt.Sprintf("strategy %d %s %s w%d deg %d", strategy, cc.name, spec.Name, wi, deg)
						intra, err := c.IntraOp(spec, deg, w)
						if err != nil {
							t.Fatal(err)
						}
						samePlan(t, where+" IntraOp", intra, refIntraOp(c, spec, deg, w))
						for _, kind := range []struct {
							name    string
							compile func(model.Spec, int, model.Workload) ([]Stage, error)
							tp      int
						}{{"InterOp", c.InterOp, 1}, {"InterTh", c.InterTh, deg}} {
							got, err := kind.compile(spec, deg, w)
							if err != nil {
								t.Fatal(err)
							}
							want := refInterOp(c, spec, deg, w, kind.tp)
							if len(got) != len(want) {
								t.Fatalf("%s %s: %d stages, want %d", where, kind.name, len(got), len(want))
							}
							for s := range got {
								at := fmt.Sprintf("%s %s stage %d", where, kind.name, s)
								if got[s].Device != want[s].Device || got[s].HasSend != want[s].HasSend {
									t.Fatalf("%s: device/send %d/%v, want %d/%v", at,
										got[s].Device, got[s].HasSend, want[s].Device, want[s].HasSend)
								}
								if d := diffKernel(got[s].SendNext, want[s].SendNext); d != "" {
									t.Fatalf("%s send: %s", at, d)
								}
								samePlan(t, at, got[s].Kernels, want[s].Kernels)
							}
						}
					}
				}
			}
		}
	}
}
