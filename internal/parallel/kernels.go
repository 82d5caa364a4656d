// Package parallel partitions a model's logical operator graph into
// per-device kernel sequences under the three parallelism approaches
// the paper compares (§4.1): Megatron-style intra-operator tensor
// parallelism, inter-operator pipeline parallelism, and the theoretical
// inter-operator variant built from partitioned kernels. The output is
// a list of fully-costed kernel descriptors that the runtimes launch
// onto the simulated node.
package parallel

import (
	"fmt"
	"strconv"
	"time"

	"liger/internal/gpusim"
)

// KernelDesc is one kernel launch: its class, solo duration, resource
// demands for the contention engine, and (for decomposable kernels) a
// way to split it into finer-grained equal-capability pieces (§3.6).
type KernelDesc struct {
	Name  string
	Class gpusim.KernelClass
	// Duration is the solo execution time from the cost model.
	Duration time.Duration
	// ComputeDemand / MemBWDemand feed the simulator's contention
	// engine.
	ComputeDemand float64
	MemBWDemand   float64
	// Collective marks kernels that rendezvous across the
	// tensor-parallel group (all-reduce) or a stage pair (p2p).
	Collective bool
	// Bytes is the payload of communication kernels.
	Bytes int64

	// split produces parts equal-capability sub-kernels, or is nil if the
	// kernel is not decomposable. The pieces come back unnamed: Split and
	// the prefix splitters name them after the kernel being split, so a
	// splitter never reads a name and one splitter serves every layer's
	// copy of a template kernel.
	split func(parts int) []KernelDesc
}

// CanSplit reports whether runtime kernel decomposition applies.
func (k KernelDesc) CanSplit() bool { return k.split != nil }

// Split decomposes the kernel into parts equal pieces. It returns
// ok=false when the kernel is indivisible or parts < 2.
func (k KernelDesc) Split(parts int) ([]KernelDesc, bool) {
	if k.split == nil || parts < 2 {
		return nil, false
	}
	pieces := k.split(parts)
	for i := range pieces {
		pieces[i].Name = pieceName(k.Name, i+1, parts)
	}
	return pieces, true
}

// SplitPrefix returns the first `take` of `parts` pieces and a
// remainder kernel representing the rest, used when the scheduler only
// needs a fraction of a lengthy kernel to fill an overlap window.
func (k KernelDesc) SplitPrefix(parts, take int) (head []KernelDesc, rest KernelDesc, ok bool) {
	if k.split == nil || parts < 2 || take <= 0 || take >= parts {
		return nil, KernelDesc{}, false
	}
	pieces := k.split(parts)
	if len(pieces) != parts {
		return nil, KernelDesc{}, false
	}
	head, rest = k.prefix(pieces, take)
	return head, rest, true
}

// SplitWithin splits the kernel once into parts pieces and peels off
// the longest prefix whose solo durations fit in budget, stopping one
// piece short of the whole kernel (a kernel that fits whole needs no
// decomposition). It returns ok=false when the kernel is indivisible,
// parts < 2, or not even the first piece fits. Only the returned head
// pieces and the remainder are named.
func (k KernelDesc) SplitWithin(parts int, budget time.Duration) (head []KernelDesc, rest KernelDesc, ok bool) {
	if k.split == nil || parts < 2 {
		return nil, KernelDesc{}, false
	}
	pieces := k.split(parts)
	if len(pieces) != parts {
		return nil, KernelDesc{}, false
	}
	var acc time.Duration
	take := 0
	for _, p := range pieces[:parts-1] {
		if acc+p.Duration > budget {
			break
		}
		acc += p.Duration
		take++
	}
	if take == 0 {
		return nil, KernelDesc{}, false
	}
	head, rest = k.prefix(pieces, take)
	return head, rest, true
}

// prefix names the first take of k's unnamed split pieces and merges
// the others into one remainder kernel, to avoid needless launches: the
// remainder's duration and payload are the sums of the tail pieces.
func (k KernelDesc) prefix(pieces []KernelDesc, take int) (head []KernelDesc, rest KernelDesc) {
	parts := len(pieces)
	head = pieces[:take]
	for i := range head {
		head[i].Name = pieceName(k.Name, i+1, parts)
	}
	rest = pieces[take]
	for _, p := range pieces[take+1:] {
		rest.Duration += p.Duration
		rest.Bytes += p.Bytes
	}
	rest.Name = fmt.Sprintf("%s[rest%d/%d]", k.Name, parts-take, parts)
	// The merged remainder keeps the original split granularity: it
	// re-splits by splitting the original and scaling each piece's
	// duration, while its payload is divided exactly (base plus one byte
	// for the first bytes%p pieces, as allReduceDesc divides it).
	origSplit := k.split
	frac := float64(parts-take) / float64(parts)
	restBytes := rest.Bytes
	rest.split = func(p int) []KernelDesc {
		out := origSplit(p)
		base, extra := restBytes/int64(p), restBytes%int64(p)
		for i := range out {
			out[i].Duration = time.Duration(float64(out[i].Duration) * frac)
			out[i].Bytes = base
			if int64(i) < extra {
				out[i].Bytes++
			}
		}
		return out
	}
	return head, rest
}

// pieceName is the name of piece i (1-based) of a parts-way split:
// "name[i/parts]".
func pieceName(name string, i, parts int) string {
	return name + "[" + strconv.Itoa(i) + "/" + strconv.Itoa(parts) + "]"
}

// TotalDurations sums solo durations by kernel class — the analytical
// totals behind Fig. 3's compute/communication shares.
func TotalDurations(kernels []KernelDesc) (compute, comm time.Duration) {
	for _, k := range kernels {
		if k.Class == gpusim.Comm {
			comm += k.Duration
		} else {
			compute += k.Duration
		}
	}
	return compute, comm
}

// CountClass returns how many kernels have the given class.
func CountClass(kernels []KernelDesc, class gpusim.KernelClass) int {
	n := 0
	for _, k := range kernels {
		if k.Class == class {
			n++
		}
	}
	return n
}
