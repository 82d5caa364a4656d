package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"liger/internal/core"
)

// writeJSON writes v as the machine-readable artifact dir/name, indented
// and newline-terminated; an empty dir (RunConfig.JSONDir unset) writes
// nothing. encoding/json sorts map keys, so the bytes are a pure
// function of v.
func writeJSON(dir, name string, v any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// retention is the headline of a loss sweep (failover, fleet): how much
// within-deadline goodput each runtime keeps through the same loss, and
// how long it takes to recover.
type retention struct {
	// Mean goodput retained across every loss point, per runtime.
	GoodputRetained map[string]float64 `json:"goodput_retained"`
	// Mean time-to-recover across every loss point, per runtime.
	RecoveryMs map[string]float64 `json:"recovery_ms"`
	// LigerVsIntraRetained is Liger's mean retained goodput minus
	// Intra-Op's: positive means interleaving keeps more service alive
	// through the same loss.
	LigerVsIntraRetained float64 `json:"liger_vs_intra_retained"`
}

// lossOutcome is one loss point's share of the retention headline:
// retained is its goodput over the matching loss-free baseline's.
type lossOutcome struct {
	kind                 core.RuntimeKind
	retained, recoveryMs float64
}

// newRetention averages the loss points' outcomes per runtime. Every
// runtime of kinds serves the same loss points, so kinds[0]'s count is
// the divisor.
func newRetention(kinds []core.RuntimeKind, losses []lossOutcome) retention {
	r := retention{GoodputRetained: make(map[string]float64), RecoveryMs: make(map[string]float64)}
	sumRetained := make(map[core.RuntimeKind]float64)
	sumRecovery := make(map[core.RuntimeKind]float64)
	n := 0
	for _, l := range losses {
		sumRetained[l.kind] += l.retained
		sumRecovery[l.kind] += l.recoveryMs
		if l.kind == kinds[0] {
			n++
		}
	}
	if n == 0 {
		return r
	}
	for _, kind := range kinds {
		r.GoodputRetained[kind.String()] = sumRetained[kind] / float64(n)
		r.RecoveryMs[kind.String()] = sumRecovery[kind] / float64(n)
	}
	r.LigerVsIntraRetained = (sumRetained[core.KindLiger] - sumRetained[core.KindIntraOp]) / float64(n)
	return r
}

// fprint writes the headline line of a sweep over losses ("failures",
// "node losses"), with the Liger−Intra gap at prec decimals; a sweep
// without loss points has no headline.
func (r retention) fprint(w io.Writer, losses string, prec int) {
	if len(r.GoodputRetained) == 0 {
		return
	}
	fmt.Fprintf(w, "headline: mean goodput retained across %s — Liger %.0f%%, Intra-Op %.0f%%, Inter-Op %.0f%% (Liger−Intra %+.*fpp)\n",
		losses, 100*r.GoodputRetained["Liger"], 100*r.GoodputRetained["Intra-Op"],
		100*r.GoodputRetained["Inter-Op"], prec, 100*r.LigerVsIntraRetained)
}

// tracedRun is one runtime's fully traced point, rendered to memory so
// the sweep executor may finish points in any order while the files
// are still written in kind order.
type tracedRun struct {
	runtime string
	files   [][]byte
}

// render runs each writer into its own buffer, in order.
func render(writers ...func(io.Writer) error) ([][]byte, error) {
	out := make([][]byte, len(writers))
	for i, write := range writers {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// writeTraced writes each run's files into dir as
// <prefix>_<runtime slug>.<suffix>.json, one per suffix, and prints one
// "traced: <point> under <runtime> -> <paths>" line per run. brace
// names the paths as one <prefix>_<slug>.{a,b,c}.json pattern instead
// of listing them.
func writeTraced(w io.Writer, dir, prefix, point string, suffixes []string, runs []tracedRun, brace bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range runs {
		base := filepath.Join(dir, prefix+"_"+runtimeSlug(r.runtime))
		paths := make([]string, len(suffixes))
		for i, suffix := range suffixes {
			paths[i] = base + "." + suffix + ".json"
			if err := os.WriteFile(paths[i], r.files[i], 0o644); err != nil {
				return err
			}
		}
		where := strings.Join(paths, ", ")
		if brace {
			where = base + ".{" + strings.Join(suffixes, ",") + "}.json"
		}
		fmt.Fprintf(w, "traced: %s under %s -> %s\n", point, r.runtime, where)
	}
	return nil
}

// runtimeSlug turns a runtime's display name ("Intra-Op") into a
// filename-safe lowercase slug ("intra-op").
func runtimeSlug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}
