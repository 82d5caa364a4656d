package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepArtifactsGolden regenerates the sweep artifacts at the CI
// smoke settings (-quick -batches 25 -seed 5) and byte-compares them
// with the copies under testdata/. The determinism checks compare two
// runs with each other; this pins the bytes themselves, so a harness
// change cannot drift both runs alike without failing. The traced
// artifacts (Chrome traces, metrics, analyses) are too large to commit,
// so testdata/traced.sha256 pins each one by SHA-256 instead. After a
// deliberate change, regenerate the copies with
//
//	go run ./cmd/ligerbench -exp <failover|fleet|serving> -quick -batches 25 -seed 5 -json internal/bench/testdata -trace-dir T
//	(cd T && sha256sum *) > internal/bench/testdata/traced.sha256
func TestSweepArtifactsGolden(t *testing.T) {
	dir, traceDir := t.TempDir(), t.TempDir()
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 5, JSONDir: dir, TraceDir: traceDir}
	for _, run := range []func(RunConfig, io.Writer) error{RunFailover, RunFleet, RunServing} {
		if err := run(cfg, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{FailoverJSONName, FleetJSONName, ServingJSONName, ServingAnalysisJSONName} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s:\n--- got ---\n%s", name, name, got)
		}
	}

	want := readDigests(t, filepath.Join("testdata", "traced.sha256"))
	entries, err := os.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("-trace-dir wrote %d files, testdata/traced.sha256 pins %d", len(entries), len(want))
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(traceDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		switch w, ok := want[e.Name()]; {
		case !ok:
			t.Errorf("%s is not pinned in testdata/traced.sha256", e.Name())
		case got != w:
			t.Errorf("%s: sha256 %s, testdata/traced.sha256 pins %s", e.Name(), got, w)
		}
	}
}

// readDigests parses a sha256sum listing into file name → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
