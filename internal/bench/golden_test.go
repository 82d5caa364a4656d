package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSweepArtifactsGolden regenerates the sweep artifacts at the CI
// smoke settings (-quick -batches 25 -seed 5) and byte-compares them
// with the copies under testdata/. The determinism checks compare two
// runs with each other; this pins the bytes themselves, so a harness
// change cannot drift both runs alike without failing. After a
// deliberate change, regenerate the copies with
//
//	go run ./cmd/ligerbench -exp <failover|fleet|serving> -quick -batches 25 -seed 5 -json internal/bench/testdata
func TestSweepArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 5, JSONDir: dir}
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
}
