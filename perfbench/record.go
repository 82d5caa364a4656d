package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
)

// point is one simulation point's simulated statistics. Every value is
// simulated, never host time: durations are simulated nanoseconds and
// rates are per simulated second. A change that only makes the
// simulator faster must leave every value identical.
type point struct {
	Name  string             `json:"name"`
	Stats map[string]float64 `json:"stats"`
}

// record is everything one repetition of a workload simulated, in a
// fixed point order.
type record struct {
	Points []point `json:"points"`
}

func (r *record) add(name string, stats map[string]float64) {
	r.Points = append(r.Points, point{Name: name, Stats: stats})
}

// digest is a short hash of the record's canonical JSON (encoding/json
// sorts map keys), for comparing the simulated outputs of two commits
// on a seed that has no expected record.
func (r record) digest() string {
	buf, err := json.Marshal(r)
	if err != nil {
		return "unencodable" // a non-finite value, which conserved reports
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// conserved checks the accounting facts the public results expose:
// every batch arrival ends completed, failed or shed, and every
// generative sequence completes. Every value must also be finite.
func (p point) conserved() error {
	s := p.Stats
	for k, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v", p.Name, k, v)
		}
	}
	if n, ok := s["arrivals"]; ok && s["completed"]+s["failed"]+s["shed"] != n {
		return fmt.Errorf("%s: %v completed + %v failed + %v shed != %v arrivals",
			p.Name, s["completed"], s["failed"], s["shed"], n)
	}
	if n, ok := s["sequences"]; ok && s["completed"] != n {
		return fmt.Errorf("%s: %v of %v sequences completed", p.Name, s["completed"], n)
	}
	return nil
}

// expectedSeed is the seed whose simulated statistics are committed in
// expected.json.
const expectedSeed = 1

// expectedRecord is a workload's committed record at expectedSeed.
type expectedRecord struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
	record
}

//go:embed expected.json
var expectedJSON []byte

// expectedFile is the path of expected.json relative to the repository
// root, for --update-expected.
const expectedFile = "perfbench/expected.json"

func loadExpected() (map[string]expectedRecord, error) {
	m := make(map[string]expectedRecord)
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// mismatches returns the names of points of got that differ from want,
// or that want lacks; a point want has and got lacks counts too.
func mismatches(got, want record) []string {
	byName := make(map[string]point, len(want.Points))
	for _, p := range want.Points {
		byName[p.Name] = p
	}
	var bad []string
	for _, p := range got.Points {
		w, ok := byName[p.Name]
		if !ok || !reflect.DeepEqual(p.Stats, w.Stats) {
			bad = append(bad, p.Name)
		}
		delete(byName, p.Name)
	}
	for name := range byName {
		bad = append(bad, name)
	}
	sort.Strings(bad)
	return bad
}

// writeExpected stores rec as the workload's expected record in
// expected.json (run from the repository root).
func writeExpected(workload string, rec record) error {
	m := make(map[string]expectedRecord)
	buf, err := os.ReadFile(expectedFile)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("%s: %w", expectedFile, err)
	}
	m[workload] = expectedRecord{Seed: expectedSeed, Digest: rec.digest(), record: rec}
	buf, err = json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(buf, '\n'), 0o644)
}
