package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// servingDoc is a minimal decomposition of one request whose segments
// sum to 30 against a measured total of total ns.
func servingDoc(total int) []byte {
	return []byte(fmt.Sprintf(`{"requests":[{"seq":0,"total_ns":%d,"segment_ns":{"queue":10,"prefill":20}}],`+
		`"segment_ns":{},"pools":[],"imbalance":1,"episodes":[],"counters":{}}`, total))
}

func pair(a, b map[string][]byte) [2]output {
	return [2]output{{stdout: []byte("table\n"), files: a}, {stdout: []byte("table\n"), files: b}}
}

var labels = [2]string{"-parallel 1", "-parallel 4"}

func TestCompareAcceptsIdenticalRuns(t *testing.T) {
	files := map[string][]byte{"BENCH_x.json": []byte(`{"a":1}`), "serving_liger.serving.json": servingDoc(30)}
	if err := compare(pair(files, files), labels, 2); err != nil {
		t.Fatal(err)
	}
}

// TestCompareRejects checks that the two-run comparison can fail: a
// gate that cannot reject is not a gate.
func TestCompareRejects(t *testing.T) {
	good := []byte(`{"a":1}`)
	for _, tc := range []struct {
		name  string
		outs  [2]output
		floor int
		want  string
	}{
		{
			name: "differing stdout",
			outs: [2]output{{stdout: []byte("a")}, {stdout: []byte("b")}},
			want: "output differs",
		},
		{
			name: "differing artifact bytes",
			outs: pair(map[string][]byte{"x.json": good}, map[string][]byte{"x.json": []byte(`{"a":2}`)}),
			want: "x.json differs",
		},
		{
			name: "artifact missing from the second run",
			outs: pair(map[string][]byte{"x.json": good, "y.json": good}, map[string][]byte{"x.json": good}),
			want: "y.json missing from the -parallel 4 run",
		},
		{
			name: "artifact missing from the first run",
			outs: pair(map[string][]byte{"x.json": good}, map[string][]byte{"x.json": good, "y.json": good}),
			want: "y.json missing from the -parallel 1 run",
		},
		{
			name:  "fewer artifacts than the floor",
			outs:  pair(map[string][]byte{"x.json": good}, map[string][]byte{"x.json": good}),
			floor: 2,
			want:  "1 artifacts, want >= 2",
		},
		{
			name: "invalid JSON",
			outs: pair(map[string][]byte{"x.json": []byte(`{"a":`)}, map[string][]byte{"x.json": []byte(`{"a":`)}),
			want: "not valid JSON",
		},
		{
			name: "serving segments do not tile total_ns",
			outs: pair(map[string][]byte{"s.serving.json": servingDoc(31)}, map[string][]byte{"s.serving.json": servingDoc(31)}),
			want: "segments sum to 30, total 31",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := compare(tc.outs, labels, tc.floor)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("compare = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestStripHostLines(t *testing.T) {
	in := "table\n---- fleet done in 1.2s ----\n  traced: dev0@45% under Liger -> /tmp/a\nheadline\n"
	if got, want := string(stripHostLines([]byte(in))), "table\nheadline\n"; got != want {
		t.Fatalf("stripHostLines = %q, want %q", got, want)
	}
}

// TestCheckExample checks that the examples gate can fail: a non-zero
// exit or an empty stdout rejects the example.
func TestCheckExample(t *testing.T) {
	if err := checkExample("quickstart", []byte("table\n"), nil); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		out []byte
		err error
	}{
		"non-zero exit": {[]byte("table\n"), errors.New("exit status 1")},
		"empty stdout":  {[]byte(" \n"), nil},
	} {
		if err := checkExample("quickstart", tc.out, tc.err); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
