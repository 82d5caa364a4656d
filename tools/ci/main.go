// Command ci runs the repository's full check gate — the same sequence
// the Makefile's `check` target runs, packaged as a Go program so the
// gate works on hosts without make:
//
//	go run ./tools/ci
//
// The gate is the step table in steps(), run in order; the first
// failure stops it. A step is one of three things:
//
//   - A command that must exit 0: gofmt, vet, build, a whole-package
//     -race pass over the concurrency-bearing, failover and
//     observability packages, the full test suite, the chaos smoke, a small -race stress
//     campaign, and bounded native fuzzing of the scenario loader and
//     the arrival-trace reader.
//   - A twin: one command run at two settings (worker count, shard
//     count, or simply twice). Its stdout and every artifact it writes
//     must be byte-identical between the runs, after dropping the lines
//     that legitimately depend on the host (wall-clock timing, artifact
//     paths). Each artifact must parse as JSON, every
//     *.serving.json decomposition must tile each request's latency
//     exactly, and each run must write at least the twin's artifact
//     floor. Warn-only benchdiff passes over the sweep artifacts prove
//     the regression gate reads them. The twins cover the failover,
//     fleet and serving sweeps, the fig10 shard plan, the -explain
//     report, three corpus scenarios and the stress campaign.
//   - The scenario gate: every scenarios/*.yaml passes its assertions
//     and the negative fixtures fail, since a gate that cannot reject
//     is not a gate.
//   - The examples gate: every examples/* program, built once, must
//     exit 0 and print something.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// step is one named check of the gate.
type step struct {
	name string
	run  func() error
}

func steps() []step {
	// The bench sweeps run at smoke fidelity.
	ligerbench := func(exp string) []string {
		return []string{"run", "./cmd/ligerbench", "-exp", exp, "-quick", "-batches", "25", "-seed", "5"}
	}
	sharded := [2][]string{{"-parallel", "1", "-shards", "1"}, {"-parallel", "4", "-shards", "4"}}
	scenario := func(name string) step {
		file := filepath.Join("scenarios", name)
		return step{"scenario determinism " + name, twin{
			cmd:  []string{"run", "./cmd/ligersim", "run"},
			runs: [2][]string{{"-parallel", "1", file}, {"-parallel", "4", "-shards", "4", file}},
		}.check}
	}
	return []step{
		{"gofmt", gofmtCheck},
		{"go vet", command("go", "vet", "./...")},
		{"go build", command("go", "build", "./...")},
		{"race (runner, simclock, faults, serve, cluster, kvcache, generate, gpusim, parallel, liger, runtimes, trace, metrics, analyze, stats)", command("go", "test", "-race",
			"./internal/runner", "./internal/simclock", "./internal/faults", "./internal/serve",
			"./internal/cluster", "./internal/kvcache", "./internal/generate",
			"./internal/gpusim", "./internal/parallel", "./internal/liger", "./internal/runtimes",
			"./internal/trace", "./internal/metrics", "./internal/analyze", "./internal/stats")},
		{"go test", command("go", "test", "./...")},
		{"chaos smoke", command("go", ligerbench("chaos")...)},
		// Sweep JSON plus a trace/metrics/analysis triple per runtime;
		// the analysis byte-compare doubles as the analyzer determinism
		// smoke.
		{"failover smoke", twin{
			cmd:       ligerbench("failover"),
			runs:      [2][]string{{"-parallel", "1"}, {"-parallel", "4"}},
			dirFlags:  []string{"-json", "-trace-dir"},
			floor:     10,
			benchdiff: []string{"BENCH_failover.json"},
		}.check},
		{"explain smoke", twin{
			cmd: []string{"run", "./cmd/ligersim", "-runtime", "Liger", "-batches", "20", "-rate", "20", "-explain"},
		}.check},
		// The lookahead-sharded path may change speed, never results.
		{"shards smoke", twin{
			cmd:  ligerbench("fig10"),
			runs: [2][]string{{"-shards", "0"}, {"-shards", "4"}},
		}.check},
		{"fleet smoke", twin{
			cmd:       ligerbench("fleet"),
			runs:      sharded,
			dirFlags:  []string{"-json"},
			floor:     1,
			benchdiff: []string{"BENCH_fleet.json"},
		}.check},
		// Sweep JSON, the analysis aggregate, and a trace/metrics/serving
		// triple per runtime.
		{"serving smoke", twin{
			cmd:       ligerbench("serving"),
			runs:      sharded,
			dirFlags:  []string{"-json", "-trace-dir"},
			floor:     11,
			benchdiff: []string{"BENCH_serving.json", "BENCH_serving_analysis.json"},
		}.check},
		{"examples", examples},
		{"scenario corpus", scenarioCorpus},
		{"scenario fixtures", scenarioFixtures},
		scenario("cascading-failures.yaml"),
		scenario("fleet-node-loss.yaml"),
		scenario("decode-heavy.yaml"),
		{"stress smoke", twin{
			cmd:  []string{"run", "./cmd/ligersim", "stress", "-n", "25", "-seed", "42"},
			runs: [2][]string{{"-parallel", "1"}, {"-parallel", "4"}},
		}.check},
		{"stress race", command("go", "run", "-race", "./cmd/ligersim",
			"stress", "-n", "3", "-seed", "7", "-parallel", "4")},
		{"fuzz scenario", command("go", "test", "-run", "^$", "-fuzz", "^FuzzParse$", "-fuzztime=10s", "./internal/scenario")},
		{"fuzz trace", command("go", "test", "-run", "^$", "-fuzz", "^FuzzLoadTrace$", "-fuzztime=10s", "./internal/serve")},
	}
}

func main() {
	for _, s := range steps() {
		start := time.Now()
		if err := s.run(); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Printf("ok   %s (%v)\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("all checks passed")
}

// command returns a check that runs name with args, the gate's stdout
// and stderr, and fails unless it exits 0.
func command(name string, args ...string) func() error {
	return func() error {
		cmd := exec.Command(name, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		return cmd.Run()
	}
}

// twin is a two-run determinism check: `go cmd... runs[i]...` for each
// of the two runs, each followed by every dirFlag naming the run's own
// artifact directory.
type twin struct {
	cmd      []string
	runs     [2][]string
	dirFlags []string
	// floor is the minimum number of artifacts each run must write.
	floor int
	// benchdiff names the artifacts diffed warn-only between the runs.
	benchdiff []string
}

func (t twin) check() error {
	tmp, err := os.MkdirTemp("", "ci-twin-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var outs [2]output
	var dirs, labels [2]string
	for i, extra := range t.runs {
		dirs[i] = filepath.Join(tmp, fmt.Sprint("run", i))
		labels[i] = strings.Join(extra, " ")
		if labels[i] == "" {
			labels[i] = fmt.Sprint("run ", i+1)
		}
		args := append(append([]string{}, t.cmd...), extra...)
		for _, flag := range t.dirFlags {
			args = append(args, flag, dirs[i])
		}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %v", labels[i], err)
		}
		outs[i].stdout = stripHostLines(out)
		if len(t.dirFlags) > 0 {
			if outs[i].files, err = readArtifacts(dirs[i]); err != nil {
				return err
			}
		}
	}
	if err := compare(outs, labels, t.floor); err != nil {
		return err
	}
	for _, name := range t.benchdiff {
		err := command("go", "run", "./tools/benchdiff", "-warn",
			filepath.Join(dirs[0], name), filepath.Join(dirs[1], name))()
		if err != nil {
			return fmt.Errorf("benchdiff %s: %v", name, err)
		}
	}
	return nil
}

// output is what one run of a twin produced: its stdout without host
// lines, and every artifact it wrote, by file name.
type output struct {
	stdout []byte
	files  map[string][]byte
}

// compare fails unless both runs wrote the same stdout and the same
// artifacts byte for byte, each run wrote at least floor artifacts,
// every artifact parses as JSON, and every *.serving.json passes
// checkServingSchema. labels name the two runs in errors.
func compare(outs [2]output, labels [2]string, floor int) error {
	if !bytes.Equal(outs[0].stdout, outs[1].stdout) {
		return fmt.Errorf("output differs between %s and %s", labels[0], labels[1])
	}
	for i, o := range outs {
		if len(o.files) < floor {
			return fmt.Errorf("%s: %d artifacts, want >= %d", labels[i], len(o.files), floor)
		}
		for name := range o.files {
			if _, ok := outs[1-i].files[name]; !ok {
				return fmt.Errorf("%s missing from the %s run", name, labels[1-i])
			}
		}
	}
	for name, buf := range outs[0].files {
		if !bytes.Equal(buf, outs[1].files[name]) {
			return fmt.Errorf("%s differs between %s and %s", name, labels[0], labels[1])
		}
		var doc any
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("%s is not valid JSON: %v", name, err)
		}
		if strings.HasSuffix(name, ".serving.json") {
			if err := checkServingSchema(name, doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkServingSchema validates a serving_*.serving.json decomposition
// artifact: the analyzer's top-level keys must be present, and every
// request's segments must sum exactly to its measured total latency —
// the decomposition's defining invariant, checked here at the artifact
// boundary so a drifting writer cannot ship a silently broken report.
func checkServingSchema(name string, doc any) error {
	obj, ok := doc.(map[string]any)
	if !ok {
		return fmt.Errorf("%s: not a JSON object", name)
	}
	for _, key := range []string{"requests", "segment_ns", "pools", "imbalance", "episodes", "counters"} {
		if _, ok := obj[key]; !ok {
			return fmt.Errorf("%s: missing %q", name, key)
		}
	}
	reqs, ok := obj["requests"].([]any)
	if !ok || len(reqs) == 0 {
		return fmt.Errorf("%s: no requests in decomposition", name)
	}
	for _, rq := range reqs {
		r, ok := rq.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: malformed request entry", name)
		}
		total, _ := r["total_ns"].(float64)
		segs, _ := r["segment_ns"].(map[string]any)
		var sum float64
		for _, v := range segs {
			f, _ := v.(float64)
			sum += f
		}
		if sum != total {
			return fmt.Errorf("%s: request %v segments sum to %.0f, total %.0f", name, r["seq"], sum, total)
		}
	}
	return nil
}

// stripHostLines drops the only output lines that legitimately depend
// on the host: "---- <exp> done in <wall> ----" timing lines, and
// "traced: ..." lines, which embed the run's own artifact directory.
func stripHostLines(out []byte) []byte {
	var kept [][]byte
	for _, line := range bytes.Split(out, []byte("\n")) {
		timing := bytes.HasPrefix(line, []byte("---- ")) && bytes.Contains(line, []byte(" done in "))
		if timing || bytes.HasPrefix(bytes.TrimSpace(line), []byte("traced:")) {
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n"))
}

// readArtifacts loads every regular file of dir by name.
func readArtifacts(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = buf
	}
	return out, nil
}

// examples builds every examples/* program into a scratch directory and
// runs each binary there, with the scratch directory as its working
// directory so whatever an example writes stays out of the checkout;
// go build compiles them, but only running them catches an example
// broken by an API change.
func examples() error {
	tmp, err := os.MkdirTemp("", "ci-examples-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := command("go", "build", "-o", tmp, "./examples/...")(); err != nil {
		return err
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("no examples found")
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		cmd := exec.Command(filepath.Join(tmp, name))
		cmd.Dir = tmp
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err := checkExample(name, out, err); err != nil {
			return err
		}
	}
	return nil
}

// checkExample fails an example run that exited non-zero or printed
// nothing to stdout.
func checkExample(name string, stdout []byte, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("example %s: %v", name, runErr)
	}
	if len(bytes.TrimSpace(stdout)) == 0 {
		return fmt.Errorf("example %s printed nothing", name)
	}
	return nil
}

// scenarioCorpus runs every scenarios/*.yaml; each must pass its
// assertions.
func scenarioCorpus() error {
	corpus, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		return err
	}
	if len(corpus) < 9 {
		return fmt.Errorf("only %d corpus files in scenarios/ (want >= 9)", len(corpus))
	}
	return command("go", append([]string{"run", "./cmd/ligersim", "run", "-q"}, corpus...)...)()
}

// scenarioFixtures requires the negative fixtures to be rejected: exit
// status 1 with a FAIL verdict. A passing impossible-slo means the
// assertion engine is vacuous; a passing no-spare-capacity means a
// fleet with nothing to fail over to would count as surviving a node
// loss.
func scenarioFixtures() error {
	for _, fixture := range []string{"impossible-slo.yaml", "no-spare-capacity.yaml"} {
		cmd := exec.Command("go", "run", "./cmd/ligersim", "run", "-q",
			filepath.Join("scenarios", "fixtures", fixture))
		out, err := cmd.CombinedOutput()
		if err == nil {
			return fmt.Errorf("%s fixture PASSED; the assertion gate cannot reject\n%s", fixture, out)
		}
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			return fmt.Errorf("%s fixture: %v\n%s", fixture, err, out)
		}
		if !bytes.Contains(out, []byte("FAIL")) {
			return fmt.Errorf("%s fixture exited 1 without a FAIL verdict:\n%s", fixture, out)
		}
	}
	return nil
}

// gofmtCheck fails when any Go source file under the repo is not
// gofmt-formatted, listing the offenders.
func gofmtCheck() error {
	out, err := exec.Command("gofmt", "-l", ".").CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v: %s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		return fmt.Errorf("files need gofmt:\n%s", files)
	}
	return nil
}
