package scenario

import (
	"strings"
	"testing"
	"time"

	"liger/internal/serve"
)

func TestParseAssertionForms(t *testing.T) {
	cases := []struct {
		expr  string
		op    string
		isRef bool
		coeff float64
	}{
		{"liger.goodput >= 8.5", ">=", false, 1},
		{"liger.p99 <= 12x", "<=", false, 1},
		{"liger.slo_miss <= 5%", "<=", false, 1},
		{"liger.recovery_time <= 600ms", "<=", false, 1},
		{"liger.completed == 110", "==", false, 1},
		{"liger.goodput >= intra.goodput", ">=", true, 1},
		{"liger.p99 <= 1.5 * intra.p99", "<=", true, 1.5},
		{"liger.shed < 4", "<", false, 1},
		{"liger.failed > 0", ">", false, 1},
		{"liger.retries != 0", "!=", false, 1},
	}
	for _, tc := range cases {
		a, err := parseAssertion(tc.expr)
		if err != nil {
			t.Errorf("%q: %v", tc.expr, err)
			continue
		}
		if a.op != tc.op {
			t.Errorf("%q: op = %q, want %q", tc.expr, a.op, tc.op)
		}
		if (a.rhs != nil) != tc.isRef {
			t.Errorf("%q: rhs ref = %v, want %v", tc.expr, a.rhs != nil, tc.isRef)
		}
		if a.coeff != tc.coeff {
			t.Errorf("%q: coeff = %v, want %v", tc.expr, a.coeff, tc.coeff)
		}
	}
}

func TestParseAssertionErrors(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"liger.goodput", "no comparison operator"},
		{"liger.goodput >=", "missing right-hand side"},
		{"liger.bogus >= 1", `unknown metric "bogus"`},
		{"vllm.goodput >= 1", `unknown runtime "vllm"`},
		{"liger.goodput >= 2 * 3", "coefficient on a literal"},
		{"liger.goodput >= banana", "bad literal"},
		{"liger.goodput >= NaN", "bad literal"},
		{"liger.goodput >= -Inf", "bad literal"},
		{"liger.p99 <= NaNx", "bad literal"},
		{"liger.goodput >= Inf * intra.goodput", "bad coefficient"},
	}
	for _, tc := range cases {
		_, err := parseAssertion(tc.expr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want substring %q", tc.expr, err, tc.want)
		}
	}
}

func TestAssertionEval(t *testing.T) {
	res := serve.Result{
		Runtime: "Liger", Completed: 50, Requests: 100,
		P99: 40 * time.Millisecond, Makespan: 5 * time.Second,
	}
	intra := serve.Result{Runtime: "Intra-Op", Completed: 40, Makespan: 5 * time.Second}
	ctx := evalContext{
		results: map[string]serve.Result{"Liger": res, "Intra-Op": intra},
		horizon: 4 * time.Second,
		solo:    10 * time.Millisecond,
	}
	cases := []struct {
		expr string
		pass bool
	}{
		{"liger.completed == 50", true},
		{"liger.completed >= intra.completed", true},
		{"liger.completed >= 2 * intra.completed", false},
		{"liger.p99 <= 5x", true},   // 40ms vs 5 solos = 50ms
		{"liger.p99 <= 3x", false},  // 40ms vs 30ms
		{"liger.p99 <= 41ms", true}, // absolute duration literal
		{"liger.throughput >= 9", true},
		{"liger.slo_miss <= 5%", true}, // no deadline set: miss rate 0
	}
	for _, tc := range cases {
		a, err := parseAssertion(tc.expr)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		out, err := a.eval(ctx)
		if err != nil {
			t.Fatalf("%q: %v", tc.expr, err)
		}
		if out.Pass != tc.pass {
			t.Errorf("%q: pass = %v (%s), want %v", tc.expr, out.Pass, out.Detail, tc.pass)
		}
	}
}

func TestAssertionEvalMissingRuntime(t *testing.T) {
	a, err := parseAssertion("interth.goodput >= 1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.eval(evalContext{results: map[string]serve.Result{}})
	if err == nil || !strings.Contains(err.Error(), "does not run") {
		t.Errorf("err = %v, want 'does not run'", err)
	}
}
