package scenario

import (
	"math"
	"testing"
	"time"
)

// FuzzParse feeds arbitrary bytes to the scenario loader. Parse and
// Compile must never panic, and whatever both accept must lower to a
// runnable plan: a finite positive arrival rate, a valid trace, and no
// negative time in the horizon, the solo unit, the policy or the fault
// schedule. The seed corpus under testdata/fuzz/FuzzParse holds the
// scenarios/ corpus and the non-finite numbers the loader once let
// through.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data, "fuzz")
		if err != nil {
			return
		}
		c, err := Compile(sc)
		if err != nil {
			return
		}
		if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
			t.Fatalf("accepted rate %v", c.Rate)
		}
		if err := c.Trace.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		for name, d := range map[string]time.Duration{
			"horizon":      c.Horizon,
			"solo":         c.Solo,
			"deadline":     c.Policy.Deadline,
			"backoff":      c.Policy.Backoff,
			"backoff cap":  c.Policy.BackoffCap,
			"coll timeout": c.Schedule.CollTimeout,
			"probe":        c.Probe,
			"hedge":        c.Hedge,
		} {
			if d < 0 {
				t.Fatalf("accepted a negative %s %v", name, d)
			}
		}
		for i, ev := range c.Schedule.Events {
			if ev.Start < 0 {
				t.Fatalf("accepted event %d starting at %v", i, ev.Start)
			}
		}
	})
}
