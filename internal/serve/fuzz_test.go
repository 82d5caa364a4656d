package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoadTrace feeds arbitrary bytes to the arrival-trace reader.
// LoadTrace must never panic, and any trace it accepts must survive a
// SaveTrace → LoadTrace round trip unchanged.
func FuzzLoadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		arrivals, err := LoadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveTrace(&buf, arrivals); err != nil {
			t.Fatal(err)
		}
		again, err := LoadTrace(&buf)
		if err != nil {
			t.Fatalf("saved trace does not load: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(arrivals, again) {
			t.Fatalf("round trip changed the arrivals:\n%v\n%v", arrivals, again)
		}
	})
}
