package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzSpecKey decodes arbitrary JSON into a Spec and normalizes it. That
// must never panic, and a spec that normalizes must keep its Key through
// a second Normalize and through a JSON round trip of the normalized
// spec, the two ways a cached spec comes back (a service re-submit, a
// stored entry). Its seed corpus is in testdata/fuzz.
func FuzzSpecKey(f *testing.F) {
	f.Add([]byte(`{"app":{"builtin":"PIP"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if _, err := spec.Normalize(); err != nil {
			return
		}
		key := spec.Key()

		again := spec
		if _, err := again.Normalize(); err != nil {
			t.Fatalf("second Normalize failed: %v\nspec %+v", err, spec)
		}
		if k := again.Key(); k != key {
			t.Fatalf("second Normalize changed the key: %s -> %s\nfirst  %s\nsecond %s", key, k, mustJSON(t, spec), mustJSON(t, again))
		}

		b := mustJSON(t, spec)
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("normalized spec does not decode: %v\n%s", err, b)
		}
		if _, err := back.Normalize(); err != nil {
			t.Fatalf("round-tripped spec does not normalize: %v\n%s", err, b)
		}
		if k := back.Key(); k != key {
			t.Fatalf("JSON round trip changed the key: %s -> %s\nbefore %s\nafter  %s", key, k, b, mustJSON(t, back))
		}
	})
}

func mustJSON(t *testing.T, s Spec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
