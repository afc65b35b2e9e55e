package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"phonocmap/internal/config"
	"phonocmap/internal/photonic"
)

// FuzzSpecKey decodes arbitrary JSON into a Spec and normalizes it. That
// must never panic, and a spec that normalizes must keep its Key through
// a second Normalize and through a JSON round trip of the normalized
// spec, the two ways a cached spec comes back (a service re-submit, a
// stored entry). Two more properties pin the cache keys that sharing
// rests on: an edit of the analyses block that still normalizes changes
// the Key, and an edit of any one field of the normalized architecture
// changes its network key (NetworkKey), which a JSON round trip keeps,
// so a compile is never handed another architecture's network. Its seed
// corpus is in testdata/fuzz.
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

		checkAnalysesEdits(t, spec, key)
		checkArchEdits(t, spec.Arch)
	})
}

// analysesEdits are one-step edits of a normalized analyses block: each
// adds or drops one analysis or changes one parameter, in a way no
// normalization may undo.
var analysesEdits = []struct {
	name string
	edit func(a *AnalysesSpec)
}{
	{"toggle wdm", func(a *AnalysesSpec) { a.WDM = toggle(a.WDM) }},
	{"toggle power", func(a *AnalysesSpec) { a.Power = toggle(a.Power) }},
	{"toggle robustness", func(a *AnalysesSpec) { a.Robustness = toggle(a.Robustness) }},
	{"toggle link_failures", func(a *AnalysesSpec) { a.LinkFailures = toggle(a.LinkFailures) }},
	{"toggle sim", func(a *AnalysesSpec) { a.Sim = toggle(a.Sim) }},
	{"power snr margin", func(a *AnalysesSpec) {
		if a.Power != nil {
			a.Power.SNRMarginDB++
		}
	}},
	{"power wavelengths", func(a *AnalysesSpec) {
		if a.Power != nil {
			a.Power.Wavelengths++
		}
	}},
	{"robustness samples", func(a *AnalysesSpec) {
		if r := a.Robustness; r != nil {
			if r.Samples < MaxRobustnessSamples {
				r.Samples++
			} else {
				r.Samples--
			}
		}
	}},
	{"robustness tolerance", func(a *AnalysesSpec) {
		if a.Robustness != nil {
			a.Robustness.Tolerance /= 2
		}
	}},
	{"robustness seed", func(a *AnalysesSpec) {
		if a.Robustness != nil {
			a.Robustness.Seed++
		}
	}},
	{"sim duration", func(a *AnalysesSpec) {
		if a.Sim != nil {
			a.Sim.DurationNs += 1000
		}
	}},
	{"sim load point", func(a *AnalysesSpec) {
		if a.Sim != nil {
			a.Sim.LoadScales = append(a.Sim.LoadScales, 1)
		}
	}},
	{"sim seed", func(a *AnalysesSpec) {
		if a.Sim != nil {
			a.Sim.Seed++
		}
	}},
}

// toggle drops a present analysis and adds an absent one with defaults.
func toggle[T any](p *T) *T {
	if p != nil {
		return nil
	}
	return new(T)
}

// checkAnalysesEdits applies each analyses edit to a normalized spec and
// requires every edited spec that still normalizes to get another Key.
func checkAnalysesEdits(t *testing.T, spec Spec, key string) {
	t.Helper()
	before, err := json.Marshal(spec.Analyses)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range analysesEdits {
		edited := spec
		edited.Analyses = spec.Analyses.clone()
		if edited.Analyses == nil {
			edited.Analyses = &AnalysesSpec{}
		}
		e.edit(edited.Analyses)
		if after, err := json.Marshal(edited.Analyses); err != nil || string(after) == string(before) {
			continue // the edit did not apply to this block, or overflowed
		}
		if _, err := edited.Normalize(); err != nil {
			continue
		}
		if edited.Key() == key {
			t.Fatalf("%s left the key unchanged\nbefore %s\nafter  %s", e.name, mustJSON(t, spec), mustJSON(t, edited))
		}
	}
}

// checkArchEdits requires a normalized architecture's network key to
// survive a JSON round trip and to change with an edit of any one of its
// fields. The fields are walked by reflection, so a field added to
// config.ArchSpec is covered without touching this test.
func checkArchEdits(t *testing.T, arch config.ArchSpec) {
	t.Helper()
	key := NetworkKey(arch)
	b, err := json.Marshal(arch)
	if err != nil {
		t.Fatal(err)
	}
	var back config.ArchSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("normalized arch does not decode: %v\n%s", err, b)
	}
	if k := NetworkKey(back); k != key {
		t.Fatalf("JSON round trip changed the network key: %s -> %s", key, k)
	}
	for i := 0; i < reflect.TypeOf(arch).NumField(); i++ {
		edited := arch
		edited.FailedLinks = slices.Clone(arch.FailedLinks)
		if arch.Params != nil {
			p := *arch.Params
			edited.Params = &p
		}
		f := reflect.ValueOf(&edited).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(editFloat(f.Float()))
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf([2]int{0, 1})))
		case reflect.Pointer:
			if f.IsNil() {
				p := photonic.DefaultParams()
				f.Set(reflect.ValueOf(&p))
			} else {
				edited.Params.CrossingLoss = editFloat(edited.Params.CrossingLoss)
			}
		default:
			t.Fatalf("ArchSpec field %s has kind %s, which this test cannot edit", reflect.TypeOf(arch).Field(i).Name, f.Kind())
		}
		if NetworkKey(edited) == key {
			t.Fatalf("editing ArchSpec.%s left the network key unchanged: %s", reflect.TypeOf(arch).Field(i).Name, key)
		}
	}
}

// editFloat returns a value other than v that JSON can still encode.
func editFloat(v float64) float64 {
	switch {
	case v == 0:
		return 1
	case math.Abs(v) > 1e300:
		return v / 2
	default:
		return v * 2
	}
}

func mustJSON(t *testing.T, s Spec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
