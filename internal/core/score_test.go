package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestScoreJSON: a finite score encodes exactly as encoding/json encodes
// the plain struct, so goldens and stored entries keep their bytes; a
// crosstalk-free score (+Inf SNR, -Inf cost under the SNR objective)
// encodes its infinities as "+Inf" and "-Inf" and decodes back; NaN has
// no encoding.
func TestScoreJSON(t *testing.T) {
	type plain Score // no methods: encoding/json's own field-by-field encoding
	rng := rand.New(rand.NewSource(7))
	scores := []Score{
		{},
		{Cost: -31.5, WorstLossDB: 3.25, WorstSNRDB: 31.5, AvgLossDB: 1e-7, Conflicts: 2},
		{Cost: 1e21, WorstLossDB: -1e-300, WorstSNRDB: 123456789.125, AvgLossDB: 5e-324, Conflicts: -1},
		{Cost: 9.999999e-7, WorstLossDB: 1e-6, WorstSNRDB: 9.99999e20, AvgLossDB: math.MaxFloat64},
	}
	for i := 0; i < 500; i++ {
		f := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)) }
		scores = append(scores, Score{Cost: f(), WorstLossDB: f(), WorstSNRDB: f(), AvgLossDB: f(), Conflicts: rng.Intn(100)})
	}
	for _, s := range scores {
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		want, _ := json.Marshal(plain(s))
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v encodes as\n%s\nwant\n%s", s, got, want)
		}
		var back Score
		if err := json.Unmarshal(got, &back); err != nil || back != s {
			t.Fatalf("%s decodes as %+v (%v), want %+v", got, back, err, s)
		}
	}

	free := Score{Cost: math.Inf(-1), WorstLossDB: 1.5, WorstSNRDB: math.Inf(1)}
	got, err := json.Marshal(&free)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Cost":"-Inf","WorstLossDB":1.5,"WorstSNRDB":"+Inf","AvgLossDB":0,"Conflicts":0}`
	if string(got) != want {
		t.Fatalf("crosstalk-free score encodes as %s, want %s", got, want)
	}
	var back Score
	if err := json.Unmarshal(got, &back); err != nil || back != free {
		t.Fatalf("%s decodes as %+v (%v), want %+v", got, back, err, free)
	}

	if b, err := json.Marshal(Score{AvgLossDB: math.NaN()}); err == nil {
		t.Errorf("NaN score encoded as %s", b)
	}
	for _, bad := range []string{`{"Cost":"Inf"}`, `{"Cost":"1"}`, `{"Cost":"NaN"}`, `{"Conflicts":"+Inf"}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("%s decoded as %+v", bad, back)
		}
	}
	// Indented output, as the service writes it, indents the fields.
	ind, _ := json.MarshalIndent(struct{ S Score }{free}, "", "  ")
	if !strings.Contains(string(ind), "\n    \"WorstSNRDB\": \"+Inf\",\n") {
		t.Errorf("indented encoding:\n%s", ind)
	}
}

// TestScoreDecodeMatchesWire: decoding into a Score gives what
// encoding/json gives for its wire form — the same fields, over the same
// starting value, and an error exactly when it errs — whether the
// object is read without reflection or not; and wherever no infinity
// string is involved, what encoding/json gives for the plain struct.
func TestScoreDecodeMatchesWire(t *testing.T) {
	type plain Score
	inputs := []string{
		`{"Cost":-31.5,"WorstLossDB":3.25,"WorstSNRDB":31.5,"AvgLossDB":0,"Conflicts":2}`,
		"{\n  \"Conflicts\": 7,\n\t\"Cost\" : 1e-7 ,\r\n  \"WorstSNRDB\": -0\n}",
		`{}`, ` { } `, `null`, `{"Cost":1}`, `{"Cost":1,"Cost":2}`, `{"cost":1,"WORSTLOSSDB":2}`,
		`{"Cost":1,"Other":[1,{"a":"}"}],"AvgLossDB":4}`, `{"Cost":null,"Conflicts":null}`,
		`{"Cost":1e400}`, `{"Conflicts":1.5}`, `{"Conflicts":1e2}`, `{"Conflicts":9223372036854775808}`,
		`{"Cost":"1"}`, `{"Cost":"NaN"}`, `{"Cost":true}`, `{"Cost":[1]}`, `{"Cost":3}`, `[]`, `"Cost"`, `3`,
		`{"cost":"+Inf","Extra":1}`, `{"WorstSNRDB":"+Inf","WorstSNRDB":null}`, `{"Conflicts":"-Inf"}`,
	}
	rng := rand.New(rand.NewSource(11))
	keys := []string{"Cost", "WorstLossDB", "WorstSNRDB", "AvgLossDB", "Conflicts", "cost", "Extra"}
	values := []string{"0", "-0", "1", "-12", "3.5", "1e3", "-2.5E-3", "123456789012345678", "null", `"x"`, "[]", "{}", "true", `"+Inf"`, `"-Inf"`}
	spaces := []string{"", " ", "\n  ", "\t"}
	for n := 0; n < 2000; n++ {
		var sb strings.Builder
		sb.WriteString("{")
		for k := rng.Intn(7); k > 0; k-- {
			sb.WriteString(spaces[rng.Intn(len(spaces))] + `"` + keys[rng.Intn(len(keys))] + `"` + spaces[rng.Intn(len(spaces))] + ":" +
				spaces[rng.Intn(len(spaces))] + values[rng.Intn(len(values))] + spaces[rng.Intn(len(spaces))])
			if k > 1 {
				sb.WriteString(",")
			}
		}
		sb.WriteString("}")
		inputs = append(inputs, sb.String())
	}
	start := Score{Cost: 9, WorstLossDB: 8, WorstSNRDB: 7, AvgLossDB: 6, Conflicts: 5}
	for _, in := range inputs {
		got, want := start, start.wire()
		gerr := json.Unmarshal([]byte(in), &got)
		werr := json.Unmarshal([]byte(in), &want)
		if (gerr == nil) != (werr == nil) || (werr == nil && got.wire() != want) {
			t.Fatalf("%s decodes as %+v (%v), wire form %+v (%v)", in, got, gerr, want, werr)
		}
		if strings.Contains(in, "Inf") {
			continue
		}
		p := plain(start)
		perr := json.Unmarshal([]byte(in), &p)
		if (gerr == nil) != (perr == nil) || (perr == nil && got != Score(p)) {
			t.Fatalf("%s decodes as %+v (%v), plain struct %+v (%v)", in, got, gerr, p, perr)
		}
	}
}
