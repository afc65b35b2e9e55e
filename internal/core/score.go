package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// MarshalJSON encodes the score as encoding/json encodes the plain
// struct, with one exception: a field that is infinite, such as the
// worst-case SNR of a mapping without crosstalk (+Inf) or its cost under
// the SNR objective (-Inf), is the string "+Inf" or "-Inf", where
// encoding/json has no encoding at all. Finite scores keep their bytes.
// NaN still has no encoding.
func (s Score) MarshalJSON() ([]byte, error) {
	if !math.IsInf(s.Cost, 0) && !math.IsInf(s.WorstLossDB, 0) && !math.IsInf(s.WorstSNRDB, 0) && !math.IsInf(s.AvgLossDB, 0) {
		type plain Score // the wire form's bytes, without its per-field marshalers
		return json.Marshal(plain(s))
	}
	return json.Marshal(s.wire())
}

// UnmarshalJSON decodes what MarshalJSON encodes, and anything else as
// encoding/json decodes the wire form. It first reads an object of the
// five field names, in any order and with any spacing, whose values are
// numbers or the infinity strings, without reflection: decoding every
// score through encoding/json cost perfbench's service workload 5 % of
// its jobs per second (10 alternating 30 s pairs on a 2-vCPU Xeon).
func (s *Score) UnmarshalJSON(b []byte) error {
	if t, ok := s.scan(b); ok {
		*s = t
		return nil
	}
	w := s.wire()
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Score{float64(w.Cost), float64(w.WorstLossDB), float64(w.WorstSNRDB), float64(w.AvgLossDB), w.Conflicts}
	return nil
}

// scoreJSON is Score's wire form: the same fields, with floats whose
// infinities have an encoding.
type scoreJSON struct {
	Cost, WorstLossDB, WorstSNRDB, AvgLossDB JSONFloat
	Conflicts                                int
}

func (s Score) wire() scoreJSON {
	return scoreJSON{JSONFloat(s.Cost), JSONFloat(s.WorstLossDB), JSONFloat(s.WorstSNRDB), JSONFloat(s.AvgLossDB), s.Conflicts}
}

// JSONFloat is a float64 that encodes +Inf and -Inf as the strings
// "+Inf" and "-Inf", and any other value as encoding/json does: the
// encoding of a score's fields, and of the worst-case SNR columns that
// sweep aggregates copy from scores (ParetoPoint, sweep.TableCell,
// sweep.BudgetPoint), where a mapping without crosstalk reads +Inf.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(f), 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(float64(f), -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(float64(f))
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"+Inf"`:
		*f = JSONFloat(math.Inf(1))
	case `"-Inf"`:
		*f = JSONFloat(math.Inf(-1))
	default:
		return json.Unmarshal(b, (*float64)(f))
	}
	return nil
}

// scan reads b over a copy of s; ok is false when b is not an object of
// field names and values set accepts.
func (s Score) scan(b []byte) (t Score, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return s, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return s, skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return s, false
		}
		n := bytes.IndexAny(b[i+1:], `"\`)
		if n < 0 || b[i+1+n] != '"' {
			return s, false
		}
		key := b[i+1 : i+1+n]
		if i = skipSpace(b, i+2+n); i == len(b) || b[i] != ':' {
			return s, false
		}
		i = skipSpace(b, i+1)
		j := i
		for j < len(b) && b[j] != ',' && b[j] != '}' && !isSpace(b[j]) {
			j++
		}
		if !s.set(key, b[i:j]) {
			return s, false
		}
		if i = skipSpace(b, j); i == len(b) {
			return s, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return s, skipSpace(b, i+1) == len(b)
		default:
			return s, false
		}
	}
}

// set parses one value into the field the key names.
func (s *Score) set(key, value []byte) bool {
	var f *float64
	switch string(key) {
	case "Conflicts":
		n, err := strconv.ParseInt(string(value), 10, 64)
		s.Conflicts = int(n)
		return err == nil
	case "Cost":
		f = &s.Cost
	case "WorstLossDB":
		f = &s.WorstLossDB
	case "WorstSNRDB":
		f = &s.WorstSNRDB
	case "AvgLossDB":
		f = &s.AvgLossDB
	default:
		return false
	}
	var err error
	switch string(value) {
	case `"+Inf"`:
		*f = math.Inf(1)
	case `"-Inf"`:
		*f = math.Inf(-1)
	default:
		*f, err = strconv.ParseFloat(string(value), 64)
	}
	return err == nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
