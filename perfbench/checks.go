package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"phonocmap"
)

// digest fingerprints a sequence of (spec key, mapping, score, evals)
// results. Two runs over the same inputs must give the same digest; no
// expected value is pinned, so a deliberate change to the evaluator's
// arithmetic changes the digest without failing any check.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(key string, m phonocmap.Mapping, s phonocmap.Score, evals int) {
	fmt.Fprintf(d.h, "%s|%v|%s,%s,%s,%s,%d|%d\n", key, m,
		exact(s.Cost), exact(s.WorstLossDB), exact(s.WorstSNRDB), exact(s.AvgLossDB), s.Conflicts, evals)
}

// sum returns the digest's first 16 hex digits.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// exact formats a float so that distinct values never print alike.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// verifier re-scores winning mappings under a fresh full evaluation
// (facade Verify), compiling each distinct (app, arch, objective) once.
type verifier struct {
	probs map[string]*phonocmap.Problem
}

func newVerifier() *verifier { return &verifier{probs: map[string]*phonocmap.Problem{}} }

// verify fails unless score is what a fresh full evaluation of mapping
// gives under the spec's application, architecture and objective.
func (v *verifier) verify(spec phonocmap.Scenario, mapping phonocmap.Mapping, score phonocmap.Score) error {
	id, err := json.Marshal([]any{spec.App, spec.Arch, spec.Objective})
	if err != nil {
		return err
	}
	prob, ok := v.probs[string(id)]
	if !ok {
		comp, err := phonocmap.CompileScenario(phonocmap.Scenario{App: spec.App, Arch: spec.Arch, Objective: spec.Objective})
		if err != nil {
			return err
		}
		prob = comp.Problem
		v.probs[string(id)] = prob
	}
	return phonocmap.Verify(prob, phonocmap.RunResult{Mapping: mapping, Score: score})
}
