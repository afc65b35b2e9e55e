// Package analysis is a poolrelease fixture stand-in for phonocmap's
// incremental-analysis package.
package analysis

type Incremental struct{}

func (inc *Incremental) Close() {}

func NewIncremental(n int) *Incremental { return &Incremental{} }

type PathTable struct{}

func NewTableIncremental(t *PathTable) *Incremental { return &Incremental{} }
