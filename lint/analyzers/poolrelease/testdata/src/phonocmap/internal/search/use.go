// Package search exercises poolrelease from a consumer of the pooled
// session constructors.
package search

import (
	"phonocmap/internal/analysis"
	"phonocmap/internal/core"
)

func leak(p *core.Problem) {
	ss, err := p.NewSwapSession(nil) // want "NewSwapSession acquires a pooled session"
	if err != nil {
		return
	}
	_ = ss
}

func evaluate(p *core.Problem) error {
	ss, err := p.NewSwapSession(nil) // ok: deferred Release
	if err != nil {
		return err
	}
	defer ss.Release()
	return nil
}

func discard(p *core.Problem) {
	_, _ = p.NewSwapSession(nil) // want "result discarded with _"
}

func bare(sp *core.SwapSessionPool) {
	sp.Acquire() // want "result is not bound"
}

func handOff(sp *core.SwapSessionPool) *core.SwapSession {
	return sp.Acquire() // ok: ownership transfers to the caller
}

type holder struct{ ss *core.SwapSession }

func (h *holder) fill(sp *core.SwapSessionPool) {
	h.ss = sp.Acquire() // ok: escapes into longer-lived state
}

func poolLeak(p *core.Problem) {
	sp := core.NewSwapSessionPool(p, 4) // want "NewSwapSessionPool acquires a pooled session"
	_ = sp
}

func poolOK(p *core.Problem) {
	sp := core.NewSwapSessionPool(p, 4) // ok: Close counts as release
	defer sp.Close()
}

func incLeak() {
	inc := analysis.NewIncremental(8) // want "NewIncremental acquires a pooled session"
	_ = inc
}

func incOK() {
	inc := analysis.NewIncremental(8) // ok: Close counts as release
	defer inc.Close()
}

func tableIncLeak(t *analysis.PathTable) {
	inc := analysis.NewTableIncremental(t) // want "NewTableIncremental acquires a pooled session"
	_ = inc
}

type engineHolder struct{ inc *analysis.Incremental }

func tableIncHandOff(t *analysis.PathTable) *engineHolder {
	var inc *analysis.Incremental
	if t != nil {
		inc = analysis.NewTableIncremental(t) // ok: stored in the holder below
	} else {
		inc = analysis.NewIncremental(8) // ok: stored in the holder below
	}
	return &engineHolder{inc: inc}
}

func tolerated(sp *core.SwapSessionPool) {
	//phonocmap:release-ok process-lifetime session, reclaimed at exit
	ss := sp.Acquire()
	_ = ss
}

func passedOn(sp *core.SwapSessionPool) {
	ss := sp.Acquire() // ok: handed to a function that assumes ownership
	consume(ss)
}

func consume(ss *core.SwapSession) { defer ss.Release() }

func unrelated(l *core.Limiter) {
	l.Acquire() // ok: Acquire on a non-pool receiver
}
