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

func bare(p *core.Problem) {
	p.NewSwapSession(nil) // want "result is not bound"
}

func handOff(p *core.Problem) (*core.SwapSession, error) {
	return p.NewSwapSession(nil) // ok: ownership transfers to the caller
}

type holder struct{ ss *core.SwapSession }

func (h *holder) fill(p *core.Problem) (err error) {
	h.ss, err = p.NewSwapSession(nil) // ok: escapes into longer-lived state
	return err
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

func tolerated(p *core.Problem) {
	//phonocmap:release-ok process-lifetime session, reclaimed at exit
	ss, _ := p.NewSwapSession(nil)
	_ = ss
}

func passedOn(p *core.Problem) error {
	ss, err := p.NewSwapSession(nil) // ok: handed to a function that assumes ownership
	if err != nil {
		return err
	}
	consume(ss)
	return nil
}

func consume(ss *core.SwapSession) { defer ss.Release() }
