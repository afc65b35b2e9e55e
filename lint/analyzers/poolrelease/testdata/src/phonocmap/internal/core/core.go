// Package core is a poolrelease fixture stand-in for phonocmap's real
// core: just the acquisition surface the analyzer keys on.
package core

type SwapSession struct{}

func (s *SwapSession) Release() {}

type Problem struct{}

func (p *Problem) NewSwapSession(m []int) (*SwapSession, error) { return &SwapSession{}, nil }

// warm holds an unreleased session mid-construction: legitimate inside
// the defining package, which the analyzer exempts wholesale.
func warm(p *Problem) {
	ss, _ := p.NewSwapSession(nil)
	_ = ss
}
