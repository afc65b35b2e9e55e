package scenario

import (
	"phonocmap/internal/cg"
	"phonocmap/internal/router"
)

// AppInfo describes one bundled benchmark application.
type AppInfo struct {
	Name  string `json:"name"`
	Tasks int    `json:"tasks"`
	Edges int    `json:"edges"`
}

// Apps lists the bundled applications a spec may name as its builtin —
// the answer every backend's discovery call gives.
func Apps() []AppInfo {
	names := cg.AppNames()
	out := make([]AppInfo, 0, len(names))
	for _, name := range names {
		g := cg.MustApp(name)
		out = append(out, AppInfo{Name: name, Tasks: g.NumTasks(), Edges: g.NumEdges()})
	}
	return out
}

// RouterInfo describes one built-in optical router architecture.
type RouterInfo struct {
	Name      string `json:"name"`
	Rings     int    `json:"rings"`
	Crossings int    `json:"crossings"`
	Turns     int    `json:"turns"`
	// AllTurn reports whether the router supports every input/output turn
	// — the prerequisite for BFS rerouting and link-failure analysis.
	AllTurn bool `json:"all_turn"`
}

// Routers lists the built-in optical routers a spec may name —
// discovery parity with the CLI's 'phonocmap routers'.
func Routers() []RouterInfo {
	names := router.Names()
	out := make([]RouterInfo, 0, len(names))
	for _, name := range names {
		a, err := router.ByName(name)
		if err != nil {
			// Names and ByName are the same table; a mismatch is a bug.
			panic("scenario: router table inconsistent: " + err.Error())
		}
		out = append(out, RouterInfo{
			Name:      name,
			Rings:     a.RingCount(),
			Crossings: a.CrossingCount(),
			Turns:     len(a.SupportedTurns()),
			AllTurn:   router.CheckTurns(a, router.RequiredTurnsAll()) == nil,
		})
	}
	return out
}
