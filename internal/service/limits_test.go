package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"phonocmap/internal/network"
)

// TestArchitectureOverTileCapRejected submits jobs and a sweep whose
// architecture is above the tile cap: each must be answered invalid_spec
// before any network is built, whether the grid is explicit, a ring, or
// auto-sized for a large custom application.
func TestArchitectureOverTileCapRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tasks := make([]string, maxTiles+1)
	for i := range tasks {
		tasks[i] = fmt.Sprintf(`"t%d"`, i)
	}
	cases := []struct{ name, path, body string }{
		{"mesh", "/v1/jobs", `{"app":{"builtin":"PIP"},"arch":{"width":9,"height":9}}`},
		{"overflowing mesh", "/v1/jobs", `{"app":{"builtin":"PIP"},"arch":{"width":4611686018427387904,"height":4}}`},
		{"ring", "/v1/jobs", `{"app":{"builtin":"PIP"},"arch":{"topology":"ring","tiles":65,"router":"cygnus","routing":"bfs"}}`},
		{"auto-sized custom app", "/v1/jobs",
			`{"app":{"name":"big","tasks":[` + strings.Join(tasks, ",") + `],"edges":[{"src":"t0","dst":"t1","bandwidth":1}]}}`},
		{"sweep cell", "/v1/sweeps", `{"apps":[{"builtin":"PIP"}],"archs":[{"width":3,"height":3},{"width":9,"height":9}],"budgets":[100]}`},
	}
	for _, c := range cases {
		builds := network.BuildsTotal()
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s: body is not an error envelope: %v", c.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
			t.Errorf("%s: got %d %q (%s), want 400 invalid_spec", c.name, resp.StatusCode, env.Error.Code, env.Error.Message)
		}
		if got := network.BuildsTotal() - builds; got != 0 {
			t.Errorf("%s: %d networks built for a rejected request", c.name, got)
		}
	}
}
