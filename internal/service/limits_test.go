package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"phonocmap/internal/cg"
	"phonocmap/internal/network"
	"phonocmap/internal/scenario"
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

// TestSimWindowCapped submits PIP jobs whose traffic simulation asks for
// a window above scenario.MaxSimDurationNs, which must be answered 400
// invalid_spec in the error envelope before any network is built, and
// one at the cap, which must be accepted and run.
func TestSimWindowCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := func(durationNs string) string {
		return `{"app":{"builtin":"PIP"},"budget":50,"analyses":{"sim":{"duration_ns":` + durationNs + `}}}`
	}
	for _, d := range []string{"1e15", fmt.Sprint(2 * scenario.MaxSimDurationNs)} {
		builds := network.BuildsTotal()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(job(d)))
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Errorf("duration %s: body is not an error envelope: %v", d, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
			t.Errorf("duration %s: got %d %q (%s), want 400 invalid_spec", d, resp.StatusCode, env.Error.Code, env.Error.Message)
		}
		if got := network.BuildsTotal() - builds; got != 0 {
			t.Errorf("duration %s: %d networks built for a rejected request", d, got)
		}
	}

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", json.RawMessage(job(fmt.Sprint(scenario.MaxSimDurationNs))), &st); code != http.StatusAccepted {
		t.Fatalf("a job at the cap was answered %d, want 202", code)
	}
	final, _ := pollUntil(t, ts.URL, st.ID, 60*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("a job at the cap finished %q (%s), want done", final.State, final.Error)
	}
}

// TestSimAdmission submits PIP jobs whose traffic simulation cannot run,
// or would simulate more than scenario.MaxSimPackets packets at its
// largest load point: each must be answered 400 invalid_spec in the
// error envelope before any network is built. A job whose simulation
// expects just under the cap must be accepted and run.
func TestSimAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	job := func(sim string) string {
		return `{"app":{"builtin":"PIP"},"budget":50,"analyses":{"sim":` + sim + `}}`
	}
	cases := []struct{ name, sim string }{
		{"negative packet size", `{"packet_bits":-1}`},
		{"warm-up past the window", `{"warmup_ns":2000,"duration_ns":1000}`},
		{"warm-up at the window", `{"warmup_ns":1000,"duration_ns":1000}`},
		{"negative warm-up", `{"warmup_ns":-1}`},
		{"negative line rate", `{"link_bandwidth_gbps":-40}`},
		{"negative setup latency", `{"setup_ns_per_hop":-1}`},
		{"tiny packets", `{"packet_bits":1e-6}`},
		{"packets over the cap", `{"packet_bits":40.96,"duration_ns":1e7}`},
		{"huge load scale", `{"load_scales":[1,1e6]}`},
	}
	for _, c := range cases {
		builds := network.BuildsTotal()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(job(c.sim)))
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

	// PIP's load scale that expects just under the cap over the longest
	// window at the default packet size (sim.Run's rates: MB/s to Gb/s),
	// below saturation, where a simulation at the cap is quick.
	app, err := cg.Builtin("PIP")
	if err != nil {
		t.Fatal(err)
	}
	gbps := 0.0
	for _, e := range app.Edges() {
		gbps += e.Bandwidth * 8 / 1000
	}
	load := scenario.MaxSimPackets * 4096 / (gbps * scenario.MaxSimDurationNs) * (1 - 1e-9)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", json.RawMessage(job(fmt.Sprintf(`{"duration_ns":%v,"load_scales":[%v]}`, float64(scenario.MaxSimDurationNs), load))), &st); code != http.StatusAccepted {
		t.Fatalf("a job just under the packet cap (load scale %v) was answered %d, want 202", load, code)
	}
	final, _ := pollUntil(t, ts.URL, st.ID, 120*time.Second, func(st JobStatus) bool { return st.State.Terminal() })
	if final.State != StateDone {
		t.Fatalf("a job just under the packet cap finished %q (%s), want done", final.State, final.Error)
	}
}
