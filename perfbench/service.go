package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phonocmap"
	"phonocmap/client"
	"phonocmap/internal/service"
)

const (
	serviceWorkers = 2
	serviceClients = 2
	// missBudget is every request's evaluation budget: the search is
	// cheap here, the time goes to the service around it.
	missBudget = 300
	// hitsPerMiss fixes the share of fresh keys: one miss in every
	// hitsPerMiss+1 requests, at a seeded position.
	hitsPerMiss = 10
	// hitSeedsPerTemplate is how many keys of each template the set-up
	// prefills; hits repeat them.
	hitSeedsPerTemplate = 2
	// minMisses keeps the miss p90 at least ten samples from the end.
	minMisses = 110
	// freshSeedBase splits the seed space: prefilled keys draw their
	// seeds below it and fresh keys count up from it, so no fresh key can
	// repeat a prefilled one.
	freshSeedBase = 1_000_000
)

// missTemplate is one kind of request: small bundled applications at a
// small budget, together asking for every analysis kind and using every
// searcher family (rs full evaluations, ga batch reseats, rpbla, tabu and
// sa incremental swaps). Multi-second outliers (DVOPD link failures,
// 50-sample robustness) are left out.
// Misses are stratified: every run of len(missTemplates) consecutive
// misses uses each template once, in a seeded order, so the latency mix
// is the same at every seed.
type missTemplate struct {
	name     string
	app      string
	router   string
	algo     string
	analyses *phonocmap.AnalysesSpec
}

var missTemplates = []missTemplate{
	{"sim", "263enc_mp3enc", "", "ga", &phonocmap.AnalysesSpec{Sim: &phonocmap.SimSpec{}}},
	{"wdm+power", "PIP", "", "rs", &phonocmap.AnalysesSpec{WDM: &phonocmap.WDMSpec{}, Power: &phonocmap.PowerSpec{}}},
	{"wdm+sim", "263dec_mp3dec", "", "tabu", &phonocmap.AnalysesSpec{WDM: &phonocmap.WDMSpec{}, Sim: &phonocmap.SimSpec{}}},
	// Link-failure studies need an all-turn router.
	{"link_failures", "PIP", "cygnus", "rpbla", &phonocmap.AnalysesSpec{LinkFailures: &phonocmap.LinkFailuresSpec{}}},
	{"robustness", "MWD", "", "sa", &phonocmap.AnalysesSpec{Robustness: &phonocmap.RobustnessSpec{Samples: 8}}},
}

func (t missTemplate) spec(seed int64) phonocmap.Scenario {
	return phonocmap.Scenario{
		App:       phonocmap.AppSpec{Builtin: t.app},
		Arch:      phonocmap.ArchSpec{Router: t.router},
		Objective: "snr",
		Algorithm: t.algo,
		Budget:    missBudget,
		Seed:      seed,
		Analyses:  t.analyses,
	}
}

// request is one entry of the seeded request sequence.
type request struct {
	hit  int   // index into the prefilled hit set; -1 for a fresh key
	tmpl int   // the fresh key's template
	seed int64 // the fresh key's search seed
}

// sequence generates the seeded request sequence, shared by the clients.
type sequence struct {
	mu       sync.Mutex
	rng      *rand.Rand
	hitSet   int
	block    []request
	order    []int
	nextSeed int64
}

func newSequence(seed int64, hitSet int) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), hitSet: hitSet, nextSeed: freshSeedBase}
}

// next returns the next request: blocks of hitsPerMiss hits and one
// fresh key at a seeded position.
func (s *sequence) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		miss := s.rng.Intn(hitsPerMiss + 1)
		for i := 0; i <= hitsPerMiss; i++ {
			if i != miss {
				s.block = append(s.block, request{hit: s.rng.Intn(s.hitSet)})
				continue
			}
			if len(s.order) == 0 {
				s.order = s.rng.Perm(len(missTemplates))
			}
			s.block = append(s.block, request{hit: -1, tmpl: s.order[0], seed: s.nextSeed})
			s.order = s.order[1:]
			s.nextSeed++
		}
	}
	r := s.block[0]
	s.block = s.block[1:]
	return r
}

// hitKey is one prefilled key with the exact bytes its filling miss
// returned.
type hitKey struct {
	spec  phonocmap.Scenario
	key   string
	bytes []byte
	res   phonocmap.RunnerScenarioResult
}

// outcome is one request of a timed phase. Phases keep the outcomes of
// failed requests and fresh keys, and traced phases those of every
// request; untraced phases keep only a repeated key's latency, so the
// benchmark's own memory does not grow with the hits a phase completes.
type outcome struct {
	req     request
	latency float64 // ms, client-observed
	info    *callInfo
	miss    *missResult // fresh keys only
}

// missResult is what the checks and replays need of a fresh key's
// result.
type missResult struct {
	arch       phonocmap.ArchSpec // normalized
	mapping    phonocmap.Mapping
	score      phonocmap.Score
	evals      int
	durationMs float64
	// network instances its analyses built: robustness samples, link cuts
	samples, cuts int
}

func newMissResult(res phonocmap.RunnerScenarioResult) *missResult {
	m := &missResult{arch: res.Spec.Arch, mapping: res.Mapping, score: res.Score, evals: res.Evals, durationMs: res.DurationMs}
	if rep := res.Report; rep != nil {
		if rep.Robustness != nil {
			m.samples = rep.Robustness.Samples
		}
		if rep.LinkFailures != nil {
			m.cuts = rep.LinkFailures.Cuts
		}
	}
	return m
}

// search returns a fresh key's search as a call: its evaluations over
// the search time the server measured and returned (duration_ms).
func (o outcome) search() call {
	return call{algo: missTemplates[o.req.tmpl].algo,
		rate: rate{work: o.miss.evals, wall: time.Duration(o.miss.durationMs * float64(time.Millisecond)), cores: 1}}
}

// clientLog is what one client saw in a timed phase.
type clientLog struct {
	hitLat, missLat []float64
	kept            []outcome
	mismatches      []string // repeated keys' failed checks
}

type svc struct {
	dir       string
	srv       *service.Server
	hs        *http.Server
	serveDone chan error
	transport *http.Transport
	probe     *probe
	base      string
	clients   []*client.Client
	// admin serves the benchmark's own GET /v1/cache calls on a
	// connection of its own, so they never wait behind the load.
	admin   *http.Client
	seq     *sequence
	hits    []hitKey
	nextReq atomic.Int64
	stopped bool

	misses []outcome // every phase's fresh-key outcomes, for verification
	// traced-phase observations for the layer report
	traced      []outcome
	tracedWall  time.Duration
	tracedOps   int
	cacheBefore service.CacheStats
	cacheAfter  service.CacheStats
	pendingMax  int64
	clientDelta client.Metrics
}

// setupService boots the server on a loopback listener with a file store
// in a fresh directory and prefills the hit set through the clients.
func setupService(o options) (instance, error) {
	if err := os.MkdirAll(o.tmpdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpdir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := phonocmap.OpenFileStore(dir, phonocmap.FileStoreOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &svc{
		dir:       dir,
		srv:       service.New(service.Config{Workers: serviceWorkers, EvalWorkers: 1, Store: st}),
		serveDone: make(chan error, 1),
		seq:       newSequence(o.seed, len(missTemplates)*hitSeedsPerTemplate),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	s.transport = &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}
	s.probe = &probe{base: s.transport}
	s.admin = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	for i := 0; i < serviceClients; i++ {
		c, err := client.New(s.base, client.WithHTTPClient(&http.Client{Transport: s.probe}))
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	if err := s.prefill(o.seed ^ 0x5eed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// prefill runs every hit-set key once, split over the clients, and keeps
// the exact bytes each returned.
func (s *svc) prefill(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	for _, tmpl := range missTemplates {
		for k := 0; k < hitSeedsPerTemplate; k++ {
			hs := 1 + rng.Int63n(freshSeedBase-1)
			for seen[hs] {
				hs = 1 + rng.Int63n(freshSeedBase-1)
			}
			seen[hs] = true
			s.hits = append(s.hits, hitKey{spec: tmpl.spec(hs)})
		}
	}
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for i := ci; i < len(s.hits); i += len(s.clients) {
				h := &s.hits[i]
				info := &callInfo{req: s.nextReq.Add(1), root: -1}
				res, err := c.RunScenario(withCall(context.Background(), info), h.spec)
				if err != nil {
					errs[ci] = fmt.Errorf("prefill %d: %w", i, err)
					return
				}
				if info.cached() {
					errs[ci] = fmt.Errorf("prefill %d came back cached on a fresh server", i)
					return
				}
				if res.Evals != missBudget {
					errs[ci] = fmt.Errorf("prefill %d spent %d evaluations of its budget %d", i, res.Evals, missBudget)
					return
				}
				b, err := json.Marshal(res)
				if err != nil {
					errs[ci] = err
					return
				}
				h.key, h.bytes, h.res = res.Spec.Key(), b, res
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *svc) phase(seconds float64, tr *tracer, m, r *report) (work, error) {
	limit := time.Duration(seconds * float64(time.Second))
	metricsBefore := s.clientMetrics()
	var stopSampler func() int64
	if tr != nil {
		var err error
		if s.cacheBefore, err = s.cacheStats(); err != nil {
			return work{}, err
		}
		stopSampler = s.samplePending()
	}
	s.probe.tr = tr
	root := tr.begin("service.timed", -1, 0)

	var misses atomic.Int64
	logs := make([]clientLog, len(s.clients))
	var wg sync.WaitGroup
	stopPeaks := samplePeaks(time.Second)
	g0, c0 := readGoStats(), readClock()
	for ci, c := range s.clients {
		wg.Add(1)
		go func(l *clientLog, c *client.Client) {
			defer wg.Done()
			for {
				elapsed := time.Since(c0.wall)
				if elapsed >= limit && (misses.Load() >= minMisses || elapsed >= 4*limit) {
					return
				}
				req := s.seq.next()
				spec := s.requestSpec(req)
				info := &callInfo{req: s.nextReq.Add(1)}
				info.root = tr.begin("client.RunScenario", root, info.req)
				t0 := time.Now()
				res, err := c.RunScenario(withCall(context.Background(), info), spec)
				o := outcome{req: req, latency: ms(time.Since(t0)), info: info}
				tr.end(info.root)
				switch {
				case err != nil:
					info.err = err
					l.kept = append(l.kept, o)
				case req.hit >= 0:
					l.hitLat = append(l.hitLat, o.latency)
					if msg := s.checkHit(req.hit, info, res); msg != "" {
						l.mismatches = append(l.mismatches, fmt.Sprintf("repeated key %d: %s", req.hit, msg))
					}
					if tr != nil {
						l.kept = append(l.kept, o)
					}
				default:
					misses.Add(1)
					l.missLat = append(l.missLat, o.latency)
					o.miss = newMissResult(res)
					l.kept = append(l.kept, o)
				}
			}
		}(&logs[ci], c)
	}
	wg.Wait()
	cores := busyCores(serviceClients)
	jobs := c0.since(cores)
	done := work{gc: readGoStats().since(g0)}
	rss := stopPeaks()
	tr.end(root)
	s.probe.tr = nil

	var kept []outcome
	var hitLat, missLat []float64
	for _, l := range logs {
		kept = append(kept, l.kept...)
		hitLat = append(hitLat, l.hitLat...)
		missLat = append(missLat, l.missLat...)
		for _, msg := range l.mismatches {
			r.fail("%s", msg)
		}
	}
	failed := 0
	for _, o := range kept {
		switch {
		case o.info.err != nil:
			failed++
			r.fail("request %d: %v", o.info.req, o.info.err)
		case o.miss != nil:
			t := missTemplates[o.req.tmpl]
			r.check(!o.info.cached(), "fresh key %s seed %d came back cached", t.name, o.req.seed)
			r.check(o.miss.evals == missBudget, "fresh key %s seed %d spent %d evaluations of its budget %d",
				t.name, o.req.seed, o.miss.evals, missBudget)
			s.misses = append(s.misses, o)
		}
	}
	done.ops = len(hitLat) + len(missLat)
	r.ops(done.ops+failed, failed)
	metricsAfter := s.clientMetrics()
	r.check(metricsAfter.Retries == metricsBefore.Retries, "client retried %d times", metricsAfter.Retries-metricsBefore.Retries)

	jobs.work = done.ops
	m.add("jobs_per_s", jobs.perSecond(), "jobs/s",
		fmt.Sprintf("%d requests (%d hits, %d misses) in %.2f s, %.2f s stolen over %d cores; %.1f per wall second, %.1f per CPU-second",
			done.ops, len(hitLat), len(missLat), jobs.wall.Seconds(), jobs.steal.Seconds(), cores, jobs.perWallSecond(), jobs.perCPUSecond()))
	var searches []call
	evals := jobs
	evals.work = 0
	for _, o := range kept {
		if o.miss != nil {
			searches = append(searches, o.search())
			evals.work += o.miss.evals
		}
	}
	m.add("evals_per_s", evals.perSecond(), "evals/s",
		fmt.Sprintf("the fresh keys' %d evaluations per second of the phase, as jobs_per_s", evals.work))
	// The server times each search by wall clock; like jobs_per_s, the
	// family rates leave out the share of the phase the hypervisor stole.
	share := float64(jobs.effective()) / float64(jobs.wall)
	fam := sumBy(searches, familyOf)
	for _, f := range familyNames {
		r.check(fam[f].work > 0, "no fresh key ran a %s-family search", f)
		m.add(f+"_evals_per_s", fam[f].perWallSecond()/share, "evals/s",
			fmt.Sprintf("the family's fresh keys: %d evals over the %.3f s of search the server measured (duration_ms), less %.1f %% stolen",
				fam[f].work, fam[f].wall.Seconds(), 100*(1-share)))
	}
	// Wall-clock latencies follow the host's CPU steal, so they are
	// printed for the reader but are not result metrics.
	for _, p := range []struct {
		name    string
		samples []float64
		pct     float64
	}{
		{"miss_ms_p50", missLat, 50}, {"miss_ms_p90", missLat, 90},
		{"hit_ms_p50", hitLat, 50}, {"hit_ms_p90", hitLat, 90},
	} {
		m.addPercentile(p.name, p.samples, p.pct, "ms")
	}
	if err := rss.report(m, "seconds"); err != nil {
		return done, err
	}
	r.logf("digest service %s (%d prefilled keys)", s.digest(), len(s.hits))

	if tr != nil {
		s.pendingMax = stopSampler()
		var err error
		if s.cacheAfter, err = s.cacheStats(); err != nil {
			return done, err
		}
		s.traced, s.tracedWall, s.tracedOps = kept, jobs.wall, done.ops
		s.clientDelta = client.Metrics{
			Retries:      metricsAfter.Retries - metricsBefore.Retries,
			SSEFallbacks: metricsAfter.SSEFallbacks - metricsBefore.SSEFallbacks,
			PollRounds:   metricsAfter.PollRounds - metricsBefore.PollRounds,
		}
	}
	return done, nil
}

// requestSpec resolves a sequence entry to the scenario it submits.
func (s *svc) requestSpec(req request) phonocmap.Scenario {
	if req.hit >= 0 {
		return s.hits[req.hit].spec
	}
	return missTemplates[req.tmpl].spec(req.seed)
}

// checkHit requires a repeated key to come back cached and byte for byte
// equal to the result of the miss that filled it; it returns what was
// wrong, or "".
func (s *svc) checkHit(hit int, info *callInfo, res phonocmap.RunnerScenarioResult) string {
	if !info.cached() {
		return "came back uncached"
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(b, s.hits[hit].bytes) {
		return "returned bytes that differ from the miss that filled it"
	}
	return ""
}

// digest fingerprints the prefilled keys' results.
func (s *svc) digest() string {
	d := newDigest()
	for _, h := range s.hits {
		d.add(h.key, h.res.Mapping, h.res.Score, h.res.Evals)
	}
	return d.sum()
}

func (s *svc) clientMetrics() client.Metrics {
	var sum client.Metrics
	for _, c := range s.clients {
		m := c.Metrics()
		sum.Retries += m.Retries
		sum.SSEFallbacks += m.SSEFallbacks
		sum.PollRounds += m.PollRounds
	}
	return sum
}

func (s *svc) cacheStats() (service.CacheStats, error) {
	var st service.CacheStats
	resp, err := s.admin.Get(s.base + "/v1/cache")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/cache: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// samplePeaks records the peak RSS of every `every` of a phase until the
// returned function is called, which ends the last chunk.
func samplePeaks(every time.Duration) func() *peaks {
	p := &peaks{}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.start()
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				p.stop()
				return
			case <-tick.C:
				p.stop()
				p.start()
			}
		}
	}()
	return func() *peaks {
		close(stop)
		<-done
		return p
	}
}

// samplePending polls the store's write-behind backlog until the
// returned function is called, which returns the largest value seen.
func (s *svc) samplePending() func() int64 {
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				if st, err := s.cacheStats(); err == nil && st.Store != nil && st.Store.Pending > peak {
					peak = st.Store.Pending
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

// verify re-scores every fresh key's winning mapping.
func (s *svc) verify(r *report) {
	v := newVerifier()
	for _, o := range s.misses {
		t := missTemplates[o.req.tmpl]
		if err := v.verify(t.spec(o.req.seed), o.miss.mapping, o.miss.score); err != nil {
			r.fail("fresh key %s seed %d does not re-score: %v", t.name, o.req.seed, err)
		}
	}
	for i, h := range s.hits {
		if err := v.verify(h.res.Spec, h.res.Mapping, h.res.Score); err != nil {
			r.fail("prefilled key %d does not re-score: %v", i, err)
		}
	}
}

// stop shuts the server down (draining the store's write-behind backlog)
// and the listener.
func (s *svc) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if s.hs != nil {
		if herr := s.hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-s.serveDone; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.admin != nil {
		s.admin.CloseIdleConnections()
	}
	return err
}

func (s *svc) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// callKey carries a RunScenario call's record to the transport.
type callKey struct{}

// callInfo is what the transport saw of one RunScenario call.
type callInfo struct {
	req  int64 // request id, one per RunScenario call
	root int   // the call's span, -1 untraced
	err  error

	submitStatus int // HTTP status of POST /v1/jobs: 200 replayed, 202 queued
	// traced calls only
	submitMs     float64       // POST /v1/jobs round trip
	terminal     []byte        // the last job status the client read
	terminalSeen time.Duration // when the client finished reading it
	resultMs     float64       // GET /v1/jobs/{id}/result round trip
	resultBytes  int
}

// cached reports whether the server answered the submission from its
// result cache (HTTP 200 with the job already done).
func (c *callInfo) cached() bool { return c.submitStatus == http.StatusOK }

func withCall(ctx context.Context, c *callInfo) context.Context {
	return context.WithValue(ctx, callKey{}, c)
}

// probe is the clients' http.RoundTripper: it records each submission's
// status code, and in traced phases a span per HTTP round trip (ended
// when the client closes the body) with the bodies the server-side
// phases are read from.
type probe struct {
	base http.RoundTripper
	tr   *tracer // set between phases, never during one
}

func (p *probe) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(callKey{}).(*callInfo)
	kind := routeKind(req)
	sp := -1
	var start time.Duration
	if p.tr != nil {
		start = p.tr.now()
	}
	if info != nil {
		sp = p.tr.begin("http."+kind, info.root, info.req)
	}
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		p.tr.end(sp)
		return resp, err
	}
	if info != nil && kind == "submit" {
		info.submitStatus = resp.StatusCode
	}
	if p.tr != nil && info != nil {
		resp.Body = &tracedBody{ReadCloser: resp.Body, tr: p.tr, span: sp, start: start, info: info, kind: kind}
	}
	return resp, nil
}

// routeKind names the API call a request makes.
func routeKind(req *http.Request) string {
	path := req.URL.Path
	switch {
	case req.Method == http.MethodPost && path == "/v1/jobs":
		return "submit"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case req.Method == http.MethodGet:
		return "status"
	default:
		return req.Method
	}
}

// tracedBody ends its round trip's span when the client closes it, and
// keeps the status bodies the server-side phases are read from.
type tracedBody struct {
	io.ReadCloser
	tr    *tracer
	span  int
	start time.Duration
	info  *callInfo
	kind  string
	buf   bytes.Buffer
	n     int
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	if b.kind != "result" {
		b.buf.Write(p[:n])
	}
	return n, err
}

// Close runs on the calling client's goroutine, before RunScenario
// returns, so the call's record needs no lock.
func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.tr.end(b.span)
	took := ms(b.tr.now() - b.start)
	switch b.kind {
	case "result":
		b.info.resultMs, b.info.resultBytes = took, b.n
		return err
	case "submit":
		b.info.submitMs = took
	}
	// A fast job can already be done in the submission's own response,
	// and then no event stream follows: the latest status read wins.
	if last := lastEvent(b.buf.Bytes()); last != nil {
		b.info.terminal, b.info.terminalSeen = last, b.tr.now()
	}
	return err
}

// lastEvent returns the last status in a body: the data of the last SSE
// event, or the body itself when it is a plain JSON status.
func lastEvent(body []byte) []byte {
	var last []byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if d, ok := bytes.CutPrefix(line, []byte("data:")); ok {
			last = bytes.TrimSpace(d)
		}
	}
	if last == nil && len(bytes.TrimSpace(body)) > 0 && body[0] == '{' {
		last = bytes.TrimSpace(body)
	}
	return last
}
