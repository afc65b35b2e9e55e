package scenario

import (
	"context"
	"errors"
	"testing"
	"time"

	"phonocmap/internal/config"
)

// execute compiles spec and runs it to completion through Execute.
func execute(spec Spec) (Outcome, error) {
	c, err := Compile(spec)
	if err != nil {
		return Outcome{}, err
	}
	return c.Execute(context.Background(), nil)
}

// TestExecuteRecordsProgress: the outcome carries the tracer's record —
// improvements in arrival order ending at the winning score, and one
// final evaluation count per island — and a caller's tracer sees the
// same record.
func TestExecuteRecordsProgress(t *testing.T) {
	c, err := Compile(Spec{App: config.AppSpec{Builtin: "PIP"}, Algorithm: "rs", Budget: 300, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(c.Spec.Seeds)
	out, err := c.Execute(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.IslandEvals) != 2 || out.IslandEvals[0] != 300 || out.IslandEvals[1] != 300 {
		t.Errorf("island evals %v, want [300 300]", out.IslandEvals)
	}
	if len(out.Events) == 0 {
		t.Fatal("no improvements recorded")
	}
	if _, best, ok := tr.Progress(); !ok || best != out.Run.Score {
		t.Errorf("tracer best %v, want the winning score %v", best, out.Run.Score)
	}
	if got := tr.Events(); len(got) != len(out.Events) {
		t.Errorf("tracer holds %d events, outcome %d", len(got), len(out.Events))
	}
	trace := out.Trace()
	if len(trace.Islands) != 2 || trace.Islands[0].Evals != 300 {
		t.Errorf("trace islands %+v", trace.Islands)
	}
	if trace.DurationMs != float64(out.Run.Duration)/float64(time.Millisecond) {
		t.Errorf("trace duration %v, want the run's %v", trace.DurationMs, out.Run.Duration)
	}
}

// TestExecuteCancelledRunSkipsAnalyses is the one cancellation policy: a
// search stopped by its context keeps its best-so-far mapping but gets
// no report, and a search stopped before its first evaluation is an
// error wrapping the context's.
func TestExecuteCancelledRunSkipsAnalyses(t *testing.T) {
	c, err := Compile(Spec{
		App:       config.AppSpec{Builtin: "VOPD"},
		Algorithm: "rs",
		Budget:    50_000_000,
		Analyses:  &AnalysesSpec{WDM: &WDMSpec{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tr := NewTracer(1)
	done := make(chan struct{})
	var out Outcome
	go func() {
		defer close(done)
		out, err = c.Execute(ctx, tr)
	}()
	for _, _, ok := tr.Progress(); !ok; _, _, ok = tr.Progress() {
		select {
		case <-done:
			t.Fatalf("run ended before its first improvement: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !out.Run.Cancelled || out.Run.Mapping == nil {
		t.Fatalf("run after cancel: cancelled=%v mapping=%v", out.Run.Cancelled, out.Run.Mapping)
	}
	if out.Report != nil {
		t.Errorf("cancelled run carries a report: %+v", out.Report)
	}

	if _, err := c.Execute(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("search cancelled before its first evaluation returned %v, want context.Canceled", err)
	}
}
