package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchLines writes one `go test -bench -benchmem` line per value, the way
// repeated runs of one test binary append to a side's file.
func benchLines(name string, ns ...float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, "%s-2  \t    1000\t  %.0f ns/op\t       0 B/op\t       0 allocs/op\n", name, v)
	}
	return b.String()
}

func TestBenchdiff(t *testing.T) {
	const a, b, c = "BenchmarkA", "BenchmarkB", "BenchmarkC"
	for _, tc := range []struct {
		name       string
		base, head string
		wantCode   int
		// wantRow is A's "wins/pairs" column; want lists other output
		// substrings.
		wantRow string
		want    []string
	}{
		{
			name:     "clear win",
			base:     benchLines(a, 100, 102, 98, 101, 99, 100),
			head:     benchLines(a, 70, 71, 69, 72, 70, 71),
			wantCode: 0,
			wantRow:  "6/6",
			want:     []string{"0.705"},
		},
		{
			name:     "clear loss",
			base:     benchLines(a, 100, 101, 99, 100, 102, 98),
			head:     benchLines(a, 130, 131, 128, 132, 99, 130),
			wantCode: 1,
			wantRow:  "1/6",
			want:     []string{"REGRESSED"},
		},
		{
			// Head loses every pair, but by less than base's own spread.
			name:     "tie inside the IQR",
			base:     benchLines(a, 90, 110, 95, 105, 92, 108),
			head:     benchLines(a, 91, 111, 96, 106, 93, 109),
			wantCode: 0,
			wantRow:  "0/6",
		},
		{
			name:     "unequal round counts",
			base:     benchLines(a, 100, 101, 99, 100, 102, 98),
			head:     benchLines(a, 80, 81, 79, 80),
			wantCode: 0,
			wantRow:  "4/4",
			want:     []string{"BenchmarkA-2: 4 pairs; left out 2 base and 0 head rounds"},
		},
		{
			name:     "benchmark on one side only",
			base:     benchLines(a, 100, 101, 99) + benchLines(b, 5, 5, 5),
			head:     benchLines(a, 100, 100, 100) + benchLines(c, 7, 7, 7),
			wantCode: 0,
			wantRow:  "1/3",
			want:     []string{"only in base: BenchmarkB-2", "only in head: BenchmarkC-2"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runOn(t, tc.base, tc.head)
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d\n%s", code, tc.wantCode, out)
			}
			var rowA string
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, a+"-2 ") {
					rowA = line
				}
			}
			if !slices.Contains(strings.Fields(rowA), tc.wantRow) {
				t.Errorf("row %q lacks wins %q\n%s", rowA, tc.wantRow, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q\n%s", w, out)
				}
			}
		})
	}
}

func TestBenchdiffNothingShared(t *testing.T) {
	out, code := runOn(t, benchLines("BenchmarkA", 1, 2), benchLines("BenchmarkB", 1, 2))
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, out)
	}
}

func TestBenchdiffUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"only-one.txt"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.q1 != 2 || s.median != 3 || s.q3 != 4 {
		t.Errorf("summarize = %+v, want q1 2, median 3, q3 4", s)
	}
	s = summarize([]float64{1, 2, 3, 4})
	if s.q1 != 1.75 || s.median != 2.5 || s.q3 != 3.25 {
		t.Errorf("summarize = %+v, want q1 1.75, median 2.5, q3 3.25", s)
	}
}

// runOn writes the two sides to files and runs benchdiff on them,
// returning stdout and stderr together and the exit code.
func runOn(t *testing.T, base, head string) (string, int) {
	t.Helper()
	dir := t.TempDir()
	bp, hp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "head.txt")
	if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hp, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := run([]string{bp, hp}, &out, &out)
	return out.String(), code
}
