// benchdiff compares interleaved `go test -bench` rounds of two builds,
// a base and a head. Run both test binaries in alternation, each round
// appending to its side's file, then:
//
//	benchdiff base.txt head.txt
//
// Rounds are paired in order: the i-th result of a benchmark in the base
// file with its i-th result in the head file, extra rounds on either side
// left out. For every benchmark on both sides it prints each side's
// median ns/op with its quartiles, the ratio of the medians (head/base,
// below 1 when head is faster) and the pairs head won (ties count for
// neither). Benchmarks on one side only are listed apart.
//
// It exits 1 when some benchmark regressed: head lost at least N−1 of N
// pairs (and at least one) and its median is slower than base's by more
// than base's interquartile range. Pairing in time order and asking for
// both keeps a host whose speed drifts within minutes from failing the
// check on its own. Exit 2 is a usage or input error, including inputs
// that share no benchmark.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"phonocmap/lint/benchparse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff base.txt head.txt")
		return 2
	}
	var sides [2][]benchparse.Result
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		sides[i], err = benchparse.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: %v\n", path, err)
			return 2
		}
	}
	rows, baseOnly, headOnly := compare(sides[0], sides[1])
	if len(rows) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no benchmark with ns/op on both sides (%d base, %d head results)\n", len(sides[0]), len(sides[1]))
		return 2
	}
	regressed := write(stdout, rows, baseOnly, headOnly)
	if regressed {
		return 1
	}
	return 0
}

// row is one benchmark's comparison over its paired rounds.
type row struct {
	name       string
	base, head summary
	// pairs is the number of paired rounds; wins and losses count the
	// pairs where head was faster or slower.
	pairs, wins, losses int
	// extra is the rounds one side had beyond the paired ones.
	extraBase, extraHead int
}

// summary is one side's ns/op over the paired rounds.
type summary struct{ q1, median, q3 float64 }

// ratio is head's median over base's.
func (r row) ratio() float64 { return r.head.median / r.base.median }

// regressed is the failing rule: head lost at least N−1 of N pairs (and
// at least one), and its median is slower than base's by more than
// base's interquartile range.
func (r row) regressed() bool {
	return r.losses >= max(r.pairs-1, 1) && r.head.median-r.base.median > r.base.q3-r.base.q1
}

// compare pairs each benchmark's rounds in order and summarizes them, in
// the order benchmarks first appear in base. Results without ns/op are
// ignored.
func compare(base, head []benchparse.Result) (rows []row, baseOnly, headOnly []string) {
	baseNs, baseOrder := rounds(base)
	headNs, headOrder := rounds(head)
	for _, name := range baseOrder {
		h, ok := headNs[name]
		if !ok {
			baseOnly = append(baseOnly, name)
			continue
		}
		b := baseNs[name]
		n := min(len(b), len(h))
		r := row{name: name, pairs: n, extraBase: len(b) - n, extraHead: len(h) - n}
		for i := 0; i < n; i++ {
			switch {
			case h[i] < b[i]:
				r.wins++
			case h[i] > b[i]:
				r.losses++
			}
		}
		r.base, r.head = summarize(b[:n]), summarize(h[:n])
		rows = append(rows, r)
	}
	for _, name := range headOrder {
		if _, ok := baseNs[name]; !ok {
			headOnly = append(headOnly, name)
		}
	}
	return rows, baseOnly, headOnly
}

// rounds collects each benchmark's ns/op values in input order.
func rounds(results []benchparse.Result) (map[string][]float64, []string) {
	ns := make(map[string][]float64)
	var order []string
	for _, r := range results {
		if r.NsPerOp < 0 {
			continue
		}
		if _, ok := ns[r.Name]; !ok {
			order = append(order, r.Name)
		}
		ns[r.Name] = append(ns[r.Name], r.NsPerOp)
	}
	return ns, order
}

// summarize returns the quartiles of xs, interpolating linearly between
// the closest ranks.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := math.Floor(pos)
		hi := math.Ceil(pos)
		return s[int(lo)] + (s[int(hi)]-s[int(lo)])*(pos-lo)
	}
	return summary{q1: q(0.25), median: q(0.5), q3: q(0.75)}
}

// write prints the table and reports whether any row regressed.
func write(w io.Writer, rows []row, baseOnly, headOnly []string) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbase median [q1, q3]\thead median [q1, q3]\thead/base\thead wins\t")
	for _, r := range rows {
		verdict := ""
		if r.regressed() {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%d/%d\t%s\n", r.name, r.base, r.head, r.ratio(), r.wins, r.pairs, verdict)
	}
	tw.Flush()
	for _, r := range rows {
		if r.extraBase > 0 || r.extraHead > 0 {
			fmt.Fprintf(w, "%s: %d pairs; left out %d base and %d head rounds\n", r.name, r.pairs, r.extraBase, r.extraHead)
		}
	}
	for _, name := range baseOnly {
		fmt.Fprintf(w, "only in base: %s\n", name)
	}
	for _, name := range headOnly {
		fmt.Fprintf(w, "only in head: %s\n", name)
	}
	return regressed
}

func (s summary) String() string {
	return fmt.Sprintf("%s [%s, %s]", duration(s.median), duration(s.q1), duration(s.q3))
}

// duration formats ns/op in a unit that keeps it readable.
func duration(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.1fns", ns)
	}
}
