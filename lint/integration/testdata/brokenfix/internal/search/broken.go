// Package search deliberately violates a phonocmap-lint contract: it
// leaks map iteration order into a slice. The integration test asserts
// the multichecker fails this module.
package search

// Keys leaks map iteration order into the returned slice.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
