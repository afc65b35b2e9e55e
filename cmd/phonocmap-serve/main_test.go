package main

import (
	"math"
	"testing"
)

// TestParseSize covers the -cache-disk-max parser at its boundaries: the
// empty and zero sizes (unbounded), negatives, each unit, the largest
// values that fit in an int64 and the smallest that overflow it once
// scaled, and malformed numbers.
func TestParseSize(t *testing.T) {
	tests := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{in: "", want: 0},
		{in: "0", want: 0},
		{in: "-1", wantErr: true},
		{in: "1B", want: 1},
		{in: "512MiB", want: 512 << 20},
		{in: "9223372036854775807", want: math.MaxInt64},
		{in: "8589934591GiB", want: 8589934591 << 30},
		{in: "8589934592GiB", wantErr: true},
		{in: "17179869185GiB", wantErr: true},
		{in: "9223372036854775807K", wantErr: true},
		{in: "1.5GiB", wantErr: true},
		{in: "GiB", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseSize(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tt.in, got)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tt.in, got, err, tt.want)
		}
	}
}
