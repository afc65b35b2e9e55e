// Package store persists completed optimization results across process
// restarts. The paper's equal-budget protocol makes every run a pure
// function of its scenario spec, and every spec has a canonical-JSON
// content address (scenario.Spec.Key), so a completed result never goes
// stale: a persistent content-addressed store turns node restarts and
// fleet redeployments into cache hits instead of recomputed sweeps.
//
// A Store holds the full cached payload of a run — the winning
// core.RunResult, its improvement trace, the per-island evaluation
// breakdown and the analysis report — in a versioned canonical-JSON
// encoding, so a replay from disk is byte-identical to the live run it
// preserves. Two implementations ship: Null (drops everything; the
// default when no persistence is configured) and File (one fsynced file
// per key under a sharded content-addressed directory layout, written
// atomically, with corrupt entries quarantined instead of served).
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"phonocmap/internal/core"
	"phonocmap/internal/scenario"
)

// Version is the on-disk encoding version. Decoding rejects any other
// version, so a future incompatible Entry change bumps this constant and
// old files are quarantined instead of misread. Version 2: a link-failure
// report counts a cut as unreachable only when it disconnects a mapped
// communication; version-1 entries may count cuts that isolate an unused
// tile, so they are recomputed instead of served.
const Version = 2

// Entry is the full cached payload of one completed optimization run,
// keyed by its spec's content address — exactly what the service's
// in-memory result cache holds per key, so a disk hit replays the same
// bytes a live-run cache hit would.
type Entry struct {
	// Key is the spec's content address (scenario.Spec.Key). It is
	// stored inside the payload too, so a file that was renamed or
	// cross-linked to the wrong key is detected as corrupt.
	Key string `json:"key"`
	// Result is the winning run, verbatim (including its wall-clock
	// Duration — replays report the original run's timing).
	Result core.RunResult `json:"result"`
	// Trace is the improvement timeline of the live run.
	Trace []scenario.TraceEvent `json:"trace,omitempty"`
	// IslandEvals is the per-island evaluation breakdown (one entry per
	// seed of the spec).
	IslandEvals []int `json:"island_evals,omitempty"`
	// Report is the post-optimization analysis report, nil when the spec
	// requested no analyses.
	Report *scenario.Report `json:"report,omitempty"`
}

// Store is a persistent content-addressed result store. Implementations
// must be safe for concurrent use.
type Store interface {
	// Get returns the entry for key. ok is false on a miss; a non-nil
	// error means the lookup itself failed (e.g. the entry existed but
	// was corrupt and has been quarantined) — callers treat that as a
	// miss and count the error.
	Get(key string) (e Entry, ok bool, err error)
	// Put persists an entry under key, replacing any previous one.
	Put(key string, e Entry) error
	// Keys lists the stored keys, most recently written first (ties
	// broken by key, so the order is deterministic) — the order boot-time
	// cache warming consumes.
	Keys() []string
	// Delete removes the entry for key; deleting a missing key is not an
	// error.
	Delete(key string) error
	// Len reports the number of stored entries.
	Len() int
	// Close releases the store. Operations after Close fail with
	// ErrClosed; Close itself is idempotent.
	Close() error
}

// Stats describes a store's size and lifetime maintenance counters.
// Implementations without a meaningful notion of size report zeros.
type Stats struct {
	// Entries and Bytes are the store's current size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Evictions counts entries removed by the size cap (oldest-mtime
	// first); Quarantined counts corrupt entries moved aside instead of
	// served.
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
}

// StatReader is the optional stats surface of a Store; the service's
// /metrics and /v1/cache endpoints read it when present.
type StatReader interface {
	Stats() Stats
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// errCorrupt tags decode failures so File can distinguish "entry is
// damaged, quarantine it" from I/O errors.
type errCorrupt struct{ reason string }

func (e errCorrupt) Error() string { return "store: corrupt entry: " + e.reason }

// header is the first line of every entry file:
//
//	phonocmap-store v<version> <sha256-hex-of-payload> <payload-bytes>\n
//
// followed by the payload (the entry's canonical JSON). The checksum and
// length make truncated or bit-rotted files detectable without trusting
// the JSON decoder to notice.
const headerMagic = "phonocmap-store"

// encode renders an entry into its on-disk representation.
func encode(e Entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("store: encode entry: %w", err)
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s v%d %s %d\n", headerMagic, Version, hex.EncodeToString(sum[:]), len(payload))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// decode parses and verifies an on-disk entry. Every failure mode —
// short header, unknown version, length or checksum mismatch, JSON
// damage — comes back as errCorrupt.
func decode(b []byte) (Entry, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return Entry{}, errCorrupt{"missing header"}
	}
	fields := bytes.Fields(b[:nl])
	if len(fields) != 4 || string(fields[0]) != headerMagic {
		return Entry{}, errCorrupt{"malformed header"}
	}
	if v := string(fields[1]); v != "v"+strconv.Itoa(Version) {
		return Entry{}, errCorrupt{"unsupported version " + v}
	}
	wantLen, err := strconv.Atoi(string(fields[3]))
	if err != nil {
		return Entry{}, errCorrupt{"bad length field"}
	}
	payload := b[nl+1:]
	if len(payload) != wantLen {
		return Entry{}, errCorrupt{fmt.Sprintf("payload is %d bytes, header says %d", len(payload), wantLen)}
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[2]) {
		return Entry{}, errCorrupt{"checksum mismatch"}
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return Entry{}, errCorrupt{"payload: " + err.Error()}
	}
	return e, nil
}
