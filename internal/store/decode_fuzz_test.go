package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecode feeds decode the bytes of an entry file. With wrap set, the
// bytes are a payload and get a correct header first (magic, version,
// checksum, length), so the fuzzer reaches the JSON decoding behind the
// header checks. decode must never panic, every error it returns must be
// errCorrupt (the kind File quarantines), and an entry it accepts must
// encode and decode back to an equal entry. Its seed corpus is in
// testdata/fuzz.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, wrap bool, b []byte) {
		if wrap {
			b = withHeader(b)
		}
		e, err := decode(b)
		if err != nil {
			if _, ok := err.(errCorrupt); !ok {
				t.Fatalf("decode error %v is not errCorrupt", err)
			}
			return
		}
		again, err := encode(e)
		if err != nil {
			t.Fatalf("encoding a decoded entry: %v", err)
		}
		back, err := decode(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded entry: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("entry changed through encode and decode:\n%+v\nwant\n%+v", back, e)
		}
	})
}

// withHeader prefixes a payload with the header encode would write for
// it.
func withHeader(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(fmt.Appendf(nil, "%s v%d %s %d\n", headerMagic, Version, hex.EncodeToString(sum[:]), len(payload)), payload...)
}
