package wal

import "testing"

// FuzzDecodeFrame feeds arbitrary lines to the frame decoder. It must never
// panic, and every line it accepts must be exactly what EncodeFrame writes
// for the decoded payload: one canonical encoding per frame, so a replayed
// log and a re-encoded one agree byte for byte. The pinned corpus under
// testdata/fuzz/FuzzDecodeFrame (a valid frame, a torn frame, a flipped
// checksum, an uppercase checksum, an empty line) runs in plain `go test`.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		payload, ok := DecodeFrame(line)
		if !ok {
			return
		}
		if got := string(EncodeFrame(payload)); got != line+"\n" {
			t.Fatalf("accepted %q but it re-encodes as %q", line, got)
		}
		decodeFrame(line) // the Entry decoder on top must not panic either
	})
}
