package tracelog

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"freqdedup/internal/faultio"
)

// memFileBytes returns the volatile content of one MemFS file.
func memFileBytes(t testing.TB, m *faultio.MemFS, name string) []byte {
	t.Helper()
	f, err := m.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// pinnedLogImages drives a fixed trace-log op sequence on a MemFS —
// interleaved sessions, an abort, commits, a reopen, and one session that
// spills past sessionSpillBytes — and returns the log file's bytes at
// each checkpoint, in order. The spill checkpoint is last and holds over
// 4 MiB; the earlier ones are small.
func pinnedLogImages(t testing.TB) [][]byte {
	t.Helper()
	m := faultio.NewMemFS()
	l, err := CreateFS(m, LogName)
	if err != nil {
		t.Fatal(err)
	}
	var images [][]byte
	checkpoint := func() { images = append(images, memFileBytes(t, m, LogName)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	begin := func(label string) *Session {
		t.Helper()
		s, err := l.Begin(label)
		must(err)
		return s
	}

	alpha, beta, gamma := begin("alpha"), begin("beta"), begin("gamma")
	for i := 0; i < 3; i++ {
		must(alpha.ObserveUpload(testRefs(1+i, 17)))
		must(beta.ObserveUpload(testRefs(10+i, 5)))
		must(gamma.ObserveUpload(testRefs(20+i, 9)))
	}
	beta.Abort()
	must(gamma.Commit())
	must(alpha.Commit())
	checkpoint()
	must(l.Close())

	l, err = OpenFS(m, LogName)
	must(err)
	delta := begin("delta")
	must(delta.ObserveUpload(testRefs(30, 3)))
	must(delta.Commit())
	checkpoint()

	// A session larger than the spill threshold writes unsynced chunks
	// records before its commit; a short session interleaves with it.
	big, small := begin("big"), begin("small")
	const window = 1000
	for i := 0; i*window*refLen < sessionSpillBytes+window*refLen; i++ {
		must(big.ObserveUpload(testRefs(100+i, window)))
		if i%100 == 0 {
			must(small.ObserveUpload(testRefs(40+i, 2)))
		}
	}
	must(small.Commit())
	must(big.Commit())
	must(l.Close())
	checkpoint()
	return images
}

// pinnedLogSHA256 holds the SHA-256 of each pinnedLogImages checkpoint. A
// change here is a change to the trace log's on-disk format.
var pinnedLogSHA256 = []string{
	"2636e5c81442b1b55bf7e0c768e396b6a8d35af98864207aa2a44f65e4c40ddd",
	"19b58dd0f0038257788bb58fa61684568687298aa08d927369a2f73389bfb5ad",
	"e8172936c08b39aee785f6cdc0dad4ba0d6e3663bd9774e026b7a69b1e587836",
}

// TestLogFormatPinned checks that the trace log writes exactly the bytes
// it always has for a fixed op sequence.
func TestLogFormatPinned(t *testing.T) {
	images := pinnedLogImages(t)
	for i, img := range images {
		sum := sha256.Sum256(img)
		got := hex.EncodeToString(sum[:])
		if i >= len(pinnedLogSHA256) || got != pinnedLogSHA256[i] {
			t.Errorf("checkpoint %d (%d bytes): sha256 %s, want pinned value", i, len(img), got)
		}
	}
}
