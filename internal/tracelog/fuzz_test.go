package tracelog

import (
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"

	"freqdedup/internal/faultio"
	"freqdedup/internal/trace"
)

// memFSWith returns a MemFS holding data as its only file.
func memFSWith(t testing.TB, name string, data []byte) *faultio.MemFS {
	t.Helper()
	m := faultio.NewMemFS()
	f, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return m
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// replayedTrace is what one committed trace streams: its label and refs,
// or whether streaming it failed.
type replayedTrace struct {
	Label   string
	Refs    []trace.ChunkRef
	Corrupt bool
}

// streamAll streams every committed trace of l, checking that each yields
// exactly its Chunks refs or fails with ErrCorrupt.
func streamAll(t *testing.T, l *Log) []replayedTrace {
	t.Helper()
	var out []replayedTrace
	for _, bt := range l.Backups() {
		rt := replayedTrace{Label: bt.Label}
		r, err := bt.Open()
		if err != nil {
			t.Fatalf("open trace %q: %v", bt.Label, err)
		}
		buf := make([]trace.ChunkRef, 64)
		for {
			n, err := r.Read(buf)
			rt.Refs = append(rt.Refs, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("trace %q failed with unexpected error class: %v", bt.Label, err)
				}
				rt.Corrupt, rt.Refs = true, nil
				break
			}
		}
		r.Close()
		if !rt.Corrupt && int64(len(rt.Refs)) != bt.Chunks {
			t.Fatalf("trace %q streamed %d refs, want %d", bt.Label, len(rt.Refs), bt.Chunks)
		}
		out = append(out, rt)
	}
	return out
}

// FuzzOpenTraceLog feeds arbitrary bytes to the trace log's replay. The
// contract: every input gives a log or ErrCorrupt, never a panic, and
// replay allocates in proportion to the file, not to the lengths its
// headers claim. Every committed trace streams exactly its Chunks refs or
// fails with ErrCorrupt. The read-only and the owner open agree, and a
// log that opens replays the same traces after Close and a reopen.
func FuzzOpenTraceLog(f *testing.F) {
	for _, img := range pinnedLogImages(f) {
		// The spill checkpoint holds over 4 MiB: too large to mutate
		// usefully.
		if len(img) <= 64<<10 {
			f.Add(img)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			t.Skip()
		}
		m := memFSWith(t, LogName, data)
		before := totalAlloc()
		ro, err := OpenReadOnlyFS(m, LogName)
		if grew := totalAlloc() - before; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("open of a %d-byte log allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with unexpected error class: %v", err)
			}
			if _, err := OpenFS(m, LogName); err == nil {
				t.Fatal("owner open accepted a log the read-only open rejected")
			}
			return
		}
		want := streamAll(t, ro)
		if err := ro.Close(); err != nil {
			t.Fatal(err)
		}
		// The owner open truncates a torn tail; both it and a reopen after
		// that truncation replay what the read-only open saw.
		for i := 0; i < 2; i++ {
			l, err := OpenFS(m, LogName)
			if err != nil {
				t.Fatalf("owner open %d: %v", i, err)
			}
			if got := streamAll(t, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("owner open %d replayed %d traces unlike the read-only open's %d", i, len(got), len(want))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
