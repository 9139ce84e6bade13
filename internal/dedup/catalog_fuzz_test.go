package dedup

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"freqdedup/internal/faultio"
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

// FuzzOpenCatalog feeds arbitrary bytes to the catalog's replay, in both
// the normal and the salvage open. The contract: every input gives a
// catalog or ErrCatalogCorrupt, never a panic, and replay allocates in
// proportion to the file, not to the lengths its headers claim. A
// catalog that opens replays to the same snapshots after Close and a
// reopen; for a salvage open, that reopen is a normal one, since salvage
// leaves a clean file behind.
func FuzzOpenCatalog(f *testing.F) {
	for _, img := range pinnedCatalogImages(f) {
		f.Add(img)
	}
	f.Add([]byte{})

	f.Fuzz(checkCatalogBytes)
}

func checkCatalogBytes(t *testing.T, data []byte) {
	if len(data) > 8<<10 {
		t.Skip()
	}
	reopenSame := func(m *faultio.MemFS, want []SnapshotRecord) {
		t.Helper()
		c, err := OpenCatalogFS(m, CatalogName)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer c.Close()
		if got := c.List(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen replayed %d snapshots, want the %d first replayed", len(got), len(want))
		}
	}

	m := memFSWith(t, CatalogName, data)
	before := totalAlloc()
	c, err := OpenCatalogFS(m, CatalogName)
	if grew := totalAlloc() - before; grew > 16*uint64(len(data))+1<<20 {
		t.Fatalf("open of a %d-byte catalog allocated %d bytes", len(data), grew)
	}
	if err != nil && !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("open failed with unexpected error class: %v", err)
	}
	if err == nil {
		want := c.List()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		reopenSame(m, want)
	}

	m = memFSWith(t, CatalogName, data)
	s, _, err := OpenCatalogSalvage(m, CatalogName)
	if err != nil {
		if !errors.Is(err, ErrCatalogCorrupt) {
			t.Fatalf("salvage open failed with unexpected error class: %v", err)
		}
		return
	}
	want := s.List()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopenSame(m, want)
}
