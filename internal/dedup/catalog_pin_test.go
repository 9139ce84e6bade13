package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// pinnedCatalogImages drives a fixed catalog op sequence on a MemFS —
// adds with fixed creation times, deletes, an explicit compaction, a
// mid-file bit flip and a salvage reopen — and returns the catalog file's
// bytes at each checkpoint, in order.
func pinnedCatalogImages(t testing.TB) [][]byte {
	t.Helper()
	m := faultio.NewMemFS()
	c, err := CreateCatalogFS(m, CatalogName)
	if err != nil {
		t.Fatal(err)
	}
	var images [][]byte
	checkpoint := func() { images = append(images, memFileBytes(t, m, CatalogName)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 10; i++ {
		must(c.Add(testRecord(fmt.Sprintf("snap-%02d", i), byte(i+1))))
	}
	must(c.Delete("snap-01"))
	must(c.Delete("snap-03"))
	checkpoint()
	must(c.Compact())
	checkpoint()
	must(c.Add(testRecord("post-compact", 42)))
	must(c.Close())
	checkpoint()

	// Flip a bit inside the second record: OpenCatalog must reject the
	// file, and the salvage open drops that record and rewrites the rest.
	// The file header and each record header are 16 bytes, the record
	// trailer 4; header words 2 and 3 are the name and payload lengths.
	img := images[len(images)-1]
	const first = 16
	second := first + 16 + int64(binary.LittleEndian.Uint32(img[first+8:])) +
		int64(binary.LittleEndian.Uint32(img[first+12:])) + 4
	must(m.CorruptAt(CatalogName, second+16+3, 0x10))
	if _, err := OpenCatalogFS(m, CatalogName); err == nil {
		t.Fatal("OpenCatalog accepted a mid-file bit flip")
	}
	c, stats, err := OpenCatalogSalvage(m, CatalogName)
	must(err)
	if stats.RecordsDropped != 1 {
		t.Fatalf("salvage dropped %d records, want 1", stats.RecordsDropped)
	}
	checkpoint()
	must(c.Add(testRecord("after-salvage", 7)))
	must(c.Close())
	checkpoint()
	return images
}

// pinnedCatalogSHA256 holds the SHA-256 of each pinnedCatalogImages
// checkpoint. A change here is a change to the catalog's on-disk format.
var pinnedCatalogSHA256 = []string{
	"640378278399db84c604423dd319052fe976a1be798ea5d36f115dbd1dce804a",
	"7a2e402046dc85183d872d6db0c8158d1e5dd4aad65fa94279c2ea53600c87e2",
	"1d4f9972d4f22c0f47a69c15691b4b73a312512a74c4a6ea4ca0498c80430721",
	"b5aac908001ac1e2846ed1f920b3888ee579c3c59f137ca8fe1e69d4b13f04df",
	"24df5473f324104f94370ff1bb7364ac0a93ae240beff2ddb5236b1018b2ec4e",
}

// TestCatalogFormatPinned checks that the catalog writes exactly the bytes
// it always has for a fixed op sequence, and that each checkpoint replays.
func TestCatalogFormatPinned(t *testing.T) {
	images := pinnedCatalogImages(t)
	for i, img := range images {
		sum := sha256.Sum256(img)
		got := hex.EncodeToString(sum[:])
		if i >= len(pinnedCatalogSHA256) || got != pinnedCatalogSHA256[i] {
			t.Errorf("checkpoint %d (%d bytes): sha256 %s, want pinned value", i, len(img), got)
		}
	}
}
