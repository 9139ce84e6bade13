package recordlog

import (
	"errors"
	"fmt"
	"testing"

	"freqdedup/internal/faultio"
)

var errTestCorrupt = errors.New("test log corrupt")

// testFormat's header words are a tag and the body length.
var testFormat = Format{
	Name:     "testlog",
	Magic:    0x54455354,
	Version:  1,
	RecMagic: 0x54535431,
	BodyLen: func(tag, n uint32) (int64, bool) {
		return int64(n), n <= 1<<16
	},
	Corrupt: errTestCorrupt,
}

func frameOf(tag uint32, body string) Frame {
	return Frame{Kind: 1, W2: tag, W3: uint32(len(body)), Body: [][]byte{[]byte(body)}}
}

func appendCommit(l *Log, tag uint32, body string) error {
	_, seq, err := l.Append(frameOf(tag, body))
	if err != nil {
		return err
	}
	return l.Commit(seq)
}

func replayTags(t *testing.T, m *faultio.MemFS, mode Mode) []string {
	t.Helper()
	var got []string
	l, _, err := Open(m, "log", &testFormat, mode, func(r Record) error {
		got = append(got, fmt.Sprintf("%d:%s", r.W2, r.Body))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	l.Close()
	return got
}

// TestTornAppendCutAway: a write that tears a prefix of a long record into
// the file and fails must leave the tail clean, so a shorter record
// appended next replays without the torn bytes behind it.
func TestTornAppendCutAway(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		// Writes: the header is write 1, "first" is 2, the long record 3.
		m := faultio.NewMemFSPlan(faultio.Plan{Seed: seed, Rules: []faultio.Rule{{
			Op: faultio.OpWrite, Nth: 3, Fault: faultio.Fault{ShortWrite: true},
		}}})
		l, err := Create(m, "log", &testFormat)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendCommit(l, 1, "first"); err != nil {
			t.Fatal(err)
		}
		if err := appendCommit(l, 2, string(make([]byte, 4096))); !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("seed %d: torn append: err = %v, want injected", seed, err)
		}
		if err := appendCommit(l, 3, "short"); err != nil {
			t.Fatalf("seed %d: append after torn write: %v", seed, err)
		}
		l.Close()
		if got := replayTags(t, m, Owner); fmt.Sprint(got) != "[1:first 3:short]" {
			t.Fatalf("seed %d: replayed %v", seed, got)
		}
	}
}

// TestTornAppendUncutPoisons: when the truncate that cuts a torn write
// away fails too, the log refuses further appends instead of writing
// behind the torn bytes; an owner reopen truncates them as a torn tail.
func TestTornAppendUncutPoisons(t *testing.T) {
	m := faultio.NewMemFSPlan(faultio.Plan{Seed: 3, Rules: []faultio.Rule{
		{Op: faultio.OpWrite, Nth: 3, Fault: faultio.Fault{ShortWrite: true}},
		{Op: faultio.OpTruncate, Nth: 1},
	}})
	l, err := Create(m, "log", &testFormat)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(l, 1, "first"); err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(l, 2, string(make([]byte, 4096))); err == nil {
		t.Fatal("torn append succeeded")
	}
	if err := appendCommit(l, 3, "short"); err == nil {
		t.Fatal("append after an uncut torn write succeeded")
	}
	l.Close()
	if got := replayTags(t, m, Owner); fmt.Sprint(got) != "[1:first]" {
		t.Fatalf("replayed %v", got)
	}
}

// TestFailedSyncPoisons: a failed commit fsync truncates back to the
// durable boundary and refuses further appends.
func TestFailedSyncPoisons(t *testing.T) {
	// Syncs: the header is sync 1, "first" commits with sync 2.
	m := faultio.NewMemFSPlan(faultio.Plan{Rules: []faultio.Rule{{Op: faultio.OpSync, PathGlob: "log", Nth: 3}}})
	l, err := Create(m, "log", &testFormat)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(l, 1, "first"); err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(l, 2, "second"); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("commit with failed sync: err = %v, want injected", err)
	}
	if err := appendCommit(l, 3, "third"); err == nil {
		t.Fatal("append after a failed sync succeeded")
	}
	l.Close()
	if got := replayTags(t, m, Owner); fmt.Sprint(got) != "[1:first]" {
		t.Fatalf("replayed %v", got)
	}
}

// TestFrameMustMatchHeaderWords: a writer whose header words do not
// describe its body gets an error, not an unreplayable record.
func TestFrameMustMatchHeaderWords(t *testing.T) {
	l, err := Create(faultio.NewMemFS(), "log", &testFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fr := frameOf(1, "body")
	fr.W3++
	if _, _, err := l.Append(fr); err == nil {
		t.Fatal("append of a frame with wrong header words succeeded")
	}
}
