// Package segment implements variable-size segmentation of chunk streams
// (Section 7.1, following the segmentation scheme of Sparse Indexing [45]):
// a segment boundary is placed at the end of a chunk when (i) the segment
// has reached the minimum segment size and the chunk's fingerprint modulo a
// divisor equals divisor-1, or (ii) including the next chunk would exceed
// the maximum segment size.
//
// Segmentation is content-defined at the chunk-fingerprint level, so
// similar backup streams produce aligned segments — the property MinHash
// encryption's effectiveness (Broder's theorem) depends on.
package segment

import (
	"errors"
	"fmt"
	"math/rand"

	"freqdedup/internal/trace"
)

// Params configures segmentation by byte sizes, as the paper does (minimum
// 512 KB, average 1 MB, maximum 2 MB).
type Params struct {
	MinBytes int
	AvgBytes int
	MaxBytes int
}

// DefaultParams returns the paper's segment configuration.
func DefaultParams() Params {
	return Params{MinBytes: 512 << 10, AvgBytes: 1 << 20, MaxBytes: 2 << 20}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.MinBytes <= 0 || p.AvgBytes <= 0 || p.MaxBytes <= 0 {
		return errors.New("segment: sizes must be positive")
	}
	if p.MinBytes > p.AvgBytes || p.AvgBytes > p.MaxBytes {
		return fmt.Errorf("segment: need Min <= Avg <= Max, got %d/%d/%d",
			p.MinBytes, p.AvgBytes, p.MaxBytes)
	}
	return nil
}

// Segment is one contiguous sub-sequence of the input stream, expressed as
// a half-open index range [Start, End) into the chunk slice.
type Segment struct {
	Start, End int
}

// Len returns the number of chunks in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// Split partitions the chunk stream into segments. The divisor that
// realizes the average segment size is derived from the stream's mean
// chunk size; the boundary test itself depends only on chunk content
// (fingerprint), so identical sub-streams segment identically.
func Split(chunks []trace.ChunkRef, p Params) ([]Segment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(chunks) == 0 {
		return nil, nil
	}
	divisor := divisorFor(chunks, p)

	var segs []Segment
	start := 0
	var bytes int
	for i, c := range chunks {
		bytes += int(c.Size)
		boundary := false
		if bytes >= p.MinBytes && c.FP.Uint64()%divisor == divisor-1 {
			boundary = true
		}
		if i+1 < len(chunks) && bytes+int(chunks[i+1].Size) > p.MaxBytes {
			boundary = true
		}
		if boundary {
			segs = append(segs, Segment{Start: start, End: i + 1})
			start = i + 1
			bytes = 0
		}
	}
	if start < len(chunks) {
		segs = append(segs, Segment{Start: start, End: len(chunks)})
	}
	return segs, nil
}

// divisorFor computes the boundary divisor so that the expected segment
// size is p.AvgBytes: after MinBytes accumulate, each chunk ends the
// segment with probability 1/divisor, contributing divisor*meanChunk
// expected additional bytes.
func divisorFor(chunks []trace.ChunkRef, p Params) uint64 {
	var total uint64
	for _, c := range chunks {
		total += uint64(c.Size)
	}
	mean := total / uint64(len(chunks))
	if mean == 0 {
		mean = 1
	}
	d := uint64(p.AvgBytes-p.MinBytes) / mean
	if d < 1 {
		d = 1
	}
	return d
}

// MinFingerprint returns the minimum chunk fingerprint within the segment,
// the value MinHash encryption derives the segment key from (Algorithm 4).
// It panics on an empty segment.
func MinFingerprint(chunks []trace.ChunkRef, s Segment) trace.ChunkRef {
	if s.Len() <= 0 {
		panic("segment: MinFingerprint on empty segment")
	}
	min := chunks[s.Start]
	for _, c := range chunks[s.Start+1 : s.End] {
		if c.FP.Less(min.FP) {
			min = c
		}
	}
	return min
}

// Scramble implements Algorithm 5 on one segment: each element, in input
// order, goes to the front or the back of the output with equal
// probability (one rng.Intn(2) draw per element; 1 means front). It
// returns a new slice and leaves seg unchanged.
func Scramble[T any](seg []T, rng *rand.Rand) []T {
	// A deque laid out in one slice: the front grows left from the
	// middle, the back grows right.
	n := len(seg)
	buf := make([]T, 2*n)
	front, back := n, n // [front, back) holds the output so far
	for _, v := range seg {
		if rng.Intn(2) == 1 {
			front--
			buf[front] = v
		} else {
			buf[back] = v
			back++
		}
	}
	return buf[front:back]
}
