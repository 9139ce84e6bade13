package main

import (
	"crypto/sha256"
	"fmt"
	"io"

	"freqdedup"
)

// image is one backup generation's byte stream, materialized in memory
// during set-up so that no generator runs inside a timed phase.
type image struct {
	name string
	data []byte
	sum  [sha256.Size]byte
}

// stream is one client's ordered generations: a local backup job or one
// remote tenant.
type stream struct {
	tenant string
	images []image
}

// inputs is everything a round backs up.
type inputs struct {
	streams []stream
	logical int64
}

// datasets is the number of independent input sets a seed defines. Round r
// of a run backs up set r mod datasets, so that a run's figures average
// over many draws of the workload rather than resting on one: restore cost
// and, under MinHash, stored bytes depend strongly on the draw. It exceeds
// the rounds a run fits in, so every round runs a set of its own.
const datasets = 64

// generate materializes input set `set` of the workload for a seed. Each
// stream's generator is seeded from (seed, set, stream index), so streams
// differ from each other, from the other sets and from every other seed.
func generate(w *workload, seed int64, set, mib int) (*inputs, error) {
	in := &inputs{}
	for c := 0; c < w.streams; c++ {
		cfg := freqdedup.WorkloadConfig{
			Seed:       (seed*datasets+int64(set))*int64(w.streams) + int64(c),
			Backups:    w.generations,
			TotalBytes: mib << 20,
		}
		d, err := freqdedup.GenerateWorkload(w.generator, cfg)
		if err != nil {
			return nil, err
		}
		s := stream{tenant: fmt.Sprintf("tenant%d", c)}
		for g, b := range d.Backups {
			data, err := io.ReadAll(freqdedup.WorkloadDataReader(b))
			if err != nil {
				return nil, fmt.Errorf("materialize %s generation %d: %w", w.generator, g, err)
			}
			s.images = append(s.images, image{
				name: fmt.Sprintf("gen%02d", g),
				data: data,
				sum:  sha256.Sum256(data),
			})
			in.logical += int64(len(data))
		}
		in.streams = append(in.streams, s)
	}
	return in, nil
}

// digest summarizes the inputs: equal digests mean byte-identical inputs.
func (in *inputs) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, s := range in.streams {
		for _, im := range s.images {
			h.Write(im.sum[:])
		}
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// sinks holds one restore buffer per image, reused from round to round so
// that restores write into memory that is already mapped.
type sinks [][]*sink

// fit readies the sinks for the images of in, growing buffers that are too
// small.
func (sk *sinks) fit(in *inputs) {
	for len(*sk) < len(in.streams) {
		*sk = append(*sk, nil)
	}
	for c, s := range in.streams {
		for len((*sk)[c]) < len(s.images) {
			(*sk)[c] = append((*sk)[c], &sink{})
		}
		for g, im := range s.images {
			k := (*sk)[c][g]
			if cap(k.buf) < len(im.data) {
				k.buf = make([]byte, 0, len(im.data))
			}
			k.buf, k.limit = k.buf[:0], len(im.data)
		}
	}
}

// sink collects one restore. Writing past the size backed up is an error,
// so a runaway restore fails instead of growing the buffer.
type sink struct {
	buf   []byte
	limit int
}

func (s *sink) Write(p []byte) (int, error) {
	if len(s.buf)+len(p) > s.limit {
		return 0, fmt.Errorf("restore wrote more than the %d bytes backed up", s.limit)
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}
