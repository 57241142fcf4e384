package shard

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// The batch-vs-single differential oracle (DESIGN.md §12): feeding the
// same timestamp-ordered stream per observation and in irregular
// IngestBatch chunks must be indistinguishable — identical detection
// sequences — at every width: 0 (the bare detect engine, no shard
// machinery), and sharded at 1, 2, 4 and 8. Unlike the shuffled-chunk
// oracle in oracle_test.go, the chunks here preserve stream order, so
// the per-observation run is an exact sequence oracle, not just a
// multiset one.

// chunkStream splits stream into irregular 1–9 observation chunks,
// preserving order.
func chunkStream(r *rand.Rand, stream []event.Observation) [][]event.Observation {
	var chunks [][]event.Observation
	for rest := stream; len(rest) > 0; {
		n := 1 + r.Intn(9)
		if n > len(rest) {
			n = len(rest)
		}
		chunks = append(chunks, rest[:n])
		rest = rest[n:]
	}
	return chunks
}

// runDetect replays the stream through one bare detect.Engine, per
// observation or in the given chunks.
func runDetect(t *testing.T, rules []Rule, stream []event.Observation, chunks [][]event.Observation) []string {
	t.Helper()
	b := graph.NewBuilder()
	for _, r := range rules {
		if _, err := b.AddRule(r.ID, r.Expr); err != nil {
			t.Fatalf("AddRule(%d): %v", r.ID, err)
		}
	}
	var got []string
	eng, err := detect.New(detect.Config{
		Graph:  b.Finalize(),
		Groups: genGroups,
		TypeOf: genTypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			got = append(got, sig(rid, inst))
		},
	})
	if err != nil {
		t.Fatalf("detect.New: %v", err)
	}
	if chunks == nil {
		for _, o := range stream {
			if err := eng.Ingest(o); err != nil {
				t.Fatalf("Ingest(%v): %v", o, err)
			}
		}
	} else {
		for _, c := range chunks {
			if err := eng.IngestBatch(c); err != nil {
				t.Fatalf("IngestBatch: %v", err)
			}
		}
	}
	eng.Close()
	return got
}

// runShardChunked replays ordered chunks through a sharded engine.
func runShardChunked(t *testing.T, rules []Rule, chunks [][]event.Observation, shards int) []string {
	t.Helper()
	var got []string
	eng := newCollector(t, rules, shards, &got)
	for _, c := range chunks {
		if err := eng.IngestBatch(c); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
	}
	eng.Close()
	if err := eng.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	return got
}

func TestBatchVsSingleAllWidths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 60+r.Intn(60))
		chunks := chunkStream(r, stream)

		// Width 0: bare engine, per-obs vs chunked.
		single := runDetect(t, rules, stream, nil)
		batched := runDetect(t, rules, stream, chunks)
		diffStrings(t, "width 0 batched vs single", single, batched)

		// Sharded widths: the per-obs shard run is the sequence oracle
		// for the chunked one at the same width.
		for _, n := range []int{1, 2, 4, 8} {
			perObs := runShard(t, rules, stream, n)
			chunked := runShardChunked(t, rules, chunks, n)
			diffStrings(t, "batched vs single", perObs, chunked)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointMidBatchRestore tears one read-cycle batch across a
// checkpoint: the batch's head is ingested, the engine checkpointed and
// restored into a fresh one, and the batch's tail plus the rest of the
// stream continue through IngestBatch there. The concatenated detection
// sequence must equal an uninterrupted run's — a batch is a framing
// unit, not a transaction, so tearing one must be invisible.
func TestCheckpointMidBatchRestore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 60+r.Intn(60))
		chunks := chunkStream(r, stream)

		// Cut inside a middle chunk.
		ci := len(chunks) / 2
		mid := chunks[ci]
		k := 1 + r.Intn(len(mid))
		if k == len(mid) {
			k = len(mid) / 2 // keep at least the torn tail when the chunk allows it
		}

		want := runShardChunked(t, rules, chunks, 4)

		var got []string
		first := newCollector(t, rules, 4, &got)
		for _, c := range chunks[:ci] {
			if err := first.IngestBatch(c); err != nil {
				t.Fatalf("IngestBatch: %v", err)
			}
		}
		if k > 0 {
			if err := first.IngestBatch(mid[:k]); err != nil {
				t.Fatalf("IngestBatch(head): %v", err)
			}
		}
		var buf bytes.Buffer
		if err := first.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		atCheckpoint := len(got)
		first.Close()
		got = got[:atCheckpoint] // drop the abandoned run's close-time firings

		second := newCollector(t, rules, 4, &got)
		if err := second.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("RestoreCheckpoint: %v", err)
		}
		if k < len(mid) {
			if err := second.IngestBatch(mid[k:]); err != nil {
				t.Fatalf("IngestBatch(tail): %v", err)
			}
		}
		for _, c := range chunks[ci+1:] {
			if err := second.IngestBatch(c); err != nil {
				t.Fatalf("IngestBatch: %v", err)
			}
		}
		second.Close()
		if err := second.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		diffStrings(t, "mid-batch checkpoint sequence", want, got)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
