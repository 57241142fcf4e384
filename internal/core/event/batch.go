package event

import "sync"

// Batch is a read-cycle batch of observations: the unit of work the
// batched hot path (DESIGN.md §12) moves between layers. An RFID reader
// reports tags in bursts — one RO_ACCESS_REPORT per antenna read cycle —
// so the natural streaming granule is a small ordered group of
// observations sharing one timestamp window, not a single observation.
// Wire "batch" frames carry one Batch per sequence number, and the shard
// router and detection engines hand whole batches across channel and lock
// boundaries: one channel operation (one lock acquisition, one ingest
// call) per batch instead of per event.
//
// A Batch is a plain observation slice; the semantics live in how it is
// consumed (detect.Engine.IngestBatch advances the virtual clock per
// distinct timestamp inside the batch, exactly as if the observations
// arrived one by one). Producers that emit at high rate should draw
// batches from the pool (GetBatch/PutBatch) so steady-state batching
// allocates nothing.
type Batch []Observation

// Window returns the batch's timestamp span [min, max]. ok is false for
// an empty batch.
func (b Batch) Window() (lo, hi Time, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	lo, hi = b[0].At, b[0].At
	for _, o := range b[1:] {
		if o.At < lo {
			lo = o.At
		}
		if o.At > hi {
			hi = o.At
		}
	}
	return lo, hi, true
}

// Sorted reports whether observations are in non-decreasing timestamp
// order — the order every ingest path requires. Read cycles arrive
// sorted; consumers use this to skip defensive re-sorting.
func (b Batch) Sorted() bool {
	for i := 1; i < len(b); i++ {
		if b[i].At < b[i-1].At {
			return false
		}
	}
	return true
}

// Canon canonicalizes every observation's reader and object strings
// through the intern table, in place (see Interner.Canon). A nil interner
// leaves the batch unchanged.
func (b Batch) Canon(it *Interner) {
	if it == nil {
		return
	}
	for i := range b {
		b[i] = it.CanonObservation(b[i])
	}
}

// batchPool recycles batch backing arrays across producer/consumer
// goroutine boundaries (shard router → worker).
var batchPool = sync.Pool{
	New: func() any { return make(Batch, 0, 64) },
}

// GetBatch returns an empty pooled batch. Pass it to PutBatch when the
// consumer is done with its contents; retaining observations copied OUT
// of the batch is always safe (Observation is a value type).
func GetBatch() Batch {
	return batchPool.Get().(Batch)[:0]
}

// PutBatch recycles a batch's backing array. The caller must not touch
// the slice afterwards. Oversized arrays (from a rare giant read cycle)
// are dropped so the pool converges on the steady-state cycle size.
func PutBatch(b Batch) {
	if cap(b) == 0 || cap(b) > 4096 {
		return
	}
	batchPool.Put(b[:0])
}
