package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/faults"
	"rcep/internal/wire"
)

// TestClusterOracleEquivalence is the fault-free baseline: a 4-worker
// cluster delivers exactly the single engine's detection multiset, in
// exactly the in-process sharded engine's deterministic order.
func TestClusterOracleEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		seed := seed
		t.Run(planName(seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			rules := genRules(r, 3+r.Intn(8))
			stream := genStream(r, 60+r.Intn(60))

			oracle := asMultiset(runSingle(t, rules, stream))
			order := runShard(t, rules, stream, 4)
			got, _, err := runCluster(t, seed, 4, rules, stream, nil)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			diffStrings(t, "multiset", oracle, asMultiset(got))
			diffStrings(t, "order", order, got)
		})
	}
}

func planName(seed int64) string { return fmt.Sprintf("seed=%d", seed) }

// TestCoordinatorCheckpointRestart proves the coordinator's own
// checkpoint round-trips mid-stream: detections delivered before the
// checkpoint are not re-delivered, detections after it are not lost, and
// the held fire-time group survives the restart with its tie order.
func TestCoordinatorCheckpointRestart(t *testing.T) {
	t.Parallel()
	type restartCase struct {
		name                       string
		seed                       int64
		rules                      []shard.Rule
		stream                     []event.Observation
		cut                        int
		syncEvery, checkpointEvery int
		// held marks a cut that lands while a merged fire-time tie group
		// is still held undelivered (fire == now), so nothing may have
		// been delivered before the checkpoint.
		held bool
	}
	var cases []restartCase
	for _, seed := range []int64{5, 21, 42} {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 80+r.Intn(40))
		cases = append(cases, restartCase{
			name: planName(seed), seed: seed, rules: rules, stream: stream,
			cut: len(stream) / 2, syncEvery: 5, checkpointEvery: 2,
		})
	}
	// Both rules complete on the same rB observation, so their detections
	// share a fire instant and form one tie group. A barrier after every
	// observation merges that group at t=3 and holds it until the clock
	// passes 3; the cut falls right there.
	cases = append(cases, restartCase{
		name: "held-tie-group",
		rules: []shard.Rule{
			{ID: 1, Expr: &event.Within{X: &event.Seq{L: lit("rA", "x1", "t1"), R: lit("rB", "x2", "t2")}, Max: 10 * time.Second}},
			{ID: 2, Expr: &event.Within{X: &event.Seq{L: lit("rC", "y1", "u1"), R: lit("rB", "y2", "u2")}, Max: 10 * time.Second}},
		},
		stream: []event.Observation{
			{Reader: "rA", Object: "o", At: ts(1)},
			{Reader: "rC", Object: "o", At: ts(2)},
			{Reader: "rB", Object: "o", At: ts(3)}, // both rules fire at t=3
			{Reader: "rA", Object: "p", At: ts(4)}, // clock passes 3 → group deliverable
			{Reader: "rB", Object: "p", At: ts(5)}, // second tie group (rule 1 only)
			{Reader: "rD", Object: "q", At: ts(6)},
		},
		cut: 3, syncEvery: 1, checkpointEvery: 1, held: true,
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runShard(t, tc.rules, tc.stream, 4)
			if tc.held && len(want) < 3 {
				t.Fatalf("oracle produced %d detections, the tie-group workload wants >= 3", len(want))
			}

			base := WorkerConfig{Rules: tc.rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
			addrs := make([]string, 3)
			for i := range addrs {
				p := newWorkerProc(t, base)
				defer p.kill()
				addrs[i] = p.addr
			}

			var got []string
			cfg := Config{
				Rules: tc.rules, Shards: 4, Workers: addrs,
				Groups: genGroups, TypeOf: genTypeOf,
				OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
				SyncEvery:       tc.syncEvery,
				CheckpointEvery: tc.checkpointEvery,
				BarrierTimeout:  time.Second,
				Seed:            tc.seed,
			}
			coord, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, o := range tc.stream[:tc.cut] {
				if err := coord.Ingest(o); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
			if tc.held && len(got) != 0 {
				t.Fatalf("%d detections delivered before the checkpoint: the held-group scenario did not occur", len(got))
			}
			var ck bytes.Buffer
			if err := coord.SaveCheckpoint(&ck); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			// Crash the coordinator — no drain, no goodbye. The workers keep
			// running; the restarted coordinator re-places every shard from
			// the checkpointed engine states under fresh epochs.
			coord.Abort()

			cfg.Checkpoint = &ck
			coord2, err := New(cfg)
			if err != nil {
				t.Fatalf("New(restore): %v", err)
			}
			for _, o := range tc.stream[tc.cut:] {
				if err := coord2.Ingest(o); err != nil {
					t.Fatalf("Ingest after restore: %v", err)
				}
			}
			if err := coord2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			diffStrings(t, "restart order", want, got)
		})
	}
}

// TestCoordinatorRestoreRejectsCorruptCheckpoint proves cluster/v1
// loading never panics on damaged input: truncation at EVERY byte offset
// either restores cleanly (a prefix that happens to decode whole —
// only possible at full length) or fails with an error.
func TestCoordinatorRestoreRejectsCorruptCheckpoint(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	rules := genRules(r, 4)
	stream := genStream(r, 30)

	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	procs := []*workerProc{newWorkerProc(t, base), newWorkerProc(t, base)}
	addrs := []string{procs[0].addr, procs[1].addr}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	cfg := Config{
		Rules: rules, Shards: 4, Workers: addrs,
		Groups: genGroups, TypeOf: genTypeOf,
		SyncEvery: 4, CheckpointEvery: 1,
		BarrierTimeout: time.Second,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, o := range stream {
		if err := coord.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	var ck bytes.Buffer
	if err := coord.SaveCheckpoint(&ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	coord.Abort()

	raw := ck.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		cfg.Checkpoint = bytes.NewReader(raw[:cut])
		c2, err := New(cfg) // must never panic
		if err == nil {
			c2.Abort()
			// A cut that drops only the trailing newline still decodes
			// as a complete document; anything shorter must fail.
			if cut < len(raw)-1 {
				t.Fatalf("truncation at %d/%d restored cleanly", cut, len(raw))
			}
		}
	}

	// Bit-flip damage inside an engine checkpoint trips the checksum.
	flipped := append([]byte(nil), raw...)
	at := bytes.Index(flipped, []byte(`"engines"`))
	if at < 0 {
		t.Fatalf("no engines field in checkpoint")
	}
	flipped[at+20] ^= 0x08
	cfg.Checkpoint = bytes.NewReader(flipped)
	if _, err := New(cfg); err == nil {
		t.Fatalf("bit-flipped checkpoint restored cleanly")
	} else if !strings.Contains(err.Error(), "cluster: restore") {
		t.Fatalf("unexpected error for bit flip: %v", err)
	}
}

// TestWorkerRejectsBadChecksumAssign drives a raw wire client straight
// at a Worker with an assign whose checkpoint does not match its
// checksum: the worker must answer with an error frame echoing the
// assign's sequence and must NOT ack it (second line of defense — the
// coordinator's own pre-check catches rot in its memory, this catches
// corruption on the wire).
func TestWorkerRejectsBadChecksumAssign(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	rules := genRules(r, 3)
	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	p := newWorkerProc(t, base)
	defer p.kill()

	var mu sync.Mutex
	var errs []wire.Message
	cl, err := wire.DialReliable(p.addr, wire.ReliableOptions{
		ClientID: "coord.s0.e1",
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", p.addr)
			if err != nil {
				return nil, err
			}
			if _, err := readBoot(conn, time.Second); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		},
		Backoff: 10 * time.Millisecond,
		OnFrame: func(m wire.Message) {
			if m.Type == "error" {
				mu.Lock()
				errs = append(errs, m)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatalf("DialReliable: %v", err)
	}
	defer cl.Abort()

	seq, err := cl.SendFrame(wire.Message{
		Type: "assign", Shard: 0,
		Ck: json.RawMessage(`{"bogus":true}`), Sum: 12345,
	})
	if err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		var found *wire.Message
		for i := range errs {
			if errs[i].Seq == seq {
				found = &errs[i]
				break
			}
		}
		mu.Unlock()
		if found != nil {
			if !strings.Contains(found.Msg, "checksum") {
				t.Fatalf("rejection reason = %q, want checksum mismatch", found.Msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no error frame echoing assign seq %d", seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandoffCorruptCheckpointFallsBack proves the handoff path degrades
// to full journal replay when the stored checkpoint is corrupt: the
// coordinator's checksum pre-check refuses to ship it, the fallback
// rebuilds the shard from the journal, and the detection sequence is
// still exactly the oracle's.
func TestHandoffCorruptCheckpointFallsBack(t *testing.T) {
	t.Parallel()
	seed := int64(77)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 6)
	stream := genStream(r, 120)

	oracle := asMultiset(runSingle(t, rules, stream))
	order := runShard(t, rules, stream, 4)

	// Corrupt every shard's stored checkpoint right before killing a
	// worker: every handoff of that worker's shards must take the
	// rejection → full-replay path.
	plan := &faults.ClusterPlan{Seed: seed}
	for s := 0; s < 8; s++ {
		plan.Faults = append(plan.Faults, faults.ClusterFault{AtObs: 60, Kind: faults.FaultCorruptCheckpoint, Worker: s})
	}
	plan.Faults = append(plan.Faults,
		faults.ClusterFault{AtObs: 60, Kind: faults.FaultKill, Worker: 0},
		faults.ClusterFault{AtObs: 90, Kind: faults.FaultRestart, Worker: 0},
	)

	got, handoffs, err := runCluster(t, seed, 4, rules, stream, plan)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if handoffs == 0 {
		t.Fatalf("expected at least one handoff")
	}
	diffStrings(t, "multiset", oracle, asMultiset(got))
	diffStrings(t, "order", order, got)
}
