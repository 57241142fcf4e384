package detect

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// These property tests check RCEDA's output on randomized histories
// against independently computed references ("oracles") and against the
// temporal-constraint invariants that the paper makes first-class.

// randomHistory produces a sorted history of observations from two readers.
func randomHistory(r *rand.Rand, n int, maxGapMs int) []event.Observation {
	var out []event.Observation
	t := 0.0
	for i := 0; i < n; i++ {
		t += float64(r.Intn(maxGapMs)) / 1000.0
		reader := "r1"
		if r.Intn(3) == 0 {
			reader = "r2"
		}
		out = append(out, event.Observation{
			Reader: reader,
			Object: string(rune('a' + i%26)),
			At:     ts(t),
		})
	}
	return out
}

// TestPropertyTSeqConstraints: every TSEQ detection satisfies the distance
// bound, has ordered constituents, and never reuses a constituent
// (chronicle).
func TestPropertyTSeqConstraints(t *testing.T) {
	lo, hi := 1*time.Second, 4*time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		history := randomHistory(r, 60, 3000)

		h := newHarness(t, map[int]event.Expr{
			1: &event.TSeq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2"), Lo: lo, Hi: hi},
		}, nil)
		got := h.run(history...)

		usedInit := map[event.Time]int{}
		usedTerm := map[event.Time]int{}
		for _, d := range got {
			t1 := d.inst.Binds.Val("t1").Time()
			t2 := d.inst.Binds.Val("t2").Time()
			dist := t2.Sub(t1)
			if dist < lo || dist > hi {
				t.Logf("seed %d: distance %v outside [%v,%v]", seed, dist, lo, hi)
				return false
			}
			if !t1.Before(t2) {
				t.Logf("seed %d: unordered constituents", seed)
				return false
			}
			usedInit[t1]++
			usedTerm[t2]++
		}
		// Chronicle must not reuse a constituent more often than it
		// occurred (timestamps can repeat only if the generator emitted
		// duplicates, which it can with gap 0).
		counts := map[string]map[event.Time]int{"r1": {}, "r2": {}}
		for _, o := range history {
			counts[o.Reader][o.At]++
		}
		for tm, c := range usedInit {
			if c > counts["r1"][tm] {
				t.Logf("seed %d: initiator at %v reused", seed, tm)
				return false
			}
		}
		for tm, c := range usedTerm {
			if c > counts["r2"][tm] {
				t.Logf("seed %d: terminator at %v reused", seed, tm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTSeqChronicleOracle compares RCEDA against a direct greedy
// chronicle simulation of TSEQ over the same history.
func TestPropertyTSeqChronicleOracle(t *testing.T) {
	lo, hi := 500*time.Millisecond, 3*time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		history := randomHistory(r, 80, 2000)

		h := newHarness(t, map[int]event.Expr{
			1: &event.TSeq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2"), Lo: lo, Hi: hi},
		}, nil)
		got := h.run(history...)

		// Oracle: chronicle = oldest pending initiator satisfying the
		// constraints is consumed by each terminator.
		type pair struct{ t1, t2 event.Time }
		var want []pair
		var pending []event.Time
		for _, o := range history {
			switch o.Reader {
			case "r1":
				pending = append(pending, o.At)
			case "r2":
				for i, t1 := range pending {
					d := o.At.Sub(t1)
					if t1 < o.At && d >= lo && d <= hi {
						want = append(want, pair{t1, o.At})
						pending = append(pending[:i], pending[i+1:]...)
						break
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Logf("seed %d: got %d detections, oracle %d", seed, len(got), len(want))
			return false
		}
		for i, d := range got {
			if d.inst.Binds.Val("t1").Time() != want[i].t1 || d.inst.Binds.Val("t2").Time() != want[i].t2 {
				t.Logf("seed %d: detection %d = (%v,%v), oracle (%v,%v)", seed, i,
					d.inst.Binds.Val("t1").Time(), d.inst.Binds.Val("t2").Time(), want[i].t1, want[i].t2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAndNotOracle: for WITHIN(E1 ∧ ¬E2, τ) each E1 instance with
// no E2 within τ on either side yields exactly one detection.
func TestPropertyAndNotOracle(t *testing.T) {
	tau := 2 * time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		history := randomHistory(r, 50, 4000)

		h := newHarness(t, map[int]event.Expr{
			1: &event.Within{
				X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
				Max: tau,
			},
		}, nil)
		got := h.run(history...)

		want := 0
		for _, o := range history {
			if o.Reader != "r1" {
				continue
			}
			clean := true
			for _, o2 := range history {
				if o2.Reader != "r2" {
					continue
				}
				d := o2.At.Sub(o.At)
				if d < 0 {
					d = -d
				}
				if d <= tau {
					clean = false
					break
				}
			}
			if clean {
				want++
			}
		}
		if len(got) != want {
			t.Logf("seed %d: got %d detections, oracle %d", seed, len(got), want)
			return false
		}
		for _, d := range got {
			if d.inst.Interval() > tau {
				t.Logf("seed %d: detection interval %v > τ", seed, d.inst.Interval())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTSeqPlusMaximalRuns: TSEQ+ closures partition the E1 stream
// into maximal adjacency-bounded runs: every adjacent pair inside a run
// satisfies [lo,hi], and runs cannot be extended on either side.
func TestPropertyTSeqPlusMaximalRuns(t *testing.T) {
	lo, hi := time.Duration(0), time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		history := randomHistory(r, 60, 2500)
		// Keep only r1 observations for a clean single-type stream.
		var stream []event.Observation
		for _, o := range history {
			if o.Reader == "r1" {
				stream = append(stream, o)
			}
		}
		h := newHarness(t, map[int]event.Expr{
			1: &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: lo, Hi: hi},
		}, nil)
		got := h.run(stream...)

		// Oracle: split stream into maximal runs by the hi gap.
		var runs [][]event.Time
		var cur []event.Time
		for _, o := range stream {
			if len(cur) > 0 && o.At.Sub(cur[len(cur)-1]) > hi {
				runs = append(runs, cur)
				cur = nil
			}
			cur = append(cur, o.At)
		}
		if len(cur) > 0 {
			runs = append(runs, cur)
		}
		if len(got) != len(runs) {
			t.Logf("seed %d: got %d runs, oracle %d", seed, len(got), len(runs))
			return false
		}
		for i, d := range got {
			tl := d.inst.Binds.Val("t")
			if tl.Len() != len(runs[i]) {
				t.Logf("seed %d: run %d has %d elems, oracle %d", seed, i, tl.Len(), len(runs[i]))
				return false
			}
			for j := range runs[i] {
				if tl.Elem(j).Time() != runs[i][j] {
					t.Logf("seed %d: run %d elem %d mismatch", seed, i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInfieldOracle: for the infield rule (¬E ; E within w over
// the same reader+object), a sighting is infield iff no earlier sighting
// of the same pair occurred within w before it.
func TestPropertyInfieldOracle(t *testing.T) {
	w := 5 * time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var history []event.Observation
		tcur := 0.0
		for i := 0; i < 60; i++ {
			// Strictly positive gaps: the rule's sequence is strict
			// ("E1 ends before E2 starts"), so simultaneous sightings
			// would diverge from this oracle's ≤-window bookkeeping.
			tcur += float64(r.Intn(4000)+1) / 1000.0
			history = append(history, event.Observation{
				Reader: "shelf",
				Object: string(rune('a' + r.Intn(4))),
				At:     ts(tcur),
			})
		}
		h := newHarness(t, map[int]event.Expr{
			1: &event.Within{
				X:   &event.Seq{L: &event.Not{X: primVars("r", "o", "t1")}, R: primVars("r", "o", "t2")},
				Max: w,
			},
		}, nil)
		got := h.run(history...)

		want := 0
		last := map[string]event.Time{}
		for _, o := range history {
			prev, seen := last[o.Object]
			if !seen || o.At.Sub(prev) > w {
				want++
			}
			last[o.Object] = o.At
		}
		if len(got) != want {
			t.Logf("seed %d: got %d infields, oracle %d", seed, len(got), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOutfieldOracle: for the outfield rule (E ; ¬E within w), a
// detection fires exactly once per "silence of length > w after a
// sighting", anchored at the last sighting before the gap.
func TestPropertyOutfieldOracle(t *testing.T) {
	w := 5 * time.Second
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var history []event.Observation
		tcur := 0.0
		for i := 0; i < 50; i++ {
			tcur += float64(r.Intn(4000)+1) / 1000.0
			history = append(history, event.Observation{
				Reader: "shelf",
				Object: string(rune('a' + r.Intn(3))),
				At:     ts(tcur),
			})
		}
		h := newHarness(t, map[int]event.Expr{
			1: &event.Within{
				X:   &event.Seq{L: primVars("r", "o", "t1"), R: &event.Not{X: primVars("r", "o", "t2")}},
				Max: w,
			},
		}, nil)
		got := h.run(history...)

		// Oracle: per object, every maximal run of sightings with gaps
		// ≤ w ends in exactly one outfield (including the final run,
		// completed by Close).
		byObj := map[string][]event.Time{}
		for _, o := range history {
			byObj[o.Object] = append(byObj[o.Object], o.At)
		}
		want := 0
		for _, times := range byObj {
			want++ // final run always closes
			for i := 1; i < len(times); i++ {
				if times[i].Sub(times[i-1]) > w {
					want++
				}
			}
		}
		if len(got) != want {
			t.Logf("seed %d: got %d outfields, oracle %d", seed, len(got), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMergedEqualsUnmerged: common sub-graph merging is a pure
// optimization — detections must be identical with and without it.
func TestPropertyMergedEqualsUnmerged(t *testing.T) {
	mkRules := func() map[int]event.Expr {
		return map[int]event.Expr{
			1: &event.TSeq{
				L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
				R:  prim("r2", "o2", "t2"),
				Lo: 2 * time.Second, Hi: 8 * time.Second,
			},
			2: &event.TSeq{
				L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
				R:  prim("r2", "o3", "t3"),
				Lo: 2 * time.Second, Hi: 8 * time.Second,
			},
			3: &event.Within{
				X:   &event.Seq{L: prim("r1", "a", "ta"), R: prim("r2", "b", "tb")},
				Max: 4 * time.Second,
			},
		}
	}
	runWith := func(t *testing.T, merge bool, history []event.Observation) []detection {
		var opts []graph.Option
		if !merge {
			opts = append(opts, graph.WithoutMerging())
		}
		b := graph.NewBuilder(opts...)
		for id, e := range mkRules() {
			if _, err := b.AddRule(id, e); err != nil {
				t.Fatalf("AddRule: %v", err)
			}
		}
		var out []detection
		eng, err := New(Config{Graph: b.Finalize(), OnDetect: func(rid int, inst *event.Instance) {
			out = append(out, detection{rid, inst})
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range history {
			if err := eng.Ingest(o); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		history := randomHistory(r, 70, 2500)
		a := runWith(t, true, history)
		b := runWith(t, false, history)
		if len(a) != len(b) {
			t.Logf("seed %d: merged %d vs unmerged %d detections", seed, len(a), len(b))
			return false
		}
		// Compare as multisets of (rule, span, binds-string).
		sig := func(ds []detection) map[string]int {
			m := map[string]int{}
			for _, d := range ds {
				m[d.inst.Binds.String()+d.inst.Begin.String()+d.inst.End.String()]++
			}
			return m
		}
		sa, sb := sig(a), sig(b)
		for k, v := range sa {
			if sb[k] != v {
				t.Logf("seed %d: signature mismatch at %q: %d vs %d", seed, k, v, sb[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
