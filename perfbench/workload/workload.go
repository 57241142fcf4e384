// Package workload defines the benchmark's traffic mixes: which rules the
// server loads, how the seeded supply-chain stream is cut into wire
// frames, and the rate at which the open loop offers them. The server
// main, the load generator and the in-process reference all build their
// engines from the same Spec, so the three see one configuration.
package workload

import (
	"fmt"
	"time"

	"rcep"
	"rcep/internal/bench"
	"rcep/internal/core/event"
	"rcep/internal/rules"
	"rcep/internal/sim"
)

// Lines is the number of supply-chain lines in every stream: the paper's
// 400-rule Fig. 9 configuration spreads five rule families over 80 lines.
const Lines = 80

// fig9Rules is the rule count bench.Fig9Workload sizes the stream for.
const fig9Rules = 400

// Framing says how the generator cuts the stream into wire frames.
type Framing int

const (
	// Single sends one observation per frame, as cmd/rfidfeed does.
	Single Framing = iota
	// Batch sends BatchSize observations per frame, one frame per tick.
	Batch
)

// Spec is one workload: a rule mix over the shared stream, the engine
// topology, and the open-loop offer.
type Spec struct {
	Name      string
	Families  []string // sim.RuleScript families, each instantiated on every line
	Shards    int      // rcep.Config.Shards of the server
	Rate      float64  // observations per second offered in the open loop
	Framing   Framing
	BatchSize int // observations per frame when Framing is Batch
	Why       string
}

// Specs lists the workloads in the order the documentation gives them.
var Specs = []Spec{
	{
		Name:     "chain-store",
		Families: []string{"dup", "loc", "pack", "shelf", "asset"},
		Rate:     1000,
		Framing:  Single,
		Why:      "all five supply-chain rule families with SQL actions, single-observation frames at the paper's 1000 eps; the store's scanning UPDATE does most of the work",
	},
	{
		Name:      "chain-detect",
		Families:  []string{"dup", "pack", "shelf", "asset", "palletize"},
		Shards:    2,
		Rate:      20000,
		Framing:   Batch,
		BatchSize: 100,
		Why:       "no loc rules, two shards, batch frames at 20k eps; wire, detect and shard do the work and the store scan never runs (the bypass for store changes)",
	},
	{
		Name:     "track-query",
		Families: []string{"loc"},
		Rate:     1000,
		Framing:  Single,
		Why:      "loc rules only, 1000 eps single frames beside 100/s dashboard point queries; indexed reads contend with scanning writes for the engine lock",
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Script is the workload's rule script.
func (s Spec) Script() string { return sim.RuleScript(Lines, s.Families) }

// EngineConfig is the engine configuration the server runs and the
// reference replays: rule script, reader groups (the chain groups the loc
// family needs), the simulator's type registry and the shard count.
func (s Spec) EngineConfig() rcep.Config {
	return rcep.Config{
		Rules:  s.Script(),
		Groups: Groups(),
		TypeOf: sim.NewRegistry().TypeOf,
		Shards: s.Shards,
	}
}

// Groups is the reader-group function of the 80-line deployment. It
// depends on the line count only, not on the seed.
func Groups() func(string) []string {
	cfg := sim.DefaultConfig()
	cfg.Lines = Lines
	cfg.CasesPerLine = 0
	cfg.Badges = 0
	return sim.Generate(cfg).ChainGroups()
}

// procNames are the procedures the rule families call; the benchmark
// registers them as no-ops, as rcepd does.
var procNames = []string{"send_alarm", "mark_duplicate"}

// RegisterProcs registers the no-op procedures on a facade engine.
func RegisterProcs(e *rcep.Engine) {
	for _, n := range procNames {
		e.RegisterProcedure(n, func(rcep.ProcContext, []any) error { return nil })
	}
}

// Procs returns the no-op procedures for an executor built layer by layer.
func Procs() rules.Procs {
	p := rules.Procs{}
	for _, n := range procNames {
		p[n] = func(rules.ActionContext, []event.Value) error { return nil }
	}
	return p
}

// Frame is one wire frame of the feed: its observations (one for Single
// framing) and when the open loop is due to send it, as an offset from
// the start of the schedule.
type Frame struct {
	Due time.Duration
	Obs []event.Observation
}

// Input is a generated feed.
type Input struct {
	Spec   Spec
	Obs    []event.Observation
	Frames []Frame
	// Advance is the virtual time of the closing advance frame, past
	// every rule window, so the fire stream is complete.
	Advance event.Time
	// AdvanceDue is when the open loop sends the advance frame.
	AdvanceDue time.Duration
}

// advancePast is how far beyond the last observation the closing advance
// frame moves the clock; it exceeds every window in sim.RuleScript.
const advancePast = 10 * time.Minute

// Generate builds the feed for a run of the given length: Rate×seconds
// observations of the seeded bench.Fig9Workload stream. The event count
// is part of the workload's definition — the loc family's per-event cost
// grows with the OBJECTLOCATION rows it has written.
func (s Spec) Generate(seed int64, seconds float64) (*Input, error) {
	n := int(s.Rate * seconds)
	if n < 1 {
		return nil, fmt.Errorf("workload: %s for %gs has no observations", s.Name, seconds)
	}
	w := bench.Fig9Workload(n, fig9Rules, seed, false)
	if len(w.Observations) != n {
		return nil, fmt.Errorf("workload: stream has %d observations, want %d", len(w.Observations), n)
	}
	in := &Input{Spec: s, Obs: w.Observations}
	per := 1
	if s.Framing == Batch {
		per = s.BatchSize
	}
	interval := time.Duration(float64(per) / s.Rate * float64(time.Second))
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		in.Frames = append(in.Frames, Frame{
			Due: time.Duration(len(in.Frames)) * interval,
			Obs: w.Observations[lo:hi],
		})
	}
	in.Advance = w.Observations[n-1].At.Add(advancePast)
	in.AdvanceDue = time.Duration(len(in.Frames)) * interval
	return in, nil
}
