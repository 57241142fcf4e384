package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rcep/perfbench/workload"
)

// EndToEnd names the end-to-end metrics a run reports in its JSON result,
// in BENCHMARK.json's order: those steady enough from run to run to bound
// a regression. The report prints more — the fire and query latency
// percentiles and failed_frac — but on a shared 2-vCPU machine their
// run-to-run spread exceeds any bound a gate could hold (see README.md),
// and failed_frac is carried by the result's attempted and failed counts.
var EndToEnd = []string{"setup_s", "throughput_eps", "cpu_us_per_obs", "peak_rss_mb"}

// PerLayer names the per-layer metrics a traced run reports in its JSON
// result: those every workload has and none reads zero on. The ledger
// prints the rest (shard metrics, per-family dispatch, failure counts,
// closed-loop send blocking) as text.
var PerLayer = []string{
	"gen.lateness_p99_ms", "gen.lateness_max_ms", "gen.heap_mb",
	"wire.send_ns_per_obs", "wire.backlog_frames_max",
	"wire.decode_ns_per_obs", "wire.fire_encode_ns_per_fire",
	"wire.bytes_in_per_obs", "wire.bytes_out_per_obs", "wire.fire_delivery_p99_ms",
	"event.intern_ns_per_obs",
	"rcep.ingest_ns_per_obs", "rcep.allocs_per_obs",
	"detect.self_ns_per_obs", "detect.allocs_per_obs",
	"rules.dispatch_ns_per_fire", "rules.dispatch_share",
	"store.rows", "store.query_ns", "store.save_ms", "store.save_bytes",
}

// Metric is one named measurement. N is its sample count where it is a
// statistic over samples.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
}

// Failure is one kind of failed operation and its count.
type Failure struct {
	Kind string
	N    int64
}

// Reconcile compares the traced pass's layer self times with the facade.
type Reconcile struct {
	LayersNS float64 // self time of the detect/shard, rules.dispatch and fire-encode spans, per observation
	IngestNS float64 // rcep.ingest, per observation
	TraceNS  float64 // tracing overhead: traced minus untraced pass, per observation
}

// Report is the outcome of one run.
type Report struct {
	Header   string
	E2E      []Metric
	Layer    []Metric // the PerLayer set, traced runs only
	Ledger   []Metric // further per-layer figures, traced runs only
	Notes    []string
	Failures []Failure
	// Attempted counts observations and frames sent and queries issued,
	// over both sessions of the run.
	Attempted int64
	Failed    int64
	Check     []string // what the correctness check compared
	Mismatch  []string // its findings; empty when the outputs are correct
	Correct   bool
	Valid     bool // false when the generator ran later than MaxLatenessP99
	Reconcile *Reconcile
	// Sessions holds per-session figures behind the best-session and
	// median metrics, printed so the spread inside a run shows.
	Sessions []Metric
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// over returns f of every session, for a median or a maximum.
func over(ps []*phase, f func(*phase) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

// list renders per-session figures in session order.
func list(xs []float64) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf(" %.4g", x)
	}
	return s
}

func minOf(xs []float64) float64 { return quantile(xs, 0) }

const perSession = "median over sessions"

// ledgerReps is how many times the traced run repeats each in-process pass.
const ledgerReps = 5

func newReport(opts Options, in *workload.Input, ref *reference, closed, open []*phase, setups []float64) *Report {
	spec := in.Spec
	obs := float64(len(in.Obs))
	framing := "single-observation frames"
	if spec.Framing == workload.Batch {
		framing = fmt.Sprintf("batch frames of %d", spec.BatchSize)
	}
	r := &Report{Header: fmt.Sprintf("perfbench %s seed=%d: %d observations in %d %s at %.0f obs/s over %gs, %d rules, shards=%d; %d closed-loop and %d open-loop sessions",
		spec.Name, opts.Seed, len(in.Obs), len(in.Frames), framing, spec.Rate, opts.Seconds, workload.Lines*len(spec.Families), max(1, spec.Shards), len(closed), len(open))}

	var nFire, nQuery int
	for _, p := range open {
		nFire += len(p.fireLat)
		nQuery += len(p.queryLat)
	}
	pct := func(sample func(*phase) []float64, q float64) float64 {
		return median(over(open, func(p *phase) float64 { return quantile(sample(p), q) }))
	}
	fireLat := func(p *phase) []float64 { return p.fireLat }
	queryLat := func(p *phase) []float64 { return p.queryLat }
	r.E2E = []Metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups), Note: "median of server set-ups"},
		{Name: "throughput_eps", Value: median(over(closed, func(p *phase) float64 { return obs / p.elapsed.Seconds() })), Unit: "obs/s", N: len(closed), Note: "closed loop, median of sessions"},
		{Name: "fire_latency_p50_ms", Value: pct(fireLat, 0.5), Unit: "ms", N: nFire, Note: "open loop from frame due time, " + perSession},
		{Name: "fire_latency_p99_ms", Value: pct(fireLat, 0.99), Unit: "ms", N: nFire, Note: "open loop from frame due time, " + perSession},
		{Name: "query_latency_p50_ms", Value: pct(queryLat, 0.5), Unit: "ms", N: nQuery, Note: "from query due time, " + perSession},
		{Name: "query_latency_p99_ms", Value: pct(queryLat, 0.99), Unit: "ms", N: nQuery, Note: "from query due time, " + perSession},
		{Name: "cpu_us_per_obs", Value: minOf(over(open, func(p *phase) float64 { return float64(p.cpu.Microseconds()) / obs })), Unit: "us/obs", N: len(open), Note: "server user+sys in the open loop, best session"},
		{Name: "peak_rss_mb", Value: median(over(open, func(p *phase) float64 { return p.rssMB })), Unit: "MB", N: len(open), Note: "server VmHWM, " + perSession},
	}

	r.Sessions = []Metric{
		{Name: "throughput_eps", Unit: "obs/s", Note: list(over(closed, func(p *phase) float64 { return obs / p.elapsed.Seconds() }))},
		{Name: "cpu_us_per_obs", Unit: "us/obs", Note: list(over(open, func(p *phase) float64 { return float64(p.cpu.Microseconds()) / obs }))},
		{Name: "fire_latency_p99_ms", Unit: "ms", Note: list(over(open, func(p *phase) float64 { return quantile(p.fireLat, 0.99) }))},
		{Name: "setup_s", Unit: "s", Note: list(setups)},
	}

	all := append(append([]*phase(nil), closed...), open...)
	var shed, errFrames, actionErrs, missing, reconnects int64
	for _, p := range all {
		shed += int64(p.shed + p.serverShed)
		errFrames += p.errorFrames
		actionErrs += int64(p.actionErrors)
		if d := int64(p.detections) - int64(p.received); d > 0 {
			missing += d
		}
		reconnects += int64(p.reconnects)
	}
	r.Failures = []Failure{
		{"shed_obs", shed},
		{"error_frames", errFrames},
		{"action_errors", actionErrs},
		{"missing_fires", missing},
		{"failed_queries", int64(sum(over(open, func(p *phase) float64 { return float64(p.queryFailed) })))},
		{"reconnects", reconnects},
	}
	for _, f := range r.Failures {
		r.Failed += f.N
	}
	// Every session sends every observation in its frames plus the
	// closing advance frame; the open loop also issues the queries.
	r.Attempted = int64(len(all))*int64(len(in.Obs)+len(in.Frames)+1) +
		int64(sum(over(open, func(p *phase) float64 { return float64(len(p.queryObjects)) })))
	r.E2E = append(r.E2E, Metric{Name: "failed_frac", Value: float64(r.Failed) / float64(r.Attempted), Unit: "1", N: int(r.Attempted)})

	latP99 := median(over(open, func(p *phase) float64 { return quantile(p.lateness, 0.99) }))
	r.Valid = latP99 <= ms(MaxLatenessP99)
	r.Layer = []Metric{
		{Name: "gen.lateness_p99_ms", Value: latP99, Unit: "ms", N: len(in.Frames) * len(open), Note: perSession},
		{Name: "gen.lateness_max_ms", Value: maxOf(over(open, func(p *phase) float64 { return quantile(p.lateness, 1) })), Unit: "ms", N: len(in.Frames) * len(open)},
		{Name: "gen.heap_mb", Value: maxOf(over(open, func(p *phase) float64 { return p.heapMB })), Unit: "MB", Note: "largest session"},
	}

	r.Check = append(r.Check, fmt.Sprintf("fire stream: %d fires, hash %s (reference)", len(ref.fires), StreamHash(ref.fires)))
	for _, t := range Tables {
		d := ref.tables[t]
		r.Check = append(r.Check, fmt.Sprintf("table %s: %d rows, hash %s (reference)", t, d.Rows, d.Hash()))
	}
	return r
}

// addLedger runs the in-process passes and fills in the per-layer ledger.
func (r *Report) addLedger(opts Options, in *workload.Input, ref *reference, closed, open []*phase) error {
	frames, err := encodeFrames(in)
	if err != nil {
		return err
	}
	// The final store answers the dashboard's point queries and is saved.
	var queryNS float64
	if objs := open[0].queryObjects; len(objs) > 0 {
		t := time.Now()
		for _, o := range objs {
			if _, _, err := ref.eng.Query(pointQuery(o)); err != nil {
				return fmt.Errorf("point query: %w", err)
			}
		}
		queryNS = float64(time.Since(t).Nanoseconds()) / float64(len(objs))
	}
	var saved countingWriter
	t := time.Now()
	if err := ref.eng.SaveStore(&saved); err != nil {
		return fmt.Errorf("save store: %w", err)
	}
	saveTime := time.Since(t)
	ref.eng = nil

	// The timed passes run ledgerReps times, interleaved, and each figure
	// keeps its fastest pass: noise on a shared machine only ever adds
	// time, and one pass of a short feed lasts a fraction of a second.
	ingest := ref.ingest
	var plain, traced *layeredPass
	for i := 0; i < ledgerReps; i++ {
		again, _, err := replayReference(in, frames)
		if err != nil {
			return err
		}
		ingest = min(ingest, again.ingest)
		p, err := runLayered(in.Spec, frames, false)
		if err != nil {
			return err
		}
		if plain == nil || p.total < plain.total {
			plain = p
		}
		tp, err := runLayered(in.Spec, frames, true)
		if err != nil {
			return err
		}
		if traced == nil || tp.total < traced.total {
			traced = tp
		}
	}
	det, err := runDetect(in)
	if err != nil {
		return err
	}
	path := filepath.Join(opts.OutDir, fmt.Sprintf("spans-%s-%d.jsonl", opts.Workload, opts.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := writeSpans(f, traced.spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write spans: %w", werr)
	}

	obs := float64(len(in.Obs))
	self, count := selfTimes(traced.spans)
	perObs := func(ns int64) float64 { return float64(ns) / obs }
	per := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	var blocked time.Duration
	for _, p := range closed {
		blocked += p.blocked
	}
	var rows int
	for _, d := range ref.tables {
		rows += d.Rows
	}
	r.Layer = append(r.Layer,
		Metric{Name: "wire.send_ns_per_obs", Value: median(over(open, func(p *phase) float64 { return float64(p.sendNS) / obs })), Unit: "ns/obs", N: len(in.Frames) * len(open)},
		Metric{Name: "wire.backlog_frames_max", Value: maxOf(over(open, func(p *phase) float64 { return float64(p.backlogMax) })), Unit: "frames"},
		Metric{Name: "wire.decode_ns_per_obs", Value: perObs(self[spanDecode]), Unit: "ns/obs", N: count[spanDecode]},
		Metric{Name: "wire.fire_encode_ns_per_fire", Value: per(self[spanEncode], count[spanEncode]), Unit: "ns/fire", N: count[spanEncode]},
		Metric{Name: "wire.bytes_in_per_obs", Value: median(over(open, func(p *phase) float64 { return float64(p.bytesIn) / obs })), Unit: "B/obs"},
		Metric{Name: "wire.bytes_out_per_obs", Value: median(over(open, func(p *phase) float64 { return float64(p.bytesOut) / obs })), Unit: "B/obs"},
		Metric{Name: "wire.fire_delivery_p99_ms", Value: median(over(open, func(p *phase) float64 { return quantile(p.delivery, 0.99) })), Unit: "ms", N: len(open[0].delivery) * len(open), Note: perSession},
		Metric{Name: "event.intern_ns_per_obs", Value: perObs(self[spanIntern]), Unit: "ns/obs", N: count[spanIntern]},
		Metric{Name: "rcep.ingest_ns_per_obs", Value: perObs(ingest.Nanoseconds()), Unit: "ns/obs"},
		Metric{Name: "rcep.allocs_per_obs", Value: float64(ref.allocs) / obs, Unit: "allocs/obs"},
		Metric{Name: "detect.self_ns_per_obs", Value: perObs(det.total.Nanoseconds()), Unit: "ns/obs", Note: "detect alone, rules bound without actions"},
		Metric{Name: "detect.allocs_per_obs", Value: float64(det.allocs) / obs, Unit: "allocs/obs"},
		Metric{Name: "rules.dispatch_ns_per_fire", Value: per(self[spanDispatch], count[spanDispatch]), Unit: "ns/fire", N: count[spanDispatch]},
		Metric{Name: "rules.dispatch_share", Value: float64(self[spanDispatch]) / float64(ingest.Nanoseconds()), Unit: "ratio", Note: "rules.dispatch over rcep.ingest"},
		Metric{Name: "store.rows", Value: float64(rows), Unit: "rows", Note: "all tables at the end of the run"},
		Metric{Name: "store.query_ns", Value: queryNS, Unit: "ns", N: len(open[0].queryObjects), Note: "Engine.Query, dashboard point query, final store"},
		Metric{Name: "store.save_ms", Value: ms(saveTime), Unit: "ms"},
		Metric{Name: "store.save_bytes", Value: float64(saved.n), Unit: "B"},
	)

	r.Ledger = append(r.Ledger,
		Metric{Name: "wire.send_blocked_ms", Value: ms(blocked) / float64(len(closed)), Unit: "ms", Note: "closed loop, mean of sessions"},
		Metric{Name: "wire.error_frames", Value: float64(r.failure("error_frames")), Unit: "count"},
		Metric{Name: "wire.shed_obs", Value: float64(r.failure("shed_obs")), Unit: "count"},
		Metric{Name: "detect.detections", Value: float64(det.metrics.Detections), Unit: "count"},
		Metric{Name: "detect.pseudo_fired", Value: float64(det.metrics.PseudoFired), Unit: "count"},
		Metric{Name: "detect.dropped", Value: float64(det.metrics.Dropped), Unit: "count"},
		Metric{Name: "rules.action_errors", Value: float64(int64(ref.errs+traced.errs) + r.failure("action_errors")), Unit: "count", Note: "reference, traced pass and servers"},
	)
	fams := append([]string(nil), in.Spec.Families...)
	sort.Strings(fams)
	for _, fam := range fams {
		r.Ledger = append(r.Ledger, Metric{Name: "rules.dispatch_ns." + fam, Value: perObs(traced.famNS[fam]), Unit: "ns/obs"})
	}
	for _, t := range []string{"OBJECTLOCATION", "OBJECTCONTAINMENT", "INVENTORY"} {
		r.Ledger = append(r.Ledger, Metric{Name: "store.rows." + t, Value: float64(ref.tables[t].Rows), Unit: "rows"})
	}
	if in.Spec.Shards > 1 {
		var hi, sum float64
		for _, n := range traced.shardObs {
			hi = max(hi, float64(n))
			sum += float64(n)
		}
		skew := 0.0
		if sum > 0 {
			skew = hi / (sum / float64(len(traced.shardObs)))
		}
		r.Ledger = append(r.Ledger,
			Metric{Name: "shard.ingest_ns_per_obs", Value: perObs(self[spanShardIngest]), Unit: "ns/obs", N: count[spanShardIngest]},
			Metric{Name: "shard.barrier_ns_per_frame", Value: per(self[spanShardBarrier], count[spanShardBarrier]), Unit: "ns/frame", N: count[spanShardBarrier]},
			Metric{Name: "shard.skew", Value: skew, Unit: "ratio", Note: "max over mean routed observations"},
		)
	}
	for name := uint8(spanDecode); name < numSpans; name++ {
		if count[name] > 0 {
			r.Ledger = append(r.Ledger, Metric{Name: "span." + spanNames[name] + ".self_ns_per_obs", Value: perObs(self[name]), Unit: "ns/obs", N: count[name]})
		}
	}

	detectNS := self[spanDetect] + self[spanShardIngest] + self[spanShardBarrier]
	rec := &Reconcile{
		LayersNS: perObs(self[spanDetect] + self[spanShardIngest] + self[spanShardBarrier] + self[spanDispatch] + self[spanEncode]),
		IngestNS: perObs(ingest.Nanoseconds()),
		TraceNS:  perObs(traced.total.Nanoseconds() - plain.total.Nanoseconds()),
	}
	r.Reconcile = rec
	r.Ledger = append(r.Ledger,
		Metric{Name: "trace.overhead_ns_per_obs", Value: rec.TraceNS, Unit: "ns/obs", Note: "traced minus untraced in-process pass"},
		Metric{Name: "trace.reconcile_gap_ns_per_obs", Value: rec.LayersNS - rec.IngestNS, Unit: "ns/obs", Note: "layer self times minus rcep.ingest"},
	)
	r.Notes = append(r.Notes,
		fmt.Sprintf("spans: %d written to %s", len(traced.spans), path),
		fmt.Sprintf("attribution: rules.dispatch is %.1f%% of rcep.ingest; by family %s",
			100*float64(self[spanDispatch])/float64(ingest.Nanoseconds()), familyShares(traced.famNS, ingest)),
		fmt.Sprintf("per-observation cost: server CPU %.0f ns/obs; in process %.0f ns/obs, of which wire decode+encode %.0f, intern %.0f, detect/shard %.0f, dispatch %.0f (wire and detect/shard %.1f%%)",
			1000*r.metric("cpu_us_per_obs"), perObs(traced.total.Nanoseconds()), perObs(self[spanDecode]+self[spanEncode]), perObs(self[spanIntern]),
			perObs(detectNS), perObs(self[spanDispatch]), 100*float64(self[spanDecode]+self[spanEncode]+detectNS)/float64(traced.total.Nanoseconds())),
	)
	return nil
}

func familyShares(famNS map[string]int64, ingest time.Duration) string {
	fams := make([]string, 0, len(famNS))
	for f := range famNS {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	s := ""
	for _, f := range fams {
		s += fmt.Sprintf(" %s=%.1f%%", f, 100*float64(famNS[f])/float64(ingest.Nanoseconds()))
	}
	return s
}

func (r *Report) failure(kind string) int64 {
	for _, f := range r.Failures {
		if f.Kind == kind {
			return f.N
		}
	}
	return 0
}

func (r *Report) metric(name string) float64 {
	for _, set := range [][]Metric{r.E2E, r.Layer, r.Ledger} {
		for _, m := range set {
			if m.Name == name {
				return m.Value
			}
		}
	}
	return 0
}

// Print writes the human-readable report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintln(w, r.Header)
	line := func(m Metric) {
		s := fmt.Sprintf("  %-34s %14.6g %-10s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			s += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			s += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, s)
	}
	fmt.Fprintln(w, "end to end:")
	for _, m := range r.E2E {
		line(m)
	}
	fs := ""
	for _, f := range r.Failures {
		fs += fmt.Sprintf(" %s=%d", f.Kind, f.N)
	}
	fmt.Fprintf(w, "  failures: %d of %d attempted:%s\n", r.Failed, r.Attempted, fs)
	for _, m := range r.Sessions {
		fmt.Fprintf(w, "  sessions %-25s %s:%s\n", m.Name, m.Unit, m.Note)
	}
	fmt.Fprintln(w, "per layer:")
	for _, m := range r.Layer {
		line(m)
	}
	for _, m := range r.Ledger {
		line(m)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintln(w, "correctness (every session's subscriber stream and tables vs an in-process rcep.Engine):")
	for _, c := range r.Check {
		fmt.Fprintln(w, "  "+c)
	}
	if r.Correct {
		fmt.Fprintln(w, "  OK: every session matches the reference")
	}
	for _, m := range r.Mismatch {
		fmt.Fprintln(w, "  MISMATCH: "+m)
	}
	if !r.Valid {
		fmt.Fprintf(w, "INVALID: generator lateness p99 %.3g ms exceeds %v; this run measured the generator, not the server\n",
			r.metric("gen.lateness_p99_ms"), MaxLatenessP99)
	}
}

// Result is the JSON object a run prints last.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]ResultValue `json:"metrics"`
}

// ResultValue is one metric of the JSON result.
type ResultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// JSON builds the result: the end-to-end metrics, or with trace the
// per-layer ones.
func (r *Report) JSON(trace bool) ([]byte, error) {
	names, set := EndToEnd, r.E2E
	if trace {
		names, set = PerLayer, r.Layer
	}
	res := Result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]ResultValue{}}
	for _, n := range names {
		found := false
		for _, m := range set {
			if m.Name == n {
				res.Metrics[n] = ResultValue{Value: m.Value, Unit: m.Unit}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("harness: metric %s was not measured", n)
		}
	}
	return json.Marshal(res)
}
