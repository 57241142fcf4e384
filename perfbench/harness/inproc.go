package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"rcep"
	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
	"rcep/internal/store"
	"rcep/internal/wire"
	"rcep/perfbench/workload"
)

// canonFrames copies the feed's observations through an intern table, as
// the wire server does at the head of its ingest chain. Doing it before a
// timed pass keeps interning out of the engine's figures.
func canonFrames(in *workload.Input, it *event.Interner) [][]event.Observation {
	out := make([][]event.Observation, len(in.Frames))
	for i, f := range in.Frames {
		b := make(event.Batch, len(f.Obs))
		copy(b, f.Obs)
		b.Canon(it)
		out[i] = b
	}
	return out
}

// reference is the in-process rcep.Engine run of a feed: the expected
// fire stream and tables, and the facade's own cost.
type reference struct {
	eng    *rcep.Engine
	fires  []Fire
	tables map[string]Dump
	ingest time.Duration // time inside Engine.Ingest/IngestEvents/AdvanceTo and Flush
	allocs uint64
	errs   int
}

// runReference replays the feed frame by frame through a facade configured
// like the server, calling the engine exactly as wire.Server does: one
// Ingest (single frames) or IngestEvents (batch frames) plus Flush per
// frame, and AdvanceTo plus Flush for the closing advance.
func runReference(in *workload.Input) (*reference, error) {
	frames, err := encodeFrames(in)
	if err != nil {
		return nil, err
	}
	ref, dets, err := replayReference(in, frames)
	if err != nil {
		return nil, err
	}
	if ref.fires, err = engineFires(dets); err != nil {
		return nil, err
	}
	if ref.tables, err = dumpTables(ref.eng.Query); err != nil {
		return nil, err
	}
	return ref, nil
}

// replayReference is the timed replay behind runReference. Each frame is
// decoded and canonicalized untimed, then handed to the engine timed; the
// detection callback encodes the fire frame, as the server's broadcast
// does, so rcep.ingest covers what the engine costs the server per frame.
func replayReference(in *workload.Input, frames [][]byte) (*reference, []rcep.Detection, error) {
	cfg := in.Spec.EngineConfig()
	var (
		dets []rcep.Detection
		buf  bytes.Buffer
	)
	enc := json.NewEncoder(&buf)
	cfg.OnDetection = func(d rcep.Detection) {
		dets = append(dets, d)
		buf.Reset()
		_ = enc.Encode(wire.Message{
			Type: "fire", Rule: d.RuleID, Name: d.RuleName,
			BeginNS: int64(d.Begin), EndNS: int64(d.End), Bindings: d.Bindings,
		})
	}
	e, err := rcep.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	workload.RegisterProcs(e)
	ref := &reference{eng: e}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, raw := range frames {
		m, obs, err := decodeFrame(raw, e.Interner(), nil)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		switch {
		case m.Type == "advance":
			err = e.AdvanceTo(time.Duration(m.AtNS))
		case m.Type == "obs":
			err = e.Ingest(obs[0].Reader, obs[0].Object, time.Duration(obs[0].At))
		default:
			err = e.IngestEvents(obs)
		}
		if err == nil {
			err = e.Flush()
		}
		ref.ingest += time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("reference frame %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&m1)
	ref.allocs = m1.Mallocs - m0.Mallocs
	ref.errs = len(e.Errs())
	return ref, dets, nil
}

// pointQuery is the dashboard's "where is it now" read that rcepq serves.
func pointQuery(object string) string {
	return "SELECT loc_id FROM OBJECTLOCATION WHERE object_epc = '" + object + "' AND tend = 'UC'"
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// Span names of the traced pass, one per layer entry point.
const (
	spanFrame        = iota // one frame of the feed, the root of its spans
	spanDecode              // json decode of the frame into wire.Message
	spanIntern              // event.Interner.CanonObservation
	spanDetect              // detect.Engine.Ingest/IngestBatch/AdvanceTo
	spanShardIngest         // shard.Engine.Ingest/IngestBatch/AdvanceTo
	spanShardBarrier        // shard.Engine.Sync
	spanDispatch            // rules.Executor.Dispatch
	spanEncode              // json encode of the fire frame
	numSpans
)

var spanNames = [numSpans]string{
	"frame", "wire.decode", "event.intern", "detect.ingest",
	"shard.ingest", "shard.barrier", "rules.dispatch", "wire.fire_encode",
}

// Span is one timed call into a layer. Frame is the ID all spans of one
// feed frame share; Parent indexes the enclosing span, -1 for a root.
type Span struct {
	Frame  int32
	Name   uint8
	Parent int32
	Start  int64 // ns since the pass began
	End    int64
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// how the same pass runs untraced.
type tracer struct {
	base  time.Time
	frame int32
	spans []Span
	stack []int32
}

func (t *tracer) begin(name uint8) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, Span{Frame: t.frame, Name: name, Parent: parent, Start: int64(time.Since(t.base))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = int64(time.Since(t.base))
	t.stack = t.stack[:n]
}

// layered is the engine assembled from its layers' public entry points, as
// rcep.New assembles it, so each layer can be timed from outside.
type layered struct {
	x      *rules.Executor
	det    *detect.Engine // single-engine workloads
	sh     *shard.Engine  // sharded workloads
	intern *event.Interner
	tr     *tracer
	enc    *json.Encoder
	buf    bytes.Buffer

	famNS  map[string]int64 // rule family → dispatch time (traced passes)
	family []string         // rule index → family
	errs   int
}

func newLayered(spec workload.Spec, tr *tracer) (*layered, error) {
	rs, err := rules.ParseScript(spec.Script())
	if err != nil {
		return nil, err
	}
	l := &layered{tr: tr, famNS: map[string]int64{}}
	l.enc = json.NewEncoder(&l.buf)
	l.x = rules.NewExecutor(rs, store.OpenRFID(), workload.Procs(), nil)
	l.x.OnError = func(*rules.Rule, error) { l.errs++ }
	for _, r := range rs.Rules {
		fam, _, _ := strings.Cut(r.ID, "_")
		l.family = append(l.family, fam)
	}
	b := graph.NewBuilder()
	if err := l.x.Bind(b); err != nil {
		return nil, err
	}
	cfg := spec.EngineConfig()
	if spec.Shards > 1 {
		shRules := make([]shard.Rule, len(rs.Rules))
		for i, r := range rs.Rules {
			shRules[i] = shard.Rule{ID: i, Expr: r.Event}
		}
		l.sh, err = shard.New(shard.Config{
			Rules: shRules, Shards: spec.Shards,
			Groups: cfg.Groups, TypeOf: cfg.TypeOf, OnDetect: l.onDetect,
		})
		if err != nil {
			return nil, err
		}
		l.intern = l.sh.Interner()
		return l, nil
	}
	l.det, err = detect.New(detect.Config{
		Graph: b.Finalize(), Groups: cfg.Groups, TypeOf: cfg.TypeOf, OnDetect: l.onDetect,
	})
	if err != nil {
		return nil, err
	}
	l.intern = l.det.Interner()
	return l, nil
}

// onDetect runs the rule's condition and actions and, when it fired,
// encodes the fire frame the server would broadcast.
func (l *layered) onDetect(idx int, inst *event.Instance) {
	before := len(l.x.Firings())
	l.tr.begin(spanDispatch)
	l.x.Dispatch(idx, inst)
	l.tr.end()
	if l.tr != nil {
		s := l.tr.spans[len(l.tr.spans)-1]
		l.famNS[l.family[idx]] += s.End - s.Start
	}
	if len(l.x.Firings()) == before {
		return
	}
	r := l.x.Rules().Rules[idx]
	l.tr.begin(spanEncode)
	binds := make(map[string]any, len(inst.Binds))
	for _, kv := range inst.Binds {
		binds[kv.Var] = plainValue(kv.Val)
	}
	l.buf.Reset()
	_ = l.enc.Encode(wire.Message{
		Type: "fire", Rule: r.ID, Name: r.Name,
		BeginNS: int64(inst.Begin), EndNS: int64(inst.End), Bindings: binds,
	})
	l.tr.end()
}

// plainValue converts a binding value the way the facade does before the
// wire server encodes it.
func plainValue(v event.Value) any {
	switch v.Kind() {
	case event.KindString:
		return v.Str()
	case event.KindInt:
		return v.Int()
	case event.KindFloat:
		return v.Float()
	case event.KindBool:
		return v.Bool()
	case event.KindTime:
		return time.Duration(v.Time())
	}
	return nil
}

// decodeFrame decodes one encoded feed frame and canonicalizes its
// observations, as the wire server's connection handler and the head of
// its ingest chain do.
func decodeFrame(raw []byte, it *event.Interner, tr *tracer) (wire.Message, []event.Observation, error) {
	tr.begin(spanDecode)
	var m wire.Message
	err := json.Unmarshal(raw, &m)
	tr.end()
	if err != nil {
		return m, nil, err
	}
	tr.begin(spanIntern)
	var obs []event.Observation
	switch m.Type {
	case "obs":
		obs = []event.Observation{it.CanonObservation(event.Observation{Reader: m.Reader, Object: m.Object, At: event.Time(m.AtNS)})}
	case "batch":
		obs = make([]event.Observation, len(m.Batch))
		for i, o := range m.Batch {
			obs[i] = it.CanonObservation(event.Observation{Reader: o.Reader, Object: o.Object, At: event.Time(o.AtNS)})
		}
	}
	tr.end()
	return m, obs, nil
}

// frame runs one encoded feed frame through decode, interning and the
// engine; advance frames carry no observations.
func (l *layered) frame(raw []byte) error {
	m, obs, err := decodeFrame(raw, l.intern, l.tr)
	if err != nil {
		return err
	}
	if l.sh != nil {
		l.tr.begin(spanShardIngest)
		switch {
		case m.Type == "advance":
			err = l.sh.AdvanceTo(event.Time(m.AtNS))
		case len(obs) == 1:
			err = l.sh.Ingest(obs[0])
		default:
			err = l.sh.IngestBatch(obs)
		}
		l.tr.end()
		if err != nil {
			return err
		}
		l.tr.begin(spanShardBarrier)
		err = l.sh.Sync()
		l.tr.end()
		return err
	}
	l.tr.begin(spanDetect)
	switch {
	case m.Type == "advance":
		err = l.det.AdvanceTo(event.Time(m.AtNS))
	case len(obs) == 1:
		err = l.det.Ingest(obs[0])
	default:
		err = l.det.IngestBatch(obs)
	}
	l.tr.end()
	return err
}

func (l *layered) close() {
	if l.sh != nil {
		l.sh.Close()
		return
	}
	l.det.Close()
}

// encodeFrames renders the feed as the frames the reliable feeder sends.
func encodeFrames(in *workload.Input) ([][]byte, error) {
	out := make([][]byte, 0, len(in.Frames)+1)
	for i, f := range in.Frames {
		m := wire.Message{ClientID: "perfbench-feed", Seq: uint64(i + 1)}
		if in.Spec.Framing == workload.Single {
			o := f.Obs[0]
			m.Type, m.Reader, m.Object, m.AtNS = "obs", o.Reader, o.Object, int64(o.At)
		} else {
			m.Type, m.Batch = "batch", batchObs(f.Obs)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	raw, err := json.Marshal(wire.Message{Type: "advance", AtNS: int64(in.Advance), ClientID: "perfbench-feed", Seq: uint64(len(in.Frames) + 1)})
	return append(out, raw), err
}

func batchObs(obs []event.Observation) []wire.BatchObs {
	out := make([]wire.BatchObs, len(obs))
	for i, o := range obs {
		out[i] = wire.BatchObs{Reader: o.Reader, Object: o.Object, AtNS: int64(o.At)}
	}
	return out
}

// layeredPass is one replay of the encoded feed through the layered engine.
type layeredPass struct {
	total    time.Duration
	spans    []Span
	famNS    map[string]int64
	errs     int
	shardObs []uint64
}

// runLayered replays the encoded frames, traced or not. Both passes do the
// same work; the difference of their totals is the tracing overhead.
func runLayered(spec workload.Spec, frames [][]byte, traced bool) (*layeredPass, error) {
	var tr *tracer
	if traced {
		tr = &tracer{spans: make([]Span, 0, 8*len(frames))}
	}
	l, err := newLayered(spec, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	if tr != nil {
		tr.base = start
	}
	for i, raw := range frames {
		if tr != nil {
			tr.frame = int32(i)
		}
		tr.begin(spanFrame)
		err := l.frame(raw)
		tr.end()
		if err != nil {
			l.close()
			return nil, fmt.Errorf("layered frame %d: %w", i, err)
		}
	}
	p := &layeredPass{total: time.Since(start), famNS: l.famNS}
	if tr != nil {
		p.spans = tr.spans
	}
	if l.sh != nil {
		for _, m := range l.sh.ShardMetrics() {
			p.shardObs = append(p.shardObs, m.Observations)
		}
	}
	l.close()
	p.errs = l.errs
	return p, nil
}

// detectPass is the detection layer alone: detect.Engine with the rules
// bound as internal/bench binds them (no store, no actions).
type detectPass struct {
	total   time.Duration
	allocs  uint64
	metrics detect.Metrics
}

func runDetect(in *workload.Input) (*detectPass, error) {
	rs, err := rules.ParseScript(in.Spec.Script())
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder()
	if err := rules.NewExecutor(rs, nil, nil, nil).Bind(b); err != nil {
		return nil, err
	}
	cfg := in.Spec.EngineConfig()
	var dets uint64
	eng, err := detect.New(detect.Config{
		Graph: b.Finalize(), Groups: cfg.Groups, TypeOf: cfg.TypeOf,
		OnDetect: func(int, *event.Instance) { dets++ },
	})
	if err != nil {
		return nil, err
	}
	frames := canonFrames(in, eng.Interner())
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, obs := range frames {
		if len(obs) == 1 {
			err = eng.Ingest(obs[0])
		} else {
			err = eng.IngestBatch(obs)
		}
		if err != nil {
			return nil, fmt.Errorf("detect pass: %w", err)
		}
	}
	if err := eng.AdvanceTo(in.Advance); err != nil {
		return nil, fmt.Errorf("detect pass: %w", err)
	}
	p := &detectPass{total: time.Since(start)}
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.metrics = eng.Metrics()
	eng.Close()
	return p, nil
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if err := enc.Encode(struct {
			ID     int    `json:"id"`
			Frame  int32  `json:"frame"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.Frame, spanNames[s.Name], s.Parent, s.Start, s.End}); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover.
func selfTimes(spans []Span) (self [numSpans]int64, count [numSpans]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}
