// Package harness is the end-to-end benchmark: it runs a workload's feed
// through a benchserver process over the public wire API, measures what
// an operator sees, checks the fire stream and the store against an
// in-process rcep.Engine run of the same input, and, in a traced run,
// replays the input in process layer by layer to give the per-layer
// ledger.
package harness

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rcep/internal/wire"
	"rcep/perfbench/workload"
)

// Options configure one run.
type Options struct {
	Workload  string
	Seed      int64
	Seconds   float64 // open-loop length; the feed holds Rate×Seconds observations
	Trace     bool    // also run the traced in-process replay and report the ledger
	ServerBin string  // path of the benchserver binary
	OutDir    string  // where the traced run writes spans and stamps

	// Tamper, when set, rewrites the fire stream the subscriber received
	// before it is compared. Tests use it to show the check catches a
	// dropped or altered fire.
	Tamper func([]Fire) []Fire
}

// queryInterval paces the dashboard's point queries at 100 per second, so
// the open-loop sessions of a run give a 99th percentile over a couple of
// thousand queries.
const queryInterval = 10 * time.Millisecond

// A run makes many sessions, each against a fresh server: on a shared
// machine one closed-loop session of a short feed can run twice as fast as
// the next, and only many sessions steady a median. Closed-loop sessions
// repeat until closedBudget is spent, so a cheap feed gets more of them.
// throughput_eps is their median. Contention only ever adds CPU time, so
// cpu_us_per_obs is the best open-loop session. The latency percentiles
// and peak_rss_mb are medians over the open-loop sessions of the
// per-session figure, and setup_s is the median of every server set-up,
// the set-up-only ones included.
const (
	closedBudget      = 10 * time.Second
	minClosedPerShare = 1
	openReps          = 4
	setupOnlyReps     = 8
)

// MaxLatenessP99 bounds how late the generator may send its frames (99th
// percentile, median over the open-loop sessions). A run beyond it
// measured the generator, not the server, and is invalid.
const MaxLatenessP99 = 25 * time.Millisecond

// phase is what one session against a fresh server measured.
type phase struct {
	setup  time.Duration
	fires  []Fire
	tables map[string]Dump
	closeStats
	received    int // fires the subscriber received
	errorFrames int64
	serverShed  uint64

	// closed loop
	elapsed time.Duration
	blocked time.Duration

	// open loop
	fireLat      []float64 // ms from the producing frame's due time
	queryLat     []float64 // ms from each query's due time
	queryFailed  int
	queryObjects []string
	lateness     []float64 // ms each frame was sent after its due time
	sendNS       int64
	backlogMax   uint64
	cpu          time.Duration
	rssMB        float64
	heapMB       float64
	bytesIn      int64
	bytesOut     int64
	delivery     []float64 // ms from the server's detection stamp to subscriber receipt
}

// sender sends one frame of the feed through the reliable feeder.
type sender struct {
	single  bool
	frames  []workload.Frame
	batches [][]wire.BatchObs
}

func newSender(in *workload.Input) *sender {
	s := &sender{single: in.Spec.Framing == workload.Single, frames: in.Frames}
	if !s.single {
		for _, f := range in.Frames {
			s.batches = append(s.batches, batchObs(f.Obs))
		}
	}
	return s
}

func (s *sender) send(feed *wire.ReliableClient, i int) error {
	if s.single {
		o := s.frames[i].Obs[0]
		return feed.Send(o.Reader, o.Object, time.Duration(o.At))
	}
	return feed.SendBatch(s.batches[i])
}

// finish waits until every frame is acked and the subscriber holds every
// fire: the server writes a frame's fires to all connections before its
// ack, so after the last ack one status round trip on the subscriber's
// connection drains them.
func (p *phase) finish(s *session) error {
	if err := s.feed.Flush(120 * time.Second); err != nil {
		return err
	}
	st, err := s.sub.Status()
	if err != nil {
		return fmt.Errorf("subscriber status: %w", err)
	}
	p.serverShed = st.Shed
	p.received = s.subscriberFires()
	return nil
}

// collect dumps the tables through the subscriber, closes the session and
// keeps the fire stream it received.
func (p *phase) collect(s *session) error {
	var err error
	if p.tables, err = dumpTables(s.sub.Query); err != nil {
		s.abort()
		return err
	}
	if p.fires, err = wireFires(s.sub.Firings()); err != nil {
		s.abort()
		return err
	}
	p.errorFrames = s.errorFrames.Load()
	p.closeStats, err = s.close()
	return err
}

// closedLoop feeds the whole input as fast as the feeder's unacked ring
// allows and times it from the first send to the last ack with every fire
// received.
func closedLoop(opts Options, in *workload.Input, snd *sender) (*phase, error) {
	s, setup, err := openSession(opts.ServerBin, opts.Workload, "", nil)
	if err != nil {
		return nil, err
	}
	p := &phase{setup: setup}
	start := time.Now()
	for i := range in.Frames {
		full := s.feed.Unacked() >= feedBuffer
		t := time.Now()
		err = snd.send(s.feed, i)
		if full {
			p.blocked += time.Since(t)
		}
		if err != nil {
			s.abort()
			return nil, err
		}
	}
	if err := s.feed.Advance(time.Duration(in.Advance)); err != nil {
		s.abort()
		return nil, err
	}
	if err := p.finish(s); err != nil {
		s.abort()
		return nil, err
	}
	p.elapsed = time.Since(start)
	return p, p.collect(s)
}

// isChainReader reports whether a reader feeds the loc family, so its
// objects have OBJECTLOCATION rows for the dashboard to read.
func isChainReader(r string) bool {
	return strings.HasPrefix(r, "dock_") || strings.HasPrefix(r, "truck_") || strings.HasPrefix(r, "store_")
}

// openLoop offers the input on its fixed schedule while the subscriber
// issues the dashboard's point queries.
func openLoop(opts Options, in *workload.Input, snd *sender, session int) (*phase, error) {
	stamps := ""
	if opts.Trace {
		stamps = filepath.Join(opts.OutDir, fmt.Sprintf("stamps-%s-%d-%d.bin", opts.Workload, opts.Seed, session))
	}
	p := &phase{}
	var (
		mu      sync.Mutex
		startNS atomic.Int64
	)
	nframes := uint64(len(in.Frames))
	onFire := func(_ wire.Message, acked uint64) {
		now := time.Now().UnixNano()
		// Fires of frame k arrive after the ack of frame k-1 and before
		// its own; the closing advance frame's fires are left out.
		if acked >= nframes {
			return
		}
		due := startNS.Load() + int64(in.Frames[acked].Due)
		mu.Lock()
		p.fireLat = append(p.fireLat, float64(now-due)/1e6)
		mu.Unlock()
	}
	s, setup, err := openSession(opts.ServerBin, opts.Workload, stamps, onFire)
	if err != nil {
		return nil, err
	}
	p.setup = setup
	cpu0, err := s.srv.cpu()
	if err != nil {
		s.abort()
		return nil, err
	}

	start := time.Now().Add(10 * time.Millisecond)
	startNS.Store(start.UnixNano())
	length := time.Duration(opts.Seconds * float64(time.Second))
	var lastObject atomic.Pointer[string]
	qdone, qstop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(qdone)
		for due := start; due.Before(start.Add(length)); due = due.Add(queryInterval) {
			sleepUntil(due)
			select {
			case <-qstop:
				return
			default:
			}
			obj := lastObject.Load()
			if obj == nil {
				continue
			}
			_, _, err := s.sub.Query(pointQuery(*obj))
			lat := float64(time.Since(due).Nanoseconds()) / 1e6
			mu.Lock()
			p.queryObjects = append(p.queryObjects, *obj)
			if err != nil {
				p.queryFailed++
			} else {
				p.queryLat = append(p.queryLat, lat)
			}
			mu.Unlock()
		}
	}()

	fail := func(err error) (*phase, error) {
		close(qstop)
		s.abort()
		<-qdone
		return nil, err
	}
	for i, f := range in.Frames {
		due := start.Add(f.Due)
		sleepUntil(due)
		now := time.Now()
		p.lateness = append(p.lateness, float64(now.Sub(due).Nanoseconds())/1e6)
		if b := uint64(i) - s.feed.Acked(); b > p.backlogMax {
			p.backlogMax = b
		}
		if err := snd.send(s.feed, i); err != nil {
			return fail(err)
		}
		p.sendNS += time.Since(now).Nanoseconds()
		if last := f.Obs[len(f.Obs)-1]; isChainReader(last.Reader) {
			obj := last.Object
			lastObject.Store(&obj)
		}
	}
	sleepUntil(start.Add(in.AdvanceDue))
	if err := s.feed.Advance(time.Duration(in.Advance)); err != nil {
		return fail(err)
	}
	<-qdone
	if err := p.finish(s); err != nil {
		return fail(err)
	}
	cpu1, err := s.srv.cpu()
	if err != nil {
		return fail(err)
	}
	p.cpu = cpu1 - cpu0
	if p.rssMB, err = s.srv.peakRSS(); err != nil {
		return fail(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	p.bytesIn, p.bytesOut = s.bytesIn.Load(), s.bytesOut.Load()
	s.mu.Lock()
	recv := s.subRecv
	s.mu.Unlock()
	if err := p.collect(s); err != nil {
		return nil, err
	}
	if stamps != "" {
		if p.delivery, err = deliveries(stamps, recv); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sleepUntil blocks the calling thread in the kernel until t.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// deliveries pairs the server's detection stamps with the subscriber's
// receipt times, both in delivery order.
func deliveries(path string, recv []int64) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := len(raw) / 8
	if n != len(recv) {
		return nil, fmt.Errorf("server stamped %d detections, subscriber received %d fires", n, len(recv))
	}
	out := make([]float64, n)
	for i := range out {
		at := int64(binary.LittleEndian.Uint64(raw[8*i:]))
		out[i] = float64(recv[i]-at) / 1e6
	}
	return out, nil
}

// setupOnly starts a server, connects both clients and stops it again.
func setupOnly(opts Options) (time.Duration, error) {
	s, setup, err := openSession(opts.ServerBin, opts.Workload, "", nil)
	if err != nil {
		return 0, err
	}
	_, err = s.close()
	return setup, err
}

// Run performs one benchmark run.
func Run(opts Options) (*Report, error) {
	spec, err := workload.Lookup(opts.Workload)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	in, err := spec.Generate(opts.Seed, opts.Seconds)
	if err != nil {
		return nil, err
	}
	snd := newSender(in)

	var setups []float64
	for i := 0; i < setupOnlyReps; i++ {
		d, err := setupOnly(opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	// Closed- and open-loop sessions alternate, so a slow stretch of the
	// machine does not fall on one kind only.
	var closed, open []*phase
	for i := 0; i < openReps; i++ {
		// Closed-loop sessions fill a share of the time budget before each
		// open-loop session, so both kinds spread over the whole run.
		share := time.Now().Add(closedBudget / openReps)
		for n := 0; n < minClosedPerShare || time.Now().Before(share); n++ {
			p, err := closedLoop(opts, in, snd)
			if err != nil {
				return nil, fmt.Errorf("closed loop: %w", err)
			}
			closed = append(closed, p)
			setups = append(setups, p.setup.Seconds())
		}
		p, err := openLoop(opts, in, snd, i)
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		open = append(open, p)
		setups = append(setups, p.setup.Seconds())
	}

	ref, err := runReference(in)
	if err != nil {
		return nil, err
	}
	r := newReport(opts, in, ref, closed, open, setups)
	for _, ph := range append(closed, open...) {
		if opts.Tamper != nil {
			ph.fires = opts.Tamper(ph.fires)
		}
		if err := CompareFires(ref.fires, ph.fires); err != nil {
			r.Mismatch = append(r.Mismatch, err.Error())
		}
		if err := CompareTables(ref.tables, ph.tables); err != nil {
			r.Mismatch = append(r.Mismatch, err.Error())
		}
	}
	r.Correct = len(r.Mismatch) == 0
	if !opts.Trace {
		return r, nil
	}
	// The ledger's passes need the memory more than the checked streams.
	for _, ph := range append(closed, open...) {
		ph.fires, ph.tables = nil, nil
	}
	if err := r.addLedger(opts, in, ref, closed, open); err != nil {
		return nil, err
	}
	return r, nil
}

// quantile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
