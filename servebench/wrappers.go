package main

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/mat"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The traced run wraps the serving stack's public seams with these timing
// wrappers. Each forwards every call unchanged — the wrapped stack must give
// bit-identical predictions and keep one tick loop per shard and the
// batched classify path (servebench_test.go pins all three) — and counts
// work and busy time at the boundary it sits on.

// seqHeader carries an ingest request's sequence number in the traced run,
// so the client's round trip can be split into handler time and transport.
const seqHeader = "X-Servebench-Seq"

// peerIngestPath is the cluster forwarding route (internal/cluster).
const peerIngestPath = "/cluster/v1/ingest"

// durations collects latencies for percentiles.
type durations struct {
	mu sync.Mutex
	v  []float64 // milliseconds
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.v = append(d.v, ms(x))
	d.mu.Unlock()
}

func (d *durations) reset() {
	d.mu.Lock()
	d.v = d.v[:0]
	d.mu.Unlock()
}

func (d *durations) snapshot() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.v...)
}

// counter is a call count and the busy time those calls took.
type counter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
}

type counterValue struct {
	calls int64
	ns    int64
}

func (c *counter) load() counterValue { return counterValue{c.calls.Load(), c.ns.Load()} }

func (v counterValue) sub(o counterValue) counterValue {
	return counterValue{v.calls - o.calls, v.ns - o.ns}
}

// tracer owns the wrappers' counters. Counters only grow; the benchmark
// reads them at the start and end of the measured phase and reports the
// difference. The latency lists are reset at the start instead.
type tracer struct {
	handler    counter
	handlerDur durations
	seqMu      sync.Mutex
	seqDur     map[int64]time.Duration // ingest request seq → handler time

	ingest  counter
	tick    counter
	tickDur durations
	rows    atomic.Int64
	read    counter

	batch  counter // PredictProbaBatch calls
	single counter // PredictProba calls: the unbatched path
	frows  atomic.Int64

	publish counter

	fwd      counter
	fwdDur   durations
	fwdBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{seqDur: make(map[int64]time.Duration)} }

// resetLatencies starts the measured phase's latency lists afresh.
func (t *tracer) resetLatencies() {
	t.handlerDur.reset()
	t.tickDur.reset()
	t.fwdDur.reset()
	t.seqMu.Lock()
	clear(t.seqDur)
	t.seqMu.Unlock()
}

func (t *tracer) handlerTime(seq int64) (time.Duration, bool) {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	d, ok := t.seqDur[seq]
	return d, ok
}

// wrapHandler times every request the node's handler serves. The
// long-lived /v1/events stream is passed through untimed: its duration is
// the run's, not a request's.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/events" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		t.handler.add(d)
		t.handlerDur.add(d)
		if s := r.Header.Get(seqHeader); s != "" {
			if seq, err := strconv.ParseInt(s, 10, 64); err == nil {
				t.seqMu.Lock()
				t.seqDur[seq] = d
				t.seqMu.Unlock()
			}
		}
	})
}

// tracedMonitor wraps the monitor the server drives.
type tracedMonitor struct {
	server.Monitor
	t *tracer
}

// tracedSharded keeps the server.Sharded extension visible through the
// wrapper, so the server still runs one tick loop per shard.
type tracedSharded struct {
	*tracedMonitor
	sh server.Sharded
}

var _ server.Sharded = (*tracedSharded)(nil)

func (t *tracer) wrapMonitor(m server.Monitor) server.Monitor {
	tm := &tracedMonitor{Monitor: m, t: t}
	if sh, ok := m.(server.Sharded); ok {
		return &tracedSharded{tracedMonitor: tm, sh: sh}
	}
	return tm
}

func (m *tracedMonitor) Ingest(jobID int, sample []float64) error {
	t0 := time.Now()
	err := m.Monitor.Ingest(jobID, sample)
	m.t.ingest.add(time.Since(t0))
	return err
}

func (m *tracedMonitor) Tick() (fleet.TickStats, error) { return m.t.timeTick(m.Monitor.Tick) }

func (m *tracedMonitor) Prediction(jobID int) (*stream.Prediction, bool) {
	t0 := time.Now()
	p, ok := m.Monitor.Prediction(jobID)
	m.t.read.add(time.Since(t0))
	return p, ok
}

// SetEventSink interposes the sink wrapper between the monitor and the bus
// the server hands it.
func (m *tracedMonitor) SetEventSink(s events.Sink) {
	if s != nil {
		s = &tracedSink{inner: s, t: m.t}
	}
	m.Monitor.SetEventSink(s)
}

func (m *tracedSharded) NumShards() int { return m.sh.NumShards() }

func (m *tracedSharded) TickShard(i int) (fleet.TickStats, error) {
	return m.t.timeTick(func() (fleet.TickStats, error) { return m.sh.TickShard(i) })
}

func (m *tracedSharded) ShardStats() []shard.Stats { return m.sh.ShardStats() }

func (t *tracer) timeTick(tick func() (fleet.TickStats, error)) (fleet.TickStats, error) {
	t0 := time.Now()
	st, err := tick()
	d := time.Since(t0)
	t.tick.add(d)
	t.tickDur.add(d)
	t.rows.Add(int64(st.Classified))
	return st, err
}

// tracedClassifier wraps the model every shard scores with. It implements
// fleet.BatchClassifier so the fleet keeps its batched path.
type tracedClassifier struct {
	inner stream.Classifier
	batch fleet.BatchClassifier
	t     *tracer
}

var _ fleet.BatchClassifier = (*tracedClassifier)(nil)

func (t *tracer) wrapClassifier(c stream.Classifier) (stream.Classifier, error) {
	b, ok := c.(fleet.BatchClassifier)
	if !ok {
		return nil, errors.New("servebench: serving model has no batched path to trace")
	}
	return &tracedClassifier{inner: c, batch: b, t: t}, nil
}

func (c *tracedClassifier) PredictProba(x *mat.Matrix) (*mat.Matrix, error) {
	t0 := time.Now()
	p, err := c.inner.PredictProba(x)
	c.t.single.add(time.Since(t0))
	c.t.frows.Add(int64(x.Rows))
	return p, err
}

func (c *tracedClassifier) PredictProbaBatch(x *mat.Matrix) (*mat.Matrix, error) {
	t0 := time.Now()
	p, err := c.batch.PredictProbaBatch(x)
	c.t.batch.add(time.Since(t0))
	c.t.frows.Add(int64(x.Rows))
	return p, err
}

// tracedSink times event publishes; they run under the tick lock.
type tracedSink struct {
	inner events.Sink
	t     *tracer
}

func (s *tracedSink) Publish(e events.Event) {
	t0 := time.Now()
	s.inner.Publish(e)
	s.t.publish.add(time.Since(t0))
}

// tracedTransport times the cluster's forwarded-ingest POSTs; control-plane
// traffic (heartbeats) passes through uncounted. Lost samples are counted
// by the node itself (wcc_cluster_forward_errors_total).
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (t *tracer) wrapTransport(rt http.RoundTripper) http.RoundTripper {
	return &tracedTransport{inner: rt, t: t}
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != peerIngestPath {
		return rt.inner.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := rt.inner.RoundTrip(r)
	d := time.Since(t0)
	rt.t.fwd.add(d)
	rt.t.fwdDur.add(d)
	rt.t.fwdBytes.Add(r.ContentLength)
	return resp, err
}

// percentile returns the q-quantile (0..1) of v by nearest rank; v is
// sorted in place. An empty list gives 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
