package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	nodes   int     // serving processes; >1 boots an in-process cluster
	jobs    int     // workload jobs, prefilled to a full window
	probes  int     // freshness probe jobs, prefilled one sample short
	oodFrac float64 // share of jobs replaying out-of-distribution profiles
	binary  bool    // binary framing; NDJSON otherwise

	// probeGap spaces freshness probes: the mean gap between probe starts
	// in the open loop, the gap between one sender's probes in the closed
	// loop. A segment runs at most probes of them.
	probeGap time.Duration

	// Open loop: every job emits hz samples/s; requests of batch samples
	// interleave about one sample per job and are due on that schedule,
	// whether or not earlier requests have returned.
	open  bool
	hz    float64
	batch int
	reads float64 // prediction reads/s over ready jobs
	sse   bool    // hold one /v1/events subscription

	// Closed loop: each sender sends its next request when the previous
	// one is acknowledged.
	jobsPerReq int // jobs per ingest request
	runLen     int // consecutive samples per job per request
	readEvery  int // one operation in readEvery, at random, is a read
}

// maxProbeWait bounds one freshness probe; a probe job still unreadable
// after it counts as a failed operation.
const maxProbeWait = 5 * time.Second

// pollEvery is the freshness probes' mean poll interval.
const pollEvery = 2 * time.Millisecond

// jitter returns d scaled by a uniform factor in [0.5, 1.5). Operations on
// a fixed period commensurate with the 10 ms tick would meet the tick at
// the same phase for a whole run, and that phase, set by when the server
// happened to boot, would then decide the run's latencies.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// expGap draws an exponential inter-arrival time with the given mean: the
// open loop's reads and probes arrive as Poisson processes.
func expGap(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// client is the load generator's HTTP side.
type client struct {
	hc     *http.Client
	traced bool
	seq    atomic.Int64
}

func newClient(traced bool) *client {
	return &client{
		traced: traced,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
}

type ingestAck struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// ingest posts one batch and returns the accepted count and, in the traced
// run, the request's sequence number. A batch with any rejected line is an
// error: the workloads send only valid samples.
func (c *client) ingest(url string, binary bool, body []byte, samples int) (int, int64, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if binary {
		req.Header.Set("Content-Type", wire.IngestContentType)
	} else {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	var seq int64
	if c.traced {
		seq = c.seq.Add(1)
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, seq, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, seq, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, seq, fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ack ingestAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, seq, fmt.Errorf("ingest: decoding ack: %w", err)
	}
	if ack.Rejected != 0 || ack.Accepted != samples {
		return ack.Accepted, seq, fmt.Errorf("ingest: %d of %d samples accepted, %d rejected", ack.Accepted, samples, ack.Rejected)
	}
	return ack.Accepted, seq, nil
}

// get fetches url and returns the status, discarding the body.
func (c *client) get(url string) (int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (c *client) getJSON(url string, v any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetrics reads the unlabelled series of a node's /metrics.
func (c *client) scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := c.hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// stageSum is one /v1/trace stage's span count and busy seconds.
type stageSum struct {
	count int64
	sum   float64
}

// scrapeTrace reads a node's /v1/trace stage sums by stage name.
func (c *client) scrapeTrace(url string) (map[string]stageSum, error) {
	var resp struct {
		Stages []struct {
			Stage string  `json:"stage"`
			Count int64   `json:"count"`
			Sum   float64 `json:"sum_seconds"`
		} `json:"stages"`
	}
	if err := c.getJSON(url+"/v1/trace", &resp); err != nil {
		return nil, err
	}
	out := make(map[string]stageSum)
	for _, s := range resp.Stages {
		out[s.Stage] = stageSum{s.Count, s.Sum}
	}
	return out, nil
}

// runner drives one booted stack with one workload's traffic.
type runner struct {
	wl   workload
	gen  *generator
	c    *client
	st   *stack
	urls []string // node base URLs; traffic enters urls[0]
	// sent[j] counts job j's samples acknowledged as accepted, prefill
	// included; tainted[j] marks a job with a failed request, whose exact
	// sequence is then unknown. Each job is written by the one worker
	// owning it, and read after the workers are joined.
	sent    []int
	tainted []bool
}

func newRunner(wl workload, gen *generator, c *client, st *stack) *runner {
	r := &runner{wl: wl, gen: gen, c: c, st: st, sent: make([]int, gen.jobs+gen.probes), tainted: make([]bool, gen.jobs+gen.probes)}
	for _, n := range st.nodes {
		r.urls = append(r.urls, n.url)
	}
	return r
}

// appendSample encodes one sample in the workload's framing.
func appendSample(buf []byte, binary bool, job int, v []float64) []byte {
	if binary {
		return wire.AppendIngestRecord(buf, int64(job), v)
	}
	buf = append(buf, `{"job":`...)
	buf = strconv.AppendInt(buf, int64(job), 10)
	buf = append(buf, `,"values":[`...)
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
	}
	return append(buf, "]}\n"...)
}

// prefill sends every job its set-up samples in binary framing, straight to
// the job's owner, from one sender per worker group so each job's samples
// stay in order. It returns the samples accepted.
func (r *runner) prefill() (int64, error) {
	const jobsPerReq = 4
	var total atomic.Int64
	errs := make([]error, r.gen.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.gen.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pending := make([][]int, len(r.urls)) // per owner node
			var buf []byte
			send := func(node int) error {
				buf = buf[:0]
				n := 0
				for _, j := range pending[node] {
					for k := 0; k < r.gen.prefillLen(j); k++ {
						buf = wire.AppendIngestRecord(buf, int64(j), r.gen.sample(j, k))
						n++
					}
				}
				acc, _, err := r.c.ingest(r.urls[node], true, buf, n)
				if err != nil {
					return fmt.Errorf("prefill: %w", err)
				}
				for _, j := range pending[node] {
					r.sent[j] = r.gen.prefillLen(j)
				}
				total.Add(int64(acc))
				pending[node] = pending[node][:0]
				return nil
			}
			for _, j := range r.gen.prefillJobs(w) {
				node := r.st.owner(j)
				pending[node] = append(pending[node], j)
				if len(pending[node]) == jobsPerReq {
					if errs[w] = send(node); errs[w] != nil {
						return
					}
				}
			}
			for node := range pending {
				if len(pending[node]) > 0 {
					if errs[w] = send(node); errs[w] != nil {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return total.Load(), errors.Join(errs...)
}

// waitReadable polls the fleet snapshots until every workload job has a
// readable prediction.
func (r *runner) waitReadable(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for _, u := range r.urls {
			var snap struct {
				Jobs []struct {
					Job   int  `json:"job"`
					Class *int `json:"class"`
				} `json:"jobs"`
			}
			if err := r.c.getJSON(u+"/v1/jobs", &snap); err != nil {
				return err
			}
			for _, j := range snap.Jobs {
				if j.Class != nil && j.Job < r.gen.jobs {
					ready++
				}
			}
		}
		if ready == r.gen.jobs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d prefilled jobs readable after %s", ready, r.gen.jobs, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seqRTT pairs a traced ingest request with its client round trip.
type seqRTT struct {
	seq int64
	rtt time.Duration
}

// latency is one timed operation: when it was due, in seconds from the
// start of its segment's measured stretch, and how long it took in
// milliseconds.
type latency struct{ at, ms float64 }

type latencies []latency

func (l latencies) values() []float64 {
	v := make([]float64, len(l))
	for i, x := range l {
		v[i] = x.ms
	}
	return v
}

// windowed cuts a measured stretch span seconds long into equal windows
// and appends the q-quantile of each to out. A window lasts at least a
// second and holds enough samples to leave ten beyond its quantile (20 for
// a p50, 1000 for a p99). Host noise comes in bursts of a few seconds
// here; the median over windows lets a burst move some window figures but
// not the reported one.
func (l latencies) windowed(q, span float64, out []float64) []float64 {
	n := min(int(float64(len(l))*(1-q)/10), int(span))
	if n < 1 {
		n = 1
	}
	win := make([][]float64, n)
	for _, x := range l {
		i := min(max(int(x.at/span*float64(n)), 0), n-1)
		win[i] = append(win[i], x.ms)
	}
	for _, w := range win {
		if len(w) > 0 {
			out = append(out, percentile(w, q))
		}
	}
	return out
}

// record is one worker's measurements over the measured phase.
type record struct {
	ack, read, fresh, lag latencies
	rtts                  []seqRTT // traced run only
	ops, failed           int
	samples               int64 // samples sent in measured ingest requests
	accepted              int64 // of those, acknowledged as accepted
	allAccepted           int64 // every sample acknowledged as accepted
	lastAck               time.Time
}

func (rec *record) fail(err error, what string) {
	rec.failed++
	if rec.failed <= 3 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", what, err)
	}
}

func (rec *record) merge(o *record) {
	rec.ack = append(rec.ack, o.ack...)
	rec.read = append(rec.read, o.read...)
	rec.fresh = append(rec.fresh, o.fresh...)
	rec.lag = append(rec.lag, o.lag...)
	rec.rtts = append(rec.rtts, o.rtts...)
	rec.ops += o.ops
	rec.failed += o.failed
	rec.samples += o.samples
	rec.accepted += o.accepted
	rec.allAccepted += o.allAccepted
	if o.lastAck.After(rec.lastAck) {
		rec.lastAck = o.lastAck
	}
}

// worker is one of the generator's request streams. Operations due before
// from belong to the warm-up: they run but are not recorded.
type worker struct {
	r    *runner
	id   int
	from time.Time
	rng  *rand.Rand
	buf  []byte
	rec  record
}

func newWorker(r *runner, id int, from time.Time) *worker {
	return &worker{r: r, id: id, from: from, rng: rand.New(rand.NewSource(r.gen.seed*7919 + int64(id)))}
}

// send posts one ingest batch of the given jobs' samples and books the
// outcome. due is when the request was due; ack latency runs from it.
// Probe samples (timed as freshness instead) pass measured=false.
func (w *worker) send(due time.Time, url string, jobs []int, count func(job int) int, measured bool) bool {
	gen, wl := w.r.gen, w.r.wl
	w.buf = w.buf[:0]
	n := 0
	for _, j := range jobs {
		for k := 0; k < count(j); k++ {
			w.buf = appendSample(w.buf, wl.binary, j, gen.sample(j, w.r.sent[j]+k))
			n++
		}
	}
	sent := time.Now()
	acc, seq, err := w.r.c.ingest(url, wl.binary, w.buf, n)
	done := time.Now()
	w.rec.ops++
	w.rec.allAccepted += int64(acc)
	if measured && !due.Before(w.from) {
		w.rec.samples += int64(n)
		w.rec.accepted += int64(acc)
		w.rec.ack = append(w.rec.ack, latency{due.Sub(w.from).Seconds(), ms(done.Sub(due))})
		w.rec.lastAck = done
		if w.r.c.traced {
			w.rec.rtts = append(w.rec.rtts, seqRTT{seq, done.Sub(sent)})
		}
	}
	if err != nil {
		w.rec.fail(err, "ingest")
		for _, j := range jobs {
			w.r.tainted[j] = true
		}
		return false
	}
	for _, j := range jobs {
		w.r.sent[j] += count(j)
	}
	return true
}

// read issues one prediction read for a ready job.
func (w *worker) read(due time.Time, job int) {
	code, err := w.r.c.get(w.r.urls[0] + "/v1/jobs/" + strconv.Itoa(job) + "/prediction")
	w.rec.ops++
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		w.rec.fail(err, "read")
		return
	}
	if !due.Before(w.from) {
		w.rec.read = append(w.rec.read, latency{due.Sub(w.from).Seconds(), ms(time.Since(due))})
	}
}

// poll reads a probe job's prediction: done reports a 200 (freshness
// recorded) or a failure; false means keep polling.
func (w *worker) poll(job int, probeDue time.Time) (done bool) {
	code, err := w.r.c.get(w.r.urls[0] + "/v1/jobs/" + strconv.Itoa(job) + "/prediction")
	w.rec.ops++
	switch {
	case err != nil:
		w.rec.fail(err, "probe poll")
		return true
	case code == http.StatusOK:
		w.rec.fresh = append(w.rec.fresh, latency{probeDue.Sub(w.from).Seconds(), ms(time.Since(probeDue))})
		return true
	case code != http.StatusNotFound:
		w.rec.fail(fmt.Errorf("HTTP %d", code), "probe poll")
		return true
	case time.Since(probeDue) > maxProbeWait:
		w.rec.fail(fmt.Errorf("job %d unreadable after %s", job, maxProbeWait), "probe")
		return true
	}
	return false
}

// probe sends a probe job's completing sample; freshness runs from due.
func (w *worker) probe(due time.Time, job int) bool {
	return w.send(due, w.r.urls[0], []int{job}, func(int) int { return 1 }, false)
}

// runClosed is the closed loop: each worker sends its next operation as
// soon as the previous one returns, from start until end; probes and
// recording begin at from.
func (r *runner) runClosed(start, from, end time.Time) []*worker {
	ws := make([]*worker, r.gen.workers)
	time.Sleep(time.Until(start))
	var wg sync.WaitGroup
	for id := range ws {
		w := newWorker(r, id, from)
		ws[id] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.closedLoop(end)
		}()
	}
	wg.Wait()
	return ws
}

func (w *worker) closedLoop(end time.Time) {
	r, wl := w.r, w.r.wl
	grp := r.gen.groups[w.id]
	runLen := func(int) int { return wl.runLen }
	nextProbe := w.from
	p := w.id // next probe index this worker owns
	var probeJob int
	var probeDue time.Time
	pending := false
	next := 0 // position in the worker's job group
	for {
		// A pending probe is polled once between any two operations.
		if pending && w.poll(probeJob, probeDue) {
			pending = false
			nextProbe = probeDue.Add(jitter(w.rng, wl.probeGap))
		}
		now := time.Now()
		if !now.Before(end) {
			if !pending {
				return
			}
			time.Sleep(jitter(w.rng, pollEvery))
			continue
		}
		if !pending && !now.Before(nextProbe) && p < r.gen.probes {
			probeJob, probeDue = r.gen.probeJob(p), now
			p += r.gen.workers
			if pending = w.probe(now, probeJob); !pending {
				nextProbe = now.Add(jitter(w.rng, wl.probeGap))
			}
			continue
		}
		if w.rng.Intn(wl.readEvery) == 0 {
			w.read(now, w.rng.Intn(r.gen.jobs))
			continue
		}
		jobs := make([]int, 0, wl.jobsPerReq)
		for i := 0; i < wl.jobsPerReq; i++ {
			jobs = append(jobs, grp[next%len(grp)])
			next++
		}
		w.send(now, r.urls[0], jobs, runLen, true)
	}
}

// opKind names an open-loop operation.
type opKind uint8

const (
	opIngest opKind = iota
	opRead
	opProbe
	opPoll
	opProbeDone // worker → dispatcher: a probe resolved
)

type op struct {
	kind     opKind
	due      time.Time
	worker   int
	req      int       // opIngest: request index in the worker's stream
	job      int       // opRead, opProbe, opPoll: target job
	probeDue time.Time // opPoll: the probe's due time
}

type opHeap []op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// runOpen is the open loop: a dispatcher releases every operation at its
// due time onto the owning worker's queue, whether or not earlier ones have
// returned. Worker w sends the ingest requests of its job group, so each
// job's samples stay in order; reads and probes rotate over the workers.
func (r *runner) runOpen(start, from, end time.Time) []*worker {
	gen, wl := r.gen, r.wl
	nw := gen.workers
	ws := make([]*worker, nw)
	// Each queue holds the backlog of a worker that falls behind; the
	// dispatcher blocks past it, and the lag shows in the lag metric.
	const queueDepth = 1 << 14
	queues := make([]chan op, nw)
	// back carries polls and probe completions from the workers; each
	// probe has at most one message in flight, so it never blocks.
	back := make(chan op, gen.probes+nw)
	var wg sync.WaitGroup
	for id := range ws {
		w := newWorker(r, id, from)
		ws[id] = w
		queues[id] = make(chan op, queueDepth)
		wg.Add(1)
		go func(q <-chan op) {
			defer wg.Done()
			for o := range q {
				w.openOp(o, back)
			}
		}(queues[id])
	}

	groupRate := float64(gen.jobs) * wl.hz / float64(nw) // samples/s per worker
	ingestGap := time.Duration(float64(wl.batch) / groupRate * float64(time.Second))
	readGap := time.Duration(float64(time.Second) / wl.reads)
	rng := rand.New(rand.NewSource(gen.seed*104729 + 1))

	h := &opHeap{}
	for id := 0; id < nw; id++ {
		// Stagger the workers' streams across one request interval.
		heap.Push(h, op{kind: opIngest, worker: id, due: start.Add(ingestGap * time.Duration(id) / time.Duration(nw))})
	}
	heap.Push(h, op{kind: opRead, due: start.Add(expGap(rng, readGap))})
	heap.Push(h, op{kind: opProbe, due: from.Add(expGap(rng, wl.probeGap))})
	reads, probes, pendingProbes := 0, 0, 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	handle := func(o op) {
		if o.kind == opProbeDone {
			pendingProbes--
		} else {
			heap.Push(h, o)
		}
	}
	for h.Len() > 0 || pendingProbes > 0 {
		if h.Len() == 0 {
			handle(<-back)
			continue
		}
		if wait := time.Until((*h)[0].due); wait > 0 {
			timer.Reset(wait)
			select {
			case o := <-back:
				handle(o)
				continue
			case <-timer.C:
			}
		}
		o := heap.Pop(h).(op)
		switch o.kind {
		case opIngest:
			if next := o.due.Add(ingestGap); next.Before(end) {
				heap.Push(h, op{kind: opIngest, worker: o.worker, req: o.req + 1, due: next})
			}
		case opRead:
			o.worker = reads % nw
			o.job = rng.Intn(gen.jobs)
			reads++
			if next := o.due.Add(expGap(rng, readGap)); next.Before(end) {
				heap.Push(h, op{kind: opRead, due: next})
			}
		case opProbe:
			o.worker = probes % nw
			o.job = gen.probeJob(probes)
			probes++
			pendingProbes++
			if next := o.due.Add(expGap(rng, wl.probeGap)); probes < gen.probes && next.Before(end) {
				heap.Push(h, op{kind: opProbe, due: next})
			}
		}
		queues[o.worker] <- o
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return ws
}

// openOp executes one open-loop operation on this worker.
func (w *worker) openOp(o op, back chan<- op) {
	if !o.due.Before(w.from) {
		w.rec.lag = append(w.rec.lag, latency{o.due.Sub(w.from).Seconds(), ms(time.Since(o.due))})
	}
	switch o.kind {
	case opIngest:
		var jobs []int
		w.r.gen.interleaved(w.id, o.req, w.r.wl.batch, func(job, _ int) { jobs = append(jobs, job) })
		w.send(o.due, w.r.urls[0], jobs, func(int) int { return 1 }, true)
	case opRead:
		w.read(o.due, o.job)
	case opProbe:
		if !w.probe(o.due, o.job) {
			back <- op{kind: opProbeDone}
			return
		}
		back <- op{kind: opPoll, worker: w.id, job: o.job, probeDue: o.due, due: time.Now().Add(jitter(w.rng, pollEvery))}
	case opPoll:
		if w.poll(o.job, o.probeDue) {
			back <- op{kind: opProbeDone}
			return
		}
		o.due = time.Now().Add(jitter(w.rng, pollEvery))
		back <- o
	}
}

// sseReader holds one /v1/events subscription and counts the events it is
// delivered until the stream ends.
type sseReader struct {
	delivered atomic.Int64
	cancel    context.CancelFunc
	done      chan struct{}
}

func (c *client) subscribe(url string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The stream lives for the whole run, past the client's request timeout.
	resp, err := (&http.Client{Transport: c.hc.Transport}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /v1/events: HTTP %d", resp.StatusCode)
	}
	s := &sseReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") && line != "event: eviction" {
				s.delivered.Add(1)
			}
		}
	}()
	return s, nil
}

// close ends the subscription and waits for the reader to exit.
func (s *sseReader) close() {
	s.cancel()
	<-s.done
}
