// Command servebench is the repository's serving benchmark: it trains the
// wcctrain RF-Cov artifact, boots the real HTTP serving stack in process
// (one wccserve node, or a three-node cluster), drives it over loopback
// from a seeded load generator, checks every final prediction against an
// in-process oracle, and prints the metrics as one JSON line.
//
//	bash servebench/run.sh --workload live --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and then with timing wrappers on the
// stack's public seams, and prints the per-layer metrics plus the tracing
// overhead. NOTES.md explains the workloads and what each metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stream"
)

// workloads are the benchmark's traffic mixes; NOTES.md gives the reasoning.
//
// live and cluster run below the sizes first planned (4096 and 1536 jobs at
// 27 Hz, 256-sample requests, 1000 reads/s). On the 2-core reference box
// the stack saturates near 58k samples/s at live's shape, because open-set
// scoring (drift feature distance, 42% of CPU in a profile) runs on every
// classification: at 27 Hz the backlog grew without bound and probes timed
// out, and at 9 Hz with 4096 jobs the generator's two request streams ran
// tens of milliseconds late. Both now run at the dataset's 9 Hz with fleets
// that leave half the box idle. Reads are 500/s because at 1000/s (plus
// probe polls and small ingest requests) each of the two streams was busy
// ~40% of the time, and its queueing turned host noise into open-loop p99s
// that spread 50–80% across runs; at 500/s they spread 15–26% when the
// host is calm.
var workloads = []workload{
	{
		name:  "backfill",
		why:   "closed-loop binary replay, 4 jobs x 64 consecutive samples per request: ingest-bound, with long same-job runs that a batch-ingest path would use",
		nodes: 1, jobs: 1024, probes: 1200, binary: true, probeGap: 20 * time.Millisecond,
		jobsPerReq: 4, runLen: 64, readEvery: 8,
	},
	{
		name:  "live",
		why:   "open-loop NDJSON at 9 Hz per job with at most one sample per job per tick: every sample costs a classification, so tick work sets freshness",
		nodes: 1, jobs: 1024, probes: 1200, oodFrac: 0.1, probeGap: 12500 * time.Microsecond,
		open: true, hz: 9, batch: 64, reads: 500, sse: true,
	},
	{
		name:  "cluster",
		why:   "live's open-loop shape in binary into node 0 of three: ownership routing, peer forwarding, remote apply and 307-redirected reads",
		nodes: 3, jobs: 768, probes: 1200, oodFrac: 0.1, binary: true, probeGap: 12500 * time.Microsecond,
		open: true, hz: 9, batch: 64, reads: 500,
	},
}

// warmup runs the workload unmeasured before each measured segment, so the
// measurement starts in steady state: the first second after set-up shows
// a burst of slow requests on every workload.
const warmup = 1 * time.Second

// segments is how many times a --trace 0 run sets the stack up and
// measures it, each for an equal share of --seconds; setup_s, job_mem_kb
// and every latency percentile report the median over them. A --trace 1
// run measures each of its two phases on one boot.
const segments = 4

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// e2eMetrics are reported with --trace 0 (BENCHMARK.json end_to_end).
//
// The p99s of acks, reads and freshness are not among them: on the 2-core
// reference box they follow how long both shards' ticks hold both
// processors, which moves with the host's speed from run to run, and sets
// of runs of the same code spread 40–150% on them against a 25% limit on
// any bound. They are reported with the per-layer metrics as tail.*, from the
// untraced phase of a --trace 1 run. Freshness keeps a p90, which the
// 10 ms tick cadence, not the host, sets.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_sps", "1/s"},
	{"ack_p50_ms", "ms"},
	{"fresh_p50_ms", "ms"}, {"fresh_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"cpu_us_per_sample", "us"},
	{"job_mem_kb", "KiB"},
	{"acc_pct", "%"},
}

// layerMetrics are reported with --trace 1 (BENCHMARK.json per_layer).
var layerMetrics = func() []metricDef {
	m := []metricDef{
		{"loadgen.lag_p99_ms", "ms"}, {"loadgen.requests", "count"}, {"loadgen.samples", "count"},
		{"loadgen.transport_p50_ms", "ms"},
		{"tail.ack_p99_ms", "ms"}, {"tail.fresh_p99_ms", "ms"}, {"tail.read_p99_ms", "ms"},
		{"count.ack", "count"}, {"count.fresh", "count"}, {"count.read", "count"},
		{"server.requests", "count"}, {"server.handler_s", "s"},
		{"server.handler_p50_ms", "ms"}, {"server.handler_p99_ms", "ms"}, {"server.ingest_handler_p50_ms", "ms"},
		{"server.throttled", "count"}, {"server.line_errors", "count"},
	}
	for _, st := range traceStages {
		m = append(m, metricDef{"trace." + st + "_s", "s"}, metricDef{"trace." + st + "_count", "count"})
	}
	m = append(m,
		metricDef{"fleet.ingest_calls", "count"}, metricDef{"fleet.ingest_s", "s"}, metricDef{"fleet.ingest_ns_per_sample", "ns"},
		metricDef{"fleet.tick_calls", "count"}, metricDef{"fleet.tick_s", "s"},
		metricDef{"fleet.tick_p50_ms", "ms"}, metricDef{"fleet.tick_p99_ms", "ms"},
		metricDef{"fleet.rows", "count"}, metricDef{"fleet.rows_per_tick", "count"}, metricDef{"fleet.tick_self_s", "s"},
		metricDef{"fleet.read_calls", "count"}, metricDef{"fleet.read_s", "s"},
		metricDef{"forest.calls", "count"}, metricDef{"forest.single_calls", "count"},
		metricDef{"forest.rows", "count"}, metricDef{"forest.ns_per_row", "ns"},
		metricDef{"events.published", "count"}, metricDef{"events.publish_s", "s"}, metricDef{"events.dropped", "count"},
		metricDef{"events.sse_delivered", "count"}, metricDef{"events.sse_evicted", "count"},
		metricDef{"cluster.fwd_posts", "count"}, metricDef{"cluster.fwd_samples", "count"}, metricDef{"cluster.fwd_bytes", "B"},
		metricDef{"cluster.fwd_s", "s"}, metricDef{"cluster.fwd_p99_ms", "ms"},
		metricDef{"cluster.fwd_dropped", "count"}, metricDef{"cluster.fwd_errors", "count"}, metricDef{"cluster.redirects", "count"},
		metricDef{"runtime.alloc_bytes_per_sample", "B"}, metricDef{"runtime.mallocs_per_sample", "count"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_s", "s"},
		metricDef{"setup.train_s", "s"}, metricDef{"setup.boot_s", "s"}, metricDef{"setup.prefill_s", "s"},
		metricDef{"sum.ack_layers_ms", "ms"}, metricDef{"sum.ack_ratio", "ratio"},
		metricDef{"sum.fresh_layers_ms", "ms"}, metricDef{"sum.fresh_ratio", "ratio"},
	)
	for _, e := range e2eMetrics {
		if e.name != "acc_pct" {
			m = append(m, metricDef{"overhead." + e.name, "%"})
		}
	}
	return m
}()

// traceStages are the /v1/trace stage names (internal/trace).
var traceStages = []string{"parse", "queue", "ingest", "collect", "classify", "writeback"}

func main() {
	name := flag.String("workload", "", "workload: backfill, live or cluster")
	seed := flag.Int64("seed", 1, "workload seed: the generator's every input derives from it")
	seconds := flag.Int("seconds", 12, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run plus tracing overhead")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: servebench --workload backfill|live|cluster --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A run must end within three minutes; a wedged one fails loudly instead.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "servebench: run exceeded 170s")
		os.Exit(1)
	})
	out, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(wl workload, seed int64, dur time.Duration, traced bool) (*output, error) {
	fmt.Printf("# servebench workload=%s seed=%d seconds=%g traced=%v\n", wl.name, seed, dur.Seconds(), traced)
	fmt.Printf("# hardware nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# why %s: %s\n", wl.name, wl.why)
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	sim, err := simulatorFor(wcctrainDefaults)
	if err != nil {
		return nil, err
	}
	window, sensors := windowShape()
	gen, err := newGenerator(sim, seed, window, sensors, wl.jobs, wl.probes, runtime.GOMAXPROCS(0), wl.oodFrac)
	if err != nil {
		return nil, err
	}
	if !traced {
		p, err := runPhase(wl, gen, dir, dur, segments, nil)
		if err != nil {
			return nil, err
		}
		p.print("untraced")
		return &output{Correct: p.correct, Attempted: p.attempted, Failed: p.failed, Metrics: collect(e2eMetrics, p.e2e)}, nil
	}
	base, err := runPhase(wl, gen, dir, dur, 1, nil)
	if err != nil {
		return nil, err
	}
	base.print("untraced")
	tr := newTracer()
	p, err := runPhase(wl, gen, dir, dur, 1, tr)
	if err != nil {
		return nil, err
	}
	p.print("traced")
	for _, e := range e2eMetrics {
		if e.name != "acc_pct" {
			p.layers["overhead."+e.name] = pctChange(base.e2e[e.name], p.e2e[e.name])
		}
	}
	for _, k := range []string{"ack", "fresh", "read"} {
		p.layers["tail."+k+"_p99_ms"] = base.e2e[k+"_p99_ms"]
	}
	printTable(wl, p)
	return &output{
		Correct:   base.correct && p.correct,
		Attempted: base.attempted + p.attempted,
		Failed:    base.failed + p.failed,
		Metrics:   collect(layerMetrics, p.layers),
	}, nil
}

func collect(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// setupResult is one set-up's timings.
type setupResult struct {
	total, train, boot, prefill time.Duration
	jobMemKB                    float64
	accepted                    int64 // prefill samples acknowledged as accepted
}

// setUp trains the artifact, boots the stack and prefills every job, timing
// each step: setup_s runs from the start of training until every prefilled
// job has a readable prediction. The forced collections that measure
// job_mem_kb are excluded from it.
func setUp(wl workload, gen *generator, dir string, tr *tracer) (*stack, *runner, setupResult, error) {
	var res setupResult
	t0 := time.Now()
	model := filepath.Join(dir, "model.wcc")
	if err := trainArtifact(model, wcctrainDefaults); err != nil {
		return nil, nil, res, fmt.Errorf("training: %w", err)
	}
	t1 := time.Now()
	st, err := buildStack(model, dir, wl.nodes, tr)
	if err != nil {
		return nil, nil, res, fmt.Errorf("booting: %w", err)
	}
	t2 := time.Now()
	if m := st.lm.Artifact.Meta; m.Window != gen.window || m.Sensors != gen.sensors {
		st.close()
		return nil, nil, res, fmt.Errorf("artifact windows are %dx%d, generator's %dx%d", m.Window, m.Sensors, gen.window, gen.sensors)
	}
	heap0 := liveHeap()
	r := newRunner(wl, gen, newClient(tr != nil), st)
	t3 := time.Now()
	if res.accepted, err = r.prefill(); err == nil {
		err = r.waitReadable(60 * time.Second)
	}
	t4 := time.Now()
	if err != nil {
		st.close()
		return nil, nil, res, err
	}
	heap1 := liveHeap()
	res.train, res.boot, res.prefill = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
	res.total = res.train + res.boot + res.prefill
	res.jobMemKB = float64(int64(heap1)-int64(heap0)) / 1024 / float64(gen.jobs+gen.probes)
	return st, r, res, nil
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// phaseResult is one measured phase: one or more segments, each a boot of
// the stack that is set up, loaded, drained and gated.
type phaseResult struct {
	e2e, layers         map[string]float64
	segs                []*segment
	correct             bool
	attempted, failed   int
	checked, mismatched int
	clientAcc, nodeAcc  int64
	nAck, nFresh, nRead int
	offered, accepted   int64
	lagP99              float64
}

// segment is one boot of the stack: set-up, warm-up, a measured stretch of
// load, drain and the correctness gate.
type segment struct {
	setup               setupResult
	rec                 record
	span                float64       // seconds the measured stretch was scheduled to last
	cpu                 time.Duration // process CPU over the measured stretch
	elapsed             float64       // seconds from the start of measuring to the last ack
	checked, mismatched int
	right, idJobs       int
	clientAcc, nodeAcc  int64

	// Traced only: the counters read when measuring began and after drain.
	tr0, tr1      tracerCounts
	rt0, rt1      runtimeCounts
	before, after *nodeScrape
	sseDelivered  int64
}

// runPhase measures the workload for dur in the given number of segments,
// each on a freshly set-up stack, and reports every latency percentile as
// the median over the windows of all segments. Each boot settles into its
// own timing state (how its shards' tick loops and the traffic fall
// against each other), which holds for the boot's lifetime and moves its
// latencies by tens of percent; spreading the windows over several boots
// reports the typical one.
func runPhase(wl workload, gen *generator, dir string, dur time.Duration, segments int, tr *tracer) (*phaseResult, error) {
	p := &phaseResult{layers: map[string]float64{}}
	for i := 0; i < segments; i++ {
		s, err := runSegment(wl, gen, dir, dur/time.Duration(segments), tr)
		if err != nil {
			return nil, err
		}
		p.segs = append(p.segs, s)
	}

	var totals, mems []float64
	var elapsed float64
	var cpu time.Duration
	var right, idJobs int
	p.correct = true
	for _, s := range p.segs {
		conserved := s.clientAcc == s.nodeAcc
		p.correct = p.correct && s.mismatched == 0 && conserved
		p.attempted += s.rec.ops + s.checked + 1
		p.failed += s.rec.failed + s.mismatched
		if !conserved {
			p.failed++
		}
		p.checked += s.checked
		p.mismatched += s.mismatched
		p.clientAcc += s.clientAcc
		p.nodeAcc += s.nodeAcc
		p.nAck += len(s.rec.ack)
		p.nFresh += len(s.rec.fresh)
		p.nRead += len(s.rec.read)
		p.offered += s.rec.samples
		p.accepted += s.rec.accepted
		right += s.right
		idJobs += s.idJobs
		elapsed += s.elapsed
		cpu += s.cpu
		totals = append(totals, s.setup.total.Seconds())
		mems = append(mems, s.setup.jobMemKB)
	}
	p.lagP99 = p.quantile(0.99, func(r *record) latencies { return r.lag })
	p.e2e = map[string]float64{
		"setup_s":           median(totals),
		"ingest_sps":        float64(p.accepted) / elapsed,
		"ack_p50_ms":        p.quantile(0.50, func(r *record) latencies { return r.ack }),
		"ack_p99_ms":        p.quantile(0.99, func(r *record) latencies { return r.ack }),
		"fresh_p50_ms":      p.quantile(0.50, func(r *record) latencies { return r.fresh }),
		"fresh_p90_ms":      p.quantile(0.90, func(r *record) latencies { return r.fresh }),
		"fresh_p99_ms":      p.quantile(0.99, func(r *record) latencies { return r.fresh }),
		"read_p50_ms":       p.quantile(0.50, func(r *record) latencies { return r.read }),
		"read_p99_ms":       p.quantile(0.99, func(r *record) latencies { return r.read }),
		"cpu_us_per_sample": float64(cpu) / float64(time.Microsecond) / float64(p.accepted),
		"job_mem_kb":        median(mems),
		"acc_pct":           100 * float64(right) / float64(idJobs),
	}
	if tr != nil {
		p.traceLayers(tr, p.segs[len(p.segs)-1])
	}
	return p, nil
}

// quantile is the median, over the windows of every segment, of each
// window's q-quantile of the latencies pick selects.
func (p *phaseResult) quantile(q float64, pick func(*record) latencies) float64 {
	var per []float64
	for _, s := range p.segs {
		per = pick(&s.rec).windowed(q, s.span, per)
	}
	return median(per)
}

// runSegment sets the stack up, runs the workload through warm-up and then
// for dur, drains, and applies the correctness gate.
func runSegment(wl workload, gen *generator, dir string, dur time.Duration, tr *tracer) (*segment, error) {
	st, r, res, err := setUp(wl, gen, dir, tr)
	if err != nil {
		return nil, err
	}
	s := &segment{setup: res, span: dur.Seconds()}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	c := r.c
	var sse *sseReader
	if wl.sse {
		if sse, err = c.subscribe(r.urls[0]); err != nil {
			return nil, err
		}
		defer sse.close()
	}

	// The load runs from start; the first warmup of it is not measured, and
	// the counters behind every per-segment delta are read when measuring
	// begins, at from.
	start := time.Now().Add(10 * time.Millisecond)
	from := start.Add(warmup)
	end := from.Add(dur)
	var (
		snapErr  error
		cpu0     time.Duration
		sse0     int64
		snapDone = make(chan struct{})
	)
	time.AfterFunc(time.Until(from), func() {
		defer close(snapDone)
		if tr != nil {
			tr.resetLatencies()
			s.tr0 = tr.counts()
		}
		cpu0, s.rt0 = cpuTime(), readRuntime()
		if sse != nil {
			sse0 = sse.delivered.Load()
		}
		s.before, snapErr = scrape(c, r.urls, tr != nil)
	})
	var ws []*worker
	if wl.open {
		ws = r.runOpen(start, from, end)
	} else {
		ws = r.runClosed(start, from, end)
	}
	<-snapDone
	if snapErr != nil {
		return nil, snapErr
	}
	for _, w := range ws {
		s.rec.merge(&w.rec)
	}

	cpu1, rt1 := cpuTime(), readRuntime()
	s.cpu, s.rt1 = cpu1-cpu0, rt1
	s.elapsed = s.rec.lastAck.Sub(from).Seconds()
	if err := st.flush(); err != nil {
		return nil, err
	}
	if tr != nil {
		s.tr1 = tr.counts()
	}
	if sse != nil {
		s.sseDelivered = sse.delivered.Load() - sse0
	}
	if s.after, err = scrape(c, r.urls, tr != nil); err != nil {
		return nil, err
	}

	// Drain and gate: the final tick scores every pending window, then each
	// job's prediction must equal the oracle's on the same sample sequence,
	// and every accepted sample must be counted as ingested by some node.
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}
	served := make([]*stream.Prediction, gen.jobs+gen.probes)
	for j := range served {
		served[j], _ = st.prediction(j)
	}
	lm := st.lm
	st, r.st = nil, nil
	c.hc.CloseIdleConnections()
	runtime.GC()

	s.clientAcc = s.rec.allAccepted + res.accepted
	s.nodeAcc = int64(s.after.sum("wcc_samples_ingested_total"))
	if err := s.gate(gen, r, lm, served); err != nil {
		return nil, err
	}
	return s, nil
}

// median of v (the mean of the middle two for an even count); v is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

func pctChange(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounts are cumulative allocator and collector counters.
type runtimeCounts struct {
	allocBytes, mallocs, gcCycles uint64
	pauseNs                       uint64
}

func readRuntime() runtimeCounts {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounts{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), ms.PauseTotalNs}
}

// cpuModel names the processor for the result header.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// nodeScrape is every node's /metrics (and, traced, /v1/trace) at one instant.
type nodeScrape struct {
	metrics []map[string]float64
	stages  []map[string]stageSum
}

func scrape(c *client, urls []string, withTrace bool) (*nodeScrape, error) {
	s := &nodeScrape{}
	for _, u := range urls {
		m, err := c.scrapeMetrics(u)
		if err != nil {
			return nil, err
		}
		s.metrics = append(s.metrics, m)
		if withTrace {
			t, err := c.scrapeTrace(u)
			if err != nil {
				return nil, err
			}
			s.stages = append(s.stages, t)
		}
	}
	return s, nil
}

// sum adds a metric over all nodes.
func (s *nodeScrape) sum(name string) float64 {
	var v float64
	for _, m := range s.metrics {
		v += m[name]
	}
	return v
}

func (s *nodeScrape) stage(name string) (count int64, sum float64) {
	for _, st := range s.stages {
		count += st[name].count
		sum += st[name].sum
	}
	return count, sum
}
