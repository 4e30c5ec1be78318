package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/stream"
)

// gate is the correctness check every run applies after drain: each job's
// served final prediction must be bit-identical to an in-process oracle fed
// that job's sample sequence. It also scores accuracy over the workload's
// in-distribution jobs. Jobs with a failed request are skipped (the
// failure is already counted); every other job is one checked operation.
func (s *segment) gate(gen *generator, r *runner, lm *repro.LoadedModel, served []*stream.Prediction) error {
	o, err := newOracle(lm)
	if err != nil {
		return err
	}
	seq := func(j int, push func([]float64) error) error {
		for k := 0; k < r.sent[j]; k++ {
			if err := push(gen.sample(j, k)); err != nil {
				return err
			}
		}
		return nil
	}
	const batch = 256
	var jobs []int
	check := func() error {
		want, err := o.predict(jobs, seq)
		if err != nil {
			return err
		}
		for i, j := range jobs {
			s.checked++
			if !samePrediction(served[j], want[i]) {
				s.mismatched++
				if s.mismatched <= 3 {
					fmt.Fprintf(os.Stderr, "servebench: job %d: served %+v, oracle %+v\n", j, served[j], want[i])
				}
			}
		}
		jobs = jobs[:0]
		return nil
	}
	for j := range served {
		if r.tainted[j] {
			continue
		}
		if jobs = append(jobs, j); len(jobs) == batch {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if len(jobs) > 0 {
		if err := check(); err != nil {
			return err
		}
	}
	for j := 0; j < gen.jobs; j++ {
		if r.tainted[j] || gen.labelOf(j) < 0 {
			continue
		}
		s.idJobs++
		if served[j] != nil && served[j].Class == gen.labelOf(j) {
			s.right++
		}
	}
	return nil
}

// tracerCounts is one reading of the wrappers' counters.
type tracerCounts struct {
	handler, ingest, tick, read, batch, single, publish, fwd counterValue
	rows, frows, fwdBytes                                    int64
}

func (t *tracer) counts() tracerCounts {
	return tracerCounts{
		handler: t.handler.load(), ingest: t.ingest.load(), tick: t.tick.load(), read: t.read.load(),
		batch: t.batch.load(), single: t.single.load(), publish: t.publish.load(), fwd: t.fwd.load(),
		rows: t.rows.Load(), frows: t.frows.Load(), fwdBytes: t.fwdBytes.Load(),
	}
}

// recordBytes is the binary framing's size of one 7-sensor sample.
const recordBytes = 4 + 10 + 8*7

// traceLayers fills the per-layer metrics of a traced phase from its
// segment's wrappers, /metrics and /v1/trace deltas, load generator and Go
// runtime counters.
func (p *phaseResult) traceLayers(tr *tracer, sg *segment) {
	L := p.layers
	c0, c1, before, after, rec, rt0, rt1 := sg.tr0, sg.tr1, sg.before, sg.after, &sg.rec, sg.rt0, sg.rt1
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }

	L["loadgen.lag_p99_ms"] = p.lagP99
	L["loadgen.requests"] = float64(rec.ops)
	L["loadgen.samples"] = float64(rec.samples)
	// Each measured ingest request's round trip splits into the server
	// handler's time for it and everything else: the transport.
	var transport, ingestHandler []float64
	for _, x := range rec.rtts {
		if h, ok := tr.handlerTime(x.seq); ok {
			transport = append(transport, ms(x.rtt-h))
			ingestHandler = append(ingestHandler, ms(h))
		}
	}
	L["loadgen.transport_p50_ms"] = percentile(transport, 0.5)
	L["count.ack"], L["count.fresh"], L["count.read"] = float64(p.nAck), float64(p.nFresh), float64(p.nRead)

	h := c1.handler.sub(c0.handler)
	hd := tr.handlerDur.snapshot()
	L["server.requests"] = float64(h.calls)
	L["server.handler_s"] = secs(h.ns)
	L["server.handler_p50_ms"] = percentile(hd, 0.5)
	L["server.handler_p99_ms"] = percentile(hd, 0.99)
	L["server.ingest_handler_p50_ms"] = percentile(ingestHandler, 0.5)
	L["server.throttled"] = delta("wcc_ingest_throttled_total")
	L["server.line_errors"] = delta("wcc_ingest_line_errors_total")

	for _, st := range traceStages {
		n0, s0 := before.stage(st)
		n1, s1 := after.stage(st)
		L["trace."+st+"_s"] = s1 - s0
		L["trace."+st+"_count"] = float64(n1 - n0)
	}

	in := c1.ingest.sub(c0.ingest)
	L["fleet.ingest_calls"] = float64(in.calls)
	L["fleet.ingest_s"] = secs(in.ns)
	L["fleet.ingest_ns_per_sample"] = per(float64(in.ns), float64(in.calls))
	tk := c1.tick.sub(c0.tick)
	td := tr.tickDur.snapshot()
	rows := float64(c1.rows - c0.rows)
	b, s := c1.batch.sub(c0.batch), c1.single.sub(c0.single)
	L["fleet.tick_calls"] = float64(tk.calls)
	L["fleet.tick_s"] = secs(tk.ns)
	L["fleet.tick_p50_ms"] = percentile(td, 0.5)
	L["fleet.tick_p99_ms"] = percentile(td, 0.99)
	L["fleet.rows"] = rows
	L["fleet.rows_per_tick"] = per(rows, float64(tk.calls))
	L["fleet.tick_self_s"] = secs(tk.ns - b.ns - s.ns)
	rd := c1.read.sub(c0.read)
	L["fleet.read_calls"] = float64(rd.calls)
	L["fleet.read_s"] = secs(rd.ns)

	frows := float64(c1.frows - c0.frows)
	L["forest.calls"] = float64(b.calls)
	L["forest.single_calls"] = float64(s.calls)
	L["forest.rows"] = frows
	L["forest.ns_per_row"] = per(float64(b.ns+s.ns), frows)

	pub := c1.publish.sub(c0.publish)
	L["events.published"] = float64(pub.calls)
	L["events.publish_s"] = secs(pub.ns)
	L["events.dropped"] = delta("wcc_events_dropped_total")
	L["events.sse_delivered"] = float64(sg.sseDelivered)
	L["events.sse_evicted"] = delta("wcc_event_subscribers_evicted_total")

	fw := c1.fwd.sub(c0.fwd)
	fbytes := float64(c1.fwdBytes - c0.fwdBytes)
	L["cluster.fwd_posts"] = float64(fw.calls)
	L["cluster.fwd_samples"] = fbytes / recordBytes
	L["cluster.fwd_bytes"] = fbytes
	L["cluster.fwd_s"] = secs(fw.ns)
	L["cluster.fwd_p99_ms"] = percentile(tr.fwdDur.snapshot(), 0.99)
	L["cluster.fwd_dropped"] = delta("wcc_cluster_forward_dropped_total")
	L["cluster.fwd_errors"] = delta("wcc_cluster_forward_errors_total")
	L["cluster.redirects"] = delta("wcc_cluster_redirects_total")

	acc := float64(rec.accepted)
	L["runtime.alloc_bytes_per_sample"] = per(float64(rt1.allocBytes-rt0.allocBytes), acc)
	L["runtime.mallocs_per_sample"] = per(float64(rt1.mallocs-rt0.mallocs), acc)
	L["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	L["runtime.gc_pause_s"] = secs(int64(rt1.pauseNs - rt0.pauseNs))

	L["setup.train_s"] = sg.setup.train.Seconds()
	L["setup.boot_s"] = sg.setup.boot.Seconds()
	L["setup.prefill_s"] = sg.setup.prefill.Seconds()

	// "Which layer is slow": the layer terms should add up to the
	// end-to-end figure they explain.
	L["sum.ack_layers_ms"] = L["server.ingest_handler_p50_ms"] + L["loadgen.transport_p50_ms"]
	L["sum.ack_ratio"] = per(L["sum.ack_layers_ms"], p.e2e["ack_p50_ms"])
	L["sum.fresh_layers_ms"] = p.e2e["ack_p50_ms"] + ms(tickEvery)/2 + L["fleet.tick_p50_ms"] + p.e2e["read_p50_ms"]
	L["sum.fresh_ratio"] = per(L["sum.fresh_layers_ms"], p.e2e["fresh_p50_ms"])
}

// print writes a phase's end-to-end figures, with sample counts, as
// comment lines ahead of the JSON result.
func (p *phaseResult) print(label string) {
	e := p.e2e
	var tr, b, pf time.Duration
	for _, s := range p.segs {
		tr, b, pf = tr+s.setup.train, b+s.setup.boot, pf+s.setup.prefill
	}
	n := time.Duration(len(p.segs))
	fmt.Printf("# %s setup: %d set-ups, median %.3f s (mean train %.3f s, boot %.3f s, prefill %.3f s), %.2f KiB per job\n",
		label, len(p.segs), e["setup_s"], (tr / n).Seconds(), (b / n).Seconds(), (pf / n).Seconds(), e["job_mem_kb"])
	fmt.Printf("# %s ingest: %.0f samples/s (%d of %d offered samples accepted), ack p50 %.3f ms p99 %.3f ms (n=%d), %.3f us CPU per sample\n",
		label, e["ingest_sps"], p.accepted, p.offered, e["ack_p50_ms"], e["ack_p99_ms"], p.nAck, e["cpu_us_per_sample"])
	fmt.Printf("# %s fresh p50 %.3f ms p90 %.3f ms p99 %.3f ms (n=%d); read p50 %.3f ms p99 %.3f ms (n=%d); generator lag p99 %.3f ms\n",
		label, e["fresh_p50_ms"], e["fresh_p90_ms"], e["fresh_p99_ms"], p.nFresh, e["read_p50_ms"], e["read_p99_ms"], p.nRead, p.lagP99)
	for _, k := range []struct {
		name string
		pick func(*record) latencies
	}{
		{"ack", func(r *record) latencies { return r.ack }},
		{"fresh", func(r *record) latencies { return r.fresh }},
		{"read", func(r *record) latencies { return r.read }},
	} {
		var b strings.Builder
		for _, s := range p.segs {
			v := k.pick(&s.rec).values()
			fmt.Fprintf(&b, " %.3f/%.3f/%.3f (n=%d)", percentile(v, 0.5), percentile(v, 0.9), percentile(v, 0.99), len(v))
		}
		fmt.Printf("# %s %s p50/p90/p99 ms per segment:%s\n", label, k.name, b.String())
	}
	fmt.Printf("# %s gate: %d of %d jobs bit-identical to the oracle; %d samples accepted by the client, %d ingested by the nodes; accuracy %.2f%%; %d of %d operations failed\n",
		label, p.checked-p.mismatched, p.checked, p.clientAcc, p.nodeAcc, e["acc_pct"], p.failed, p.attempted)
}

// printTable writes the traced phase's per-layer numbers as a markdown
// table, followed by the two layer sums and the tracing overhead.
func printTable(wl workload, p *phaseResult) {
	L := p.layers
	f := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }
	rows := [][]string{
		{"**loadgen**", f("%.0f requests<br/>%.0f samples", L["loadgen.requests"], L["loadgen.samples"]), "–", "–",
			f("transport %.3f ms", L["loadgen.transport_p50_ms"]), f("lag %.3f ms", L["loadgen.lag_p99_ms"]),
			"schedule check, not a target"},
		{"**server handler**", f("%.0f requests", L["server.requests"]), f("%.3f", L["server.handler_s"]), "–",
			f("%.3f ms", L["server.handler_p50_ms"]), f("%.3f ms", L["server.handler_p99_ms"]),
			f("throttled %.0f<br/>line errors %.0f", L["server.throttled"], L["server.line_errors"])},
	}
	for _, st := range traceStages {
		n, s := L["trace."+st+"_count"], L["trace."+st+"_s"]
		rows = append(rows, []string{"trace " + st, f("%.0f spans", n), f("%.3f", s), f("%.1f us/span", 1e6*s/max(n, 1)), "–", "–", "shipped /v1/trace"})
	}
	rows = append(rows,
		[]string{"**fleet ingest**", f("%.0f samples", L["fleet.ingest_calls"]), f("%.3f", L["fleet.ingest_s"]),
			f("%.0f ns/sample", L["fleet.ingest_ns_per_sample"]), "–", "–", "Monitor.Ingest wrapper"},
		[]string{"**fleet tick**", f("%.0f ticks<br/>%.0f rows", L["fleet.tick_calls"], L["fleet.rows"]), f("%.3f", L["fleet.tick_s"]),
			f("%.1f rows/tick", L["fleet.rows_per_tick"]), f("%.3f ms", L["fleet.tick_p50_ms"]), f("%.3f ms", L["fleet.tick_p99_ms"]),
			f("self %.3f s", L["fleet.tick_self_s"])},
		[]string{"**fleet read**", f("%.0f reads", L["fleet.read_calls"]), f("%.3f", L["fleet.read_s"]), "–", "–", "–", "Monitor.Prediction wrapper"},
		[]string{"**forest**", f("%.0f batched calls<br/>%.0f rows", L["forest.calls"], L["forest.rows"]), "–",
			f("%.0f ns/row", L["forest.ns_per_row"]), "–", "–", f("%.0f unbatched calls", L["forest.single_calls"])},
		[]string{"**events**", f("%.0f published", L["events.published"]), f("%.4f", L["events.publish_s"]), "–", "–", "–",
			f("dropped %.0f<br/>SSE delivered %.0f, evicted %.0f", L["events.dropped"], L["events.sse_delivered"], L["events.sse_evicted"])},
		[]string{"**cluster forward**", f("%.0f posts<br/>%.0f samples", L["cluster.fwd_posts"], L["cluster.fwd_samples"]), f("%.3f", L["cluster.fwd_s"]),
			"–", "–", f("%.3f ms", L["cluster.fwd_p99_ms"]),
			f("dropped %.0f, errors %.0f<br/>redirects %.0f", L["cluster.fwd_dropped"], L["cluster.fwd_errors"], L["cluster.redirects"])},
		[]string{"**runtime**", f("%.0f GCs", L["runtime.gc_cycles"]), f("%.4f pause", L["runtime.gc_pause_s"]),
			f("%.0f B/sample<br/>%.2f allocs/sample", L["runtime.alloc_bytes_per_sample"], L["runtime.mallocs_per_sample"]), "–", "–", "Go runtime"},
		[]string{"**setup**", "1 set-up", f("%.3f", L["setup.train_s"]+L["setup.boot_s"]+L["setup.prefill_s"]), "–", "–", "–",
			f("train %.3f s<br/>boot %.3f s<br/>prefill %.3f s", L["setup.train_s"], L["setup.boot_s"], L["setup.prefill_s"])},
	)
	fmt.Printf("\n| Layer (%s, traced) | Work | Busy (s) | Per item | p50 | p99 | Notes |\n", wl.name)
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Println("| " + strings.Join(r, " | ") + " |")
	}
	e := p.e2e
	fmt.Printf("\nack sum: ingest handler p50 %.3f ms + transport p50 %.3f ms = %.3f ms vs ack p50 %.3f ms (ratio %.2f)\n",
		L["server.ingest_handler_p50_ms"], L["loadgen.transport_p50_ms"], L["sum.ack_layers_ms"], e["ack_p50_ms"], L["sum.ack_ratio"])
	fmt.Printf("fresh sum: ack p50 %.3f ms + half tick %.3f ms + tick p50 %.3f ms + read p50 %.3f ms = %.3f ms vs fresh p50 %.3f ms (ratio %.2f)\n",
		e["ack_p50_ms"], ms(tickEvery)/2, L["fleet.tick_p50_ms"], e["read_p50_ms"], L["sum.fresh_layers_ms"], e["fresh_p50_ms"], L["sum.fresh_ratio"])
	var parts []string
	for _, m := range e2eMetrics {
		if v, ok := L["overhead."+m.name]; ok {
			parts = append(parts, f("%s %+.1f%%", m.name, v))
		}
	}
	fmt.Printf("tracing overhead (traced vs untraced): %s\n\n", strings.Join(parts, ", "))
}
