package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/stream"
)

// smallTrain is a quick artifact of the same kind the benchmark trains.
var smallTrain = trainOpts{dataset: "60-middle-1", scale: 0.05, seed: 1, maxTrain: 150, maxTest: 60, trees: 12}

// replay boots a stack, prefills a small fleet, sends every job a short
// run of further samples, drains, and returns each job's final prediction
// with the stack (closed) for inspection.
func replay(t *testing.T, model string, nodes int, tr *tracer, gen *generator) ([]*stream.Prediction, *stack, int) {
	t.Helper()
	st, err := buildStack(model, t.TempDir(), nodes, tr)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload{binary: true}
	r := newRunner(wl, gen, newClient(tr != nil), st)
	if _, err := r.prefill(); err != nil {
		st.close()
		t.Fatal(err)
	}
	for w := range gen.groups {
		wk := &worker{r: r, id: w}
		for _, j := range gen.groups[w] {
			if !wk.send(wk.from, r.urls[0], []int{j}, func(int) int { return 50 }, true) {
				st.close()
				t.Fatalf("replay ingest for job %d failed", j)
			}
		}
	}
	var health struct {
		Shards int `json:"shards"`
	}
	if err := r.c.getJSON(r.urls[0]+"/healthz", &health); err != nil {
		st.close()
		t.Fatal(err)
	}
	if err := st.flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	preds := make([]*stream.Prediction, gen.jobs+gen.probes)
	for j := range preds {
		preds[j], _ = st.prediction(j)
	}
	return preds, st, health.Shards
}

// TestTracedStackChangesNothing pins the timing wrappers as observers only:
// on the same replay the traced stack serves bit-identical predictions, the
// server still runs one tick loop per shard, and ticks still take the
// batched classify path — on one node and on a three-node cluster.
func TestTracedStackChangesNothing(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.wcc")
	if err := trainArtifact(model, smallTrain); err != nil {
		t.Fatal(err)
	}
	sim, err := simulatorFor(smallTrain)
	if err != nil {
		t.Fatal(err)
	}
	window, sensors := windowShape()
	gen, err := newGenerator(sim, 7, window, sensors, 48, 4, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3} {
		plain, _, _ := replay(t, model, nodes, nil, gen)
		tr := newTracer()
		traced, st, shards := replay(t, model, nodes, tr, gen)
		for j := 0; j < gen.jobs; j++ {
			if plain[j] == nil {
				t.Fatalf("%d nodes: job %d has no prediction after drain", nodes, j)
			}
			if !samePrediction(plain[j], traced[j]) {
				t.Errorf("%d nodes: job %d: traced %+v, untraced %+v", nodes, j, traced[j], plain[j])
			}
		}
		if want := runtime.GOMAXPROCS(0); shards != want {
			t.Errorf("%d nodes: server reports %d shard tick loops, want %d", nodes, shards, want)
		}
		for _, n := range st.nodes {
			for i, s := range n.core.ShardStats() {
				if s.Ticks == 0 {
					t.Errorf("%d nodes: %s shard %d never ticked", nodes, n.url, i)
				}
			}
		}
		c := tr.counts()
		if c.batch.calls == 0 || c.single.calls != 0 {
			t.Errorf("%d nodes: %d batched and %d unbatched classify calls; want only batched", nodes, c.batch.calls, c.single.calls)
		}
		if c.tick.calls == 0 || c.ingest.calls == 0 || c.handler.calls == 0 {
			t.Errorf("%d nodes: wrappers saw %d ticks, %d ingests, %d requests", nodes, c.tick.calls, c.ingest.calls, c.handler.calls)
		}
		if nodes > 1 && c.fwd.calls == 0 {
			t.Errorf("%d nodes: no forwarded ingest went through the traced transport", nodes)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
}
