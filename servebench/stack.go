package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/forest"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// This file holds every call the benchmark makes into the serving plane's
// constructors: training the artifact, booting the stack, and the oracle
// the correctness gate compares against. A change to how the serving core
// is assembled changes this file and nothing else.

// trainOpts are wcctrain's knobs for the "-model rf" path.
type trainOpts struct {
	dataset  string
	scale    float64
	seed     int64
	maxTrain int
	maxTest  int
	trees    int
}

// wcctrainDefaults are the flag defaults of `wcctrain -model rf -o X.wcc`.
var wcctrainDefaults = trainOpts{dataset: "60-middle-1", scale: 0.15, seed: 1, maxTrain: 800, maxTest: 400, trees: 100}

// simulatorFor returns the simulator an artifact trained with o was fitted
// on; the generator replays its jobs, as wccserve replays an artifact's
// provenance.
func simulatorFor(o trainOpts) (*telemetry.Simulator, error) {
	return telemetry.NewSimulator(telemetry.Config{Seed: o.seed, Scale: o.scale, GapRate: 1})
}

// windowShape is the window the trained artifact serves: the challenge's
// 60 s of DCGM samples over every GPU sensor.
func windowShape() (window, sensors int) {
	return dataset.WindowSamples, int(telemetry.NumGPUSensors)
}

// trainArtifact runs wcctrain's "-model rf -features cov" path, drift
// calibration included, and saves the artifact to path.
func trainArtifact(path string, o trainOpts) error {
	spec, ok := dataset.SpecByName(o.dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", o.dataset)
	}
	sim, err := simulatorFor(o)
	if err != nil {
		return err
	}
	p := core.PresetScaled()
	p.Seed = o.seed
	p.MaxTrain = o.maxTrain
	p.MaxTest = o.maxTest
	ch, err := core.BuildDataset(sim, spec, p)
	if err != nil {
		return err
	}
	fp, err := core.CovFeatures(ch)
	if err != nil {
		return err
	}
	numClasses := int(telemetry.NumClasses)
	m := forest.New(forest.Config{NumTrees: o.trees, Bootstrap: true, Seed: o.seed})
	if err := m.Fit(fp.TrainX, fp.TrainY, numClasses); err != nil {
		return err
	}
	pred, err := m.Predict(fp.TestX)
	if err != nil {
		return err
	}
	acc, err := metrics.Accuracy(fp.TestY, pred)
	if err != nil {
		return err
	}
	probs, err := m.PredictProba(fp.TestX)
	if err != nil {
		return err
	}
	cal, err := drift.Fit(drift.FitInput{
		Probs:           probs,
		TrainFeatures:   fp.TrainX,
		HeldOutFeatures: fp.TestX,
		RawSamples:      core.RawSensorSamples(ch.Train.X),
	}, drift.Options{Quantile: drift.DefaultQuantile, FeatQuantile: drift.DefaultFeatQuantile})
	if err != nil {
		return err
	}
	names := make([]string, numClasses)
	for _, c := range telemetry.AllClasses() {
		names[int(c)] = c.Name()
	}
	return artifact.Save(path, &artifact.Artifact{
		Meta: artifact.Metadata{
			ClassNames:  names,
			Features:    "cov",
			Window:      ch.Train.X.T,
			Sensors:     ch.Train.X.C,
			Dataset:     o.dataset,
			Scale:       o.scale,
			Seed:        o.seed,
			Accuracy:    acc,
			CreatedUnix: time.Now().Unix(),
			Tool:        "servebench",
		},
		Scaler: fp.Scaler,
		Drift:  cal,
		Model:  m,
	})
}

// stackNode is one serving process as wccserve -listen builds it.
type stackNode struct {
	url       string
	core      *shard.Core
	node      *cluster.Node // nil outside cluster mode
	mon       server.Monitor
	srv       *server.Server
	hs        *http.Server
	serveErr  chan error
	stopWatch chan struct{}
	watchDone chan struct{}
}

// stack is the booted serving plane: one node, or an in-process cluster.
type stack struct {
	lm    *repro.LoadedModel
	nodes []*stackNode
}

// tickEvery is wccserve's default -tick.
const tickEvery = 10 * time.Millisecond

// buildStack boots the serving plane from the artifact at modelPath exactly
// as `wccserve -model X -listen 127.0.0.1:0` does at its defaults (shards
// and ingest workers = GOMAXPROCS, 10ms tick, no eviction, 2s artifact
// poll), or, with nodes > 1, as that many `-cluster` processes. A non-nil
// tracer wraps the stack's public seams; nil builds it untouched.
func buildStack(modelPath, dir string, nodes int, tr *tracer) (st *stack, err error) {
	lm, err := repro.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	meta := lm.Artifact.Meta
	model := lm.Classifier()
	var transport http.RoundTripper
	if tr != nil {
		if model, err = tr.wrapClassifier(model); err != nil {
			return nil, err
		}
		transport = tr.wrapTransport(http.DefaultTransport)
	}
	st = &stack{lm: lm}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	listeners := make([]net.Listener, nodes)
	peers := make([]string, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	// abandon unwinds a node that failed mid-build; the deferred close
	// drains the nodes already serving.
	abandon := func(n *stackNode, unused []net.Listener, err error) error {
		close(n.watchDone)
		for _, l := range unused {
			l.Close()
		}
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	}
	for i := range listeners {
		n := &stackNode{url: peers[i], serveErr: make(chan error, 1), stopWatch: make(chan struct{}), watchDone: make(chan struct{})}
		st.nodes = append(st.nodes, n)
		n.core, err = shard.New(shard.Config{
			Window:  meta.Window,
			Sensors: meta.Sensors,
			Scaler:  lm.Artifact.Scaler,
			Model:   model,
			Drift:   lm.Artifact.Drift,
		})
		if err != nil {
			return nil, abandon(n, listeners[i:], err)
		}
		n.mon = n.core
		if nodes > 1 {
			n.node, err = cluster.New(cluster.Config{
				Self:      i,
				Peers:     peers,
				Core:      n.core,
				Dir:       filepath.Join(dir, fmt.Sprintf("node%d", i)),
				Window:    meta.Window,
				Sensors:   meta.Sensors,
				Scaler:    lm.Artifact.Scaler,
				Transport: transport,
				Logf:      logf,
			})
			if err != nil {
				return nil, abandon(n, listeners[i:], err)
			}
			n.mon = n.node.Monitor()
		}
		if tr != nil {
			n.mon = tr.wrapMonitor(n.mon)
		}
		n.srv, err = server.New(server.Config{
			Monitor:    n.mon,
			ClassNames: meta.ClassNames,
			TickEvery:  tickEvery,
			Workers:    runtime.GOMAXPROCS(0),
			Events:     events.NewBus(),
			Logf:       logf,
		})
		if err != nil {
			return nil, abandon(n, listeners[i:], err)
		}
		wc := server.WatchConfig{
			Path:    modelPath,
			Every:   2 * time.Second,
			Monitor: n.core,
			Window:  meta.Window,
			Sensors: meta.Sensors,
			Scaler:  lm.Artifact.Scaler,
			Logf:    logf,
		}
		handler := n.srv.Handler()
		if n.node != nil {
			wc.Distribute = n.node.DistributeFile
			handler = n.node.AttachServer(n.srv)
		}
		go func() {
			defer close(n.watchDone)
			server.Watch(n.stopWatch, wc)
		}()
		if tr != nil {
			handler = tr.wrapHandler(handler)
		}
		n.hs = &http.Server{Handler: handler}
		n.hs.RegisterOnShutdown(n.srv.CloseStreams)
		go func(ln net.Listener) { n.serveErr <- n.hs.Serve(ln) }(listeners[i])
	}
	for _, n := range st.nodes {
		if n.node != nil {
			n.node.Start()
		}
	}
	return st, nil
}

// owner returns the node index that owns a job while every node is alive:
// shard.JobHash modulo the node count, the placement the cluster routes by
// and wccload -cluster sends by. It does not ask a node, because while the
// stack shuts down the nodes mark each other dead and their own views of
// ownership move; the gate reads each job from the node that served it.
func (st *stack) owner(job int) int {
	return int(shard.JobHash(job) % uint64(len(st.nodes)))
}

// flush makes every forwarded sample land at its owner: after it returns,
// every sample a client saw accepted is applied somewhere.
func (st *stack) flush() error {
	for _, n := range st.nodes {
		if n.node != nil {
			if err := n.node.Flush(10 * time.Second); err != nil {
				return err
			}
		}
	}
	return nil
}

// close drains the stack in wccserve's SIGTERM order: listeners stop, the
// artifact watchers and cluster loops stop, then each server's Close ingests
// what is queued and runs the final tick that flushes every pending window.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var errs []error
	for _, n := range st.nodes {
		if n.hs != nil {
			if err := n.hs.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("http shutdown: %w", err))
			}
			if err := <-n.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		if n.stopWatch != nil {
			close(n.stopWatch)
			<-n.watchDone
			n.stopWatch = nil
		}
	}
	for _, n := range st.nodes {
		if n.node != nil {
			n.node.Stop()
		}
	}
	for _, n := range st.nodes {
		if n.srv != nil {
			if err := n.srv.Close(); err != nil {
				errs = append(errs, fmt.Errorf("final drain tick: %w", err))
			}
		}
	}
	return errors.Join(errs...)
}

// prediction returns a job's latest prediction from its owner's core. Only
// call it after close: the final tick has then scored every pending window.
func (st *stack) prediction(job int) (*stream.Prediction, bool) {
	return st.nodes[st.owner(job)].core.Prediction(job)
}

// oracle is the reference the correctness gate compares against: one plain
// fleet.Monitor fed each job's sample sequence in process.
type oracle struct {
	m *fleet.Monitor
}

func newOracle(lm *repro.LoadedModel) (*oracle, error) {
	m, err := fleet.New(fleet.Config{
		Window:  lm.Artifact.Meta.Window,
		Sensors: lm.Artifact.Meta.Sensors,
		Scaler:  lm.Artifact.Scaler,
		Model:   lm.Classifier(),
		Drift:   lm.Artifact.Drift,
	})
	if err != nil {
		return nil, err
	}
	return &oracle{m: m}, nil
}

// predict feeds each listed job its sequence, runs one tick, and returns
// the resulting predictions; the jobs are then ended so the oracle's
// memory stays bounded by one batch. Jobs are fed from GOMAXPROCS
// goroutines: each job's sequence stays in order, and jobs are independent.
func (o *oracle) predict(jobs []int, seq func(job int, push func([]float64) error) error) ([]*stream.Prediction, error) {
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs) && errs[g] == nil; i += n {
				j := jobs[i]
				errs[g] = seq(j, func(s []float64) error { return o.m.Ingest(j, s) })
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if _, err := o.m.Tick(); err != nil {
		return nil, err
	}
	out := make([]*stream.Prediction, len(jobs))
	for i, j := range jobs {
		out[i], _ = o.m.EndJob(j)
	}
	return out, nil
}

// samePrediction reports whether two predictions are bit-identical: class,
// probabilities and open-set annotation.
func samePrediction(a, b *stream.Prediction) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Class != b.Class || !sameBits(a.Probability, b.Probability) || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if !sameBits(a.Probs[i], b.Probs[i]) {
			return false
		}
	}
	if (a.Open == nil) != (b.Open == nil) {
		return false
	}
	if a.Open == nil {
		return true
	}
	return a.Open.Rejected == b.Open.Rejected && sameBits(a.Open.Margin, b.Open.Margin) &&
		sameBits(a.Open.Energy, b.Open.Energy) && sameBits(a.Open.FeatDist, b.Open.FeatDist)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
