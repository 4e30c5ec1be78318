package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/telemetry"
)

// The generator is the client side's only source of inputs: every sample,
// read target and probe the benchmark sends comes from it, and all of it is
// a pure function of the workload seed. The serving stack receives only the
// generated requests.

const (
	// replayStart skips the class-agnostic startup phase of a simulated
	// job, as wccserve's replay does.
	replayStart = 120.0
	// seriesLen is the length of each materialised source series. A job
	// cycles through its series from a seeded offset, so a run of any
	// length has input without materialising per-job telemetry.
	seriesLen = 1024
	// oodSeries is the number of distinct out-of-distribution profiles.
	oodSeries = 16
)

// generator holds the source series and each job's place in them. Job IDs
// 0..jobs-1 are the workload's jobs; jobs..jobs+probes-1 are the
// freshness probe jobs.
type generator struct {
	seed    int64
	sensors int
	window  int
	jobs    int
	probes  int
	workers int

	series [][]float64 // seriesLen×sensors, row-major
	label  []int       // class of each series; -1 for out-of-distribution
	src    []int       // per job ID: series index
	off    []int       // per job ID: starting offset into the series

	// groups[w] lists the workload jobs worker w owns, in the seeded order
	// its requests visit them. A job belongs to exactly one worker, and a
	// worker sends sequentially, so each job's samples arrive in order.
	groups [][]int
}

// newGenerator materialises the source series from the simulator the model
// was trained on and assigns every job a series and an offset from seed.
// oodFrac of the workload jobs replay out-of-distribution profiles.
func newGenerator(sim *telemetry.Simulator, seed int64, window, sensors, jobs, probes, workers int, oodFrac float64) (*generator, error) {
	if jobs < 1 || workers < 1 || probes < 0 {
		return nil, fmt.Errorf("generator: %d jobs, %d probes, %d workers", jobs, probes, workers)
	}
	rng := rand.New(rand.NewSource(seed))
	var eligible []*telemetry.Job
	for _, j := range sim.Jobs() {
		if j.Duration >= replayStart+float64(seriesLen)*telemetry.GPUSampleDT+1 {
			eligible = append(eligible, j)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("generator: no simulated job runs %d samples past %.0fs", seriesLen, replayStart)
	}
	// Every eligible series is used, so the seed changes which jobs replay
	// which series and from where, not which telemetry the fleet sees.
	srcJobs := append([]*telemetry.Job(nil), eligible...)
	nID := len(srcJobs)
	nOOD := 0
	if oodFrac > 0 {
		nOOD = oodSeries
		srcJobs = append(srcJobs, telemetry.UnknownJobs(nOOD, seed)...)
	}
	g := &generator{
		seed: seed, sensors: sensors, window: window,
		jobs: jobs, probes: probes, workers: workers,
		series: make([][]float64, len(srcJobs)),
		label:  make([]int, len(srcJobs)),
		src:    make([]int, jobs+probes),
		off:    make([]int, jobs+probes),
	}
	for i, j := range srcJobs {
		m, err := j.GPUWindow(0, replayStart, seriesLen)
		if err != nil {
			return nil, err
		}
		if m.Cols != sensors {
			return nil, fmt.Errorf("generator: simulator emits %d sensors, model wants %d", m.Cols, sensors)
		}
		g.series[i] = m.Data
		g.label[i] = int(j.Class)
	}
	ood := make([]bool, jobs)
	for _, j := range rng.Perm(jobs)[:int(oodFrac*float64(jobs)+0.5)] {
		ood[j] = true
	}
	// The series are dealt out in a seeded order, so each backs an equal
	// share of the jobs to within one: the seed moves which job replays
	// which series, not the fleet's mix of classes, which accuracy and
	// scoring cost depend on.
	idOrder, oodOrder := rng.Perm(nID), rng.Perm(nOOD)
	nextID, nextOOD := 0, 0
	for j := range g.src {
		if j < jobs && ood[j] {
			g.src[j] = nID + oodOrder[nextOOD%nOOD]
			nextOOD++
		} else {
			g.src[j] = idOrder[nextID%nID]
			nextID++
		}
		g.off[j] = rng.Intn(seriesLen)
	}
	g.groups = make([][]int, workers)
	for j := 0; j < jobs; j++ {
		g.groups[j%workers] = append(g.groups[j%workers], j)
	}
	for _, grp := range g.groups {
		rng.Shuffle(len(grp), func(i, k int) { grp[i], grp[k] = grp[k], grp[i] })
	}
	return g, nil
}

// sample returns sample k of a job's stream. The slice aliases the source
// series and must not be modified.
func (g *generator) sample(job, k int) []float64 {
	i := (g.off[job] + k) % seriesLen
	return g.series[g.src[job]][i*g.sensors : (i+1)*g.sensors]
}

// probeJob returns the job ID of freshness probe p.
func (g *generator) probeJob(p int) int { return g.jobs + p }

// prefillLen is how many samples set-up sends a job: a full window for a
// workload job, one short of it for a probe job.
func (g *generator) prefillLen(job int) int {
	if job >= g.jobs {
		return g.window - 1
	}
	return g.window
}

// label of a job: its simulation class, or -1 when it replays an
// out-of-distribution profile.
func (g *generator) labelOf(job int) int { return g.label[g.src[job]] }

// prefillJobs lists the jobs worker w prefills: its workload group and the
// probe jobs it owns, in ID order.
func (g *generator) prefillJobs(w int) []int {
	out := append([]int(nil), g.groups[w]...)
	sort.Ints(out)
	for p := w; p < g.probes; p += g.workers {
		out = append(out, g.probeJob(p))
	}
	return out
}

// interleaved returns the jobs of request r in worker w's open-loop stream:
// the group's jobs in a fixed order, one sample each per round, cut into
// requests of size samples. A request never holds two samples of one job
// as long as size ≤ the group size.
func (g *generator) interleaved(w, r, size int, fn func(job, round int)) {
	grp := g.groups[w]
	for e := r * size; e < (r+1)*size; e++ {
		fn(grp[e%len(grp)], e/len(grp))
	}
}
