package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/mec"
	"repro/internal/obs"
	"repro/internal/serve"
)

// endToEnd and perLayer name every reported metric with its unit, in the
// order BENCHMARK.json lists them. A metric a workload does not reach is
// reported as 0 with n=0.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"slo_share", "ratio"},
	{"admit_share", "ratio"},
	{"mean_reliability", "ratio"},
	{"met_share", "ratio"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.latency_p999_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.batches", "count"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.solve_ms_p99", "ms"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.gate_wait_ms_p99", "ms"},
	{"serve.conflict_share", "ratio"},
	{"serve.shared_share", "ratio"},
	{"serve.cache_hit_share", "ratio"},
	{"serve.infeasible_primary_share", "ratio"},
	{"serve.infeasible_solver_share", "ratio"},
	{"serve.greedy_share", "ratio"},
	{"serve.state_read_us_p50", "us"},
	{"serve.state_read_us_p99", "us"},
	{"admission.place_random_us", "us"},
	{"admission.place_maxrel_us", "us"},
	{"core.instance_us", "us"},
	{"core.solve_us.Failsafe", "us"},
	{"core.solve_ms.ILP.p50", "ms"},
	{"core.solve_ms.ILP.p99", "ms"},
	{"core.solve_ms.ILP.total", "ms"},
	{"core.solve_ms.Randomized.p50", "ms"},
	{"core.solve_ms.Randomized.p99", "ms"},
	{"core.solve_ms.Randomized.total", "ms"},
	{"core.solve_ms.Heuristic.p50", "ms"},
	{"core.solve_ms.Heuristic.p99", "ms"},
	{"core.solve_ms.Heuristic.total", "ms"},
	{"core.ilp_nodes", "count"},
	{"core.lp_pivots", "count"},
	{"core.heuristic_rounds", "count"},
	{"core.ilp_proven_share", "ratio"},
	{"engine.utilization", "ratio"},
	{"wal.appends_per_req", "count"},
	{"wal.bytes_per_req", "B"},
	{"wal.snapshots", "count"},
	{"wal.restore_ms", "ms"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// fillMissing sets every metric of table the run did not measure to 0 with
// no samples, and drops any metric outside the table, so a run reports
// exactly the table's names.
func fillMissing(rep *report, table []struct{ name, unit string }) {
	keep := make(map[string]metric, len(table))
	for _, m := range table {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = metric{Unit: m.unit}
			rep.samples[m.name] = 0
		}
		v.Unit = m.unit
		keep[m.name] = v
	}
	rep.metrics = keep
}

// solvers are the paper's three algorithms as the traced replay runs them.
// Randomized repairs capacity violations, so every result is feasible and a
// proven ILP optimum bounds it from above.
var solvers = []core.Solver{
	mustSolver("ILP"),
	core.NewRandomizedSolver(core.RandomizedOptions{Repair: true}),
	mustSolver("Heuristic"),
}

func mustSolver(name string) core.Solver {
	s, ok := core.Get(name)
	if !ok {
		panic("perfbench: solver " + name + " is not registered")
	}
	return s
}

// probe is a snapshot of the process-wide counters a layer metric is a
// difference of: obs registry counters and histogram sums, Go runtime
// metrics, and bytes written by the process.
type probe map[string]float64

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func takeProbe() probe {
	reg := obs.Default()
	p := probe{
		"batches":       float64(reg.Counter("serve_batches_total").Value()),
		"conflicts":     float64(reg.Counter("serve_commit_conflicts_total").Value()),
		"cache_hits":    float64(reg.Counter("serve_cache_hits_total").Value()),
		"cache_misses":  float64(reg.Counter("serve_cache_misses_total").Value()),
		"wal_snapshots": float64(reg.Counter("serve_wal_snapshots_total").Value()),
		"wal_appends":   float64(reg.Counter("serve_wal_appends_total").Value()),
		"batch_count":   float64(reg.Histogram("serve_batch_size", nil).Count()),
		"batch_sum":     reg.Histogram("serve_batch_size", nil).Sum(),
		"trial_seconds": reg.Histogram("engine_trial_duration_seconds", nil).Sum(),
		"wchar":         writtenBytes(),
	}
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ss[i].Name = name
	}
	metrics.Read(ss)
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			p[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			p[s.Name] = s.Value.Float64()
		}
	}
	return p
}

// add accumulates the difference end-start into p.
func (p probe) add(start, end probe) {
	for k, v := range end {
		p[k] += v - start[k]
	}
}

// gcShare is GC CPU time over busy (non-idle) CPU time.
func (p probe) gcShare() float64 {
	busy := p["/cpu/classes/total:cpu-seconds"] - p["/cpu/classes/idle:cpu-seconds"]
	if busy <= 0 {
		return 0
	}
	return p["/cpu/classes/gc/total:cpu-seconds"] / busy
}

// writtenBytes is the process's wchar from /proc/self/io: every byte passed
// to write(2), which during a serve pass is the WAL's appends and snapshots.
func writtenBytes() float64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// heapLive reads the live heap after the last GC.
func heapLive() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// directTimings holds per-call timings of the layers below serve, measured
// by calling them directly; ck checks the paper's solvers' results.
type directTimings struct {
	placeRandom, placeMaxrel, instance, failsafe []float64 // µs
	solveMS                                      map[string][]float64
	nodes, pivots, rounds, ilps, proven          int
	ck                                           *checker
}

func newDirectTimings(ck *checker) *directTimings {
	return &directTimings{solveMS: make(map[string][]float64), ck: ck}
}

// replay times admission.PlaceRandom, admission.PlaceMaxReliability,
// core.NewInstance and the serving solver on each request, every call
// against the same fork of net at its own residuals. Serve workloads pass a
// fresh network, so every call sees full capacity: the service keeps its
// cloudlets full while it runs, so at its steady occupancy most primaries
// find no capacity. The first exactSolves instances are also solved by the
// paper's three algorithms.
func (d *directTimings) replay(net *mec.Network, reqs []serve.AugmentRequest, admit string, seed int64, exactSolves int) {
	fork := net.Fork(net.ResidualSnapshot())
	snap := fork.ResidualSnapshot()
	serving := mustSolver("Failsafe")
	rng := rand.New(rand.NewSource(seed))
	for i, ar := range reqs {
		byRandom, byMaxrel, errRandom, errMaxrel := d.timePlacements(fork, mec.NewRequest(i, ar.SFC, ar.Expectation, ar.Source, ar.Destination), rng)
		req, err := byRandom, errRandom
		if admit == serve.AdmitMaxReliability {
			req, err = byMaxrel, errMaxrel
		}
		if err != nil {
			continue
		}
		for k, v := range req.Primaries {
			fork.Consume(v, net.Catalog().Type(req.SFC[k]).Demand)
		}
		d.instanceAndSolve(req, fork, serving, rng, i < exactSolves)
		fork.RestoreResiduals(snap)
	}
}

// timePlacements times both primary placements of fresh copies of r on net
// and returns the placed copies; net's residuals are restored after each.
func (d *directTimings) timePlacements(net *mec.Network, r *mec.Request, rng *rand.Rand) (byRandom, byMaxrel *mec.Request, errRandom, errMaxrel error) {
	snap := net.ResidualSnapshot()
	byRandom = mec.NewRequest(r.ID, r.SFC, r.Expectation, r.Source, r.Destination)
	t0 := time.Now()
	errRandom = admission.PlaceRandom(net, byRandom, rng)
	d.placeRandom = append(d.placeRandom, us(time.Since(t0)))
	net.RestoreResiduals(snap)

	byMaxrel = mec.NewRequest(r.ID, r.SFC, r.Expectation, r.Source, r.Destination)
	t0 = time.Now()
	errMaxrel = admission.PlaceMaxReliability(net, byMaxrel)
	d.placeMaxrel = append(d.placeMaxrel, us(time.Since(t0)))
	net.RestoreResiduals(snap)
	return byRandom, byMaxrel, errRandom, errMaxrel
}

// instanceAndSolve times core.NewInstance and the serving solver on one
// placed request, and the paper's three solvers when exact is set. Their
// results must satisfy Eq. (1) for their backup counts and violate no
// capacity. A proven ILP optimum below ρ must be at least every other
// solver's reliability (one that meets ρ is trimmed back towards it, so
// another solver's overshoot may exceed it).
func (d *directTimings) instanceAndSolve(req *mec.Request, net *mec.Network, serving core.Solver, rng *rand.Rand, exact bool) {
	t0 := time.Now()
	inst := core.NewInstance(net, req, core.Params{L: hopBound})
	d.instance = append(d.instance, us(time.Since(t0)))
	t0 = time.Now()
	if _, err := serving.Solve(inst, rng); err == nil {
		d.failsafe = append(d.failsafe, us(time.Since(t0)))
	}
	if !exact {
		return
	}
	rs := make([]float64, len(inst.Positions))
	for k, pos := range inst.Positions {
		rs[k] = pos.Func.Reliability
	}
	var ilp *core.Result
	for _, sv := range solvers {
		t0 = time.Now()
		res, err := sv.Solve(inst, rng)
		if err != nil {
			continue
		}
		d.record(sv.Name(), time.Since(t0), res)
		if u := chainReliability(rs, res.Counts); math.Abs(u-res.Reliability) > relTol {
			d.ck.fail("request %d %s: reliability %.12f, Eq. (1) gives %.12f", req.ID, sv.Name(), res.Reliability, u)
		}
		if res.Violated {
			d.ck.fail("request %d %s: capacity violated", req.ID, sv.Name())
		}
		if sv.Name() == "ILP" && res.Proven {
			ilp = res
		} else if ilp != nil && !ilp.MetExpectation && res.Reliability > ilp.Reliability+relTol {
			d.ck.fail("request %d: %s reliability %.12f above the proven ILP optimum %.12f, which misses ρ", req.ID, sv.Name(), res.Reliability, ilp.Reliability)
		}
	}
}

func (d *directTimings) record(solver string, took time.Duration, res *core.Result) {
	d.solveMS[solver] = append(d.solveMS[solver], ms(took))
	d.nodes += res.Nodes
	d.pivots += res.LPIterations
	d.rounds += res.Rounds
	if solver == "ILP" {
		d.ilps++
		if res.Proven {
			d.proven++
		}
	}
}

// report sets the admission and core metrics. Solver totals are sums over
// the replay.
func (d *directTimings) report(rep *report) {
	rep.set("admission.place_random_us", "us", median(d.placeRandom), len(d.placeRandom))
	rep.set("admission.place_maxrel_us", "us", median(d.placeMaxrel), len(d.placeMaxrel))
	rep.set("core.instance_us", "us", median(d.instance), len(d.instance))
	rep.set("core.solve_us.Failsafe", "us", median(d.failsafe), len(d.failsafe))
	for _, sv := range solvers {
		xs := d.solveMS[sv.Name()]
		key := "core.solve_ms." + sv.Name()
		rep.set(key+".p50", "ms", median(xs), len(xs))
		rep.set(key+".p99", "ms", quantile(xs, 0.99), len(xs))
		total := 0.0
		for _, x := range xs {
			total += x
		}
		rep.set(key+".total", "ms", total, len(xs))
	}
	rep.set("core.ilp_nodes", "count", float64(d.nodes), d.ilps)
	rep.set("core.lp_pivots", "count", float64(d.pivots), d.ilps)
	rep.set("core.heuristic_rounds", "count", float64(d.rounds), len(d.solveMS["Heuristic"]))
	rep.set("core.ilp_proven_share", "ratio", share(d.proven, d.ilps), d.ilps)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
