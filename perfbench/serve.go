package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/mec"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Every serve workload runs the service's shipped defaults (Failsafe solver,
// batch 8, 2 ms batch wait, one batcher, workers = GOMAXPROCS, flight
// recorder on), except a deeper queue, over the §7.1 default network with
// its whole capacity free.
const (
	rho         = 0.95 // expectation of every generated request
	hopBound    = 1    // l of the §7.1 network and of the service default
	window      = 32   // outstanding requests of the closed-loop capacity phase
	departAfter = 200  // an admitted session departs this many arrivals later
	sloMS       = 10.0 // latency limit of slo_share
	// collapseShare flags a phase whose primary-placement refusals exceed
	// this share of sent requests: a generator that stops releasing
	// sessions fills every cloudlet, and the service then answers almost
	// everything 422 before any solve, which reads as a throughput gain.
	collapseShare = 0.5
	// setupsPerRep extra set-ups are timed at the start of every
	// repetition, beside the repetition's own. Spread over the run, their
	// fastest does not depend on the host's state in one brief window: 100
	// set-ups timed back to back at the start read 0.18 ms in one run and
	// 0.29 ms in the next.
	setupsPerRep = 10
	// queueDepth holds a second of paced traffic. The host stalls the
	// process at random, for tens of ms at worst, and the requests due
	// during a stall arrive at once when it ends; the default depth of 64
	// refused some of them (429) in 4 of 10 runs at 2500 requests/s. Fair
	// queueing caps each tenant's sub-queue at its weight's share of it.
	queueDepth   = 1024
	exactReplays = 64
	replayCount  = 1500
)

// shape is one serve workload.
type shape struct {
	capScale           float64 // multiplies the §7.1 cloudlet capacities
	chainMin, chainMax int
	admit              string // primary placement policy
	wal                bool   // WAL in the page cache (fsync=none)
	dupEvery           int    // every k-th request repeats its predecessor
	fair               bool   // two weighted tenants under fair queueing
	stateEvery         int    // one GET /v1/state per this many augments
	pacedRate          float64
	capRequests        int // requests per capacity pass
	pacedRequests      int // requests per paced pass
}

var shapes = map[string]shape{
	"serve_steady": {capScale: 10, chainMin: 3, chainMax: 6, admit: serve.AdmitRandom,
		pacedRate: 2500, capRequests: 6000, pacedRequests: 2500},
	"serve_durable": {capScale: 25, chainMin: 2, chainMax: 3, admit: serve.AdmitRandom, wal: true,
		pacedRate: 2000, capRequests: 3000, pacedRequests: 2000},
	"serve_dup": {capScale: 10, chainMin: 3, chainMax: 6, admit: serve.AdmitMaxReliability,
		dupEvery: 2, fair: true, stateEvery: 8, pacedRate: 2000, capRequests: 4000, pacedRequests: 2000},
}

// tenants of serve_dup: two weighted tenants, the second the service's
// implicit default tenant, each sending half the stream.
var tenants = []struct {
	name          string
	weight, share float64
}{{"gold", 2, 0.5}, {admission.DefaultTenant, 1, 0.5}}

// netSeed fixes the serve workloads' network, so --seed varies the traffic
// and not the topology and the cloudlet capacities. It is the experiment
// harness's default seed.
const netSeed = 42

func buildNetwork(capScale float64) *mec.Network {
	cfg := workload.NewDefaultConfig()
	cfg.ResidualFraction = 1
	cfg.CapacityMin *= capScale
	cfg.CapacityMax *= capScale
	return cfg.Network(rand.New(rand.NewSource(netSeed)))
}

// generate draws n augment requests from seed: chain lengths uniform in
// [chainMin, chainMax], functions uniform over the catalog, endpoints
// uniform over the APs, and every dupEvery-th request a copy of the one
// before it.
func generate(seed int64, n int, net *mec.Network, sh shape) []serve.AugmentRequest {
	rng := rand.New(rand.NewSource(seed))
	catalog, aps := net.Catalog().Size(), net.NumNodes()
	reqs := make([]serve.AugmentRequest, n)
	for i := range reqs {
		if sh.dupEvery > 0 && i%sh.dupEvery == sh.dupEvery-1 {
			reqs[i] = reqs[i-1]
			continue
		}
		sfc := make([]int, sh.chainMin+rng.Intn(sh.chainMax-sh.chainMin+1))
		for k := range sfc {
			sfc[k] = rng.Intn(catalog)
		}
		reqs[i] = serve.AugmentRequest{SFC: sfc, Expectation: rho, Source: rng.Intn(aps), Destination: rng.Intn(aps)}
		if sh.fair {
			x := rng.Float64()
			for _, t := range tenants {
				reqs[i].Tenant = t.name
				if x -= t.share; x < 0 {
					break
				}
			}
		}
	}
	return reqs
}

// env is one service under test and the network it serves.
type env struct {
	sh      shape
	net     *mec.Network
	svc     *serve.Service
	handler http.Handler
	walDir  string
	initial []serve.CloudletState
	ck      *checker
}

// setup builds the network and the service, the work setup_s times. Without
// tracing the service builds no request traces (TraceDepth -1): the untraced
// passes of trace.overhead_share.
func setup(seed int64, sh shape, ck *checker, tracing bool) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{sh: sh, ck: ck, net: buildNetwork(sh.capScale)}
	opt := serve.Options{AdmitPolicy: sh.admit, Seed: seed, QueueDepth: queueDepth}
	if !tracing {
		opt.TraceDepth = -1
	}
	if sh.wal {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(scratchDir, "wal-")
		if err != nil {
			return nil, 0, err
		}
		e.walDir = dir
		// fsync=none: every batch and release still appends to the log,
		// which restores the run's final state, but the host's shared disk
		// does not set the pace. With fsync=always the throughput and the
		// median latency followed that disk's fsync latency, which drifted
		// by a quarter from minute to minute.
		opt.WALDir, opt.WALSync = dir, "none"
	}
	if sh.fair {
		opt.Admission = serve.AdmissionFair
		for _, t := range tenants {
			opt.Tenants = append(opt.Tenants, admission.Tenant{Name: t.name, Weight: t.weight})
		}
	}
	svc, err := serve.New(e.net, opt)
	if err != nil {
		if e.walDir != "" {
			os.RemoveAll(e.walDir)
		}
		return nil, 0, err
	}
	took := time.Since(start)
	e.svc, e.handler = svc, svc.Handler()
	e.initial, _, _ = svc.State().Snapshot()
	return e, took, nil
}

// close drains the service. With a WAL it then rebuilds the state from the
// log and checks it reproduces the final state hash; it returns the
// rebuild time.
func (e *env) close() (time.Duration, error) {
	hash := e.svc.State().Hash()
	if err := e.svc.Close(); err != nil {
		return 0, err
	}
	if e.walDir == "" {
		return 0, nil
	}
	defer os.RemoveAll(e.walDir)
	start := time.Now()
	st, err := serve.NewStateFromWAL(e.net, e.walDir)
	took := time.Since(start)
	if err != nil {
		e.ck.fail("wal: restore: %v", err)
	} else if st.Hash() != hash {
		e.ck.fail("wal: restored state hash %016x, service ended at %016x", st.Hash(), hash)
	}
	return took, nil
}

// tally counts one phase's outcomes.
type tally struct {
	sent, ok, primary422, solver422, s429, s503, s504, other int
	relSum                                                   float64
	met, cached, greedy                                      int
}

func (t *tally) add(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.primary422 += o.primary422
	t.solver422 += o.solver422
	t.s429 += o.s429
	t.s503 += o.s503
	t.s504 += o.s504
	t.other += o.other
	t.relSum += o.relSum
	t.met += o.met
	t.cached += o.cached
	t.greedy += o.greedy
}

func (t tally) answered() int { return t.ok + t.primary422 + t.solver422 }
func (t tally) failed() int   { return t.s429 + t.s503 + t.s504 + t.other }

func (t tally) String() string {
	return fmt.Sprintf("sent=%d 200=%d 422_primary=%d 422_solver=%d 429=%d 503=%d 504=%d other=%d",
		t.sent, t.ok, t.primary422, t.solver422, t.s429, t.s503, t.s504, t.other)
}

// passResult is what one pass over a request stream measured.
type passResult struct {
	t         tally
	elapsed   time.Duration // first send to last answer
	latMS     []float64     // paced: due → answer, 200 and 422 answers
	lateMS    []float64     // paced: send time − due time
	withinSLO int
	spans     map[string][]float64 // traced: per-request span durations, µs
	stateUS   []float64            // GET /v1/state handler times
	heapMax   float64
}

// sessions coordinates departures between the producer, which decides when
// a session departs, and the collector, which learns whether it was
// admitted and makes every release. The producer never calls the service's
// Release: with a WAL each release appends to the log, and a producer
// blocked on a slow write sends every request due meanwhile late.
type sessions struct {
	mu                  sync.Mutex
	id                  []int // placement ID of an admitted arrival, 0 otherwise
	collected, departed []bool
	released            []bool
	due                 []int // departed and admitted, not yet released
}

// runPass sends reqs to the service: a closed loop of window outstanding
// requests when rate is 0, otherwise an open loop at rate requests per
// second with latency timed from each request's due time. One producer (the
// caller) sends; one collector goroutine waits for the answers in send
// order. A request's answer time is the end of its Outcome.Trace, so an
// answer that overtakes an earlier request's is not charged that request's
// wait; without a trace it is the time the collector gets the answer.
func (e *env) runPass(reqs []serve.AugmentRequest, rate float64, traced bool) *passResult {
	pr := &passResult{}
	if traced {
		pr.spans = make(map[string][]float64)
	}
	n := len(reqs)
	ss := &sessions{id: make([]int, n), collected: make([]bool, n), departed: make([]bool, n), released: make([]bool, n)}
	type item struct {
		i   int
		t   *serve.Ticket
		err error
		due time.Time
	}
	// Sized to the window in the closed loop and to every send in the open
	// loop, so the producer only ever waits on its schedule or the window.
	buf := window
	if rate > 0 {
		buf = n
	}
	items := make(chan item, buf)
	var sem chan struct{}
	if rate == 0 {
		sem = make(chan struct{}, window)
	}
	var last time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := range items {
			var out serve.Outcome
			if it.err != nil {
				out.Status = enqueueStatus(it.err)
			} else {
				out = it.t.Wait()
			}
			last = time.Now()
			if sem != nil {
				<-sem
			}
			answered := last
			if tr := out.Trace; tr != nil {
				answered = tr.Start.Add(time.Duration(tr.DurationUS) * time.Microsecond)
			}
			e.collect(pr, ss, reqs[it.i], it.i, out, answered.Sub(it.due), rate > 0)
			e.releaseDue(ss)
			if it.i%64 == 63 {
				e.checkLedger(false)
				pr.heapMax = max(pr.heapMax, heapLive())
			}
		}
	}()

	start := time.Now()
	for i := range reqs {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			pr.lateMS = append(pr.lateMS, ms(time.Since(due)))
		} else {
			sem <- struct{}{}
		}
		if j := i - departAfter; j >= 0 {
			e.depart(ss, j)
		}
		t, err := e.svc.Enqueue(reqs[i])
		items <- item{i: i, t: t, err: err, due: due}
		if e.sh.stateEvery > 0 && i%e.sh.stateEvery == e.sh.stateEvery-1 {
			e.readState(pr)
		}
	}
	close(items)
	<-done
	pr.elapsed = last.Sub(start)
	pr.heapMax = max(pr.heapMax, heapLive())

	// Every remaining session departs; the ledger must be back where it
	// started.
	for i := range reqs {
		if ss.id[i] > 0 && !ss.released[i] {
			e.release(ss, i)
		}
	}
	e.checkLedger(true)
	if placed := e.svc.State().PlacedCount(); placed != 0 {
		e.ck.fail("ledger: %d placements live after every release", placed)
	}
	e.ck.count(pr.t.sent, pr.t.failed())
	if share(pr.t.primary422, pr.t.sent) > collapseShare {
		e.ck.fail("primary placement refused %d of %d requests: the stream no longer reaches the solver", pr.t.primary422, pr.t.sent)
	}
	return pr
}

func enqueueStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// collect records one answer; it runs on the collector goroutine.
func (e *env) collect(pr *passResult, ss *sessions, ar serve.AugmentRequest, i int, out serve.Outcome, lat time.Duration, paced bool) {
	t := &pr.t
	t.sent++
	id := 0
	switch {
	case out.Status == http.StatusOK:
		t.ok++
		resp := out.Response
		if err := checkAnswer(e.net, hopBound, ar, resp); err != nil {
			e.ck.fail("%v", err)
			t.other++
		}
		t.relSum += resp.Reliability
		if resp.MetExpectation {
			t.met++
		}
		if out.Cached {
			t.cached++
		}
		if resp.ServedBy == "Greedy" {
			t.greedy++
		}
		id = resp.ID
	case out.Status == http.StatusUnprocessableEntity:
		if strings.Contains(out.Err, admission.ErrNoCapacity.Error()) {
			t.primary422++
		} else {
			t.solver422++
		}
	case out.Status == http.StatusTooManyRequests:
		t.s429++
	case out.Status == http.StatusServiceUnavailable:
		t.s503++
	case out.Status == http.StatusGatewayTimeout:
		t.s504++
	default:
		t.other++
		e.ck.fail("request %d answered %d: %s", i, out.Status, out.Err)
	}
	if paced && (out.Status == http.StatusOK || out.Status == http.StatusUnprocessableEntity) {
		l := ms(lat)
		pr.latMS = append(pr.latMS, l)
		if l <= sloMS {
			pr.withinSLO++
		}
	}
	if pr.spans != nil && out.Trace != nil {
		for _, sp := range out.Trace.Spans {
			pr.spans[sp.Name] = append(pr.spans[sp.Name], float64(sp.DurationUS))
		}
	}
	ss.mu.Lock()
	ss.collected[i], ss.id[i] = true, id
	departed := ss.departed[i]
	ss.mu.Unlock()
	if departed && id > 0 {
		e.release(ss, i)
	}
}

// depart ends arrival j's session on the producer's clock. The collector
// releases it after its next answer when j's answer is already in,
// otherwise when it gets j's answer.
func (e *env) depart(ss *sessions, j int) {
	ss.mu.Lock()
	ss.departed[j] = true
	if ss.collected[j] && ss.id[j] > 0 {
		ss.due = append(ss.due, j)
	}
	ss.mu.Unlock()
}

// releaseDue releases the sessions depart handed over; it runs on the
// collector goroutine.
func (e *env) releaseDue(ss *sessions) {
	ss.mu.Lock()
	due := ss.due
	ss.due = nil
	ss.mu.Unlock()
	for _, j := range due {
		e.release(ss, j)
	}
}

func (e *env) release(ss *sessions, i int) {
	ss.mu.Lock()
	id, done := ss.id[i], ss.released[i]
	ss.released[i] = true
	ss.mu.Unlock()
	if done {
		return
	}
	if _, err := e.svc.Release(id); err != nil {
		e.ck.fail("release %d: %v", id, err)
	}
}

func (e *env) checkLedger(restored bool) {
	cls, _, _ := e.svc.State().Snapshot()
	if err := checkLedger(e.initial, cls, restored); err != nil {
		e.ck.fail("%v", err)
	}
}

// readState serves one GET /v1/state through the service's HTTP handler and
// checks the ledger it reports.
func (e *env) readState(pr *passResult) {
	req := httptest.NewRequest(http.MethodGet, "/v1/state", nil)
	w := httptest.NewRecorder()
	start := time.Now()
	e.handler.ServeHTTP(w, req)
	pr.stateUS = append(pr.stateUS, us(time.Since(start)))
	var st serve.StateResponse
	if w.Code != http.StatusOK {
		e.ck.fail("GET /v1/state answered %d", w.Code)
	} else if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		e.ck.fail("GET /v1/state: %v", err)
	} else if err := checkLedger(e.initial, st.Cloudlets, false); err != nil {
		e.ck.fail("GET /v1/state: %v", err)
	}
}

// runServe runs a serve workload: a warm-up pass on a service of its own,
// then repetitions of extra set-ups and a fresh service's two capacity
// passes and one paced pass until the budget is spent. In a traced run one
// of the two capacity passes, in alternating order, runs on a second fresh
// service built without request tracing.
func runServe(cfg runConfig, sh shape, ck *checker, rep *report) error {
	start := time.Now()
	var setups, restores []float64
	net := buildNetwork(sh.capScale)
	capReqs := generate(cfg.seed, sh.capRequests, net, sh)
	pacedReqs := generate(cfg.seed^0x5eed, sh.pacedRequests, net, sh)

	w, _, err := setup(cfg.seed, sh, ck, true)
	if err != nil {
		return err
	}
	w.runPass(capReqs[:len(capReqs)/4], 0, false) // warm-up, checked but not measured
	if _, err := w.close(); err != nil {
		return err
	}

	var (
		untraced, traced     []float64 // capacity pass throughput
		capTally, pacedTally tally
		tracedCap            tally
		latMS, lateMS, state []float64
		p50, p99             []float64
		within               float64
		heap                 []float64 // largest live heap per pass
		capSpans, pacedSpans = make(map[string][]float64), make(map[string][]float64)
		capProbe, pacedProbe = probe{}, probe{}
		capElapsed           time.Duration
		tracedPasses, reps   int
	)
	for rep := 0; ; rep++ {
		repStart := time.Now()
		for i := 0; i < setupsPerRep; i++ {
			x, took, err := setup(cfg.seed, sh, ck, true)
			if err != nil {
				return err
			}
			setups = append(setups, took.Seconds())
			if _, err := x.close(); err != nil {
				return err
			}
		}
		e, took, err := setup(cfg.seed, sh, ck, true)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		modes := []bool{false, false}
		if cfg.traced {
			modes = []bool{rep%2 == 1, rep%2 == 0}
		}
		for _, tr := range modes {
			target := e
			if cfg.traced && !tr {
				if target, _, err = setup(cfg.seed, sh, ck, false); err != nil {
					return err
				}
			}
			p0 := takeProbe()
			pr := target.runPass(capReqs, 0, tr)
			if target != e {
				if _, err := target.close(); err != nil {
					return err
				}
			}
			rps := float64(pr.t.answered()) / pr.elapsed.Seconds()
			capTally.add(pr.t)
			heap = append(heap, pr.heapMax)
			state = append(state, pr.stateUS...)
			if !tr {
				untraced = append(untraced, rps)
				continue
			}
			capProbe.add(p0, takeProbe())
			traced = append(traced, rps)
			tracedCap.add(pr.t)
			capElapsed += pr.elapsed
			tracedPasses++
			for k, v := range pr.spans {
				capSpans[k] = append(capSpans[k], v...)
			}
		}
		p0 := takeProbe()
		pr := e.runPass(pacedReqs, sh.pacedRate, cfg.traced)
		pacedProbe.add(p0, takeProbe())
		pacedTally.add(pr.t)
		latMS = append(latMS, pr.latMS...)
		p50 = append(p50, median(pr.latMS))
		p99 = append(p99, quantile(pr.latMS, 0.99))
		lateMS = append(lateMS, pr.lateMS...)
		within += float64(pr.withinSLO)
		heap = append(heap, pr.heapMax)
		state = append(state, pr.stateUS...)
		for k, v := range pr.spans {
			pacedSpans[k] = append(pacedSpans[k], v...)
		}
		restore, err := e.close()
		if err != nil {
			return err
		}
		if sh.wal {
			restores = append(restores, ms(restore))
		}
		reps++
		if reps >= 2 && time.Since(start)+time.Since(repStart) > cfg.budget {
			break
		}
	}

	all := capTally
	all.add(pacedTally)
	rep.linef("workload %s seed=%d repetitions=%d capacity_requests=%d paced_requests=%d@%.0f/s",
		cfg.workload, cfg.seed, reps, sh.capRequests, sh.pacedRequests, sh.pacedRate)
	rep.linef("capacity passes req/s untraced=%.0f traced=%.0f", untraced, traced)
	rep.linef("paced passes p50_ms=%.2f p99_ms=%.2f", p50, p99)
	rep.linef("phase capacity %s", capTally)
	rep.linef("phase paced    %s", pacedTally)
	rep.linef("error_share %.6f", share(all.failed(), all.sent))

	if !cfg.traced {
		rep.set("throughput_rps", "1/s", median(untraced), len(untraced))
		rep.set("latency_p50_ms", "ms", median(p50), len(latMS))
		// The host's scheduling stalls (several ms, at random) land in
		// every pass's 1% tail; the pass they disturbed least shows the
		// service's own tail.
		rep.set("latency_p99_ms", "ms", minOf(p99), len(latMS))
		rep.set("slo_share", "ratio", within/float64(pacedTally.sent), pacedTally.sent)
		// Quality comes from the capacity passes: at the paced phase's lighter
		// load batches close on the timer rather than filling, and what they
		// admit swings with timing far more than it does at saturation.
		rep.set("admit_share", "ratio", share(capTally.ok, capTally.answered()), capTally.answered())
		rep.set("mean_reliability", "ratio", capTally.relSum/float64(capTally.ok), capTally.ok)
		rep.set("met_share", "ratio", share(capTally.met, capTally.ok), capTally.ok)
		// Every set-up does the same work and the host only ever slows one
		// down: the fastest holds still where the median follows the noise.
		rep.set("setup_s", "s", minOf(setups), len(setups))
		rep.set("heap_live_mb", "MB", median(heap)/1e6, len(heap))
		fillMissing(rep, endToEnd)
		return nil
	}

	rep.set("loadgen.late_ms_p99", "ms", quantile(lateMS, 0.99), len(lateMS))
	rep.set("loadgen.late_ms_max", "ms", maxOf(lateMS), len(lateMS))
	rep.set("loadgen.latency_p999_ms", "ms", quantile(latMS, 0.999), len(latMS))
	q := pacedSpans["queue"]
	rep.set("serve.queue_wait_ms_p50", "ms", median(q)/1e3, len(q))
	rep.set("serve.queue_wait_ms_p99", "ms", quantile(q, 0.99)/1e3, len(q))
	rep.set("serve.batch_size_mean", "count", pacedProbe["batch_sum"]/pacedProbe["batch_count"], int(pacedProbe["batch_count"]))
	rep.set("serve.batches", "count", pacedProbe["batches"]/float64(reps), reps)
	for _, s := range []struct {
		span, name string
		p          float64
	}{
		{"admit", "serve.admit_ms_p50", 0.5},
		{"solve", "serve.solve_ms_p50", 0.5},
		{"solve", "serve.solve_ms_p99", 0.99},
		{"commit", "serve.commit_ms_p50", 0.5},
		{"gate_wait", "serve.gate_wait_ms_p99", 0.99},
	} {
		xs := capSpans[s.span]
		rep.set(s.name, "ms", quantile(xs, s.p)/1e3, len(xs))
	}
	rep.set("serve.conflict_share", "ratio", capProbe["conflicts"]/float64(tracedCap.sent), tracedCap.sent)
	rep.set("serve.shared_share", "ratio", share(tracedCap.cached, tracedCap.answered()), tracedCap.answered())
	lookups := capProbe["cache_hits"] + capProbe["cache_misses"]
	if lookups > 0 {
		rep.set("serve.cache_hit_share", "ratio", capProbe["cache_hits"]/lookups, int(lookups))
	}
	rep.set("serve.infeasible_primary_share", "ratio", share(tracedCap.primary422, tracedCap.sent), tracedCap.sent)
	rep.set("serve.infeasible_solver_share", "ratio", share(tracedCap.solver422, tracedCap.sent), tracedCap.sent)
	rep.set("serve.greedy_share", "ratio", share(tracedCap.greedy, tracedCap.ok), tracedCap.ok)
	if len(state) > 0 {
		rep.set("serve.state_read_us_p50", "us", median(state), len(state))
		rep.set("serve.state_read_us_p99", "us", quantile(state, 0.99), len(state))
	}
	workers := float64(runtime.GOMAXPROCS(0))
	rep.set("engine.utilization", "ratio", capProbe["trial_seconds"]/(workers*capElapsed.Seconds()), tracedPasses)
	if sh.wal {
		rep.set("wal.appends_per_req", "count", capProbe["wal_appends"]/float64(tracedCap.sent), tracedCap.sent)
		rep.set("wal.bytes_per_req", "B", capProbe["wchar"]/float64(tracedCap.sent), tracedCap.sent)
		rep.set("wal.snapshots", "count", capProbe["wal_snapshots"]/float64(tracedPasses), tracedPasses)
		rep.set("wal.restore_ms", "ms", median(restores), len(restores))
	}
	rep.set("runtime.alloc_bytes_per_req", "B", capProbe["/gc/heap/allocs:bytes"]/float64(tracedCap.sent), tracedCap.sent)
	rep.set("runtime.allocs_per_req", "count", capProbe["/gc/heap/allocs:objects"]/float64(tracedCap.sent), tracedCap.sent)
	rep.set("runtime.gc_cpu_share", "ratio", capProbe.gcShare(), tracedPasses)
	rep.set("trace.overhead_share", "ratio", 1-median(traced)/median(untraced), len(traced)+len(untraced))

	d := newDirectTimings(ck)
	d.replay(net, capReqs[:min(replayCount, len(capReqs))], sh.admit, cfg.seed, exactReplays)
	d.report(rep)
	fillMissing(rep, perLayer)
	return nil
}
