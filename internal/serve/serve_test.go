package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mec"
)

// testNetwork builds a 5-AP network (every AP a cloudlet with the given
// capacity) over a well-connected topology and a 2-function catalog.
func testNetwork(capacity float64) *mec.Network {
	g := graph.New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	caps := []float64{capacity, capacity, capacity, capacity, capacity}
	cat := mec.NewCatalog([]mec.FunctionType{
		{Name: "fw", Demand: 10, Reliability: 0.96},
		{Name: "nat", Demand: 15, Reliability: 0.92},
	})
	return mec.NewNetwork(g, caps, cat)
}

func testRequest(src int) AugmentRequest {
	return AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Source: src % 5, Destination: (src + 2) % 5}
}

// blockingSolver parks every Solve until release is closed, reporting each
// start on started. It lets tests hold a batch in-flight deliberately.
type blockingSolver struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingSolver) Name() string { return "blocking" }

func (b *blockingSolver) Solve(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
	b.started <- struct{}{}
	<-b.release
	return nil, errors.New("blocking solver declines")
}

// countingSolver fails every solve and counts invocations.
type countingSolver struct{ calls atomic.Int64 }

func (c *countingSolver) Name() string { return "counting" }

func (c *countingSolver) Solve(inst *core.Instance, rng *rand.Rand) (*core.Result, error) {
	c.calls.Add(1)
	return nil, errors.New("counting solver declines")
}

func newBlockingService(t *testing.T, bs *blockingSolver, queueDepth int) *Service {
	t.Helper()
	svc, err := New(testNetwork(1000), Options{
		QueueDepth: queueDepth, BatchSize: 1, BatchWait: time.Millisecond,
		Workers: 1, Solver: bs, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestQueueFullRejectsWith429(t *testing.T) {
	bs := &blockingSolver{started: make(chan struct{}, 16), release: make(chan struct{})}
	svc := newBlockingService(t, bs, 2)

	first, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatalf("enqueue first: %v", err)
	}
	<-bs.started // first request is now in-flight, not in the queue

	var tickets []*Ticket
	for i := 1; ; i++ {
		tk, err := svc.Enqueue(testRequest(i))
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		tickets = append(tickets, tk)
		if len(tickets) > 2 {
			t.Fatalf("queue of depth 2 accepted %d queued requests", len(tickets))
		}
	}
	if len(tickets) != 2 {
		t.Fatalf("queue of depth 2 held %d requests before rejecting", len(tickets))
	}

	// The HTTP layer maps the same rejection to 429 + Retry-After.
	body, _ := json.Marshal(testRequest(9))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(bs.release)
	for _, tk := range append(tickets, first) {
		if out := tk.Wait(); out.Status != http.StatusUnprocessableEntity {
			t.Fatalf("blocked request resolved to %d, want 422", out.Status)
		}
	}
}

func TestDrainFlushesQueuedRequests(t *testing.T) {
	bs := &blockingSolver{started: make(chan struct{}, 16), release: make(chan struct{})}
	svc := newBlockingService(t, bs, 8)

	first, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	<-bs.started
	var queued []*Ticket
	for i := 1; i <= 3; i++ {
		tk, err := svc.Enqueue(testRequest(i))
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		queued = append(queued, tk)
	}

	drained := make(chan struct{})
	go func() { svc.Drain(); close(drained) }()
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.Enqueue(testRequest(7)); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue while draining: err=%v, want ErrDraining", err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining answered %d, want 503", rec.Code)
	}

	close(bs.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after the solver was released")
	}
	// Every request admitted before the drain still got an answer.
	for _, tk := range append(queued, first) {
		select {
		case out := <-tk.p.done:
			if out.status != http.StatusUnprocessableEntity {
				t.Fatalf("drained request resolved to %d, want 422", out.status)
			}
		default:
			t.Fatal("Drain returned with an unanswered queued request")
		}
	}
}

func TestZeroCapacityNetworkAnswers422(t *testing.T) {
	svc, err := New(testNetwork(0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	tk, err := svc.Enqueue(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	out := tk.Wait()
	if out.Status != http.StatusUnprocessableEntity {
		t.Fatalf("zero-capacity network answered %d, want 422", out.Status)
	}
	if out.Err == "" {
		t.Fatal("422 without an error detail")
	}
	if n := strings.Count(out.Err, "admission:"); n != 1 {
		t.Fatalf("422 text %q carries the admission: prefix %d times, want once", out.Err, n)
	}
	if !strings.Contains(out.Err, admission.ErrNoCapacity.Error()) {
		t.Fatalf("422 text %q does not name %q", out.Err, admission.ErrNoCapacity)
	}
}

func TestReleaseUnknownIDAnswers404(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	body, _ := json.Marshal(ReleaseRequest{ID: 12345})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(body)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("release of unknown id answered %d, want 404", rec.Code)
	}
}

func TestAugmentAndReleaseRestoreCapacity(t *testing.T) {
	net := testNetwork(1000)
	svc, err := New(net, Options{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	// MVCC: the network itself is never mutated; capacity lives in epochs.
	beforeCloudlets, _, beforeHash := svc.State().Snapshot()

	body, _ := json.Marshal(testRequest(1))
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("augment answered %d: %s", rec.Code, rec.Body)
	}
	var ar AugmentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Primaries) != 2 || len(ar.Secondaries) != 2 {
		t.Fatalf("placement shape: primaries=%v secondaries=%v", ar.Primaries, ar.Secondaries)
	}
	if ar.Reliability < ar.InitialReliability {
		t.Fatalf("augmentation lowered reliability: %v -> %v", ar.InitialReliability, ar.Reliability)
	}

	rb, _ := json.Marshal(ReleaseRequest{ID: ar.ID})
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(rb)))
	if rec.Code != http.StatusOK {
		t.Fatalf("release answered %d: %s", rec.Code, rec.Body)
	}
	afterCloudlets, _, afterHash := svc.State().Snapshot()
	for i := range beforeCloudlets {
		if beforeCloudlets[i].Residual != afterCloudlets[i].Residual {
			t.Fatalf("residual at node %d not restored: %v -> %v",
				beforeCloudlets[i].ID, beforeCloudlets[i].Residual, afterCloudlets[i].Residual)
		}
	}
	if beforeHash != afterHash {
		t.Fatalf("state hash not restored: %016x -> %016x", beforeHash, afterHash)
	}
	if net.ResidualSnapshot()[0] != 1000 {
		t.Fatal("service mutated the base network's residual ledger")
	}
	if svc.CacheLen() != 0 {
		t.Fatalf("release left %d cache entries, want 0", svc.CacheLen())
	}
	// Releasing the same id twice is a 404, not a double free.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/release", bytes.NewReader(rb)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double release answered %d, want 404", rec.Code)
	}
}

func TestNegativeCacheServesRepeatedInfeasible(t *testing.T) {
	cs := &countingSolver{}
	svc, err := New(testNetwork(1000), Options{Workers: 1, Solver: cs})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// Primaries are pinned so both submissions carry an identical signature
	// (random admission would derive different primaries per sequence number).
	ar := testRequest(0)
	ar.Primaries = []int{0, 1}
	submit := func() Outcome {
		tk, err := svc.Enqueue(ar)
		if err != nil {
			t.Fatal(err)
		}
		return tk.Wait()
	}
	first := submit()
	if first.Status != http.StatusUnprocessableEntity || first.Cached {
		t.Fatalf("first attempt: status=%d cached=%v, want fresh 422", first.Status, first.Cached)
	}
	second := submit()
	if second.Status != http.StatusUnprocessableEntity || !second.Cached {
		t.Fatalf("second attempt: status=%d cached=%v, want cached 422", second.Status, second.Cached)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times for identical infeasible requests, want 1", got)
	}
}

func TestBatchSharesIdenticalInstances(t *testing.T) {
	cs := &countingSolver{}
	svc, err := New(testNetwork(1000), Options{
		Workers: 1, Solver: cs, BatchSize: 4, BatchWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	// Two identical requests (pinned primaries, so identical signatures)
	// enqueued back-to-back land in one micro-batch; the second must ride
	// the first's solve.
	ar := testRequest(0)
	ar.Primaries = []int{0, 1}
	t1, err := svc.Enqueue(ar)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := svc.Enqueue(ar)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := t1.Wait(), t2.Wait()
	if o1.Cached {
		t.Fatalf("representative marked cached")
	}
	if !o2.Cached {
		t.Fatalf("identical in-batch follower not shared: %+v", o2)
	}
	if got := cs.calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times for an identical in-batch pair, want 1", got)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	cases := []struct {
		name string
		ar   AugmentRequest
	}{
		{"empty sfc", AugmentRequest{Expectation: 0.9}},
		{"bad function", AugmentRequest{SFC: []int{99}, Expectation: 0.9}},
		{"bad rho", AugmentRequest{SFC: []int{0}, Expectation: 1.5}},
		{"bad endpoint", AugmentRequest{SFC: []int{0}, Expectation: 0.9, Source: -1}},
		{"primaries mismatch", AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Primaries: []int{0}}},
		{"negative deadline", AugmentRequest{SFC: []int{0}, Expectation: 0.9, DeadlineMS: -5}},
	}
	for _, tc := range cases {
		if _, err := svc.Enqueue(tc.ar); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		body, _ := json.Marshal(tc.ar)
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/augment", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP answered %d, want 400", tc.name, rec.Code)
		}
	}
}

func TestStateEndpointReportsLedger(t *testing.T) {
	svc, err := New(testNetwork(100), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("state answered %d", rec.Code)
	}
	var st StateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Cloudlets) != 5 || st.Placed != 0 || st.Draining {
		t.Fatalf("unexpected state: %+v", st)
	}
	for _, c := range st.Cloudlets {
		if c.Residual != 100 {
			t.Fatalf("cloudlet %d residual %v, want 100", c.ID, c.Residual)
		}
	}
	if st.StateHash == "" {
		t.Fatal("state without canonical hash")
	}
}

func TestStateHashChangesWithLedger(t *testing.T) {
	st := NewState(testNetwork(100))
	h1 := st.Hash()

	install := func(mutate func(res []float64)) {
		res := append([]float64(nil), st.pin().res...)
		mutate(res)
		st.commitMu.Lock()
		st.installLocked(res, hashResiduals(res), installOp{})
		st.commitMu.Unlock()
	}
	install(func(res []float64) { res[0] -= 10 })
	h2 := st.Hash()
	install(func(res []float64) { res[0] += 10 })
	h3 := st.Hash()

	if h1 == h2 {
		t.Fatal("hash unchanged after capacity mutation")
	}
	if h1 != h3 {
		t.Fatal("hash not restored after exact rollback")
	}
	if got := st.Epoch(); got != 2 {
		t.Fatalf("epoch %d after two installs, want 2", got)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(testNetwork(10), Options{QueueDepth: -1}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
	if _, err := New(testNetwork(10), Options{AdmitPolicy: "bogus"}); err == nil {
		t.Fatal("unknown admit policy accepted")
	}
	if _, err := New(testNetwork(10), Options{HopBound: -2}); err == nil {
		t.Fatal("negative hop bound accepted")
	}
}

func ExampleService_Handler() {
	svc, _ := New(testNetwork(1000), Options{Workers: 1, Seed: 3})
	defer svc.Drain()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body, _ := json.Marshal(AugmentRequest{SFC: []int{0, 1}, Expectation: 0.9, Source: 0, Destination: 2})
	resp, _ := http.Post(srv.URL+"/v1/augment", "application/json", bytes.NewReader(body))
	fmt.Println(resp.StatusCode)
	resp.Body.Close()
	// Output: 200
}
