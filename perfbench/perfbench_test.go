package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spampsm/internal/cluster"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a workload re-executes itself: as a cluster worker or as the serve
// workload's load generator.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	if len(os.Args) > 1 && os.Args[1] == "--loadgen" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: no percentile qualifies
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != (tc.want != 0) || p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
		}
		if ok {
			if beyond := tc.n - 1 - rank(tc.n, p); beyond < minBeyond {
				t.Errorf("n=%d p%v: only %d samples beyond", tc.n, p, beyond)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "op", Layer: "a", Start: 0, End: 10 * ms},
		// Overlapping children: their union covers [1,5] and [8,10]
		// of the parent; the third sticks out past the parent's end.
		{ID: 2, Parent: 1, Layer: "b", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Layer: "b", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Parent: 1, Layer: "b", Start: 8 * ms, End: 12 * ms},
		// A grandchild takes half of span 3.
		{ID: 5, Parent: 3, Layer: "c", Start: 3 * ms, End: 4500 * int64(time.Microsecond)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"a": 4 * time.Millisecond,
		"b": 2*time.Millisecond + 1500*time.Microsecond + 4*time.Millisecond,
		"c": 1500 * time.Microsecond,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestTailEnd(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	task := func(a, b int) taskTiming { return taskTiming{start: at(a), end: at(b)} }
	// Two workers are busy until t=4; the last task runs alone to 6.
	ph := phaseTiming{workers: 2, start: at(0), end: at(6),
		tasks: []taskTiming{task(0, 4), task(0, 2), task(2, 6)}}
	if got := tailEnd(ph); got != 2*time.Millisecond {
		t.Errorf("tail = %v, want 2ms", got)
	}
	// A phase that never fills both workers is all tail.
	one := phaseTiming{workers: 2, start: at(0), end: at(5), tasks: []taskTiming{task(1, 5)}}
	if got := tailEnd(one); got != 5*time.Millisecond {
		t.Errorf("single-task tail = %v, want 5ms", got)
	}
}

func TestServeSchedule(t *testing.T) {
	repeats := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}
	window := 20 * time.Second
	arr, distinct, err := serveSchedule(7, window, repeats)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(serveRate * window.Seconds()); len(arr) != want {
		t.Fatalf("%d arrivals, want %d", len(arr), want)
	}
	counts := map[string]int{}
	var writes []string
	for i, a := range arr {
		if a.due < 0 || a.due >= window || (i > 0 && a.due < arr[i-1].due) {
			t.Fatalf("arrival %d due at %v: outside the window or out of order", i, a.due)
		}
		if a.fresh != nil {
			counts["fresh"]++
		} else {
			counts[a.kind]++
		}
		if a.kind != "interpret" {
			if a.ref != len(writes) {
				t.Fatalf("write %d numbered %d", len(writes), a.ref)
			}
			writes = append(writes, a.kind)
		}
	}
	if want := int(serveFreshShare * float64(len(arr))); counts["fresh"] != want || len(distinct) != len(repeats)+want {
		t.Errorf("%d fresh arrivals, %d distinct bodies; want %d fresh", counts["fresh"], len(distinct), want)
	}
	if want := int(serveWriteShare * float64(len(arr))); len(writes) != want {
		t.Errorf("%d writes, want %d", len(writes), want)
	}
	for i, k := range writes {
		want := "update"
		switch i % (serveUpdates + 2) {
		case 0:
			want = "open"
		case serveUpdates + 1:
			want = "close"
		}
		if k != want {
			t.Fatalf("write %d is %s, want %s", i, k, want)
		}
	}
	again, _, _ := serveSchedule(7, window, repeats)
	other, _, _ := serveSchedule(8, window, repeats)
	for i := range arr {
		if again[i].due != arr[i].due || again[i].kind != arr[i].kind || !bytes.Equal(again[i].body, arr[i].body) {
			t.Fatal("the same seed drew a different schedule")
		}
	}
	if other[0].due == arr[0].due {
		t.Error("another seed drew the same schedule")
	}
}

// TestComplete checks that a 200 response with an incomplete
// interpretation counts as a failed request.
func TestComplete(t *testing.T) {
	for _, tc := range []struct {
		kind, body string
		want       bool
	}{
		{"interpret", `{"completeness":{"complete":true}}`, true},
		{"interpret", `{"degraded":true,"completeness":{"complete":false,"failed":1}}`, false},
		{"update", `{"session":"s1","result":{"completeness":{"complete":true}}}`, true},
		{"open", `{"session":"s1","result":{"completeness":{"complete":false}}}`, false},
		{"open", `{"session":"s1"}`, false},
		{"interpret", `not json`, false},
		{"close", ``, true},
	} {
		if got := complete(&arrival{kind: tc.kind, resp: []byte(tc.body)}); got != tc.want {
			t.Errorf("complete(%s %s) = %v, want %v", tc.kind, tc.body, got, tc.want)
		}
	}
}

// TestSettleSessionChain checks that a shed session write counts as a
// failed operation, not as an output mismatch: later sessions carry
// other IDs than the reference's, and the rest of the broken chain
// runs on a state the reference never had.
func TestSettleSessionChain(t *testing.T) {
	body := func(id, extra string) []byte {
		return []byte(`{"session":"` + id + `","report":{` + extra + `},"result":{"completeness":{"complete":true}}}`)
	}
	write := func(kind string, ref, status int, resp []byte) *arrival {
		return &arrival{kind: kind, ref: ref, status: status, resp: resp}
	}
	writeRefs := [][]byte{
		body("s1", ""), body("s1", `"n":1`), body("s1", `"n":2`), []byte(`{"closed":"s1"}`),
		body("s5", ""), []byte(`{"closed":"s5"}`),
	}
	arr := []*arrival{
		write("open", 0, http.StatusOK, body("s1", "")),
		write("update", 1, http.StatusTooManyRequests, []byte(`{"error":"shed"}`)),
		write("update", 2, http.StatusOK, body("s1", `"n":7`)), // after the shed one: unchecked
		write("close", 3, http.StatusOK, []byte(`{"closed":"s1"}`)),
		write("open", 4, http.StatusOK, body("s4", "")), // renumbered
		write("close", 5, http.StatusOK, []byte(`{"closed":"s4"}`)),
	}
	o, l := newOutcome(), &opLog{}
	settleArrivals(o, l, arr, nil, writeRefs)
	if !o.correct || l.attempted != 6 || l.failed != 1 {
		t.Fatalf("correct %v, attempted %d, failed %d; want true, 6, 1", o.correct, l.attempted, l.failed)
	}
	// In an unbroken chain a differing body is still a mismatch.
	arr[4].resp = body("s4", `"n":9`)
	o = newOutcome()
	settleArrivals(o, &opLog{}, arr, nil, writeRefs)
	if o.correct {
		t.Error("a differing session body passed the output check")
	}
}

// TestOpenLoopLateness plays a burst against a slow server over two
// connections: the generator itself stays on schedule, while requests
// that find both connections busy wait, and that wait is part of their
// latency, which counts from the due time.
func TestOpenLoopLateness(t *testing.T) {
	const service = 30 * time.Millisecond
	var mu sync.Mutex
	inFlight, peak := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(service)
		mu.Lock()
		inFlight--
		mu.Unlock()
		w.Header().Set("X-Elapsed-Ms", "30")
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	var arr []*arrival
	for i := 0; i < 6; i++ {
		arr = append(arr, &arrival{due: time.Duration(i) * time.Millisecond, kind: "interpret", body: []byte("{}")})
	}
	openLoop(srv.URL, arr)
	mu.Lock()
	if peak > serveConns {
		t.Errorf("%d requests in flight, want at most %d", peak, serveConns)
	}
	mu.Unlock()
	for i, a := range arr {
		if a.status != http.StatusOK || a.err != "" {
			t.Fatalf("arrival %d: status %d %s", i, a.status, a.err)
		}
		if late := a.enq - a.due; late < 0 || late > 20*time.Millisecond {
			t.Errorf("arrival %d queued %v after its due time", i, late)
		}
		if a.sent < a.enq || a.done-a.sent < service || a.handler != 30 {
			t.Errorf("arrival %d: queued %v, sent %v, done %v, handler %v", i, a.enq, a.sent, a.done, a.handler)
		}
	}
	// The fifth arrival (due at 4ms) cannot start before two earlier
	// requests have finished: it waits at least one service time.
	if wait := arr[4].sent - arr[4].due; wait < service-5*time.Millisecond {
		t.Errorf("arrival 4 waited %v for a connection, want about %v", wait, service)
	}
	if lat := arr[5].done - arr[5].due; lat < 2*service {
		t.Errorf("arrival 5 latency %v, want at least two service times", lat)
	}
}

// TestBenchmarkJSON keeps the metric vocabulary in BENCHMARK.json and
// the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}

// TestSmoke runs every workload for a fraction of a second, untraced
// and traced, and checks the result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", "1", "--seconds", "0.3", "--trace", trace,
					"--spans", t.TempDir() + "/spans.jsonl"}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}
