package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/serve"
)

// The serve workload's load generator runs in a process of its own —
// this binary re-executed with --loadgen — so that its timers fire on
// time while the server's task workers keep both CPUs busy; inside the
// server's process a due request would wait for the Go scheduler to
// preempt a task worker.

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // offset from the schedule start
	kind  string        // interpret | open | update | close
	body  []byte        // interpret and open bodies
	ref   int           // interpret: index of the distinct body; writes: write sequence number
	churn uint64        // update churn seed
	fresh *scene.Scene  // the never-seen scene of a fresh interpret

	// Filled in by the load generator, as offsets from the schedule
	// start: when the generator queued the request, sent it, and had
	// read the whole response.
	enq, sent, done time.Duration
	status          int
	handler         float64 // server-reported handler time, ms
	resp            []byte
	err             string
}

// serveBodies are the request bodies of the repeating scenes.
func serveBodies(scenes []*scene.Scene) ([][]byte, error) {
	var out [][]byte
	for _, s := range scenes {
		b, err := json.Marshal(serve.Request{Inline: inline(s), Tenant: "bench"})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// serveSchedule draws the seeded open-loop schedule of one run: a
// Poisson process at serveRate conditioned on its arrival count (the
// count is fixed, the times are sorted uniform draws over the window),
// and a seeded shuffle of a request mix with exact shares, the
// repeated scenes in equal numbers.
func serveSchedule(seed uint64, window time.Duration, repeats [][]byte) (arr []*arrival, distinct [][]byte, err error) {
	rng := rand.New(rand.NewSource(int64(subSeed(seed, "arrivals", 0))))
	n := int(math.Round(serveRate * window.Seconds()))
	if n < 1 {
		n = 1
	}
	nFresh := int(math.Round(serveFreshShare * float64(n)))
	nWrite := int(math.Round(serveWriteShare * float64(n)))
	kinds := make([]int, n) // 0 repeat, 1 fresh, 2 write
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = 1
		case i < nFresh+nWrite:
			kinds[i] = 2
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(due)

	distinct = append(distinct, repeats...)
	repeated, fresh, writes := 0, 0, 0
	for i, kind := range kinds {
		a := &arrival{due: due[i]}
		switch kind {
		case 0:
			a.kind, a.ref = "interpret", repeated%len(repeats)
			a.body = repeats[a.ref]
			repeated++
		case 1:
			ps := []scene.Params{scene.SF, scene.DC, scene.MOFF}
			a.fresh = serveScene(ps[fresh%len(ps)], subSeed(seed, "fresh", fresh))
			fresh++
			if a.body, err = json.Marshal(serve.Request{Inline: inline(a.fresh), Tenant: "bench"}); err != nil {
				return nil, nil, err
			}
			a.kind, a.ref = "interpret", len(distinct)
			distinct = append(distinct, a.body)
		case 2:
			// Session chains: open, serveUpdates updates, close.
			a.ref = writes
			switch step := writes % (serveUpdates + 2); {
			case step == 0:
				a.kind = "open"
				if a.body, err = json.Marshal(serve.SessionRequest{Inline: inline(
					serveScene(scene.DC, subSeed(seed, "session", writes))), Tenant: "bench"}); err != nil {
					return nil, nil, err
				}
			case step <= serveUpdates:
				a.kind, a.churn = "update", subSeed(seed, "churn", writes)
			default:
				a.kind = "close"
			}
			writes++
		}
		arr = append(arr, a)
	}
	return arr, distinct, nil
}

// updateBody is a session update's request body.
func updateBody(id string, churn uint64) ([]byte, error) {
	return json.Marshal(serve.DeltaRequest{Session: id, Tenant: "bench",
		Churn: &serve.ChurnRequest{Seed: churn, Fraction: serveChurn}})
}

// sessionState serializes one run's session writes: write k is sent
// only after write k-1 has completed, and updates and closes address
// the session the last open returned.
type sessionState struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int    // sequence number of the next write allowed to send
	id   string // current session
}

func newSessionState() *sessionState {
	s := &sessionState{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// request builds the HTTP request of a write, after waiting its turn.
func (s *sessionState) request(base string, a *arrival) (*http.Request, error) {
	s.mu.Lock()
	for s.next != a.ref {
		s.cond.Wait()
	}
	id := s.id
	s.mu.Unlock()
	switch a.kind {
	case "open":
		return http.NewRequest("POST", base+"/session", bytes.NewReader(a.body))
	case "update":
		b, err := updateBody(id, a.churn)
		if err != nil {
			return nil, err
		}
		return http.NewRequest("POST", base+"/update", bytes.NewReader(b))
	}
	return http.NewRequest("DELETE", base+"/session/"+id, nil)
}

// finish releases the next write and records a new session's ID. A
// failed open leaves no current session, so the rest of its chain
// fails too rather than writing to an earlier session.
func (s *sessionState) finish(a *arrival) {
	s.mu.Lock()
	if a.kind == "open" {
		var r serve.SessionResponse
		s.id = ""
		if a.status == http.StatusOK && json.Unmarshal(a.resp, &r) == nil {
			s.id = r.Session
		}
	}
	s.next++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// openLoop sends every arrival at its due time, or as soon after as one
// of the serveConns connections is free, and waits for all of them.
func openLoop(base string, arr []*arrival) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()
	queue := make(chan *arrival, len(arr)) // sized to the schedule: the generator never blocks
	sessions := newSessionState()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				send(client, base, a, sessions, start)
			}
		}()
	}
	for _, a := range arr {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		a.enq = time.Since(start)
		queue <- a
	}
	close(queue)
	wg.Wait()
}

// send performs one arrival's request and records its timing.
func send(client *http.Client, base string, a *arrival, sessions *sessionState, start time.Time) {
	var req *http.Request
	var err error
	if a.kind == "interpret" {
		req, err = http.NewRequest("POST", base+"/interpret", bytes.NewReader(a.body))
	} else {
		req, err = sessions.request(base, a)
		defer sessions.finish(a)
	}
	if err != nil {
		a.err = err.Error()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveDrain)
	defer cancel()
	a.sent = time.Since(start)
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		a.err = err.Error()
		a.done = time.Since(start)
		return
	}
	a.resp, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Since(start)
	if err != nil {
		a.err = err.Error()
	}
	a.status = resp.StatusCode
	a.handler, _ = strconv.ParseFloat(resp.Header.Get("X-Elapsed-Ms"), 64)
}

// sentArrival is one arrival's outcome on the generator's standard
// output.
type sentArrival struct {
	Enq, Sent, Done time.Duration
	Status          int
	Handler         float64
	Resp            []byte
	Err             string
}

// runLoadgen is the generator process: it rebuilds the run's schedule
// from the seed, plays it against base and writes one line per arrival.
func runLoadgen(c *config, base string, w io.Writer) error {
	repeats, err := serveBodies(serveRepeats(c.seed))
	if err != nil {
		return err
	}
	arr, _, err := serveSchedule(c.seed, c.budget(), repeats)
	if err != nil {
		return err
	}
	openLoop(base, arr)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, a := range arr {
		if err := enc.Encode(sentArrival{a.enq, a.sent, a.done, a.status, a.handler, a.resp, a.err}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// playSchedule runs the generator process against base and fills the
// outcome of every arrival of the (identically rebuilt) schedule.
func playSchedule(c *config, base string, arr []*arrival) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--loadgen", base, "--workload", c.workload,
		"--seed", strconv.FormatUint(c.seed, 10), "--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start load generator: %w", err)
	}
	dec := json.NewDecoder(out)
	var derr error
	for _, a := range arr {
		var s sentArrival
		if derr = dec.Decode(&s); derr != nil {
			break
		}
		a.enq, a.sent, a.done, a.status, a.handler, a.resp, a.err = s.Enq, s.Sent, s.Done, s.Status, s.Handler, s.Resp, s.Err
	}
	if derr != nil {
		_ = cmd.Process.Kill() // the generator's output is unusable; Wait reaps it
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	if derr != nil {
		return fmt.Errorf("load generator output: %w", derr)
	}
	return nil
}
