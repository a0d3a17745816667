package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"spampsm/internal/scene"
	"spampsm/internal/serve"
	"spampsm/internal/spam"
)

const (
	// serveScale sizes the inline scenes: the calibrated subsets at
	// three tenths keep a request short enough that one run holds the
	// hundred requests a p90 with ten samples beyond it needs.
	serveScale = 0.3
	// serveVariants is how many differently seeded scenes of each
	// dataset repeat: enough distinct scenes that the median request
	// does not hang on a few draws.
	serveVariants = 16
	// serveRate is the fixed Poisson arrival rate, about a fifth of the
	// capacity measured for this mix on a two-CPU host: higher rates
	// let queueing amplify host noise (see README.md).
	serveRate = 5.0
	// serveLimit is the served-request latency limit of goodput_rps.
	serveLimit = time.Second
	// serveConns is the load generator's connection count.
	serveConns = 2
	// serveFreshShare and serveWriteShare split the arrivals: fresh
	// inline scenes (cache misses), session writes, and the rest
	// repeated inline scenes (cache hits).
	serveFreshShare = 0.20
	serveWriteShare = 0.15
	// serveUpdates is how many updates each session takes between its
	// open and its close.
	serveUpdates = 4
	// serveSetupReps is the serve workload's set-up repetitions.
	serveSetupReps = 3
	// serveChurn is the region share a session update changes.
	serveChurn = 0.02
	// serveDrain bounds the wait for requests still running when the
	// schedule ends.
	serveDrain = 60 * time.Second
)

// serveRepeats are the repeating inline scenes: each dataset at
// serveScale under serveVariants seeds.
func serveRepeats(seed uint64) []*scene.Scene {
	var out []*scene.Scene
	for i := 0; i < serveVariants; i++ {
		for _, p := range []scene.Params{scene.SF, scene.DC, scene.MOFF} {
			out = append(out, serveScene(p, subSeed(seed, "repeat-"+p.Name, i)))
		}
	}
	return out
}

func serveScene(p scene.Params, seed uint64) *scene.Scene {
	q := p.Scale(serveScale)
	q.Seed = seed
	q.Name = fmt.Sprintf("%s-%x", p.Name, seed&0xffff)
	return scene.Generate(q)
}

// inline converts a generated scene to the wire form.
func inline(s *scene.Scene) *serve.InlineScene {
	is := &serve.InlineScene{Name: s.Name, Domain: string(s.Domain), W: s.W, H: s.H}
	for _, r := range s.Regions {
		poly := make([][2]float64, len(r.Poly))
		for i, p := range r.Poly {
			poly[i] = [2]float64{p.X, p.Y}
		}
		is.Regions = append(is.Regions, serve.InlineRegion{ID: r.ID, Poly: poly,
			Intensity: r.Intensity, Texture: r.Texture, Kind: string(r.TrueKind)})
	}
	return is
}

// liveServer is a serve.Server listening on loopback HTTP.
type liveServer struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(cfg serve.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &liveServer{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return s, nil
}

func (s *liveServer) close() {
	_ = s.http.Shutdown(context.Background()) // no request is in flight
	<-s.done
	s.srv.Close()
}

func serveConfig() serve.Config { return serve.Config{Workers: workers} }

// runServe is the served path: an open loop of seeded Poisson arrivals
// at a fixed rate over loopback HTTP to an in-process serve.Server,
// mixing repeated and fresh inline-scene interpretations with session
// writes.
func runServe(c *config) (*outcome, error) {
	o := newOutcome()
	ls := layerSamples{}
	var repeats [][]byte
	var live *liveServer
	setup, err := repeat(serveSetupReps, func() error {
		if live != nil {
			live.close()
			live = nil
		}
		t0 := time.Now()
		scs := serveRepeats(c.seed)
		ls.add("scene.generate_s", time.Since(t0).Seconds())
		// The server compiles its rule programs on the first request,
		// inside the warm-up; spam.compile_s is timed apart, in the
		// traced run.
		var err error
		if repeats, err = serveBodies(scs); err != nil {
			return err
		}
		if live, err = startServer(serveConfig()); err != nil {
			return err
		}
		return warmUp(live.base, repeats)
	})
	if live != nil {
		defer live.close()
	}
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	if c.record {
		return o, nil
	}

	arr, distinct, err := serveSchedule(c.seed, c.budget(), repeats)
	if err != nil {
		return nil, fmt.Errorf("serve schedule: %w", err)
	}
	before := live.srv.Stats()
	a0 := heapAllocs()
	if err := playSchedule(c, live.base, arr); err != nil {
		return nil, err
	}
	var l opLog
	l.allocs = heapAllocs() - a0
	after := live.srv.Stats()

	// Reference bodies: every distinct interpret body and the whole
	// write sequence, each sent alone to a fresh server.
	refs, writeRefs, err := serveReferences(distinct, arr)
	if err != nil {
		return nil, err
	}
	handler, httpT, wait, late := settleArrivals(o, &l, arr, refs, writeRefs)
	o.finish(setup, &l)
	runtime.KeepAlive(live)

	if c.trace {
		// The generator's clock starts at the recorder's epoch.
		rec := newRecorder()
		at := func(d time.Duration) time.Time { return rec.epoch.Add(d) }
		for i, a := range arr {
			if a.status != http.StatusOK {
				continue
			}
			op := int64(i + 1)
			root := rec.add(0, 0, op, a.kind, "loadgen", at(a.due), at(a.done))
			h := rec.add(0, root, op, "http", "http", at(a.sent), at(a.done))
			hs := a.done - time.Duration(a.handler*float64(time.Millisecond))
			rec.add(0, h, op, "handler", "serve", at(hs), at(a.done))
		}
		kb := spam.AirportKB()
		t0 := time.Now()
		progs, err := spam.BuildPrograms(kb)
		if err != nil {
			return nil, err
		}
		ls.add("spam.compile_s", time.Since(t0).Seconds())
		ls.into(o)
		o.layer["serve.handler_ms"] = median(handler)
		o.layer["serve.http_ms"] = median(httpT)
		o.layer["serve.client_wait_ms"] = percentile(wait, 90)
		o.layer["loadgen.late_ms"] = percentile(late, 90)
		o.layer["serve.scene_cache.hits"] = float64(after.SceneCache.Hits - before.SceneCache.Hits)
		o.layer["serve.scene_cache.misses"] = float64(after.SceneCache.Misses - before.SceneCache.Misses)
		o.layer["serve.sessions.evicted"] = float64(after.Sessions.Evicted - before.Sessions.Evicted)
		o.layer["serve.shed"] = float64(after.Shed - before.Shed)
		o.layer["serve.timed_out"] = float64(after.TimedOut - before.TimedOut)
		o.layer["serve.degraded"] = float64(after.Degraded - before.Degraded)
		o.layer["tlp.tasks"] = float64(after.Pool.TasksRun - before.Pool.TasksRun)
		o.layer["tlp.quarantined"] = float64(after.Pool.Quarantined - before.Pool.Quarantined)
		o.layer["tlp.pool.throttle_waits"] = float64(after.Pool.ThrottleWaits - before.Pool.ThrottleWaits)
		o.layer["tlp.pool.peak_mem_est"] = after.Pool.PeakMemEst
		o.layer["spam.dataset_s"] = median(datasetBuilds(arr, kb, progs))
		selfLayerMetrics(o, rec, len(handler))
		o.rec = rec
	}
	o.timing("request_p50_ms", "ms", l.lat)
	o.line("%-22s %12.4f %-5s fixed Poisson rate, %d arrivals served in %.1f s", "offered_rps", serveRate, "1/s",
		len(arr), l.timed.Seconds())
	o.line("%-22s %12.4f %-5s p90 of send lateness against the schedule", "loadgen.late_ms", percentile(late, 90), "ms")
	o.commonLines()
	return o, nil
}

// settleArrivals logs every arrival as a timed operation and checks
// each 200 body against its solo reference. It returns, for the
// successful requests, the handler, HTTP, client-wait and lateness
// samples in ms.
//
// Session writes are compared with the session ID blanked: IDs come
// from a server-wide sequence that every session lookup advances, so
// one failed write renumbers every later session. After a failed
// write the rest of its session chain runs on a state the reference
// never had, and its bodies go unchecked until the next open.
func settleArrivals(o *outcome, l *opLog, arr []*arrival, refs, writeRefs [][]byte) (handler, httpT, wait, late []float64) {
	broken := false // a write of the current session chain failed
	for _, a := range arr {
		l.timed = max(l.timed, a.done)
		if a.kind == "open" {
			broken = false
		}
		failed := ""
		switch {
		case a.err != "" || a.status != http.StatusOK:
			failed = fmt.Sprintf("status %d %s", a.status, a.err)
		case !complete(a):
			failed = "incomplete interpretation"
		}
		if failed != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s request due at %v: %s\n", a.kind, a.due, failed)
			l.done(0, false, serveLimit)
			broken = broken || a.kind != "interpret"
			continue
		}
		switch {
		case a.kind == "interpret":
			if !bytes.Equal(a.resp, refs[a.ref]) {
				o.mismatch("interpret request due at %v: body differs from its solo reference", a.due)
			}
		case broken:
		case !bytes.Equal(withoutSessionID(a.resp), withoutSessionID(writeRefs[a.ref])):
			o.mismatch("%s request due at %v: body differs from its solo reference", a.kind, a.due)
		}
		l.done(a.done-a.due, true, serveLimit)
		handler = append(handler, a.handler)
		httpT = append(httpT, ms(a.done-a.sent)-a.handler)
		wait = append(wait, ms(a.sent-a.due))
		late = append(late, ms(a.enq-a.due))
	}
	return handler, httpT, wait, late
}

// withoutSessionID blanks the session ID of a session write's body:
// the "session" of an open or update, the "closed" of a close.
func withoutSessionID(body []byte) []byte {
	var v struct{ Session, Closed string }
	if json.Unmarshal(body, &v) != nil {
		return body
	}
	for key, id := range map[string]string{"session": v.Session, "closed": v.Closed} {
		if id == "" {
			continue
		}
		q, _ := json.Marshal(id)
		body = bytes.Replace(body, []byte(`"`+key+`":`+string(q)), []byte(`"`+key+`":""`), 1)
	}
	return body
}

// warmUp sends every repeating scene once over serveConns connections,
// filling the scene cache.
func warmUp(base string, bodies [][]byte) error {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()
	errs := make(chan error, serveConns)
	for w := 0; w < serveConns; w++ {
		go func(w int) {
			for i := w; i < len(bodies); i += serveConns {
				resp, err := client.Post(base+"/interpret", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("warm-up request: status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var err error
	for w := 0; w < serveConns; w++ {
		err = errors.Join(err, <-errs)
	}
	return err
}

// serveReferences computes the solo reference body of every distinct
// interpret request and of every write, on a fresh server with nothing
// else in flight.
func serveReferences(distinct [][]byte, arr []*arrival) (refs, writeRefs [][]byte, err error) {
	srv := serve.New(serveConfig())
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path string, body []byte) ([]byte, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %s %s: status %d: %s", method, path, rr.Code, rr.Body.Bytes())
		}
		return rr.Body.Bytes(), nil
	}
	for _, b := range distinct {
		r, err := do("POST", "/interpret", b)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, r)
	}
	var id string
	for _, a := range arr {
		var r []byte
		switch a.kind {
		case "interpret":
			continue
		case "open":
			if r, err = do("POST", "/session", a.body); err == nil {
				var sr serve.SessionResponse
				if err = json.Unmarshal(r, &sr); err == nil {
					id = sr.Session
				}
			}
		case "update":
			var b []byte
			if b, err = updateBody(id, a.churn); err == nil {
				r, err = do("POST", "/update", b)
			}
		case "close":
			r, err = do("DELETE", "/session/"+id, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		writeRefs = append(writeRefs, r)
	}
	return refs, writeRefs, nil
}

// complete reports whether a 200 response carries a complete
// interpretation; a degraded one counts as a failed request.
func complete(a *arrival) bool {
	var in *serve.Response
	switch a.kind {
	case "interpret":
		in = new(serve.Response)
		if json.Unmarshal(a.resp, in) != nil {
			return false
		}
	case "open", "update":
		var sr serve.SessionResponse
		if json.Unmarshal(a.resp, &sr) != nil || sr.Result == nil {
			return false
		}
		in = sr.Result
	default:
		return true
	}
	return in.Completeness.Complete
}

// datasetBuilds times spam.NewDatasetWith on the run's fresh scenes —
// the dataset build a scene-cache miss costs the server.
func datasetBuilds(arr []*arrival, kb *spam.KB, progs *spam.Programs) []float64 {
	var out []float64
	for _, a := range arr {
		if a.fresh == nil {
			continue
		}
		t0 := time.Now()
		spam.NewDatasetWith(a.fresh, kb, progs)
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}
