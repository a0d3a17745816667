package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"

	"spampsm/internal/faults"
	"spampsm/internal/geom"
	"spampsm/internal/ops5"
	"spampsm/internal/spam"
	"spampsm/internal/tlp"
	"spampsm/internal/wm"
)

// WorkerEnv is the environment variable that flips a binary into
// cluster-worker mode: "network|address" of the coordinator's
// listener. The coordinator sets it on the processes it spawns; every
// cmd main (and the test binaries) call MaybeWorker first, so the
// same executable serves as both coordinator and worker.
const WorkerEnv = "SPAMPSM_CLUSTER_WORKER"

// MaybeWorker turns the current process into a cluster worker when
// WorkerEnv is set: it connects back to the coordinator, serves tasks
// until the connection shuts down, and exits the process. A normal
// invocation (variable unset) returns immediately.
func MaybeWorker() {
	spec := os.Getenv(WorkerEnv)
	if spec == "" {
		return
	}
	network, addr, ok := strings.Cut(spec, "|")
	if !ok {
		fmt.Fprintf(os.Stderr, "cluster worker: malformed %s=%q\n", WorkerEnv, spec)
		os.Exit(1)
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: dial: %v\n", err)
		os.Exit(1)
	}
	if err := ServeWorker(c); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// worker is one connection's serving state.
type worker struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	init     InitMsg
	procPlan *faults.Plan

	// chunks is the resident content-addressed seed table (wire v2):
	// chunk frames install entries, chunk-free frames drop them, and
	// chunk-ref task frames resolve against it at decode time. Only the
	// read loop touches it, so it needs no lock — and because refs
	// resolve into the TaskMsg before the task is handed to an
	// executor, a later eviction cannot break an earlier task.
	chunks map[uint64]ops5.Seed

	// dec/enc are the per-direction v2 intern tables: dec mirrors the
	// coordinator's sender state (read loop only), enc is this worker's
	// result-stream state (guarded by writeMu, like the stream itself).
	dec *DecTab
	enc *EncTab

	// mu guards datasets and pools: the read loop registers datasets
	// while executors look them up, and executors create pools lazily.
	mu       sync.Mutex
	datasets map[string]*spam.Dataset
	// pools caches one tlp.Pool per distinct RunConfig. Pools carry the
	// retry/quarantine machinery and the shared memory gate, so tasks
	// of one run share a gate exactly as they would in-process.
	pools map[RunConfig]*tlp.Pool

	writeMu sync.Mutex
}

// ServeWorker runs the worker side of one coordinator connection
// until the coordinator sends Shutdown or the connection drops.
// Exported for the in-process tests; production workers enter through
// MaybeWorker.
func ServeWorker(c net.Conn) error {
	w := &worker{
		conn:     c,
		br:       bufio.NewReaderSize(c, 1<<16),
		bw:       bufio.NewWriterSize(c, 1<<16),
		chunks:   map[uint64]ops5.Seed{},
		datasets: map[string]*spam.Dataset{},
		pools:    map[RunConfig]*tlp.Pool{},
	}
	defer c.Close()

	typ, payload, err := readFrame(w.br)
	if err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	if typ != frameInit {
		return fmt.Errorf("handshake: got frame type %d, want init", typ)
	}
	if err := decodeJSON(payload, &w.init); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if w.init.Magic != Magic || w.init.Version < MinVersion || w.init.Version > Version {
		return fmt.Errorf("handshake: protocol %q v%d, want %q v%d..v%d",
			w.init.Magic, w.init.Version, Magic, MinVersion, Version)
	}
	if w.init.LocalWorkers < 1 {
		w.init.LocalWorkers = 1
	}
	if w.init.Version >= 2 {
		w.dec = &DecTab{}
		w.enc = NewEncTab()
	}
	// Replay the coordinator's observational-equivalence toggles so
	// every engine built here walks the same code path as its
	// single-process twin.
	spam.UseNaiveMatch(w.init.Toggles.NaiveMatch)
	spam.UseFreshCompile(w.init.Toggles.FreshCompile)
	spam.UseUnbatchedSeed(w.init.Toggles.UnbatchedSeed)
	spam.UseUncachedGeo(w.init.Toggles.UncachedGeo)
	geom.UseExactOnly(w.init.Toggles.ExactGeom)
	if w.init.ProcFaults != (faults.Config{}) {
		w.procPlan = faults.New(w.init.ProcFaults)
	}

	// LocalWorkers executors drain the task channel; the reader
	// goroutine below is the only frame reader, executors the only
	// (mutex-serialized) frame writers.
	tasks := make(chan *TaskMsg, w.init.LocalWorkers)
	var wg sync.WaitGroup
	for i := 0; i < w.init.LocalWorkers; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for m := range tasks {
				w.runTask(idx, m)
			}
		}(i)
	}

	var loopErr error
loop:
	for {
		typ, payload, err := readFrame(w.br)
		if err != nil {
			loopErr = fmt.Errorf("read: %w", err)
			break
		}
		switch typ {
		case frameDataset:
			var spec DatasetSpec
			if err := decodeJSON(payload, &spec); err != nil {
				loopErr = err
			} else {
				loopErr = w.addDataset(spec)
			}
		case frameTask:
			m, err := DecodeTask(payload)
			if err != nil {
				loopErr = err
				break loop
			}
			w.admit(m)
			tasks <- m
		case frameTaskV2:
			if w.init.Version < 2 {
				loopErr = fmt.Errorf("v2 task frame on a v%d connection", w.init.Version)
				break loop
			}
			m, _, err := DecodeTaskV2(w.dec, payload, func(id uint64) (ops5.Seed, bool) {
				s, ok := w.chunks[id]
				return s, ok
			})
			if err != nil {
				loopErr = err
				break loop
			}
			w.admit(m)
			tasks <- m
		case frameChunk:
			if w.init.Version < 2 {
				loopErr = fmt.Errorf("chunk frame on a v%d connection", w.init.Version)
				break loop
			}
			id, s, err := DecodeChunk(w.dec, payload)
			if err != nil {
				loopErr = err
				break loop
			}
			w.chunks[id] = s
		case frameChunkFree:
			if w.init.Version < 2 {
				loopErr = fmt.Errorf("chunk-free frame on a v%d connection", w.init.Version)
				break loop
			}
			ids, err := DecodeChunkFree(payload)
			if err != nil {
				loopErr = err
				break loop
			}
			for _, id := range ids {
				delete(w.chunks, id)
			}
		case frameShutdown:
			break loop
		default:
			loopErr = fmt.Errorf("unexpected frame type %d", typ)
		}
		if loopErr != nil {
			break
		}
	}
	close(tasks)
	wg.Wait()
	if loopErr != nil && !isClosedConn(loopErr) {
		return loopErr
	}
	return nil
}

// admit applies the process-level chaos draw to a freshly-decoded
// task. A Crash draw for this (task, attempt) kills the worker process
// outright — no goodbye frame, the coordinator sees only the dropped
// connection. Deterministic in (task ID, attempt), and because
// transient faults strike only the first attempt, the task's
// redelivery (startAttempt 2) survives. Spawned continuation tasks go
// through the same draw, so the chaos tests exercise mid-run SIGKILL
// requeue of spawned tasks too.
func (w *worker) admit(m *TaskMsg) {
	if w.procPlan != nil && w.procPlan.TaskFault(m.ID, m.StartAttempt).Kind == faults.Crash {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
}

func isClosedConn(err error) bool {
	s := err.Error()
	return strings.Contains(s, "EOF") || strings.Contains(s, "use of closed network connection") ||
		strings.Contains(s, "connection reset")
}

func decodeJSON(payload []byte, v interface{}) error {
	return json.Unmarshal(payload, v)
}

// addDataset regenerates a dataset from its shipped parameters.
// Generation is deterministic, so the result is byte-identical to the
// coordinator's copy.
func (w *worker) addDataset(spec DatasetSpec) error {
	w.mu.Lock()
	_, ok := w.datasets[spec.Name]
	w.mu.Unlock()
	if ok {
		return nil
	}
	var (
		d   *spam.Dataset
		err error
	)
	switch spec.Domain {
	case "airport":
		d, err = spam.NewDataset(spec.Airport)
	case "suburban":
		d, err = spam.NewSuburbanDataset(spec.Suburban)
	default:
		return fmt.Errorf("cluster: dataset %q: unknown domain %q", spec.Name, spec.Domain)
	}
	if err != nil {
		return fmt.Errorf("cluster: dataset %q: %w", spec.Name, err)
	}
	w.mu.Lock()
	w.datasets[spec.Name] = d
	w.mu.Unlock()
	return nil
}

// poolFor returns (building if needed) the local pool matching a
// run's configuration.
func (w *worker) poolFor(cfg RunConfig) *tlp.Pool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p, ok := w.pools[cfg]; ok {
		return p
	}
	p := &tlp.Pool{
		Workers:      w.init.LocalWorkers,
		MaxFirings:   cfg.MaxFirings,
		FiringBudget: cfg.FiringBudget,
		MaxRetries:   cfg.MaxRetries,
		TaskTimeout:  cfg.TaskTimeout,
		RetryBackoff: cfg.RetryBackoff,
		MemBudget:    w.init.MemBudget,
	}
	if cfg.Faults != (faults.Config{}) {
		p.Faults = faults.New(cfg.Faults)
	}
	w.pools[cfg] = p
	return p
}

// runTask executes one shipped task on executor idx and writes its
// result frame. On a v2 connection the encoding happens under writeMu
// too: the result codec interns against the connection's shared table,
// so encode order must match stream order.
func (w *worker) runTask(idx int, m *TaskMsg) {
	res := w.execute(idx, m)
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	var payload []byte
	if w.enc != nil {
		payload = EncodeResultV2(w.enc, res)
	} else {
		payload = EncodeResult(res)
	}
	if _, err := writeFrame(w.bw, frameResult, payload); err != nil {
		return
	}
	w.bw.Flush()
}

// execute runs the task through the local pool and flattens the
// Result for the wire.
func (w *worker) execute(idx int, m *TaskMsg) *ResultMsg {
	out := &ResultMsg{RunID: m.RunID, Seq: m.Seq, TaskID: m.ID, Worker: idx, Attempts: m.StartAttempt, Spawned: m.Spawned}
	w.mu.Lock()
	d, ok := w.datasets[m.Spec.Dataset]
	w.mu.Unlock()
	if !ok {
		out.Err = &WireError{Msg: fmt.Sprintf("cluster: task %s: dataset %q not registered", m.ID, m.Spec.Dataset)}
		out.AttemptErrs = []WireError{*out.Err}
		out.Quarantined = true
		return out
	}
	builder, err := d.WireBuild(&m.Spec, m.Config.Capture)
	if err != nil {
		out.Err = &WireError{Msg: err.Error()}
		out.AttemptErrs = []WireError{*out.Err}
		out.Quarantined = true
		return out
	}
	task := &tlp.Task{
		ID: m.ID, Label: m.Label, Group: m.Group,
		EstSize: m.EstSize, MemEst: m.MemEst,
		Build:     func() (*ops5.Engine, error) { return builder(nil) },
		BuildWith: builder,
	}
	pool := w.poolFor(m.Config)
	if w.init.Prebuild {
		pool.Prebuild([]*tlp.Task{task}, 1)
	}
	r := pool.RunOne(context.Background(), task, idx, m.Seq, m.StartAttempt)

	out.Attempts = r.Attempts
	out.Stats = r.Stats
	if r.Log != nil {
		out.HasLog = true
		out.Mem = r.Log.Mem
	}
	out.Quarantined = r.Quarantined
	out.Cancelled = r.Cancelled
	if r.Err != nil {
		out.Err = &WireError{Msg: r.Err.Error(), Marks: tlp.ErrorMarks(r.Err)}
	}
	for _, ae := range r.AttemptErrs {
		out.AttemptErrs = append(out.AttemptErrs, WireError{Msg: ae.Error(), Marks: tlp.ErrorMarks(ae)})
	}
	if r.Err == nil && r.Engine != nil {
		out.Snapshot = snapshot(r.Engine, m.Spec.Extract)
	}
	return out
}

// snapshot extracts the requested classes' final WMEs — the only
// engine state result extraction reads — so the engine itself never
// crosses the wire and is dropped right here.
func snapshot(e *ops5.Engine, classes []string) []SnapClass {
	var out []SnapClass
	for _, class := range classes {
		wmes := e.WMEs(class)
		sc := SnapClass{Name: class}
		for _, x := range wmes {
			if sc.Attrs == nil {
				sc.Attrs = x.Class.Attrs
			}
			sc.Rows = append(sc.Rows, x.Vals)
		}
		out = append(out, sc)
	}
	return out
}

// rebuildSnapshot converts shipped rows back into a tlp.Snapshot of
// real WMEs, one shared ClassDef per class. TimeTags restart from 1
// per class — extraction reads values in slice order, never tags.
func rebuildSnapshot(classes []SnapClass) (tlp.Snapshot, error) {
	if len(classes) == 0 {
		return nil, nil
	}
	snap := tlp.Snapshot{}
	for _, sc := range classes {
		if len(sc.Rows) == 0 {
			snap[sc.Name] = nil
			continue
		}
		cd, err := wm.NewClassDef(sc.Name, sc.Attrs...)
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshot class %q: %w", sc.Name, err)
		}
		wmes := make([]*wm.WME, 0, len(sc.Rows))
		for i, row := range sc.Rows {
			wmes = append(wmes, &wm.WME{Class: cd, Vals: row, TimeTag: i + 1})
		}
		snap[sc.Name] = wmes
	}
	return snap, nil
}
