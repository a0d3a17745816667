package cluster

import (
	"bufio"
	"net"
	"testing"

	"spampsm/internal/spam"
)

// TestInProcessWorkerConcurrentConfigs drives ServeWorker in-process
// over net.Pipe, so the race detector sees both ends of the wire. Two
// local executors receive a burst of tasks under two distinct
// RunConfigs — each executor creates its run's pool on first use —
// while the frame reader registers a second dataset mid-burst. The
// worker's dataset and pool tables are shared between the reader and
// the executors; any unguarded access fails this test under -race, and
// crashes a plain build with a concurrent map write now and then.
func TestInProcessWorkerConcurrentConfigs(t *testing.T) {
	p := airportParams("DC")
	d, err := spam.NewDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	tasks := spam.BuildRTFTasks(d.KB, d.Store, d.Progs.RTF, 3, false)
	const n = 8
	if len(tasks) < n {
		t.Fatalf("only %d RTF tasks, want %d", len(tasks), n)
	}

	coord, work := net.Pipe()
	defer coord.Close()
	served := make(chan error, 1)
	go func() { served <- ServeWorker(work) }()

	sent := make(chan error, 1)
	go func() {
		sent <- func() error {
			if _, err := writeJSONFrame(coord, frameInit, InitMsg{Magic: Magic, Version: Version, LocalWorkers: 2}); err != nil {
				return err
			}
			if _, err := writeJSONFrame(coord, frameDataset, AirportSpec(p)); err != nil {
				return err
			}
			enc := NewEncTab()
			for i := 0; i < n; i++ {
				spec, err := tasks[i].Wire()
				if err != nil {
					return err
				}
				m := &TaskMsg{
					RunID: 1, Seq: i, StartAttempt: 1, ID: tasks[i].ID,
					Config: RunConfig{MaxRetries: i % 2},
					Spec:   *spec,
				}
				if _, err := writeFrame(coord, frameTaskV2, EncodeTaskV2(enc, m, nil)); err != nil {
					return err
				}
			}
			_, err := writeJSONFrame(coord, frameDataset, AirportSpec(airportParams("SF")))
			return err
		}()
	}()

	br := bufio.NewReader(coord)
	dec := &DecTab{}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		typ, payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if typ != frameResult {
			t.Fatalf("result %d: frame type %d", i, typ)
		}
		res, err := DecodeResultV2(dec, payload)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Err != nil {
			t.Errorf("task seq %d failed: %s", res.Seq, res.Err.Msg)
		}
		if seen[res.Seq] {
			t.Errorf("task seq %d answered twice", res.Seq)
		}
		seen[res.Seq] = true
	}
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	// The worker may close its end as soon as it has read the frame
	// header, so a write error here is not a failure; its return is.
	writeFrame(coord, frameShutdown, nil)
	if err := <-served; err != nil {
		t.Fatalf("worker: %v", err)
	}
}
