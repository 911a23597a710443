package serve

// Fuzzing the job index, the daemon's one restart format. Two
// properties: replay of arbitrary bytes never panics, and every byte
// prefix of a WAL written through the real record paths (admission,
// start, terminal and drain records, restart re-queues, compaction)
// replays each job to a state the writer actually recorded for it —
// and the whole file replays each job to its last recorded state.
//
// Run: go test -run '^$' -fuzz FuzzIndexReplay -fuzztime 10s ./internal/serve

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/telemetry/tracectx"
)

// fuzzMaxOps bounds one script so each fuzz iteration stays cheap.
const fuzzMaxOps = 64

func FuzzIndexReplay(f *testing.F) {
	// admit, start, done on j0001; admit j0002 and drain it; compact.
	f.Add([]byte{0, 1, 2, 8, 13, 7}, uint16(0xffff))
	// A drained running job re-queued by a restart, then finished.
	f.Add([]byte{0, 1, 5, 6, 1, 2}, uint16(200))
	f.Add([]byte(`{"schema":"hifi_serve_index_v1"}`+"\n"+`{"op":"requeued","id":"j0001"}`), uint16(40))

	f.Fuzz(func(t *testing.T, script []byte, cut uint16) {
		// Property 1: arbitrary bytes replay without panicking.
		(&jobIndex{path: "fuzz"}).replay(script)

		// Property 2: prefixes of a genuine WAL replay to recorded states.
		if len(script) > fuzzMaxOps {
			script = script[:fuzzMaxOps]
		}
		path := filepath.Join(t.TempDir(), "serve.index.ndjson")
		ix, _ := openIndex(path, nil, 0, indexTelemetry{}, nil)
		w := newFuzzWriter(ix)
		for _, b := range script {
			w.step(b)
		}
		if err := ix.w.Close(); err != nil {
			t.Fatal(err)
		}
		content, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		n := int(cut) % (len(content) + 1)
		for _, r := range (&jobIndex{path: "fuzz"}).replay(content[:n]) {
			rec, ok := w.recorded[r.id]
			if !ok {
				t.Fatalf("prefix %d/%d replayed unknown job %s", n, len(content), r.id)
			}
			if !rec[r.state] {
				t.Fatalf("prefix %d/%d replayed %s as %s, never recorded (recorded %v)", n, len(content), r.id, r.state, rec)
			}
		}
		full := (&jobIndex{path: "fuzz"}).replay(content)
		if len(full) != len(w.last) {
			t.Fatalf("full WAL replayed %d job(s), wrote %d", len(full), len(w.last))
		}
		for _, r := range full {
			if want := w.last[r.id]; r.state != want {
				t.Fatalf("full WAL replayed %s as %s, last recorded %s", r.id, r.state, want)
			}
		}
	})
}

// fuzzWriter drives real Jobs through their lifecycle and appends the
// records the server appends at each transition, tracking every state
// the index recorded per job.
type fuzzWriter struct {
	ix       *jobIndex
	jobs     [4]*Job
	recorded map[string]map[State]bool
	last     map[string]State
}

func newFuzzWriter(ix *jobIndex) *fuzzWriter {
	return &fuzzWriter{ix: ix, recorded: map[string]map[State]bool{}, last: map[string]State{}}
}

func (w *fuzzWriter) record(id string, st State) {
	if w.recorded[id] == nil {
		w.recorded[id] = map[State]bool{}
	}
	w.recorded[id][st] = true
	w.last[id] = st
}

// terminal appends a job's terminal record (requeued for a drained job)
// and records the state it persists.
func (w *fuzzWriter) terminal(j *Job) {
	rec := j.terminalRecord()
	w.ix.append(rec)
	if rec.Op == opRequeued {
		w.record(j.ID, StateQueued)
	} else {
		w.record(j.ID, State(rec.Op))
	}
}

// step decodes one script byte: the low three bits pick the operation,
// the next two the job.
func (w *fuzzWriter) step(b byte) {
	slot := int(b>>3) % len(w.jobs)
	j := w.jobs[slot]
	id := []string{"j0001", "j0002", "j0003", "j0004"}[slot]
	var st engine.Status
	switch b % 8 {
	case 0: // admit
		if j != nil {
			return
		}
		spec := Spec{Run: []string{"fig14"}, Scaled: true, Accesses: 300, Seed: uint64(slot + 1)}
		tc := tracectx.NewGen(uint64(slot + 1)).NewContext()
		j = newJob(id, spec.Fingerprint(), spec, context.Background(), 0, tc)
		w.jobs[slot] = j
		w.ix.append(indexRecord{
			Op: opAdmitted, ID: id, Fingerprint: j.Fingerprint, TraceID: j.TraceID,
			Spec: &spec, TMS: j.created.UnixMilli(),
		})
		w.record(id, StateQueued)
	case 1: // a runner starts it
		if j != nil && j.markStarted(nil) {
			w.ix.append(indexRecord{Op: opStarted, ID: id, TMS: j.started.UnixMilli()})
			w.record(id, StateRunning)
		}
	case 2: // it finishes
		if j != nil && j.State() == StateRunning && j.markDone(st, nil) {
			w.terminal(j)
		}
	case 3: // it fails
		if j != nil && j.State() == StateRunning && j.markFailed(st, "boom") {
			w.terminal(j)
		}
	case 4: // a client cancels it
		if j != nil && (j.markCanceledIfQueued("client", false) ||
			j.State() == StateRunning && j.markCanceled(&st, "client", false)) {
			w.terminal(j)
		}
	case 5: // a drain stops it
		if j != nil && (j.markCanceledIfQueued("drain", true) ||
			j.State() == StateRunning && j.markCanceled(&st, "drain deadline", true)) {
			w.terminal(j)
		}
	case 6: // a restart re-queues a drained job
		if j != nil && j.isDrained() {
			tc := tracectx.NewGen(uint64(slot + 1)).NewContext()
			w.jobs[slot] = newJob(id, j.Fingerprint, j.Spec, context.Background(), 0, tc)
			w.ix.append(indexRecord{Op: opRequeued, ID: id})
			w.record(id, StateQueued)
		}
	case 7: // compaction
		w.ix.compactWith(func() []indexRecord {
			var recs []indexRecord
			for _, j := range w.jobs {
				if j != nil {
					recs = append(recs, j.indexSnapshot())
				}
			}
			sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
			return recs
		})
	}
}
