package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	ID    uint64
	Event string
	Data  Event
}

// readFrames consumes SSE frames from r until n frames arrive or the
// stream ends, skipping comment lines.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var sawData bool
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended after %d/%d frames: %v", len(frames), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if sawData {
				frames = append(frames, cur)
				cur, sawData = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			// comment (handshake)
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.Data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			sawData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func dialSSE(t *testing.T, url string, lastEventID uint64) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	return bufio.NewReader(resp.Body), func() { _ = resp.Body.Close() }
}

func TestSSELiveStream(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	r, done := dialSSE(t, srv.URL, 0)
	defer done()

	go func() {
		for i := 0; i < 5; i++ {
			b.Emit(Event{Type: JobFinished, Name: fmt.Sprintf("job-%d", i), N: 1})
		}
	}()

	frames := readFrames(t, r, 5)
	for i, f := range frames {
		if f.ID != uint64(i+1) {
			t.Errorf("frame %d has id %d, want %d (monotonic from 1)", i, f.ID, i+1)
		}
		if f.Event != string(JobFinished) {
			t.Errorf("frame %d event = %q", i, f.Event)
		}
		if f.Data.Seq != f.ID {
			t.Errorf("frame %d: data.seq %d != id %d", i, f.Data.Seq, f.ID)
		}
		if f.Data.Name != fmt.Sprintf("job-%d", i) {
			t.Errorf("frame %d name = %q", i, f.Data.Name)
		}
	}
}

func TestSSEReplayFromLastEventID(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	for i := 0; i < 8; i++ {
		b.Emit(Event{Type: RunPhase, Name: fmt.Sprintf("p%d", i)})
	}

	// Reconnect claiming we saw up to id 5: frames 6, 7, 8 replay, then
	// live events follow seamlessly.
	r, done := dialSSE(t, srv.URL, 5)
	defer done()
	frames := readFrames(t, r, 3)
	for i, f := range frames {
		if f.ID != uint64(6+i) {
			t.Fatalf("replay frame %d has id %d, want %d", i, f.ID, 6+i)
		}
	}
	b.Emit(Event{Type: RunFinish})
	live := readFrames(t, r, 1)
	if live[0].ID != 9 || live[0].Event != string(RunFinish) {
		t.Fatalf("post-replay live frame = %+v, want run.finish id 9", live[0])
	}
}

func TestSSEReplayQueryParam(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()
	for i := 0; i < 4; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	r, done := dialSSE(t, srv.URL+"?last_event_id=2", 0)
	defer done()
	frames := readFrames(t, r, 2)
	if frames[0].ID != 3 || frames[1].ID != 4 {
		t.Fatalf("query-param replay ids = %d,%d, want 3,4", frames[0].ID, frames[1].ID)
	}
}

func TestSSEMultiSubscriber(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	const subs = 3
	var wg sync.WaitGroup
	ready := make(chan struct{}, subs)
	for s := 0; s < subs; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, done := dialSSE(t, srv.URL, 0)
			defer done()
			ready <- struct{}{}
			frames := readFrames(t, r, 4)
			last := uint64(0)
			for _, f := range frames {
				if f.ID <= last {
					t.Errorf("non-monotonic id %d after %d", f.ID, last)
				}
				last = f.ID
			}
		}()
	}
	for s := 0; s < subs; s++ {
		<-ready
	}
	// The subscribers are connected but their bus subscriptions may lag
	// the dial; replay makes this safe — every frame is either replayed
	// or live.
	for i := 0; i < 4; i++ {
		b.Emit(Event{Type: JobFinished, N: 1})
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// A subscriber that never reads must not block Emit; the dropped
// deliveries are counted.
func TestSSESlowClientDoesNotBlockEmit(t *testing.T) {
	b := New(2048)
	srv := httptest.NewServer(Handler(b))
	defer srv.Close()

	r, done := dialSSE(t, srv.URL, 0)
	defer done()

	// Emit without reading until a delivery drops: the subscriber
	// buffer (256) and however much the kernel's socket buffers absorb
	// fill first, so a fixed count can fall short. The cap is far
	// beyond any socket buffering. Emit must return promptly every time.
	const maxEmits = 1_000_000
	emitted := make(chan int, 1)
	go func() {
		n := 0
		for n < maxEmits && b.Dropped() == 0 {
			b.Emit(Event{Type: JobFinished, Name: "flood", N: 1})
			n++
		}
		emitted <- n
	}()
	select {
	case n := <-emitted:
		if b.Dropped() == 0 {
			t.Errorf("no dropped deliveries after %d events to a non-reading client", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Emit blocked on a slow SSE client")
	}
	// The stream itself is still coherent from the start.
	frames := readFrames(t, r, 1)
	if frames[0].ID == 0 {
		t.Error("frame without id")
	}
}

func TestSSENilBusServesEmptyStream(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil-bus /events: %d, want 200", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, SchemaV1) {
		t.Errorf("handshake = %q, want schema comment", line)
	}
}
