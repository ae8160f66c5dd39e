package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNilAndZeroAreInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(OpIngest, 0, 1)
	if sp.Sampled() {
		t.Fatal("nil tracer produced a sampled span")
	}
	sp.SetN(3)
	sp.End()
	tr.Instant(OpBucketCreate, 0, 1, 1)
	if c := sp.Context(); c.Valid() {
		t.Fatal("inert span has a valid context")
	}
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}

	// Rate 0 = off.
	off := New(NewRing(8), 0)
	if off.Enabled() {
		t.Fatal("rate-0 tracer reports enabled")
	}
	if off.Start(OpIngest, 0, 1).Sampled() {
		t.Fatal("rate-0 tracer sampled a root")
	}
}

func TestHeadSamplingRate(t *testing.T) {
	ring := NewRing(1024)
	tr := New(ring, 4)
	sampled := 0
	for i := 0; i < 100; i++ {
		sp := tr.Start(OpIngest, 0, int64(i))
		if sp.Sampled() {
			sampled++
		}
		sp.End()
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 roots at 1-in-4", sampled)
	}
	if got := len(ring.Snapshot()); got != 25 {
		t.Fatalf("ring holds %d spans, want 25", got)
	}
}

func TestChildAndInstantNesting(t *testing.T) {
	ring := NewRing(64)
	tr := New(ring, 1)

	root := tr.Start(OpIngest, 2, 10)
	tr.Instant(OpBucketCreate, 2, 10, 1)
	child := tr.Child(OpSend, 2, 10)
	child.SetN(7)
	ctx := child.Context()
	child.End()
	tr.Instant(OpBucketMerge, 2, 10, 3)
	root.End()

	if !ctx.Valid() {
		t.Fatal("sampled child has invalid context")
	}
	spans := ring.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byOp := map[Op]SpanRec{}
	for _, s := range spans {
		byOp[s.Op] = s
	}
	rootRec := byOp[OpIngest]
	if rootRec.Parent != 0 || rootRec.Trace != rootRec.ID {
		t.Fatalf("bad root: %+v", rootRec)
	}
	send := byOp[OpSend]
	if send.Parent != rootRec.ID || send.Trace != rootRec.Trace || send.N != 7 {
		t.Fatalf("bad send child: %+v", send)
	}
	if ctx.Trace != rootRec.Trace || ctx.Span != send.ID {
		t.Fatalf("context %+v does not match send span %+v", ctx, send)
	}
	// The merge instant fired after the child closed, so its parent is
	// the root again (the chain popped).
	merge := byOp[OpBucketMerge]
	if merge.Parent != rootRec.ID || !merge.Instant {
		t.Fatalf("bad merge instant: %+v", merge)
	}
	create := byOp[OpBucketCreate]
	if create.Parent != rootRec.ID || create.N != 1 {
		t.Fatalf("bad create instant: %+v", create)
	}

	// After the root ends, instants are inert again.
	tr.Instant(OpBucketExpire, 2, 11, 1)
	if got := len(ring.Snapshot()); got != 4 {
		t.Fatalf("instant recorded outside any span (%d spans)", got)
	}
}

func TestStartLinkedContinuesRemoteTrace(t *testing.T) {
	ring := NewRing(64)
	site := New(ring, 1)
	coord := New(ring, 1)

	root := site.Start(OpIngest, 0, 5)
	send := site.Child(OpSend, 0, 5)
	ctx := send.Context()
	send.End()
	root.End()

	apply := coord.StartLinked(ctx, OpApply, 0, 5)
	if !apply.Sampled() {
		t.Fatal("linked span of a sampled trace not sampled")
	}
	apply.End()

	// An invalid (untraced) context stays untraced.
	if coord.StartLinked(Context{}, OpApply, 0, 5).Sampled() {
		t.Fatal("linked span of an untraced message was sampled")
	}

	spans := ring.Snapshot()
	var applyRec, sendRec, rootRec *SpanRec
	for i := range spans {
		switch spans[i].Op {
		case OpApply:
			applyRec = &spans[i]
		case OpSend:
			sendRec = &spans[i]
		case OpIngest:
			rootRec = &spans[i]
		}
	}
	if applyRec == nil || sendRec == nil || rootRec == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if applyRec.Trace != rootRec.Trace || applyRec.Parent != sendRec.ID {
		t.Fatalf("apply not linked under send: %+v", applyRec)
	}
}

func TestRingOverwritesWhenFull(t *testing.T) {
	ring := NewRing(4)
	tr := New(ring, 1)
	for i := 0; i < 10; i++ {
		tr.Start(OpIngest, 0, int64(i)).End()
	}
	spans := ring.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for _, s := range spans {
		if s.T < 6 {
			t.Fatalf("old span survived overwrite: %+v", s)
		}
	}
	if ring.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", ring.Recorded())
	}
}

func TestRingConcurrentTracers(t *testing.T) {
	ring := NewRing(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := New(ring, 1)
			for i := 0; i < 500; i++ {
				sp := tr.Start(OpIngest, g, int64(i))
				tr.Instant(OpBucketCreate, g, int64(i), 1)
				sp.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ring.Snapshot() // must not race with writers
		}
	}()
	wg.Wait()
	<-done
	if got := len(ring.Snapshot()); got != 256 {
		t.Fatalf("full ring snapshot has %d spans, want 256", got)
	}
}

// TestDetachedSpansLeaveTheChainAlone pins that detached spans (queries)
// may open and end on another goroutine while the tracer's owner runs
// chained spans: under -race, an End that read the owner's current-span
// chain would be reported.
func TestDetachedSpansLeaveTheChainAlone(t *testing.T) {
	ring := NewRing(256)
	tr := New(ring, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tr.StartDetached(OpQuery, -1, int64(i)).End()
		}
	}()
	for i := 0; i < 500; i++ {
		root := tr.Start(OpIngest, 0, int64(i))
		tr.Child(OpSend, 0, int64(i)).End()
		root.End()
	}
	wg.Wait()
	if tr.cur != nil {
		t.Fatal("current-span chain not empty after every chained span ended")
	}
	if got := ring.Recorded(); got != 1500 {
		t.Fatalf("Recorded = %d, want 1500", got)
	}
}

// TestChromeTraceFormat pins the export to the Chrome trace-event JSON
// contract: an object with a traceEvents array whose members carry name,
// ph, ts, pid and tid, with X events carrying durations and i events a
// scope.
func TestChromeTraceFormat(t *testing.T) {
	ring := NewRing(64)
	tr := New(ring, 1)
	root := tr.Start(OpIngest, 1, 42)
	tr.Instant(OpBucketCreate, 1, 42, 1)
	send := tr.Child(OpSend, 1, 42)
	ctx := send.Context()
	send.End()
	root.End()
	New(ring, 1).StartLinked(ctx, OpApply, -1, 42).End()

	buf, err := ring.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	phs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		ph := ev["ph"].(string)
		phs[ph]++
		switch ph {
		case "X":
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("X event missing ts: %v", ev)
			}
		case "i":
			if ev["s"] != "t" {
				t.Fatalf("instant event missing scope: %v", ev)
			}
		}
	}
	if phs["X"] < 3 || phs["i"] < 1 || phs["M"] < 2 {
		t.Fatalf("unexpected event mix: %v", phs)
	}

	// The coordinator's apply renders under pid 0, sites under site+1.
	var coordSeen bool
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "apply" && ev["pid"].(float64) == 0 {
			coordSeen = true
		}
	}
	if !coordSeen {
		t.Fatal("apply span not attributed to the coordinator process")
	}
}

func TestHandlerServesJSON(t *testing.T) {
	ring := NewRing(8)
	New(ring, 1).Start(OpQuery, -1, 0).End()
	rec := httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if OpIngest.String() != "ingest" || OpApply.String() != "apply" {
		t.Fatal("op names broken")
	}
	if Op(200).String() != "unknown" {
		t.Fatal("unknown op name")
	}
}
