package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanAttrsAndError(t *testing.T) {
	sp := StartSpan("req")
	sp.SetAttr("shard", "3")
	sp.SetAttr("cache", "miss")
	sp.SetAttr("cache", "hit") // last write wins
	sp.SetError(errors.New("boom"))
	sp.End()

	n := sp.Export()
	if n.Attrs["shard"] != "3" || n.Attrs["cache"] != "hit" {
		t.Errorf("attrs = %v", n.Attrs)
	}
	if n.Error != "boom" || !sp.Errored() {
		t.Errorf("error not exported: %+v", n)
	}
	if !strings.Contains(n.Render(), "cache=hit") {
		t.Errorf("Render misses attrs: %s", n.Render())
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("x"))
	sp.ChildInterval("c", time.Now(), time.Now()).End()
	if sp.Errored() || sp.DurationMillis() != 0 {
		t.Fatal("nil span must be inert")
	}
	if got := SpanFrom(WithSpan(context.Background(), nil)); got != nil {
		t.Fatalf("WithSpan(nil) must not install a span, got %v", got)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context must carry no span")
	}
	sp := StartSpan("root")
	ctx := WithSpan(context.Background(), sp)
	if SpanFrom(ctx) != sp {
		t.Fatal("span lost in context round-trip")
	}
	// A child attached through the context shows up under the root.
	SpanFrom(ctx).Child("inner").End()
	sp.End()
	n := sp.Export()
	if len(n.Children) != 1 || n.Children[0].Name != "inner" {
		t.Fatalf("children = %+v", n.Children)
	}
}

func TestChildIntervalReconstruction(t *testing.T) {
	root := StartSpan("req")
	enq := time.Now()
	dq := enq.Add(3 * time.Millisecond)
	done := dq.Add(5 * time.Millisecond)
	sh := root.ChildInterval("shard", enq, done)
	sh.ChildInterval("queue_wait", enq, dq)
	sh.ChildInterval("compute", dq, done)
	root.End()

	n := root.Export()
	if len(n.Children) != 1 || len(n.Children[0].Children) != 2 {
		t.Fatalf("tree shape wrong: %+v", n)
	}
	qw := n.Children[0].Children[0]
	if qw.Millis < 2.9 || qw.Millis > 3.1 {
		t.Errorf("queue_wait millis = %v, want ~3", qw.Millis)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record("id", "op", StartSpan("x"), "")
	if fr.Len() != 0 || len(fr.Traces()) != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if _, ok := fr.ByID("id"); ok {
		t.Fatal("nil recorder returned a trace")
	}
}

// recordWithMillis fabricates a closed span of the given duration.
func recordWithMillis(fr *FlightRecorder, id, op string, millis float64, errMsg string) {
	start := time.Now().Add(-time.Duration(millis * float64(time.Millisecond)))
	sp := &Span{name: op, start: start}
	sp.end = start.Add(time.Duration(millis * float64(time.Millisecond)))
	fr.Record(id, op, sp, errMsg)
}

func TestFlightRecorderKeepsSlowest(t *testing.T) {
	fr := NewFlightRecorder(3, 8)
	for i := 0; i < 10; i++ {
		recordWithMillis(fr, fmt.Sprintf("r%d", i), "/vpair", float64(i), "")
	}
	got := fr.Traces()
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	for _, tr := range got {
		if tr.Millis < 7 {
			t.Errorf("retained fast trace %s (%.1fms); slowest-3 should be 7,8,9", tr.ID, tr.Millis)
		}
	}
	if _, ok := fr.ByID("r9"); !ok {
		t.Error("slowest trace evicted")
	}
	if _, ok := fr.ByID("r0"); ok {
		t.Error("fastest trace retained beyond capacity")
	}
}

func TestFlightRecorderErroredRing(t *testing.T) {
	fr := NewFlightRecorder(2, 3)
	for i := 0; i < 5; i++ {
		recordWithMillis(fr, fmt.Sprintf("e%d", i), "/vpair", 0.01, "HTTP 500")
	}
	// Ring of 3: the most recent three errors survive.
	for _, id := range []string{"e2", "e3", "e4"} {
		if _, ok := fr.ByID(id); !ok {
			t.Errorf("recent errored trace %s lost", id)
		}
	}
	for _, id := range []string{"e0", "e1"} {
		if _, ok := fr.ByID(id); ok {
			t.Errorf("old errored trace %s should have been overwritten", id)
		}
	}
	// Errored traces never compete with the slow set.
	if n := fr.Len(); n != 3 {
		t.Errorf("Len = %d, want 3", n)
	}
}

func TestFlightRecorderPerOpIsolation(t *testing.T) {
	fr := NewFlightRecorder(1, 1)
	recordWithMillis(fr, "a", "/vpair", 5, "")
	recordWithMillis(fr, "b", "/apair", 1, "")
	if fr.Len() != 2 {
		t.Fatalf("ops must not share retention slots: Len = %d", fr.Len())
	}
}

// TestFlightRecorderConcurrent hammers one recorder from many writers
// under -race: memory stays bounded by the per-op capacities, and with
// fewer errored traces than the ring capacity none may be lost.
func TestFlightRecorderConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 200
		slowCap   = 4
		errCap    = writers // one errored trace per writer, under capacity
	)
	fr := NewFlightRecorder(slowCap, errCap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				recordWithMillis(fr, id, "/vpair", float64(i%50), "")
			}
			recordWithMillis(fr, fmt.Sprintf("err-w%d", w), "/vpair", 1, "HTTP 503")
		}(w)
	}
	wg.Wait()

	if n := fr.Len(); n > slowCap+errCap {
		t.Fatalf("recorder exceeded bound: %d traces > %d", n, slowCap+errCap)
	}
	for w := 0; w < writers; w++ {
		if _, ok := fr.ByID(fmt.Sprintf("err-w%d", w)); !ok {
			t.Errorf("errored trace err-w%d lost despite ring capacity %d", w, errCap)
		}
	}
	got := fr.Traces()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.StartNanos > b.StartNanos || (a.StartNanos == b.StartNanos && a.ID > b.ID) {
			t.Fatalf("Traces not in (start, id) order: %v before %v", a.ID, b.ID)
		}
	}
}

// Errored reports whether SetError was called (false on nil).
func (s *Span) Errored() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg != ""
}

// DurationMillis reports the span's wall time in milliseconds — up to
// now when the span is still open. Returns 0 on nil.
func (s *Span) DurationMillis() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	return float64(end.Sub(s.start)) / float64(time.Millisecond)
}
