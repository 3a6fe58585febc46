package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram accumulated")
	}
	var s *Span
	s.Child("c").End()
	s.End()
	if n := s.Export(); n.Name != "" {
		t.Error("nil span exported content")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry wrote %q, %v", b.String(), err)
	}
}

// TestNilHandlesNeverPanic executes the "zero cost when nil" contract:
// instrumentation sites hold possibly-nil handles and call them
// unconditionally, so every exported method of every handle type must
// survive a nil receiver. Methods are found by reflection and called
// with zero arguments, so one added later is covered without a new line
// here.
func TestNilHandlesNeverPanic(t *testing.T) {
	for _, h := range []any{
		(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil),
		(*Registry)(nil), (*Span)(nil), (*FlightRecorder)(nil),
	} {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			m, name := v.Method(i), v.Type().Elem().Name()+"."+v.Type().Method(i).Name
			n := m.Type().NumIn()
			if m.Type().IsVariadic() {
				n--
			}
			args := make([]reflect.Value, n)
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(*%s)(nil) panics: %v", name, r)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("her_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("her_test_total") != c {
		t.Error("counter not memoized")
	}
	g := r.Gauge("her_test_gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %f, want 2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("her_test_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	bounds, cum, total := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Cumulative: ≤0.1 → 1, ≤1 → 3, ≤10 → 4, +Inf total → 5.
	if cum[0] != 1 || cum[1] != 3 || cum[2] != 4 || total != 5 {
		t.Errorf("cumulative = %v total %d", cum, total)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Errorf("sum = %f, want %f", got, want)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`her_http_requests_total{endpoint="/vpair",status="200"}`).Add(3)
	r.Counter(`her_http_requests_total{endpoint="/vpair",status="400"}`).Inc()
	r.Gauge("her_build_info").Set(1)
	h := r.Histogram(`her_http_request_seconds{endpoint="/vpair"}`, []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE her_http_requests_total counter\n",
		`her_http_requests_total{endpoint="/vpair",status="200"} 3` + "\n",
		`her_http_requests_total{endpoint="/vpair",status="400"} 1` + "\n",
		"# TYPE her_build_info gauge\n",
		"her_build_info 1\n",
		"# TYPE her_http_request_seconds histogram\n",
		`her_http_request_seconds_bucket{endpoint="/vpair",le="0.5"} 1` + "\n",
		`her_http_request_seconds_bucket{endpoint="/vpair",le="1"} 1` + "\n",
		`her_http_request_seconds_bucket{endpoint="/vpair",le="+Inf"} 2` + "\n",
		`her_http_request_seconds_sum{endpoint="/vpair"} 2.2` + "\n",
		`her_http_request_seconds_count{endpoint="/vpair"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One TYPE header per family, not per series.
	if n := strings.Count(out, "# TYPE her_http_requests_total"); n != 1 {
		t.Errorf("family header count = %d", n)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("her_conc_total").Inc()
				r.Gauge("her_conc_gauge").Add(1)
				r.Histogram("her_conc_seconds", nil).Observe(float64(j) / 1000)
				if j%50 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("her_conc_total").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("her_conc_seconds", nil).Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("apair")
	c1 := root.Child("candgen")
	time.Sleep(time.Millisecond)
	c1.End()
	c2 := root.Child("simulate")
	gc := c2.Child("superstep-0")
	gc.End()
	c2.End()
	root.End()

	n := root.Export()
	if n.Name != "apair" || len(n.Children) != 2 {
		t.Fatalf("tree = %+v", n)
	}
	if n.Children[0].Name != "candgen" || n.Children[0].Millis <= 0 {
		t.Errorf("child 0 = %+v", n.Children[0])
	}
	if len(n.Children[1].Children) != 1 || n.Children[1].Children[0].Name != "superstep-0" {
		t.Errorf("grandchild = %+v", n.Children[1])
	}
	if n.Millis < n.Children[0].Millis {
		t.Errorf("root %.3fms shorter than child %.3fms", n.Millis, n.Children[0].Millis)
	}
	if !strings.Contains(n.Render(), "  candgen ") {
		t.Errorf("render = %q", n.Render())
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	root := StartSpan("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Child("worker").End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Export().Children); got != 16 {
		t.Errorf("children = %d, want 16", got)
	}
}
