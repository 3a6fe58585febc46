package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of work. Spans form a tree: StartSpan opens
// a root, Child opens a nested span, End closes one. A nil *Span is a
// valid disabled span — Child returns nil, SetAttr/SetError/End are
// no-ops — so tracing call sites need no conditionals.
//
// A Span's children may be appended from the goroutine that owns the
// span; concurrent children are supported through the internal lock.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // guarded by mu
	attrs    []attr    // guarded by mu
	errMsg   string    // guarded by mu
	children []*Span   // guarded by mu
}

// attr is one key=value annotation on a span (e.g. shard=3, cache=hit).
type attr struct {
	key, val string
}

// StartSpan opens a root span.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child opens a sub-span under s. Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildInterval attaches an already-measured region as a closed child
// span: the caller supplies the start and end timestamps it observed
// elsewhere (a shard worker's enqueue→dequeue→done clock reads travel
// back to the router, which reconstructs the spans). Returns nil on a
// nil span.
func (s *Span) ChildInterval(name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, end: end}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span with a key=value pair (last write wins at
// export). No-op on a nil span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, val: val})
	s.mu.Unlock()
}

// SetError marks the span as failed and records the error text (also
// surfaced as the "error" attribute of the exported node). A nil error
// or a nil span is a no-op.
func (s *Span) SetError(err error) {
	if s == nil {
		return
	}
	if err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End closes the span. Closing twice keeps the first end time. No-op on
// a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// spanCtxKey is the context key spans propagate under.
type spanCtxKey struct{}

// WithSpan returns a context carrying sp, the request-scoped tracing
// channel of the serving stack: the HTTP middleware installs the root
// span, and every layer below (shard router, matcher) attaches children
// via SpanFrom. A nil span returns ctx unchanged, so the disabled path
// allocates nothing.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil when ctx is nil or
// carries none. The nil result composes with the nil-safe Span methods:
// call sites chain SpanFrom(ctx).Child(...) unconditionally.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// SpanNode is the exported form of a span tree, JSON-serializable.
type SpanNode struct {
	Name       string            `json:"name"`
	StartNanos int64             `json:"startNanos"`
	Millis     float64           `json:"millis"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
	Children   []SpanNode        `json:"children,omitempty"`
}

// Export snapshots the span tree with wall-times. A still-open span
// reports its duration up to now. Returns a zero node on nil.
func (s *Span) Export() SpanNode {
	if s == nil {
		return SpanNode{}
	}
	s.mu.Lock()
	end := s.end
	errMsg := s.errMsg
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	var attrs map[string]string
	if len(s.attrs) > 0 {
		attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.val
		}
	}
	s.mu.Unlock()
	if end.IsZero() {
		end = time.Now()
	}
	n := SpanNode{
		Name:       s.name,
		StartNanos: s.start.UnixNano(),
		Millis:     float64(end.Sub(s.start)) / float64(time.Millisecond),
		Attrs:      attrs,
		Error:      errMsg,
	}
	for _, c := range kids {
		n.Children = append(n.Children, c.Export())
	}
	return n
}

// Render writes the tree as an indented outline, for logs and CLIs.
func (n SpanNode) Render() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n SpanNode) render(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s%s %.3fms", strings.Repeat("  ", depth), n.Name, n.Millis)
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%s", k, n.Attrs[k])
		}
	}
	if n.Error != "" {
		fmt.Fprintf(b, " error=%q", n.Error)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}
