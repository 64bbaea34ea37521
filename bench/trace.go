package main

// Spans recorded by bench-owned code at layer boundaries: the client call,
// a timing handler around Router.Handler(), a timing RoundTripper on the
// router's forwarding client, a timing handler around Server.Handler(),
// and the engine interval each answer reports about itself. Nothing inside
// the program under test is instrumented (that is ROADMAP's stage clock).
//
// The router forwards no headers, so a request is identified at every
// boundary by what all of them can see: (graph, seed, k, epsilon) for a
// query, the path for anything else. The traced pass never has two
// requests with the same identity in flight, which lets each boundary find
// its parent as "the innermost open span with my identity".

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval. Start and End are offsets from the tracer's
// epoch; Parent is 0 for a root. Spans of one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    string        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names, outermost first.
const (
	spanClient  = "client"
	spanRouter  = "route.handler"
	spanForward = "route.forward"
	spanNode    = "serve.handler"
	spanEngine  = "serve.engine"
	spanRun     = "imm.run"
	spanSample  = "imm.sampling"
	spanSelect  = "imm.selection"
)

type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	inner  map[string]int64 // request identity -> innermost open span
	nopen  map[string]int   // request identity -> spans open now
	serial map[string]int   // request identity -> occurrences so far
	// ambiguous holds the Req of every group of same-identity requests
	// that overlapped in time.
	ambiguous map[string]bool
	nextID    int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<14),
		inner:  make(map[string]int64),
		nopen:  make(map[string]int),
		serial: make(map[string]int),

		ambiguous: make(map[string]bool),
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// open starts a span at the given instant (the boundary was entered before
// the identity could be parsed out of the body) under the innermost open
// span of the same request identity, or as a root, and makes it the
// innermost. It returns the span's index for close.
func (t *tracer) open(name, ident string, at time.Time) int {
	now := at.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.inner[ident]
	if parent == 0 {
		t.serial[ident]++
	}
	req := fmt.Sprintf("%s#%d", ident, t.serial[ident])
	if name == spanClient && parent != 0 {
		// A client call is outermost: one that finds a span of its
		// identity open has a twin in flight.
		t.ambiguous[req] = true
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name, Start: now, Req: req})
	t.inner[ident] = t.nextID
	t.nopen[ident]++
	return len(t.spans) - 1
}

// close ends span i and hands "innermost" back to its parent.
func (t *tracer) close(i int, ident string) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.nopen[ident]--
	if p := t.spans[i].Parent; p != 0 && t.nopen[ident] > 0 {
		t.inner[ident] = p
	} else {
		// Twins close in any order; once none is open the identity
		// starts afresh.
		delete(t.inner, ident)
	}
}

// childAtEnd records an already-finished interval of length d under the
// finished span i, laid against its end and clamped to it: the engine's
// self-reported wall (the answer is written right after the engine returns).
func (t *tracer) childAtEnd(i int, name string, d time.Duration) {
	t.mu.Lock()
	total := t.spans[i].dur()
	t.mu.Unlock()
	if d > total {
		d = total
	}
	t.childAt(i, name, total-d, d)
}

// childAt records an already-finished interval under span i at an offset
// from its start, for phases known to run in sequence.
func (t *tracer) childAt(i int, name string, off, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[i]
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: p.ID, Req: p.Req, Name: name, Start: p.Start + off, End: p.Start + off + d})
}

// identity derives a request's identity from what every boundary sees. The
// body is read and restored, which the handlers would do anyway.
func identity(r *http.Request) string {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/query" && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		var q struct {
			Graph   string  `json:"graph"`
			K       int     `json:"k"`
			Epsilon float64 `json:"epsilon"`
			Seed    uint64  `json:"seed"`
		}
		if err == nil && json.Unmarshal(body, &q) == nil {
			return queryIdent(q.Graph, q.Seed, q.K, q.Epsilon)
		}
	}
	return r.Method + " " + r.URL.Path
}

func queryIdent(graph string, seed uint64, k int, eps float64) string {
	return fmt.Sprintf("%s/%d/%d/%g", graph, seed, k, eps)
}

// bodyCapture keeps a copy of what a handler wrote so the engine's
// self-reported wall can be read back after the span has ended.
type bodyCapture struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *bodyCapture) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// traceHandler wraps h in a span named name. With engine set, the answer's
// wall_ms becomes a child span: the interval the engine reports for itself.
func traceHandler(t *tracer, name string, engine bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		ident := identity(r)
		i := t.open(name, ident, start)
		var bc *bodyCapture
		if engine {
			bc = &bodyCapture{ResponseWriter: w}
			w = bc
		}
		h.ServeHTTP(w, r)
		t.close(i, ident)
		if bc != nil {
			var res struct {
				WallMS float64 `json:"wall_ms"`
			}
			if json.Unmarshal(bc.buf.Bytes(), &res) == nil && res.WallMS > 0 {
				t.childAtEnd(i, spanEngine, time.Duration(res.WallMS*float64(time.Millisecond)))
			}
		}
	})
}

// traceTransport times the router -> node leg.
type traceTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.next.RoundTrip(r)
	}
	start := time.Now()
	ident := identity(r)
	i := tt.t.open(spanForward, ident, start)
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.close(i, ident)
		return resp, err
	}
	// The leg ends when the reply body has been read, not when the
	// headers arrive.
	resp.Body = &closeHook{ReadCloser: resp.Body, done: func() { tt.t.close(i, ident) }}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	done func()
}

func (c *closeHook) Close() error {
	err := c.ReadCloser.Close()
	if c.done != nil {
		c.done()
		c.done = nil
	}
	return err
}

// selfStat summarizes one span name over a traced pass.
type selfStat struct {
	Count     int     `json:"count"`
	P50MS     float64 `json:"p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
	SelfSumMS float64 `json:"self_total_ms"`
}

// selfTimes computes, per span name, the duration and self time (duration
// minus the part of the interval its children cover; children of one span
// here never overlap each other).
func selfTimes(spans []span) map[string]selfStat {
	covered := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		self := s.dur() - covered[s.ID]
		if self < 0 {
			self = 0
		}
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], ms(self))
	}
	out := make(map[string]selfStat, len(durs))
	for name, d := range durs {
		st := selfStat{Count: len(d), P50MS: median(d), SelfP50MS: median(selfs[name])}
		for _, x := range selfs[name] {
			st.SelfSumMS += x
		}
		out[name] = st
	}
	return out
}

// checkSpans reports structural faults: an unfinished span, a child that
// names a missing parent or lies outside it (beyond clock slack).
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	const slack = time.Millisecond
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s %s) never ended", s.ID, s.Name, s.Req)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("trace: span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start-slack || s.End > p.End+slack {
			return fmt.Errorf("trace: span %d (%s %s) lies outside its parent %s", s.ID, s.Name, s.Req, p.Name)
		}
		if s.Req != p.Req {
			return fmt.Errorf("trace: span %d (%s) has request %q, its parent %q", s.ID, s.Name, s.Req, p.Req)
		}
	}
	return nil
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Machine   machine             `json:"machine"`
	Ambiguous int                 `json:"ambiguous_requests"`
	Self      map[string]selfStat `json:"self_time"`
	Spans     []span              `json:"spans"`
}

// snapshot copies the spans recorded so far, in ID order, without those of
// ambiguous requests, and says how many client calls that left out.
func (t *tracer) snapshot() (spans []span, ambiguous int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		switch {
		case !t.ambiguous[s.Req]:
			spans = append(spans, s)
		case s.Name == spanClient:
			ambiguous++
		}
	}
	return spans, ambiguous
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
