package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader links the three spans of one request: the transport
// sets it to its round-trip span's id and the handler wrapper reads it.
const requestIDHeader = "X-Xbarbench-Span"

// span is one timed interval. Times are offsets from the tracer's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Class  string        `json:"class,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// ReqBytes and RespBytes are body sizes on http.roundtrip spans.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. Every
// span is recorded from the benchmark's own code, around calls into
// the program: the SDK call, the transport round trip, the handler.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	non2xx atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

// spanCtx is the context value naming the span a call runs under.
type spanCtx struct {
	id    int64
	class string
}

func withSpan(ctx context.Context, id int64, class string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{id: id, class: class})
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// transport wraps a caller's http.RoundTripper with an http.roundtrip
// span that ends when the response body has been read to EOF (or
// closed), so it covers the whole exchange on the wire.
type transport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	s := span{ID: t.tr.id(), Parent: parent.id, Name: "http.roundtrip", Class: parent.class, ReqBytes: req.ContentLength}
	r := req.Clone(req.Context())
	r.Header.Set(requestIDHeader, strconv.FormatInt(s.ID, 10))
	s.Start = t.tr.now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		s.End = t.tr.now()
		t.tr.record(s)
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		t.tr.non2xx.Add(1)
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// spanBody closes its round-trip span at EOF or Close, whichever comes
// first, counting the bytes read.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.End = b.tr.now()
		b.tr.record(b.s)
	})
}

// handler wraps the service's handler with a server.handler span whose
// parent is the round trip named by the request-id header.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		t.record(span{ID: t.id(), Parent: parent, Name: "server.handler", Start: start, End: t.now()})
	})
}

// covered returns how much of [start, end) the union of the children's
// intervals covers; overlapping children are counted once.
func covered(start, end time.Duration, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) time.Duration {
	return s.dur() - covered(s.Start, s.End, children)
}

// opBreakdown attributes one class's ops to layers: for every client
// op span of the class, the SDK's own time (span minus round trips),
// the HTTP overhead (round trips minus handlers), the handler time and
// the bytes on the wire. Each slice has one entry per op.
type opBreakdown struct {
	clientSelf, httpOverhead, handler []float64 // ms
	reqBytes, respBytes               []float64
}

func breakdown(spans []span, class string) opBreakdown {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var b opBreakdown
	for _, op := range spans {
		if op.Class != class || !strings.HasPrefix(op.Name, "client.") {
			continue
		}
		rts := children[op.ID]
		var handlers []span
		var rtOverhead time.Duration
		var req, resp int64
		for _, rt := range rts {
			hs := children[rt.ID]
			handlers = append(handlers, hs...)
			rtOverhead += selfTime(rt, hs)
			req += rt.ReqBytes
			resp += rt.RespBytes
		}
		var handler time.Duration
		for _, h := range handlers {
			handler += h.dur()
		}
		b.clientSelf = append(b.clientSelf, ms(selfTime(op, rts)))
		b.httpOverhead = append(b.httpOverhead, ms(rtOverhead))
		b.handler = append(b.handler, ms(handler))
		b.reqBytes = append(b.reqBytes, float64(req))
		b.respBytes = append(b.respBytes, float64(resp))
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans dumps every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
