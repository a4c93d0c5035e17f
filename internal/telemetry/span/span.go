// Package span is the request-scoped tracing layer of the telemetry
// substrate: one Trace per served request, carried through the call
// stack via context.Context, with nested Spans marking the phases the
// request passes through (admission wait, journal append, edit
// classification, dirty-cluster recompute, individual fixed-point
// sweeps, response encoding, ...).
//
// The disabled path is designed for instrumentation that is always
// compiled in: Start on a context with no trace attached costs one
// context value lookup and returns a nil *Span, and every Span method
// is nil-safe, so instrumented code calls Start/Annotate/End
// unconditionally. A nil context is accepted everywhere (the CLI entry
// points pass nil through the analysis layers) and behaves like a
// context without a trace.
//
// Traces cross process boundaries: every span has a per-trace id, and
// Inject stamps outbound requests with the trace id and the current
// span's id (X-Trace-Id / X-Hb-Parent-Span). A receiving process that
// adopts both headers produces a fragment whose Parent names the span
// it hung off in the caller, and Stitch splices fragments from several
// processes back into one tree using their wall-clock anchors.
//
// Finished traces export three ways: a JSON span tree (WriteJSON, the
// GET /v1/sessions/{id}/trace/last payload), the Chrome trace-event
// format (WriteChrome; load the file at chrome://tracing or in
// Perfetto), and an indented text rendering (WriteText, the daemon's
// slow-request log).
package span

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceIDHeader carries the trace id across process boundaries.
const TraceIDHeader = "X-Trace-Id"

// ParentSpanHeader carries the caller's current span id alongside
// TraceIDHeader, so the receiving process's trace fragment records
// which remote span it nests under.
const ParentSpanHeader = "X-Hb-Parent-Span"

// ValidID reports whether a trace or span id that arrived from outside
// the process may be adopted: 1 to 64 bytes of [A-Za-z0-9._-]. Ids name
// log lines, trace files and URL paths, so a caller's header is never
// taken verbatim.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// ctxKey carries the current *Span through a context chain.
type ctxKey struct{}

// Trace is one request's span tree. All mutation goes through the
// trace mutex, so spans may be created and ended from any goroutine.
type Trace struct {
	id string

	mu      sync.Mutex
	root    *Span
	process string // emitting process ("router", "r2"); "" if unset
	parent  string // remote parent span id, "" for a trace root
	nextID  int64  // span id allocator; root is 1
}

// Span is one timed phase within a trace. The zero *Span (nil) is a
// valid no-op receiver for every method. Its id and integer attributes
// are kept as integers and formatted only when they are read or the
// trace is exported.
type Span struct {
	tr       *Trace
	id       int64
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []attr
	children []*Span
}

// attr is one span attribute: a string, or an integer when isNum is set.
type attr struct {
	key   string
	str   string
	num   int64
	isNum bool
}

func (a *attr) value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// New starts a trace: the root span (named for the operation) begins
// immediately.
func New(id, name string) *Trace {
	tr := &Trace{id: id, nextID: 1}
	tr.root = &Span{tr: tr, id: 1, name: name, start: time.Now()}
	return tr
}

// ID returns the trace id generated at admission.
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// SetProcess names the process emitting this trace fragment (a replica
// id, or "router"). The name rides along in exports so stitched trees
// can attribute spans to processes.
func (t *Trace) SetProcess(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.process = name
	t.mu.Unlock()
}

// SetRemoteParent records the span id (in the calling process) that
// this trace fragment nests under — the value of ParentSpanHeader on
// the inbound request.
func (t *Trace) SetRemoteParent(spanID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = spanID
	t.mu.Unlock()
}

// NewContext returns a context carrying the trace, with the root span
// current: Start calls on the returned context create children of the
// root.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t.root)
}

// FromContext returns the trace attached to ctx, or nil. A nil ctx is
// accepted.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return sp.tr
	}
	return nil
}

// Start opens a child span of ctx's current span and returns a context
// in which the child is current. Without a trace (or with a nil ctx) it
// returns its arguments' context unchanged and a nil span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return nil, nil
	}
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok {
		return ctx, nil
	}
	child := &Span{tr: parent.tr, name: name, start: time.Now()}
	parent.tr.mu.Lock()
	parent.tr.nextID++
	child.id = parent.tr.nextID
	parent.children = append(parent.children, child)
	parent.tr.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, child), child
}

// Current returns ctx's current span (the one new Starts would nest
// under), or nil.
func Current(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Inject stamps outbound request headers with ctx's trace id and
// current span id, so the receiving process can open a correlated
// trace fragment. No-op without a trace.
func Inject(ctx context.Context, h http.Header) {
	sp := Current(ctx)
	if sp == nil {
		return
	}
	h.Set(TraceIDHeader, sp.tr.id)
	h.Set(ParentSpanHeader, strconv.FormatInt(sp.id, 10))
}

// End closes the span, fixing its duration. Double-End keeps the first
// duration; nil receivers no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Annotate attaches a key/value attribute to the span, replacing an
// earlier value of the key; nil-safe.
func (s *Span) Annotate(key, value string) { s.set(key, value, 0, false) }

// AnnotateInt is Annotate for integer values, which are kept unformatted;
// nil-safe.
func (s *Span) AnnotateInt(key string, value int) { s.set(key, "", int64(value), true) }

// set does the work of Annotate and AnnotateInt, which inline to a
// single call of it: the nil check is made and the attr built here, not
// at every call site, so untraced hot callers (core.sweep,
// sta.RecomputeContext) stay small.
func (s *Span) set(key, str string, num int64, isNum bool) {
	if s == nil {
		return
	}
	a := attr{key: key, str: str, num: num, isNum: isNum}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// Attr returns the value of a previously attached attribute ("" if
// absent); nil-safe.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			return s.attrs[i].value()
		}
	}
	return ""
}

// Finish ends the root span — and, so every export is well-nested,
// force-ends any still-open descendant at the same instant — and
// returns the trace's total duration. Idempotent.
func (t *Trace) Finish() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(t.root)
	return t.root.dur
}

func (t *Trace) endLocked(s *Span) {
	for _, c := range s.children {
		t.endLocked(c)
	}
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
}

// Node is the exported form of one span: offsets are nanoseconds since
// the trace started, so child intervals can be checked against their
// parent's without wall-clock arithmetic. SpanID and Process survive
// stitching: a spliced-in fragment's root carries the process it ran
// in (descendants inherit it implicitly).
type Node struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"spanId,omitempty"`
	Process  string            `json:"process,omitempty"`
	OffsetNs int64             `json:"offsetNs"`
	DurNs    int64             `json:"durNs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// Tree snapshots the span tree. Unfinished spans export with the
// duration they have accumulated so far.
func (t *Trace) Tree() *Node {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exportLocked(t.root)
}

func (t *Trace) exportLocked(s *Span) *Node {
	n := &Node{
		Name:     s.name,
		SpanID:   strconv.FormatInt(s.id, 10),
		OffsetNs: s.start.Sub(t.root.start).Nanoseconds(),
		DurNs:    s.dur.Nanoseconds(),
	}
	if !s.ended {
		n.DurNs = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for i := range s.attrs {
			n.Attrs[s.attrs[i].key] = s.attrs[i].value()
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, t.exportLocked(c))
	}
	return n
}

// Export is the wire form of one process's trace fragment: the span
// tree plus the metadata Stitch needs to splice fragments from several
// processes (which remote span it hangs off, and a wall-clock anchor
// for rebasing offsets across processes).
type Export struct {
	ID          string `json:"id"`
	Process     string `json:"process,omitempty"`
	ParentSpan  string `json:"parentSpan,omitempty"`
	StartUnixNs int64  `json:"startUnixNs,omitempty"`
	Root        *Node  `json:"root"`
}

// Export snapshots the trace in its wire form.
func (t *Trace) Export() *Export {
	root := t.Tree()
	t.mu.Lock()
	defer t.mu.Unlock()
	root.Process = t.process
	return &Export{
		ID:          t.id,
		Process:     t.process,
		ParentSpan:  t.parent,
		StartUnixNs: t.root.start.UnixNano(),
		Root:        root,
	}
}

// WriteJSON serialises the trace as an indented JSON span tree.
func (t *Trace) WriteJSON(w io.Writer) error {
	return t.Export().WriteJSON(w)
}

// WriteJSON serialises the export as indented JSON.
func (e *Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Stitch splices trace fragments from several processes into one tree.
// The base fragment is the one without a remote parent (ties and
// absence fall back to the earliest wall-clock start); every other
// fragment is attached under the span whose id matches its ParentSpan,
// with all its offsets rebased by the wall-clock delta between the two
// fragments' starts. Fragments whose parent span cannot be found attach
// under the base root rather than being dropped. Stitch returns nil for
// an empty input.
func Stitch(frags []*Export) *Export {
	var rest []*Export
	var base *Export
	for _, f := range frags {
		if f == nil || f.Root == nil {
			continue
		}
		better := base == nil ||
			(f.ParentSpan == "" && base.ParentSpan != "") ||
			(f.ParentSpan == "") == (base.ParentSpan == "") && f.StartUnixNs < base.StartUnixNs
		if better {
			if base != nil {
				rest = append(rest, base)
			}
			base = f
		} else {
			rest = append(rest, f)
		}
	}
	if base == nil {
		return nil
	}
	// Fragments splice in wall-clock order so a chained fragment can
	// find its parent span inside an earlier-attached fragment.
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].StartUnixNs < rest[j].StartUnixNs })

	out := &Export{ID: base.ID, Process: base.Process, StartUnixNs: base.StartUnixNs, Root: cloneNode(base.Root)}
	index := make(map[string]*Node)
	indexSpans(index, out.Root)
	for _, f := range rest {
		frag := cloneNode(f.Root)
		frag.Process = f.Process
		shift := f.StartUnixNs - base.StartUnixNs
		shiftOffsets(frag, shift)
		parent := index[f.ParentSpan]
		if parent == nil {
			parent = out.Root
		}
		parent.Children = append(parent.Children, frag)
		// Span ids are per-fragment counters, so later fragments only
		// claim ids the tree does not already hold — earlier processes
		// win lookups, which keeps depth-2 stitches (router → replica)
		// exact and deeper chains deterministic.
		indexSpans(index, frag)
	}
	return out
}

func cloneNode(n *Node) *Node {
	c := *n
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return &c
}

func shiftOffsets(n *Node, delta int64) {
	n.OffsetNs += delta
	for _, c := range n.Children {
		shiftOffsets(c, delta)
	}
}

func indexSpans(index map[string]*Node, n *Node) {
	if n.SpanID != "" {
		if _, taken := index[n.SpanID]; !taken {
			index[n.SpanID] = n
		}
	}
	for _, c := range n.Children {
		indexSpans(index, c)
	}
}

// chromeEvent is one Chrome trace event ("X" complete events for
// spans, "M" metadata events for process names).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // µs since trace start
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome serialises the trace in the Chrome trace-event format
// (a JSON array of complete events), loadable in chrome://tracing and
// Perfetto.
func (t *Trace) WriteChrome(w io.Writer) error {
	return t.Export().WriteChrome(w)
}

// WriteChrome serialises the export — possibly a stitched multi-process
// tree — as Chrome trace events. Each distinct process in the tree gets
// its own pid (spans inherit their nearest ancestor's process) plus a
// process_name metadata event, so a stitched failover renders as two
// labelled process lanes in one file.
func (e *Export) WriteChrome(w io.Writer) error {
	pids := map[string]int{}
	pid := func(process string) int {
		if p, ok := pids[process]; ok {
			return p
		}
		p := len(pids) + 1
		pids[process] = p
		return p
	}
	var events []chromeEvent
	var walk func(n *Node, process string)
	walk = func(n *Node, process string) {
		if n.Process != "" {
			process = n.Process
		}
		events = append(events, chromeEvent{
			Name: n.Name, Ph: "X",
			Ts:  float64(n.OffsetNs) / 1e3,
			Dur: float64(n.DurNs) / 1e3,
			Pid: pid(process), Tid: 1,
			Args: n.Attrs,
		})
		for _, c := range n.Children {
			walk(c, process)
		}
	}
	root := e.Root
	if root == nil {
		root = &Node{Name: "empty"}
	}
	base := e.Process
	if base == "" {
		base = "trace"
	}
	walk(root, base)
	meta := make([]chromeEvent, 0, len(pids))
	for name, p := range pids {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p, Tid: 1,
			Args: map[string]string{"name": name},
		})
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i].Pid < meta[j].Pid })
	return json.NewEncoder(w).Encode(append(meta, events...))
}

// WriteText renders the trace as an indented tree, one span per line —
// the slow-request log format.
func (t *Trace) WriteText(w io.Writer) {
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(w, "%*s%s %v", 2*depth, "", n.Name, time.Duration(n.DurNs))
		if len(n.Attrs) > 0 {
			b, _ := json.Marshal(n.Attrs)
			fmt.Fprintf(w, " %s", b)
		}
		fmt.Fprintln(w)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	fmt.Fprintf(w, "trace %s\n", t.id)
	walk(t.Tree(), 1)
}

// Ring is a bounded retention buffer of finished traces, keyed by id:
// the store behind GET /v1/traces/{id}. Adding past capacity evicts
// the oldest id; re-adding an id replaces its trace in place.
type Ring struct {
	mu    sync.Mutex
	cap   int
	order []string
	byID  map[string]*Trace
}

// NewRing returns a ring retaining up to capacity traces (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity, byID: make(map[string]*Trace, capacity)}
}

// Add retains the trace, evicting the oldest if the ring is full;
// nil-safe on both receiver and trace.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil || t.id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[t.id]; ok {
		r.byID[t.id] = t
		return
	}
	if len(r.order) >= r.cap {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.byID, old)
	}
	r.order = append(r.order, t.id)
	r.byID[t.id] = t
}

// Get returns the retained trace with the given id, or nil.
func (r *Ring) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}
