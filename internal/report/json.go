package report

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/syncelem"
)

// WriteJSON writes the machine-readable analysis export: verdict, per-net
// slacks, per-endpoint slacks, traced paths and the pass plan, as indented
// JSON (docs/FORMATS.md §5). Times are integer picoseconds; infinite
// (unconstrained) slacks are omitted.
func WriteJSON(w io.Writer, a *core.Analyzer, rep *core.Report) error {
	_, err := SnapshotOf(a, rep).WriteTo(w)
	return err
}

// A Snapshot is what the JSON report reads of an analysis, taken at one
// instant: the report, the compiled design's net, element and cluster
// tables, and the design's name and cell count. Those tables and a
// published report are never written afterwards, but an engine may swap
// its analyzer's compiled design for a private copy on its first edit, so
// a caller that shares the analyzer with an editor takes the snapshot
// under the editor's lock and may write it after releasing the lock.
type Snapshot struct {
	design string
	cells  int
	cd     *cluster.CompiledDesign
	rep    *core.Report
}

// SnapshotOf takes the report's inputs from a and rep.
func SnapshotOf(a *core.Analyzer, rep *core.Report) Snapshot {
	return Snapshot{design: a.Design.Name, cells: a.Cells, cd: a.CD, rep: rep}
}

// flushAt is the size at which the report buffer is handed to the writer.
const flushAt = 32 << 10

// jsonWriter appends the report into a pooled buffer and hands the buffer
// to w whenever it passes flushAt, so the buffer stays about flushAt
// whatever the report's size.
type jsonWriter struct {
	w   io.Writer
	b   []byte
	n   int64
	err error
}

// writers pools jsonWriters with their buffers of 2×flushAt.
var writers = sync.Pool{New: func() any { return &jsonWriter{b: make([]byte, 0, 2*flushAt)} }}

// item ends one member of a list: once b passes flushAt it goes to the
// writer and the emptied buffer comes back. ok is false once the writer
// has failed.
func (jw *jsonWriter) item(b []byte) (_ []byte, ok bool) {
	if len(b) >= flushAt {
		jw.b = b
		jw.flush()
		b = jw.b
	}
	return b, jw.err == nil
}

func (jw *jsonWriter) flush() {
	if jw.err == nil && len(jw.b) > 0 {
		var n int
		n, jw.err = jw.w.Write(jw.b)
		jw.n += int64(n)
	}
	jw.b = jw.b[:0]
}

// WriteTo writes the report to w in one pass over the snapshot's tables,
// byte-identical to encoding/json's indented encoding of the report
// (key order, two-space indent, HTML-safe escapes, trailing newline). It
// returns the bytes written and stops at w's first error.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	jw := writers.Get().(*jsonWriter)
	jw.w, jw.n, jw.err = w, 0, nil
	s.write(jw)
	jw.flush()
	n, err := jw.n, jw.err
	jw.w, jw.err = nil, nil
	if cap(jw.b) <= 4*flushAt { // a huge name grew it: let it go
		writers.Put(jw)
	}
	return n, err
}

// write appends the report into jw, a list member at a time. Where
// encoding/json writes an empty object or array on one line ("{}", "[]")
// and a nil slice as null, so does write.
func (s Snapshot) write(jw *jsonWriter) {
	cd, rep := s.cd, s.rep
	res := rep.Result
	ok := true
	b := append(jw.b, "{\n  \"design\": "...)
	b = appendString(b, s.design)
	b = append(b, ",\n  \"ok\": "...)
	b = strconv.AppendBool(b, rep.OK)
	b = appendInt(b, ",\n  \"worstPs\": ", int64(rep.WorstSlack()))
	b = appendInt(b, ",\n  \"cells\": ", int64(s.cells))
	b = appendInt(b, ",\n  \"nets\": ", int64(len(cd.Nets)))
	b = appendInt(b, ",\n  \"elements\": ", int64(len(cd.Elems)))
	b = appendInt(b, ",\n  \"clusters\": ", int64(len(cd.Clusters)))
	b = appendInt(b, ",\n  \"passes\": ", int64(cd.TotalPasses()))
	b = appendInt(b, ",\n  \"sweeps\": {\n    \"forward\": ", int64(rep.ForwardSweeps))
	b = appendInt(b, ",\n    \"backward\": ", int64(rep.BackwardSweeps))

	b = append(b, "\n  },\n  \"netSlacksPs\": {"...)
	sep := ""
	for n := range res.NumNets() {
		if sl := res.NetSlack(n); sl != clock.Inf {
			b = append(b, sep...)
			b = append(b, "\n    "...)
			b = appendString(b, cd.Nets[n])
			b = appendInt(b, ": ", int64(sl))
			sep = ","
			if b, ok = jw.item(b); !ok {
				return
			}
		}
	}
	if sep != "" {
		b = append(b, "\n  "...)
	}

	b = append(b, "},\n  \"endpoints\": ["...)
	sep = ""
	for ei, e := range cd.Elems {
		for _, t := range [2]struct {
			kind  string
			slack clock.Time
		}{{"capture", res.InSlack(ei)}, {"launch", res.OutSlack(ei)}} {
			if t.slack == clock.Inf {
				continue
			}
			b = append(b, sep...)
			b = append(b, "\n    {\n      \"element\": "...)
			b = appendElem(b, e)
			b = append(b, ",\n      \"terminal\": \""...)
			b = append(b, t.kind...)
			b = appendInt(b, "\",\n      \"slackPs\": ", int64(t.slack))
			b = append(b, "\n    }"...)
			sep = ","
		}
		if b, ok = jw.item(b); !ok {
			return
		}
	}
	if sep != "" {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')

	if len(rep.SlowPaths) > 0 {
		b = append(b, ",\n  \"slowPaths\": ["...)
		for i := range rep.SlowPaths {
			p := &rep.SlowPaths[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"from\": "...)
			b = appendElem(b, cd.Elems[p.FromElem])
			b = append(b, ",\n      \"to\": "...)
			b = appendElem(b, cd.Elems[p.ToElem])
			b = appendInt(b, ",\n      \"slackPs\": ", int64(p.Slack))
			b = appendInt(b, ",\n      \"delayPs\": ", int64(p.Delay))
			b = appendInt(b, ",\n      \"cluster\": ", int64(p.Cluster))
			b = appendInt(b, ",\n      \"pass\": ", int64(p.Pass))
			b = append(b, ",\n      \"nets\": "...)
			if len(p.Nets) == 0 {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for k, n := range p.Nets {
					if k > 0 {
						b = append(b, ',')
					}
					b = append(b, "\n        "...)
					b = appendString(b, cd.Nets[n])
				}
				b = append(b, "\n      ]"...)
			}
			b = append(b, ",\n      \"insts\": "...)
			switch {
			case p.Insts == nil:
				b = append(b, "null"...)
			case len(p.Insts) == 0:
				b = append(b, "[]"...)
			default:
				b = append(b, '[')
				for k, inst := range p.Insts {
					if k > 0 {
						b = append(b, ',')
					}
					b = append(b, "\n        "...)
					b = appendString(b, inst)
				}
				b = append(b, "\n      ]"...)
			}
			b = append(b, "\n    }"...)
			if b, ok = jw.item(b); !ok {
				return
			}
		}
		b = append(b, "\n  ]"...)
	}

	b = append(b, ",\n  \"plan\": "...)
	if len(cd.Clusters) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, cl := range cd.Clusters {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, "\n    {\n      \"cluster\": ", int64(cl.ID))
			b = appendInt(b, ",\n      \"nets\": ", int64(len(cl.Nets)))
			b = append(b, ",\n      \"breaksPs\": "...)
			if len(cl.Plan.Breaks) == 0 {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for k, br := range cl.Plan.Breaks {
					if k > 0 {
						b = append(b, ',')
					}
					b = appendInt(b, "\n        ", int64(br))
				}
				b = append(b, "\n      ]"...)
			}
			if !cl.Plan.Exhaustive {
				b = append(b, ",\n      \"greedy\": true"...)
			}
			b = append(b, "\n    }"...)
			if b, ok = jw.item(b); !ok {
				return
			}
		}
		b = append(b, "\n  ]"...)
	}

	if len(rep.Trajectory) > 0 {
		b = append(b, ",\n  \"convergence\": ["...)
		for i := range rep.Trajectory {
			ev := &rep.Trajectory[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"iteration\": "...)
			b = appendString(b, ev.Iteration)
			b = appendInt(b, ",\n      \"sweep\": ", int64(ev.Sweep))
			b = appendInt(b, ",\n      \"moved\": ", int64(ev.Moved))
			b = appendInt(b, ",\n      \"recomputed\": ", int64(ev.Recomputed))
			b = appendInt(b, ",\n      \"worstSlackPs\": ", ev.WorstSlackPs)
			if ev.ElapsedNs != 0 {
				b = appendInt(b, ",\n      \"elapsedNs\": ", ev.ElapsedNs)
			}
			b = append(b, "\n    }"...)
			if b, ok = jw.item(b); !ok {
				return
			}
		}
		b = append(b, "\n  ]"...)
	}
	jw.b = append(b, "\n}\n"...)
}

// appendInt appends key (the JSON punctuation before a number) and v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendElem appends an element's name, e.Name() without building it.
func appendElem(b []byte, e *syncelem.Element) []byte {
	if e.Occur == 0 {
		return appendString(b, e.Inst)
	}
	b = appendString(b, e.Inst)
	b = append(b[:len(b)-1], '[')
	b = strconv.AppendInt(b, int64(e.Occur), 10)
	return append(b, "]\""...)
}

// appendString appends s as a JSON string. Names made only of printable
// ASCII needing no escape are copied verbatim; others go through
// encoding/json's string encoder (HTML-safe, invalid UTF-8 replaced).
func appendString(b []byte, s string) []byte {
	if plainJSON(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
}

// plainJSON reports whether s encodes as a JSON string unchanged.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
