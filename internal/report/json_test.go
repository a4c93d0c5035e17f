package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/netlist"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/testlib"
	"hummingbird/internal/workload"
)

// JSONResult is the JSON report as a structure encoding/json encodes: the
// reference WriteJSON must reproduce byte for byte. netSlacksPs is a
// name-keyed map, whose keys encoding/json sorts, while WriteJSON writes
// the nets in id order, which follows sorted names.
type JSONResult struct {
	Design      string                 `json:"design"`
	OK          bool                   `json:"ok"`
	WorstPs     int64                  `json:"worstPs"`
	Cells       int                    `json:"cells"`
	Nets        int                    `json:"nets"`
	Elements    int                    `json:"elements"`
	Clusters    int                    `json:"clusters"`
	Passes      int                    `json:"passes"`
	Sweeps      JSONSweeps             `json:"sweeps"`
	NetSlacks   map[string]int64       `json:"netSlacksPs"`
	Endpoints   []JSONEndpoint         `json:"endpoints"`
	SlowPaths   []JSONPath             `json:"slowPaths,omitempty"`
	PlanByID    []JSONPlan             `json:"plan"`
	Convergence []telemetry.SweepEvent `json:"convergence,omitempty"`
}

// JSONSweeps records the Algorithm 1 iteration counts.
type JSONSweeps struct {
	Forward  int `json:"forward"`
	Backward int `json:"backward"`
}

// JSONEndpoint is one synchronising-element terminal and its slack.
type JSONEndpoint struct {
	Element string `json:"element"`
	Kind    string `json:"terminal"` // "capture" or "launch"
	SlackPs int64  `json:"slackPs"`
}

// JSONPath is one traced path.
type JSONPath struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	SlackPs int64    `json:"slackPs"`
	DelayPs int64    `json:"delayPs"`
	Cluster int      `json:"cluster"`
	Pass    int      `json:"pass"`
	Nets    []string `json:"nets"`
	Insts   []string `json:"insts"`
}

// JSONPlan is one cluster's break-open plan.
type JSONPlan struct {
	Cluster  int     `json:"cluster"`
	NetCount int     `json:"nets"`
	Passes   []int64 `json:"breaksPs"`
	Greedy   bool    `json:"greedy,omitempty"`
}

// BuildJSON assembles the reference structure, counting cells with
// Design.CellStats as the report did before the analyzer kept the count.
func BuildJSON(a *core.Analyzer, rep *core.Report) *JSONResult {
	st := a.Design.CellStats(a.Lib)
	out := &JSONResult{
		Design: a.Design.Name, OK: rep.OK, WorstPs: int64(rep.WorstSlack()),
		Cells: st.Cells, Nets: len(a.CD.Nets),
		Elements: len(a.CD.Elems), Clusters: len(a.CD.Clusters),
		Passes:      a.CD.TotalPasses(),
		Sweeps:      JSONSweeps{Forward: rep.ForwardSweeps, Backward: rep.BackwardSweeps},
		NetSlacks:   map[string]int64{},
		Endpoints:   make([]JSONEndpoint, 0, 2*len(a.CD.Elems)),
		Convergence: rep.Trajectory,
	}
	for n := range rep.Result.NumNets() {
		if s := rep.Result.NetSlack(n); s != clock.Inf {
			out.NetSlacks[a.CD.Nets[n]] = int64(s)
		}
	}
	for ei, e := range a.CD.Elems {
		if s := rep.Result.InSlack(ei); s != clock.Inf {
			out.Endpoints = append(out.Endpoints, JSONEndpoint{Element: e.Name(), Kind: "capture", SlackPs: int64(s)})
		}
		if s := rep.Result.OutSlack(ei); s != clock.Inf {
			out.Endpoints = append(out.Endpoints, JSONEndpoint{Element: e.Name(), Kind: "launch", SlackPs: int64(s)})
		}
	}
	for _, p := range rep.SlowPaths {
		jp := JSONPath{
			From: a.CD.Elems[p.FromElem].Name(), To: a.CD.Elems[p.ToElem].Name(),
			SlackPs: int64(p.Slack), DelayPs: int64(p.Delay),
			Cluster: p.Cluster, Pass: p.Pass, Insts: p.Insts,
		}
		for _, n := range p.Nets {
			jp.Nets = append(jp.Nets, a.CD.Nets[n])
		}
		out.SlowPaths = append(out.SlowPaths, jp)
	}
	for _, cl := range a.CD.Clusters {
		jp := JSONPlan{Cluster: cl.ID, NetCount: len(cl.Nets), Greedy: !cl.Plan.Exhaustive}
		for _, b := range cl.Plan.Breaks {
			jp.Passes = append(jp.Passes, int64(b))
		}
		out.PlanByID = append(out.PlanByID, jp)
	}
	return out
}

// referenceJSON is BuildJSON through encoding/json's indenting encoder.
func referenceJSON(tb testing.TB, a *core.Analyzer, rep *core.Report) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(BuildJSON(a, rep)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// nameChain is a buffer chain from the input port IN through nets into a
// flip-flop on phi2, whose output an inverter drives onto the output port
// OUT. phi2 runs at twice phi's frequency, so the flip-flop is two
// elements and the report names the second "<inst>[1]". A second
// flip-flop, on phi, captures the chain's last net and drives a buffer
// whose net nothing reads: a cluster without outputs, so without passes.
// The instances take insts' names in that order; missing names are
// filled in.
func nameChain(nets, insts []string) *netlist.Design {
	k := 0
	inst := func() string {
		k++
		if k <= len(insts) {
			return insts[k-1]
		}
		return "u" + string(rune('a'+k))
	}
	d := netlist.New("chain")
	d.AddClock(clock.Signal{Name: "phi", Period: 20 * clock.Ns, RiseAt: 0, FallAt: 8 * clock.Ns})
	d.AddClock(clock.Signal{Name: "phi2", Period: 10 * clock.Ns, RiseAt: 0, FallAt: 4 * clock.Ns})
	d.AddPort(netlist.Port{Name: "IN", Dir: netlist.Input, RefClock: "phi", RefEdge: clock.Rise})
	d.AddPort(netlist.Port{Name: "OUT", Dir: netlist.Output, RefClock: "phi", RefEdge: clock.Fall})
	nets = append([]string{"IN"}, nets...)
	for i := 1; i < len(nets); i++ {
		d.AddInstance(netlist.Instance{Name: inst(), Ref: "BUF_X1",
			Conns: map[string]string{"A": nets[i-1], "Y": nets[i]}})
	}
	last := nets[len(nets)-1]
	d.AddInstance(netlist.Instance{Name: inst(), Ref: "DFF_X1",
		Conns: map[string]string{"D": last, "CK": "phi2", "Q": "q<&>"}})
	d.AddInstance(netlist.Instance{Name: inst(), Ref: "INV_X1", Conns: map[string]string{"A": "q<&>", "Y": "OUT"}})
	d.AddInstance(netlist.Instance{Name: inst(), Ref: "DFF_X1",
		Conns: map[string]string{"D": last, "CK": "phi", "Q": "r>"}})
	d.AddInstance(netlist.Instance{Name: inst(), Ref: "BUF_X1", Conns: map[string]string{"A": "r>", "Y": "unread"}})
	return d
}

// escapeNames is a name chain whose nets and instances are named with
// every character class JSON string encoding treats specially —
// HTML-escaped <, > and &, the quote and backslash escapes, a control
// character, a non-ASCII rune, the U+2028 line separator and invalid
// UTF-8 — and with JSON punctuation inside a name.
func escapeNames() *netlist.Design {
	d := nameChain(
		[]string{"a<b", "c>d", "e&f", `g"h`, `i\j`, "kλ", "l\u2028m", `n{[,:]}"\`},
		[]string{"g<1>", "g&2", `g"3`, `g\4`, "g\t5", "gλ6", "g\u20287", "g\xff8", `f{"1":[]}`, "i<9>", "f&10", "b<11"})
	d.Name = "escapes</script>"
	return d
}

// TestNetSlacksMatchMapEncoding holds WriteJSON's output to the reference
// encoder (BuildJSON through encoding/json, net slacks as a sorted map) on
// every workload generator; a failing design with slow paths; runs with a
// convergence trail, some of whose sweeps then read 0 ns; escape-heavy
// design, net, instance and element names, passing and failing; slow
// paths without arcs; a cluster without passes; and a design without
// clusters.
func TestNetSlacksMatchMapEncoding(t *testing.T) {
	must := func(d *netlist.Design, err error) *netlist.Design {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tight := func(d *netlist.Design, num int64) *netlist.Design { return must(core.ScaleClocks(d, num, 100)) }
	traced := core.DefaultOptions()
	traced.Trace = telemetry.NewTracer(io.Discard)
	empty := netlist.New("empty")
	empty.AddClock(clock.Signal{Name: "phi", Period: 20 * clock.Ns, RiseAt: 0, FallAt: 8 * clock.Ns})
	cases := []struct {
		d         *netlist.Design
		opts      *core.Options // nil: core.DefaultOptions()
		slowPaths int           // -1: any number
		trail     bool          // a convergence trail
		arcless   bool          // a slow path of no arc: IN straight into a flip-flop
	}{
		{d: must(workload.DES())}, {d: must(workload.ALU())}, {d: workload.SM1F()}, {d: workload.SM1H()},
		{d: workload.Figure1()}, {d: must(workload.DESGated())}, {d: must(workload.DESMultiFreq())},
		{d: must(workload.Pipeline(workload.PipeConfig{Name: "pipe", Stages: 3, Width: 4, Depth: 3, Latch: "DLATCH_X1", Seed: 7}))},
		{d: must(workload.SoC(4, 2, 2, 1))}, {d: must(workload.SoCCells(2000, 3))}, {d: must(workload.Scaling(1500, 5))},
		{d: tight(must(workload.SoC(8, 8, 4, 3)), 22), slowPaths: 1},
		{d: tight(must(workload.SoC(4, 4, 2, 27)), 22), opts: &traced, slowPaths: -1, trail: true},
		{d: escapeNames()},
		{d: tight(escapeNames(), 2), opts: &traced, slowPaths: -1, trail: true},
		{d: tight(nameChain(nil, nil), 3), slowPaths: -1, arcless: true},
		{d: empty},
	}
	lib := celllib.Default()
	for _, c := range cases {
		opts := core.DefaultOptions()
		if c.opts != nil {
			opts = *c.opts
		}
		a, err := core.Load(lib, c.d, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.d.Name, err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatalf("%s: %v", c.d.Name, err)
		}
		switch {
		case c.slowPaths >= 0 && len(rep.SlowPaths) != c.slowPaths,
			c.slowPaths < 0 && len(rep.SlowPaths) == 0:
			t.Fatalf("%s: %d slow paths, want %d (-1: some)", c.d.Name, len(rep.SlowPaths), c.slowPaths)
		case c.trail != (len(rep.Trajectory) > 0):
			t.Fatalf("%s: convergence trail of %d sweeps, want one: %v", c.d.Name, len(rep.Trajectory), c.trail)
		case c.arcless && !slices.ContainsFunc(rep.SlowPaths, func(p core.SlowPath) bool { return p.Insts == nil }):
			t.Fatalf("%s: no slow path without arcs", c.d.Name)
		}
		if diff := matchReference(t, a, rep); diff != "" {
			t.Fatalf("%s: %s", c.d.Name, diff)
		}
		if c.trail {
			// A sweep timed at 0 ns omits elapsedNs.
			r := *rep
			r.Trajectory = slices.Clone(rep.Trajectory)
			for i := 0; i < len(r.Trajectory); i += 2 {
				r.Trajectory[i].ElapsedNs = 0
			}
			if diff := matchReference(t, a, &r); diff != "" {
				t.Fatalf("%s with untimed sweeps: %s", c.d.Name, diff)
			}
		}
	}
}

// matchReference describes how WriteJSON's bytes differ from the
// reference encoding's, or returns "".
func matchReference(tb testing.TB, a *core.Analyzer, rep *core.Report) string {
	tb.Helper()
	var got bytes.Buffer
	if err := WriteJSON(&got, a, rep); err != nil {
		tb.Fatal(err)
	}
	want := referenceJSON(tb, a, rep)
	if bytes.Equal(got.Bytes(), want) {
		return ""
	}
	i := 0
	for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
		i++
	}
	from := max(0, i-80)
	return fmt.Sprintf("report differs from the reference encoding (%d vs %d bytes) at byte %d\n got: %q\nwant: %q",
		got.Len(), len(want), i, got.Bytes()[from:min(got.Len(), i+40)], want[from:min(len(want), i+40)])
}

// FuzzWriteJSON holds WriteJSON to the reference encoder on name chains
// built from fuzzed net and instance names ('|'-separated), at a fuzzed
// clock scale (1–100%, or nominal), with and without a convergence
// trail. Inputs core.Load or the clock scaling refuse are skipped.
func FuzzWriteJSON(f *testing.F) {
	f.Add("a<b|c>d|e&f|g\"h", "g<1>|g\\2|f |i&", uint8(100), false)
	f.Add("kλ|l\xffm|n{[,:]}", "g\t1|f[1]|g3", uint8(2), true)
	f.Add("", "y|z", uint8(2), false)
	lib := celllib.Default()
	f.Fuzz(func(t *testing.T, nets, insts string, scale uint8, trace bool) {
		d := nameChain(splitNames(nets), splitNames(insts))
		if scale < 100 { // the clocks at scale+1 percent
			var err error
			if d, err = core.ScaleClocks(d, int64(scale)+1, 100); err != nil {
				t.Skip(err)
			}
		}
		opts := core.DefaultOptions()
		if trace {
			opts.Trace = telemetry.NewTracer(io.Discard)
		}
		a, err := core.Load(lib, d, opts)
		if err != nil {
			t.Skip(err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Skip(err)
		}
		if diff := matchReference(t, a, rep); diff != "" {
			t.Fatal(diff)
		}
	})
}

// splitNames splits a fuzzed list of names, at most eight of them; an
// empty list has none.
func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	names := strings.Split(s, "|")
	return names[:min(len(names), 8)]
}

// reportDigests pins the SHA-256 prefix of WriteJSON's bytes on the
// workload generators; docs/FORMATS.md lists them. The 100k-cell rows
// are skipped under -short.
var reportDigests = []struct {
	name   string
	design func() (*netlist.Design, error)
	scale  int64 // clock scale in percent, 0 for nominal
	digest string
	large  bool
}{
	{"SoCCells(100_000, 1)", func() (*netlist.Design, error) { return workload.SoCCells(100_000, 1) }, 0, "62469340964c754b", true},
	{"SoCCells(100_000, 1) at 22%", func() (*netlist.Design, error) { return workload.SoCCells(100_000, 1) }, 22, "bd5549bb6af67ca6", true},
	{"DES", workload.DES, 0, "f4f935ed0c8309bd", false},
	{"ALU", workload.ALU, 0, "1854c0bb6baffee5", false},
	{"SM1F", func() (*netlist.Design, error) { return workload.SM1F(), nil }, 0, "501ed3bf5d63e520", false},
	{"SM1H", func() (*netlist.Design, error) { return workload.SM1H(), nil }, 0, "51e62b1d141c869f", false},
	{"Figure 1", func() (*netlist.Design, error) { return workload.Figure1(), nil }, 0, "bd8a61be9a9cf8b9", false},
	{"DES gated", workload.DESGated, 0, "d54cda2fdbf57d30", false},
	{"DES multi-frequency", workload.DESMultiFreq, 0, "bfa0cf37cea15287", false},
	{"SoC(8, 8, 4, 3)", func() (*netlist.Design, error) { return workload.SoC(8, 8, 4, 3) }, 0, "16e0e9aa4eda3e33", false},
	{"SoC(8, 8, 4, 3) at 22%", func() (*netlist.Design, error) { return workload.SoC(8, 8, 4, 3) }, 22, "aae3748f7b6a0014", false},
}

// TestReportDigests holds the report's bytes to the pinned digests: the
// format is an interface, and every change to the writer or to the
// analysis behind it must leave these unchanged or say why.
func TestReportDigests(t *testing.T) {
	lib := celllib.Default()
	for _, c := range reportDigests {
		if c.large && testing.Short() {
			continue
		}
		d, err := c.design()
		if err == nil && c.scale != 0 {
			d, err = core.ScaleClocks(d, c.scale, 100)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		a, err := core.Load(lib, d, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		if err := WriteJSON(h, a, rep); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.digest {
			t.Errorf("%s: report digest %s, pinned %s", c.name, got, c.digest)
		}
	}
}

// TestWriteJSONAllocs holds a steady-state DES report, 173 KB, to the
// writer's pooled buffer: 0 allocations and 0 B measured, against 53
// allocations and 1.15 MB through encoding/json. A per-name or
// per-element allocation adds thousands; an unpooled or growing buffer
// adds its size.
func TestWriteJSONAllocs(t *testing.T) {
	d, err := workload.DES()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Load(celllib.Default(), d, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.IdentifySlowPaths()
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		if err := WriteJSON(io.Discard, a, rep); err != nil {
			t.Fatal(err)
		}
	}
	write()
	allocs := testing.AllocsPerRun(50, write)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		write()
	}
	runtime.ReadMemStats(&after)
	perReport := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs and %d B per DES report", allocs, perReport)
	if allocs > 4 {
		t.Errorf("a DES report allocates %.0f times, limit 4", allocs)
	}
	// The race detector's pool drops a quarter of the buffers put back.
	if perReport > 2048 && !testlib.Race {
		t.Errorf("a DES report allocates %d B, limit 2,048 B", perReport)
	}
}
